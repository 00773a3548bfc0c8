/* The compiled kernel tier, loaded by repro.algorithms.native: the
 * min-relaxation kernels of SSSP (float64 distances, suffix f64) and
 * AsyncBFS (int64 depths, i64) and the min-commit CC uses too; BFS's and
 * Reachability's discovery passes; the scatter-add of PageRank, SpMV and
 * SCC's degrees, straight from a batch's SNB payload; PageRank's
 * end-of-iteration vertex pass (pagerank_end); the SNB decode
 * (widen_*); and the write path: the symmetric tile encoder's two passes
 * (upper_keys, unpack_*) and the per-tile CRC32C (crc32c_extents).
 *
 * Every kernel takes n, the length of the state array, and checks an
 * endpoint or index against it before it reads or writes state there: on
 * an out-of-range one it returns -1 (the caller raises IndexError).  A
 * candidate or discovery pass writes only its outputs, and a commit
 * checks all its indices before its first write.  Candidates are computed
 * against the state as it stands on entry and only then committed, as the
 * NumPy bodies they replace do; nothing relaxes in place.  The write-path
 * kernels check their whole input (endpoints, tile positions, extents)
 * before their first write too, and return -1 on anything out of range.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

typedef int64_t i64;
#define INLINE static inline __attribute__((always_inline))

/* Where an edge's weight comes from.  The relaxation loop is inlined once
 * per source, so no edge tests which (about 10 % of a pass). */
enum { UNIT, HASH, HASH_OUT, W32, W64 };

/* Edge i's weight: 1 (AsyncBFS); stored (w32, w64); or the endpoint hash
 * 1 + ((a ^ 7b) & 15) of a = min(s, t), b = max(s, t) (sssp.edge_weights),
 * also written to w_out under HASH_OUT. */
INLINE double weight(int mode, const float *w32, const double *w64,
                     float *w_out, i64 i, uint32_t s, uint32_t t)
{
    if (mode == UNIT)
        return 1;
    if (mode == W32)
        return w32[i];
    if (mode == W64)
        return w64[i];
    uint32_t a = s < t ? s : t, b = s < t ? t : s;
    float h = 1 + ((a ^ (b * 7u)) & 15u);
    if (mode == HASH_OUT)
        w_out[i] = h;
    return h;
}

#define KERNELS(X, T)                                                        \
/* d[idx[j]] = min(d[idx[j]], val[j]) in order, and flags[idx[j]] = 1 when  \
 * flags is not NULL: np.minimum.at(d, idx, val); flags[idx] = True. */     \
int min_commit_##X(T *d, i64 n, const i64 *idx, const T *val, i64 k,        \
                   uint8_t *flags)                                           \
{                                                                            \
    for (i64 j = 0; j < k; j++)                                              \
        if ((uint64_t)idx[j] >= (uint64_t)n)                                 \
            return -1;                                                       \
    for (i64 j = 0; j < k; j++) {                                            \
        i64 v = idx[j];                                                      \
        d[v] = d[v] < val[j] ? d[v] : val[j]; /* np.minimum's choice */      \
        if (flags)                                                           \
            flags[v] = 1;                                                    \
    }                                                                        \
    return 0;                                                                \
}                                                                            \
                                                                             \
/* One relaxation pass over m edges against d: the strictly improving       \
 * (vertex, value) candidates, forward ones in edge order, then (sym) the   \
 * mirrored ones, packed into idx/val (room for 2m when sym, m otherwise).  \
 * Returns their count, or -1 on an out-of-range endpoint.  (Writing every  \
 * edge's slot branch-free measured no faster: few edges improve.) */       \
INLINE i64 relax_##X(const T *d, i64 n, const uint32_t *src,                 \
                     const uint32_t *dst, i64 m, int sym, int mode,          \
                     const float *w32, const double *w64, float *w_out,      \
                     i64 *idx, T *val)                                       \
{                                                                            \
    i64 k = 0, kb = 0;                                                       \
    for (i64 i = 0; i < m; i++) {                                            \
        uint32_t s = src[i], t = dst[i];                                     \
        if (s >= n || t >= n)                                                \
            return -1;                                                       \
        T w = weight(mode, w32, w64, w_out, i, s, t);                        \
        T ds = d[s], dt = d[t], c = ds + w, cb = dt + w;                     \
        if (c < dt) { idx[k] = t; val[k++] = c; }                            \
        if (sym && cb < ds) { idx[m + kb] = s; val[m + kb++] = cb; }         \
    }                                                                        \
    memmove(idx + k, idx + m, kb * sizeof *idx);                             \
    memmove(val + k, val + m, kb * sizeof *val);                             \
    return k + kb;                                                           \
}                                                                            \
                                                                             \
i64 candidates_##X(const T *d, i64 n, const uint32_t *src,                   \
                   const uint32_t *dst, i64 m, int sym, const float *w32,    \
                   const double *w64, float *w_out, i64 *idx, T *val);       \
                                                                             \
/* Commit k candidates (flagging changed), then relax the shard against the \
 * committed state and commit again, at most `rounds` times (a negative     \
 * count: until no candidate is left, the shard's fixpoint).  Returns 0,    \
 * -1 out of range, -2 out of memory. */                                     \
int rounds_##X(T *d, i64 n, const uint32_t *src, const uint32_t *dst,        \
               i64 m, int sym, const float *w32, const double *w64,          \
               const i64 *idx, const T *val, i64 k, uint8_t *changed,        \
               i64 rounds)                                                   \
{                                                                            \
    if (min_commit_##X(d, n, idx, val, k, changed))                          \
        return -1;                                                           \
    if (k == 0 || rounds == 0)                                               \
        return 0;                                                            \
    i64 cap = sym ? 2 * m : m;                                               \
    i64 *bidx = malloc(cap * sizeof *bidx);                                  \
    T *bval = malloc(cap * sizeof *bval);                                    \
    int rc = bidx && bval ? 0 : -2;                                          \
    for (; rc == 0 && k > 0 && rounds != 0; rounds--) {                      \
        k = candidates_##X(d, n, src, dst, m, sym, w32, w64, NULL, bidx,     \
                           bval);                                            \
        rc = k < 0 ? -1 : min_commit_##X(d, n, bidx, bval, k, changed);      \
    }                                                                        \
    free(bidx);                                                              \
    free(bval);                                                              \
    return rc;                                                               \
}

KERNELS(f64, double)
KERNELS(i64, i64)

/* SSSP's pass: stored weights (w32 or w64), else the hash, written to
 * w_out when that is not NULL. */
i64 candidates_f64(const double *d, i64 n, const uint32_t *src,
                   const uint32_t *dst, i64 m, int sym, const float *w32,
                   const double *w64, float *w_out, i64 *idx, double *val)
{
#define PASS(MODE) \
    relax_f64(d, n, src, dst, m, sym, MODE, w32, w64, w_out, idx, val)
    if (w32)
        return PASS(W32);
    if (w64)
        return PASS(W64);
    return w_out ? PASS(HASH_OUT) : PASS(HASH);
#undef PASS
}

/* AsyncBFS's pass: every edge weighs 1 (the weight arguments unused). */
i64 candidates_i64(const i64 *d, i64 n, const uint32_t *src,
                   const uint32_t *dst, i64 m, int sym, const float *w32,
                   const double *w64, float *w_out, i64 *idx, i64 *val)
{
    return relax_i64(d, n, src, dst, m, sym, UNIT, w32, w64, w_out, idx,
                     val);
}

/* Which discovery a pass runs: BFS's (frontier depth == level, open
 * depth == inf, UINT32_MAX = types.INF_DEPTH) or Reachability's (frontier
 * flags; open is allowed and not visited). */
enum { BFS, REACH };

/* One discovery pass over m edges against the state as it stands (read
 * only): the targets t of edges whose source s is on the frontier and t
 * open, in edge order, then (sym) the mirrored ones, the sources of edges
 * whose target is on the frontier and s open, packed into out (room for
 * 2m when sym, m otherwise).  A vertex discovered twice is listed twice,
 * as the NumPy bodies list it.  Returns the count, or -1 on an
 * out-of-range endpoint.  Branch-free: every edge writes its slot and
 * advances the count by the predicate, since the explosion level makes a
 * frontier test unpredictable (a third faster than branching there). */
INLINE i64 discover(int kind, int sym, const uint32_t *depth,
                    uint32_t level, const uint8_t *frontier,
                    const uint8_t *allowed, const uint8_t *visited, i64 n,
                    const uint32_t *src, const uint32_t *dst, i64 m,
                    i64 *out)
{
    i64 k = 0, kb = 0;
    for (i64 i = 0; i < m; i++) {
        uint32_t s = src[i], t = dst[i];
        if (s >= n || t >= n)
            return -1;
        int from_s, from_t, open_s, open_t;
        if (kind == BFS) {
            uint32_t ds = depth[s], dt = depth[t];
            from_s = ds == level;
            from_t = dt == level;
            open_s = ds == UINT32_MAX;
            open_t = dt == UINT32_MAX;
        } else {
            from_s = frontier[s];
            from_t = frontier[t];
            open_s = allowed[s] & !visited[s];
            open_t = allowed[t] & !visited[t];
        }
        out[k] = t;
        k += from_s & open_t;
        if (sym) {
            out[m + kb] = s;
            kb += from_t & open_s;
        }
    }
    memmove(out + k, out + m, kb * sizeof *out);
    return k + kb;
}

i64 discover_bfs(const uint32_t *depth, i64 n, const uint32_t *src,
                 const uint32_t *dst, i64 m, int sym, uint32_t level,
                 i64 *out)
{
#define PASS(SYM) \
    discover(BFS, SYM, depth, level, NULL, NULL, NULL, n, src, dst, m, out)
    return sym ? PASS(1) : PASS(0);
#undef PASS
}

/* A backward sweep passes src and dst swapped. */
i64 discover_reach(const uint8_t *frontier, const uint8_t *allowed,
                   const uint8_t *visited, i64 n, const uint32_t *src,
                   const uint32_t *dst, i64 m, int sym, i64 *out)
{
#define PASS(SYM) discover(REACH, SYM, NULL, 0, frontier, allowed, visited, \
                           n, src, dst, m, out)
    return sym ? PASS(1) : PASS(0);
#undef PASS
}

/* Whether any of a[0..m) is above top: 16 at a time, a trip count -O2
 * vectorises (a plain loop measured 1.6 times as slow), then the rest. */
#define ABOVE(X, L)                                                          \
INLINE int above_##X(const L *a, i64 m, L top)                              \
{                                                                            \
    L any = 0;                                                               \
    i64 i = 0;                                                               \
    for (; i + 16 <= m; i += 16)                                             \
        for (int j = 0; j < 16; j++)                                         \
            any |= a[i + j] > top;                                           \
    for (; i < m; i++)                                                       \
        any |= a[i] > top;                                                   \
    return any != 0;                                                         \
}

ABOVE(u8, uint8_t)
ABOVE(u16, uint16_t)
ABOVE(u32, uint32_t)

/* Whether k tiles' counts are non-negative and sum to the n_pairs edges
 * of a payload (checked without int64 overflow). */
INLINE int counts_cover(const i64 *counts, i64 k, i64 n_pairs)
{
    i64 total = 0;
    for (i64 j = 0; j < k; j++) {
        if (counts[j] < 0 || counts[j] > n_pairs - total)
            return 0;
        total += counts[j];
    }
    return total == n_pairs;
}

/* The scatter kernels' commit over a batch in tile form, straight from
 * the SNB payload: k tiles' interleaved local (src, dst) pairs, counts[j]
 * of them for tile j, each endpoint widened as widen_* widens it, s =
 * sb[j] + local and t = db[j] + local with uint32 wraparound.  For each
 * edge in order fwd[t] += x[s], and (bwd) right after it bwd[s] += x[t]:
 * with bwd == fwd that is np.add.at over the interleaved pairs, so the
 * float addition order is the edge order whatever the shards, and with
 * two arrays each adds in edge order.  A tile none of whose locals is
 * above n - 1 less its larger base holds no bad endpoint -- one
 * vectorised compare per local, none at all when every local of the type
 * fits -- and only the others are checked edge by edge.
 * Returns, having written nothing, -1 on a widened endpoint not below n
 * and -2 unless the counts cover the payload. */
#define SCATTER(X, L)                                                        \
INLINE int scatter_##X(double *fwd, double *bwd, i64 n, const double *x,     \
                       const L *pairs, i64 n_pairs, const i64 *counts,       \
                       const uint32_t *sb, const uint32_t *db, i64 k)        \
{                                                                            \
    if (!counts_cover(counts, k, n_pairs))                                   \
        return -2;                                                           \
    for (i64 j = 0, e = 0; j < k; e += counts[j++]) {                        \
        uint32_t a = sb[j], b = db[j];                                       \
        const L *p = pairs + 2 * e;                                          \
        uint64_t hi = a > b ? a : b;                                         \
        if (hi < (uint64_t)n) {                                              \
            uint64_t room = (uint64_t)n - 1 - hi;                            \
            if (room >= (L)-1 || !above_##X(p, 2 * counts[j], (L)room))      \
                continue;                                                    \
        }                                                                    \
        for (i64 i = 0; i < counts[j]; i++)                                  \
            if ((uint32_t)(a + p[2 * i]) >= n ||                             \
                (uint32_t)(b + p[2 * i + 1]) >= n)                           \
                return -1;                                                   \
    }                                                                        \
    for (i64 j = 0, e = 0; j < k; j++) {                                     \
        uint32_t a = sb[j], b = db[j];                                       \
        for (i64 end = e + counts[j]; e < end; e++) {                        \
            uint32_t s = a + pairs[2 * e], t = b + pairs[2 * e + 1];         \
            fwd[t] += x[s];                                                  \
            if (bwd)                                                         \
                bwd[s] += x[t];                                              \
        }                                                                    \
    }                                                                        \
    return 0;                                                                \
}

SCATTER(u8, uint8_t)
SCATTER(u16, uint16_t)
SCATTER(u32, uint32_t)

/* pairs holds bits-wide locals (8, 16 or 32); bwd may be NULL or fwd. */
int scatter_add(double *fwd, double *bwd, i64 n, const double *x,
                const void *pairs, int bits, i64 n_pairs, const i64 *counts,
                const uint32_t *sb, const uint32_t *db, i64 k)
{
#define PASS(X, B) (B ? scatter_##X(fwd, bwd, n, x, pairs, n_pairs, counts,   \
                                    sb, db, k)                               \
                      : scatter_##X(fwd, NULL, n, x, pairs, n_pairs, counts, \
                                    sb, db, k))
    if (bits == 8)
        return PASS(u8, bwd);
    if (bits == 16)
        return PASS(u16, bwd);
    if (bits == 32)
        return PASS(u32, bwd);
    return -2;
#undef PASS
}

/* PageRank's end-of-iteration vertex pass, in place over n vertices: the
 * accumulator acc becomes the new rank and old, the old rank, becomes
 * |new - old|, whose sum is the iteration's delta.  Uniform teleport
 * (t NULL): new = c + d * (acc + a), with a = dangling mass / n and
 * c = (1 - d) / n; else new = c * t + d * (acc + a * t), with a the
 * dangling mass and c = 1 - d.  One statement per operation, in the order
 * NumPy's out-of-place formula takes them (addition and multiplication
 * commute exactly), so the bits are its: no operation is fused or
 * reordered under -std=c11. */
void pagerank_end(double *acc, double *old, const double *t, i64 n, double a,
                  double d, double c)
{
    for (i64 i = 0; i < n; i++) {
        double v;
        if (t) {
            double m = a * t[i];
            double s = acc[i] + m;
            double r = d * s;
            v = c * t[i];
            v = v + r;
        } else {
            double s = acc[i] + a;
            double r = d * s;
            v = c + r;
        }
        acc[i] = v;
        old[i] = fabs(v - old[i]);
    }
}

/* The SNB decode: k tiles' interleaved local (src, dst) pairs, counts[j]
 * of them for tile j, in order, to global IDs, gsrc[e] = sb[j] + pairs[2e]
 * and gdst[e] = db[j] + pairs[2e + 1] with uint32 wraparound (numpy's).
 * Returns -1, having written nothing, unless the counts are non-negative
 * and sum to the n_pairs the payload holds. */
#define WIDEN(X, L)                                                          \
int widen_##X(const L *pairs, i64 n_pairs, const i64 *counts,                \
              const uint32_t *sb, const uint32_t *db, i64 k,                 \
              uint32_t *gsrc, uint32_t *gdst)                                \
{                                                                            \
    if (!counts_cover(counts, k, n_pairs))                                   \
        return -1;                                                           \
    for (i64 j = 0, e = 0; j < k; j++) {                                     \
        uint32_t a = sb[j], b = db[j];                                       \
        for (i64 end = e + counts[j]; e < end; e++) {                        \
            gsrc[e] = a + pairs[2 * e];                                      \
            gdst[e] = b + pairs[2 * e + 1];                                  \
        }                                                                    \
    }                                                                        \
    return 0;                                                                \
}

WIDEN(u8, uint8_t)
WIDEN(u16, uint16_t)
WIDEN(u32, uint32_t)

/* The symmetric tile encoder's first pass: every non-loop edge of m
 * (src, dst) as one uint64 key pos << 2*tb | lsrc << tb | ldst, in input
 * order, lsrc/ldst the in-tile IDs of its smaller and larger endpoint and
 * pos = pos_grid[lo >> tb][hi >> tb] (a p-by-p grid) its tile's disk
 * position; (weighted) the weights follow their keys into w_out.  Every
 * shift is by tb (1..32) alone, so none is by 64 when one tile makes
 * 2*tb the full key.  Branch-free: every edge writes its slot, and a
 * loop does not count. */
INLINE i64 keys(int weighted, const uint32_t *src, const uint32_t *dst,
                i64 m, const i64 *pos_grid, i64 p, int tb, const float *w,
                uint64_t *key, float *w_out)
{
    uint32_t mask = (uint32_t)((UINT64_C(1) << tb) - 1);
    i64 k = 0;
    for (i64 i = 0; i < m; i++) {
        uint32_t s = src[i], t = dst[i];
        uint32_t lo = s < t ? s : t, hi = s < t ? t : s;
        uint64_t pos = pos_grid[((uint64_t)lo >> tb) * p +
                                ((uint64_t)hi >> tb)];
        key[k] = pos << tb << tb | (uint64_t)(lo & mask) << tb | (hi & mask);
        if (weighted)
            w_out[k] = w[i];
        k += lo != hi;
    }
    return k;
}

/* Returns the count of keys, or -1, having written nothing, on an
 * endpoint not below n_vertices, a grid too small for n_vertices, or an
 * upper-triangle grid entry not in [0, n_tiles).  w NULL: unweighted. */
i64 upper_keys(const uint32_t *src, const uint32_t *dst, i64 m,
               i64 n_vertices, const i64 *pos_grid, i64 p, i64 n_tiles,
               int tb, const float *w, uint64_t *key, float *w_out)
{
    if (tb < 1 || tb > 32 || p < 1 || n_vertices < 1 ||
        (uint64_t)(n_vertices - 1) >> tb >= (uint64_t)p)
        return -1;
    uint32_t top = n_vertices > UINT32_MAX ? UINT32_MAX
                                           : (uint32_t)(n_vertices - 1);
    int bad = above_u32(src, m, top) || above_u32(dst, m, top);
    for (i64 r = 0; !bad && r < p; r++)
        for (i64 c = r; c < p; c++)
            bad |= (uint64_t)pos_grid[r * p + c] >= (uint64_t)n_tiles;
    if (bad)
        return -1;
    return w ? keys(1, src, dst, m, pos_grid, p, tb, w, key, w_out)
             : keys(0, src, dst, m, pos_grid, p, tb, w, key, w_out);
}

/* Whether unpack_* may run: walking the n_tiles tiles in order, each
 * taking the keys from e on whose position is its own, takes all k keys
 * in ascending order, and every key of a ragged tile (one reaching past
 * n_vertices) decodes to global IDs below n_vertices.  A tile's global
 * IDs are its base (row or column << tb, whose low tb bits are 0) or its
 * in-tile IDs. */
INLINE int unpack_ok(const uint64_t *key, i64 k, int tb, const i64 *rows,
                     const i64 *cols, i64 n_tiles, i64 n_vertices)
{
    if (tb < 1 || tb > 32)
        return 0;
    uint64_t mask = (UINT64_C(1) << tb) - 1, n = n_vertices, prev = 0;
    int bad = 0;
    i64 e = 0;
    for (i64 pos = 0; pos < n_tiles; pos++) {
        uint64_t sb = (uint64_t)rows[pos] << tb, db = (uint64_t)cols[pos] << tb;
        int ragged = (sb | mask) >= n || (db | mask) >= n;
        for (; e < k && key[e] >> tb >> tb == (uint64_t)pos; e++) {
            uint64_t x = key[e];
            bad |= x < prev;
            prev = x;
            if (ragged)
                bad |= ((sb | (x >> tb & mask)) >= n) | ((db | (x & mask)) >= n);
        }
    }
    return !bad && e == k;
}

/* The symmetric tile encoder's second pass, over the k ascending distinct
 * keys of upper_keys: each key's in-tile (lsrc, ldst) into the interleaved
 * payload -- or, snb == 0, its global IDs rows[pos] << tb | lsrc and
 * cols[pos] << tb | ldst -- where each of the n_tiles tiles' edges start
 * into start[0..n_tiles], and a count for both global endpoints into deg
 * (n_vertices zeros on entry).  Returns -1, having written nothing,
 * unless unpack_ok. */
#define UNPACK(X, L)                                                         \
int unpack_##X(const uint64_t *key, i64 k, int tb, const i64 *rows,          \
               const i64 *cols, i64 n_tiles, i64 n_vertices, int snb,        \
               L *payload, i64 *start, uint32_t *deg)                        \
{                                                                            \
    if (!unpack_ok(key, k, tb, rows, cols, n_tiles, n_vertices))             \
        return -1;                                                           \
    uint64_t mask = (UINT64_C(1) << tb) - 1;                                 \
    i64 e = 0;                                                               \
    for (i64 pos = 0; pos < n_tiles; pos++) {                                \
        uint64_t sb = (uint64_t)rows[pos] << tb;                             \
        uint64_t db = (uint64_t)cols[pos] << tb;                             \
        start[pos] = e;                                                      \
        for (; e < k && key[e] >> tb >> tb == (uint64_t)pos; e++) {          \
            uint64_t ls = key[e] >> tb & mask, ld = key[e] & mask;           \
            payload[2 * e] = snb ? ls : sb | ls;                             \
            payload[2 * e + 1] = snb ? ld : db | ld;                         \
            deg[sb | ls]++;                                                  \
            deg[db | ld]++;                                                  \
        }                                                                    \
    }                                                                        \
    start[n_tiles] = k;                                                      \
    return 0;                                                                \
}

UNPACK(u8, uint8_t)
UNPACK(u16, uint16_t)
UNPACK(u32, uint32_t)

/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78): slicing-by-8
 * tables, built once when the library loads -- never on first use, since
 * the prefetch and serving threads verify at once with the GIL released
 * -- and, on x86-64, whether the CPU has SSE4.2's crc32 instruction. */
static uint32_t crc_table[8][256];
static int crc_hw;

__attribute__((constructor)) static void crc_init(void)
{
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t c = n;
        for (int b = 0; b < 8; b++)
            c = c & 1 ? c >> 1 ^ 0x82F63B78u : c >> 1;
        crc_table[0][n] = c;
    }
    for (int t = 1; t < 8; t++)
        for (int n = 0; n < 256; n++) {
            uint32_t c = crc_table[t - 1][n];
            crc_table[t][n] = crc_table[0][c & 0xFF] ^ c >> 8;
        }
#if defined(__x86_64__)
    __builtin_cpu_init();
    crc_hw = __builtin_cpu_supports("sse4.2");
#endif
}

/* Which body crc32c_extents runs: the best this CPU has, slicing-by-8, or
 * SSE4.2 (which returns -2 where the CPU lacks it). */
enum { CRC_BEST, CRC_SB8, CRC_SSE42 };

int crc32c_sse42(void) { return crc_hw; }

/* The raw (no pre- or post-inversion) CRC of n bytes at q, from crc. */
static uint32_t crc_sb8(uint32_t crc, const uint8_t *q, i64 n)
{
    for (; n >= 8; q += 8, n -= 8) {
        uint64_t x;
        memcpy(&x, q, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        x = __builtin_bswap64(x);
#endif
        x ^= crc;
        crc = crc_table[7][x & 0xFF] ^ crc_table[6][x >> 8 & 0xFF] ^
              crc_table[5][x >> 16 & 0xFF] ^ crc_table[4][x >> 24 & 0xFF] ^
              crc_table[3][x >> 32 & 0xFF] ^ crc_table[2][x >> 40 & 0xFF] ^
              crc_table[1][x >> 48 & 0xFF] ^ crc_table[0][x >> 56];
    }
    for (; n > 0; q++, n--)
        crc = crc_table[0][(crc ^ *q) & 0xFF] ^ crc >> 8;
    return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2")))
static uint32_t crc_sse42(uint32_t crc, const uint8_t *q, i64 n)
{
    uint64_t c = crc;
    for (; n >= 8; q += 8, n -= 8) {
        uint64_t x;
        memcpy(&x, q, 8);
        c = _mm_crc32_u64(c, x);
    }
    crc = (uint32_t)c;
    for (; n > 0; q++, n--)
        crc = _mm_crc32_u8(crc, *q);
    return crc;
}
#endif

/* CRC32C of each of n byte extents buf[off[j] : off[j] + size[j]] of a
 * len-byte buffer into out[j] (0 for an empty one), extents in any order,
 * overlapping or not.  Returns -1, having written nothing, unless every
 * extent lies inside the buffer (checked without int64 overflow), and -2
 * when asked for SSE4.2 on a CPU without it. */
int crc32c_extents(const uint8_t *buf, i64 len, const i64 *off,
                   const i64 *size, i64 n, uint32_t *out, int body)
{
    for (i64 j = 0; j < n; j++)
        if (off[j] < 0 || size[j] < 0 || off[j] > len ||
            size[j] > len - off[j])
            return -1;
    if (body == CRC_BEST)
        body = crc_hw ? CRC_SSE42 : CRC_SB8;
    if (body == CRC_SSE42 && !crc_hw)
        return -2;
#if defined(__x86_64__)
    if (body == CRC_SSE42) {
        for (i64 j = 0; j < n; j++)
            out[j] = ~crc_sse42(~0u, buf + off[j], size[j]);
        return 0;
    }
#endif
    for (i64 j = 0; j < n; j++)
        out[j] = ~crc_sb8(~0u, buf + off[j], size[j]);
    return 0;
}
