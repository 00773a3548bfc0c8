/* The compiled kernel tier, loaded by repro.algorithms.native: the live
 * relaxations of SSSP (float64 distances, suffix f64) and AsyncBFS (int64
 * depths, i64) with their commits, and the min-commit CC uses too; BFS's
 * and Reachability's discovery passes and BFS's commit; the scatter-add
 * of PageRank, SpMV and SCC's degrees; PageRank's end-of-iteration vertex
 * pass (pagerank_end); the SNB decode (widen), for the kernels that still
 * read global IDs; and the write path: the tile encoders' bucket passes
 * (by_position, bucket_upper, unpack_buckets) and the per-tile CRC32C
 * (crc32c_extents).
 *
 * Every kernel that reads edges reads them as the slide holds them, in
 * tile form: k tiles' interleaved local (src, dst) pairs, 8, 16 or 32 bits
 * wide, counts[j] of them for tile j, an endpoint being its tile's base
 * plus its local with uint32 wraparound (s = sb[j] + local, t = db[j] +
 * local).  Each takes n, the length of the state array, and checks the
 * whole batch (tiles_ok) before it reads state: counts that do not cover
 * the payload return -2 and an endpoint not below n -1 (the caller raises
 * ValueError or IndexError).  A discovery pass writes only its outputs; a
 * commit checks all its indices and its row array before its first
 * write; a relaxation computes each pass's candidates against the state
 * as it stands and only then commits them, as the NumPy bodies it
 * replaces do -- nothing relaxes in place.  The write-path kernels check
 * their whole input (endpoints, tile positions, extents) before their
 * first write too, and return -1 on anything out of range.
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

/* Local i of a payload of bits-wide locals.  Every kernel loop is inlined
 * once per width (BY_WIDTH), so none tests the width per edge. */
INLINE uint32_t local(const void *pairs, int bits, i64 i)
{
    if (bits == 8)
        return ((const uint8_t *)pairs)[i];
    if (bits == 16)
        return ((const uint16_t *)pairs)[i];
    return ((const uint32_t *)pairs)[i];
}

/* CALL(8), CALL(16) or CALL(32) by the width bits, a constant in each. */
#define BY_WIDTH(CALL) (bits == 8 ? CALL(8) : bits == 16 ? CALL(16) : CALL(32))

/* Whether any of a[0..m) is above top: 16 at a time, a trip count -O2
 * vectorises (a plain loop measured 1.6 times as slow), then the rest. */
INLINE int above_u32(const uint32_t *a, i64 m, uint32_t top)
{
    uint32_t any = 0;
    i64 i = 0;
    for (; i + 16 <= m; i += 16)
        for (int j = 0; j < 16; j++)
            any |= a[i + j] > top;
    for (; i < m; i++)
        any |= a[i] > top;
    return any != 0;
}

/* The bitwise OR of a[0..m), which is no smaller than its largest
 * element: 32 at a time, as above_u32 (half the time of a compare per
 * element on 16-bit locals). */
#define ORED(X, L)                                                           \
INLINE L ored_##X(const L *a, i64 m)                                         \
{                                                                            \
    L any = 0;                                                               \
    i64 i = 0;                                                               \
    for (; i + 32 <= m; i += 32)                                             \
        for (int j = 0; j < 32; j++)                                         \
            any |= a[i + j];                                                 \
    for (; i < m; i++)                                                       \
        any |= a[i];                                                         \
    return any;                                                              \
}

ORED(u8, uint8_t)
ORED(u16, uint16_t)
ORED(u32, uint32_t)
ORED(u64, uint64_t)

/* The OR of the m bits-wide locals from local i on. */
static uint32_t locals_or(const void *pairs, int bits, i64 i, i64 m)
{
    const char *p = (const char *)pairs + i * (bits / 8);
    if (bits == 8)
        return ored_u8((const uint8_t *)p, m);
    if (bits == 16)
        return ored_u16((const uint16_t *)p, m);
    return ored_u32((const uint32_t *)p, m);
}

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

/* Whether every endpoint of a batch in tile form widens to below n: 0;
 * else -2 unless the width is 8, 16 or 32 and the k tiles' counts cover
 * the payload's m edges, and -1 on an endpoint not below n.  Checked
 * batch-wide first -- the OR of every local, one vectorised pass, against
 * n - 1 less the largest base -- and tile by tile only when that fails,
 * where a tile whose locals' OR is within n - 1 less its larger base
 * passes and only the others are checked edge by edge (a base near 2^32
 * can wrap a local back below n). */
static int tiles_ok(const void *pairs, int bits, i64 m, const i64 *counts,
                    const uint32_t *sb, const uint32_t *db, i64 k, i64 n)
{
    if ((bits != 8 && bits != 16 && bits != 32) || !counts_cover(counts, k, m))
        return -2;
    uint64_t hi = 0;
    for (i64 j = 0; j < k; j++) {
        hi = sb[j] > hi ? sb[j] : hi;
        hi = db[j] > hi ? db[j] : hi;
    }
    if (hi < (uint64_t)n &&
        locals_or(pairs, bits, 0, 2 * m) <= (uint64_t)n - 1 - hi)
        return 0;
    for (i64 j = 0, e = 0; j < k; e += counts[j++]) {
        uint32_t a = sb[j], b = db[j];
        uint64_t th = a > b ? a : b;
        if (th < (uint64_t)n &&
            locals_or(pairs, bits, 2 * e, 2 * counts[j]) <= (uint64_t)n - 1 - th)
            continue;
        for (i64 i = e; i < e + counts[j]; i++)
            if ((uint32_t)(a + local(pairs, bits, 2 * i)) >= n ||
                (uint32_t)(b + local(pairs, bits, 2 * i + 1)) >= n)
                return -1;
    }
    return 0;
}

/* Whether rows, n_rows flags (or NULL), has the row v >> tb of every
 * vertex v below n. */
INLINE int rows_fit(const uint8_t *rows, i64 n, int tb, i64 n_rows)
{
    return !rows || n <= 0 ||
           (n_rows > 0 && tb >= 0 && tb < 64 &&
            (uint64_t)(n - 1) >> tb < (uint64_t)n_rows);
}

/* The edges of a batch in tile form, in order, as global (s, t): the body
 * runs once per edge e (0..m) of the k tiles with s and t set. */
#define FOR_EDGES(...)                                                       \
    for (i64 j = 0, e = 0; j < k; j++) {                                     \
        uint32_t a_ = sb[j], b_ = db[j];                                     \
        for (i64 end_ = e + counts[j]; e < end_; e++) {                      \
            uint32_t s = a_ + local(pairs, bits, 2 * e);                     \
            uint32_t t = b_ + local(pairs, bits, 2 * e + 1);                 \
            __VA_ARGS__                                                      \
        }                                                                    \
    }

/* The tile-form arguments every edge kernel takes after its state. */
#define TILES const void *pairs, int bits, i64 m, const i64 *counts,        \
              const uint32_t *sb, const uint32_t *db, i64 k
#define TILE_ARGS pairs, bits, m, counts, sb, db, k

/* Where an edge's weight comes from.  The relaxation loop is inlined once
 * per source, so no edge tests which (about 10 % of a pass). */
enum { UNIT, HASH, W32, W64 };

/* Edge e's weight: 1 (AsyncBFS); stored (w32, w64); or the endpoint hash
 * 1 + ((a ^ 7b) & 15) of a = min(s, t), b = max(s, t) (sssp.edge_weights)
 * of the widened endpoints. */
INLINE double weight(int mode, const float *w32, const double *w64, i64 e,
                     uint32_t s, uint32_t t)
{
    if (mode == UNIT)
        return 1;
    if (mode == W32)
        return w32[e];
    if (mode == W64)
        return w64[e];
    uint32_t a = s < t ? s : t, b = s < t ? t : s;
    return (float)(1 + ((a ^ (b * 7u)) & 15u));
}

/* mark[idx[j]] = on for j < k (mark NULL: nothing). */
INLINE void set_marks(uint8_t *mark, const i64 *idx, i64 k, uint8_t on)
{
    if (mark)
        for (i64 j = 0; j < k; j++)
            mark[idx[j]] = on;
}

#define KERNELS(X, T)                                                        \
/* d[idx[j]] = min(d[idx[j]], val[j]) in order, and rows[idx[j] >> tb] = 1  \
 * where that strictly lowered d[idx[j]], when rows is not NULL:            \
 * np.minimum.at(d, idx, val) with rows[idx[val < d[idx]] >> tb] = True     \
 * against d as it was.  Returns 0, -1 on an index not below n, -3 when     \
 * rows (n_rows flags) has no row for some vertex below n. */               \
int min_commit_##X(T *d, i64 n, const i64 *idx, const T *val, i64 k,        \
                   uint8_t *rows, int tb, i64 n_rows)                        \
{                                                                            \
    if (!rows_fit(rows, n, tb, n_rows))                                      \
        return -3;                                                           \
    for (i64 j = 0; j < k; j++)                                              \
        if ((uint64_t)idx[j] >= (uint64_t)n)                                 \
            return -1;                                                       \
    for (i64 j = 0; j < k; j++) {                                            \
        i64 v = idx[j];                                                      \
        T low = d[v] < val[j] ? d[v] : val[j]; /* np.minimum's choice */     \
        if (rows && low < d[v])                                              \
            rows[v >> tb] = 1;                                               \
        d[v] = low;                                                          \
    }                                                                        \
    return 0;                                                                \
}                                                                            \
                                                                             \
/* One relaxation pass over the m edges of a checked batch against d: the   \
 * strictly improving (vertex, value) candidates, forward ones in edge      \
 * order, then (sym) the mirrored ones, packed into idx/val (room for 2m    \
 * when sym, m otherwise); returns their count.  With only (not NULL), an   \
 * edge neither of whose endpoints is marked there is passed over.          \
 * (Writing every edge's slot branch-free measured no faster: few edges     \
 * improve.) */                                                             \
INLINE i64 relax_##X(const T *d, int sym, int mode, TILES,                   \
                     const float *w32, const double *w64,                    \
                     const uint8_t *only, i64 *idx, T *val)                  \
{                                                                            \
    i64 nf = 0, nb = 0;                                                      \
    FOR_EDGES(                                                               \
        if (only && !(only[s] | only[t]))                                    \
            continue;                                                        \
        T w = weight(mode, w32, w64, e, s, t);                               \
        T ds = d[s], dt = d[t], c = ds + w, cb = dt + w;                     \
        if (c < dt) { idx[nf] = t; val[nf++] = c; }                          \
        if (sym && cb < ds) { idx[m + nb] = s; val[m + nb++] = cb; }         \
    )                                                                        \
    memmove(idx + nf, idx + m, nb * sizeof *idx);                            \
    memmove(val + nf, val + m, nb * sizeof *val);                            \
    return nf + nb;                                                          \
}                                                                            \
                                                                             \
static i64 pass_##X(const T *d, TILES, int sym, const float *w32,            \
                    const double *w64, const uint8_t *only, i64 *idx,        \
                    T *val);                                                 \
                                                                             \
/* The live relaxation of a batch in tile form: relax its edges against d   \
 * as it stands and commit the candidates (marking rows as min_commit does: \
 * each candidate's vertex falls), pass after pass, until a pass finds      \
 * nothing or `rounds` passes have run (a negative count: until the         \
 * batch's fixpoint).  Everything is checked before the first write.  Returns the   \
 * passes run, or -1 on an endpoint out of range, -2 as tiles_ok, -3 rows   \
 * too short, -4 out of memory.                                             \
 *                                                                          \
 * mark, when not NULL, is an n-byte scratch: every pass after the first    \
 * relaxes only the edges with an endpoint marked there -- the vertices the \
 * commit before it listed, marked for the pass and cleared after it.  An   \
 * edge of two endpoints that commit left alone offers what it offered the  \
 * pass before, and anything it offered there lowered its target, so it     \
 * offers nothing: each pass finds the full pass's candidates, in its       \
 * order.  A mark set on entry only widens the passes. */                   \
i64 rounds_##X(T *d, i64 n, TILES, int sym, const float *w32,                \
               const double *w64, uint8_t *rows, int tb, i64 n_rows,         \
               i64 rounds, uint8_t *mark)                                    \
{                                                                            \
    int rc = tiles_ok(TILE_ARGS, n);                                         \
    if (rc)                                                                  \
        return rc;                                                           \
    if (!rows_fit(rows, n, tb, n_rows))                                      \
        return -3;                                                           \
    if (rounds == 0 || m == 0)                                               \
        return 0;                                                            \
    i64 cap = sym ? 2 * m : m;                                               \
    i64 *idx = malloc(2 * cap * sizeof *idx);                                \
    T *val = malloc(cap * sizeof *val);                                      \
    if (!idx || !val) {                                                      \
        free(idx);                                                           \
        free(val);                                                           \
        return -4;                                                           \
    }                                                                        \
    i64 passes = 0, k_last = 0, *last = idx + cap, *next = idx;              \
    const uint8_t *only = NULL; /* the first pass relaxes every edge */      \
    for (; rounds != 0; rounds--) {                                          \
        i64 kn = pass_##X(d, TILE_ARGS, sym, w32, w64, only, next, val);     \
        passes++;                                                            \
        min_commit_##X(d, n, next, val, kn, rows, tb, n_rows);               \
        set_marks(mark, last, k_last, 0);                                    \
        set_marks(mark, next, kn, 1);                                        \
        only = mark;                                                         \
        i64 *was = last;                                                     \
        last = next;                                                         \
        k_last = kn;                                                         \
        next = was;                                                          \
        if (kn == 0)                                                         \
            break;                                                           \
    }                                                                        \
    set_marks(mark, last, k_last, 0);                                        \
    free(idx);                                                               \
    free(val);                                                               \
    return passes;                                                           \
}

KERNELS(f64, double)
KERNELS(i64, i64)

/* One relaxation pass of X over every edge (only NULL) or over the edges
 * with an endpoint flagged in only, SYM and the width constants. */
#define RELAX(X, M, B, ONLY)                                                 \
    (sym ? relax_##X(d, 1, M, pairs, B, m, counts, sb, db, k, w32, w64,      \
                     ONLY, idx, val)                                         \
         : relax_##X(d, 0, M, pairs, B, m, counts, sb, db, k, w32, w64,      \
                     ONLY, idx, val))

/* SSSP's pass: stored weights (w32 or w64), else the endpoint hash. */
static i64 pass_f64(const double *d, TILES, int sym, const float *w32,
                    const double *w64, const uint8_t *only, i64 *idx,
                    double *val)
{
    int mode = w32 ? W32 : w64 ? W64 : HASH;
#define MODE(M, B) (only ? RELAX(f64, M, B, only) : RELAX(f64, M, B, NULL))
#define PASS(B) (mode == W32 ? MODE(W32, B) : mode == W64 ? MODE(W64, B)     \
                                            : MODE(HASH, B))
    return BY_WIDTH(PASS);
#undef PASS
#undef MODE
}

/* AsyncBFS's pass: every edge weighs 1 (the weight arguments unused). */
static i64 pass_i64(const i64 *d, TILES, int sym, const float *w32,
                    const double *w64, const uint8_t *only, i64 *idx,
                    i64 *val)
{
#define PASS(B) (only ? RELAX(i64, UNIT, B, only) : RELAX(i64, UNIT, B, NULL))
    return BY_WIDTH(PASS);
#undef PASS
}

/* Which discovery a pass runs: BFS's (frontier depth == level, open
 * depth == inf, UINT32_MAX = types.INF_DEPTH) or Reachability's (frontier
 * flags; open is allowed and not visited). */
enum { BFS, REACH };

/* One discovery pass over the m edges of a checked batch against the
 * state as it stands (read only): the targets t of edges whose source s
 * is on the frontier and t open, in edge order, then (sym) the mirrored
 * ones, the sources of edges whose target is on the frontier and s open,
 * packed into out (room for 2m when sym, m otherwise); a backward sweep
 * (back) takes each edge as (t, s).  A vertex discovered twice is listed
 * twice, as the NumPy bodies list it.  Returns the count.  Branch-free:
 * every edge writes its slot and advances the count by the predicate,
 * since the explosion level makes a frontier test unpredictable (a third
 * faster than branching there). */
INLINE i64 discover(int kind, int sym, int back, const uint32_t *depth,
                    uint32_t level, const uint8_t *frontier,
                    const uint8_t *allowed, const uint8_t *visited, TILES,
                    i64 *out)
{
    i64 nf = 0, nb = 0;
    FOR_EDGES(
        uint32_t from = back ? t : s, to = back ? s : t;
        int from_s, from_t, open_s, open_t;
        if (kind == BFS) {
            uint32_t ds = depth[from], dt = depth[to];
            from_s = ds == level;
            from_t = dt == level;
            open_s = ds == UINT32_MAX;
            open_t = dt == UINT32_MAX;
        } else {
            from_s = frontier[from];
            from_t = frontier[to];
            open_s = allowed[from] & !visited[from];
            open_t = allowed[to] & !visited[to];
        }
        out[nf] = to;
        nf += from_s & open_t;
        if (sym) {
            out[m + nb] = from;
            nb += from_t & open_s;
        }
    )
    memmove(out + nf, out + m, nb * sizeof *out);
    return nf + nb;
}

/* BFS's discovery over a batch in tile form: the count, or -1/-2 as
 * tiles_ok. */
i64 discover_bfs(const uint32_t *depth, i64 n, TILES, int sym,
                 uint32_t level, i64 *out)
{
    int rc = tiles_ok(TILE_ARGS, n);
    if (rc)
        return rc;
#define PASS(B) (sym ? discover(BFS, 1, 0, depth, level, NULL, NULL, NULL,    \
                                pairs, B, m, counts, sb, db, k, out)          \
                     : discover(BFS, 0, 0, depth, level, NULL, NULL, NULL,    \
                                pairs, B, m, counts, sb, db, k, out))
    return BY_WIDTH(PASS);
#undef PASS
}

/* Reachability's, forward or (back) backward. */
i64 discover_reach(const uint8_t *frontier, const uint8_t *allowed,
                   const uint8_t *visited, i64 n, TILES, int sym, int back,
                   i64 *out)
{
    int rc = tiles_ok(TILE_ARGS, n);
    if (rc)
        return rc;
#define SWEEP(S, K, B) discover(REACH, S, K, NULL, 0, frontier, allowed,      \
                                visited, pairs, B, m, counts, sb, db, k, out)
#define PASS(B) (sym ? (back ? SWEEP(1, 1, B) : SWEEP(1, 0, B))               \
                     : (back ? SWEEP(0, 1, B) : SWEEP(0, 0, B)))
    return BY_WIDTH(PASS);
#undef PASS
#undef SWEEP
}

/* BFS's commit: depth[v] = level for every listed v not at it yet,
 * marking rows[v >> tb] as min_commit does.  Returns how many vertices it
 * set -- each once, however often listed -- or, having written nothing,
 * -1 on an index not below n and -3 when rows has no row for some vertex
 * below n. */
i64 commit_level(uint32_t *depth, i64 n, const i64 *idx, i64 k,
                 uint32_t level, uint8_t *rows, int tb, i64 n_rows)
{
    if (!rows_fit(rows, n, tb, n_rows))
        return -3;
    for (i64 j = 0; j < k; j++)
        if ((uint64_t)idx[j] >= (uint64_t)n)
            return -1;
    i64 set = 0;
    for (i64 j = 0; j < k; j++) {
        i64 v = idx[j];
        if (depth[v] != level) {
            depth[v] = level;
            set++;
            if (rows)
                rows[v >> tb] = 1;
        }
    }
    return set;
}

/* The scatter kernels' commit over a checked batch: for each edge in
 * order fwd[t] += x[s], and (two) right after it bwd[s] += x[t]. */
INLINE int scatter(int two, double *fwd, double *bwd, const double *x,
                   TILES)
{
    (void)m;
    FOR_EDGES(
        fwd[t] += x[s];
        if (two)
            bwd[s] += x[t];
    )
    return 0;
}

/* The scatter over a batch in tile form: with bwd == fwd that is
 * np.add.at over the interleaved pairs, so the float addition order is the
 * edge order whatever the shards, and with two arrays each adds in edge
 * order; bwd may be NULL.  Returns, having written nothing, -1 or -2 as
 * tiles_ok. */
int scatter_add(double *fwd, double *bwd, i64 n, const double *x, TILES)
{
    int rc = tiles_ok(TILE_ARGS, n);
    if (rc)
        return rc;
#define PASS(B) (bwd ? scatter(1, fwd, bwd, x, pairs, B, m, counts, sb, db, k) \
                     : scatter(0, fwd, bwd, x, pairs, B, m, counts, sb, db, k))
    return BY_WIDTH(PASS);
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

/* The SNB decode of a batch in tile form, in order, to global IDs:
 * gsrc[e] = s, gdst[e] = t (with uint32 wraparound, numpy's).  Returns -1,
 * having written nothing, unless the width is 8, 16 or 32 and the counts
 * are non-negative and sum to the m edges the payload holds. */
INLINE int widen_pass(TILES, uint32_t *gsrc, uint32_t *gdst)
{
    (void)m;
    FOR_EDGES(
        gsrc[e] = s;
        gdst[e] = t;
    )
    return 0;
}

int widen(TILES, uint32_t *gsrc, uint32_t *gdst)
{
    if ((bits != 8 && bits != 16 && bits != 32) || !counts_cover(counts, k, m))
        return -1;
#define PASS(B) widen_pass(pairs, B, m, counts, sb, db, k, gsrc, gdst)
    return BY_WIDTH(PASS);
#undef PASS
}

/* The write path's tile encoders, the paper's converter (Section IV-B):
 * edges are bucketed by where they go first, and only then ordered inside
 * a bucket.  Directed inputs and the symmetric=False ablation, which keep
 * the input's order inside a tile, are one stable counting sort by disk
 * position (by_position).  Undirected inputs are bucketed by the high
 * bits of their upper-triangle keys (bucket_upper); NumPy sorts each
 * bucket's 32- or 64-bit words, and unpack_buckets unpacks the sorted
 * buckets with their duplicates dropped. */

/* Store v as element i of a bits-wide (8, 16, 32 or 64) array. */
INLINE void put(void *a, int bits, i64 i, uint64_t v)
{
    if (bits == 8)
        ((uint8_t *)a)[i] = (uint8_t)v;
    else if (bits == 16)
        ((uint16_t *)a)[i] = (uint16_t)v;
    else if (bits == 32)
        ((uint32_t *)a)[i] = (uint32_t)v;
    else
        ((uint64_t *)a)[i] = v;
}

/* Word i of an array of uint64 (wide) or uint32 words. */
INLINE uint64_t word(const void *a, int wide, i64 i)
{
    return wide ? ((const uint64_t *)a)[i] : ((const uint32_t *)a)[i];
}

/* Whether a bits-wide payload holds a stored ID: an in-tile one (snb)
 * needs tb bits, a global one 32. */
INLINE int ids_fit(int bits, int snb, int tb)
{
    return (bits == 8 || bits == 16 || bits == 32) &&
           (snb ? tb <= bits : bits == 32);
}

/* Whether an encoder may read m (src, dst): tb is 1..32, the p-by-p
 * pos_grid has a row and a column for every tile row of n_vertices, every
 * endpoint is below n_vertices, and every entry an edge can name (upper:
 * those on and above the diagonal only) is a position in [0, n_tiles). */
INLINE int encode_ok(const uint32_t *src, const uint32_t *dst, i64 m,
                     i64 n_vertices, const i64 *pos_grid, i64 p,
                     i64 n_tiles, int tb, int upper)
{
    if (tb < 1 || tb > 32 || p < 1 || n_vertices < 1 ||
        (uint64_t)(n_vertices - 1) >> tb >= (uint64_t)p)
        return 0;
    uint32_t top = n_vertices > UINT32_MAX ? UINT32_MAX
                                           : (uint32_t)(n_vertices - 1);
    int bad = above_u32(src, m, top) || above_u32(dst, m, top);
    for (i64 r = 0; !bad && r < p; r++)
        for (i64 c = upper ? r : 0; c < p; c++)
            bad |= (uint64_t)pos_grid[r * p + c] >= (uint64_t)n_tiles;
    return !bad;
}

/* The counting sort by disk position.  Pass one records each edge's
 * position pos_grid[src >> tb][dst >> tb] in pos and counts it into
 * start[pos + 1], whose prefix sum is then the start-edge array; pass two
 * writes each edge's IDs (& mask: in-tile or global), bits wide, and
 * (weighted) its weight into its position's next slot, in input order --
 * start[pos] is the cursor, and a shift by one puts it back. */
INLINE void position_pass(int bits, int weighted, const uint32_t *src,
                          const uint32_t *dst, i64 m, const i64 *pos_grid,
                          i64 p, i64 n_tiles, int tb, uint32_t mask,
                          const float *w, uint32_t *pos, i64 *start,
                          void *payload, float *w_out)
{
    memset(start, 0, (size_t)(n_tiles + 1) * sizeof *start);
    for (i64 i = 0; i < m; i++) {
        uint32_t q = (uint32_t)pos_grid[((uint64_t)src[i] >> tb) * p +
                                        ((uint64_t)dst[i] >> tb)];
        pos[i] = q;
        start[(i64)q + 1]++;
    }
    for (i64 j = 0; j < n_tiles; j++)
        start[j + 1] += start[j];
    for (i64 i = 0; i < m; i++) {
        i64 slot = start[pos[i]]++;
        put(payload, bits, 2 * slot, src[i] & mask);
        put(payload, bits, 2 * slot + 1, dst[i] & mask);
        if (weighted)
            w_out[slot] = w[i];
    }
    memmove(start + 1, start, (size_t)n_tiles * sizeof *start);
    start[0] = 0;
}

/* Tiles m directed (src, dst) into start (n_tiles + 1), the bits-wide
 * payload (in-tile IDs when snb, else global ones) and, w not NULL, the
 * weights w_out, with pos m uint32 of scratch.  Returns 0, or -1 having
 * written nothing unless encode_ok, the width holds a stored ID and every
 * position fits a uint32. */
int by_position(const uint32_t *src, const uint32_t *dst, i64 m,
                i64 n_vertices, const i64 *pos_grid, i64 p, i64 n_tiles,
                int tb, int snb, int bits, const float *w, uint32_t *pos,
                i64 *start, void *payload, float *w_out)
{
    if (!ids_fit(bits, snb, tb) || n_tiles > (i64)UINT32_MAX + 1 ||
        !encode_ok(src, dst, m, n_vertices, pos_grid, p, n_tiles, tb, 0))
        return -1;
    uint32_t mask = snb ? (uint32_t)((UINT64_C(1) << tb) - 1) : UINT32_MAX;
#define SORT(B, W) position_pass(B, W, src, dst, m, pos_grid, p, n_tiles, tb, \
                                 mask, w, pos, start, payload, w_out)
#define PASS(B) (w ? SORT(B, 1) : SORT(B, 0))
    BY_WIDTH(PASS);
#undef PASS
#undef SORT
    return 0;
}

/* Whether nb buckets of key >> shift (32..63) hold exactly the keys of
 * n_tiles tiles at tb: the largest, (n_tiles - 1) << 2tb with the largest
 * in-tile pair, fits 64 bits, and its bucket is the last, at most the
 * 256th (bucket ids are uint8). */
INLINE int buckets_ok(i64 n_tiles, int tb, int shift, i64 nb)
{
    if (tb < 1 || tb > 32 || n_tiles < 1 || shift < 32 || shift > 63 ||
        nb < 1 || nb > 256)
        return 0;
    uint64_t pos = (uint64_t)(n_tiles - 1);
    if (tb == 32 ? pos != 0 : pos >> (64 - 2 * tb) != 0)
        return 0;
    uint64_t pair = tb == 32 ? UINT64_MAX : (UINT64_C(1) << 2 * tb) - 1;
    return ((pos << tb << tb | pair) >> shift) + 1 == (uint64_t)nb;
}

/* The symmetric encoder's pass one over edges i..end: every non-loop
 * edge's key pos << 2tb | lsrc << tb | ldst (lsrc/ldst the in-tile IDs
 * of its smaller and larger endpoint, pos = pos_grid[lo >> tb][hi >>
 * tb]), its low shift bits into slot k of tmp, then k + 1, ..., its
 * bucket key >> shift into bid and (weighted) its weight into w_tmp,
 * counted in count.  Branch-free: every edge writes its slot, and a loop
 * does not count.  Every shift of a key is by tb (1..32) alone, so none
 * is by 64 when one tile makes 2tb the full key.  Returns the next
 * slot. */
INLINE i64 bucket_keys(int wide, int weighted, const uint32_t *src,
                       const uint32_t *dst, i64 i, i64 end,
                       const i64 *pos_grid, i64 p, int tb, int shift,
                       const float *w, void *tmp, uint8_t *bid, float *w_tmp,
                       i64 k, i64 *count)
{
    uint32_t mask = (uint32_t)((UINT64_C(1) << tb) - 1);
    uint64_t low = (UINT64_C(1) << shift) - 1;
    for (; i < end; i++) {
        uint32_t s = src[i], t = dst[i];
        uint32_t lo = s < t ? s : t, hi = s < t ? t : s;
        uint64_t pos = pos_grid[((uint64_t)lo >> tb) * p +
                                ((uint64_t)hi >> tb)];
        uint64_t key = pos << tb << tb | (uint64_t)(lo & mask) << tb |
                       (hi & mask);
        uint8_t b = (uint8_t)(key >> shift);
        put(tmp, wide ? 64 : 32, k, key & low);
        bid[k] = b;
        if (weighted)
            w_tmp[k] = w[i];
        count[b] += lo != hi;
        k += lo != hi;
    }
    return k;
}

/* Pass two's step: slot i's word (and weight) into the next slot of its
 * bucket, at[bid[i]] -- a stable scatter into the buckets' ranges
 * words[off[b]..off[b + 1]). */
INLINE void bucket_place(int wide, int weighted, const void *tmp,
                         const uint8_t *bid, const float *w_tmp, i64 i,
                         i64 *at, void *words, float *w_out)
{
    i64 j = at[bid[i]]++;
    put(words, wide ? 64 : 32, j, word(tmp, wide, i));
    if (weighted)
        w_out[j] = w_tmp[i];
}

/* Both passes over the two halves of the input: each half has its own
 * counts and so its own cursors into every bucket (the first half's
 * words before the second's), and pass two steps both at once -- two
 * chains of cursor updates instead of one, each update waiting on the
 * store before it (0.4-0.6 ms of 1 M edges).  Returns the count of
 * keys. */
INLINE i64 bucket_pass(int wide, int weighted, const uint32_t *src,
                       const uint32_t *dst, i64 m, const i64 *pos_grid,
                       i64 p, int tb, int shift, i64 nb, const float *w,
                       void *tmp, uint8_t *bid, float *w_tmp, void *words,
                       float *w_out, i64 *off)
{
    i64 at[2][256] = {{0}};
#define KEYS(I, END, K, C) bucket_keys(wide, weighted, src, dst, I, END,      \
                                       pos_grid, p, tb, shift, w, tmp, bid,   \
                                       w_tmp, K, C)
    i64 h = KEYS(0, m / 2, 0, at[0]);
    i64 k = KEYS(m / 2, m, h, at[1]);
#undef KEYS
    off[0] = 0;
    for (i64 b = 0; b < nb; b++) {
        off[b + 1] = off[b] + at[0][b] + at[1][b];
        at[1][b] = off[b] + at[0][b];
        at[0][b] = off[b];
    }
#define PLACE(I, C) bucket_place(wide, weighted, tmp, bid, w_tmp, I, C, words, \
                                 w_out)
    i64 both = h < k - h ? h : k - h;
    for (i64 i = 0; i < both; i++) {
        PLACE(i, at[0]);
        PLACE(h + i, at[1]);
    }
    for (i64 i = both; i < h; i++)
        PLACE(i, at[0]);
    for (i64 i = h + both; i < k; i++)
        PLACE(i, at[1]);
#undef PLACE
    return k;
}

/* Buckets m undirected (src, dst) into nb buckets of key >> shift, their
 * words uint32 (shift 32) or uint64, with tmp (m words) and bid (m) -- and,
 * w not NULL, w_tmp (m) -- of scratch: returns the count of keys, or -1
 * having written nothing unless buckets_ok and encode_ok. */
i64 bucket_upper(const uint32_t *src, const uint32_t *dst, i64 m,
                 i64 n_vertices, const i64 *pos_grid, i64 p, i64 n_tiles,
                 int tb, int shift, i64 nb, const float *w, void *tmp,
                 uint8_t *bid, float *w_tmp, void *words, float *w_out,
                 i64 *off)
{
    if (!buckets_ok(n_tiles, tb, shift, nb) ||
        !encode_ok(src, dst, m, n_vertices, pos_grid, p, n_tiles, tb, 1))
        return -1;
#define PASS(X, W) bucket_pass(X, W, src, dst, m, pos_grid, p, tb, shift, nb, \
                               w, tmp, bid, w_tmp, words, w_out, off)
    if (shift > 32)
        return w ? PASS(1, 1) : PASS(1, 0);
    return w ? PASS(0, 1) : PASS(0, 0);
#undef PASS
}

/* The count of a[i] equal to a[i - 1] (i in 1..m), setting *bad when
 * one is below it instead: 16 at a time, as above_u32. */
#define ASCENT(X, L)                                                         \
INLINE i64 ascent_##X(const L *a, i64 m, int *bad)                           \
{                                                                            \
    L fell = 0;                                                              \
    i64 same = 0, i = 1;                                                     \
    for (; i + 16 <= m; i += 16) {                                           \
        L eq = 0;                                                            \
        for (int j = 0; j < 16; j++) {                                       \
            fell |= a[i + j] < a[i + j - 1];                                 \
            eq += a[i + j] == a[i + j - 1];                                  \
        }                                                                    \
        same += (i64)eq;                                                     \
    }                                                                        \
    for (; i < m; i++) {                                                     \
        fell |= a[i] < a[i - 1];                                             \
        same += a[i] == a[i - 1];                                            \
    }                                                                        \
    *bad |= fell != 0;                                                       \
    return same;                                                             \
}

ASCENT(u32, uint32_t)
ASCENT(u64, uint64_t)

/* The index of the first of the k keys of nb buckets of ascending words
 * not below x, each key being b << shift | word for its bucket b (k when
 * every key is below x). */
INLINE i64 key_bound(int wide, const void *words, i64 k, const i64 *off,
                     i64 nb, int shift, uint64_t x)
{
    uint64_t b = x >> shift, w = x & ((UINT64_C(1) << shift) - 1);
    if (b >= (uint64_t)nb)
        return k;
    i64 lo = off[b], hi = off[b + 1];
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (word(words, wide, mid) < w)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The count of distinct keys of nb sorted buckets -- bucket b's words
 * words[off[b]..off[b + 1]), its keys b << shift | word -- or -1 unless
 * the offsets run from 0 to k without falling (checked before any word
 * is read), every word is below 2^shift and ascends within its bucket
 * (so the keys ascend), the last key names a tile below n_tiles, and
 * every key of a ragged tile, one whose span reaches past n_vertices,
 * decodes to IDs below n_vertices.  A tile's global IDs are its base
 * (row or column << tb, whose low tb bits are 0) or its in-tile IDs.
 * One pass over the words, which -O2 vectorises, then a binary search
 * for each ragged tile's keys. */
INLINE i64 unpack_check(int wide, const void *words, i64 k, const i64 *off,
                        i64 nb, int shift, int tb, const i64 *rows,
                        const i64 *cols, i64 n_tiles, i64 n_vertices)
{
    if (off[0] != 0 || off[nb] != k)
        return -1;
    for (i64 b = 0; b < nb; b++)
        if (off[b + 1] < off[b])
            return -1;
    i64 d = 0, last = -1;
    for (i64 b = 0; b < nb; b++) {
        i64 a = off[b], z = off[b + 1];
        if (z == a)
            continue;
        const uint64_t *w64 = (const uint64_t *)words + a;
        const uint32_t *w32 = (const uint32_t *)words + a;
        int bad = wide && ored_u64(w64, z - a) >> shift;
        i64 same = wide ? ascent_u64(w64, z - a, &bad)
                        : ascent_u32(w32, z - a, &bad);
        if (bad)
            return -1;
        d += z - a - same;
        last = b;
    }
    if (last >= 0 && ((uint64_t)last << shift |
                      word(words, wide, off[last + 1] - 1)) >> tb >> tb >=
                         (uint64_t)n_tiles)
        return -1;
    uint64_t mask = (UINT64_C(1) << tb) - 1, n = (uint64_t)n_vertices;
    for (i64 q = 0; q < n_tiles; q++) {
        uint64_t sb = (uint64_t)rows[q] << tb, db = (uint64_t)cols[q] << tb;
        if ((sb | mask) < n && (db | mask) < n)
            continue;
#define BOUND(X)                                                             \
    key_bound(wide, words, k, off, nb, shift, (uint64_t)(X) << tb << tb)
        i64 e = BOUND(q), end = q + 1 == n_tiles ? k : BOUND(q + 1);
#undef BOUND
        for (i64 b = 0; e < end; e++) {
            while (e >= off[b + 1])
                b++;
            uint64_t x = (uint64_t)b << shift | word(words, wide, e);
            if ((sb | (x >> tb & mask)) >= n || (db | (x & mask)) >= n)
                return -1;
        }
    }
    return d;
}

/* The write pass over buckets unpack_check passed: each distinct key's
 * in-tile IDs -- or, snb == 0, its global ones -- into the bits-wide
 * interleaved payload, where each of the n_tiles tiles' edges start into
 * start[0..n_tiles], a count for both global endpoints into deg (zeros on
 * entry) and (weighted) the weight of the first of its repeats into
 * w_out. */
INLINE void unpack_pass(int wide, int bits, int weighted, int snb,
                        const void *words, const i64 *off, i64 nb, int shift,
                        int tb, const i64 *rows, const i64 *cols,
                        i64 n_tiles, const float *w, void *payload,
                        i64 *start, uint32_t *deg, float *w_out)
{
    uint64_t mask = (UINT64_C(1) << tb) - 1, prev = 0, sb = 0, db = 0;
    uint64_t ps = 0, pd = 0; /* what the payload adds: 0, or the bases */
    i64 o = 0, next = 0;     /* next: the first tile whose start is unset */
    for (i64 b = 0; b < nb; b++) {
        uint64_t base = (uint64_t)b << shift;
        for (i64 e = off[b]; e < off[b + 1]; e++) {
            uint64_t x = word(words, wide, e) | base;
            if (e && x == prev)
                continue;
            prev = x;
            i64 q = (i64)(x >> tb >> tb);
            if (q >= next) {
                for (; next <= q; next++)
                    start[next] = o;
                sb = (uint64_t)rows[q] << tb;
                db = (uint64_t)cols[q] << tb;
                ps = snb ? 0 : sb;
                pd = snb ? 0 : db;
            }
            uint64_t ls = x >> tb & mask, ld = x & mask;
            put(payload, bits, 2 * o, ps | ls);
            put(payload, bits, 2 * o + 1, pd | ld);
            deg[sb | ls]++;
            deg[db | ld]++;
            if (weighted)
                w_out[o] = w[e];
            o++;
        }
    }
    for (; next <= n_tiles; next++)
        start[next] = o;
}

/* The symmetric encoder's unpack of nb sorted buckets of k words (uint64
 * when shift > 32, else uint32) and, w not NULL, their weights: checks
 * them (unpack_check) and returns -1 having written nothing on a fault,
 * the count d of distinct keys when payload is NULL, and otherwise, for a
 * payload of 2d bits-wide IDs, writes the tiles (unpack_pass) and returns
 * d. */
i64 unpack_buckets(const void *words, i64 k, const i64 *off, i64 nb,
                   int shift, int tb, const i64 *rows, const i64 *cols,
                   i64 n_tiles, i64 n_vertices, int snb, int bits,
                   const float *w, i64 d, void *payload, i64 *start,
                   uint32_t *deg, float *w_out)
{
    int wide = shift > 32;
    if (!ids_fit(bits, snb, tb) || !buckets_ok(n_tiles, tb, shift, nb))
        return -1;
    i64 count = wide ? unpack_check(1, words, k, off, nb, shift, tb, rows,
                                    cols, n_tiles, n_vertices)
                     : unpack_check(0, words, k, off, nb, shift, tb, rows,
                                    cols, n_tiles, n_vertices);
    if (count < 0 || !payload)
        return count;
    if (count != d)
        return -1;
#define WRITE(X, B, W) unpack_pass(X, B, W, snb, words, off, nb, shift, tb,   \
                                   rows, cols, n_tiles, w, payload, start,   \
                                   deg, w_out)
#define PASS(B) (wide ? (w ? WRITE(1, B, 1) : WRITE(1, B, 0))                 \
                      : (w ? WRITE(0, B, 1) : WRITE(0, B, 0)))
    BY_WIDTH(PASS);
#undef PASS
#undef WRITE
    return d;
}

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
