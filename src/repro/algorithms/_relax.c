/* The compiled kernel tier, loaded by repro.algorithms.native: the
 * min-relaxation kernels of SSSP (float64 distances, suffix f64) and
 * AsyncBFS (int64 depths, i64) and the min-commit CC uses too; BFS's and
 * Reachability's discovery passes; the scatter-add of PageRank, SpMV and
 * SCC's degrees; and the SNB decode (widen_*).
 *
 * Every kernel takes n, the length of the state array, and checks an
 * endpoint or index against it before it reads or writes state there: on
 * an out-of-range one it returns -1 (the caller raises IndexError).  A
 * candidate or discovery pass writes only its outputs, and a commit
 * checks all its indices before its first write.  Candidates are computed
 * against the state as it stands on entry and only then committed, as the
 * NumPy bodies they replace do; nothing relaxes in place.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The scatter kernels' commit, straight into the accumulator: for each
 * of m edges in order, acc[dst[i]] += x[src[i]], and (sym) right after it
 * the mirrored acc[src[i]] += x[dst[i]] -- np.add.at over the interleaved
 * pairs, so the float addition order is the edge order, whatever the
 * shards.  Returns -1, having written nothing, on an out-of-range
 * endpoint. */
int scatter_add(double *acc, i64 n, const double *x, const uint32_t *src,
                const uint32_t *dst, i64 m, int sym)
{
    for (i64 i = 0; i < m; i++)
        if (src[i] >= n || dst[i] >= n)
            return -1;
    if (sym)
        for (i64 i = 0; i < m; i++) {
            uint32_t s = src[i], t = dst[i];
            acc[t] += x[s];
            acc[s] += x[t];
        }
    else
        for (i64 i = 0; i < m; i++)
            acc[dst[i]] += x[src[i]];
    return 0;
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
    i64 total = 0;                                                           \
    for (i64 j = 0; j < k; j++) {                                            \
        if (counts[j] < 0 || counts[j] > n_pairs - total)                    \
            return -1;                                                       \
        total += counts[j];                                                  \
    }                                                                        \
    if (total != n_pairs)                                                    \
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
