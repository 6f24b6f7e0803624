/* Compiled hot-path kernels over the FlatIndex array layout.
 *
 * A plain shared library loaded via ctypes — no Python.h, no numpy
 * C-API — operating directly on the compact contiguous arrays a
 * FlatIndex already holds (including read-only memory-mapped views,
 * which are never written).  Every function replicates its numpy
 * counterpart in repro/core/flat.py / engine.py bit for bit:
 *
 *   repro_intersect_payload  <->  FlatIndex.intersect_payload
 *   repro_query_pair         <->  FlatQueryEngine.resolve (no-path)
 *   repro_query_pairs        <->  FlatQueryEngine.resolve_many's numpy
 *                                 lanes (method/witness/probe columns)
 *   repro_query_paths        <->  FlatQueryEngine._path_of over a batch
 *                                 (pred_chain / parent_chain walks and the
 *                                 witness splice, into offset + node
 *                                 columns)
 *
 * Parity invariants the code below must preserve (pinned by the
 * dual-tier suites in tests/core/):
 *   - witnesses are the FIRST minimum in scan order (strict `<`);
 *   - weighted hit sums accumulate in float64 (double);
 *   - membership uses the member slice, distances the vic slice,
 *     except the unweighted intersect_payload fast path where the
 *     vic slice settles both (exactly like the numpy kernels);
 *   - unreachable table entries are d < 0 or d == inf;
 *   - a predecessor or parent outside [0, n) ends a chain as broken,
 *     and a walk gets the same hop budget as its Python twin.
 *
 * Dtype polymorphism is handled by tiny switch-based accessors: the
 * kind codes are fixed per index, so the branches predict perfectly
 * and the code stays one copy per kernel instead of 72 monomorphs.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* kind codes — must match repro/core/_native/__init__.py */
#define ID_U16 0
#define ID_U32 1
#define ID_I64 2
#define OFF_U32 0
#define OFF_I64 1
#define DIST_I32 0
#define DIST_F32 1
#define DIST_F64 2
/* predecessor/parent columns: the id kinds plus the legacy int32 parents */
#define LINK_I32 3

/* method wire codes — must match repro.core.oracle.METHOD_CODE */
#define M_IDENTICAL 0
#define M_LM_SOURCE 1
#define M_LM_TARGET 2
#define M_T_IN_S 3
#define M_S_IN_T 4
#define M_INTERSECTION 5
#define M_MISS 7
#define M_DISCONNECTED 8

/* intersection kernel codes — must match engine dispatch */
#define K_BOUNDARY_SOURCE 0
#define K_BOUNDARY_TARGET 1
#define K_BOUNDARY_SMALLER 2
#define K_FULL_SOURCE 3
#define K_FULL_SMALLER 4

typedef struct {
    int64_t n;
    int32_t weighted;     /* 0 = integral distances (unweighted) */
    int32_t id_kind;      /* vic/member/boundary node columns      */
    int32_t dist_kind;    /* vic/boundary/table distance columns   */
    int32_t vic_off_kind;
    int32_t mem_off_kind;
    int32_t bnd_off_kind;
    int32_t has_tables;
    int32_t has_parents;
    const void *vic_offsets;
    const void *vic_nodes;
    const void *vic_dists;
    const void *member_offsets;
    const void *member_nodes;
    const void *boundary_offsets;
    const void *boundary_nodes;
    const void *boundary_dists;
    const void *table_dist;       /* rows x n, row-major */
    const int32_t *landmark_row;  /* n entries, -1 = not a landmark */
    const void *vic_preds;        /* aligned with vic_nodes */
    const void *table_parent;     /* rows x n, row-major */
    int32_t pred_kind;
    int32_t parent_kind;
} FlatView;

static inline int64_t get_off(const void *p, int32_t kind, int64_t i)
{
    if (kind == OFF_U32)
        return (int64_t)((const uint32_t *)p)[i];
    return ((const int64_t *)p)[i];
}

static inline int64_t get_id(const void *p, int32_t kind, int64_t i)
{
    switch (kind) {
    case ID_U16:
        return (int64_t)((const uint16_t *)p)[i];
    case ID_U32:
        return (int64_t)((const uint32_t *)p)[i];
    default:
        return ((const int64_t *)p)[i];
    }
}

static inline int64_t get_link(const void *p, int32_t kind, int64_t i)
{
    switch (kind) {
    case ID_U16:
        return (int64_t)((const uint16_t *)p)[i];
    case ID_U32:
        return (int64_t)((const uint32_t *)p)[i];
    case LINK_I32:
        return (int64_t)((const int32_t *)p)[i];
    default:
        return ((const int64_t *)p)[i];
    }
}

static inline double get_dist(const void *p, int32_t kind, int64_t i)
{
    switch (kind) {
    case DIST_I32:
        return (double)((const int32_t *)p)[i];
    case DIST_F32:
        return (double)((const float *)p)[i];
    default:
        return ((const double *)p)[i];
    }
}

/* numpy searchsorted side='left': first index in [lo, hi) with
 * ids[i] >= key. */
static inline int64_t lower_bound(
    const void *ids, int32_t kind, int64_t lo, int64_t hi, int64_t key)
{
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (get_id(ids, kind, mid) < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Distance of `node` from `u`'s vic slice, gathered at the lower-bound
 * position exactly like the numpy searchsorted gathers (the caller has
 * already established membership, so the position is an exact hit; the
 * clamp only guards a broken store the same way numpy's fancy gather
 * would read a defined-but-arbitrary element). */
static inline double vic_slice_dist(const FlatView *v, int64_t u, int64_t node)
{
    int64_t lo = get_off(v->vic_offsets, v->vic_off_kind, u);
    int64_t hi = get_off(v->vic_offsets, v->vic_off_kind, u + 1);
    int64_t pos = lower_bound(v->vic_nodes, v->id_kind, lo, hi, node);
    if (pos >= hi)
        pos = hi > lo ? hi - 1 : lo;
    return get_dist(v->vic_dists, v->dist_kind, pos);
}

/* `other in member slice of u` — the weighted membership rule. */
static inline int member_hit(const FlatView *v, int64_t u, int64_t other)
{
    int64_t lo = get_off(v->member_offsets, v->mem_off_kind, u);
    int64_t hi = get_off(v->member_offsets, v->mem_off_kind, u + 1);
    int64_t pos = lower_bound(v->member_nodes, v->id_kind, lo, hi, other);
    return pos < hi && get_id(v->member_nodes, v->id_kind, pos) == other;
}

/* FlatIndex.vicinity_probe: 1 = member (dist written), 0 = not a
 * member, -1 = inconsistent store (member without a vic entry — the
 * numpy path raises QueryError; the caller falls back to it). */
static inline int vic_probe(
    const FlatView *v, int64_t u, int64_t other, double *dist)
{
    if (!v->weighted) {
        int64_t lo = get_off(v->vic_offsets, v->vic_off_kind, u);
        int64_t hi = get_off(v->vic_offsets, v->vic_off_kind, u + 1);
        int64_t pos = lower_bound(v->vic_nodes, v->id_kind, lo, hi, other);
        if (pos >= hi || get_id(v->vic_nodes, v->id_kind, pos) != other)
            return 0;
        *dist = get_dist(v->vic_dists, v->dist_kind, pos);
        return 1;
    }
    if (!member_hit(v, u, other))
        return 0;
    {
        int64_t lo = get_off(v->vic_offsets, v->vic_off_kind, u);
        int64_t hi = get_off(v->vic_offsets, v->vic_off_kind, u + 1);
        int64_t pos = lower_bound(v->vic_nodes, v->id_kind, lo, hi, other);
        if (pos >= hi || get_id(v->vic_nodes, v->id_kind, pos) != other)
            return -1;
        *dist = get_dist(v->vic_dists, v->dist_kind, pos);
    }
    return 1;
}

static inline double table_lookup(const FlatView *v, int64_t lm, int64_t other)
{
    int64_t row = (int64_t)v->landmark_row[lm];
    return get_dist(v->table_dist, v->dist_kind, row * v->n + other);
}

static inline int32_t ilog2_floor(int64_t x)
{
    int32_t b = 0;
    while (x > 1) {
        x >>= 1;
        b++;
    }
    return b;
}

/* Bump the scatter-table epoch; on (rare) wrap, clear the stamps so no
 * stale epoch value can alias the fresh one. */
static inline int32_t next_epoch(int32_t *stamp, int64_t n, int32_t *epoch_io)
{
    int32_t e = *epoch_io + 1;
    if (e == INT32_MAX) {
        memset(stamp, 0, (size_t)n * sizeof(int32_t));
        e = 1;
    }
    *epoch_io = e;
    return e;
}

/* The shared intersection core: scan positions [lo, hi) of the given
 * node/distance arrays, in order, against Gamma(powner) on `probe`.
 * When `scan_view` is non-NULL the scan distances are full-kernel
 * member distances, gathered from `scan_view`'s vic slice of `sowner`
 * (member_payload semantics); otherwise `scan_dists[j]` is used.
 *
 * Two strategies with IDENTICAL results (first minimum in scan order,
 * double accumulation): a slice-local binary search per scanned node,
 * or — when the scan is large enough that count*log(len) search steps
 * cost more than len+count sequential ones — scattering the probe
 * side's slice into the epoch-stamped scratch table and walking the
 * scan with O(1) membership lookups.  The choice is invisible to the
 * caller; scratch == NULL forces the binary-search lane.
 *
 * Returns the witness node, or -1 on miss; *best_out only on a hit. */
static int64_t intersect_slice(
    const FlatView *probe, int64_t powner,
    const FlatView *scan_view, int64_t sowner,
    const void *scan_nodes, int32_t scan_id_kind,
    const void *scan_dists, int32_t scan_dist_kind,
    int64_t lo, int64_t hi,
    int32_t *stamp, int32_t *spos, int32_t *epoch_io,
    double *best_out)
{
    double best = INFINITY;
    int64_t witness = -1;
    int64_t count = hi - lo;
    if (count <= 0)
        return -1;
    if (!probe->weighted) {
        /* Unweighted fast path: the vic slice IS the member set. */
        int64_t plo = get_off(probe->vic_offsets, probe->vic_off_kind, powner);
        int64_t phi = get_off(
            probe->vic_offsets, probe->vic_off_kind, powner + 1);
        int64_t len = phi - plo;
        if (len == 0)
            return -1;
        if (stamp != NULL && count >= 16
            && count * (int64_t)(ilog2_floor(len) + 1) > len + count) {
            int32_t e = next_epoch(stamp, probe->n, epoch_io);
            for (int64_t j = plo; j < phi; j++) {
                int64_t node = get_id(probe->vic_nodes, probe->id_kind, j);
                stamp[node] = e;
                spos[node] = (int32_t)(j - plo);
            }
            for (int64_t j = lo; j < hi; j++) {
                int64_t node = get_id(scan_nodes, scan_id_kind, j);
                if (stamp[node] != e)
                    continue;
                {
                    double scan_d = scan_view != NULL
                        ? vic_slice_dist(scan_view, sowner, node)
                        : get_dist(scan_dists, scan_dist_kind, j);
                    double sum = get_dist(probe->vic_dists, probe->dist_kind,
                                          plo + (int64_t)spos[node])
                        + scan_d;
                    if (sum < best) {
                        best = sum;
                        witness = node;
                    }
                }
            }
        } else {
            for (int64_t j = lo; j < hi; j++) {
                int64_t node = get_id(scan_nodes, scan_id_kind, j);
                int64_t pos = lower_bound(
                    probe->vic_nodes, probe->id_kind, plo, phi, node);
                if (pos >= phi
                    || get_id(probe->vic_nodes, probe->id_kind, pos) != node)
                    continue;
                {
                    double scan_d = scan_view != NULL
                        ? vic_slice_dist(scan_view, sowner, node)
                        : get_dist(scan_dists, scan_dist_kind, j);
                    double sum = get_dist(
                        probe->vic_dists, probe->dist_kind, pos) + scan_d;
                    if (sum < best) {
                        best = sum;
                        witness = node;
                    }
                }
            }
        }
    } else {
        int64_t mlo = get_off(
            probe->member_offsets, probe->mem_off_kind, powner);
        int64_t mhi = get_off(
            probe->member_offsets, probe->mem_off_kind, powner + 1);
        int64_t len = mhi - mlo;
        if (len == 0)
            return -1;
        if (stamp != NULL && count >= 16
            && count * (int64_t)(ilog2_floor(len) + 1) > len + count) {
            int32_t e = next_epoch(stamp, probe->n, epoch_io);
            for (int64_t j = mlo; j < mhi; j++)
                stamp[get_id(probe->member_nodes, probe->id_kind, j)] = e;
            for (int64_t j = lo; j < hi; j++) {
                int64_t node = get_id(scan_nodes, scan_id_kind, j);
                if (stamp[node] != e)
                    continue;
                {
                    double scan_d = scan_view != NULL
                        ? vic_slice_dist(scan_view, sowner, node)
                        : get_dist(scan_dists, scan_dist_kind, j);
                    /* Hits are rare; the vic-slice search only runs
                     * for them (same gather as the numpy kernel). */
                    double sum = scan_d + vic_slice_dist(probe, powner, node);
                    if (sum < best) {
                        best = sum;
                        witness = node;
                    }
                }
            }
        } else {
            for (int64_t j = lo; j < hi; j++) {
                int64_t node = get_id(scan_nodes, scan_id_kind, j);
                int64_t pos = lower_bound(
                    probe->member_nodes, probe->id_kind, mlo, mhi, node);
                if (pos >= mhi
                    || get_id(probe->member_nodes, probe->id_kind, pos)
                        != node)
                    continue;
                {
                    double scan_d = scan_view != NULL
                        ? vic_slice_dist(scan_view, sowner, node)
                        : get_dist(scan_dists, scan_dist_kind, j);
                    double sum = scan_d + vic_slice_dist(probe, powner, node);
                    if (sum < best) {
                        best = sum;
                        witness = node;
                    }
                }
            }
        }
    }
    if (witness < 0)
        return -1;
    *best_out = best;
    return witness;
}

/* Returns 1 on an intersection hit (best/witness written), 0 on miss. */
int32_t repro_intersect_payload(
    const FlatView *probe,
    const void *scan_nodes, int32_t scan_id_kind,
    const void *scan_dists, int32_t scan_dist_kind,
    int64_t count,
    int64_t target,
    int32_t *stamp, int32_t *spos, int32_t *epoch_io,
    double *best_out,
    int64_t *witness_out)
{
    double best;
    int64_t witness = intersect_slice(
        probe, target, NULL, 0,
        scan_nodes, scan_id_kind, scan_dists, scan_dist_kind,
        0, count, stamp, spos, epoch_io, &best);
    if (witness < 0)
        return 0;
    *best_out = best;
    *witness_out = witness;
    return 1;
}

/* The fused scalar Algorithm 1 loop (FlatQueryEngine.resolve, no-path
 * lane): identical -> landmark tables -> membership probes ->
 * configured intersection kernel, probes counted exactly like the
 * Python path.  Returns the method wire code, or -1 when the store is
 * inconsistent (the caller re-runs the numpy path, which raises). */
int32_t repro_query_pair(
    const FlatView *out,
    const FlatView *inn,
    int64_t source,
    int64_t target,
    int32_t kernel,
    int32_t *stamp,
    int32_t *spos,
    int32_t *epoch_io,
    double *dist_out,
    int64_t *witness_out,
    int64_t *probes_out)
{
    double d = 0.0;
    int64_t probes;
    int hit;

    if (source == target) {
        *dist_out = 0.0;
        *probes_out = 0;
        return M_IDENTICAL;
    }
    probes = 1;
    /* Condition (1): source is a landmark with a full table. */
    if (out->has_tables && out->landmark_row[source] >= 0) {
        probes += 1;
        *probes_out = probes;
        d = table_lookup(out, source, target);
        if (d < 0 || isinf(d))
            return M_DISCONNECTED;
        *dist_out = d;
        return M_LM_SOURCE;
    }
    probes += 1;
    /* Condition (2): target is a landmark with a full table. */
    if (inn->has_tables && inn->landmark_row[target] >= 0) {
        probes += 1;
        *probes_out = probes;
        d = table_lookup(inn, target, source);
        if (d < 0 || isinf(d))
            return M_DISCONNECTED;
        *dist_out = d;
        return M_LM_TARGET;
    }
    probes += 1;
    /* Condition (3): t inside Gamma(s). */
    hit = vic_probe(out, source, target, &d);
    if (hit < 0)
        return -1;
    if (hit) {
        *dist_out = d;
        *probes_out = probes;
        return M_T_IN_S;
    }
    probes += 1;
    /* Condition (4): s inside Gamma(t). */
    hit = vic_probe(inn, target, source, &d);
    if (hit < 0)
        return -1;
    if (hit) {
        *dist_out = d;
        *probes_out = probes;
        return M_S_IN_T;
    }

    /* The configured intersection kernel (_pick_sides). */
    {
        const FlatView *scan = out;
        const FlatView *probe = inn;
        int64_t sowner = source;
        int64_t powner = target;
        int full = kernel == K_FULL_SOURCE || kernel == K_FULL_SMALLER;

        if (kernel == K_BOUNDARY_TARGET) {
            scan = inn;
            probe = out;
            sowner = target;
            powner = source;
        } else if (kernel == K_BOUNDARY_SMALLER) {
            int64_t bs = get_off(out->boundary_offsets, out->bnd_off_kind,
                                 source + 1)
                - get_off(out->boundary_offsets, out->bnd_off_kind, source);
            int64_t bt = get_off(inn->boundary_offsets, inn->bnd_off_kind,
                                 target + 1)
                - get_off(inn->boundary_offsets, inn->bnd_off_kind, target);
            if (bs > bt) {
                scan = inn;
                probe = out;
                sowner = target;
                powner = source;
            }
        } else if (kernel == K_FULL_SMALLER) {
            int64_t ms = get_off(out->member_offsets, out->mem_off_kind,
                                 source + 1)
                - get_off(out->member_offsets, out->mem_off_kind, source);
            int64_t mt = get_off(inn->member_offsets, inn->mem_off_kind,
                                 target + 1)
                - get_off(inn->member_offsets, inn->mem_off_kind, target);
            if (ms > mt) {
                scan = inn;
                probe = out;
                sowner = target;
                powner = source;
            }
        }

        {
            double best;
            int64_t witness;
            int64_t lo, hi;
            if (full) {
                lo = get_off(scan->member_offsets, scan->mem_off_kind, sowner);
                hi = get_off(
                    scan->member_offsets, scan->mem_off_kind, sowner + 1);
                probes += hi - lo;
                witness = intersect_slice(
                    probe, powner, scan, sowner,
                    scan->member_nodes, scan->id_kind, NULL, 0,
                    lo, hi, stamp, spos, epoch_io, &best);
            } else {
                lo = get_off(
                    scan->boundary_offsets, scan->bnd_off_kind, sowner);
                hi = get_off(
                    scan->boundary_offsets, scan->bnd_off_kind, sowner + 1);
                probes += hi - lo;
                witness = intersect_slice(
                    probe, powner, NULL, 0,
                    scan->boundary_nodes, scan->id_kind,
                    scan->boundary_dists, scan->dist_kind,
                    lo, hi, stamp, spos, epoch_io, &best);
            }
            *probes_out = probes;
            if (witness < 0)
                return M_MISS;
            *dist_out = best;
            *witness_out = witness;
            return M_INTERSECTION;
        }
    }
}

/* repro_query_pair over a whole batch, into result columns: one call
 * (and, through ctypes, one GIL release) per batch.  Pair i reads
 * sources[i * stride] / targets[i * stride], so an (m, 2) pair array
 * feeds both columns without a copy.  dist is NaN and witness -1
 * wherever the scalar loop leaves them unset (miss, disconnected, and
 * every method but intersection for the witness).  Returns m, or the
 * index of the first inconsistent pair (the caller re-runs the numpy
 * lanes, which raise). */
int64_t repro_query_pairs(
    const FlatView *out,
    const FlatView *inn,
    const int64_t *sources,
    const int64_t *targets,
    int64_t stride,
    int64_t m,
    int32_t kernel,
    int32_t *stamp,
    int32_t *spos,
    int32_t *epoch_io,
    double *dist_out,
    uint8_t *method_out,
    int64_t *witness_out,
    int64_t *probes_out)
{
    for (int64_t i = 0; i < m; i++) {
        double d = NAN;
        int64_t w = -1;
        int64_t p = 0;
        int32_t code = repro_query_pair(
            out, inn, sources[i * stride], targets[i * stride], kernel,
            stamp, spos, epoch_io, &d, &w, &p);
        if (code < 0)
            return i;
        dist_out[i] = d;
        method_out[i] = (uint8_t)code;
        witness_out[i] = w;
        probes_out[i] = p;
    }
    return m;
}


/* FlatIndex.pred_chain: walk u's predecessor entries from `start` back
 * to `root`, writing the nodes start .. root to dst[0 ..] (dst == NULL
 * only counts).  Returns the node count, or -1 on a broken or cyclic
 * chain, or when the walk would write more than `cap` nodes. */
static int64_t pred_walk(
    const FlatView *v, int64_t u, int64_t start, int64_t root,
    int64_t *dst, int64_t cap)
{
    int64_t lo = get_off(v->vic_offsets, v->vic_off_kind, u);
    int64_t hi = get_off(v->vic_offsets, v->vic_off_kind, u + 1);
    int64_t node = start;
    int64_t count = 1;
    if (cap < 1)
        return -1;
    if (dst != NULL)
        dst[0] = node;
    for (int64_t hop = 0; hop <= hi - lo; hop++) {
        int64_t pos;
        if (node == root)
            return count;
        pos = lower_bound(v->vic_nodes, v->id_kind, lo, hi, node);
        if (pos >= hi || get_id(v->vic_nodes, v->id_kind, pos) != node)
            return -1;
        node = get_link(v->vic_preds, v->pred_kind, pos);
        if (node < 0 || node >= v->n || count >= cap)
            return -1;
        if (dst != NULL)
            dst[count] = node;
        count++;
    }
    return -1;
}

/* FlatIndex.parent_chain (walk_parent_array) over landmark `lm`'s
 * parent row: nodes start .. lm, same contract as pred_walk. */
static int64_t parent_walk(
    const FlatView *v, int64_t lm, int64_t start, int64_t *dst, int64_t cap)
{
    int64_t row, base;
    int64_t node = start;
    int64_t count = 1;
    if (!v->has_parents || cap < 1)
        return -1;
    row = (int64_t)v->landmark_row[lm];
    if (row < 0)
        return -1;
    base = row * v->n;
    if (dst != NULL)
        dst[0] = node;
    for (int64_t hop = 0; hop <= v->n; hop++) {
        if (node == lm)
            return count;
        node = get_link(v->table_parent, v->parent_kind, base + node);
        if (node < 0 || node >= v->n || count >= cap)
            return -1;
        if (dst != NULL)
            dst[count] = node;
        count++;
    }
    return -1;
}

static void reverse_nodes(int64_t *p, int64_t len)
{
    for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
        int64_t tmp = p[i];
        p[i] = p[j];
        p[j] = tmp;
    }
}

/* One answered row's path in [source .. target] order (FlatQueryEngine
 * ._path_of): writes at most `cap` nodes to dst (NULL = count only).
 * Returns the length, 0 for rows without a path (miss, disconnected),
 * or -1 on a broken or cyclic chain. */
static int64_t path_into(
    const FlatView *out, const FlatView *inn,
    int64_t s, int64_t t, int32_t code, int64_t w,
    int64_t *dst, int64_t cap)
{
    int64_t k, k2;
    switch (code) {
    case M_IDENTICAL:
        if (cap < 1)
            return -1;
        if (dst != NULL)
            dst[0] = s;
        return 1;
    case M_LM_SOURCE: /* walk t -> s, then flip */
        k = parent_walk(out, s, t, dst, cap);
        if (k > 0 && dst != NULL)
            reverse_nodes(dst, k);
        return k;
    case M_LM_TARGET: /* s -> t is already the walk order */
        return parent_walk(inn, t, s, dst, cap);
    case M_T_IN_S:
        k = pred_walk(out, s, t, s, dst, cap);
        if (k > 0 && dst != NULL)
            reverse_nodes(dst, k);
        return k;
    case M_S_IN_T:
        return pred_walk(inn, t, s, t, dst, cap);
    case M_INTERSECTION:
        /* [s .. w] from Gamma(s), then [w .. t] from Gamma(t) written
         * over the shared w. */
        k = pred_walk(out, s, w, s, dst, cap);
        if (k < 0)
            return -1;
        if (dst != NULL)
            reverse_nodes(dst, k);
        k2 = pred_walk(inn, t, w, t, dst != NULL ? dst + k - 1 : NULL,
                       cap - k + 1);
        return k2 < 0 ? -1 : k + k2 - 1;
    case M_MISS:
    case M_DISCONNECTED:
        return 0;
    default:
        return -1;
    }
}

/* Paths of a batch's answered rows, from the method and witness columns
 * repro_query_pairs wrote, in two passes so C allocates nothing:
 *
 *   nodes == NULL  fills offsets[0 .. m] (row i's path is
 *                  nodes[offsets[i] .. offsets[i + 1]), empty when the
 *                  row has none) and returns the total node count;
 *   nodes != NULL  fills the caller's node buffer of that size from the
 *                  offsets pass 1 wrote and returns the same total.
 *
 * Pairs are read with repro_query_pairs' stride.  Returns -1 on a broken
 * or cyclic chain (the caller re-walks in Python, which raises). */
int64_t repro_query_paths(
    const FlatView *out,
    const FlatView *inn,
    const int64_t *sources,
    const int64_t *targets,
    int64_t stride,
    int64_t m,
    const uint8_t *method,
    const int64_t *witness,
    int64_t *offsets,
    int64_t *nodes)
{
    if (nodes == NULL) {
        int64_t total = 0;
        offsets[0] = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t k = path_into(
                out, inn, sources[i * stride], targets[i * stride],
                (int32_t)method[i], witness[i], NULL, INT64_MAX);
            if (k < 0)
                return -1;
            total += k;
            offsets[i + 1] = total;
        }
        return total;
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t len = offsets[i + 1] - offsets[i];
        int64_t k = len == 0 ? 0 : path_into(
            out, inn, sources[i * stride], targets[i * stride],
            (int32_t)method[i], witness[i], nodes + offsets[i], len);
        if (k != len)
            return -1;
    }
    return offsets[m];
}
