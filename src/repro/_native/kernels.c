/* Routing kernels for the chunked execution core.
 *
 * Each routing kernel is the exact C transliteration of a pure-Python
 * chunk loop in repro.core.engine / repro.partitioning: same iteration
 * order, same strict-less argmin with ties to the earliest candidate,
 * same load updates.  The hash kernels' reference is numpy
 * splitmix64_array (repro.hashing.murmur) over the keys' uint64 bit
 * pattern, reduced modulo the bucket count.  Equivalence is enforced by
 * tests/test_native_kernels.py and tests/test_route_chunk_equivalence.py.
 *
 * Compiled on demand by repro._native.build via the system C compiler;
 * pure-Python fallbacks cover environments without one.
 */

#include <stdint.h>
#include <string.h>

/* splitmix64 finaliser, identical to repro.hashing.murmur.splitmix64. */
static inline uint64_t repro_splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Branch-free select: a when take is 1, b when it is 0.  The choice
 * between hashed candidates is a coin flip to the branch predictor, so
 * the argmin steps below never branch on a load comparison. */
static inline int64_t repro_select(int64_t take, int64_t a, int64_t b)
{
    return b ^ ((a ^ b) & -take);
}

/* Greedy-d routing (ch-pkg and string-keyed PKG inner loop): each
 * message goes to the least-loaded of its d candidate workers; ties
 * break to the earliest candidate; the chosen worker's load is
 * incremented immediately. */
void repro_greedy_route(const int64_t *choices, int64_t m, int64_t d,
                        int64_t *loads, int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        const int64_t *cand = choices + i * d;
        int64_t best = cand[0];
        int64_t best_load = loads[best];
        for (int64_t j = 1; j < d; j++) {
            int64_t c = cand[j];
            int64_t load = loads[c];
            int64_t take = load < best_load;
            best = repro_select(take, c, best);
            best_load = repro_select(take, load, best_load);
        }
        loads[best] += 1;
        out[i] = best;
    }
}

/* The hash half of the fused kernel: the (m, d) candidate matrix
 * out[i * d + j] = splitmix64(key_i ^ mixes[j]) % num_workers, where
 * mixes[j] is hash function j's pre-mixed seed.  With d = 1 these are
 * key grouping's buckets. */
void repro_hash_choices(const int64_t *keys, int64_t m,
                        const uint64_t *mixes, int64_t d,
                        int64_t num_workers, int64_t *out)
{
    const uint64_t n = (uint64_t)num_workers;
    for (int64_t i = 0; i < m; i++) {
        uint64_t key = (uint64_t)keys[i];
        int64_t *row = out + i * d;
        for (int64_t j = 0; j < d; j++)
            row[j] = (int64_t)(repro_splitmix64(key ^ mixes[j]) % n);
    }
}

/* Fused Greedy-d over integer keys (PKG / JBSQ): hash each key d times
 * as repro_hash_choices does, pick the least-loaded candidate as
 * repro_greedy_route does, and count the send -- one pass, without
 * materialising the candidate matrix. */
void repro_hash_greedy_route(const int64_t *keys, int64_t m,
                             const uint64_t *mixes, int64_t d,
                             int64_t num_workers, int64_t *loads,
                             int64_t *out)
{
    const uint64_t n = (uint64_t)num_workers;
    for (int64_t i = 0; i < m; i++) {
        uint64_t key = (uint64_t)keys[i];
        int64_t best = (int64_t)(repro_splitmix64(key ^ mixes[0]) % n);
        int64_t best_load = loads[best];
        for (int64_t j = 1; j < d; j++) {
            int64_t c = (int64_t)(repro_splitmix64(key ^ mixes[j]) % n);
            int64_t load = loads[c];
            int64_t take = load < best_load;
            best = repro_select(take, c, best);
            best_load = repro_select(take, load, best_load);
        }
        loads[best] += 1;
        out[i] = best;
    }
}

/* Least-loaded routing (the d = W limit): argmin over the whole load
 * vector, ties to the lowest worker index. */
void repro_least_loaded(int64_t m, int64_t num_workers, int64_t *loads,
                        int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t best = 0;
        int64_t best_load = loads[0];
        for (int64_t w = 1; w < num_workers; w++) {
            if (loads[w] < best_load) {
                best = w;
                best_load = loads[w];
            }
        }
        loads[best] += 1;
        out[i] = best;
    }
}

/* First-sight binding (PoTC / On-Greedy): a key already in the table
 * keeps its worker; a new key (table entry < 0) binds to the
 * least-loaded of its candidates (or of all workers when choices is
 * NULL).  Loads are charged for every message, bound or not. */
void repro_bind_route(const int64_t *codes, int64_t m,
                      const int64_t *choices, int64_t d, int64_t num_workers,
                      int64_t *table, int64_t *loads, int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t code = codes[i];
        int64_t worker = table[code];
        if (worker < 0) {
            if (choices != NULL) {
                const int64_t *cand = choices + i * d;
                worker = cand[0];
                int64_t best_load = loads[worker];
                for (int64_t j = 1; j < d; j++) {
                    int64_t c = cand[j];
                    if (loads[c] < best_load) {
                        worker = c;
                        best_load = loads[c];
                    }
                }
            } else {
                worker = 0;
                int64_t best_load = loads[0];
                for (int64_t w = 1; w < num_workers; w++) {
                    if (loads[w] < best_load) {
                        worker = w;
                        best_load = loads[w];
                    }
                }
            }
            table[code] = worker;
        }
        loads[worker] += 1;
        out[i] = worker;
    }
}

/* Stable counting-sort scatter: walk message positions in arrival
 * order and append each (offset by base) to its destination bucket's
 * segment.  cursors must arrive holding each bucket's segment start
 * (the exclusive prefix sum of the bucket counts); on return each
 * cursor sits at its segment end.  Stability is structural -- each
 * cursor only moves forward -- so the output is byte-identical to a
 * stable argsort of dest. */
void repro_counting_scatter(const int64_t *dest, int64_t n, int64_t base,
                            int64_t *cursors, int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[cursors[dest[i]]++] = base + i;
}

/* Multi-source interleaved Greedy-d under a load-estimation mode:
 *   views == NULL            -> global mode (every source reads/writes
 *                               true_loads directly);
 *   views != NULL            -> local mode (source s reads/writes row s,
 *                               true_loads mirrors every send);
 *   times != NULL            -> probing: when a source's clock passes
 *                               next_probe[s], its view resyncs to the
 *                               true loads and the probe clock advances
 *                               in whole periods.
 */
void repro_interleaved_route(const int64_t *choices, int64_t m, int64_t d,
                             const int64_t *sources, int64_t num_workers,
                             int64_t *views, int64_t *true_loads,
                             const double *times, double probe_period,
                             double *next_probe, int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t s = sources[i];
        int64_t *view = views != NULL ? views + s * num_workers : true_loads;
        if (times != NULL && times[i] >= next_probe[s]) {
            memcpy(view, true_loads, (size_t)num_workers * sizeof(int64_t));
            while (next_probe[s] <= times[i])
                next_probe[s] += probe_period;
        }
        const int64_t *cand = choices + i * d;
        int64_t best = cand[0];
        int64_t best_load = view[best];
        for (int64_t j = 1; j < d; j++) {
            int64_t c = cand[j];
            if (view[c] < best_load) {
                best = c;
                best_load = view[c];
            }
        }
        view[best] += 1;
        if (view != true_loads)
            true_loads[best] += 1;
        out[i] = best;
    }
}
