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

/* ---- Word-count cluster (repro.queueing.cluster) -----------------------
 *
 * The single-spout word-count cluster of simulate_wordcount as one event
 * loop.  Every event is the closure of the same name in cluster.py,
 * scheduled in the same order with the same double arithmetic
 * (time = now + delay), and events run in (time, seq) order, seq being
 * the scheduling order -- the order of the closures' EventLoop.  So every
 * count, sojourn and memory sample is the closures' own.
 *
 * Events one hop away (enqueue, ack, receive) are scheduled at now + hop
 * with now never decreasing, so they arrive in (time, seq) order: they
 * wait in a FIFO.  The rest -- the emit, each worker's timer and its one
 * completion or shipment, the sampler -- are at most 2W + 2, in a binary
 * heap.  The next event is the earlier of the two heads.
 *
 * All state lives in buffers the caller owns.  The loop returns, without
 * taking the event that needs it, when it runs out of routed keys, of
 * sojourn slots, of FIFO room or of room for a flushed batch; the caller
 * refills or grows that buffer and calls again.
 */

enum {
    REPRO_WC_EMIT,     /* the spout finished emitting a tuple */
    REPRO_WC_ENQUEUE,  /* a tuple reaches its worker's queue */
    REPRO_WC_COMPLETE, /* a worker finished counting a tuple */
    REPRO_WC_ACK,      /* an ack reaches the spout */
    REPRO_WC_TIMER,    /* a worker's flush timer fires */
    REPRO_WC_SHIP,     /* a worker finished serialising a flushed batch */
    REPRO_WC_RECEIVE,  /* a flushed batch reaches the aggregator */
    REPRO_WC_SAMPLE    /* the memory sampler fires */
};

enum {
    REPRO_WC_DONE,       /* the next event is past the duration */
    REPRO_WC_NEED_KEYS,  /* supply the next routed key batch */
    REPRO_WC_NEED_DRAIN, /* take the sojourns and reset sojourn_len */
    REPRO_WC_NEED_HEAP,  /* grow the heap */
    REPRO_WC_NEED_FIFO,  /* grow the hop FIFO */
    REPRO_WC_NEED_PAIRS  /* grow the batch pool to pair_want pairs */
};

typedef struct {
    double time;
    int64_t seq;
    int32_t kind, worker;
    int64_t key;        /* tuple key, or a batch's offset in the pair pool */
    int64_t len;        /* a batch's length */
    double emitted_at;  /* a tuple's emit time */
} repro_wc_event;

/* The caller sizes the heap and the FIFO in 48-byte events. */
_Static_assert(sizeof(repro_wc_event) == 48, "repro_wc_event is 48 bytes");

typedef struct {
    /* configuration */
    int64_t num_workers, window, num_keys;
    double emit_cost, hop, period, entry_cost, warmup, duration;
    double sample_period;
    const double *service;         /* [W] seconds per tuple */
    /* routed key supply: keys[key_pos..key_len) go to routes[...] */
    const int64_t *keys, *routes;
    int64_t key_pos, key_len;
    /* the clock, the heap and the hop FIFO fifo[fifo_head..fifo_tail) */
    repro_wc_event *heap, *fifo;
    int64_t heap_len, heap_cap, fifo_head, fifo_tail, fifo_cap, seq, started;
    double now;
    /* the spout */
    int64_t emitting, emitted, in_flight;
    /* workers, [W] each */
    int64_t *busy, *flush_req, *processed;
    /* queued tuples: window slots threaded into per-worker FIFO lists */
    int64_t *queue_head, *queue_tail;           /* [W], -1 = empty */
    int64_t *slot_next, *slot_key;              /* [window] */
    double *slot_time;                          /* [window] */
    int64_t free_slot;
    /* live partial counters counts[key * W + w], and each worker's keys
     * in first-touch order since its last flush, touched[w * K + i] */
    int32_t *counts, *touched;                  /* [K * W] */
    int64_t *touched_len;                       /* [W] */
    int64_t live;
    /* flushed batches between their flush and the aggregator */
    int64_t *pair_key, *pair_count;
    int64_t pair_len, pair_cap, pair_want;
    /* the aggregator: totals[key], keys in first-touch order */
    int64_t *totals, *totals_order;             /* [K] */
    int64_t totals_len, received;
    /* the memory sampler */
    int64_t mem_samples, mem_peak;
    double mem_sum;
    /* post-warmup sojourns in completion order */
    double *sojourns;
    int64_t sojourn_len, sojourn_cap;
} repro_wc_state;

static inline int repro_wc_before(const repro_wc_event *a,
                                  const repro_wc_event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static inline repro_wc_event repro_wc_event_at(repro_wc_state *s,
                                               double delay, int32_t kind,
                                               int64_t worker, int64_t key,
                                               int64_t len, double emitted_at)
{
    repro_wc_event ev;
    ev.time = s->now + delay;
    ev.seq = s->seq++;
    ev.kind = kind;
    ev.worker = (int32_t)worker;
    ev.key = key;
    ev.len = len;
    ev.emitted_at = emitted_at;
    return ev;
}

/* Schedule an event one hop away: enqueue, ack or receive. */
static void repro_wc_push_hop(repro_wc_state *s, int32_t kind, int64_t worker,
                              int64_t key, int64_t len, double emitted_at)
{
    s->fifo[s->fifo_tail++] =
        repro_wc_event_at(s, s->hop, kind, worker, key, len, emitted_at);
}

static void repro_wc_push(repro_wc_state *s, double delay, int32_t kind,
                          int64_t worker, int64_t key, int64_t len,
                          double emitted_at)
{
    repro_wc_event ev =
        repro_wc_event_at(s, delay, kind, worker, key, len, emitted_at);
    repro_wc_event *h = s->heap;
    int64_t i = s->heap_len++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!repro_wc_before(&ev, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = ev;
}

/* The next event to run, or NULL when there is none. */
static inline const repro_wc_event *repro_wc_next(const repro_wc_state *s)
{
    const repro_wc_event *fifo = s->fifo_head < s->fifo_tail
                                     ? &s->fifo[s->fifo_head] : NULL;
    if (s->heap_len == 0)
        return fifo;
    if (fifo != NULL && repro_wc_before(fifo, &s->heap[0]))
        return fifo;
    return &s->heap[0];
}

static repro_wc_event repro_wc_pop(repro_wc_state *s,
                                   const repro_wc_event *next)
{
    if (next != s->heap)
        return s->fifo[s->fifo_head++];
    repro_wc_event *h = s->heap;
    repro_wc_event top = h[0];
    repro_wc_event last = h[--s->heap_len];
    int64_t n = s->heap_len, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && repro_wc_before(&h[child + 1], &h[child]))
            child++;
        if (!repro_wc_before(&h[child], &last))
            break;
        h[i] = h[child];
        i = child;
    }
    if (n > 0)
        h[i] = last;
    return top;
}

static void repro_wc_try_emit(repro_wc_state *s)
{
    if (s->emitting || s->in_flight >= s->window)
        return;
    s->emitting = 1;
    repro_wc_push(s, s->emit_cost, REPRO_WC_EMIT, 0, 0, 0, 0.0);
}

static void repro_wc_start_next(repro_wc_state *s, int64_t w);

static void repro_wc_begin_flush(repro_wc_state *s, int64_t w)
{
    s->flush_req[w] = 0;
    int64_t n = s->touched_len[w];
    if (n == 0) { /* nothing to ship: back to the queue */
        repro_wc_start_next(s, w);
        return;
    }
    s->busy[w] = 1;
    const int32_t *order = s->touched + w * s->num_keys;
    int32_t *count = s->counts + w;
    const int64_t stride = s->num_workers;
    int64_t at = s->pair_len;
    for (int64_t i = 0; i < n; i++) {
        int64_t key = order[i];
        s->pair_key[at + i] = key;
        s->pair_count[at + i] = count[key * stride];
        count[key * stride] = 0;
    }
    s->pair_len += n;
    s->touched_len[w] = 0;
    s->live -= n;
    repro_wc_push(s, (double)n * s->entry_cost, REPRO_WC_SHIP, w, at, n, 0.0);
}

static void repro_wc_start_next(repro_wc_state *s, int64_t w)
{
    if (s->flush_req[w]) {
        repro_wc_begin_flush(s, w);
        return;
    }
    int64_t slot = s->queue_head[w];
    if (slot < 0) {
        s->busy[w] = 0;
        return;
    }
    s->busy[w] = 1;
    s->queue_head[w] = s->slot_next[slot];
    if (s->queue_head[w] < 0)
        s->queue_tail[w] = -1;
    s->slot_next[slot] = s->free_slot;
    s->free_slot = slot;
    repro_wc_push(s, s->service[w], REPRO_WC_COMPLETE, w, s->slot_key[slot],
                  0, s->slot_time[slot]);
}

/* The batch event (SHIP or RECEIVE) with the least pool offset above
 * last, or NULL. */
static repro_wc_event *repro_wc_batch_after(repro_wc_state *s, int64_t last)
{
    repro_wc_event *best = NULL;
    for (int64_t i = 0; i < s->heap_len; i++) {
        repro_wc_event *ev = &s->heap[i];
        if (ev->kind == REPRO_WC_SHIP && ev->key > last
            && (best == NULL || ev->key < best->key))
            best = ev;
    }
    for (int64_t i = s->fifo_head; i < s->fifo_tail; i++) {
        repro_wc_event *ev = &s->fifo[i];
        if (ev->kind == REPRO_WC_RECEIVE && ev->key > last
            && (best == NULL || ev->key < best->key))
            best = ev;
    }
    return best;
}

/* Move the batches still in flight -- each named by exactly one SHIP or
 * RECEIVE event -- to the front of the pair pool, in offset order. */
static void repro_wc_compact_pairs(repro_wc_state *s)
{
    int64_t dst = 0;
    repro_wc_event *ev;
    for (int64_t last = -1; (ev = repro_wc_batch_after(s, last)) != NULL;) {
        last = ev->key;
        memmove(s->pair_key + dst, s->pair_key + ev->key,
                (size_t)ev->len * sizeof(int64_t));
        memmove(s->pair_count + dst, s->pair_count + ev->key,
                (size_t)ev->len * sizeof(int64_t));
        ev->key = dst;
        dst += ev->len;
    }
    s->pair_len = dst;
}

/* The events that may start a flush: those that free or wake a worker. */
static inline int repro_wc_may_flush(int32_t kind)
{
    return kind == REPRO_WC_ENQUEUE || kind == REPRO_WC_COMPLETE
           || kind == REPRO_WC_TIMER || kind == REPRO_WC_SHIP;
}

int64_t repro_wordcount(repro_wc_state *s)
{
    if (!s->started) {
        s->started = 1;
        if (s->period > 0) /* staggered flush clocks */
            for (int64_t w = 0; w < s->num_workers; w++)
                repro_wc_push(s,
                              s->period + s->period * (double)w
                                              / (double)s->num_workers,
                              REPRO_WC_TIMER, w, 0, 0, 0.0);
        repro_wc_push(s, s->sample_period, REPRO_WC_SAMPLE, 0, 0, 0, 0.0);
        repro_wc_try_emit(s);
    }
    const int64_t W = s->num_workers, K = s->num_keys;
    const repro_wc_event *next;
    while ((next = repro_wc_next(s)) != NULL && next->time <= s->duration) {
        /* An event schedules at most two heap events and one hop event. */
        if (s->heap_len + 2 > s->heap_cap)
            return REPRO_WC_NEED_HEAP;
        if (s->fifo_tail == s->fifo_cap) {
            int64_t n = s->fifo_tail - s->fifo_head;
            memmove(s->fifo, s->fifo + s->fifo_head,
                    (size_t)n * sizeof(repro_wc_event));
            s->fifo_head = 0;
            s->fifo_tail = n;
            if (2 * n > s->fifo_cap) /* grow rather than move again soon */
                return REPRO_WC_NEED_FIFO;
            continue;
        }
        if (next->kind == REPRO_WC_EMIT && s->key_pos == s->key_len)
            return REPRO_WC_NEED_KEYS;
        if (next->kind == REPRO_WC_COMPLETE
            && s->sojourn_len == s->sojourn_cap)
            return REPRO_WC_NEED_DRAIN;
        if (s->period > 0 && repro_wc_may_flush(next->kind)) {
            /* An event flushes at most its worker's live counters,
             * plus the one key a completion adds. */
            int64_t need = s->touched_len[next->worker] + 1;
            if (s->pair_cap - s->pair_len < need) {
                repro_wc_compact_pairs(s);
                if (s->pair_cap - s->pair_len < need + s->pair_len) {
                    s->pair_want = 2 * s->pair_len + need;
                    return REPRO_WC_NEED_PAIRS;
                }
            }
        }

        repro_wc_event ev = repro_wc_pop(s, next);
        s->now = ev.time;
        int64_t w = ev.worker;
        switch (ev.kind) {
        case REPRO_WC_EMIT: {
            s->emitting = 0;
            int64_t key = s->keys[s->key_pos];
            int64_t worker = s->routes[s->key_pos];
            s->key_pos++;
            s->in_flight++;
            s->emitted++;
            repro_wc_push_hop(s, REPRO_WC_ENQUEUE, worker, key, 0, s->now);
            repro_wc_try_emit(s);
            break;
        }
        case REPRO_WC_ENQUEUE: {
            int64_t slot = s->free_slot;
            s->free_slot = s->slot_next[slot];
            s->slot_key[slot] = ev.key;
            s->slot_time[slot] = ev.emitted_at;
            s->slot_next[slot] = -1;
            if (s->queue_tail[w] < 0)
                s->queue_head[w] = slot;
            else
                s->slot_next[s->queue_tail[w]] = slot;
            s->queue_tail[w] = slot;
            if (!s->busy[w])
                repro_wc_start_next(s, w);
            break;
        }
        case REPRO_WC_COMPLETE: {
            int32_t *count = s->counts + ev.key * W + w;
            if (*count == 0) {
                s->touched[w * K + s->touched_len[w]++] = (int32_t)ev.key;
                s->live++;
            }
            (*count)++;
            s->processed[w]++;
            if (s->now >= s->warmup)
                s->sojourns[s->sojourn_len++] = s->now - ev.emitted_at;
            repro_wc_push_hop(s, REPRO_WC_ACK, 0, 0, 0, 0.0);
            repro_wc_start_next(s, w);
            break;
        }
        case REPRO_WC_ACK:
            s->in_flight--;
            repro_wc_try_emit(s);
            break;
        case REPRO_WC_TIMER:
            s->flush_req[w] = 1;
            if (!s->busy[w])
                repro_wc_begin_flush(s, w);
            repro_wc_push(s, s->period, REPRO_WC_TIMER, w, 0, 0, 0.0);
            break;
        case REPRO_WC_SHIP:
            repro_wc_push_hop(s, REPRO_WC_RECEIVE, w, ev.key, ev.len, 0.0);
            repro_wc_start_next(s, w);
            break;
        case REPRO_WC_RECEIVE:
            s->received += ev.len;
            for (int64_t i = ev.key; i < ev.key + ev.len; i++) {
                int64_t key = s->pair_key[i];
                if (s->totals[key] == 0)
                    s->totals_order[s->totals_len++] = key;
                s->totals[key] += s->pair_count[i];
            }
            break;
        case REPRO_WC_SAMPLE:
            if (s->now >= s->warmup) {
                s->mem_samples++;
                s->mem_sum += (double)s->live;
            }
            if (s->live > s->mem_peak)
                s->mem_peak = s->live;
            repro_wc_push(s, s->sample_period, REPRO_WC_SAMPLE, 0, 0, 0, 0.0);
            break;
        }
    }
    return REPRO_WC_DONE;
}

/* LatencyStats.record's running mean and max over values in order.
 * count is the number of samples recorded before values; stats holds
 * {mean, max} on entry and on return. */
void repro_running_stats(const double *values, int64_t n, int64_t count,
                         double *stats)
{
    double mean = stats[0], max = stats[1];
    for (int64_t i = 0; i < n; i++) {
        double value = values[i];
        count++;
        mean += (value - mean) / (double)count;
        if (value > max)
            max = value;
    }
    stats[0] = mean;
    stats[1] = max;
}

/* ---- Inverse-CDF key sampling (repro.streams.distributions) -------------
 *
 * out[i] = the least k with u[i] < cdf[k] (num_keys when there is none),
 * exactly np.searchsorted(cdf, u, side="right") over a non-decreasing
 * cdf, for every u that is not NaN.  guide[j] is that search's answer
 * for u = j / G, so for u in bucket floor(u * G) it is a lower bound on
 * the answer: the walk starts there and steps up.  It also steps down,
 * so a bucket index that float rounding moved by one still ends on the
 * exact answer.  With G = num_keys a draw walks one entry on average.
 */
void repro_cdf_sample(const double *u, int64_t m, const double *cdf,
                      int64_t num_keys, const int64_t *guide, int64_t G,
                      int64_t *out)
{
    const double buckets = (double)G;
    for (int64_t i = 0; i < m; i++) {
        double x = u[i];
        double at = x * buckets;
        int64_t k = guide[at > 0.0 ? (at < buckets ? (int64_t)at : G - 1) : 0];
        while (k > 0 && cdf[k - 1] > x)
            k--;
        while (k < num_keys && cdf[k] <= x)
            k++;
        out[i] = k;
    }
}

/* ---- Lindley pass (repro.queueing.simulator) ----------------------------
 *
 * _simulate_lindley's loop over routed messages: message i departs at
 * max(arrival, free[w]) + service from worker w = workers[i], with the
 * Python loop's float operations in its order.  Post-warmup message i
 * writes its sojourn and waiting time at cursors[w]++, so with cursors
 * starting at each worker's slice offset every worker's samples land
 * contiguously, in its FIFO order.
 */
void repro_lindley(const int64_t *workers, int64_t n, const double *arrival,
                   const double *service, int64_t warmup, double *free,
                   double *busy, int64_t *cursors, double *sojourn,
                   double *waiting)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t w = workers[i];
        double a = arrival[i], s = service[i], ready = free[w];
        double departure = (a > ready ? a : ready) + s;
        free[w] = departure;
        busy[w] += s;
        if (i >= warmup) {
            double stay = departure - a;
            int64_t at = cursors[w]++;
            sojourn[at] = stay;
            waiting[at] = stay - s;
        }
    }
}
