/* Native partitioner kernels, loaded through ctypes by repro.core._native.
 *
 * Build: gcc -O2 -std=c99 -fPIC -shared -ffp-contract=off. FMA
 * contraction must stay off so every score is rounded exactly as the
 * numpy reference (core/streaming.py:stream_edges_py) rounds it.
 *
 * Every array is allocated by the Python caller and checked there
 * (shape, dtype, layout, id ranges) before it reaches C; the kernels
 * allocate nothing.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime */
#include <math.h> /* INFINITY */
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { METHOD_HDRF = 0, METHOD_GREEDY = 1 };

/* HDRF's balance term for partition p: λ·(max load − load)/denom, or
 * -inf once p is closed, so a closed partition never holds the top score. */
static void hdrf_balance(const int64_t *sizes, int64_t p, int64_t cap, int64_t mx,
                         double lambda, double denom, double *bal) {
    bal[p] = sizes[p] >= cap ? -INFINITY : (lambda * (double)(mx - sizes[p])) / denom;
}

/* stream_edges for HDRF. Every partition is scored for every edge
 * (Θ(k) per edge, Table 1) in two passes over the k-length buffers
 * score and bal: a score pass with no data-dependent branch (the
 * replica bytes multiply the endpoint weights, and bal holds every
 * balance term), then a tie pass for the first least-loaded partition
 * with the top score; that pass branches, which measured faster than
 * conditional moves at every k. A balance term changes only with its
 * own load or with the max or min load, so after an edge only
 * bal[best] is recomputed, unless the max or the min moved, which
 * recomputes all k. Each term is the reference's expression, so every
 * score matches core/streaming.py:stream_edges_py bit for bit. */
static int stream_hdrf(const uint32_t *edges, int64_t m, uint8_t *replicas,
                       int64_t *sizes, int64_t k, int64_t n, const int64_t *degrees,
                       int64_t cap, double lambda, double eps, double *score,
                       double *bal, int64_t *pids) {
    int64_t mx = sizes[0], mn = sizes[0];
    for (int64_t p = 1; p < k; p++) {
        if (sizes[p] > mx) mx = sizes[p];
        if (sizes[p] < mn) mn = sizes[p];
    }
    double denom = (eps + (double)mx) - (double)mn;
    for (int64_t p = 0; p < k; p++) hdrf_balance(sizes, p, cap, mx, lambda, denom, bal);
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        const double du = (double)degrees[u], dv = (double)degrees[v];
        const double tot = du + dv;
        const double theta = tot != 0.0 ? du / tot : 0.5;
        const double wu = 2.0 - theta, wv = 1.0 + theta;
        const uint8_t *ru = replicas + u, *rv = replicas + v;
        double top = -INFINITY;
        for (int64_t p = 0; p < k; p++) {
            const double s = ((double)ru[p * n] * wu + (double)rv[p * n] * wv) + bal[p];
            score[p] = s;
            top = s > top ? s : top;
        }
        if (top == -INFINITY) return -1;
        int64_t best = -1, best_size = INT64_MAX;
        for (int64_t p = 0; p < k; p++) {
            if (score[p] == top && sizes[p] < best_size) {
                best = p;
                best_size = sizes[p];
            }
        }
        pids[e] = best;
        replicas[best * n + u] = 1;
        replicas[best * n + v] = 1;
        const int64_t old = sizes[best]++;
        int rescale = old == mx;
        if (rescale) mx = old + 1;
        if (old == mn) {
            int64_t lo = sizes[0];
            for (int64_t p = 1; p < k; p++) lo = sizes[p] < lo ? sizes[p] : lo;
            rescale |= lo != mn;
            mn = lo;
        }
        if (rescale) {
            denom = (eps + (double)mx) - (double)mn;
            for (int64_t p = 0; p < k; p++) hdrf_balance(sizes, p, cap, mx, lambda, denom, bal);
        } else {
            hdrf_balance(sizes, best, cap, mx, lambda, denom, bal);
        }
    }
    return 0;
}

/* Stateful streaming (paper §3.3, Alg. 4) over m edges for the HDRF
 * and Greedy scorers (HDRF's λ and ε come from core/streaming.py, their
 * one definition). replicas is the C-contiguous (k, n) bool matrix
 * and sizes the k partition loads; both are updated in place. Partitions
 * with a load of cap or more are closed. Ties go to the least-loaded
 * partition, then to the lowest index. score and bal are k doubles of
 * work space for HDRF. Writes one pid per edge to pids; returns 0, or
 * -1 if an edge found every partition closed (the caller checks
 * beforehand that the cap leaves room, so this does not happen). */
int stream_edges(const uint32_t *edges, int64_t m, uint8_t *replicas,
                 int64_t *sizes, int64_t k, int64_t n, const int64_t *degrees,
                 int64_t cap, int method, double lambda, double eps,
                 double *score, double *bal, int64_t *pids) {
    if (method == METHOD_HDRF)
        return stream_hdrf(edges, m, replicas, sizes, k, n, degrees, cap, lambda, eps,
                           score, bal, pids);
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        int64_t best = -1;
        if (method == METHOD_GREEDY) {
            /* rank = replicated endpoints: both > either > any open partition */
            int best_rank = -1;
            for (int64_t p = 0; p < k; p++) {
                if (sizes[p] >= cap) continue;
                const int r = (replicas[p * n + u] != 0) + (replicas[p * n + v] != 0);
                if (r > best_rank || (r == best_rank && sizes[p] < sizes[best])) {
                    best = p;
                    best_rank = r;
                }
            }
        }
        if (best < 0) return -1;
        pids[e] = best;
        replicas[best * n + u] = 1;
        replicas[best * n + v] = 1;
        sizes[best] += 1;
    }
    return 0;
}

/* ---- Degrees and the CSR build (paper §3.1, §3.2.1; references
 * graphs/generators.py:EdgeList and graphs/csr.py:_fill_lists_np) ---- */

/* The undirected degree of each of n vertices over m edges, added into
 * the (n,) degrees the caller zeroed: one pass, both endpoints of each
 * edge. Returns 0, or -1 if an id is >= n (nothing is then counted past
 * that edge). */
int edge_degrees(const uint32_t *edges, int64_t m, int64_t n, int64_t *degrees) {
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        if (u >= n || v >= n) return -1;
        degrees[u]++;
        degrees[v]++;
    }
    return 0;
}

/* Count the list sizes of a (pruned) CSR over m edges: edge (u, v) puts
 * v in u's out-list unless u is high, and u in v's in-list unless v is
 * high (the full CSR has nothing high); an edge in neither list, both
 * ends high, is an E_h2h edge, counted into *n_h2h. out_size and
 * in_size are (n,) and zeroed by the caller. Returns the total list
 * entries, or -1 if an id is >= n (nothing is then counted past that
 * edge). */
int64_t csr_count(const uint32_t *edges, int64_t m, int64_t n, const uint8_t *high,
                  int64_t *out_size, int64_t *in_size, int64_t *n_h2h) {
    int64_t total = 0, h2h = 0;
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        if (u >= n || v >= n) return -1;
        if (!high[u]) { out_size[u]++; total++; }
        if (!high[v]) { in_size[v]++; total++; }
        h2h += high[u] && high[v];
    }
    *n_h2h = h2h;
    return total;
}

/* Fill the lists counted by csr_count into col (n_col entries) and, if
 * col_eid is not NULL, the edge id of each entry into col_eid. A
 * counting sort with one write cursor per list: each list holds its
 * entries in edge order, and a vertex's out-list is followed by its
 * in-list. The E_h2h edges go to the (n_h2h, 2) h2h, in edge order.
 * Writes out_start and in_start; out_size and in_size serve as the
 * cursors and end as they began. Returns 0, or -1 if the edges do not
 * match the counts (a write would leave col or h2h). */
int csr_fill(const uint32_t *edges, int64_t m, int64_t n, const uint8_t *high,
             int64_t *out_start, int64_t *out_size, int64_t *in_start, int64_t *in_size,
             uint32_t *col, int64_t *col_eid, int64_t n_col, uint32_t *h2h, int64_t n_h2h) {
    int64_t at = 0, h = 0;
    for (int64_t v = 0; v < n; v++) {
        out_start[v] = at;
        in_start[v] = at + out_size[v];
        at += out_size[v] + in_size[v];
        out_size[v] = 0;
        in_size[v] = 0;
    }
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        if (u >= n || v >= n) return -1;
        if (!high[u]) {
            const int64_t p = out_start[u] + out_size[u]++;
            if (p >= n_col) return -1;
            col[p] = (uint32_t)v;
            if (col_eid) col_eid[p] = e;
        }
        if (!high[v]) {
            const int64_t p = in_start[v] + in_size[v]++;
            if (p >= n_col) return -1;
            col[p] = (uint32_t)u;
            if (col_eid) col_eid[p] = e;
        } else if (high[u]) {
            if (h >= n_h2h) return -1;
            h2h[2 * h] = (uint32_t)u;
            h2h[2 * h + 1] = (uint32_t)v;
            h++;
        }
    }
    return 0;
}

/* ---- NE++ (paper §3.2, Alg. 1-3; reference core/nepp.py:partition_nepp_py) ---- */

enum { NEPP_OK = 0, NEPP_ROWS_FULL = -1, NEPP_TRACE_FULL = -2 };
enum { NEPP_ASSIGNED, NEPP_CLEANED, NEPP_COL_READS, NEPP_COL_READ_BYTES, NEPP_SEED_PROBES,
       NEPP_COUNTERS };
enum { NEPP_EXPANSION_S, NEPP_CLEANUP_S, NEPP_SWEEP_S };

/* One state byte per vertex. A vertex is covered by the partition being
 * built (in C ∪ S_i) when any bit is set: HIGH vertices sit a priori in
 * every S_i, CORE is for good, and IN_S marks the low vertices that
 * joined the current S_i; the next partition clears IN_S on exactly
 * those (s_list). A popped vertex keeps IN_S beside CORE, so the heap's
 * members, S_i \ C, are the vertices whose state is exactly IN_S. */
enum { CORE = 1, IN_S = 2, HIGH = 4 };

/* A heap key packs a vertex v of S_i \ C with its external degree d:
 * (d << 32) | v. Ordering keys orders by (d, v), and keys are unique,
 * so the heap pops the same vertex as the reference's lazy heapq of
 * (d, v) pairs, whatever its layout. d is at most the length of the
 * vertex's two lists, each within col, and partition_nepp refuses a col
 * of 2^31 entries or more, so d < 2^32 and the key cannot overflow.
 * Lowering d subtracts multiples of KEY_ONE, which never changes the
 * low 32 bits: v is always key & VERTEX, even for a malformed CSR. */
#define KEY_ONE ((uint64_t)1 << 32)
#define VERTEX ((uint64_t)0xFFFFFFFF)

typedef struct {
    int64_t n, k, cap, m_rows;
    const int64_t *out_start, *in_start;
    int64_t *out_size, *in_size; /* clean-up shrinks them */
    uint32_t *col;               /* clean-up compacts lists in place */
    uint8_t *state;              /* (n,) CORE | IN_S | HIGH bits */
    int64_t *assignment;         /* (m_rows, 3) rows (src, dst, pid) */
    uint8_t *replicas;           /* (k, n) */
    int64_t *sizes;              /* (k,) */
    uint64_t *heap;              /* (n,) min-heap of the keys of S_i \ C */
    int64_t *pos;                /* (n,) each heap member's slot */
    int64_t *s_list;             /* (n,) the vertices that joined S_i, in order */
    int64_t heap_len, s_len, assigned;
    int64_t *trace;              /* (trace_cap, 2) read buffer, or NULL */
    int64_t trace_cap, trace_len;
    int64_t counters[NEPP_COUNTERS];
    int status;
} nepp_t;

static double thread_cpu_s(void) {
    struct timespec t;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* A column read of the list [start, start + size): counted and, when a
 * trace buffer is given, recorded as the byte range the CSR's touch
 * hook would see. A read past a full buffer stops the run and is not
 * recorded. Empty lists are not reads. */
static const uint32_t *read_list(nepp_t *s, int64_t start, int64_t size) {
    if (size > 0) {
        s->counters[NEPP_COL_READS]++;
        s->counters[NEPP_COL_READ_BYTES] += size * (int64_t)sizeof(uint32_t);
        if (s->trace) {
            if (s->trace_len < s->trace_cap) {
                s->trace[2 * s->trace_len] = start * (int64_t)sizeof(uint32_t);
                s->trace[2 * s->trace_len + 1] = (start + size) * (int64_t)sizeof(uint32_t);
                s->trace_len++;
            } else {
                s->status = NEPP_TRACE_FULL;
            }
        }
    }
    return s->col + start;
}

static void heap_put(nepp_t *s, int64_t i, uint64_t key) {
    s->heap[i] = key;
    s->pos[key & VERTEX] = i;
}

/* Move the key at slot i up past every larger parent. */
static void heap_up(nepp_t *s, int64_t i) {
    const uint64_t key = s->heap[i];
    while (i > 0) {
        const int64_t p = (i - 1) / 2;
        if (s->heap[p] < key) break;
        heap_put(s, i, s->heap[p]);
        i = p;
    }
    heap_put(s, i, key);
}

/* Lower the external degree of heap member w by d. */
static void heap_lower(nepp_t *s, int64_t w, int64_t d) {
    const int64_t i = s->pos[w];
    s->heap[i] -= (uint64_t)d * KEY_ONE;
    heap_up(s, i);
}

static int64_t heap_pop(nepp_t *s) {
    const uint64_t top = s->heap[0];
    const uint64_t key = s->heap[--s->heap_len];
    int64_t i = 0;
    if (s->heap_len == 0) return (int64_t)(top & VERTEX);
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= s->heap_len) break;
        if (c + 1 < s->heap_len && s->heap[c + 1] < s->heap[c]) c++;
        if (key < s->heap[c]) break;
        heap_put(s, i, s->heap[c]);
        i = c;
    }
    heap_put(s, i, key);
    return (int64_t)(top & VERTEX);
}

/* Write the row (a, b) at *end, the cursor past the rows of the run
 * being built; 0, or -1 if the assignment is full (the CSR holds more
 * edges than the caller counted). */
static int put_row(nepp_t *s, int64_t *end, int64_t a, int64_t b) {
    if (*end >= s->m_rows) {
        s->status = NEPP_ROWS_FULL;
        return -1;
    }
    int64_t *row = s->assignment + 3 * *end;
    row[0] = a;
    row[1] = b;
    (*end)++;
    return 0;
}

/* Hand the rows [assigned, end) to partition i, spilling what does not
 * fit under cap to the next partitions (Alg. 1 lines 26-28); the last
 * partition takes the rest. Both endpoints of a row join its
 * partition's covered set. */
static void spill(nepp_t *s, int64_t i, int64_t end) {
    int64_t j = i;
    while (s->assigned < end) {
        int64_t take = end - s->assigned;
        if (j < s->k - 1 && s->cap - s->sizes[j] < take) take = s->cap - s->sizes[j];
        if (take <= 0) {
            j++;
            continue;
        }
        uint8_t *rep = s->replicas + j * s->n;
        for (int64_t r = s->assigned; r < s->assigned + take; r++) {
            int64_t *row = s->assignment + 3 * r;
            row[2] = j;
            rep[row[0]] = 1;
            rep[row[1]] = 1;
        }
        s->sizes[j] += take;
        s->assigned += take;
    }
}

/* One list of join(u), in one pass: a row for each covered neighbour w,
 * (u, w) from the out-list or (w, u) from the in-list, and for each w
 * in S_i \ C one less external degree. 0, or -1 if the assignment is
 * full. */
static int join_list(nepp_t *s, int64_t u, const uint32_t *list, int64_t len, int out,
                     int64_t *end) {
    for (int64_t e = 0; e < len; e++) {
        const int64_t w = list[e];
        const uint8_t st = s->state[w];
        if (!st) continue;
        if (put_row(s, end, out ? u : w, out ? w : u) != 0) return -1;
        if (st == IN_S) heap_lower(s, w, 1);
    }
    return 0;
}

/* MoveToSecondary (Alg. 1 lines 16-28): u joins S_i. Its edges to
 * covered neighbours (high ones count as members of S_i) are assigned,
 * its external degree is what is left, and each low S_i neighbour's
 * external degree shrinks by one. u enters the heap first, keyed by its
 * whole list length, and is lowered by its assigned rows after the
 * scan, so an entry of u in its own list (a malformed CSR) lowers a
 * heap member like any other. */
static void join(nepp_t *s, int64_t i, int64_t u) {
    const int64_t no = s->out_size[u], ni = s->in_size[u];
    s->state[u] = IN_S;
    s->replicas[i * s->n + u] = 1;
    s->s_list[s->s_len++] = u;
    s->heap[s->heap_len] = (uint64_t)(no + ni) * KEY_ONE | (uint64_t)u;
    heap_up(s, s->heap_len++);
    const uint32_t *out = read_list(s, s->out_start[u], no);
    const uint32_t *in = read_list(s, s->in_start[u], ni);
    int64_t end = s->assigned;
    if (join_list(s, u, out, no, 1, &end) != 0 || join_list(s, u, in, ni, 0, &end) != 0)
        return;
    heap_lower(s, u, end - s->assigned);
    spill(s, i, end);
}

/* Keep the entries of the list at start that point outside C ∪ S_i, in
 * order (Alg. 2's swap-removal, order-preserving); returns the count
 * removed. */
static int64_t compact(nepp_t *s, int64_t start, int64_t *size) {
    uint32_t *list = s->col + start;
    int64_t kept = 0;
    for (int64_t e = 0; e < *size; e++)
        if (!s->state[list[e]]) list[kept++] = list[e];
    const int64_t removed = *size - kept;
    *size = kept;
    return removed;
}

/* Build partition i by expansion (Alg. 1), then clean up (Alg. 2). */
static void expand(nepp_t *s, int64_t i, int64_t *seed, double *phases) {
    const double t0 = thread_cpu_s();
    for (int64_t e = 0; e < s->s_len; e++) s->state[s->s_list[e]] &= (uint8_t)~IN_S;
    s->heap_len = 0;
    s->s_len = 0;
    while (s->sizes[i] < s->cap && s->assigned < s->m_rows && s->status == NEPP_OK) {
        int64_t v;
        if (s->heap_len > 0) {
            v = heap_pop(s);
        } else {
            /* Initialization (§3.2.3): sequential seed search. */
            while (*seed < s->n && ((s->state[*seed] & (HIGH | CORE))
                                    || s->out_size[*seed] + s->in_size[*seed] == 0)) {
                (*seed)++;
                s->counters[NEPP_SEED_PROBES]++;
            }
            if (*seed >= s->n) break; /* no suitable vertex anywhere: all edges done */
            v = *seed;
            s->counters[NEPP_SEED_PROBES]++;
        }
        /* MoveToCore (Alg. 1 lines 12-15). A seed (never in S_i) has its
         * edges to a-priori-secondary high neighbours assigned here. */
        const int64_t no = s->out_size[v], ni = s->in_size[v];
        const uint32_t *out = read_list(s, s->out_start[v], no);
        const uint32_t *in = read_list(s, s->in_start[v], ni);
        if (!(s->state[v] & IN_S)) {
            int64_t end = s->assigned;
            for (int64_t e = 0; e < no; e++)
                if ((s->state[out[e]] & HIGH) && put_row(s, &end, v, out[e]) != 0) return;
            for (int64_t e = 0; e < ni; e++)
                if ((s->state[in[e]] & HIGH) && put_row(s, &end, in[e], v) != 0) return;
            spill(s, i, end);
        }
        s->state[v] |= CORE;
        s->replicas[i * s->n + v] = 1;
        for (int64_t e = 0; e < no + ni && s->status == NEPP_OK; e++) {
            const int64_t w = e < no ? out[e] : in[e - no];
            if (!s->state[w]) join(s, i, w);
        }
    }
    const double t1 = thread_cpu_s();
    /* Clean-up (Alg. 2): only vertices still in S_i can be rescanned. */
    for (int64_t e = 0; e < s->s_len && s->status == NEPP_OK; e++) {
        const int64_t u = s->s_list[e];
        if (s->state[u] & CORE) continue;
        read_list(s, s->out_start[u], s->out_size[u]);
        read_list(s, s->in_start[u], s->in_size[u]);
        s->counters[NEPP_CLEANED] += compact(s, s->out_start[u], &s->out_size[u]);
        s->counters[NEPP_CLEANED] += compact(s, s->in_start[u], &s->in_size[u]);
    }
    phases[NEPP_EXPANSION_S] += t1 - t0;
    phases[NEPP_CLEANUP_S] += thread_cpu_s() - t1;
}

/* NE++ over a pruned CSR of n vertices into k partitions of at most cap
 * edges each (Alg. 1-3), writing at most m_rows assignment rows. The
 * CSR arrays are the caller's, checked so that every list lies inside
 * col, col holds fewer than 2^31 entries and every id is < n; clean-up
 * compacts col and shrinks the sizes. high is the (n,) high-degree
 * mask, read once into state. assignment, replicas (k, n) and sizes
 * (k,) receive the result, the last two zeroed by the caller; state,
 * heap, heap_pos and s_list are (n,) working arrays. When trace is not
 * NULL, every column read is recorded in it, in order, as a (byte_lo,
 * byte_hi) pair; a read past its trace_cap pairs stops the run with
 * NEPP_TRACE_FULL. counters receives the rows assigned, the entries
 * clean-up removed, the column reads, their bytes and the seed-cursor
 * probes; phases receives the thread-CPU seconds of expansion, clean-up
 * and the last sweep. Returns NEPP_OK or an error status. */
int nepp(int64_t n, const int64_t *out_start, int64_t *out_size, const int64_t *in_start,
         int64_t *in_size, uint32_t *col, const uint8_t *high, int64_t k, int64_t cap,
         int64_t m_rows, int64_t *assignment, uint8_t *replicas, int64_t *sizes,
         uint8_t *state, uint64_t *heap, int64_t *heap_pos, int64_t *s_list, int64_t *trace,
         int64_t trace_cap, int64_t *counters, double *phases) {
    nepp_t s = {
        .n = n, .k = k, .cap = cap, .m_rows = m_rows,
        .out_start = out_start, .in_start = in_start, .out_size = out_size, .in_size = in_size,
        .col = col, .state = state, .assignment = assignment, .replicas = replicas,
        .sizes = sizes, .heap = heap, .pos = heap_pos, .s_list = s_list,
        .trace = trace_cap > 0 ? trace : NULL, .trace_cap = trace_cap, .status = NEPP_OK,
    };
    for (int64_t v = 0; v < n; v++) state[v] = high[v] ? HIGH : 0;
    int64_t seed = 0;
    for (int64_t i = 0; i < k - 1 && s.assigned < m_rows && s.status == NEPP_OK; i++)
        expand(&s, i, &seed, phases);
    /* Last partition (Alg. 3): sweep low non-core vertices that still
     * hold column entries; out-lists fully, in-lists only for high
     * sources, so a low-low edge is assigned from its src side once. */
    const double t0 = thread_cpu_s();
    for (int64_t v = 0; v < n && s.status == NEPP_OK; v++) {
        const int64_t no = out_size[v], ni = in_size[v];
        if ((state[v] & (HIGH | CORE)) || no + ni == 0) continue;
        const uint32_t *out = read_list(&s, out_start[v], no);
        const uint32_t *in = read_list(&s, in_start[v], ni);
        int64_t end = s.assigned;
        for (int64_t e = 0; e < no; e++)
            if (put_row(&s, &end, v, out[e]) != 0) break;
        for (int64_t e = 0; e < ni && s.status == NEPP_OK; e++)
            if ((state[in[e]] & HIGH) && put_row(&s, &end, in[e], v) != 0) break;
        if (s.status == NEPP_OK) spill(&s, k - 1, end);
    }
    phases[NEPP_SWEEP_S] += thread_cpu_s() - t0;
    s.counters[NEPP_ASSIGNED] = s.assigned;
    memcpy(counters, s.counters, sizeof s.counters);
    return s.status;
}
