/* Native partitioner kernels, loaded through ctypes by repro.core._native.
 *
 * Build: gcc -O2 -std=c99 -fPIC -shared -ffp-contract=off. FMA
 * contraction must stay off so every score is rounded exactly as the
 * numpy reference (core/streaming.py:stream_edges_py) rounds it.
 */
#include <stdint.h>

enum { METHOD_HDRF = 0, METHOD_GREEDY = 1 };

/* Stateful streaming (paper §3.3, Alg. 4) over m edges for the HDRF
 * and Greedy scorers (HDRF's λ and ε come from core/streaming.py, their
 * one definition). replicas is the C-contiguous (k, n) bool matrix
 * and sizes the k partition loads; both are updated in place. Partitions
 * with a load of cap or more are closed. Ties go to the least-loaded
 * partition, then to the lowest index. Writes one pid per edge to pids;
 * returns 0, or -1 if an edge found every partition closed (the caller
 * checks beforehand that the cap leaves room, so this does not happen). */
int stream_edges(const uint32_t *edges, int64_t m, uint8_t *replicas,
                 int64_t *sizes, int64_t k, int64_t n, const int64_t *degrees,
                 int64_t cap, int method, double lambda, double eps,
                 int64_t *pids) {
    for (int64_t e = 0; e < m; e++) {
        const int64_t u = edges[2 * e], v = edges[2 * e + 1];
        int64_t best = -1;
        if (method == METHOD_HDRF) {
            const double du = (double)degrees[u], dv = (double)degrees[v];
            const double tot = du + dv;
            const double theta = tot != 0.0 ? du / tot : 0.5;
            const double wu = 2.0 - theta, wv = 1.0 + theta;
            int64_t mx = sizes[0], mn = sizes[0];
            for (int64_t p = 1; p < k; p++) {
                if (sizes[p] > mx) mx = sizes[p];
                if (sizes[p] < mn) mn = sizes[p];
            }
            const double denom = (eps + (double)mx) - (double)mn;
            double best_score = 0.0;
            for (int64_t p = 0; p < k; p++) {
                if (sizes[p] >= cap) continue;
                const double rep = (replicas[p * n + u] ? wu : 0.0)
                                 + (replicas[p * n + v] ? wv : 0.0);
                const double score = rep + (lambda * (double)(mx - sizes[p])) / denom;
                if (best < 0 || score > best_score
                    || (score == best_score && sizes[p] < sizes[best])) {
                    best = p;
                    best_score = score;
                }
            }
        } else if (method == METHOD_GREEDY) {
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
