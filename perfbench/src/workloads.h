// The benchmark's workloads. Each runs one closed-loop client load against
// the library's public entry points, checks every answer, and fills the
// report: end-to-end metrics in an untraced run, per-layer metrics in a
// traced one (--trace 1).

#ifndef ILQ_PERFBENCH_WORKLOADS_H_
#define ILQ_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace ilq::perfbench {

/// Router → 3 ShardServers over loopback, 2 clients, analytic kernel.
void RunWireOneshot(const Options& options, Report* report);

/// Serial cipq_pexp / ciuq_pti on a disk-resident QueryEngine with a
/// buffer pool of ~10% of the index bytes; Gaussian issuers, Monte-Carlo.
void RunDiskMcThreshold(const Options& options, Report* report);

/// Moving issuers through SubscriptionManager over a 4-shard
/// ShardedEngine, interleaved with churn batches from the same client.
void RunMovingChurn(const Options& options, Report* report);

}  // namespace ilq::perfbench

#endif  // ILQ_PERFBENCH_WORKLOADS_H_
