// Shared pieces of the end-to-end benchmark: command-line options, the
// result report (end-to-end or per-layer metrics plus a context block),
// sample quantiles, answer hashing for the correctness gates, and the
// filter/refine replay the traced runs use to split a query's cost.

#ifndef ILQ_PERFBENCH_BENCH_H_
#define ILQ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/engine.h"
#include "core/query.h"
#include "object/snapshot.h"
#include "object/uncertain_object.h"

namespace ilq::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Parsed command line: --workload, --seed, --seconds, --trace, --scratch.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files a workload writes (paged index files). Removed
  /// again before the run ends.
  std::string scratch = ".bench_build/scratch";
};

/// Set-up steps cannot fail on generated inputs; when one does, the run
/// ends at once with exit code 2 and no result line.
[[noreturn]] void Fail(const std::string& what, const Status& status);
inline void Must(const Status& status, const char* what) {
  if (!status.ok()) Fail(what, status);
}
template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).ValueOrDie();
}

/// The §6.1 catalog at full scale: 62K "California" points and 53K
/// "Long Beach" rectangles with uniform pdfs. Like the paper's TIGER
/// extracts it is one fixed dataset (the seeds bench/ uses); --seed varies
/// the query inputs only, which keeps seed-to-seed spread down to what the
/// queries themselves cause.
CatalogImage PaperCatalog();

class Report;

/// \brief One timed operation: when it completed (seconds since its
/// phase started) and how long it took.
struct Sample {
  double at_s = 0.0;
  double us = 0.0;
};

/// \brief End-to-end latency and rate of a timed phase.
struct PhaseSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double per_s = 0.0;
};

/// Cuts a timed phase of \p wall_s seconds into kSlices equal time slices
/// and computes each slice's p50, p99 and completion rate. Returns the
/// 25th percentile over slices of the latencies and the 75th of the rate,
/// so bursts of interference from other processes that slow up to three
/// quarters of a run do not move its figures.
PhaseSummary SummarizeBySlices(const std::vector<Sample>& samples,
                               double wall_s);

/// Reports setup_s (median over the run's set-ups) and query_p50_us,
/// query_p99_us and query_qps (SummarizeBySlices of the timed phase).
void ReportTimedPhase(const std::vector<double>& setup_s,
                      const std::vector<Sample>& samples, double wall_s,
                      Report* report);

/// Median latency of a phase, in µs.
double MedianUs(const std::vector<Sample>& samples);

/// Interpolated quantile (q in [0, 1], common/stats.h); 0 when empty.
double Quantile(const std::vector<double>& values, double q);

/// Order-sensitive 64-bit digest of an answer set: ids and the exact
/// probability bits. Two answers hash equal iff they are bit-identical
/// (up to a 2^-64 collision chance).
uint64_t HashAnswers(const AnswerSet& answers);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Runs fn(i) for i in [0, n) on \p threads threads (strided split).
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

/// The query a method needs: ipq/iuq run unconstrained, the threshold
/// methods at \p qp.
BatchSpec SpecFor(QueryMethod method, double w, double qp);

/// \brief What one run prints: a context line, then the result line
/// (correct / attempted / failed / metrics).
class Report {
 public:
  explicit Report(const Options& options);

  /// Records an end-to-end (untraced run) or per-layer (traced run)
  /// metric. Per-layer names must be in the registry (PerLayerMetrics);
  /// layers a workload does not exercise keep their 0.
  void Set(const std::string& name, double value);
  /// End-to-end metric with its unit.
  void SetEndToEnd(const std::string& name, double value, const char* unit);

  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  uint64_t failed() const { return failed_; }

  /// Prints "context {...}" then the result JSON as the last line.
  /// Returns false (and prints nothing on stdout) when a metric is missing
  /// or not finite.
  bool Print() const;

 private:
  const Options& options_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> context_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// The per-layer metric registry (name, unit), in print order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The end-to-end metric names every untraced run must report.
const std::vector<std::string>& EndToEndMetrics();

/// \brief One filter + refine replay of a query on an in-memory engine.
struct SplitReplay {
  double filter_us = 0.0;   ///< RTree::Query over the method's filter box
  double refine_us = 0.0;   ///< duality qualification over the candidates
  uint64_t candidates = 0;  ///< qualification evaluations replayed
};

/// Replays the two paper stages of \p method for one issuer: an R-tree
/// range search over the method's filter box (Minkowski sum for ipq/iuq,
/// catalogued p-expanded query for the threshold methods), then the
/// core/duality.h qualification function on every candidate with the
/// engine's kernel and per-candidate Monte-Carlo seeding. ciuq_pti is
/// replayed over the plain uncertain R-tree, so its candidate count is the
/// filter output before PTI pruning.
SplitReplay ReplayFilterRefine(const QueryEngine& engine, QueryMethod method,
                               const UncertainObject& issuer,
                               const BatchSpec& spec);

}  // namespace ilq::perfbench

#endif  // ILQ_PERFBENCH_BENCH_H_
