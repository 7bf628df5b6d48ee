#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "core/duality.h"
#include "core/expansion.h"
#include "datagen/snapshot_gen.h"
#include "simd/simd_policy.h"

namespace ilq::perfbench {

void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

CatalogImage PaperCatalog() {
  SnapshotGenConfig config;
  config.points.count = 62000;
  config.points.seed = 20070415;
  config.uncertains.base.count = 53000;
  config.uncertains.base.seed = 20070416;
  return Must(GenerateCatalogImage(config), "catalog generation");
}

double Quantile(const std::vector<double>& values, double q) {
  SummaryStats stats;
  for (const double v : values) stats.Add(v);
  return stats.Percentile(100.0 * q);
}

PhaseSummary SummarizeBySlices(const std::vector<Sample>& samples,
                               double wall_s) {
  constexpr size_t kSlices = 8;
  const double width = wall_s / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  for (const Sample& s : samples) {
    const auto slice = static_cast<size_t>(s.at_s / width);
    slices[std::min(slice, kSlices - 1)].push_back(s.us);
  }
  std::vector<double> p50, p99, rate;
  for (const std::vector<double>& slice : slices) {
    p50.push_back(Quantile(slice, 0.5));
    p99.push_back(Quantile(slice, 0.99));
    rate.push_back(static_cast<double>(slice.size()) / width);
  }
  // Interference from other processes only ever slows a slice down, so
  // the run's figure comes from its least-disturbed quarter of slices.
  return {Quantile(p50, 0.25), Quantile(p99, 0.25), Quantile(rate, 0.75)};
}

void ReportTimedPhase(const std::vector<double>& setup_s,
                      const std::vector<Sample>& samples, double wall_s,
                      Report* report) {
  const PhaseSummary summary = SummarizeBySlices(samples, wall_s);
  report->SetEndToEnd("setup_s", Quantile(setup_s, 0.5), "s");
  report->SetEndToEnd("query_p50_us", summary.p50_us, "us");
  report->SetEndToEnd("query_p99_us", summary.p99_us, "us");
  report->SetEndToEnd("query_qps", summary.per_s, "1/s");
}

double MedianUs(const std::vector<Sample>& samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (const Sample& s : samples) us.push_back(s.us);
  return Quantile(us, 0.5);
}

uint64_t HashAnswers(const AnswerSet& answers) {
  // FNV-1a over 64-bit words: each step is a bijection of the running
  // state, so any single differing word changes the digest.
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001B3ULL; };
  mix(answers.size());
  for (const ProbabilisticAnswer& a : answers) {
    mix(a.id);
    mix(std::bit_cast<uint64_t>(a.probability));
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  threads = std::max<size_t>(1, std::min(threads, n));
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

BatchSpec SpecFor(QueryMethod method, double w, double qp) {
  const bool constrained = method == QueryMethod::kCipqPExpanded ||
                           method == QueryMethod::kCiuqPti;
  return BatchSpec(RangeQuerySpec(w, w, constrained ? qp : 0.0));
}

// ---- Metric registry ------------------------------------------------------

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s", "query_p50_us", "query_p99_us", "query_qps", "peak_rss_mb"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        // net
        {"net.socket_us_p50", "us"},
        {"router.fanout", "shards"},
        {"router.retries", "count"},
        {"router.reconnects", "count"},
        // wire
        {"codec.request_us_p50", "us"},
        {"codec.response_us_p50", "us"},
        {"wire.response_kb", "KiB"},
        // serve
        {"serve.server_us_p50", "us"},
        {"route.us_p50", "us"},
        {"merge.us_p50", "us"},
        {"cache.hit_rate", "ratio"},
        {"cache.evictions", "count"},
        // core / index
        {"engine.us_p50.ipq", "us"},
        {"engine.us_p50.iuq", "us"},
        {"engine.us_p50.cipq_pexp", "us"},
        {"engine.us_p50.ciuq_pti", "us"},
        {"index.node_accesses", "count"},
        {"index.leaf_accesses", "count"},
        {"index.candidates", "count"},
        {"filter.us_p50", "us"},
        {"filter.precision", "ratio"},
        // prob / simd
        {"refine.us_p50", "us"},
        {"refine.ns_per_candidate", "ns"},
        // storage
        {"buffer.hit_rate", "ratio"},
        {"buffer.misses_per_query", "count"},
        {"buffer.evictions_per_query", "count"},
        {"storage.mount_s", "s"},
        // continuous
        {"continuous.reuse_ratio", "ratio"},
        {"continuous.validations", "count"},
        {"continuous.reevaluations", "count"},
        {"continuous.reeval_exit_share", "ratio"},
        {"continuous.reeval_epoch_share", "ratio"},
        {"continuous.replay_us_p50", "us"},
        {"continuous.reeval_us_p50", "us"},
        {"continuous.basis_build_us_p50", "us"},
        {"continuous.basis_replay_us_p50", "us"},
        {"cache.exact_hits", "count"},
        {"cache.containment_hits", "count"},
        {"cache.invalidations", "count"},
        // object
        {"update.apply_us_p50", "us"},
        {"update.ns_per_op", "ns"},
        {"update.pti_refreshes", "count"},
        {"update.pti_rebuilds", "count"},
        {"update.resplits", "count"},
        // trace
        {"trace.unattributed_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    // The paper's §6 filter/refine table, from the disk workload.
    for (const char* method : {"cipq_pexp", "ciuq_pti"}) {
      const std::string p = std::string("paper.") + method + ".";
      m.push_back({p + "node_accesses", "count"});
      m.push_back({p + "candidates", "count"});
      m.push_back({p + "qual_evals", "count"});
      m.push_back({p + "filter_us", "us"});
      m.push_back({p + "refine_us", "us"});
      m.push_back({p + "query_us", "us"});
    }
    return m;
  }();
  return metrics;
}

// ---- Report ---------------------------------------------------------------

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Report::Report(const Options& options) : options_(options) {
  if (options_.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      metrics_[name] = {0.0, unit};
    }
  }
  Context("workload", options_.workload);
  Context("seed", static_cast<double>(options_.seed));
  Context("seconds", options_.seconds);
  Context("trace", options_.trace ? 1.0 : 0.0);
  Context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Context("detected_simd",
          simd::SimdLevelName(simd::DetectedSimdLevel()));
  Context("active_simd", simd::SimdLevelName(simd::ActiveSimdLevel()));
  Context("kernel_variant",
          simd::KernelVariantName(simd::ActiveKernelVariant()));
  Context("compiler", __VERSION__);
  Context("build_type", ILQ_PERFBENCH_BUILD_TYPE);
#if defined(ILQ_FP_CONTRACT_OFF)
  Context("fp_contract", "off");
#else
  Context("fp_contract", "unknown");
#endif
}

void Report::Set(const std::string& name, double value) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    std::fprintf(stderr, "perfbench: unregistered metric %s\n", name.c_str());
    std::abort();
  }
  it->second.first = value;
}

void Report::SetEndToEnd(const std::string& name, double value,
                         const char* unit) {
  metrics_[name] = {value, unit};
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.push_back({key, JsonString(value)});
}

void Report::Context(const std::string& key, double value) {
  context_.push_back({key, JsonNumber(value)});
}

bool Report::Print() const {
  if (!options_.trace) {
    for (const std::string& name : EndToEndMetrics()) {
      if (metrics_.count(name) == 0) {
        std::fprintf(stderr, "perfbench: missing metric %s\n", name.c_str());
        return false;
      }
    }
  }
  for (const auto& [name, value] : metrics_) {
    if (!std::isfinite(value.first)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return false;
    }
  }

  std::string context = "{\"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    context += (i ? ", " : "") + JsonString(context_[i].first) + ": " +
               context_[i].second;
  }
  context += "}}";

  std::string result = "{\"correct\": ";
  result += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name) {
    const auto& [value, unit] = metrics_.at(name);
    result += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
              JsonNumber(value) + ", \"unit\": " + JsonString(unit) + "}";
    first = false;
  };
  if (options_.trace) {
    for (const auto& entry : PerLayerMetrics()) emit(entry.first);
  } else {
    for (const std::string& name : EndToEndMetrics()) emit(name);
  }
  result += "}}";
  std::printf("%s\n%s\n", context.c_str(), result.c_str());
  std::fflush(stdout);
  return true;
}

// ---- Filter / refine replay -----------------------------------------------

// Keeps the replayed qualification loop observable to the optimizer.
volatile double g_sink = 0.0;

SplitReplay ReplayFilterRefine(const QueryEngine& engine, QueryMethod method,
                               const UncertainObject& issuer,
                               const BatchSpec& spec) {
  const RangeQuerySpec& q = spec.query;
  const EvalOptions& eval = engine.config().eval;
  const bool points = QueryMethodUsesPoints(method);
  const bool constrained = method == QueryMethod::kCipqPExpanded ||
                           method == QueryMethod::kCiuqPti;
  const Rect box =
      constrained
          ? PExpandedQueryFromCatalog(*issuer.catalog(), q.w, q.h, q.threshold)
          : MinkowskiExpandedQuery(issuer.region(), q.w, q.h);

  std::vector<Rect> boxes;
  std::vector<ObjectId> ids;
  const Clock::time_point t0 = Clock::now();
  (points ? engine.point_index() : engine.uncertain_index())
      .Query(box, [&](const Rect& b, ObjectId id) {
        boxes.push_back(b);
        ids.push_back(id);
      });
  const Clock::time_point t1 = Clock::now();

  const bool mc = eval.kernel == ProbabilityKernel::kMonteCarlo;
  double total = 0.0;
  if (points) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const Point center = boxes[i].Center();
      if (mc) {
        Rng rng(MixSeeds(eval.mc_seed, ids[i]));
        total += PointQualificationMC(issuer.pdf_variant(), center, q.w, q.h,
                                      eval.mc_samples, &rng);
      } else {
        total += PointQualification(issuer.pdf_variant(), center, q.w, q.h);
      }
    }
  } else {
    const std::vector<UncertainObject>& objects = engine.uncertains();
    for (const ObjectId position : ids) {
      const UncertainObject& object = objects[position];
      if (mc) {
        Rng rng(MixSeeds(eval.mc_seed, object.id()));
        total += UncertainQualificationMC(issuer.pdf_variant(),
                                          object.pdf_variant(), q.w, q.h,
                                          eval.mc_samples, &rng);
      } else {
        total += UncertainQualification(issuer.pdf_variant(),
                                        object.pdf_variant(), q.w, q.h,
                                        eval.quadrature_order);
      }
    }
  }
  const Clock::time_point t2 = Clock::now();
  g_sink = total;

  SplitReplay out;
  out.filter_us = MicrosBetween(t0, t1);
  out.refine_us = MicrosBetween(t1, t2);
  out.candidates = ids.size();
  return out;
}

}  // namespace ilq::perfbench
