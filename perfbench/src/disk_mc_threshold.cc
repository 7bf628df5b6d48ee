// disk_mc_threshold: the paper's own setting (§6.2, Fig. 13). One serial
// client runs cipq_pexp and ciuq_pti at Qp = 0.5 against a QueryEngine
// mounted with OpenPaged from 4K-page index files, with a per-index buffer
// budget of ~10% of the index file bytes. Issuers are Gaussian and the
// Monte-Carlo kernel draws the paper's 250 samples, so refinement dominates
// and the buffer pool misses; net, wire and serve do nothing. The query
// half-extent is cut from §6.1's 500 to 120 so a query costs about two
// milliseconds and every time slice of a run holds over a thousand.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "workloads.h"

namespace ilq::perfbench {
namespace {

constexpr double kU = 250.0;
constexpr double kW = 120.0;
constexpr double kQp = 0.5;
constexpr size_t kSamples = 250;
constexpr size_t kPool = 2048;  // issuers; each runs both methods
constexpr double kBufferShare = 0.10;
constexpr size_t kSetups = 5;
constexpr size_t kWarmup = 128;
constexpr size_t kTraced = 512;

constexpr QueryMethod kMethods[] = {QueryMethod::kCipqPExpanded,
                                    QueryMethod::kCiuqPti};

EngineConfig McConfig() {
  EngineConfig config;
  config.eval.kernel = ProbabilityKernel::kMonteCarlo;
  config.eval.mc_samples = kSamples;
  return config;
}

/// Request r runs issuer order[r] / 2 with method order[r] % 2; the order
/// is a seeded shuffle of every (issuer, method) pair, reused cyclically.
struct Inputs {
  std::vector<UncertainObject> issuers;
  std::vector<uint32_t> order;
};

Inputs MakeInputs(uint64_t seed) {
  WorkloadConfig config;
  config.u = kU;
  config.w = kW;
  config.qp = kQp;
  config.queries = kPool;
  config.issuer_pdf = IssuerPdfKind::kGaussian;
  config.seed = MixSeeds(seed, 3);
  Inputs inputs;
  inputs.issuers = Must(GenerateWorkload(config), "workload").issuers;
  inputs.order.resize(2 * kPool);
  std::iota(inputs.order.begin(), inputs.order.end(), 0u);
  Rng rng(MixSeeds(seed, 4));
  for (size_t i = inputs.order.size(); i > 1; --i) {
    std::swap(inputs.order[i - 1], inputs.order[rng.NextBelow(i)]);
  }
  return inputs;
}

uint64_t FileBytes(const PagedIndexFiles& files) {
  uint64_t bytes = 0;
  for (const std::string* path :
       {&files.point_index, &files.uncertain_index, &files.pti_index}) {
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(*path, ec);
    if (!ec) bytes += size;
  }
  return bytes;
}

struct Op {
  uint32_t pair = 0;  // issuer * 2 + method index
  bool timed = false;
  double at_s = 0.0;
  double us = 0.0;
  uint64_t hash = 0;
};

struct Traced {
  size_t method = 0;
  double e2e_us = 0.0;
  IndexStats index;
  SplitReplay split;
  uint64_t answers = 0;
};

class Client {
 public:
  Client(const QueryEngine& engine, const Inputs& inputs)
      : engine_(engine), inputs_(inputs) {}

  /// Runs requests next_, next_+1, ... until \p limit requests or the
  /// deadline; \p replay set = traced.
  double Run(size_t limit, double seconds, bool timed,
             const QueryEngine* replay, std::vector<Op>* ops,
             std::vector<Traced>* traced) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t done = 0;; ++done, ++next_) {
      if (limit != 0 ? done >= limit : Clock::now() >= deadline) break;
      const uint32_t pair = inputs_.order[next_ % inputs_.order.size()];
      const UncertainObject& issuer = inputs_.issuers[pair / 2];
      const QueryMethod method = kMethods[pair % 2];
      const BatchSpec spec = SpecFor(method, kW, kQp);
      IndexStats stats;
      const Clock::time_point t0 = Clock::now();
      const AnswerSet answers =
          RunQueryMethod(engine_, method, issuer, spec, &stats);
      const double us = MicrosBetween(t0, Clock::now());
      ops->push_back({pair, timed, SecondsSince(start), us,
                      HashAnswers(answers)});
      if (replay != nullptr) {
        Traced t;
        t.method = pair % 2;
        t.e2e_us = us;
        t.index = stats;
        t.answers = answers.size();
        t.split = ReplayFilterRefine(*replay, method, issuer, spec);
        traced->push_back(t);
      }
    }
    return SecondsSince(start);
  }

 private:
  const QueryEngine& engine_;
  const Inputs& inputs_;
  size_t next_ = 0;
};

std::vector<Sample> SamplesFrom(const std::vector<Op>& ops, size_t first) {
  std::vector<Sample> samples;
  for (size_t i = first; i < ops.size(); ++i) {
    samples.push_back({ops[i].at_s, ops[i].us});
  }
  return samples;
}

/// Paged answers against the in-memory engine, bit for bit.
void Verify(const QueryEngine& memory, const Inputs& inputs,
            const std::vector<Op>& ops, Report* report) {
  std::vector<uint64_t> expected(inputs.order.size());
  std::vector<bool> needed(inputs.order.size(), false);
  for (const Op& op : ops) needed[op.pair] = true;
  std::vector<uint32_t> pairs;
  for (uint32_t p = 0; p < needed.size(); ++p) {
    if (needed[p]) pairs.push_back(p);
  }
  ParallelFor(pairs.size(), 4, [&](size_t i) {
    const uint32_t pair = pairs[i];
    const QueryMethod method = kMethods[pair % 2];
    expected[pair] = HashAnswers(RunQueryMethod(
        memory, method, inputs.issuers[pair / 2], SpecFor(method, kW, kQp)));
  });
  uint64_t failed = 0;
  for (const Op& op : ops) failed += op.hash != expected[op.pair];
  report->CountAttempted(ops.size());
  report->CountFailed(failed);
}

void ReportLayers(const std::vector<Traced>& traced, double mount_s,
                  double untraced_p50, Report* report) {
  std::vector<double> e2e, filter, refine;
  std::vector<double> engine_us[2];
  IndexStats total;
  double e2e_total = 0.0, covered = 0.0, refine_total = 0.0;
  uint64_t answers = 0, replayed = 0;
  struct Row {
    double n = 0, node = 0, candidates = 0, evals = 0, filter = 0,
           refine = 0, query = 0;
  } rows[2];
  for (const Traced& t : traced) {
    e2e.push_back(t.e2e_us);
    filter.push_back(t.split.filter_us);
    refine.push_back(t.split.refine_us);
    engine_us[t.method].push_back(t.e2e_us);
    total += t.index;
    e2e_total += t.e2e_us;
    covered += t.split.filter_us + t.split.refine_us;
    refine_total += t.split.refine_us;
    answers += t.answers;
    replayed += t.split.candidates;
    Row& row = rows[t.method];
    row.n += 1;
    row.node += static_cast<double>(t.index.node_accesses);
    row.candidates += static_cast<double>(t.index.candidates);
    row.evals += static_cast<double>(t.split.candidates);
    row.filter += t.split.filter_us;
    row.refine += t.split.refine_us;
    row.query += t.e2e_us;
  }
  const double n = static_cast<double>(std::max<size_t>(1, traced.size()));
  for (size_t m = 0; m < 2; ++m) {
    const std::string name = QueryMethodName(kMethods[m]);
    report->Set("engine.us_p50." + name, Quantile(engine_us[m], 0.5));
    const Row& row = rows[m];
    const double rn = std::max(1.0, row.n);
    const std::string p = "paper." + name + ".";
    report->Set(p + "node_accesses", row.node / rn);
    report->Set(p + "candidates", row.candidates / rn);
    report->Set(p + "qual_evals", row.evals / rn);
    report->Set(p + "filter_us", row.filter / rn);
    report->Set(p + "refine_us", row.refine / rn);
    report->Set(p + "query_us", row.query / rn);
  }
  report->Set("index.node_accesses", total.node_accesses / n);
  report->Set("index.leaf_accesses", total.leaf_accesses / n);
  report->Set("index.candidates", total.candidates / n);
  report->Set("filter.us_p50", Quantile(filter, 0.5));
  report->Set("filter.precision",
              total.candidates
                  ? static_cast<double>(answers) / total.candidates
                  : 0.0);
  report->Set("refine.us_p50", Quantile(refine, 0.5));
  report->Set("refine.ns_per_candidate",
              replayed ? refine_total * 1000.0 / replayed : 0.0);
  const uint64_t reads = total.page_hits + total.page_misses;
  report->Set("buffer.hit_rate",
              reads ? static_cast<double>(total.page_hits) / reads : 0.0);
  report->Set("buffer.misses_per_query", total.page_misses / n);
  report->Set("buffer.evictions_per_query", total.page_evictions / n);
  report->Set("storage.mount_s", mount_s);
  report->Set("trace.unattributed_frac",
              e2e_total > 0.0 ? (e2e_total - covered) / e2e_total : 0.0);
  report->Set("trace.overhead_frac",
              untraced_p50 > 0.0 ? Quantile(e2e, 0.5) / untraced_p50 - 1.0
                                 : 0.0);
}

}  // namespace

void RunDiskMcThreshold(const Options& options, Report* report) {
  namespace fs = std::filesystem;
  // Index files are written before any clock starts: set-up time covers
  // generating, mounting (with the deep verify walk) and nothing else.
  const EngineConfig config = McConfig();
  const QueryEngine memory = [&] {
    CatalogImage image = PaperCatalog();
    return Must(QueryEngine::Build(std::move(image.points),
                                   std::move(image.uncertains), config),
                "in-memory build");
  }();
  const std::string dir =
      options.scratch + "/disk-" + std::to_string(::getpid());
  fs::create_directories(dir);
  const PagedIndexFiles files = PagedIndexFiles::InDir(dir);
  Must(memory.SavePagedIndexes(files), "index save");
  const uint64_t index_bytes = FileBytes(files);

  EngineConfig paged = config;
  paged.storage = StorageMode::kPaged;
  paged.paged_deep_verify = true;
  paged.buffer_pool_bytes = std::max<size_t>(
      4096, static_cast<size_t>(kBufferShare * index_bytes));
  report->Context("points", 62000.0);
  report->Context("uncertains", 53000.0);
  report->Context("clients", 1.0);
  report->Context("index_bytes", static_cast<double>(index_bytes));
  report->Context("buffer_bytes_per_index",
                  static_cast<double>(paged.buffer_pool_bytes));
  report->Context("mc_samples", static_cast<double>(kSamples));
  report->Context("w", kW);
  report->Context("qp", kQp);

  std::vector<double> setup_s;
  double mount_s = 0.0;
  std::optional<QueryEngine> engine;
  Inputs inputs;
  for (size_t i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    CatalogImage image = PaperCatalog();
    inputs = MakeInputs(options.seed);
    const Clock::time_point mount = Clock::now();
    engine.emplace(Must(QueryEngine::OpenPaged(std::move(image), files, paged),
                        "paged mount"));
    mount_s = SecondsSince(mount);
    setup_s.push_back(SecondsSince(start));
  }

  Client client(*engine, inputs);
  std::vector<Op> ops;
  std::vector<Traced> traced;
  client.Run(kWarmup, 0.0, false, nullptr, &ops, nullptr);
  if (!options.trace) {
    const size_t first = ops.size();
    const double wall_s =
        client.Run(0, options.seconds, true, nullptr, &ops, nullptr);
    ReportTimedPhase(setup_s, SamplesFrom(ops, first), wall_s, report);
  } else {
    client.Run(kTraced, 0.0, false, &memory, &ops, &traced);
    const size_t first = ops.size();
    client.Run(0, options.seconds / 2.0, true, nullptr, &ops, nullptr);
    ReportLayers(traced, mount_s, MedianUs(SamplesFrom(ops, first)), report);
  }
  engine.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  Verify(memory, inputs, ops, report);
  if (!options.trace) {
    report->SetEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  }
}

}  // namespace ilq::perfbench
