// wire_oneshot: one-shot queries through Router over three loopback
// ShardServers — the deployed serving path. Two closed-loop clients, each
// with its own Router; every server has one worker and an answer cache.
// Issuers come from Zipf(s=1) pools with uniform pdfs and the analytic
// kernel, and the methods are a seeded equal mix of ipq, iuq, cipq_pexp
// and ciuq_pti (Qp = 0.3 on the constrained two). Answers are large and
// refinement is closed-form, so net, wire, serve and index filtering carry
// the cost.
//
// Popularity rotates: every kSegment requests traffic moves to a fresh
// Zipf pool. A single pool would let the handful of issuers it makes hot
// decide a whole run's latency; the ~50 hot sets a run sees keep the
// seed-to-seed spread small.

#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "object/ucatalog.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "serve/partition.h"
#include "serve/sharded_engine.h"
#include "wire/message.h"
#include "workloads.h"

namespace ilq::perfbench {
namespace {

constexpr size_t kShards = 3;
constexpr size_t kClients = 2;
constexpr size_t kServerWorkers = 1;
constexpr size_t kCacheEntries = 256;  // per server
constexpr size_t kPool = 1024;     // distinct issuers per pool
constexpr size_t kPools = 64;
constexpr size_t kSegment = 2048;  // requests drawn from one pool
constexpr double kU = 250.0;
constexpr double kW = 500.0;
constexpr double kQp = 0.3;
constexpr size_t kSetups = 5;
constexpr size_t kWarmupPerClient = 300;
constexpr size_t kTracedPerClient = 1000;

constexpr QueryMethod kMethods[] = {
    QueryMethod::kIpq, QueryMethod::kIuq, QueryMethod::kCipqPExpanded,
    QueryMethod::kCiuqPti};

/// The serving fleet plus the inputs it was built from. Routers go before
/// the servers they are connected to.
struct Fleet {
  CatalogImage image;
  /// All pools' issuers; ids are unique across pools, as the answer cache
  /// keys on them.
  std::vector<UncertainObject> issuers;
  /// Request r queries issuers[picks[r % picks.size()]].
  std::vector<uint32_t> picks;
  std::vector<std::unique_ptr<ShardedEngine>> engines;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<Router> routers;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    routers.clear();
    for (auto& server : servers) server->Stop();
  }
};

std::unique_ptr<Fleet> SetUp(uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  fleet->image = PaperCatalog();

  const std::vector<double> ladder = UCatalog::EvenlySpacedValues(11);
  for (size_t p = 0; p < kPools; ++p) {
    WorkloadConfig base;
    base.u = kU;
    base.w = kW;
    base.qp = kQp;
    base.seed = MixSeeds(seed, 100 + p);
    base.catalog_values = ladder;
    SkewConfig skew;
    skew.pool = kPool;
    skew.requests = kSegment;
    skew.zipf_s = 1.0;
    const SkewedWorkload pool =
        Must(GenerateSkewedWorkload(base, skew), "skewed workload");
    const size_t first = fleet->issuers.size();
    for (const UncertainObject& issuer : pool.pool) {
      UncertainObject renamed(static_cast<ObjectId>(first + issuer.id()),
                              issuer.pdf_variant());
      Must(renamed.BuildCatalog(ladder), "issuer catalog");
      fleet->issuers.push_back(std::move(renamed));
    }
    for (const size_t pick : pool.sequence) {
      fleet->picks.push_back(static_cast<uint32_t>(first + pick));
    }
  }

  SplitImage split =
      Must(SplitCatalogImage(fleet->image, kShards), "catalog split");
  std::vector<RouterEndpoint> endpoints;
  for (CatalogImage& shard : split.shards) {
    ShardedEngineConfig config;
    config.shards = 1;
    fleet->engines.push_back(std::make_unique<ShardedEngine>(
        Must(ShardedEngine::Build(std::move(shard.points),
                                  std::move(shard.uncertains), config),
             "shard build")));
    ShardServerOptions options;
    options.serve.threads = kServerWorkers;
    options.serve.cache_capacity = kCacheEntries;
    fleet->servers.push_back(
        std::make_unique<ShardServer>(*fleet->engines.back(), options));
    Must(fleet->servers.back()->Start(), "server start");
    endpoints.push_back({"127.0.0.1", fleet->servers.back()->port()});
  }
  for (size_t c = 0; c < kClients; ++c) {
    RouterOptions options;
    options.map = split.map;
    options.endpoints = endpoints;
    fleet->routers.push_back(Must(Router::Make(options), "router"));
  }
  return fleet;
}

QueryMethod MethodOf(uint64_t seed, size_t request) {
  return kMethods[MixSeeds(seed, request) % std::size(kMethods)];
}

struct Op {
  uint32_t request = 0;
  bool ok = false;
  bool timed = false;
  double at_s = 0.0;
  double us = 0.0;
  uint64_t hash = 0;
};

/// Per-request layer split of a traced call.
struct Traced {
  QueryMethod method = QueryMethod::kIpq;
  double e2e_us = 0.0;
  double server_us = 0.0;
  double codec_request_us = 0.0;
  double codec_response_us = 0.0;
  double response_kb = 0.0;
  double route_us = 0.0;
  double merge_us = 0.0;
  double engine_us = 0.0;
  SplitReplay split;
  IndexStats index;
  uint64_t answers = 0;
  uint64_t shard_calls = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
};

/// How one phase of client traffic runs.
struct Phase {
  size_t first = 0;        ///< per-client request counter to start at
  size_t limit = 0;        ///< requests per client; 0 = until the deadline
  double seconds = 0.0;    ///< deadline when limit == 0
  bool timed = false;
  const QueryEngine* replay_engine = nullptr;  ///< set = traced phase
};

struct PhaseResult {
  double wall_s = 0.0;
  std::vector<Op> ops;
  std::vector<Traced> traced;
};

void TraceCall(const Router& router, const QueryEngine& engine,
               const UncertainObject& issuer, QueryMethod method,
               const BatchSpec& spec, const AnswerSet& answers,
               const WireServeStats& wire_stats, Traced* t) {
  t->server_us = wire_stats.server_ms * 1000.0;
  t->answers = answers.size();

  Clock::time_point t0 = Clock::now();
  RouteOverShardMap(router.map(), method, issuer, spec.query);
  t->route_us = MicrosBetween(t0, Clock::now());

  WireRequest request;
  request.issuer_id = issuer.id();
  request.issuer_pdf = issuer.pdf_variant();
  request.method = method;
  request.spec = spec;
  t0 = Clock::now();
  ByteWriter request_bytes;
  Must(EncodeRequest(request, &request_bytes), "request encode");
  Must(DecodeRequest(request_bytes.bytes()), "request decode");
  t->codec_request_us = MicrosBetween(t0, Clock::now());

  WireResponse response;
  response.answers = answers;
  response.stats = wire_stats;
  t0 = Clock::now();
  ByteWriter response_bytes;
  Must(EncodeResponse(response, &response_bytes), "response encode");
  Must(DecodeResponse(response_bytes.bytes()), "response decode");
  t->codec_response_us = MicrosBetween(t0, Clock::now());
  t->response_kb = static_cast<double>(response_bytes.size()) / 1024.0;

  AnswerSet merged = answers;
  t0 = Clock::now();
  CanonicalizeAnswers(&merged);
  t->merge_us = MicrosBetween(t0, Clock::now());

  t0 = Clock::now();
  RunQueryMethod(engine, method, issuer, spec, &t->index);
  t->engine_us = MicrosBetween(t0, Clock::now());

  t->split = ReplayFilterRefine(engine, method, issuer, spec);
}

PhaseResult RunPhase(Fleet& fleet, uint64_t seed, const Phase& phase) {
  std::vector<PhaseResult> per_client(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Router& router = fleet.routers[c];
      PhaseResult& out = per_client[c];
      for (size_t k = phase.first;; ++k) {
        if (phase.limit != 0 ? k >= phase.first + phase.limit
                             : Clock::now() >= deadline) {
          break;
        }
        const size_t request = (c + kClients * k) % fleet.picks.size();
        const UncertainObject& issuer = fleet.issuers[fleet.picks[request]];
        const QueryMethod method = MethodOf(seed, request);
        const BatchSpec spec = SpecFor(method, kW, kQp);
        const RouterStats before = router.stats();
        WireServeStats wire_stats;
        const Clock::time_point t0 = Clock::now();
        Result<AnswerSet> answers =
            router.Query(issuer, method, spec, &wire_stats);
        const double us = MicrosBetween(t0, Clock::now());
        Op op;
        op.request = static_cast<uint32_t>(request);
        op.ok = answers.ok();
        op.timed = phase.timed;
        op.at_s = SecondsSince(start);
        op.us = us;
        if (op.ok) op.hash = HashAnswers(*answers);
        out.ops.push_back(op);
        if (phase.replay_engine != nullptr && op.ok) {
          const RouterStats after = router.stats();
          Traced t;
          t.method = method;
          t.e2e_us = us;
          t.shard_calls = after.shard_calls - before.shard_calls;
          t.retries = after.retries - before.retries;
          t.reconnects = after.reconnects - before.reconnects;
          TraceCall(router, *phase.replay_engine, issuer, method, spec,
                    *answers, wire_stats, &t);
          out.traced.push_back(t);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  PhaseResult merged;
  merged.wall_s = SecondsSince(start);
  for (PhaseResult& part : per_client) {
    merged.ops.insert(merged.ops.end(), part.ops.begin(), part.ops.end());
    merged.traced.insert(merged.traced.end(), part.traced.begin(),
                         part.traced.end());
  }
  return merged;
}

std::vector<Sample> TimedSamples(const std::vector<Op>& ops) {
  std::vector<Sample> samples;
  for (const Op& op : ops) {
    if (op.timed && op.ok) samples.push_back({op.at_s, op.us});
  }
  return samples;
}

/// Checks every answer against the monolithic engine (canonical order).
void Verify(const Fleet& fleet, const QueryEngine& mono, uint64_t seed,
            const std::vector<Op>& ops, Report* report) {
  std::unordered_map<uint64_t, uint64_t> expected;  // issuer*8+method → hash
  const auto key_of = [&](uint32_t request) {
    const QueryMethod method = MethodOf(seed, request);
    return static_cast<uint64_t>(fleet.picks[request]) * 8 +
           static_cast<uint64_t>(method);
  };
  for (const Op& op : ops) expected.emplace(key_of(op.request), 0);
  std::vector<uint64_t> keys;
  for (const auto& [key, hash] : expected) keys.push_back(key);
  std::vector<uint64_t> hashes(keys.size());
  ParallelFor(keys.size(), 4, [&](size_t i) {
    const UncertainObject& issuer = fleet.issuers[keys[i] / 8];
    const auto method = static_cast<QueryMethod>(keys[i] % 8);
    AnswerSet answers =
        RunQueryMethod(mono, method, issuer, SpecFor(method, kW, kQp));
    CanonicalizeAnswers(&answers);
    hashes[i] = HashAnswers(answers);
  });
  for (size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = hashes[i];

  uint64_t failed = 0;
  for (const Op& op : ops) {
    if (!op.ok || op.hash != expected.at(key_of(op.request))) ++failed;
  }
  report->CountAttempted(ops.size());
  report->CountFailed(failed);
}

struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

CacheCounters ServerCache(const Fleet& fleet) {
  CacheCounters c;
  for (const auto& server : fleet.servers) {
    const ServeStats s = server->serve_stats();
    c.hits += s.cache_hits;
    c.misses += s.cache_misses;
    c.evictions += s.cache_evictions;
  }
  return c;
}

void ReportLayers(const std::vector<Traced>& traced, const CacheCounters& a,
                  const CacheCounters& b, double untraced_p50,
                  Report* report) {
  std::vector<double> socket, codec_req, codec_resp, server, route, merge,
      filter, refine, e2e;
  std::unordered_map<int, std::vector<double>> engine_us;
  double kb = 0.0, refine_total = 0.0, e2e_total = 0.0, covered = 0.0;
  uint64_t calls = 0, retries = 0, reconnects = 0, node = 0, leaf = 0,
           candidates = 0, answers = 0, replayed = 0;
  for (const Traced& t : traced) {
    const double codec = t.codec_request_us + t.codec_response_us;
    socket.push_back(t.e2e_us - t.server_us - codec);
    codec_req.push_back(t.codec_request_us);
    codec_resp.push_back(t.codec_response_us);
    server.push_back(t.server_us);
    route.push_back(t.route_us);
    merge.push_back(t.merge_us);
    filter.push_back(t.split.filter_us);
    refine.push_back(t.split.refine_us);
    e2e.push_back(t.e2e_us);
    engine_us[static_cast<int>(t.method)].push_back(t.engine_us);
    kb += t.response_kb;
    refine_total += t.split.refine_us;
    replayed += t.split.candidates;
    e2e_total += t.e2e_us;
    covered += t.route_us + codec + t.server_us + t.merge_us;
    calls += t.shard_calls;
    retries += t.retries;
    reconnects += t.reconnects;
    node += t.index.node_accesses;
    leaf += t.index.leaf_accesses;
    candidates += t.index.candidates;
    answers += t.answers;
  }
  const double n = static_cast<double>(std::max<size_t>(1, traced.size()));
  report->Set("net.socket_us_p50", Quantile(socket, 0.5));
  report->Set("router.fanout", static_cast<double>(calls) / n);
  report->Set("router.retries", static_cast<double>(retries));
  report->Set("router.reconnects", static_cast<double>(reconnects));
  report->Set("codec.request_us_p50", Quantile(codec_req, 0.5));
  report->Set("codec.response_us_p50", Quantile(codec_resp, 0.5));
  report->Set("wire.response_kb", kb / n);
  report->Set("serve.server_us_p50", Quantile(server, 0.5));
  report->Set("route.us_p50", Quantile(route, 0.5));
  report->Set("merge.us_p50", Quantile(merge, 0.5));
  const uint64_t hits = b.hits - a.hits;
  const uint64_t lookups = hits + (b.misses - a.misses);
  report->Set("cache.hit_rate",
              lookups ? static_cast<double>(hits) / lookups : 0.0);
  report->Set("cache.evictions", static_cast<double>(b.evictions - a.evictions));
  for (const QueryMethod method : kMethods) {
    report->Set(std::string("engine.us_p50.") + QueryMethodName(method),
                Quantile(engine_us[static_cast<int>(method)], 0.5));
  }
  report->Set("index.node_accesses", static_cast<double>(node) / n);
  report->Set("index.leaf_accesses", static_cast<double>(leaf) / n);
  report->Set("index.candidates", static_cast<double>(candidates) / n);
  report->Set("filter.us_p50", Quantile(filter, 0.5));
  report->Set("filter.precision",
              candidates ? static_cast<double>(answers) / candidates : 0.0);
  report->Set("refine.us_p50", Quantile(refine, 0.5));
  report->Set("refine.ns_per_candidate",
              replayed ? refine_total * 1000.0 / replayed : 0.0);
  report->Set("trace.unattributed_frac",
              e2e_total > 0.0 ? (e2e_total - covered) / e2e_total : 0.0);
  report->Set("trace.overhead_frac",
              untraced_p50 > 0.0 ? Quantile(e2e, 0.5) / untraced_p50 - 1.0
                                 : 0.0);
}

}  // namespace

void RunWireOneshot(const Options& options, Report* report) {
  report->Context("points", 62000.0);
  report->Context("uncertains", 53000.0);
  report->Context("shards", static_cast<double>(kShards));
  report->Context("clients", static_cast<double>(kClients));
  report->Context("workers_per_server", static_cast<double>(kServerWorkers));
  report->Context("cache_entries_per_server",
                  static_cast<double>(kCacheEntries));
  report->Context("w", kW);
  report->Context("qp", kQp);

  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (size_t i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = SetUp(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  const QueryEngine mono = Must(
      QueryEngine::Build(fleet->image.points, fleet->image.uncertains),
      "monolith build");

  std::vector<Op> ops;
  const auto keep = [&ops](const PhaseResult& r) {
    ops.insert(ops.end(), r.ops.begin(), r.ops.end());
  };
  Phase warmup;
  warmup.limit = kWarmupPerClient;
  keep(RunPhase(*fleet, options.seed, warmup));

  if (!options.trace) {
    Phase timed;
    timed.first = kWarmupPerClient;
    timed.seconds = options.seconds;
    timed.timed = true;
    const PhaseResult run = RunPhase(*fleet, options.seed, timed);
    keep(run);
    ReportTimedPhase(setup_s, TimedSamples(run.ops), run.wall_s, report);
  } else {
    const CacheCounters before = ServerCache(*fleet);
    Phase traced;
    traced.first = kWarmupPerClient;
    traced.limit = kTracedPerClient;
    traced.replay_engine = &mono;
    const PhaseResult trace_run = RunPhase(*fleet, options.seed, traced);
    keep(trace_run);
    const CacheCounters after = ServerCache(*fleet);

    Phase untraced;
    untraced.first = kWarmupPerClient + kTracedPerClient;
    untraced.seconds = options.seconds / 2.0;
    untraced.timed = true;
    const PhaseResult plain = RunPhase(*fleet, options.seed, untraced);
    keep(plain);
    ReportLayers(trace_run.traced, before, after,
                 MedianUs(TimedSamples(plain.ops)), report);
  }
  Verify(*fleet, mono, options.seed, ops, report);
  fleet.reset();
  if (!options.trace) {
    report->SetEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  }
}

}  // namespace ilq::perfbench
