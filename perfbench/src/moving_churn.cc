// moving_churn: writes beside reads on one index, cache and epoch. 128
// random-walk issuers (96 ipq and 32 ciuq_pti sessions) stream
// UpdatePosition through a SubscriptionManager over a 4-shard
// ShardedEngine (AsyncServer with 2 workers and an answer cache). The same
// single client applies one churn batch through ShardedEngine::ApplyUpdates
// after every kUpdatesPerBatch position updates — a fixed interleave, no
// timers. Every batch bumps the epoch and invalidates every valid region,
// so re-evaluations come both from issuers leaving their region and from
// epoch changes.

#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "serve/async_server.h"
#include "serve/sharded_engine.h"
#include "serve/subscription_manager.h"
#include "workloads.h"

namespace ilq::perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kWorkers = 2;
constexpr size_t kCacheEntries = 512;
constexpr size_t kSessions = 128;
constexpr size_t kSteps = 512;  // per trajectory, reused cyclically
constexpr double kStepSigma = 30.0;
constexpr double kU = 50.0;
constexpr double kW = 500.0;
constexpr double kQp = 0.3;
constexpr size_t kUpdatesPerBatch = 2048;
constexpr size_t kOpsPerBatch = 16;
constexpr size_t kChurnOps = 1 << 17;
constexpr size_t kSetups = 5;
constexpr size_t kWarmup = 512;
constexpr size_t kTraced = 8192;

// Three in four sessions run ipq. A validated ciuq_pti update costs ~3.5x
// a validated ipq one; with an even split the median would sit in the gap
// between the two and jump between them from run to run.
QueryMethod SessionMethod(size_t session) {
  return session % 4 == 3 ? QueryMethod::kCiuqPti : QueryMethod::kIpq;
}

/// Engine, serving stack, open sessions and the inputs that drive them.
/// Declaration order makes the manager and server go before the engine.
struct Stack {
  TrajectoryWorkload trajectories;
  std::vector<UpdateOp> churn;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<AsyncServer> server;
  std::unique_ptr<SubscriptionManager> manager;
  std::vector<SubscriptionId> sessions;
};

/// One client operation, recorded for the correctness replay.
struct Event {
  bool batch = false;
  bool ok = false;
  bool timed = false;
  bool traced = false;
  bool revalidated = false;
  uint32_t session = 0;
  uint32_t step = 0;
  uint64_t epoch = 0;
  uint64_t hash = 0;
  double at_s = 0.0;
  double us = 0.0;
};

std::unique_ptr<Stack> SetUp(uint64_t seed, std::vector<Event>* events) {
  auto stack = std::make_unique<Stack>();
  CatalogImage image = PaperCatalog();

  WorkloadConfig base;
  base.u = kU;
  base.w = kW;
  base.qp = kQp;
  base.seed = MixSeeds(seed, 3);
  TrajectoryConfig walk;
  walk.issuers = kSessions;
  walk.steps = kSteps;
  walk.kind = TrajectoryKind::kRandomWalk;
  walk.step = kStepSigma;
  walk.u_min = kU;
  walk.u_max = kU;
  stack->trajectories =
      Must(GenerateTrajectoryWorkload(base, walk), "trajectories");

  // The churn stream's id space is sized to the catalog, so its erases and
  // moves target catalog objects and its inserts take fresh ids.
  WorkloadConfig churn_base;
  churn_base.seed = MixSeeds(seed, 4);
  ChurnConfig churn;
  churn.initial_points = image.points.size();
  churn.initial_uncertains = image.uncertains.size();
  churn.ops = kChurnOps;
  stack->churn =
      Must(GenerateChurnWorkload(churn_base, churn), "churn stream").stream;

  ShardedEngineConfig config;
  config.shards = kShards;
  stack->engine = std::make_unique<ShardedEngine>(
      Must(ShardedEngine::Build(std::move(image.points),
                                std::move(image.uncertains), config),
           "sharded build"));
  AsyncServerOptions serve;
  serve.threads = kWorkers;
  serve.cache_capacity = kCacheEntries;
  stack->server = std::make_unique<AsyncServer>(*stack->engine, serve);
  stack->manager = std::make_unique<SubscriptionManager>(stack->server.get());
  for (size_t i = 0; i < kSessions; ++i) {
    const QueryMethod method = SessionMethod(i);
    Result<SubscriptionManager::Registered> registered =
        stack->manager->Register(method, SpecFor(method, kW, kQp),
                                 stack->trajectories.steps[i][0]);
    Event e;
    e.session = static_cast<uint32_t>(i);
    e.ok = registered.ok();
    if (e.ok) {
      stack->sessions.push_back(registered->id);
      e.epoch = registered->answer.epoch;
      e.hash = HashAnswers(registered->answer.answers);
    } else {
      stack->sessions.push_back(0);
    }
    if (events != nullptr) events->push_back(e);
  }
  return stack;
}

/// Layer split of one traced position update.
struct Traced {
  bool revalidated = false;
  bool epoch_changed = false;
  double e2e_us = 0.0;
  double build_us = -1.0;  // < 0: no re-evaluation
  double replay_us = 0.0;
};

struct TracedBatch {
  double us = 0.0;
  size_t ops = 0;
  uint64_t pti_refreshes = 0;
  uint64_t pti_rebuilds = 0;
};

class Client {
 public:
  explicit Client(Stack& stack)
      : stack_(stack),
        last_epoch_(kSessions, 0),
        shadow_(kSessions) {}

  /// Streams position updates (and the churn batches between them) until
  /// \p limit updates or the deadline. Returns the wall time.
  double Run(size_t limit, double seconds, bool timed, bool traced,
             std::vector<Event>* events, std::vector<Traced>* updates,
             std::vector<TracedBatch>* batches) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t done = 0;; ++done) {
      if (limit != 0 ? done >= limit : Clock::now() >= deadline) break;
      const size_t i = next_ % kSessions;
      const size_t step = 1 + (next_ / kSessions) % (kSteps - 1);
      const UncertainObject& issuer = stack_.trajectories.steps[i][step];
      const Clock::time_point t0 = Clock::now();
      Result<ContinuousAnswer> answer =
          stack_.manager->UpdatePosition(stack_.sessions[i], issuer);
      const double us = MicrosBetween(t0, Clock::now());
      Event e;
      e.session = static_cast<uint32_t>(i);
      e.step = static_cast<uint32_t>(step);
      e.ok = answer.ok();
      e.timed = timed;
      e.traced = traced;
      e.at_s = SecondsSince(start);
      e.us = us;
      if (e.ok) {
        e.revalidated = answer->revalidated;
        e.epoch = answer->epoch;
        e.hash = HashAnswers(answer->answers);
        if (traced) updates->push_back(Trace(i, issuer, *answer, us, &e));
        last_epoch_[i] = answer->epoch;
      }
      events->push_back(e);
      if (++next_ % kUpdatesPerBatch == 0) {
        ApplyBatch(timed, traced, events, batches);
      }
    }
    return SecondsSince(start);
  }

 private:
  Traced Trace(size_t i, const UncertainObject& issuer,
               const ContinuousAnswer& answer, double us, Event* e) {
    const QueryMethod method = SessionMethod(i);
    const BatchSpec spec = SpecFor(method, kW, kQp);
    Traced t;
    t.revalidated = answer.revalidated;
    t.epoch_changed = answer.epoch != last_epoch_[i];
    t.e2e_us = us;
    std::shared_ptr<const SubscriptionBasis>& shadow = shadow_[i];
    if (!answer.revalidated || shadow == nullptr ||
        shadow->epoch != answer.epoch ||
        !(shadow->valid_region == answer.valid_region)) {
      const Clock::time_point t0 = Clock::now();
      shadow = Must(BuildSubscriptionBasis(*stack_.engine, method,
                                           answer.valid_region, spec.query),
                    "basis replay");
      if (!answer.revalidated) t.build_us = MicrosBetween(t0, Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    const AnswerSet replayed =
        ReplaySubscriptionBasis(*shadow, method, issuer, spec);
    t.replay_us = MicrosBetween(t0, Clock::now());
    // The replayed basis must reproduce the session's answer exactly.
    if (HashAnswers(replayed) != e->hash) e->ok = false;
    return t;
  }

  void ApplyBatch(bool timed, bool traced, std::vector<Event>* events,
                  std::vector<TracedBatch>* batches) {
    const size_t begin = batch_ * kOpsPerBatch;
    if (begin + kOpsPerBatch > stack_.churn.size()) {
      Fail("churn batch", Status::OutOfRange("churn stream exhausted"));
    }
    const UpdateBatch batch(stack_.churn.begin() + begin,
                            stack_.churn.begin() + begin + kOpsPerBatch);
    ++batch_;
    ShardedEngine& engine = *stack_.engine;
    const ShardedEngine::PinnedSet before =
        traced ? engine.Pin() : ShardedEngine::PinnedSet{};
    const Clock::time_point t0 = Clock::now();
    const Status status = engine.ApplyUpdates(batch);
    const double us = MicrosBetween(t0, Clock::now());
    Event e;
    e.batch = true;
    e.ok = status.ok();
    e.timed = timed;
    e.traced = traced;
    e.us = us;
    events->push_back(e);
    if (traced) {
      // Each batch applies to fresh engine forks whose counters start at
      // zero; a shard whose engine changed carries exactly this batch's.
      TracedBatch b;
      b.us = us;
      b.ops = batch.size();
      const ShardedEngine::PinnedSet after = engine.Pin();
      for (size_t s = 0; s < after.shards.size(); ++s) {
        if (s < before.shards.size() &&
            after.shards[s].engine == before.shards[s].engine) {
          continue;
        }
        const UpdateStats stats = after.shards[s].engine->update_stats();
        b.pti_refreshes += stats.pti_refreshes;
        b.pti_rebuilds += stats.pti_rebuilds;
      }
      batches->push_back(b);
    }
  }

  Stack& stack_;
  size_t next_ = 0;   // position updates issued
  size_t batch_ = 0;  // churn batches applied
  std::vector<uint64_t> last_epoch_;
  std::vector<std::shared_ptr<const SubscriptionBasis>> shadow_;
};

/// Position updates from events[first..]; batch applies are left out of
/// the latencies but their time stays in the phase's rate.
std::vector<Sample> UpdateSamples(const std::vector<Event>& events,
                                  size_t first) {
  std::vector<Sample> samples;
  for (size_t k = first; k < events.size(); ++k) {
    if (!events[k].batch) samples.push_back({events[k].at_s, events[k].us});
  }
  return samples;
}

/// Replays the recorded interleave on a fresh engine: every session answer
/// must equal a one-shot ShardedEngine::Run at the same epoch and issuer
/// position, and every batch must apply there too.
void Verify(const Stack& stack, ShardedEngine& reference,
            const std::vector<Event>& events, Report* report) {
  uint64_t failed = 0;
  std::vector<const Event*> segment;
  const auto flush = [&] {
    std::vector<uint8_t> bad(segment.size(), 0);
    ParallelFor(segment.size(), 4, [&](size_t k) {
      const Event& e = *segment[k];
      const QueryMethod method = SessionMethod(e.session);
      const AnswerSet answers = reference.Run(
          method, stack.trajectories.steps[e.session][e.step],
          SpecFor(method, kW, kQp));
      bad[k] = !e.ok || e.epoch != reference.epoch() ||
               e.hash != HashAnswers(answers);
    });
    for (const uint8_t b : bad) failed += b;
    segment.clear();
  };
  size_t batch = 0;
  for (const Event& e : events) {
    if (!e.batch) {
      segment.push_back(&e);
      continue;
    }
    flush();
    const size_t begin = batch++ * kOpsPerBatch;
    const UpdateBatch ops(stack.churn.begin() + begin,
                          stack.churn.begin() + begin + kOpsPerBatch);
    const Status applied = reference.ApplyUpdates(ops);
    failed += !e.ok || !applied.ok();
  }
  flush();
  report->CountAttempted(events.size());
  report->CountFailed(failed);
}

void ReportLayers(const std::vector<Traced>& updates,
                  const std::vector<TracedBatch>& batches,
                  const ContinuousStats& c0, const ContinuousStats& c1,
                  const ServeStats& s0, const ServeStats& s1,
                  uint64_t resplits, double untraced_p50, Report* report) {
  std::vector<double> e2e, replay_calls, reeval_calls, builds, replays;
  double e2e_total = 0.0, covered = 0.0;
  uint64_t exits = 0, epochs = 0;
  for (const Traced& t : updates) {
    e2e.push_back(t.e2e_us);
    (t.revalidated ? replay_calls : reeval_calls).push_back(t.e2e_us);
    if (t.build_us >= 0.0) builds.push_back(t.build_us);
    replays.push_back(t.replay_us);
    e2e_total += t.e2e_us;
    covered += std::max(0.0, t.build_us) + t.replay_us;
    if (!t.revalidated) ++(t.epoch_changed ? epochs : exits);
  }
  const uint64_t validations = c1.validations - c0.validations;
  const uint64_t reevaluations = c1.reevaluations - c0.reevaluations;
  const double answered = static_cast<double>(validations + reevaluations);
  const double reevals = static_cast<double>(exits + epochs);
  report->Set("continuous.reuse_ratio",
              answered > 0 ? validations / answered : 0.0);
  report->Set("continuous.validations", static_cast<double>(validations));
  report->Set("continuous.reevaluations",
              static_cast<double>(reevaluations));
  report->Set("continuous.reeval_exit_share",
              reevals > 0 ? exits / reevals : 0.0);
  report->Set("continuous.reeval_epoch_share",
              reevals > 0 ? epochs / reevals : 0.0);
  report->Set("continuous.replay_us_p50", Quantile(replay_calls, 0.5));
  report->Set("continuous.reeval_us_p50", Quantile(reeval_calls, 0.5));
  report->Set("continuous.basis_build_us_p50", Quantile(builds, 0.5));
  report->Set("continuous.basis_replay_us_p50", Quantile(replays, 0.5));
  const uint64_t hits = s1.cache_hits - s0.cache_hits;
  const uint64_t lookups = hits + (s1.cache_misses - s0.cache_misses);
  report->Set("cache.hit_rate",
              lookups ? static_cast<double>(hits) / lookups : 0.0);
  report->Set("cache.evictions",
              static_cast<double>(s1.cache_evictions - s0.cache_evictions));
  report->Set("cache.exact_hits",
              static_cast<double>(s1.cache_exact_hits - s0.cache_exact_hits));
  report->Set("cache.containment_hits",
              static_cast<double>(s1.cache_containment_hits -
                                  s0.cache_containment_hits));
  report->Set("cache.invalidations",
              static_cast<double>(s1.cache_invalidations -
                                  s0.cache_invalidations));

  std::vector<double> apply_us;
  double apply_total = 0.0;
  uint64_t ops = 0, refreshes = 0, rebuilds = 0;
  for (const TracedBatch& b : batches) {
    apply_us.push_back(b.us);
    apply_total += b.us;
    ops += b.ops;
    refreshes += b.pti_refreshes;
    rebuilds += b.pti_rebuilds;
  }
  report->Set("update.apply_us_p50", Quantile(apply_us, 0.5));
  report->Set("update.ns_per_op", ops ? apply_total * 1000.0 / ops : 0.0);
  report->Set("update.pti_refreshes", static_cast<double>(refreshes));
  report->Set("update.pti_rebuilds", static_cast<double>(rebuilds));
  report->Set("update.resplits", static_cast<double>(resplits));
  report->Set("trace.unattributed_frac",
              e2e_total > 0.0 ? (e2e_total - covered) / e2e_total : 0.0);
  report->Set("trace.overhead_frac",
              untraced_p50 > 0.0 ? Quantile(e2e, 0.5) / untraced_p50 - 1.0
                                 : 0.0);
}

}  // namespace

void RunMovingChurn(const Options& options, Report* report) {
  report->Context("points", 62000.0);
  report->Context("uncertains", 53000.0);
  report->Context("shards", static_cast<double>(kShards));
  report->Context("clients", 1.0);
  report->Context("workers", static_cast<double>(kWorkers));
  report->Context("cache_entries", static_cast<double>(kCacheEntries));
  report->Context("sessions", static_cast<double>(kSessions));
  report->Context("updates_per_batch", static_cast<double>(kUpdatesPerBatch));
  report->Context("ops_per_batch", static_cast<double>(kOpsPerBatch));
  report->Context("w", kW);
  report->Context("qp", kQp);

  // The first stack is never served from: its engine is the fresh
  // reference the correctness replay runs on.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> reference;
  std::unique_ptr<Stack> stack;
  std::vector<Event> events;
  const size_t setups = options.trace ? 2 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    stack.reset();
    events.clear();
    const Clock::time_point start = Clock::now();
    stack = SetUp(options.seed, &events);
    setup_s.push_back(SecondsSince(start));
    if (i == 0) {
      stack->manager.reset();
      stack->server.reset();
      reference = std::move(stack);
    }
  }

  Client client(*stack);
  client.Run(kWarmup, 0.0, false, false, &events, nullptr, nullptr);
  std::vector<Traced> traced;
  std::vector<TracedBatch> batches;
  if (!options.trace) {
    const size_t first = events.size();
    const double wall_s = client.Run(0, options.seconds, true, false, &events,
                                     nullptr, nullptr);
    ReportTimedPhase(setup_s, UpdateSamples(events, first), wall_s, report);
  } else {
    const ContinuousStats c0 = stack->manager->continuous_stats();
    const ServeStats s0 = stack->manager->stats();
    const uint64_t resplits0 = stack->engine->resplit_count();
    client.Run(kTraced, 0.0, false, true, &events, &traced, &batches);
    const ContinuousStats c1 = stack->manager->continuous_stats();
    const ServeStats s1 = stack->manager->stats();
    const uint64_t resplits = stack->engine->resplit_count() - resplits0;
    const size_t first = events.size();
    client.Run(0, options.seconds / 2.0, true, false, &events, nullptr,
               nullptr);
    ReportLayers(traced, batches, c0, c1, s0, s1, resplits,
                 MedianUs(UpdateSamples(events, first)), report);
  }
  stack->manager.reset();
  stack->server.reset();
  Verify(*stack, *reference->engine, events, report);
  if (!options.trace) {
    report->SetEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  }
}

}  // namespace ilq::perfbench
