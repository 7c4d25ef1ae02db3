// The two in-process workloads: attack_ml100k (single-server RoundEngine
// under FedRecAttack) and defended_catalogue (ShardedRoundEngine with the
// median rule over a 40x catalogue, no attacker). Both build their world
// from the seed through the program's public data/attack/fed/shard/model
// functions, warm up, then run rounds for the measured window with an
// evaluation at a fixed round cadence (Fig. 3 of the paper).
//
// Untraced runs drive whole rounds (RoundEngine::RunRound /
// ShardedRoundEngine::RunRound). Traced runs drive the same rounds through
// the public stage calls with a span around each, so per-layer time is
// measured at the call into the layer. A second set-up replays the checked
// rounds through the other path and must reach the same item matrix.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack_factory.h"
#include "attack/target_select.h"
#include "common/threadpool.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "harness.h"
#include "model/metrics.h"
#include "shard/sharded_round_engine.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  std::size_t num_items;  ///< synthetic catalogue (ml-100k users either way)
  bool attacked;          ///< FedRecAttack xi=1% rho=5% kappa=60, else none
  fedrec::AggregatorKind aggregator;
  std::size_t shards;         ///< 0 = single-server RoundEngine
  std::size_t warmup_rounds;  ///< part of set-up (first U-hat fit included)
  std::size_t eval_every;     ///< rounds between evaluations
  std::size_t check_round;    ///< window round whose state the checks pin
  /// Recorded at kDefaultSeed: "ER@5 ER@10 NDCG@10 HR@10" and the
  /// item-matrix digest at check_round.
  const char* golden_metrics;
  const char* golden_digest;
};

// One epoch is ceil((943 + 47) / 64) = 16 rounds with the attacker, 15
// without. attack_ml100k evaluates every epoch; a defended_catalogue
// evaluation ranks 40x the items, so it runs every 10 epochs to stay a
// similar share of the window.
constexpr Workload kAttackMl100k = {
    "attack_ml100k", 1682, true, fedrec::AggregatorKind::kSum, 0,
    16, 16, 160, "0.0063626723 0.0392364793 0.0128707684 0.7274655355",
    "05b7555e833b7eb5"};
constexpr Workload kDefendedCatalogue = {
    "defended_catalogue", 1682 * 40, false, fedrec::AggregatorKind::kMedian, 4,
    15, 150, 150, "0.0000000000 0.0000000000 0.0000000000 0.9660657476",
    "8f7a72d4b911f466"};

constexpr std::size_t kDim = 32;
constexpr double kXi = 0.01;
constexpr double kRho = 0.05;

struct SetupTimes {
  double generate_s = 0.0;
  double split_s = 0.0;
  double public_view_s = 0.0;
  double attack_create_s = 0.0;
  double evaluator_init_s = 0.0;
  double total_s = 0.0;
};

/// Everything one set-up builds. Heap-allocated and never moved: the
/// evaluator, attack and simulation keep pointers into the members above
/// them.
struct World {
  fedrec::Dataset train;
  fedrec::PublicInteractions view;
  std::vector<std::uint32_t> targets;
  std::unique_ptr<fedrec::MaliciousCoordinator> attack;
  std::unique_ptr<fedrec::Evaluator> evaluator;
  std::unique_ptr<fedrec::Simulation> sim;
  std::unique_ptr<fedrec::ShardedRoundEngine> sharded;
  fedrec::SparseRoundDelta merged;  ///< staged sharded path's merge target
  fedrec::RoundObserver no_observer;
  fedrec::ThreadPool* pool = nullptr;
  std::size_t next_epoch = 0;
};

double Since(std::uint64_t start_ns) { return NsToS(NowNs() - start_ns); }

/// Opens the next epoch when the current one has no rounds left (the same
/// bookkeeping Simulation::RunRounds does around RunRound).
void OpenEpochIfNeeded(World& world, SpanLog* log, std::uint32_t round) {
  fedrec::RoundEngine& engine = world.sim->engine();
  if (engine.HasNextRound()) return;
  Scoped span(log, "fed.begin_epoch", round);
  engine.BeginEpoch(world.next_epoch++);
}

void RunRoundWhole(World& world) {
  if (world.sharded != nullptr) {
    world.sharded->RunRound(world.no_observer);
  } else {
    world.sim->engine().RunRound(world.no_observer);
  }
}

/// The round through its public stage calls, one span per call (`log` null:
/// same calls, no spans).
void RunRoundStaged(World& world, SpanLog* log, std::uint32_t round) {
  fedrec::RoundEngine& engine = world.sim->engine();
  Scoped round_span(log, "round", round);
  {
    Scoped span(log, "fed.select", round);
    engine.Select();
  }
  {
    Scoped span(log, "fed.local_train", round);
    engine.LocalTrain();
  }
  {
    Scoped span(log, "attack.produce", round);
    engine.Attack();
  }
  {
    Scoped span(log, "fed.observe", round);
    engine.Observe(world.no_observer);
  }
  {
    Scoped span(log, "fed.transit_faults", round);
    engine.ApplyTransitFaults();
  }
  if (world.sharded == nullptr) {
    {
      Scoped span(log, "fed.aggregate", round);
      engine.Aggregate();
    }
    Scoped span(log, "model.apply", round);
    engine.Apply();
  } else {
    fedrec::ShardServer& server = world.sharded->server();
    const fedrec::FedConfig& config = world.sim->config();
    const std::span<const fedrec::ClientUpdate> updates(
        engine.workspace().updates.data(), engine.live_uploads());
    {
      Scoped span(log, "shard.route", round);
      server.RouteRound(updates, world.pool);
    }
    {
      Scoped span(log, "shard.aggregate", round);
      server
          .AggregateRound(config.aggregator, updates.size(),
                          /*krum_source=*/0, world.pool)
          .CheckOK();
    }
    {
      Scoped span(log, "shard.merge", round);
      server.MergeRoundDelta(world.merged).CheckOK();
    }
    Scoped span(log, "model.apply", round);
    world.sim->model().ApplySparseGradient(world.merged,
                                           config.model.learning_rate);
  }
  engine.AdvanceRound();
}

std::unique_ptr<World> BuildWorld(const Workload& workload, std::uint64_t seed,
                                  fedrec::ThreadPool* pool, SetupTimes& times) {
  const std::uint64_t setup_start = NowNs();
  auto world = std::make_unique<World>();
  world->pool = pool;

  std::uint64_t start = NowNs();
  fedrec::SyntheticConfig data_config = fedrec::MovieLens100KConfig(seed);
  data_config.num_items = workload.num_items;
  const fedrec::Dataset full = fedrec::GenerateSynthetic(data_config);
  times.generate_s = Since(start);

  start = NowNs();
  fedrec::Rng rng(seed + 1);
  fedrec::LeaveOneOutSplit split = fedrec::SplitLeaveOneOut(full, rng);
  world->train = std::move(split.train);
  times.split_s = Since(start);

  if (workload.attacked) {
    start = NowNs();
    world->view = fedrec::PublicInteractions::Sample(
        world->train, kXi, rng, fedrec::PublicSamplingMode::kCeil);
    times.public_view_s = Since(start);
  }
  fedrec::Rng target_rng(seed + 2);
  world->targets = fedrec::SelectTargetItems(
      world->train, 1, fedrec::TargetSelection::kUnpopular, target_rng);

  fedrec::FedConfig config;
  config.model.dim = kDim;
  config.clients_per_round = 64;
  config.aggregator.kind = workload.aggregator;
  config.seed = seed + 3;

  std::size_t num_malicious = 0;
  if (workload.attacked) {
    start = NowNs();
    fedrec::AttackOptions attack;
    attack.kind = "fedrecattack";
    attack.target_items = world->targets;
    attack.kappa = 60;
    attack.users_per_step = 256;
    attack.seed = seed + 4;
    fedrec::AttackInputs inputs;
    inputs.train = &world->train;
    inputs.public_view = &world->view;
    inputs.num_benign_users = world->train.num_users();
    inputs.dim = kDim;
    auto created = fedrec::CreateAttack(attack, inputs);
    created.status().CheckOK();
    world->attack = std::move(created).value();
    num_malicious = static_cast<std::size_t>(
        kRho * static_cast<double>(world->train.num_users()) + 0.5);
    times.attack_create_s = Since(start);
  }

  start = NowNs();
  fedrec::MetricsConfig metrics;
  metrics.er_ks = {5, 10};
  metrics.ndcg_k = 10;
  metrics.hr_k = 10;
  metrics.hr_negatives = 99;
  world->evaluator = std::make_unique<fedrec::Evaluator>(
      world->train, std::move(split.test_items), metrics, seed + 5);
  times.evaluator_init_s = Since(start);

  world->sim = std::make_unique<fedrec::Simulation>(
      world->train, config, num_malicious, world->attack.get(), pool);
  if (workload.shards > 0) {
    const fedrec::ShardPlan plan(workload.num_items, workload.shards,
                                 fedrec::ShardPolicy::kContiguousRange);
    world->sharded = std::make_unique<fedrec::ShardedRoundEngine>(
        &world->sim->engine(), &world->sim->model(), &world->sim->config(),
        plan, pool);
  }
  for (std::size_t r = 0; r < workload.warmup_rounds; ++r) {
    OpenEpochIfNeeded(*world, nullptr, 0);
    RunRoundWhole(*world);
  }
  times.total_s = Since(setup_start);
  return world;
}

std::string FormatMetrics(const fedrec::MetricsResult& result) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.10f %.10f %.10f %.10f",
                result.er_at[0], result.er_at[1], result.ndcg,
                result.hit_ratio);
  return buffer;
}

std::uint64_t ModelDigest(const World& world) {
  return Digest(world.sim->model().item_factors().Data());
}

fedrec::MetricsResult Evaluate(World& world) {
  return world.evaluator->Evaluate(world.sim->BenignUserFactors(),
                                   world.sim->model().item_factors(),
                                   world.targets, world.pool);
}

/// Per-round counts the traced run reads off the engine after each round.
struct RoundCounts {
  double benign = 0.0;
  double malicious = 0.0;
  double upload_rows = 0.0;
  double delta_rows = 0.0;
  double slowest_aggregate_s = 0.0;
  double aggregate_imbalance = 0.0;
};

void CountRound(const World& world, RoundCounts& counts) {
  const fedrec::RoundWorkspace& ws = world.sim->engine().workspace();
  const std::size_t benign = ws.selected_benign.size();
  counts.benign += static_cast<double>(benign);
  counts.malicious += static_cast<double>(ws.selected_malicious.size());
  for (std::size_t i = 0; i < benign; ++i) {
    counts.upload_rows +=
        static_cast<double>(ws.updates[i].item_gradients.row_ids().size());
  }
  if (world.sharded == nullptr) {
    counts.delta_rows += static_cast<double>(ws.delta.row_count());
    return;
  }
  counts.delta_rows += static_cast<double>(world.merged.row_count());
  const fedrec::ShardServer& server = world.sharded->server();
  double slowest = 0.0;
  double sum = 0.0;
  for (std::size_t s = 0; s < server.plan().num_shards(); ++s) {
    slowest = std::max(slowest, server.aggregate_seconds(s));
    sum += server.aggregate_seconds(s);
  }
  counts.slowest_aggregate_s += slowest;
  if (sum > 0.0) {
    counts.aggregate_imbalance +=
        slowest / (sum / static_cast<double>(server.plan().num_shards()));
  }
}

std::uint64_t WireBytes(const World& world) {
  if (world.sharded == nullptr) return 0;
  const fedrec::ShardServerStats& stats = world.sharded->server().stats();
  return stats.upload_bytes + stats.delta_bytes;
}

int RunInProcess(const Workload& workload, const Options& options) {
  PrintContext(options, kPoolThreads);
  Report report(options);
  fedrec::ThreadPool pool(kPoolThreads);
  std::vector<SetupTimes> setups;

  // Set-ups: all but the last are thrown away (set-up time is a median);
  // each must reach the same post-warm-up model.
  std::unique_ptr<World> world;
  std::uint64_t warm_digest = 0;
  for (int i = 0; i + 1 < kSetups; ++i) {
    world.reset();
    SetupTimes times;
    world = BuildWorld(workload, options.seed, &pool, times);
    setups.push_back(times);
    const std::uint64_t digest = ModelDigest(*world);
    if (i == 0) warm_digest = digest;
    report.Check(digest == warm_digest,
                 "set-up " + std::to_string(i) +
                     " reached a different post-warm-up model");
  }

  // Measured window.
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>(std::size_t{1} << 20);
  SpanLog* span_log = log.get();
  Samples round_ms;
  Samples round_cpu_ms;
  Samples eval_ms;
  round_ms.Reserve(1 << 14);
  round_cpu_ms.Reserve(1 << 14);
  RoundCounts counts;
  std::uint64_t round_allocs = 0;
  std::uint64_t check_rounds_ns = 0;
  std::string check_metrics;
  std::uint64_t check_digest = 0;
  double check_peak_heap_mb = 0.0;
  const std::uint64_t wire_before = WireBytes(*world);
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9);
  std::size_t rounds = 0;
  ResetPeakHeap();
  const HostTicks ticks_before = ReadHostTicks();
  const std::uint64_t window_start = NowNs();
  while (rounds < workload.check_round || NowNs() - window_start < budget_ns) {
    const auto round = static_cast<std::uint32_t>(rounds);
    OpenEpochIfNeeded(*world, span_log, round);
    const std::uint64_t allocs_before = AllocCount();
    const std::uint64_t cpu_before = ProcessCpuNs();
    const std::uint64_t start = NowNs();
    if (options.trace) {
      RunRoundStaged(*world, span_log, round);
    } else {
      RunRoundWhole(*world);
    }
    const std::uint64_t elapsed = NowNs() - start;
    round_cpu_ms.Add(NsToMs(ProcessCpuNs() - cpu_before));
    round_allocs += AllocCount() - allocs_before;
    round_ms.Add(NsToMs(elapsed));
    if (rounds < workload.check_round) check_rounds_ns += elapsed;
    if (options.trace) CountRound(*world, counts);
    ++rounds;
    if (rounds % workload.eval_every == 0) {
      Scoped span(span_log, "model.eval", round);
      const std::uint64_t eval_start = NowNs();
      const fedrec::MetricsResult metrics = Evaluate(*world);
      eval_ms.Add(NsToMs(NowNs() - eval_start));
      if (rounds == workload.check_round) {
        check_metrics = FormatMetrics(metrics);
        check_digest = ModelDigest(*world);
        check_peak_heap_mb = PeakHeapMb();
      }
    }
  }
  const double window_s = Since(window_start);
  const double steal_pct = StealPercent(ticks_before, ReadHostTicks());
  const std::uint64_t wire_bytes = WireBytes(*world) - wire_before;
  world.reset();

  // Reference: a fresh set-up replays the checked rounds through the other
  // driver (whole rounds when the window was staged, and vice versa).
  SetupTimes ref_times;
  std::unique_ptr<World> ref =
      BuildWorld(workload, options.seed, &pool, ref_times);
  setups.push_back(ref_times);
  report.Check(ModelDigest(*ref) == warm_digest,
               "reference set-up reached a different post-warm-up model");
  std::uint64_t ref_rounds_ns = 0;
  for (std::size_t r = 0; r < workload.check_round; ++r) {
    OpenEpochIfNeeded(*ref, nullptr, 0);
    const std::uint64_t start = NowNs();
    if (options.trace) {
      RunRoundWhole(*ref);
    } else {
      RunRoundStaged(*ref, nullptr, static_cast<std::uint32_t>(r));
    }
    ref_rounds_ns += NowNs() - start;
  }
  const std::string ref_metrics = FormatMetrics(Evaluate(*ref));
  const std::uint64_t ref_digest = ModelDigest(*ref);
  ref.reset();

  std::printf("check round %zu: ER@5 ER@10 NDCG@10 HR@10 = %s, digest %s\n",
              workload.check_round, check_metrics.c_str(),
              HexDigest(check_digest).c_str());
  report.Check(ref_digest == check_digest,
               "staged and whole-round drivers disagree on the model after " +
                   std::to_string(workload.check_round) + " rounds (" +
                   HexDigest(check_digest) + " vs " + HexDigest(ref_digest) +
                   ")");
  report.Check(ref_metrics == check_metrics,
               "staged and whole-round drivers disagree on the metrics (" +
                   check_metrics + " vs " + ref_metrics + ")");
  if (options.seed == kDefaultSeed) {
    report.Check(check_metrics == workload.golden_metrics,
                 std::string("ER@5/ER@10/NDCG@10/HR@10 at the default seed: "
                             "got ") +
                     check_metrics + ", recorded " + workload.golden_metrics);
    report.Check(HexDigest(check_digest) == workload.golden_digest,
                 std::string("item-matrix digest at the default seed: got ") +
                     HexDigest(check_digest) + ", recorded " +
                     workload.golden_digest);
  }

  Samples setup_total;
  Samples generate;
  Samples split;
  Samples public_view;
  Samples attack_create;
  Samples evaluator_init;
  for (const SetupTimes& t : setups) {
    setup_total.Add(t.total_s);
    generate.Add(t.generate_s);
    split.Add(t.split_s);
    public_view.Add(t.public_view_s);
    attack_create.Add(t.attack_create_s);
    evaluator_init.Add(t.evaluator_init_s);
  }
  const std::size_t n_setups = setups.size();
  report.Set("setup_s", setup_total.Median(), n_setups);
  report.Set("round_cpu_ms", round_cpu_ms.Median(), rounds);
  report.Set("peak_heap_mb", check_peak_heap_mb, workload.check_round);
  report.WallClock("rounds_per_s", static_cast<double>(rounds) / window_s,
                   rounds);
  report.WallClock("round_p50_ms", round_ms.Median(), rounds);
  report.WallClock("round_p99_ms", round_ms.Percentile(99.0), rounds);
  report.Info("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Info("eval_s", eval_ms.Median() * 1e-3, "s", eval_ms.size());
  report.Info("host_steal_pct", steal_pct, "%", 1);
  report.CountOps(rounds, 0);

  if (options.trace) {
    const auto per_round = [&](double total) {
      return total / static_cast<double>(rounds);
    };
    const auto span_us = [&](const char* name) {
      return per_round(NsToUs(span_log->TotalNs(name)));
    };
    const double round_ns = static_cast<double>(span_log->TotalNs("round"));
    report.Set("data.generate_s", generate.Median(), n_setups);
    report.Set("data.split_s", split.Median(), n_setups);
    report.Set("data.public_view_s", public_view.Median(), n_setups);
    report.Set("attack.create_s", attack_create.Median(), n_setups);
    report.Set("attack.produce_us", span_us("attack.produce"), rounds);
    report.Set("attack.malicious_uploads", per_round(counts.malicious),
               rounds);
    report.Set("attack.round_share",
               static_cast<double>(span_log->TotalNs("attack.produce")) /
                   round_ns,
               rounds);
    report.Set("fed.select_us", span_us("fed.select"), rounds);
    report.Set("fed.local_train_us", span_us("fed.local_train"), rounds);
    report.Set("fed.benign_uploads", per_round(counts.benign), rounds);
    report.Set("fed.upload_rows",
               counts.benign > 0.0 ? counts.upload_rows / counts.benign : 0.0,
               static_cast<std::size_t>(counts.benign));
    report.Set("fed.aggregate_us", span_us("fed.aggregate"), rounds);
    report.Set("fed.delta_rows", per_round(counts.delta_rows), rounds);
    report.Set("model.apply_us", span_us("model.apply"), rounds);
    report.Set("model.eval_us", eval_ms.Median() * 1e3, eval_ms.size());
    report.Set("model.evaluator_init_s", evaluator_init.Median(), n_setups);
    report.Set("shard.route_us", span_us("shard.route"), rounds);
    report.Set("shard.aggregate_us", span_us("shard.aggregate"), rounds);
    report.Set("shard.slowest_aggregate_us",
               per_round(counts.slowest_aggregate_s) * 1e6, rounds);
    report.Set("shard.aggregate_imbalance",
               per_round(counts.aggregate_imbalance), rounds);
    report.Set("shard.merge_us", span_us("shard.merge"), rounds);
    report.Set("shard.wire_bytes",
               per_round(static_cast<double>(wire_bytes)), rounds);
    report.Set("process.allocs_per_round",
               per_round(static_cast<double>(round_allocs)), rounds);
    const double unattributed =
        static_cast<double>(span_log->SelfNs("round")) / round_ns;
    PrintReconciliation(unattributed);
    report.Set("process.unattributed_share", unattributed, rounds);
    report.Set("trace.overhead_share",
               static_cast<double>(check_rounds_ns) /
                       static_cast<double>(ref_rounds_ns) -
                   1.0,
               workload.check_round);
    report.Set("eval_s", eval_ms.Median() * 1e-3, eval_ms.size());
    std::printf("allocations per round by stage:");
    for (const char* stage :
         {"fed.select", "fed.local_train", "attack.produce", "fed.observe",
          "fed.transit_faults", "fed.aggregate", "shard.route",
          "shard.aggregate", "shard.merge", "model.apply"}) {
      std::printf(" %s=%.2f", stage,
                  per_round(static_cast<double>(span_log->Allocs(stage))));
    }
    std::printf("\n");
    report.Check(span_log->dropped() == 0, "span log overflowed");
    if (!options.trace_out.empty()) {
      report.Check(span_log->WriteChromeTrace(options.trace_out, ""),
                   "cannot write " + options.trace_out);
      std::printf("chrome trace: %s (%zu spans)\n", options.trace_out.c_str(),
                  span_log->spans().size());
    }
  }
  return report.Emit();
}

}  // namespace

int RunAttackMl100k(const Options& options) {
  return RunInProcess(kAttackMl100k, options);
}

int RunDefendedCatalogue(const Options& options) {
  return RunInProcess(kDefendedCatalogue, options);
}

}  // namespace perfbench
