#include "common/fault.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "obs/metrics.h"
#include "shard/shard_plan.h"
#include "shard/sharded_round_engine.h"

namespace fedrec {
namespace {

Dataset SmallData() {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.mean_interactions_per_user = 12.0;
  config.seed = 1;
  return GenerateSynthetic(config);
}

FedConfig SmallConfig() {
  FedConfig config;
  config.model.dim = 8;
  config.model.learning_rate = 0.05f;
  config.clients_per_round = 16;
  config.epochs = 3;
  config.seed = 2;
  return config;
}

bool SameStats(const FaultStats& a, const FaultStats& b) {
  return a.dropped_uploads == b.dropped_uploads &&
         a.straggler_uploads == b.straggler_uploads &&
         a.corrupt_messages == b.corrupt_messages &&
         a.shard_outages == b.shard_outages &&
         a.shard_retries == b.shard_retries &&
         a.fallback_shards == b.fallback_shards &&
         a.skipped_rounds == b.skipped_rounds &&
         a.virtual_ticks == b.virtual_ticks;
}

// --- FaultPlan draws --------------------------------------------------------

TEST(FaultPlanTest, DefaultAndZeroRatePlansAreInert) {
  const FaultPlan none;
  EXPECT_FALSE(none.enabled());
  const FaultPlan zero(FaultSpec{}, /*run_seed=*/7);
  EXPECT_FALSE(zero.enabled());
  RoundFaultDraw draw;
  zero.DrawRound(3, 50, draw);
  EXPECT_EQ(draw.dropped, 0u);
  EXPECT_EQ(draw.stragglers, 0u);
  for (const UploadFault& fault : draw.uploads) {
    EXPECT_FALSE(fault.dropped);
    EXPECT_EQ(fault.delay_ticks, 0u);
  }
  EXPECT_FALSE(zero.ShardOutage(1, 2, 0));
  EXPECT_EQ(zero.UploadWireFault(1, 2, 0).kind, WireFaultKind::kNone);
}

TEST(FaultPlanTest, DrawsArePureFunctionsOfTheirKey) {
  FaultSpec spec;
  spec.dropout_rate = 0.3;
  spec.straggler_rate = 0.3;
  spec.upload_corrupt_rate = 0.4;
  spec.shard_outage_rate = 0.4;
  spec.fault_seed = 11;
  const FaultPlan a(spec, /*run_seed=*/5);
  const FaultPlan b(spec, /*run_seed=*/5);

  RoundFaultDraw draw_a;
  RoundFaultDraw draw_b;
  // Query b out of order first: keyed draws must not depend on call history.
  b.DrawRound(9, 20, draw_b);
  for (std::uint64_t round = 0; round < 10; ++round) {
    a.DrawRound(round, 20, draw_a);
    b.DrawRound(round, 20, draw_b);
    ASSERT_EQ(draw_a.uploads.size(), draw_b.uploads.size());
    for (std::size_t i = 0; i < draw_a.uploads.size(); ++i) {
      EXPECT_EQ(draw_a.uploads[i].dropped, draw_b.uploads[i].dropped);
      EXPECT_EQ(draw_a.uploads[i].delay_ticks, draw_b.uploads[i].delay_ticks);
    }
    for (std::uint64_t shard = 0; shard < 4; ++shard) {
      for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(a.ShardOutage(round, shard, attempt),
                  b.ShardOutage(round, shard, attempt));
        const WireFault fa = a.UploadWireFault(round, shard, attempt);
        const WireFault fb = b.UploadWireFault(round, shard, attempt);
        EXPECT_EQ(fa.kind, fb.kind);
        EXPECT_EQ(fa.offset_draw, fb.offset_draw);
        EXPECT_EQ(fa.bit, fb.bit);
      }
    }
  }
}

TEST(FaultPlanTest, DifferentSeedsGiveDifferentSchedules) {
  FaultSpec spec;
  spec.dropout_rate = 0.5;
  spec.fault_seed = 1;
  FaultSpec other = spec;
  other.fault_seed = 2;
  const FaultPlan a(spec, 5);
  const FaultPlan b(other, 5);
  RoundFaultDraw draw_a;
  RoundFaultDraw draw_b;
  bool any_difference = false;
  for (std::uint64_t round = 0; round < 20 && !any_difference; ++round) {
    a.DrawRound(round, 32, draw_a);
    b.DrawRound(round, 32, draw_b);
    for (std::size_t i = 0; i < 32; ++i) {
      if (draw_a.uploads[i].dropped != draw_b.uploads[i].dropped) {
        any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, AttemptsAreIndependentDrawsSoTransientFaultsClear) {
  FaultSpec spec;
  spec.shard_outage_rate = 0.5;
  spec.fault_seed = 3;
  const FaultPlan plan(spec, 9);
  bool cleared_on_retry = false;
  std::size_t outages = 0;
  const std::size_t trials = 400;
  for (std::uint64_t round = 0; round < trials; ++round) {
    const bool first = plan.ShardOutage(round, 0, 0);
    outages += first ? 1u : 0u;
    if (first && !plan.ShardOutage(round, 0, 1)) cleared_on_retry = true;
  }
  EXPECT_TRUE(cleared_on_retry);
  // Rate sanity: 0.5 +- a generous band over 400 Bernoulli draws.
  EXPECT_GT(outages, trials / 4);
  EXPECT_LT(outages, 3 * trials / 4);
}

TEST(FaultPlanTest, StragglerDelaysStayWithinConfiguredBound) {
  FaultSpec spec;
  spec.straggler_rate = 1.0;
  spec.straggler_max_ticks = 6;
  spec.fault_seed = 4;
  const FaultPlan plan(spec, 1);
  RoundFaultDraw draw;
  plan.DrawRound(0, 64, draw);
  for (const UploadFault& fault : draw.uploads) {
    EXPECT_GE(fault.delay_ticks, 1u);
    EXPECT_LE(fault.delay_ticks, 6u);
  }
}

// --- ApplyWireFault ---------------------------------------------------------

TEST(ApplyWireFaultTest, BitFlipChangesExactlyOneBit) {
  std::string buffer = "federated";
  const std::string original = buffer;
  WireFault fault;
  fault.kind = WireFaultKind::kBitFlip;
  fault.offset_draw = 13;  // applied modulo size
  fault.bit = 10;          // applied modulo 8
  EXPECT_TRUE(ApplyWireFault(fault, buffer));
  ASSERT_EQ(buffer.size(), original.size());
  int differing_bits = 0;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    unsigned delta = static_cast<unsigned char>(buffer[i]) ^
                     static_cast<unsigned char>(original[i]);
    while (delta != 0) {
      differing_bits += delta & 1u;
      delta >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
}

TEST(ApplyWireFaultTest, TruncateCutsAtOffsetModuloSize) {
  std::string buffer(32, 'x');
  WireFault fault;
  fault.kind = WireFaultKind::kTruncate;
  fault.offset_draw = 37;  // 37 % 32 = 5
  EXPECT_TRUE(ApplyWireFault(fault, buffer));
  EXPECT_EQ(buffer.size(), 5u);
}

TEST(ApplyWireFaultTest, DuplicateAppendsAnExactCopy) {
  std::string buffer = "abc";
  WireFault fault;
  fault.kind = WireFaultKind::kDuplicate;
  EXPECT_TRUE(ApplyWireFault(fault, buffer));
  EXPECT_EQ(buffer, "abcabc");
}

TEST(ApplyWireFaultTest, NoneAndEmptyBuffersAreNoOps) {
  std::string buffer = "abc";
  EXPECT_FALSE(ApplyWireFault(WireFault{}, buffer));
  EXPECT_EQ(buffer, "abc");
  std::string empty;
  WireFault flip;
  flip.kind = WireFaultKind::kBitFlip;
  EXPECT_FALSE(ApplyWireFault(flip, empty));
  EXPECT_TRUE(empty.empty());
}

TEST(ApplyWireFaultTest, KindNamesAreStable) {
  EXPECT_STREQ(WireFaultKindToString(WireFaultKind::kNone), "none");
  EXPECT_STREQ(WireFaultKindToString(WireFaultKind::kBitFlip), "bit-flip");
  EXPECT_STREQ(WireFaultKindToString(WireFaultKind::kTruncate), "truncate");
  EXPECT_STREQ(WireFaultKindToString(WireFaultKind::kDuplicate), "duplicate");
}

// --- Engine integration: transit faults and quorum --------------------------

TEST(RoundEngineFaultTest, InertPlanIsBitIdenticalToNoPlan) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();  // zero-rate faults
  Simulation with_plan(data, config, 0, nullptr, nullptr);
  Simulation without_plan(data, config, 0, nullptr, nullptr);
  without_plan.engine().SetFaultPlan(nullptr);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    EXPECT_DOUBLE_EQ(with_plan.RunEpoch(), without_plan.RunEpoch());
  }
  EXPECT_TRUE(with_plan.model().item_factors() ==
              without_plan.model().item_factors());
  EXPECT_EQ(with_plan.engine().fault_stats().dropped_uploads, 0u);
  EXPECT_EQ(with_plan.engine().fault_stats().virtual_ticks, 0u);
}

TEST(RoundEngineFaultTest, SameSeedsReproduceTheSameFailureHistory) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.25;
  config.faults.straggler_rate = 0.2;
  config.faults.fault_seed = 17;

  ThreadPool pool(4);
  Simulation serial(data, config, 0, nullptr, nullptr);
  Simulation pooled(data, config, 0, nullptr, &pool);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    EXPECT_DOUBLE_EQ(serial.RunEpoch(), pooled.RunEpoch());
  }
  EXPECT_TRUE(serial.model().item_factors() == pooled.model().item_factors());
  const FaultStats& a = serial.engine().fault_stats();
  const FaultStats& b = pooled.engine().fault_stats();
  EXPECT_TRUE(SameStats(a, b));
  EXPECT_GT(a.dropped_uploads + a.straggler_uploads, 0u);
  EXPECT_GT(a.virtual_ticks, 0u);  // collection deadlines elapsed
}

TEST(RoundEngineFaultTest, DroppedUploadsChangeTheTrajectory) {
  const Dataset data = SmallData();
  FedConfig faulty_config = SmallConfig();
  faulty_config.faults.dropout_rate = 0.5;
  faulty_config.faults.fault_seed = 3;
  Simulation faulty(data, faulty_config, 0, nullptr, nullptr);
  Simulation clean(data, SmallConfig(), 0, nullptr, nullptr);
  // The observer still sees every produced upload (omniscient hook): faults
  // are applied to the aggregation, not to the simulator's view.
  std::size_t observed = 0;
  faulty.SetRoundObserver([&observed](const std::vector<ClientUpdate>& updates,
                                      const std::vector<bool>&) {
    observed += updates.size();
  });
  (void)faulty.RunEpoch();
  (void)clean.RunEpoch();
  EXPECT_EQ(observed, data.num_users());
  EXPECT_GT(faulty.engine().fault_stats().dropped_uploads, 0u);
  EXPECT_FALSE(faulty.model().item_factors() == clean.model().item_factors());
}

TEST(RoundEngineFaultTest, BelowQuorumRoundsAreSkippedNotAggregated) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 1.0;  // every upload lost, every round
  config.faults.fault_seed = 5;
  Simulation sim(data, config, 0, nullptr, nullptr);
  const Matrix initial = sim.model().item_factors();
  (void)sim.RunEpoch();
  const FaultStats& stats = sim.engine().fault_stats();
  EXPECT_EQ(stats.skipped_rounds, sim.global_round());
  EXPECT_GT(stats.skipped_rounds, 0u);
  // Nothing survived, nothing aggregated: the shared model never moved.
  EXPECT_TRUE(sim.model().item_factors() == initial);
}

TEST(RoundEngineFaultTest, ZeroQuorumAggregatesEmptyRoundsCleanly) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 1.0;
  config.faults.fault_seed = 5;
  config.min_round_quorum = 0;  // aggregate even an all-dropped round
  Simulation sim(data, config, 0, nullptr, nullptr);
  const Matrix initial = sim.model().item_factors();
  (void)sim.RunEpoch();
  EXPECT_EQ(sim.engine().fault_stats().skipped_rounds, 0u);
  // An empty round aggregates to an empty delta: well-defined, no movement.
  EXPECT_TRUE(sim.model().item_factors() == initial);
}

TEST(RoundEngineFaultTest, EpochRecordsCarryPerEpochFaultDeltas) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.3;
  config.faults.fault_seed = 21;
  Simulation sim(data, config, 0, nullptr, nullptr);
  const std::vector<EpochRecord> records =
      sim.Run(/*evaluator=*/nullptr, /*target_items=*/{}, /*eval_every=*/0);
  ASSERT_EQ(records.size(), config.epochs);
  std::uint64_t dropped = 0;
  std::uint64_t skipped = 0;
  for (const EpochRecord& record : records) {
    dropped += record.dropped_uploads;
    skipped += record.skipped_rounds;
  }
  EXPECT_EQ(dropped, sim.engine().fault_stats().dropped_uploads);
  EXPECT_EQ(skipped, sim.engine().fault_stats().skipped_rounds);
  EXPECT_GT(dropped, 0u);
}

// --- Sharded degraded protocol ----------------------------------------------

/// Drives `epochs` epochs through the sharded path; returns per-epoch losses.
std::vector<double> RunShardedEpochs(Simulation& sim, const FedConfig& config,
                                     const ShardPlan& plan, ThreadPool* pool,
                                     FaultStats* out_wire_stats) {
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, plan, pool);
  std::vector<double> losses;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    sharded.BeginEpoch(e);
    double loss = 0.0;
    while (sharded.HasNextRound()) loss += sharded.RunRound();
    losses.push_back(loss);
  }
  if (out_wire_stats != nullptr) *out_wire_stats = sharded.wire_fault_stats();
  return losses;
}

TEST(ShardedFaultTest, RecoveredWireFaultsLeaveTheModelBitIdentical) {
  // Wire corruption and shard outages are repaired by retries (independent
  // per-attempt draws) or by the coordinator-local fallback, both of which
  // deliver the exact same shard delta — so the trajectory must match the
  // fault-free sharded run bit for bit even while faults fire constantly.
  const Dataset data = SmallData();
  FedConfig faulty_config = SmallConfig();
  faulty_config.faults.upload_corrupt_rate = 0.3;
  faulty_config.faults.delta_corrupt_rate = 0.3;
  faulty_config.faults.shard_outage_rate = 0.2;
  faulty_config.faults.fault_seed = 13;
  const FedConfig clean_config = SmallConfig();

  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kContiguousRange);
  Simulation faulty(data, faulty_config, 0, nullptr, nullptr);
  Simulation clean(data, clean_config, 0, nullptr, nullptr);
  FaultStats wire_stats;
  const std::vector<double> faulty_losses = RunShardedEpochs(
      faulty, faulty_config, plan, nullptr, &wire_stats);
  const std::vector<double> clean_losses =
      RunShardedEpochs(clean, clean_config, plan, nullptr, nullptr);
  ASSERT_EQ(faulty_losses.size(), clean_losses.size());
  for (std::size_t e = 0; e < faulty_losses.size(); ++e) {
    EXPECT_DOUBLE_EQ(faulty_losses[e], clean_losses[e]);
  }
  EXPECT_TRUE(faulty.model().item_factors() == clean.model().item_factors());
  EXPECT_GT(wire_stats.corrupt_messages + wire_stats.shard_outages, 0u);
  EXPECT_GT(wire_stats.shard_retries, 0u);
}

TEST(ShardedFaultTest, FailureCountersAreDeterministicForAnyPoolSize) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.epochs = 2;
  config.faults.upload_corrupt_rate = 0.4;
  config.faults.shard_outage_rate = 0.3;
  config.faults.fault_seed = 29;
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);

  ThreadPool pool(4);
  Simulation serial(data, config, 0, nullptr, nullptr);
  Simulation pooled(data, config, 0, nullptr, &pool);
  FaultStats serial_stats;
  FaultStats pooled_stats;
  const std::vector<double> serial_losses =
      RunShardedEpochs(serial, config, plan, nullptr, &serial_stats);
  const std::vector<double> pooled_losses =
      RunShardedEpochs(pooled, config, plan, &pool, &pooled_stats);
  for (std::size_t e = 0; e < serial_losses.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial_losses[e], pooled_losses[e]);
  }
  EXPECT_TRUE(serial.model().item_factors() == pooled.model().item_factors());
  EXPECT_TRUE(SameStats(serial_stats, pooled_stats));
  EXPECT_GT(serial_stats.corrupt_messages + serial_stats.shard_outages, 0u);
}

TEST(ShardedFaultTest, TotalOutageFallsBackToCoordinatorEveryRound) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.epochs = 1;
  config.faults.shard_outage_rate = 1.0;  // no shard ever answers
  config.faults.fault_seed = 31;
  const std::size_t num_shards = 3;
  const ShardPlan plan(data.num_items(), num_shards,
                       ShardPolicy::kContiguousRange);

  Simulation faulty(data, config, 0, nullptr, nullptr);
  Simulation clean(data, SmallConfig(), 0, nullptr, nullptr);
  FaultStats wire_stats;
  const std::vector<double> faulty_losses =
      RunShardedEpochs(faulty, config, plan, nullptr, &wire_stats);
  (void)clean.RunEpoch();
  EXPECT_EQ(wire_stats.fallback_shards, num_shards * faulty.global_round());
  EXPECT_EQ(wire_stats.shard_retries,
            config.max_shard_retries * num_shards * faulty.global_round());
  // The fallback aggregates each shard's own row range from the pristine
  // uploads, so even a total outage keeps the model on the exact
  // single-server trajectory.
  EXPECT_TRUE(faulty.model().item_factors() == clean.model().item_factors());
}

TEST(ShardedFaultTest, ZeroQuorumAllDroppedRoundRunsTheShardedPathCleanly) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.epochs = 1;
  config.min_round_quorum = 0;
  config.faults.dropout_rate = 1.0;
  config.faults.fault_seed = 5;
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kContiguousRange);
  Simulation sim(data, config, 0, nullptr, nullptr);
  const Matrix initial = sim.model().item_factors();
  const std::vector<double> losses =
      RunShardedEpochs(sim, config, plan, nullptr, nullptr);
  EXPECT_EQ(losses.size(), 1u);
  EXPECT_EQ(sim.engine().fault_stats().skipped_rounds, 0u);
  EXPECT_TRUE(sim.model().item_factors() == initial);
}

TEST(ShardedFaultTest, ShardedRoundsPublishTheEngineLedger) {
  // The sharded driver runs RoundEngine's client half and then its own
  // server half; the engine's transit-fault ledger must still reach the
  // scrape, published after the server half's backoff moved the clock.
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.epochs = 2;
  config.faults.dropout_rate = 0.3;
  config.faults.shard_outage_rate = 0.3;
  config.faults.fault_seed = 23;
  const ShardPlan plan(data.num_items(), 3, ShardPolicy::kContiguousRange);
  Simulation sim(data, config, 0, nullptr, nullptr);
  FaultStats wire_stats;
  (void)RunShardedEpochs(sim, config, plan, nullptr, &wire_stats);
  const FaultStats& ledger = sim.engine().fault_stats();
  ASSERT_GT(ledger.dropped_uploads, 0u);
  ASSERT_GT(wire_stats.shard_retries, 0u);

  const auto engine_gauge = [](const char* name) {
    return static_cast<std::uint64_t>(
        obs::Registry::Global().GetGauge(name, "scope=\"engine\"")->Value());
  };
  EXPECT_EQ(engine_gauge("fedrec_fault_dropped_uploads"),
            ledger.dropped_uploads);
  EXPECT_EQ(engine_gauge("fedrec_fault_straggler_uploads"),
            ledger.straggler_uploads);
  EXPECT_EQ(engine_gauge("fedrec_fault_corrupt_messages"),
            ledger.corrupt_messages);
  EXPECT_EQ(engine_gauge("fedrec_fault_shard_outages"), ledger.shard_outages);
  EXPECT_EQ(engine_gauge("fedrec_fault_shard_retries"), ledger.shard_retries);
  EXPECT_EQ(engine_gauge("fedrec_fault_fallback_shards"),
            ledger.fallback_shards);
  EXPECT_EQ(engine_gauge("fedrec_fault_skipped_rounds"),
            ledger.skipped_rounds);
  EXPECT_EQ(engine_gauge("fedrec_fault_virtual_ticks"), ledger.virtual_ticks);
}

}  // namespace
}  // namespace fedrec
