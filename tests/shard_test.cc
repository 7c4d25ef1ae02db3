#include "shard/sharded_round_engine.h"

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attack_factory.h"
#include "common/fault.h"
#include "attack/target_select.h"
#include "data/public_view.h"
#include "data/synthetic.h"
#include "fed/simulation.h"
#include "shard/shard_plan.h"
#include "shard/server_step.h"
#include "shard/shard_server.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "support/alloc_counter.h"

namespace fedrec {
namespace {

std::vector<ClientUpdate> RandomUpdates(std::size_t num_clients,
                                        std::size_t num_items, std::size_t dim,
                                        std::size_t rows_per_client,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> updates;
  updates.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    ClientUpdate update;
    update.user = static_cast<std::uint32_t>(c);
    update.item_gradients = SparseRowMatrix(dim);
    for (std::size_t r = 0; r < rows_per_client; ++r) {
      auto row = update.item_gradients.RowMutable(rng.NextBounded(num_items));
      for (auto& v : row) v = static_cast<float>(rng.NextGaussian(0.0, 0.1));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlanTest, ContiguousRangesPartitionTheRowSpace) {
  for (const auto& [items, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {10, 1}, {10, 3}, {7, 3}, {100, 8}, {5, 8}}) {
    const ShardPlan plan(items, shards, ShardPolicy::kContiguousRange);
    EXPECT_EQ(plan.RangeBegin(0), 0u);
    EXPECT_EQ(plan.RangeEnd(shards - 1), items);
    for (std::size_t s = 0; s + 1 < shards; ++s) {
      EXPECT_EQ(plan.RangeEnd(s), plan.RangeBegin(s + 1));
    }
    for (std::size_t row = 0; row < items; ++row) {
      const std::size_t s = plan.ShardOf(row);
      ASSERT_LT(s, shards);
      EXPECT_GE(row, plan.RangeBegin(s)) << "items=" << items << " row=" << row;
      EXPECT_LT(row, plan.RangeEnd(s)) << "items=" << items << " row=" << row;
    }
  }
}

TEST(ShardPlanTest, HashedIsInRangeDeterministicAndSpread) {
  const ShardPlan plan(1000, 4, ShardPolicy::kHashed);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t row = 0; row < 1000; ++row) {
    const std::size_t s = plan.ShardOf(row);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(plan.ShardOf(row), s);  // stable
    ++counts[s];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    // A uniform mixer should land far from degenerate on 1000 rows.
    EXPECT_GT(counts[s], 150u);
    EXPECT_LT(counts[s], 350u);
  }
}

TEST(ShardPlanTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(ShardPolicyToString(ShardPolicy::kContiguousRange),
               "contiguous-range");
  EXPECT_STREQ(ShardPolicyToString(ShardPolicy::kHashed), "hashed");
}

// --- ShardServer bit-identity ----------------------------------------------

/// Runs one full sharded round (route -> aggregate -> wire -> merge) and
/// returns the merged delta.
SparseRoundDelta ShardedAggregate(const ShardPlan& plan,
                                  const std::vector<ClientUpdate>& updates,
                                  std::size_t dim,
                                  const AggregatorOptions& options,
                                  ThreadPool* pool) {
  ShardServer server(plan, dim);
  server.RouteRound(updates, pool);
  // Krum's winner is broadcast as its round sequence number (= index).
  std::uint64_t krum_source = 0;
  if (options.kind == AggregatorKind::kKrum && !updates.empty()) {
    KrumScratch scratch;
    krum_source = KrumSelect(updates, 0, dim, options.krum_honest, scratch);
  }
  Status status =
      server.AggregateRound(options, updates.size(), krum_source, pool);
  EXPECT_TRUE(status.ok()) << status.ToString();
  SparseRoundDelta merged;
  status = server.MergeRoundDelta(merged);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return merged;
}

TEST(ShardServerTest, BitIdenticalToSingleServerForAllRulesAndShardCounts) {
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  const auto updates = RandomUpdates(17, num_items, dim, 12, 1);
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 12;

    AggregationWorkspace workspace;
    SparseRoundDelta reference;
    AggregateUpdates(updates, dim, options, workspace, reference);

    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
      for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        const ShardPlan plan(num_items, shards, policy);
        const SparseRoundDelta merged =
            ShardedAggregate(plan, updates, dim, options, nullptr);
        ASSERT_EQ(merged.row_count(), reference.row_count())
            << AggregatorKindToString(kind) << " policy="
            << ShardPolicyToString(policy) << " shards=" << shards;
        EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items))
            << AggregatorKindToString(kind) << " policy="
            << ShardPolicyToString(policy) << " shards=" << shards;
        for (std::size_t slot = 0; slot < merged.row_count(); ++slot) {
          EXPECT_EQ(merged.rows()[slot], reference.rows()[slot]);
        }
      }
    }
  }
}

TEST(ShardServerTest, PoolParallelShardsStayBitIdentical) {
  const std::size_t num_items = 60;
  const std::size_t dim = 6;
  const auto updates = RandomUpdates(13, num_items, dim, 10, 2);
  ThreadPool pool(4);
  for (const AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kMedian, AggregatorKind::kKrum}) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 9;
    AggregationWorkspace workspace;
    SparseRoundDelta reference;
    AggregateUpdates(updates, dim, options, workspace, reference);
    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
      const ShardPlan plan(num_items, 4, policy);
      const SparseRoundDelta merged =
          ShardedAggregate(plan, updates, dim, options, &pool);
      EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items))
          << AggregatorKindToString(kind) << " policy="
          << ShardPolicyToString(policy);
    }
  }
}

TEST(ShardServerTest, KrumStaysBitIdenticalWhenClientIdsCollide) {
  // A sybil can impersonate a benign client's id; the winner broadcast uses
  // round-unique sequence numbers, so the shards must still emit exactly the
  // Krum-selected upload.
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  auto updates = RandomUpdates(9, num_items, dim, 8, 6);
  for (ClientUpdate& update : updates) update.user = 3;  // all ids collide
  AggregatorOptions options;
  options.kind = AggregatorKind::kKrum;
  options.krum_honest = 6;
  AggregationWorkspace workspace;
  SparseRoundDelta reference;
  AggregateUpdates(updates, dim, options, workspace, reference);
  const ShardPlan plan(num_items, 4, ShardPolicy::kHashed);
  const SparseRoundDelta merged =
      ShardedAggregate(plan, updates, dim, options, nullptr);
  EXPECT_TRUE(merged.ToDense(num_items) == reference.ToDense(num_items));
}

TEST(ShardServerTest, EmptyRoundYieldsEmptyMergedDelta) {
  const ShardPlan plan(20, 4, ShardPolicy::kContiguousRange);
  const SparseRoundDelta merged =
      ShardedAggregate(plan, {}, 3, AggregatorOptions{}, nullptr);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.cols(), 3u);
}

TEST(ShardServerTest, ShardDeltasCoverOnlyOwnedRows) {
  const std::size_t num_items = 50;
  const std::size_t dim = 4;
  const auto updates = RandomUpdates(9, num_items, dim, 8, 3);
  const ShardPlan plan(num_items, 4, ShardPolicy::kHashed);
  ShardServer server(plan, dim);
  server.RouteRound(updates, nullptr);
  server.AggregateRound(AggregatorOptions{}, updates.size(), 0, nullptr)
      .CheckOK();
  std::set<std::size_t> seen;
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t row : server.shard_delta(s).rows()) {
      EXPECT_EQ(plan.ShardOf(row), s);
      EXPECT_TRUE(seen.insert(row).second) << "row on two shards";
    }
  }
}

TEST(ShardServerTest, WireStatsAccumulate) {
  const auto updates = RandomUpdates(6, 30, 4, 5, 4);
  const ShardPlan plan(30, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, 4);
  server.RouteRound(updates, nullptr);
  server.AggregateRound(AggregatorOptions{}, updates.size(), 0, nullptr)
      .CheckOK();
  SparseRoundDelta merged;
  server.MergeRoundDelta(merged).CheckOK();
  EXPECT_EQ(server.stats().rounds, 1u);
  EXPECT_GT(server.stats().upload_messages, 0u);
  EXPECT_GT(server.stats().upload_bytes, 0u);
  EXPECT_GT(server.stats().delta_bytes, 0u);
}

TEST(ShardServerTest, MisroutedRowFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, 3);
  // Row 30 belongs to shard 1; deliver it to shard 0's inbox.
  SparseRowMatrix upload(3);
  upload.RowMutable(30)[0] = 1.0f;
  EncodeUpload(upload, 1, server.inbox(0));
  const Status status =
      server.AggregateRound(AggregatorOptions{}, 1, 0, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ShardServerTest, CorruptInboxFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, 3);
  server.inbox(1).WriteBytes("not a wire message", 18);
  const Status status =
      server.AggregateRound(AggregatorOptions{}, 0, 0, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ShardServerTest, DimensionMismatchFailsLoudly) {
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, /*dim=*/3);
  SparseRowMatrix upload(5);  // wrong dim
  upload.RowMutable(2)[0] = 1.0f;
  EncodeUpload(upload, 1, server.inbox(0));
  const Status status =
      server.AggregateRound(AggregatorOptions{}, 1, 0, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

// --- Direct path vs staged wire path -----------------------------------------

/// Same column count, same rows, same value bits.
void ExpectSameBytes(const SparseRoundDelta& actual,
                     const SparseRoundDelta& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.cols(), expected.cols()) << label;
  ASSERT_EQ(actual.rows(), expected.rows()) << label;
  for (std::size_t slot = 0; slot < actual.row_count(); ++slot) {
    EXPECT_EQ(std::memcmp(actual.RowAtSlot(slot).data(),
                          expected.RowAtSlot(slot).data(),
                          actual.cols() * sizeof(float)),
              0)
        << label << " row " << actual.rows()[slot];
  }
}

std::string CaseLabel(AggregatorKind kind, const ShardPlan& plan,
                      const ThreadPool* pool) {
  return std::string(AggregatorKindToString(kind)) + " policy=" +
         ShardPolicyToString(plan.policy()) +
         " shards=" + std::to_string(plan.num_shards()) +
         (pool != nullptr ? " pool=4" : " pool=null");
}

/// One round through the unarmed in-process ServerStep (the direct path);
/// returns its merged delta. The round must move no wire byte.
SparseRoundDelta DirectStepDelta(const ShardPlan& plan,
                                 const std::vector<ClientUpdate>& updates,
                                 std::size_t dim,
                                 const AggregatorOptions& options,
                                 ThreadPool* pool) {
  MfHyperParams params;
  params.dim = dim;
  Rng init(5);
  MfModel model(plan.num_items(), params, init);
  InProcessShardTransport transport(plan, dim);
  ServerStep step(&model, &transport, pool);
  step.Run(updates, options, 0.05f, ShardRetryPolicy{}, /*round=*/0);
  EXPECT_EQ(transport.server().stats().upload_bytes, 0u);
  EXPECT_EQ(transport.server().stats().delta_bytes, 0u);
  return step.merged_delta();
}

constexpr AggregatorKind kAllRules[] = {
    AggregatorKind::kSum, AggregatorKind::kTrimmedMean,
    AggregatorKind::kMedian, AggregatorKind::kNormBound,
    AggregatorKind::kKrum};

TEST(ServerStepTest, DirectPathMatchesTheStagedWireByteForByte) {
  const std::size_t num_items = 40;
  const std::size_t dim = 5;
  const auto updates = RandomUpdates(17, num_items, dim, 12, 1);
  ThreadPool pool(4);
  for (const AggregatorKind kind : kAllRules) {
    AggregatorOptions options;
    options.kind = kind;
    options.krum_honest = 12;
    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
      for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        const ShardPlan plan(num_items, shards, policy);
        for (ThreadPool* step_pool : {static_cast<ThreadPool*>(nullptr),
                                      &pool}) {
          ExpectSameBytes(
              DirectStepDelta(plan, updates, dim, options, step_pool),
              ShardedAggregate(plan, updates, dim, options, step_pool),
              CaseLabel(kind, plan, step_pool));
        }
      }
    }
  }
}

TEST(ServerStepTest, DirectPathMatchesTheStagedWireOnEdgeRounds) {
  const std::size_t dim = 5;
  ThreadPool pool(4);
  // Krum when every client id collides: the winner is named by its round
  // sequence number on both paths.
  auto colliding = RandomUpdates(9, 40, dim, 8, 6);
  for (ClientUpdate& update : colliding) update.user = 3;
  // Shards that own no uploaded row: every upload stays inside [0, 10), so
  // shards 1..3 of a 4-way contiguous plan over 40 items get nothing; a
  // 5-item catalogue over 8 shards leaves some shards with no rows at all.
  const auto low_rows = RandomUpdates(7, 10, dim, 6, 7);
  const auto tiny = RandomUpdates(6, 5, dim, 3, 8);
  struct Case {
    ShardPlan plan;
    const std::vector<ClientUpdate>* updates;
  };
  const std::vector<ClientUpdate> empty;
  const Case cases[] = {
      {ShardPlan(40, 4, ShardPolicy::kHashed), &colliding},
      {ShardPlan(40, 4, ShardPolicy::kContiguousRange), &low_rows},
      {ShardPlan(5, 8, ShardPolicy::kContiguousRange), &tiny},
      {ShardPlan(5, 8, ShardPolicy::kHashed), &tiny},
      {ShardPlan(20, 4, ShardPolicy::kContiguousRange), &empty},
  };
  for (const Case& c : cases) {
    for (const AggregatorKind kind : kAllRules) {
      AggregatorOptions options;
      options.kind = kind;
      options.krum_honest = 5;
      for (ThreadPool* step_pool : {static_cast<ThreadPool*>(nullptr),
                                    &pool}) {
        const std::string label = CaseLabel(kind, c.plan, step_pool) +
                                  " uploads=" +
                                  std::to_string(c.updates->size());
        const SparseRoundDelta direct =
            DirectStepDelta(c.plan, *c.updates, dim, options, step_pool);
        ExpectSameBytes(direct,
                        ShardedAggregate(c.plan, *c.updates, dim, options,
                                         step_pool),
                        label);
        if (c.updates->empty()) {
          EXPECT_TRUE(direct.empty()) << label;
        }
      }
    }
  }
}

TEST(ServerStepTest, UnarmedInProcessRunsAreAllocationFree) {
  // Real operator new calls over warmed ServerStep::Run calls, pool null.
  const std::size_t num_items = 200;
  const std::size_t dim = 8;
  std::vector<std::vector<ClientUpdate>> rounds;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    rounds.push_back(RandomUpdates(16, num_items, dim, 20, 100 + seed));
  }
  for (const ShardPolicy policy :
       {ShardPolicy::kContiguousRange, ShardPolicy::kHashed}) {
    for (const AggregatorKind kind : kAllRules) {
      AggregatorOptions options;
      options.kind = kind;
      options.krum_honest = 12;
      const ShardPlan plan(num_items, 4, policy);
      MfHyperParams params;
      params.dim = dim;
      Rng init(9);
      MfModel model(num_items, params, init);
      InProcessShardTransport transport(plan, dim);
      ServerStep step(&model, &transport, nullptr);
      std::uint64_t round = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& updates : rounds) {
          step.Run(updates, options, 0.01f, ShardRetryPolicy{}, round++);
        }
      }
      const std::uint64_t before = test_support::OperatorNewCount();
      for (int pass = 0; pass < 3; ++pass) {
        for (const auto& updates : rounds) {
          step.Run(updates, options, 0.01f, ShardRetryPolicy{}, round++);
        }
      }
      EXPECT_EQ(test_support::OperatorNewCount() - before, 0u)
          << AggregatorKindToString(kind) << " "
          << ShardPolicyToString(policy);
    }
  }
}

// --- ShardedRoundEngine end to end -----------------------------------------

Dataset EngineData() {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 90;
  config.mean_interactions_per_user = 12.0;
  config.seed = 1;
  return GenerateSynthetic(config);
}

FedConfig EngineConfig() {
  FedConfig config;
  config.model.dim = 8;
  config.model.learning_rate = 0.05f;
  config.clients_per_round = 16;
  config.epochs = 3;
  config.seed = 2;
  return config;
}

/// Drives `epochs` epochs through the sharded path; returns per-epoch losses.
std::vector<double> RunSharded(Simulation& sim, const FedConfig& config,
                               const ShardPlan& plan, ThreadPool* pool,
                               std::size_t epochs) {
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, plan, pool);
  std::vector<double> losses;
  for (std::size_t e = 0; e < epochs; ++e) {
    sharded.BeginEpoch(e);
    double loss = 0.0;
    while (sharded.HasNextRound()) loss += sharded.RunRound();
    losses.push_back(loss);
  }
  return losses;
}

TEST(ShardedRoundEngineTest, BitIdenticalToSingleServerEngine) {
  const Dataset data = EngineData();
  const FedConfig config = EngineConfig();
  for (const std::size_t shards : {1u, 3u, 8u}) {
    Simulation reference(data, config, 0, nullptr, nullptr);
    Simulation sharded_sim(data, config, 0, nullptr, nullptr);
    const ShardPlan plan(data.num_items(), shards, ShardPolicy::kHashed);
    const std::vector<double> sharded_losses =
        RunSharded(sharded_sim, config, plan, nullptr, 3);
    for (std::size_t e = 0; e < 3; ++e) {
      EXPECT_DOUBLE_EQ(reference.RunEpoch(), sharded_losses[e])
          << "shards=" << shards;
    }
    EXPECT_TRUE(reference.model().item_factors() ==
                sharded_sim.model().item_factors())
        << "shards=" << shards;
  }
}

TEST(ShardedRoundEngineTest, RobustRulesStayBitIdenticalSharded) {
  const Dataset data = EngineData();
  for (const AggregatorKind kind :
       {AggregatorKind::kMedian, AggregatorKind::kNormBound,
        AggregatorKind::kKrum}) {
    FedConfig config = EngineConfig();
    config.epochs = 2;
    config.aggregator.kind = kind;
    Simulation reference(data, config, 0, nullptr, nullptr);
    Simulation sharded_sim(data, config, 0, nullptr, nullptr);
    const ShardPlan plan(data.num_items(), 4, ShardPolicy::kContiguousRange);
    const std::vector<double> sharded_losses =
        RunSharded(sharded_sim, config, plan, nullptr, 2);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_DOUBLE_EQ(reference.RunEpoch(), sharded_losses[e])
          << AggregatorKindToString(kind);
    }
    EXPECT_TRUE(reference.model().item_factors() ==
                sharded_sim.model().item_factors())
        << AggregatorKindToString(kind);
  }
}

TEST(ShardedRoundEngineTest, AttackFactoryUploadsFlowThroughRoutedPath) {
  // Poisoned uploads must ride the same wire path as benign ones and leave
  // the trajectory bit-identical to the single-server engine under attack.
  const Dataset data = EngineData();
  Rng rng(11);
  const PublicInteractions view =
      PublicInteractions::Sample(data, 0.05, rng, PublicSamplingMode::kCeil);
  Rng target_rng(12);
  const auto targets =
      SelectTargetItems(data, 1, TargetSelection::kUnpopular, target_rng);

  FedConfig config = EngineConfig();
  config.epochs = 2;
  const std::size_t num_malicious = 6;

  AttackOptions attack_options;
  attack_options.kind = "fedrecattack";
  attack_options.target_items = targets;
  attack_options.kappa = 20;
  attack_options.clip_norm = config.clip_norm;
  AttackInputs inputs;
  inputs.train = &data;
  inputs.public_view = &view;
  inputs.num_benign_users = data.num_users();
  inputs.dim = config.model.dim;

  auto reference_attack = CreateAttack(attack_options, inputs);
  reference_attack.status().CheckOK();
  auto sharded_attack = CreateAttack(attack_options, inputs);
  sharded_attack.status().CheckOK();

  Simulation reference(data, config, num_malicious,
                       reference_attack.value().get(), nullptr);
  Simulation sharded_sim(data, config, num_malicious,
                         sharded_attack.value().get(), nullptr);
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);

  std::size_t malicious_uploads_observed = 0;
  ShardedRoundEngine sharded(&sharded_sim.engine(), &sharded_sim.model(),
                             &config, plan, nullptr);
  for (std::size_t e = 0; e < 2; ++e) {
    sharded.BeginEpoch(e);
    double loss = 0.0;
    while (sharded.HasNextRound()) {
      loss += sharded.RunRound([&](const std::vector<ClientUpdate>&,
                                   const std::vector<bool>& is_malicious) {
        for (bool flag : is_malicious) {
          if (flag) ++malicious_uploads_observed;
        }
      });
    }
    EXPECT_DOUBLE_EQ(reference.RunEpoch(), loss);
  }
  EXPECT_GT(malicious_uploads_observed, 0u);
  EXPECT_TRUE(reference.model().item_factors() ==
              sharded_sim.model().item_factors());
}

TEST(ShardedRoundEngineTest, UnarmedRoundsWriteNoWireBytes) {
  const Dataset data = EngineData();
  const FedConfig config = EngineConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);
  ShardedRoundEngine sharded(&sim.engine(), &sim.model(), &config, plan,
                             nullptr);
  // One staged wire round first, so the counters are shown to be live.
  const auto updates = RandomUpdates(6, data.num_items(), config.model.dim,
                                     5, 4);
  sharded.server().RouteRound(updates, nullptr);
  sharded.server()
      .AggregateRound(config.aggregator, updates.size(), 0, nullptr)
      .CheckOK();
  const ShardServerStats before = sharded.server().stats();
  ASSERT_GT(before.upload_bytes, 0u);
  ASSERT_GT(before.delta_bytes, 0u);
  sharded.BeginEpoch(0);
  std::size_t rounds = 0;
  while (sharded.HasNextRound()) {
    sharded.RunRound();
    ++rounds;
  }
  ASSERT_GT(rounds, 0u);
  EXPECT_EQ(sharded.server().stats().rounds, before.rounds);
  EXPECT_EQ(sharded.server().stats().upload_bytes, before.upload_bytes);
  EXPECT_EQ(sharded.server().stats().delta_bytes, before.delta_bytes);
  EXPECT_FALSE(sharded.merged_delta().empty());
}

TEST(ShardedRoundEngineTest, SteadyStateRoundsAreAllocationFreeOnTheWirePath) {
  SyntheticConfig data_config;
  data_config.num_users = 60;
  data_config.num_items = 90;
  data_config.mean_interactions_per_user = 12.0;
  data_config.activity_sigma = 0.05;
  data_config.seed = 1;
  const Dataset data = GenerateSynthetic(data_config);
  FedConfig config = EngineConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  config.rounds_per_epoch = 8;
  Simulation sim(data, config, 0, nullptr, nullptr);
  const ShardPlan plan(data.num_items(), 4, ShardPolicy::kHashed);
  // An unarmed ShardedRoundEngine takes the direct path, so whole rounds
  // are driven here as the engine's client half plus the staged wire calls
  // (route -> aggregate -> merge -> apply).
  ShardServer server(plan, config.model.dim);
  SparseRoundDelta merged;
  RoundEngine& engine = sim.engine();
  const auto run_epoch = [&](std::size_t epoch) {
    engine.BeginEpoch(epoch);
    while (engine.HasNextRound()) {
      if (engine.RunClientHalf({}).skipped) continue;
      const std::span<const ClientUpdate> updates = engine.live_updates();
      server.RouteRound(updates, nullptr);
      server
          .AggregateRound(config.aggregator, updates.size(),
                          /*krum_source=*/0, nullptr)
          .CheckOK();
      server.MergeRoundDelta(merged).CheckOK();
      sim.model().ApplySparseGradient(merged, config.model.learning_rate);
      engine.FinishRound();
    }
  };
  // Warm every buffer's high-water mark. The sharded path needs more warm
  // rounds than the single-server engine: a routed slot's capacity watermark
  // depends on which client's rows hashed to which shard, so the per-shard
  // maxima are only reached once enough distinct selections have occurred.
  std::size_t epoch = 0;
  for (; epoch < 20; ++epoch) run_epoch(epoch);
  const std::uint64_t rounds_before = server.stats().rounds;
  ResetSparseAllocationCount();
  for (; epoch < 23; ++epoch) run_epoch(epoch);
  EXPECT_EQ(SparseAllocationCount(), 0u);
  EXPECT_GT(server.stats().rounds, rounds_before);
}

TEST(ShardServerTest, DuplicateDeliveryFailsLoudly) {
  // Whole-inbox duplication (the kDuplicate wire fault) re-delivers every
  // message with an already-seen source id. Each copy's own CRC still
  // validates, so the strictly-ascending source check is what rejects the
  // replay (the message-count check would catch it too).
  const std::size_t dim = 4;
  const auto updates = RandomUpdates(5, 40, dim, 8, 3);
  const ShardPlan plan(40, 2, ShardPolicy::kContiguousRange);
  ShardServer server(plan, dim);
  server.RouteRound(updates, nullptr);
  WireFault duplicate;
  duplicate.kind = WireFaultKind::kDuplicate;
  EXPECT_TRUE(ApplyWireFault(duplicate, server.inbox(0).mutable_buffer()));
  AggregatorOptions options;
  const Status status =
      server.AggregateRound(options, updates.size(), /*krum_source=*/0,
                            /*pool=*/nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace fedrec
