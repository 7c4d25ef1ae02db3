#include "shard/checkpoint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "data/synthetic.h"
#include "fed/simulation.h"

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
  config.epochs = 4;
  config.seed = 2;
  return config;
}

/// A deliberately tiny run, so the exhaustive corruption sweeps stay fast.
Dataset TinyData() {
  SyntheticConfig config;
  config.num_users = 6;
  config.num_items = 10;
  config.mean_interactions_per_user = 4.0;
  config.seed = 3;
  return GenerateSynthetic(config);
}

FedConfig TinyConfig() {
  FedConfig config;
  config.model.dim = 2;
  config.clients_per_round = 3;
  config.epochs = 2;
  config.seed = 4;
  return config;
}

std::string Encoded(const TrainingCheckpoint& checkpoint) {
  BinaryWriter writer;
  EncodeCheckpoint(checkpoint, writer);
  return writer.buffer();
}

bool SameRng(const RngSnapshot& a, const RngSnapshot& b) {
  for (int i = 0; i < 4; ++i) {
    if (a.state[i] != b.state[i]) return false;
  }
  return a.cached_gaussian == b.cached_gaussian &&
         a.has_cached_gaussian == b.has_cached_gaussian;
}

// --- Fingerprint ------------------------------------------------------------

TEST(CheckpointFingerprintTest, SensitiveToEveryTrajectoryShapingField) {
  const FedConfig base = SmallConfig();
  const std::uint64_t reference = CheckpointFingerprint(base, 90, 60, 0);

  FedConfig changed = base;
  changed.seed = 99;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.model.dim = 16;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.clients_per_round = 8;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.participation = ParticipationMode::kUniformPerRound;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.faults.dropout_rate = 0.1;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.faults.fault_seed = 7;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  changed = base;
  changed.aggregator.kind = AggregatorKind::kMedian;
  EXPECT_NE(CheckpointFingerprint(changed, 90, 60, 0), reference);

  EXPECT_NE(CheckpointFingerprint(base, 91, 60, 0), reference);
  EXPECT_NE(CheckpointFingerprint(base, 90, 61, 0), reference);
  EXPECT_NE(CheckpointFingerprint(base, 90, 60, 5), reference);
  EXPECT_EQ(CheckpointFingerprint(base, 90, 60, 0), reference);
}

// --- Codec ------------------------------------------------------------------

TEST(CheckpointCodecTest, CaptureEncodeDecodeRoundTripsEveryField) {
  const Dataset data = SmallData();
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.2;  // nonzero fault counters in the capture
  config.faults.fault_seed = 9;
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_EQ(sim.RunRounds(6), 6u);  // mid-epoch: 4 rounds per epoch

  const TrainingCheckpoint original = CaptureCheckpoint(sim);
  EXPECT_TRUE(original.epoch_open);
  BinaryWriter writer;
  EncodeCheckpoint(original, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  TrainingCheckpoint decoded;
  const Status status = DecodeCheckpoint(reader, decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(decoded.config_fingerprint, original.config_fingerprint);
  EXPECT_EQ(decoded.epoch, original.epoch);
  EXPECT_EQ(decoded.epoch_loss, original.epoch_loss);
  EXPECT_EQ(decoded.epoch_open, original.epoch_open);
  EXPECT_EQ(decoded.engine.epoch, original.engine.epoch);
  EXPECT_EQ(decoded.engine.round_in_epoch, original.engine.round_in_epoch);
  EXPECT_EQ(decoded.engine.rounds_this_epoch,
            original.engine.rounds_this_epoch);
  EXPECT_EQ(decoded.engine.global_round, original.engine.global_round);
  EXPECT_EQ(decoded.engine.order, original.engine.order);
  EXPECT_EQ(decoded.engine.fault_stats.dropped_uploads,
            original.engine.fault_stats.dropped_uploads);
  EXPECT_EQ(decoded.engine.clock_ticks, original.engine.clock_ticks);
  EXPECT_TRUE(SameRng(decoded.server_rng, original.server_rng));
  EXPECT_TRUE(decoded.item_factors == original.item_factors);
  ASSERT_EQ(decoded.clients.size(), original.clients.size());
  for (std::size_t i = 0; i < decoded.clients.size(); ++i) {
    EXPECT_EQ(decoded.clients[i].user_vector, original.clients[i].user_vector);
    EXPECT_EQ(decoded.clients[i].negatives, original.clients[i].negatives);
    EXPECT_TRUE(SameRng(decoded.clients[i].rng, original.clients[i].rng));
  }

  // The decoded checkpoint re-encodes to the same bytes — no field is lost.
  EXPECT_EQ(Encoded(decoded), writer.buffer());
}

TEST(CheckpointCodecTest, RejectsForeignMagicAndUnknownVersion) {
  BinaryWriter foreign;
  foreign.WriteU32(0x58585858);  // "XXXX"
  foreign.WriteU32(kCheckpointVersion);
  foreign.WriteU32(0);
  BinaryReader foreign_reader = BinaryReader::View(foreign.buffer());
  TrainingCheckpoint out;
  Status status = DecodeCheckpoint(foreign_reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);

  BinaryWriter future;
  future.WriteU32(kCheckpointMagic);
  future.WriteU32(kCheckpointVersion + 1);  // unknown version
  future.WriteU32(0);
  BinaryReader future_reader = BinaryReader::View(future.buffer());
  status = DecodeCheckpoint(future_reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(CheckpointCodecTest, RejectsVersionOneHeader) {
  // Version 1 carried round-pipelining state this layout no longer has. A
  // current body behind a version-1 header (its CRC still valid: the CRC
  // starts after the version field) must be refused on the version alone.
  Simulation sim(TinyData(), TinyConfig(), 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  std::string bytes = Encoded(CaptureCheckpoint(sim));
  BinaryWriter header;
  header.WriteU32(kCheckpointMagic);
  header.WriteU32(1);
  ASSERT_EQ(header.buffer().size(), 8u);
  bytes.replace(0, header.buffer().size(), header.buffer());
  BinaryReader reader = BinaryReader::View(bytes);
  TrainingCheckpoint out;
  const Status status = DecodeCheckpoint(reader, out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.ToString().find("version 1"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointCodecTest, EveryByteFlipFailsWithCorruption) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  const std::string pristine = Encoded(CaptureCheckpoint(sim));

  std::string corrupted;
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupted = pristine;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      TrainingCheckpoint out;
      const Status status = DecodeCheckpoint(reader, out);
      ASSERT_FALSE(status.ok()) << "offset=" << offset << " bit=" << bit;
      ASSERT_EQ(status.code(), StatusCode::kCorruption)
          << "offset=" << offset << " bit=" << bit;
    }
  }
}

TEST(CheckpointCodecTest, EveryTruncationFailsWithCorruption) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(1), 0u);
  const std::string pristine = Encoded(CaptureCheckpoint(sim));

  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(pristine.data(), keep));
    TrainingCheckpoint out;
    const Status status = DecodeCheckpoint(reader, out);
    ASSERT_FALSE(status.ok()) << "keep=" << keep;
    ASSERT_EQ(status.code(), StatusCode::kCorruption) << "keep=" << keep;
  }
}

TEST(CheckpointFileTest, SaveLoadRoundTripsAndMissingFileFails) {
  const Dataset data = TinyData();
  const FedConfig config = TinyConfig();
  Simulation sim(data, config, 0, nullptr, nullptr);
  ASSERT_GT(sim.RunRounds(2), 0u);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(sim);

  const std::string path = testing::TempDir() + "fedrec_checkpoint.frck";
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  Result<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Encoded(loaded.value()), Encoded(checkpoint));

  EXPECT_FALSE(LoadCheckpoint(testing::TempDir() + "no_such.frck").ok());
}

// --- Restore ----------------------------------------------------------------

TEST(CheckpointRestoreTest, RefusesForeignConfigAndDataset) {
  const Dataset data = SmallData();
  const FedConfig config = SmallConfig();
  Simulation source(data, config, 0, nullptr, nullptr);
  ASSERT_GT(source.RunRounds(2), 0u);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(source);

  FedConfig other_config = config;
  other_config.seed = 777;
  Simulation other(data, other_config, 0, nullptr, nullptr);
  const Status status = RestoreCheckpoint(checkpoint, other);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

/// Runs `config.epochs` epochs two ways — uninterrupted, and killed after
/// `kill_after_rounds` rounds then restored into a fresh simulation — and
/// asserts the two trajectories are bit-identical from the kill point on.
void ExpectKillRestoreBitIdentical(const Dataset& data, const FedConfig& config,
                                   std::size_t kill_after_rounds,
                                   ThreadPool* pool) {
  Simulation uninterrupted(data, config, 0, nullptr, pool);
  std::vector<double> reference_losses;
  for (std::size_t e = 0; e < config.epochs; ++e) {
    reference_losses.push_back(uninterrupted.RunEpoch());
  }

  Simulation doomed(data, config, 0, nullptr, pool);
  ASSERT_EQ(doomed.RunRounds(kill_after_rounds), kill_after_rounds);
  const TrainingCheckpoint checkpoint = CaptureCheckpoint(doomed);
  // Serialize through the codec, as a real kill/restart would.
  BinaryWriter writer;
  EncodeCheckpoint(checkpoint, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  TrainingCheckpoint reloaded;
  ASSERT_TRUE(DecodeCheckpoint(reader, reloaded).ok());

  Simulation resumed(data, config, 0, nullptr, pool);
  const Status status = RestoreCheckpoint(reloaded, resumed);
  ASSERT_TRUE(status.ok()) << status.ToString();

  const std::size_t first_epoch = resumed.current_epoch();
  for (std::size_t e = first_epoch; e < config.epochs; ++e) {
    EXPECT_DOUBLE_EQ(resumed.RunEpoch(), reference_losses[e])
        << "epoch " << e << " diverged after restore";
  }
  EXPECT_TRUE(resumed.model().item_factors() ==
              uninterrupted.model().item_factors());
  EXPECT_EQ(resumed.engine().fault_stats().dropped_uploads,
            uninterrupted.engine().fault_stats().dropped_uploads);
  EXPECT_EQ(resumed.engine().fault_stats().virtual_ticks,
            uninterrupted.engine().fault_stats().virtual_ticks);
}

TEST(CheckpointRestoreTest, MidEpochKillRestoreIsBitIdentical) {
  // 60 users / 16 per round = 4 rounds per epoch; 6 lands mid-epoch 1.
  ExpectKillRestoreBitIdentical(SmallData(), SmallConfig(),
                                /*kill_after_rounds=*/6, /*pool=*/nullptr);
}

TEST(CheckpointRestoreTest, EpochBoundaryKillRestoreIsBitIdentical) {
  ExpectKillRestoreBitIdentical(SmallData(), SmallConfig(),
                                /*kill_after_rounds=*/8, /*pool=*/nullptr);
}

TEST(CheckpointRestoreTest, UniformRoundsWithPoolSurviveKillRestore) {
  // kUniformPerRound mutates the participation order on every draw, and the
  // pool parallelizes LocalTrain and Aggregate; neither may break resume.
  FedConfig config = SmallConfig();
  config.participation = ParticipationMode::kUniformPerRound;
  ThreadPool pool(4);
  ExpectKillRestoreBitIdentical(SmallData(), config, /*kill_after_rounds=*/6,
                                &pool);
}

TEST(CheckpointRestoreTest, FaultScheduleSurvivesKillRestore) {
  // The restored run must replay the exact same failure history: the fault
  // plan is keyed by round, and the round counters travel in the checkpoint.
  FedConfig config = SmallConfig();
  config.faults.dropout_rate = 0.3;
  config.faults.straggler_rate = 0.2;
  config.faults.fault_seed = 23;
  ExpectKillRestoreBitIdentical(SmallData(), config, /*kill_after_rounds=*/5,
                                /*pool=*/nullptr);
}

}  // namespace
}  // namespace fedrec
