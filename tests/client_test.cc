#include "fed/client.h"

#include <gtest/gtest.h>

#include "common/math.h"
#include "support/alloc_counter.h"

namespace fedrec {
namespace {

FedConfig MakeConfig() {
  FedConfig config;
  config.model.dim = 8;
  config.model.learning_rate = 0.05f;
  config.clip_norm = 1.0f;
  config.noise_scale = 0.0f;
  return config;
}

Matrix MakeItems(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix items(n, dim);
  items.FillGaussian(rng, 0.0f, 0.3f);
  return items;
}

TEST(ClientTest, ConstructionSortsPositives) {
  const FedConfig config = MakeConfig();
  Client client(3, {5, 1, 9}, config.model, Rng(1));
  EXPECT_EQ(client.user_id(), 3u);
  EXPECT_EQ(client.positives(), (std::vector<std::uint32_t>{1, 5, 9}));
  EXPECT_EQ(client.user_vector().size(), 8u);
}

TEST(ClientTest, TrainRoundUploadsOnlyTouchedItems) {
  const FedConfig config = MakeConfig();
  const Matrix items = MakeItems(30, 8, 2);
  Client client(0, {2, 7}, config.model, Rng(3));
  client.ResampleNegatives(30, 1);
  const ClientUpdate update = client.TrainRound(items, config);
  EXPECT_EQ(update.user, 0u);
  EXPECT_EQ(update.pair_count, 2u);
  // Positives always appear among uploaded rows.
  EXPECT_TRUE(update.item_gradients.Contains(2));
  EXPECT_TRUE(update.item_gradients.Contains(7));
  // At most 2 positives + 2 negatives rows.
  EXPECT_LE(update.item_gradients.row_count(), 4u);
  // Negative rows are never the positives themselves.
  for (std::size_t row : update.item_gradients.row_ids()) {
    EXPECT_LT(row, 30u);
  }
}

TEST(ClientTest, RowsRespectClipBound) {
  FedConfig config = MakeConfig();
  config.clip_norm = 0.05f;  // aggressive clip
  Matrix items = MakeItems(20, 8, 4);
  Scale(20.0f, items.Data());  // big factors -> big raw gradients
  Client client(0, {0, 1, 2, 3, 4}, config.model, Rng(5));
  client.ResampleNegatives(20, 1);
  const ClientUpdate update = client.TrainRound(items, config);
  EXPECT_LE(update.item_gradients.MaxRowNorm(), 0.05f * 1.001f);
}

TEST(ClientTest, LocalUserVectorUpdatedByTraining) {
  const FedConfig config = MakeConfig();
  const Matrix items = MakeItems(30, 8, 6);
  Client client(0, {1, 2, 3}, config.model, Rng(7));
  const std::vector<float> before = client.user_vector();
  client.ResampleNegatives(30, 1);
  client.TrainRound(items, config);
  EXPECT_NE(client.user_vector(), before);
}

TEST(ClientTest, NoiseIncreasesUploadVariance) {
  FedConfig noiseless = MakeConfig();
  FedConfig noisy = MakeConfig();
  noisy.noise_scale = 1.0f;
  const Matrix items = MakeItems(30, 8, 8);

  Client a(0, {1, 2}, noiseless.model, Rng(9));
  Client b(0, {1, 2}, noisy.model, Rng(9));
  a.ResampleNegatives(30, 1);
  b.ResampleNegatives(30, 1);
  const ClientUpdate ua = a.TrainRound(items, noiseless);
  const ClientUpdate ub = b.TrainRound(items, noisy);
  // Same RNG stream and data: without noise the uploads would be identical;
  // with mu > 0 they must differ.
  bool differ = false;
  for (std::size_t row : ua.item_gradients.row_ids()) {
    if (!ub.item_gradients.Contains(row)) {
      differ = true;
      break;
    }
    const auto ra = ua.item_gradients.Row(row);
    const auto rb = ub.item_gradients.Row(row);
    for (std::size_t d = 0; d < ra.size(); ++d) {
      if (ra[d] != rb[d]) differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(ClientTest, LossDecreasesOverRepeatedRounds) {
  const FedConfig config = MakeConfig();
  Matrix items = MakeItems(40, 8, 10);
  Client client(0, {0, 1, 2, 3, 4, 5}, config.model, Rng(11));
  client.ResampleNegatives(40, 1);
  double first_loss = 0.0, last_loss = 0.0;
  for (int round = 0; round < 60; ++round) {
    const ClientUpdate update = client.TrainRound(items, config);
    // Apply the upload to the item matrix like the server would.
    update.item_gradients.AddTo(items, -config.model.learning_rate);
    if (round == 0) first_loss = update.loss;
    last_loss = update.loss;
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST(ClientTest, LazyNegativeSamplingOnFirstRound) {
  const FedConfig config = MakeConfig();
  const Matrix items = MakeItems(30, 8, 12);
  Client client(0, {1, 2}, config.model, Rng(13));
  // No explicit ResampleNegatives: TrainRound must self-initialize.
  const ClientUpdate update = client.TrainRound(items, config);
  EXPECT_EQ(update.pair_count, 2u);
}

void ExpectUpdatesBitIdentical(const ClientUpdate& a, const ClientUpdate& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.pair_count, b.pair_count);
  EXPECT_EQ(a.loss, b.loss);
  ASSERT_EQ(a.item_gradients.row_ids(), b.item_gradients.row_ids());
  for (std::size_t slot = 0; slot < a.item_gradients.row_count(); ++slot) {
    const auto ra = a.item_gradients.RowAtSlot(slot);
    const auto rb = b.item_gradients.RowAtSlot(slot);
    for (std::size_t d = 0; d < ra.size(); ++d) {
      ASSERT_EQ(ra[d], rb[d]) << "slot " << slot << " dim " << d;
    }
  }
}

TEST(ClientTest, TrainRoundIntoMatchesTrainRoundBitwise) {
  // Same client data, same private RNG stream: the recycling API must draw
  // and compute exactly what the returning wrapper does, round after round.
  FedConfig config = MakeConfig();
  config.noise_scale = 0.5f;  // exercises the rng stream equivalence too
  const Matrix items = MakeItems(40, 8, 16);
  Client fresh_client(3, {1, 4, 9, 12}, config.model, Rng(17));
  Client reuse_client(3, {1, 4, 9, 12}, config.model, Rng(17));
  fresh_client.ResampleNegatives(40, 1);
  reuse_client.ResampleNegatives(40, 1);
  ClientUpdate reused;
  for (int round = 0; round < 5; ++round) {
    const ClientUpdate fresh = fresh_client.TrainRound(items, config);
    reuse_client.TrainRoundInto(items, config, reused);
    ExpectUpdatesBitIdentical(fresh, reused);
    EXPECT_EQ(fresh_client.user_vector(), reuse_client.user_vector());
  }
}

TEST(ClientTest, TrainRoundIntoMatchesWithRepeatedPositivePairing) {
  // negatives_per_positive > 1 routes through the client's pairing scratch.
  FedConfig config = MakeConfig();
  config.negatives_per_positive = 3;
  const Matrix items = MakeItems(50, 8, 20);
  Client fresh_client(1, {2, 7}, config.model, Rng(21));
  Client reuse_client(1, {2, 7}, config.model, Rng(21));
  fresh_client.ResampleNegatives(50, 3);
  reuse_client.ResampleNegatives(50, 3);
  ClientUpdate reused;
  for (int round = 0; round < 3; ++round) {
    const ClientUpdate fresh = fresh_client.TrainRound(items, config);
    reuse_client.TrainRoundInto(items, config, reused);
    EXPECT_EQ(fresh.pair_count, 6u);
    ExpectUpdatesBitIdentical(fresh, reused);
  }
}

TEST(ClientTest, TrainRoundIntoSteadyStateIsAllocationFree) {
  const FedConfig config = MakeConfig();
  const Matrix items = MakeItems(50, 8, 18);
  Client client(0, {2, 5, 11, 17, 23}, config.model, Rng(19));
  client.ResampleNegatives(50, 1);
  ClientUpdate slot;
  client.TrainRoundInto(items, config, slot);  // warm the slot's buffers
  ResetSparseAllocationCount();
  const std::uint64_t news_before = test_support::OperatorNewCount();
  for (int round = 0; round < 20; ++round) {
    client.TrainRoundInto(items, config, slot);
  }
  EXPECT_EQ(test_support::OperatorNewCount() - news_before, 0u);
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

TEST(ClientTest, NegativesPerPositiveMultiplier) {
  FedConfig config = MakeConfig();
  config.negatives_per_positive = 3;
  const Matrix items = MakeItems(50, 8, 14);
  Client client(0, {1, 2}, config.model, Rng(15));
  client.ResampleNegatives(50, 3);
  const ClientUpdate update = client.TrainRound(items, config);
  EXPECT_EQ(update.pair_count, 6u);  // 2 positives x 3 negatives
}

}  // namespace
}  // namespace fedrec
