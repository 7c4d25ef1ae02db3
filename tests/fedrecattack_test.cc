#include "attack/fedrecattack.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/math.h"
#include "data/synthetic.h"
#include "model/bpr.h"
#include "model/topk.h"

namespace fedrec {
namespace {

struct AttackTestSetup {
  Dataset data;
  PublicInteractions view;
  MfModel model;
  FedConfig fed;
};

AttackTestSetup MakeSetup(double xi, std::uint64_t seed, std::size_t users = 40,
                std::size_t items = 60) {
  SyntheticConfig config;
  config.num_users = users;
  config.num_items = items;
  config.mean_interactions_per_user = 12.0;
  config.seed = seed;
  AttackTestSetup setup{GenerateSynthetic(config), {}, {}, {}};
  Rng rng(seed + 1);
  setup.view = PublicInteractions::Sample(setup.data, xi, rng,
                                          PublicSamplingMode::kCeil);
  setup.fed.model.dim = 6;
  Rng model_rng(seed + 2);
  setup.model = MfModel(items, setup.fed.model, model_rng);
  return setup;
}

FedRecAttackConfig MakeAttackConfig(std::vector<std::uint32_t> targets) {
  FedRecAttackConfig config;
  config.target_items = std::move(targets);
  config.kappa = 12;
  config.clip_norm = 0.5f;
  config.rec_k = 5;
  config.approx_epochs_first = 10;
  config.approx_epochs_round = 2;
  config.seed = 3;
  return config;
}

RoundContext MakeContext(const AttackTestSetup& setup) {
  RoundContext context;
  context.model = &setup.model;
  context.config = &setup.fed;
  context.num_benign_users = setup.data.num_users();
  return context;
}

/// Reference implementation of L_atk (Eq. 15-16) used for gradient checking.
double ReferenceAttackLoss(const Matrix& u_hat, const Matrix& items,
                           const PublicInteractions& view,
                           const std::vector<std::uint32_t>& targets,
                           std::size_t rec_k) {
  std::vector<std::uint32_t> sorted_targets = targets;
  std::sort(sorted_targets.begin(), sorted_targets.end());
  double total = 0.0;
  for (std::size_t u = 0; u < u_hat.rows(); ++u) {
    std::vector<float> scores(items.rows());
    for (std::size_t j = 0; j < items.rows(); ++j) {
      scores[j] = Dot(u_hat.Row(u), items.Row(j));
    }
    const auto& public_items = view.UserItems(u);
    std::vector<std::uint32_t> rec;
    TopKIndicesExcludingSortedInto(scores, rec_k, public_items, rec);
    double boundary = 0.0;
    bool found = false;
    for (std::size_t r = rec.size(); r-- > 0;) {
      if (!std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                              rec[r])) {
        boundary = scores[rec[r]];
        found = true;
        break;
      }
    }
    if (!found) continue;
    for (std::uint32_t t : sorted_targets) {
      if (std::binary_search(public_items.begin(), public_items.end(), t)) {
        continue;
      }
      total += AttackG(boundary - static_cast<double>(scores[t]));
    }
  }
  return total;
}

TEST(FedRecAttackTest, ApproximateUsersReducesPublicLoss) {
  AttackTestSetup setup = MakeSetup(0.3, 10);
  FedRecAttack attack(MakeAttackConfig({5}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);

  auto public_loss = [&](const Matrix& u_hat) {
    double total = 0.0;
    std::size_t pairs = 0;
    Rng rng(77);
    for (std::size_t u = 0; u < setup.data.num_users(); ++u) {
      const auto& pos = setup.view.UserItems(u);
      for (std::uint32_t p : pos) {
        // Average over a few fixed negatives.
        for (int k = 0; k < 3; ++k) {
          const auto neg = static_cast<std::uint32_t>(
              rng.NextBounded(setup.data.num_items()));
          if (std::binary_search(pos.begin(), pos.end(), neg)) continue;
          const double x =
              static_cast<double>(Dot(u_hat.Row(u),
                                      setup.model.item_factors().Row(p))) -
              static_cast<double>(Dot(u_hat.Row(u),
                                      setup.model.item_factors().Row(neg)));
          total += BprPairLossAndCoefficient(x).loss;
          ++pairs;
        }
      }
    }
    return total / static_cast<double>(pairs);
  };

  const double before = public_loss(attack.approximated_users());
  attack.ApproximateUsers(setup.model.item_factors(), 25);
  const double after = public_loss(attack.approximated_users());
  EXPECT_LT(after, before);
}

TEST(FedRecAttackTest, PoisonGradientMatchesFiniteDifferences) {
  AttackTestSetup setup = MakeSetup(0.4, 20, /*users=*/10, /*items=*/15);
  FedRecAttackConfig config = MakeAttackConfig({3});
  config.rec_k = 4;
  config.step_size = 1.0f;
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 15);

  Matrix items = setup.model.item_factors();
  const Matrix grad = attack.ComputePoisonGradient(items, nullptr);
  const Matrix& u_hat = attack.approximated_users();

  // Finite differences on the target row and a couple of boundary-candidate
  // rows. h small enough to not flip any top-K membership generically.
  const double h = 1e-4;
  std::size_t checked = 0;
  for (std::size_t row : {3u, 0u, 7u}) {
    for (std::size_t d = 0; d < items.cols(); ++d) {
      Matrix up = items, down = items;
      up.At(row, d) += static_cast<float>(h);
      down.At(row, d) -= static_cast<float>(h);
      const double numeric =
          (ReferenceAttackLoss(u_hat, up, setup.view, {3}, 4) -
           ReferenceAttackLoss(u_hat, down, setup.view, {3}, 4)) /
          (2 * h);
      EXPECT_NEAR(grad.At(row, d), numeric, 2e-2)
          << "row " << row << " dim " << d;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FedRecAttackTest, TargetRowGradientPointsAgainstUsers) {
  // The target row of nabla~V must have a negative projection onto the mean
  // approximated user vector (server subtracts the gradient, raising scores).
  AttackTestSetup setup = MakeSetup(0.3, 30);
  FedRecAttack attack(MakeAttackConfig({7}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 15);
  const Matrix grad =
      attack.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  const Matrix& u_hat = attack.approximated_users();
  double projection = 0.0;
  for (std::size_t u = 0; u < u_hat.rows(); ++u) {
    projection += Dot(grad.Row(7), u_hat.Row(u));
  }
  EXPECT_LT(projection, 0.0);
}

TEST(FedRecAttackTest, UploadRespectsKappaAndClip) {
  AttackTestSetup setup = MakeSetup(0.3, 40);
  FedRecAttackConfig config = MakeAttackConfig({2, 9});
  config.kappa = 8;
  config.clip_norm = 0.25f;
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users()),
      static_cast<std::uint32_t>(setup.data.num_users() + 1)};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 2u);
  for (const ClientUpdate& update : updates) {
    EXPECT_LE(update.item_gradients.row_count(), 8u);
    EXPECT_LE(update.item_gradients.CountNonZeroRows(), 8u);
    EXPECT_LE(update.item_gradients.MaxRowNorm(), 0.25f * 1.001f);
    // Targets always belong to the uploaded item set (Eq. 21).
    EXPECT_TRUE(update.item_gradients.Contains(2));
    EXPECT_TRUE(update.item_gradients.Contains(9));
  }
}

TEST(FedRecAttackTest, ItemSetFixedAcrossRounds) {
  AttackTestSetup setup = MakeSetup(0.3, 50);
  FedRecAttack attack(MakeAttackConfig({4}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users())};
  const auto first = attack.ProduceUpdates(context, malicious);
  const auto second = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].item_gradients.row_ids(), second[0].item_gradients.row_ids());
}

TEST(FedRecAttackTest, RemainderSubtractionLimitsSecondUpload) {
  AttackTestSetup setup = MakeSetup(0.3, 60);
  FedRecAttackConfig config = MakeAttackConfig({4});
  config.clip_norm = 100.0f;  // clip never binds -> first upload consumes all
  config.kappa = setup.data.num_items();  // no truncation
  FedRecAttack attack(config, &setup.view, setup.data.num_users(),
                      setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users()),
      static_cast<std::uint32_t>(setup.data.num_users() + 1)};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 2u);
  // The second client's rows over the overlap with the first must be ~zero
  // (Eq. 24: the first client uploaded the full gradient there).
  double second_overlap_norm = 0.0;
  for (std::size_t row : updates[1].item_gradients.row_ids()) {
    if (updates[0].item_gradients.Contains(row)) {
      second_overlap_norm += L2Norm(updates[1].item_gradients.Row(row));
    }
  }
  EXPECT_NEAR(second_overlap_norm, 0.0, 1e-4);
}

TEST(FedRecAttackTest, AblationNoPublicDataProducesZeroGradient) {
  AttackTestSetup setup = MakeSetup(0.0, 70);
  FedRecAttack attack(MakeAttackConfig({5}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  const RoundContext context = MakeContext(setup);
  const std::vector<std::uint32_t> malicious{
      static_cast<std::uint32_t>(setup.data.num_users())};
  const auto updates = attack.ProduceUpdates(context, malicious);
  ASSERT_EQ(updates.size(), 1u);
  // xi = 0: the attacker cannot approximate U, so uploads carry no signal.
  EXPECT_EQ(updates[0].item_gradients.CountNonZeroRows(), 0u);
}

TEST(FedRecAttackTest, UserSubsamplingScalesGradient) {
  AttackTestSetup setup = MakeSetup(0.5, 80);
  FedRecAttackConfig full_config = MakeAttackConfig({5});
  FedRecAttackConfig sub_config = MakeAttackConfig({5});
  sub_config.users_per_step = setup.data.num_users() / 2;

  FedRecAttack full(full_config, &setup.view, setup.data.num_users(),
                    setup.fed.model.dim);
  FedRecAttack sub(sub_config, &setup.view, setup.data.num_users(),
                   setup.fed.model.dim);
  full.ApproximateUsers(setup.model.item_factors(), 15);
  sub.ApproximateUsers(setup.model.item_factors(), 15);

  const Matrix g_full =
      full.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  const Matrix g_sub =
      sub.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  // Same order of magnitude on the target row thanks to the n/subset scaling.
  const float n_full = L2Norm(g_full.Row(5));
  const float n_sub = L2Norm(g_sub.Row(5));
  ASSERT_GT(n_full, 0.0f);
  ASSERT_GT(n_sub, 0.0f);
  EXPECT_LT(n_sub / n_full, 4.0f);
  EXPECT_GT(n_sub / n_full, 0.25f);
}

TEST(FedRecAttackTest, ParallelGradientMatchesSerial) {
  // The chunk count does not follow the pool size, so the poisoned gradient
  // is bit-identical without a pool and at every thread count.
  AttackTestSetup setup = MakeSetup(0.4, 90);
  FedRecAttack attack(MakeAttackConfig({5}), &setup.view,
                      setup.data.num_users(), setup.fed.model.dim);
  attack.ApproximateUsers(setup.model.item_factors(), 10);
  const Matrix serial =
      attack.ComputePoisonGradient(setup.model.item_factors(), nullptr);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const Matrix& parallel =
        attack.ComputePoisonGradient(setup.model.item_factors(), &pool);
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }
}

TEST(FedRecAttackTest, RequiresTargets) {
  AttackTestSetup setup = MakeSetup(0.3, 100);
  FedRecAttackConfig config = MakeAttackConfig({});
  EXPECT_DEATH(FedRecAttack(config, &setup.view, setup.data.num_users(),
                            setup.fed.model.dim),
               "target");
}

}  // namespace
}  // namespace fedrec
