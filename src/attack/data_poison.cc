#include "attack/data_poison.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"
#include "model/bpr.h"
#include "model/topk.h"

namespace fedrec {

namespace {

/// Trains the full-knowledge MF surrogate and returns (U, V).
std::pair<Matrix, Matrix> TrainSurrogate(const Dataset& data,
                                         const SurrogateConfig& config) {
  Rng rng(config.seed);
  Matrix users(data.num_users(), config.dim);
  Matrix items(data.num_items(), config.dim);
  users.FillGaussian(rng, 0.0f, 0.1f);
  items.FillGaussian(rng, 0.0f, 0.1f);
  BprTrainOptions options;
  options.learning_rate = config.learning_rate;
  TrainBpr(users, items, data, options, config.epochs, rng);
  return {std::move(users), std::move(items)};
}

}  // namespace

DataPoisonP1::DataPoisonP1(std::vector<std::uint32_t> target_items,
                           std::size_t kappa, const Dataset& full_knowledge,
                           const SurrogateConfig& surrogate, std::uint64_t seed)
    : FakeProfileAttack("p1", std::move(target_items), kappa,
                        full_knowledge.num_items(), seed) {
  auto [users, items] = TrainSurrogate(full_knowledge, surrogate);
  (void)users;

  // Target centroid in surrogate latent space.
  std::vector<float> centroid(items.cols(), 0.0f);
  for (std::uint32_t t : this->target_items()) {
    Axpy(1.0f / static_cast<float>(this->target_items().size()), items.Row(t),
         std::span<float>(centroid));
  }
  const float centroid_norm = std::max(1e-6f, L2Norm(centroid));

  // Influence heuristic: filler weight = popularity * positive cosine
  // similarity to the target centroid. Items that many users like and whose
  // factors align with the targets transfer the most preference mass.
  const std::vector<std::size_t> popularity = full_knowledge.ItemPopularity();
  filler_weights_.assign(full_knowledge.num_items(), 0.0);
  for (std::size_t j = 0; j < full_knowledge.num_items(); ++j) {
    if (std::binary_search(this->target_items().begin(),
                           this->target_items().end(),
                           static_cast<std::uint32_t>(j))) {
      continue;
    }
    const float norm = std::max(1e-6f, L2Norm(items.Row(j)));
    const double cosine =
        static_cast<double>(Dot(items.Row(j), centroid)) / (norm * centroid_norm);
    const double similarity = std::max(0.05, cosine + 1.0);  // keep positive
    filler_weights_[j] =
        (static_cast<double>(popularity[j]) + 1.0) * similarity;
  }
}

std::vector<std::uint32_t> DataPoisonP1::BuildFillerItems(std::size_t slot,
                                                          Rng& rng) {
  (void)slot;
  const std::size_t positive = static_cast<std::size_t>(
      std::count_if(filler_weights_.begin(), filler_weights_.end(),
                    [](double w) { return w > 0.0; }));
  const std::size_t want = std::min(filler_count(), positive);
  std::vector<std::uint32_t> fillers;
  fillers.reserve(want);
  if (want == 0) return fillers;
  for (std::size_t j : rng.WeightedSampleWithoutReplacement(filler_weights_, want)) {
    fillers.push_back(static_cast<std::uint32_t>(j));
  }
  return fillers;
}

DataPoisonP2::DataPoisonP2(std::vector<std::uint32_t> target_items,
                           std::size_t kappa, const Dataset& full_knowledge,
                           const SurrogateConfig& surrogate, std::uint64_t seed)
    : FakeProfileAttack("p2", std::move(target_items), kappa,
                        full_knowledge.num_items(), seed) {
  if (surrogate.deep) {
    // [16] attacks a deep recommender; train the NCF surrogate it assumes.
    NcfConfig ncf_config;
    ncf_config.embedding_dim = std::max<std::size_t>(8, surrogate.dim / 2);
    ncf_config.learning_rate = surrogate.learning_rate / 2;
    ncf_config.seed = surrogate.seed;
    deep_surrogate_ = std::make_unique<NcfModel>(
        full_knowledge.num_users(), full_knowledge.num_items(), ncf_config);
    Rng train_rng(surrogate.seed + 1);
    for (std::size_t e = 0; e < surrogate.epochs; ++e) {
      deep_surrogate_->TrainEpoch(full_knowledge, train_rng);
    }
  } else {
    auto [users, items] = TrainSurrogate(full_knowledge, surrogate);
    (void)users;
    surrogate_items_ = std::move(items);
  }
}

std::vector<std::uint32_t> DataPoisonP2::BuildFillerItems(std::size_t slot,
                                                          Rng& rng) {
  (void)slot;
  // Virtual user: a fresh latent vector; fillers are the surrogate's top-rated
  // items for it (the "highest predicted score" selection rule of [16]).
  if (deep_surrogate_ != nullptr) {
    std::vector<float> virtual_user(deep_surrogate_->config().embedding_dim);
    for (float& v : virtual_user) {
      v = static_cast<float>(rng.NextGaussian(0.0, init_std_));
    }
    std::vector<float> scores(deep_surrogate_->num_items());
    deep_surrogate_->ScoreAllForEmbedding(virtual_user, scores);
    std::vector<std::uint32_t> fillers;
    TopKIndicesExcludingSortedInto(scores, filler_count(), target_items(),
                                   fillers);
    return fillers;
  }
  std::vector<float> virtual_user(surrogate_items_.cols());
  for (float& v : virtual_user) {
    v = static_cast<float>(rng.NextGaussian(0.0, init_std_));
  }
  std::vector<float> scores(surrogate_items_.rows());
  for (std::size_t j = 0; j < surrogate_items_.rows(); ++j) {
    scores[j] = Dot(virtual_user, surrogate_items_.Row(j));
  }
  std::vector<std::uint32_t> fillers;
  TopKIndicesExcludingSortedInto(scores, filler_count(), target_items(),
                                 fillers);
  return fillers;
}

}  // namespace fedrec
