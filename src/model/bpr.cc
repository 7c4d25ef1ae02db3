#include "model/bpr.h"

#include <algorithm>
#include <numeric>

#include "common/math.h"

namespace fedrec {

void SampleNegativesInto(const std::vector<std::uint32_t>& positives,
                         std::size_t num_items, std::size_t count, Rng& rng,
                         std::vector<std::uint32_t>& out) {
  FEDREC_CHECK_GT(num_items, 0u);
  const std::size_t complement =
      num_items > positives.size() ? num_items - positives.size() : 0;
  const std::size_t want = std::min(count, complement);
  out.clear();
  out.reserve(want);
  if (want == 0) return;

  if (want * 4 >= complement) {
    // Dense regime: enumerate the complement and sample exactly.
    std::vector<std::uint32_t> pool;
    pool.reserve(complement);
    for (std::uint32_t item = 0; item < num_items; ++item) {
      if (!std::binary_search(positives.begin(), positives.end(), item)) {
        pool.push_back(item);
      }
    }
    for (std::size_t idx : rng.SampleWithoutReplacement(pool.size(), want)) {
      out.push_back(pool[idx]);
    }
  } else if (want <= 1024) {
    // Sparse regime, typical federated sizes: rejection sampling with the
    // duplicate check scanning the accepted set instead of marking an
    // O(num_items) bitmap — the accept/reject decision per candidate (and
    // therefore the rng stream) is unchanged, but nothing here scales with
    // the catalogue and the warm caller allocates nothing.
    while (out.size() < want) {
      const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
      if (std::find(out.begin(), out.end(), item) != out.end()) continue;
      if (std::binary_search(positives.begin(), positives.end(), item)) continue;
      out.push_back(item);
    }
  } else {
    // Sparse regime, very heavy user: the linear duplicate scan would go
    // quadratic, so fall back to the taken-bitmap probe. Identical per-
    // candidate decisions, so the rng stream matches the branch above.
    std::vector<bool> taken(num_items, false);
    while (out.size() < want) {
      const auto item = static_cast<std::uint32_t>(rng.NextBounded(num_items));
      if (taken[item]) continue;
      if (std::binary_search(positives.begin(), positives.end(), item)) continue;
      taken[item] = true;
      out.push_back(item);
    }
  }
}

std::vector<std::uint32_t> SampleNegatives(
    const std::vector<std::uint32_t>& positives, std::size_t num_items,
    std::size_t count, Rng& rng) {
  std::vector<std::uint32_t> negatives;
  SampleNegativesInto(positives, num_items, count, rng, negatives);
  return negatives;
}

BprPairResult BprPairLossAndCoefficient(double score_difference) {
  BprPairResult result;
  result.loss = -LogSigmoid(score_difference);
  result.coefficient = -Sigmoid(-score_difference);
  return result;
}

double ComputeLocalBprGradientsInto(
    std::span<const float> user_vector, const Matrix& item_factors,
    std::span<const std::uint32_t> positives,
    std::span<const std::uint32_t> negatives, float l2_reg,
    SparseRowMatrix& item_gradients, std::vector<float>& user_gradient,
    std::size_t& pair_count) {
  item_gradients.Reset(item_factors.cols());
  user_gradient.assign(user_vector.size(), 0.0f);
  pair_count = 0;
  double loss = 0.0;
  const std::size_t pairs = std::min(positives.size(), negatives.size());
  // The pair rows are a random scatter over a matrix much larger than cache;
  // issuing all their loads up front overlaps the miss latency instead of
  // serializing it through the dot products below.
  const std::size_t row_bytes = item_factors.cols() * sizeof(float);
  for (std::size_t p = 0; p < pairs; ++p) {
    kernels::PrefetchRead(item_factors.Row(positives[p]).data(), row_bytes);
    kernels::PrefetchRead(item_factors.Row(negatives[p]).data(), row_bytes);
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::uint32_t pos = positives[p];
    const std::uint32_t neg = negatives[p];
    const auto v_pos = item_factors.Row(pos);
    const auto v_neg = item_factors.Row(neg);
    const double x = static_cast<double>(Dot(user_vector, v_pos)) -
                     static_cast<double>(Dot(user_vector, v_neg));
    const BprPairResult pair = BprPairLossAndCoefficient(x);
    loss += pair.loss;
    const float c = static_cast<float>(pair.coefficient);
    // dL/du = c * (v_pos - v_neg); dL/dv_pos = c * u; dL/dv_neg = -c * u.
    std::span<float> grad_u(user_gradient);
    Axpy(c, v_pos, grad_u);
    Axpy(-c, v_neg, grad_u);
    Axpy(c, user_vector, item_gradients.RowMutable(pos));
    Axpy(-c, user_vector, item_gradients.RowMutable(neg));
    ++pair_count;
  }
  if (l2_reg > 0.0f) {
    Axpy(l2_reg, user_vector, std::span<float>(user_gradient));
    for (std::uint32_t item : item_gradients.row_ids()) {
      Axpy(l2_reg, item_factors.Row(item), item_gradients.RowMutable(item));
    }
  }
  return loss;
}

LocalBprGradients ComputeLocalBprGradients(
    std::span<const float> user_vector, const Matrix& item_factors,
    const std::vector<std::uint32_t>& positives,
    const std::vector<std::uint32_t>& negatives, float l2_reg) {
  LocalBprGradients out;
  out.loss = ComputeLocalBprGradientsInto(
      user_vector, item_factors, std::span<const std::uint32_t>(positives),
      std::span<const std::uint32_t>(negatives), l2_reg, out.item_gradients,
      out.user_gradient, out.pair_count);
  return out;
}

namespace {

/// One BPR-SGD epoch. `mutable_items` is `item_factors` itself when V is
/// trained and null when it is frozen.
double BprEpoch(Matrix& user_factors, const Matrix& item_factors,
                Matrix* mutable_items,
                const std::vector<Interaction>& interactions,
                const std::vector<std::vector<std::uint32_t>>& user_positives,
                const BprTrainOptions& options, Rng& rng,
                std::vector<std::size_t>& order) {
  FEDREC_CHECK_EQ(user_factors.cols(), item_factors.cols());
  if (interactions.empty()) return 0.0;
  order.resize(interactions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.Shuffle(order);

  const std::size_t num_items = item_factors.rows();
  double total_loss = 0.0;
  std::size_t total_pairs = 0;
  // Reused across every pair of the epoch; see the mutable_items branch.
  std::vector<float> u_copy;
  for (std::size_t idx : order) {
    const Interaction& tuple = interactions[idx];
    const auto user_row = user_factors.Row(tuple.user);
    const auto& positives = user_positives[tuple.user];
    for (std::size_t n = 0; n < options.negatives_per_positive; ++n) {
      // Draw one negative outside the user's positive set.
      std::uint32_t neg = 0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        neg = static_cast<std::uint32_t>(rng.NextBounded(num_items));
        if (!std::binary_search(positives.begin(), positives.end(), neg)) break;
      }
      const auto v_pos = item_factors.Row(tuple.item);
      const auto v_neg = item_factors.Row(neg);
      const double x = static_cast<double>(Dot(user_row, v_pos)) -
                       static_cast<double>(Dot(user_row, v_neg));
      const BprPairResult pair = BprPairLossAndCoefficient(x);
      total_loss += pair.loss;
      ++total_pairs;
      const float c = static_cast<float>(pair.coefficient);
      const float lr = options.learning_rate;
      if (options.update_users) {
        // u <- u - lr * (c * (v_pos - v_neg) + reg * u)
        std::span<float> u = user_factors.Row(tuple.user);
        Axpy(-lr * c, v_pos, u);
        Axpy(lr * c, v_neg, u);
        if (options.l2_reg > 0.0f) Scale(1.0f - lr * options.l2_reg, u);
      }
      if (mutable_items != nullptr) {
        u_copy.assign(user_row.begin(), user_row.end());
        std::span<const float> u(u_copy);
        std::span<float> vp = mutable_items->Row(tuple.item);
        std::span<float> vn = mutable_items->Row(neg);
        Axpy(-lr * c, u, vp);
        Axpy(lr * c, u, vn);
        if (options.l2_reg > 0.0f) {
          Scale(1.0f - lr * options.l2_reg, vp);
          Scale(1.0f - lr * options.l2_reg, vn);
        }
      }
    }
  }
  return total_pairs == 0 ? 0.0 : total_loss / static_cast<double>(total_pairs);
}

}  // namespace

double TrainBprEpoch(Matrix& user_factors, Matrix& item_factors,
                     const std::vector<Interaction>& interactions,
                     const std::vector<std::vector<std::uint32_t>>& user_positives,
                     const BprTrainOptions& options, Rng& rng) {
  std::vector<std::size_t> order;
  return BprEpoch(user_factors, item_factors,
                  options.update_items ? &item_factors : nullptr, interactions,
                  user_positives, options, rng, order);
}

double TrainBprUserEpoch(Matrix& user_factors, const Matrix& item_factors,
                         const std::vector<Interaction>& interactions,
                         const std::vector<std::vector<std::uint32_t>>& user_positives,
                         const BprTrainOptions& options, Rng& rng,
                         std::vector<std::size_t>& order) {
  FEDREC_CHECK(!options.update_items) << "TrainBprUserEpoch freezes V";
  return BprEpoch(user_factors, item_factors, nullptr, interactions,
                  user_positives, options, rng, order);
}

double TrainBpr(Matrix& user_factors, Matrix& item_factors, const Dataset& data,
                const BprTrainOptions& options, std::size_t epochs, Rng& rng) {
  std::vector<std::vector<std::uint32_t>> positives(data.num_users());
  for (std::size_t u = 0; u < data.num_users(); ++u) {
    positives[u] = data.UserItems(u);
  }
  const std::vector<Interaction> interactions = data.AllInteractions();
  double loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    loss = TrainBprEpoch(user_factors, item_factors, interactions, positives,
                         options, rng);
  }
  return loss;
}

}  // namespace fedrec
