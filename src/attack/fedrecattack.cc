#include "attack/fedrecattack.h"

#include <algorithm>
#include <span>

#include "common/kernels.h"
#include "common/math.h"
#include "common/threadpool.h"
#include "model/bpr.h"
#include "model/topk.h"

namespace fedrec {

FedRecAttack::FedRecAttack(FedRecAttackConfig config,
                           const PublicInteractions* public_view,
                           std::size_t num_benign, std::size_t dim)
    : config_(std::move(config)), public_view_(public_view), rng_(config_.seed) {
  FEDREC_CHECK(public_view_ != nullptr);
  FEDREC_CHECK(!config_.target_items.empty()) << "no target items configured";
  FEDREC_CHECK_GT(config_.rec_k, 0u);
  FEDREC_CHECK_EQ(public_view_->num_users(), num_benign);

  u_hat_ = Matrix(num_benign, dim);
  u_hat_.FillGaussian(rng_, 0.0f, 0.1f);

  public_interactions_ = public_view_->AllInteractions();
  public_positives_.resize(num_benign);
  for (std::size_t u = 0; u < num_benign; ++u) {
    public_positives_[u] = public_view_->UserItems(u);
  }
  sorted_targets_ = config_.target_items;
  std::sort(sorted_targets_.begin(), sorted_targets_.end());
}

void FedRecAttack::ApproximateUsers(const Matrix& item_factors,
                                    std::size_t epochs) {
  if (public_interactions_.empty()) return;  // xi = 0: nothing to learn from
  // Eq. (19): argmin_U L_rec(U, V; D') with V frozen and read in place.
  BprTrainOptions options;
  options.learning_rate = config_.approx_lr;
  options.update_users = true;
  options.update_items = false;
  for (std::size_t e = 0; e < epochs; ++e) {
    TrainBprUserEpoch(u_hat_, item_factors, public_interactions_,
                      public_positives_, options, rng_, approx_order_);
  }
}

namespace {

/// Partial-gradient chunks per poison step. Four matches the pool size every
/// recorded golden was taken at, so those digits stay put.
constexpr std::size_t kPoisonChunks = 4;

/// Zeroes `m` as a rows x cols matrix, reusing its storage when the shape
/// already matches.
void ZeroShaped(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() == rows && m.cols() == cols) {
    m.Fill(0.0f);
  } else {
    m = Matrix(rows, cols);
  }
}

}  // namespace

const Matrix& FedRecAttack::ComputePoisonGradient(const Matrix& item_factors,
                                                  ThreadPool* pool) {
  const std::size_t num_items = item_factors.rows();
  const std::size_t dim = item_factors.cols();
  const std::size_t num_users = u_hat_.rows();
  FEDREC_CHECK_EQ(u_hat_.cols(), dim);

  // Ablation semantics: with no public knowledge at all the attacker cannot
  // rationally approximate U, so no poisoned gradient can be formed (the
  // paper's Table IX shows the attack collapsing to zero effect).
  if (public_interactions_.empty()) {
    ZeroShaped(last_gradient_, num_items, dim);
    return last_gradient_;
  }

  // Optional user subsampling turns Eq. (20) into a stochastic gradient.
  std::vector<std::uint32_t>& users = step_users_;
  double scale = static_cast<double>(config_.step_size);
  if (config_.users_per_step > 0 && config_.users_per_step < num_users) {
    users.clear();
    for (std::size_t idx :
         rng_.SampleWithoutReplacement(num_users, config_.users_per_step)) {
      users.push_back(static_cast<std::uint32_t>(idx));
    }
    scale *= static_cast<double>(num_users) /
             static_cast<double>(config_.users_per_step);
  } else {
    users.resize(num_users);
    for (std::uint32_t u = 0; u < num_users; ++u) users[u] = u;
  }

  // Parallel accumulation: one sparse gradient accumulator per chunk (users
  // only touch |targets|+1 rows each), merged at the end without any locking.
  // The chunk count is fixed rather than taken from the pool, so the float
  // summation order, and with it every digit of the attack, is the same at
  // any thread count (and without a pool, where the chunks run inline).
  const std::size_t num_chunks =
      std::min(kPoisonChunks, std::max<std::size_t>(1, users.size()));
  if (chunk_scratch_.size() < num_chunks) chunk_scratch_.resize(num_chunks);

  // Each chunk owns a contiguous range of the sampled users and scores them
  // through the blocked batch-scoring kernel over a shared packed item
  // matrix, gathering (possibly non-adjacent) u_hat rows into a small
  // contiguous tile first. Accumulators, tiles and the top-K list live in
  // chunk_scratch_ and keep their capacity across rounds.
  items_packed_.resize(kernels::PackedItemsSize(num_items, dim));
  kernels::PackItems(item_factors.Data().data(), num_items, dim,
                     items_packed_.data());
  constexpr std::size_t kScoreTile = 8;
  auto process_chunk = [&](std::size_t chunk) {
    ChunkScratch& scratch = chunk_scratch_[chunk];
    SparseRowMatrix& grad = scratch.gradient;
    grad.Reset(dim);
    scratch.gathered.resize(kScoreTile * dim);
    scratch.scores.resize(kScoreTile * num_items);
    const std::size_t begin = chunk * users.size() / num_chunks;
    const std::size_t end = (chunk + 1) * users.size() / num_chunks;
    // fedrec:hot — the per-user attack step; fedrec_lint rejects allocating
    // calls here.
    for (std::size_t tile_begin = begin; tile_begin < end;
         tile_begin += kScoreTile) {
      const std::size_t tile = std::min(kScoreTile, end - tile_begin);
      for (std::size_t t = 0; t < tile; ++t) {
        const auto src = u_hat_.Row(users[tile_begin + t]);
        std::copy(src.begin(), src.end(), scratch.gathered.begin() + t * dim);
      }
      kernels::ScoreBlockPacked(scratch.gathered.data(), tile,
                                items_packed_.data(), num_items, dim,
                                scratch.scores.data(), num_items);
      for (std::size_t t = 0; t < tile; ++t) {
        const std::uint32_t user = users[tile_begin + t];
        const auto u_vec = u_hat_.Row(user);
        const std::span<const float> user_scores(
            scratch.scores.data() + t * num_items, num_items);
        const auto& public_items = public_positives_[user];
        // V^rec'_i: top-K of V-''_i (items without a *public* interaction).
        std::vector<std::uint32_t>& rec = scratch.rec;
        TopKIndicesExcludingSortedInto(user_scores, config_.rec_k,
                                       public_items, rec);
        // Boundary: the lowest-scored non-target item of the list (Eq. 15).
        bool has_boundary = false;
        std::uint32_t boundary_item = 0;
        for (std::size_t r = rec.size(); r-- > 0;) {
          if (!std::binary_search(sorted_targets_.begin(),
                                  sorted_targets_.end(), rec[r])) {
            boundary_item = rec[r];
            has_boundary = true;
            break;
          }
        }
        if (!has_boundary) continue;  // every slot already a target: user done
        const double boundary_score = user_scores[boundary_item];

        for (std::uint32_t target : sorted_targets_) {
          // Sum over v_t in V^tar with (u_i, v_t) not in D' (Eq. 15).
          if (std::binary_search(public_items.begin(), public_items.end(),
                                 target)) {
            continue;
          }
          const double s =
              boundary_score - static_cast<double>(user_scores[target]);
          const float w = static_cast<float>(AttackGPrime(s));
          if (w == 0.0f) continue;
          // dL/dx_boundary = +g'(s), dL/dx_target = -g'(s); dx_ij/dv_j = u_i.
          // RowMutable grows the chunk's row store only past its high water.
          Axpy(w, u_vec, grad.RowMutable(boundary_item));
          Axpy(-w, u_vec, grad.RowMutable(target));
        }
      }
    }
  };

  ParallelFor(pool, num_chunks, process_chunk);

  // Fixed merge order ((p0 + p1) + p2) + ...: bit-identical for a given
  // chunk count. Only touched rows are added; adding a chunk's untouched
  // (zero) rows would be an exact no-op, since the accumulators start at +0
  // and a sum that cancels rounds to +0, so no entry is ever -0.
  ZeroShaped(last_gradient_, num_items, dim);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    chunk_scratch_[c].gradient.AddTo(last_gradient_);
  }
  if (scale != 1.0) {
    Scale(static_cast<float>(scale), last_gradient_.Data());
  }
  return last_gradient_;
}

std::vector<ClientUpdate> FedRecAttack::ProduceUpdates(
    const RoundContext& context,
    std::span<const std::uint32_t> selected_malicious) {
  const Matrix& item_factors = context.model->item_factors();
  const std::size_t dim = item_factors.cols();
  const std::size_t num_items = item_factors.rows();

  // Step 1 (Alg. 1): refresh the user-matrix approximation against the
  // current shared parameters.
  const std::size_t epochs = users_initialized_ ? config_.approx_epochs_round
                                                : config_.approx_epochs_first;
  ApproximateUsers(item_factors, epochs);
  users_initialized_ = true;

  // Step 2: the round's poisoned gradient (Eq. 20).
  ComputePoisonGradient(item_factors, context.pool);

  // Steps 3-12: distribute across the selected malicious clients.
  std::vector<ClientUpdate> updates;
  updates.reserve(selected_malicious.size());
  for (std::uint32_t id : selected_malicious) {
    FEDREC_CHECK_GE(id, context.num_benign_users);
    const std::size_t slot = id - context.num_benign_users;
    if (slot >= item_sets_.size()) {
      item_sets_.resize(slot + 1);
      item_set_ready_.resize(slot + 1, false);
    }
    if (!item_set_ready_[slot]) {
      // Eq. (21)-(22): V_i = V^tar  +  rows sampled without replacement with
      // probability proportional to the current ||nabla~v_j||_2.
      std::vector<std::uint32_t>& item_set = item_sets_[slot];
      item_set.assign(
          sorted_targets_.begin(),
          sorted_targets_.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(config_.kappa, sorted_targets_.size())));
      const std::size_t extra =
          config_.kappa > item_set.size() ? config_.kappa - item_set.size() : 0;
      if (extra > 0) {
        std::vector<double> weights(num_items, 0.0);
        std::size_t positive = 0;
        for (std::size_t j = 0; j < num_items; ++j) {
          if (std::binary_search(sorted_targets_.begin(), sorted_targets_.end(),
                                 static_cast<std::uint32_t>(j))) {
            continue;  // p(v_j) = 0 for targets (Eq. 22)
          }
          weights[j] = static_cast<double>(L2Norm(last_gradient_.Row(j)));
          if (weights[j] > 0.0) ++positive;
        }
        const std::size_t non_targets = num_items - sorted_targets_.size();
        const std::size_t want = std::min(extra, non_targets);
        if (positive >= want && positive > 0) {
          for (std::size_t j : rng_.WeightedSampleWithoutReplacement(weights, want)) {
            item_set.push_back(static_cast<std::uint32_t>(j));
          }
        } else {
          // Degenerate gradient (e.g. fully consumed by earlier clients):
          // fall back to uniform filler rows so the upload shape stays
          // indistinguishable from a benign client's.
          std::vector<std::uint32_t> pool_items;
          pool_items.reserve(non_targets);
          for (std::uint32_t j = 0; j < num_items; ++j) {
            if (!std::binary_search(sorted_targets_.begin(), sorted_targets_.end(),
                                    j)) {
              pool_items.push_back(j);
            }
          }
          for (std::size_t idx :
               rng_.SampleWithoutReplacement(pool_items.size(), want)) {
            item_set.push_back(pool_items[idx]);
          }
        }
        std::sort(item_set.begin(), item_set.end());
      }
      item_set_ready_[slot] = true;
    }

    // Eq. (23): restrict to V_i and clip rows to C.
    ClientUpdate update;
    update.user = id;
    update.item_gradients = SparseRowMatrix(dim);
    for (std::uint32_t item : item_sets_[slot]) {
      const auto src = last_gradient_.Row(item);
      auto dst = update.item_gradients.RowMutable(item);
      std::copy(src.begin(), src.end(), dst.begin());
      ClipL2(dst, config_.clip_norm);
    }
    // Eq. (24): subtract what this client uploads from the remainder.
    for (std::uint32_t item : item_sets_[slot]) {
      const auto uploaded = update.item_gradients.Row(item);
      auto remaining = last_gradient_.Row(item);
      for (std::size_t d = 0; d < dim; ++d) remaining[d] -= uploaded[d];
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

}  // namespace fedrec
