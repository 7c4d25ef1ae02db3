#ifndef FEDREC_MODEL_BPR_H_
#define FEDREC_MODEL_BPR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "data/dataset.h"

/// \file
/// Bayesian Personalized Ranking (Eq. 2-4): the pairwise implicit-feedback
/// loss the base recommender is trained with, plus the centralized SGD trainer
/// reused by the attacker's user-matrix approximation (Eq. 19) and by the
/// data-poisoning surrogate models.

namespace fedrec {

/// Samples `count` items outside `positives` (sorted) uniformly — the
/// negative-item subset V-_i' of Section III-B. Falls back to fewer items when
/// the complement is smaller than `count`.
std::vector<std::uint32_t> SampleNegatives(
    const std::vector<std::uint32_t>& positives, std::size_t num_items,
    std::size_t count, Rng& rng);

/// Buffer-recycling form of SampleNegatives: clears and refills `out`
/// (capacity retained). Identical draws from `rng` and identical results; in
/// the sparse regime (count << catalogue) the rejection sampler checks
/// duplicates against the accepted set directly, so nothing scales with
/// num_items and a warm caller allocates nothing per resample.
void SampleNegativesInto(const std::vector<std::uint32_t>& positives,
                         std::size_t num_items, std::size_t count, Rng& rng,
                         std::vector<std::uint32_t>& out);

/// Result of one pairwise BPR term.
struct BprPairResult {
  double loss = 0.0;        ///< -ln sigmoid(x_uij)
  double coefficient = 0.0; ///< dLoss/dx_uij = -sigmoid(-x_uij)
};

/// Loss and derivative coefficient for one (user, pos, neg) triple given the
/// current score difference x_uij = u.v_i - u.v_j.
BprPairResult BprPairLossAndCoefficient(double score_difference);

/// Accumulated output of a user's local BPR pass (the client-side computation
/// of Section III-B).
struct LocalBprGradients {
  SparseRowMatrix item_gradients;     ///< nabla V_i: rows for touched items.
  std::vector<float> user_gradient;   ///< nabla u_i.
  double loss = 0.0;                  ///< L^rec_i of Eq. (4).
  std::size_t pair_count = 0;
};

/// Computes BPR gradients for one user: positives paired with the user's
/// current negative set (|pairs| = min(|pos|, |neg|) after zipping in order).
/// `l2_reg` adds lambda * parameter to each gradient term.
LocalBprGradients ComputeLocalBprGradients(
    std::span<const float> user_vector, const Matrix& item_factors,
    const std::vector<std::uint32_t>& positives,
    const std::vector<std::uint32_t>& negatives, float l2_reg);

/// Allocation-recycling form of ComputeLocalBprGradients: writes the item
/// gradients into `item_gradients` (Reset to the item dimension, retained
/// capacity reused) and the user gradient into `user_gradient`; returns the
/// pair loss and stores the pair count in `pair_count`. Bit-identical to the
/// returning overload; a caller recycling same-shaped buffers round over
/// round performs zero steady-state heap allocations.
double ComputeLocalBprGradientsInto(
    std::span<const float> user_vector, const Matrix& item_factors,
    std::span<const std::uint32_t> positives,
    std::span<const std::uint32_t> negatives, float l2_reg,
    SparseRowMatrix& item_gradients, std::vector<float>& user_gradient,
    std::size_t& pair_count);

/// Options of the centralized trainer.
struct BprTrainOptions {
  float learning_rate = 0.01f;
  float l2_reg = 0.0f;
  bool update_users = true;
  bool update_items = true;
  /// Negatives drawn per positive interaction each epoch.
  std::size_t negatives_per_positive = 1;
};

/// Plain centralized BPR-SGD over explicit interaction lists. One call = one
/// epoch (every interaction visited once in shuffled order). Used by:
/// (a) the attacker's approximation of U on public data D' with V frozen
///     (update_items = false), Eq. (19);
/// (b) full-knowledge surrogate models for the P1/P2 data-poisoning baselines.
/// Returns the mean pairwise loss of the epoch.
double TrainBprEpoch(Matrix& user_factors, Matrix& item_factors,
                     const std::vector<Interaction>& interactions,
                     const std::vector<std::vector<std::uint32_t>>& user_positives,
                     const BprTrainOptions& options, Rng& rng);

/// User-only form of TrainBprEpoch for a frozen V (options.update_items must
/// be false): the attacker's Eq. (19) step reads the shared item matrix in
/// place instead of copying it. `order` is the caller's shuffle buffer,
/// refilled every call with its capacity kept. Same rng draws and the same
/// user factors as TrainBprEpoch with update_items = false.
double TrainBprUserEpoch(Matrix& user_factors, const Matrix& item_factors,
                         const std::vector<Interaction>& interactions,
                         const std::vector<std::vector<std::uint32_t>>& user_positives,
                         const BprTrainOptions& options, Rng& rng,
                         std::vector<std::size_t>& order);

/// Convenience: builds the per-user positive lists from a dataset and runs
/// `epochs` epochs. Returns the final epoch's mean loss.
double TrainBpr(Matrix& user_factors, Matrix& item_factors, const Dataset& data,
                const BprTrainOptions& options, std::size_t epochs, Rng& rng);

}  // namespace fedrec

#endif  // FEDREC_MODEL_BPR_H_
