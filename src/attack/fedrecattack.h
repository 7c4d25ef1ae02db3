#ifndef FEDREC_ATTACK_FEDRECATTACK_H_
#define FEDREC_ATTACK_FEDRECATTACK_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "data/public_view.h"
#include "fed/simulation.h"

/// \file
/// FedRecAttack (Section IV) — the paper's primary contribution.
///
/// Per round with selected malicious clients (Algorithm 1):
///  1. approximate the private user matrix U from the public interactions D'
///     and the shared item matrix V by minimizing L_rec(U, V; D') with V
///     frozen (Eq. 19);
///  2. form the poisoned gradient nabla~V = zeta * dL_atk/dV (Eq. 20), where
///     L_atk (Eq. 15-16) pushes every target item's score just above the
///     user's current top-K boundary through g(x) of Eq. (14);
///  3. each selected malicious client uploads nabla~V restricted to its fixed
///     item set V_i (targets + rows sampled with probability proportional to
///     gradient-row norms, Eq. 21-22), rows clipped to C (Eq. 23), and the
///     uploaded part is subtracted from the remainder (Eq. 24).

namespace fedrec {

/// Attack hyper-parameters (paper defaults in brackets).
struct FedRecAttackConfig {
  /// V^tar: the items to promote.
  std::vector<std::uint32_t> target_items;
  /// zeta: step size scaling the poisoned gradient [1].
  float step_size = 1.0f;
  /// kappa: max non-zero rows per malicious upload [60].
  std::size_t kappa = 60;
  /// C: max L2 norm per uploaded row [1].
  float clip_norm = 1.0f;
  /// K of the attacker-side recommendation list V^rec' in L_atk [10].
  std::size_t rec_k = 10;
  /// SGD epochs over D' on the first U-approximation call [30].
  std::size_t approx_epochs_first = 30;
  /// Warm-start refinement epochs on subsequent calls [2].
  std::size_t approx_epochs_round = 2;
  /// Learning rate of the U-approximation SGD [0.05].
  float approx_lr = 0.05f;
  /// Users sampled per gradient step; 0 = all benign users. Subsampling makes
  /// Eq. (20) a stochastic gradient — required at MovieLens-1M scale.
  std::size_t users_per_step = 0;
  std::uint64_t seed = 7;
};

/// The FedRecAttack coordinator (plugs into fed/Simulation).
class FedRecAttack : public MaliciousCoordinator {
 public:
  /// `public_view` is D' sampled from the benign training data. `num_benign`
  /// and `dim` size the approximated user matrix.
  FedRecAttack(FedRecAttackConfig config, const PublicInteractions* public_view,
               std::size_t num_benign, std::size_t dim);

  std::string name() const override { return "fedrecattack"; }

  std::vector<ClientUpdate> ProduceUpdates(
      const RoundContext& context,
      std::span<const std::uint32_t> selected_malicious) override;

  /// The approximated user matrix U-hat (exposed for tests/analysis).
  const Matrix& approximated_users() const { return u_hat_; }

  /// Dense poisoned gradient of the latest round before distribution
  /// (exposed for tests).
  const Matrix& last_poison_gradient() const { return last_gradient_; }

  /// Refines U-hat on D' (Eq. 19); called internally, exposed for tests.
  void ApproximateUsers(const Matrix& item_factors, std::size_t epochs);

  /// Computes zeta * dL_atk/dV at (U-hat, V) (Eq. 20) into
  /// last_poison_gradient() and returns it; exposed for tests. The reference
  /// stays valid until the next call. The users are split into a fixed
  /// number of chunks whatever the pool size (run inline when `pool` is
  /// null), so the result is bit-identical at every thread count. The
  /// per-chunk accumulators, packed item matrix, score tiles and top-K lists
  /// are members, reused from round to round once the item-matrix shape is
  /// stable.
  const Matrix& ComputePoisonGradient(const Matrix& item_factors,
                                      ThreadPool* pool);

 private:
  FedRecAttackConfig config_;
  const PublicInteractions* public_view_;
  Rng rng_;
  Matrix u_hat_;
  bool users_initialized_ = false;
  Matrix last_gradient_;
  /// Flattened D' for the approximation SGD.
  std::vector<Interaction> public_interactions_;
  std::vector<std::vector<std::uint32_t>> public_positives_;
  /// Shuffle buffer of the approximation epochs, kept across rounds.
  std::vector<std::size_t> approx_order_;
  /// Fixed item set V_i per malicious user id (keyed by id - num_benign).
  std::vector<std::vector<std::uint32_t>> item_sets_;
  std::vector<bool> item_set_ready_;
  std::vector<std::uint32_t> sorted_targets_;

  /// Scratch of one ComputePoisonGradient chunk, refilled every round.
  struct ChunkScratch {
    /// The chunk's partial sum of nabla~V over the rows its users touch.
    SparseRowMatrix gradient;
    std::vector<float> gathered;  ///< tile of u_hat rows
    std::vector<float> scores;    ///< tile of score rows
    std::vector<std::uint32_t> rec;  ///< V^rec' of the current user
  };
  std::vector<ChunkScratch> chunk_scratch_;
  std::vector<float> items_packed_;
  std::vector<std::uint32_t> step_users_;
};

}  // namespace fedrec

#endif  // FEDREC_ATTACK_FEDRECATTACK_H_
