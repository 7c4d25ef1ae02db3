#ifndef FEDREC_MODEL_TOPK_H_
#define FEDREC_MODEL_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

/// \file
/// Top-K selection over item scores — the recommendation-list primitive behind
/// every metric (V^rec_i of Section III-C) and behind the attack's boundary
/// item (Eq. 13/15).

namespace fedrec {

/// Writes into `out` the indices of the `k` largest scores in descending
/// score order, skipping the indices listed in `sorted_excluded`. Ties break
/// toward the smaller index so results are deterministic: `out` is the first
/// `min(k, candidates)` entries of the non-excluded indices sorted by
/// (score desc, index asc). `sorted_excluded` must be ascending; duplicates
/// and ids >= scores.size() are allowed and ignored. Used by the evaluator,
/// the attack's V^rec' list and the data-poisoning filler pick.
///
/// One pass over ascending indices with a k-entry heap:
///  - The exclusion list is walked with one forward cursor instead of a
///    search per index.
///  - Once k entries are held, an index is considered only if its score is
///    strictly greater than the current k-th score. This is exact: every
///    held index is smaller than the one being visited, so under the
///    index-ascending tie-break an equal score can never displace a held
///    entry, and a NaN never compares better. Skipping them drops nothing
///    the full (score, index) comparison would have kept.
///
/// No allocation: `out` is cleared and refilled; it allocates only when its
/// capacity is below min(k, scores.size()), so a buffer reused across calls
/// with the same k reaches its high-water capacity on the first call and
/// never reallocates after. Stale contents of `out` are discarded.
void TopKIndicesExcludingSortedInto(std::span<const float> scores,
                                    std::size_t k,
                                    std::span<const std::uint32_t> sorted_excluded,
                                    std::vector<std::uint32_t>& out);

}  // namespace fedrec

#endif  // FEDREC_MODEL_TOPK_H_
