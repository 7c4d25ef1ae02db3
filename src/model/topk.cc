#include "model/topk.h"

#include <algorithm>

namespace fedrec {

namespace {

/// Ordering used everywhere: higher score first, then lower index.
inline bool Better(float score_a, std::uint32_t idx_a, float score_b,
                   std::uint32_t idx_b) {
  if (score_a != score_b) return score_a > score_b;
  return idx_a < idx_b;
}

}  // namespace

// fedrec:hot — runs once per user per evaluation and per attacked user per
// round; fedrec_lint rejects allocating calls in this body.
void TopKIndicesExcludingSortedInto(std::span<const float> scores,
                                    std::size_t k,
                                    std::span<const std::uint32_t> sorted_excluded,
                                    std::vector<std::uint32_t>& out) {
  out.clear();
  const std::size_t n = scores.size();
  if (k == 0 || n == 0) return;
  out.reserve(std::min(k, n));  // fedrec:alloc-ok — retained caller buffer
  // Heap order: the *worst* kept entry sits at the front, ready for eviction;
  // sort_heap under the same order leaves `out` best-first.
  auto worse_first = [scores](std::uint32_t a, std::uint32_t b) {
    return Better(scores[a], a, scores[b], b);
  };
  auto excluded = sorted_excluded.begin();
  const auto excluded_end = sorted_excluded.end();
  auto is_excluded = [&excluded, excluded_end](std::uint32_t idx) {
    while (excluded != excluded_end && *excluded < idx) ++excluded;
    return excluded != excluded_end && *excluded == idx;
  };

  // Fill: the first k candidates all enter the heap.
  std::uint32_t idx = 0;
  for (; idx < n && out.size() < k; ++idx) {
    if (is_excluded(idx)) continue;
    out.push_back(idx);  // fedrec:alloc-ok — within the reserved capacity
    std::push_heap(out.begin(), out.end(), worse_first);
  }
  // Threshold: only a strictly greater score can evict the k-th entry (see
  // the header for why ties and NaNs are safe to skip).
  if (out.size() == k) {
    float threshold = scores[out.front()];
    for (; idx < n; ++idx) {
      if (!(scores[idx] > threshold) || is_excluded(idx)) continue;
      std::pop_heap(out.begin(), out.end(), worse_first);
      out.back() = idx;
      std::push_heap(out.begin(), out.end(), worse_first);
      threshold = scores[out.front()];
    }
  }
  std::sort_heap(out.begin(), out.end(), worse_first);
}

}  // namespace fedrec
