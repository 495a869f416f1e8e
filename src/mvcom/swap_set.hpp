#pragma once
// SwapSet — the index structure behind every Markov-chain solution f_n:
// a partition of {0..I-1} into selected / unselected with O(1) uniform
// sampling from either side and O(1) swap (the state transition of Alg. 3,
// which flips exactly one x_i from 1 to 0 and another from 0 to 1).
//
// Layout: one permutation array `items_` whose first n entries (slots) are
// the selected committees and whose remaining I−n slots are the unselected
// ones. The chain step works in slots, not committee ids: it draws a slot on
// each side of the n boundary, reads the two committees with at(), and an
// accepted move exchanges the two slots — two stores, no push/pop. There is
// no inverse permutation: nothing on the hot path asks "where is committee
// i?", and the one caller that asks "is i selected?" (a leave's rebind,
// already O(|I|) per chain) scans selected(). That keeps a solution at
// 4 bytes per committee — at |I| = 50k with the 1024-chain family, about
// 205 MB per explorer instead of 410 MB — and halves the memory the chain
// step touches.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mvcom/problem.hpp"

namespace mvcom::core {

class SwapSet {
 public:
  SwapSet() = default;

  /// Builds from a selection bitmap.
  explicit SwapSet(const Selection& x) { rebuild(x); }

  /// Rebuilds from a bitmap, reusing the existing buffers (no allocation
  /// when the universe size is unchanged). Both sides keep ascending index
  /// order, so rebuild order is deterministic.
  void rebuild(const Selection& x) {
    const auto total = static_cast<std::uint32_t>(x.size());
    items_.resize(total);
    n_ = 0;
    for (std::uint32_t i = 0; i < total; ++i) {
      if (x[i]) ++n_;
    }
    std::uint32_t sel = 0;
    std::uint32_t unsel = n_;
    for (std::uint32_t i = 0; i < total; ++i) {
      items_[x[i] ? sel++ : unsel++] = i;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t selected_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t unselected_count() const noexcept {
    return items_.size() - n_;
  }
  /// O(selected_count()) scan — only the leave path asks.
  [[nodiscard]] bool contains(std::uint32_t i) const {
    const auto sel = selected();
    return std::find(sel.begin(), sel.end(), i) != sel.end();
  }

  /// Uniform random slot on the selected side, [0, n).
  /// Precondition: selected_count() > 0.
  [[nodiscard]] std::uint32_t sample_selected_slot(common::Rng& rng) const {
    assert(n_ > 0);
    return static_cast<std::uint32_t>(rng.below(n_));
  }
  /// Uniform random slot on the unselected side, [n, I).
  /// Precondition: unselected_count() > 0.
  [[nodiscard]] std::uint32_t sample_unselected_slot(common::Rng& rng) const {
    assert(n_ < items_.size());
    return n_ + static_cast<std::uint32_t>(rng.below(items_.size() - n_));
  }
  /// The committee in a slot.
  [[nodiscard]] std::uint32_t at(std::uint32_t slot) const {
    return items_[slot];
  }

  /// Applies the transition x_{at(po)}: 1→0, x_{at(pi)}: 0→1 by exchanging
  /// a selected slot `po` with an unselected slot `pi`.
  void swap_slots(std::uint32_t po, std::uint32_t pi) {
    assert(po < n_ && pi >= n_ && pi < items_.size());
    std::swap(items_[po], items_[pi]);
  }

  /// Materializes the bitmap.
  [[nodiscard]] Selection to_selection() const {
    Selection x(items_.size(), 0);
    write_selection(x);
    return x;
  }

  /// Writes the bitmap into a caller-owned buffer (resized as needed) —
  /// the allocation-free variant for hot paths with a scratch Selection.
  void write_selection(Selection& x) const {
    x.assign(items_.size(), 0);
    for (std::uint32_t k = 0; k < n_; ++k) x[items_[k]] = 1;
  }

  [[nodiscard]] std::span<const std::uint32_t> selected() const noexcept {
    return {items_.data(), n_};
  }

 private:
  std::vector<std::uint32_t> items_;  // permutation; [0, n_) = selected
  std::uint32_t n_ = 0;               // selected count / side boundary
};

}  // namespace mvcom::core
