// Tests for the O(1)-swap partition structure behind every SE solution.

#include "mvcom/swap_set.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::core::Selection;
using mvcom::core::SwapSet;

TEST(SwapSetTest, RebuildReflectsBitmap) {
  const Selection x{1, 0, 1, 0, 0};
  SwapSet s(x);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.selected_count(), 2u);
  EXPECT_EQ(s.unselected_count(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_EQ(s.to_selection(), x);
}

TEST(SwapSetTest, SwapMovesExactlyOnePair) {
  SwapSet s(Selection{1, 0, 1, 0});
  // Slots: [0, 2 | 1, 3] — committee 0 sits in slot 0, committee 1 in 2.
  ASSERT_EQ(s.at(0), 0u);
  ASSERT_EQ(s.at(2), 1u);
  s.swap_slots(0, 2);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_EQ(s.selected_count(), 2u);
  EXPECT_EQ(s.to_selection(), (Selection{0, 1, 1, 0}));
}

TEST(SwapSetTest, SamplingOnlyReturnsMembersOfTheRightSide) {
  Rng rng(1);
  SwapSet s(Selection{1, 1, 0, 0, 1, 0});
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(s.contains(s.at(s.sample_selected_slot(rng))));
    EXPECT_FALSE(s.contains(s.at(s.sample_unselected_slot(rng))));
  }
}

TEST(SwapSetTest, SamplingCoversAllCandidates) {
  Rng rng(2);
  SwapSet s(Selection{1, 1, 1, 0, 0, 0});
  std::set<std::uint32_t> seen_sel;
  std::set<std::uint32_t> seen_unsel;
  for (int i = 0; i < 500; ++i) {
    seen_sel.insert(s.at(s.sample_selected_slot(rng)));
    seen_unsel.insert(s.at(s.sample_unselected_slot(rng)));
  }
  EXPECT_EQ(seen_sel, (std::set<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(seen_unsel, (std::set<std::uint32_t>{3, 4, 5}));
}

TEST(SwapSetTest, RandomizedSequenceMatchesReferenceSet) {
  // Property test: a long random swap sequence agrees with a std::set
  // reference implementation at every step.
  Rng rng(3);
  const std::size_t n = 40;
  Selection x(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) x[i] = 1;
  SwapSet s(x);
  std::set<std::uint32_t> reference;
  for (std::size_t i = 0; i < n / 2; ++i) {
    reference.insert(static_cast<std::uint32_t>(i));
  }

  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t po = s.sample_selected_slot(rng);
    const std::uint32_t pi = s.sample_unselected_slot(rng);
    const std::uint32_t out = s.at(po);
    const std::uint32_t in = s.at(pi);
    ASSERT_TRUE(reference.count(out));
    ASSERT_FALSE(reference.count(in));
    s.swap_slots(po, pi);
    reference.erase(out);
    reference.insert(in);
    ASSERT_EQ(s.selected_count(), reference.size());
    if (step % 100 == 0) {
      const Selection snapshot = s.to_selection();
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(snapshot[i] != 0, reference.count(i) > 0) << "bit " << i;
      }
    }
  }
}

TEST(SwapSetTest, SelectedListMatchesContains) {
  SwapSet s(Selection{0, 1, 0, 1, 1});
  std::set<std::uint32_t> from_list(s.selected().begin(), s.selected().end());
  EXPECT_EQ(from_list, (std::set<std::uint32_t>{1, 3, 4}));
}

}  // namespace
