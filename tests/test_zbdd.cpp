// Unit tests for the zero-suppressed BDD manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bdd/zbdd.h"

namespace ftsynth {
namespace {

using Family = std::set<std::vector<int>>;

Family enumerate(const Zbdd& zbdd, Zbdd::Ref a) {
  Family family;
  zbdd.for_each_set(a, [&](const std::vector<int>& set) {
    family.insert(set);
    return true;
  });
  return family;
}

TEST(Zbdd, Terminals) {
  Zbdd zbdd;
  EXPECT_EQ(enumerate(zbdd, Zbdd::kEmpty), Family{});
  EXPECT_EQ(enumerate(zbdd, Zbdd::kBase), Family{{}});
  EXPECT_EQ(zbdd.set_count(Zbdd::kEmpty), 0.0);
  EXPECT_EQ(zbdd.set_count(Zbdd::kBase), 1.0);
}

TEST(Zbdd, SinglesAreCanonical) {
  Zbdd zbdd;
  int x = zbdd.new_var();
  int y = zbdd.new_var();
  EXPECT_EQ(zbdd.single(x), zbdd.single(x));  // unique table: same node
  EXPECT_NE(zbdd.single(x), zbdd.single(y));
  EXPECT_EQ(enumerate(zbdd, zbdd.single(x)), Family{{x}});
  EXPECT_EQ(zbdd.node_count(zbdd.single(x)), 1u);
}

TEST(Zbdd, UnionIntersectionAlgebra) {
  Zbdd zbdd;
  Zbdd::Ref x = zbdd.single(zbdd.new_var());
  Zbdd::Ref y = zbdd.single(zbdd.new_var());
  Zbdd::Ref both = zbdd.set_union(x, y);
  EXPECT_EQ(zbdd.set_count(both), 2.0);
  EXPECT_EQ(zbdd.set_union(both, x), both);      // idempotent
  EXPECT_EQ(zbdd.set_union(y, x), both);         // commutative, canonical
  EXPECT_EQ(zbdd.set_intersection(both, x), x);
  EXPECT_EQ(zbdd.set_intersection(x, y), Zbdd::kEmpty);
  EXPECT_EQ(zbdd.set_union(x, Zbdd::kEmpty), x);
  EXPECT_EQ(zbdd.set_intersection(x, Zbdd::kEmpty), Zbdd::kEmpty);
}

TEST(Zbdd, ProductIsPairwiseUnion) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int c = zbdd.new_var();
  // {{a}, {b}} x {{c}} = {{a, c}, {b, c}}.
  Zbdd::Ref left = zbdd.set_union(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref prod = zbdd.product(left, zbdd.single(c));
  EXPECT_EQ(enumerate(zbdd, prod), (Family{{a, c}, {b, c}}));
  // kBase is the product identity, kEmpty annihilates.
  EXPECT_EQ(zbdd.product(left, Zbdd::kBase), left);
  EXPECT_EQ(zbdd.product(left, Zbdd::kEmpty), Zbdd::kEmpty);
  // {a} x {a} = {a}: union of equal sets, not a square.
  EXPECT_EQ(zbdd.product(zbdd.single(a), zbdd.single(a)), zbdd.single(a));
}

TEST(Zbdd, WithoutDropsSupersets) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  Zbdd::Ref ab = zbdd.product(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref family = zbdd.set_union(ab, zbdd.single(b));
  // {{a, b}, {b}} without {{a}}: {a, b} is a superset of {a}.
  EXPECT_EQ(enumerate(zbdd, zbdd.without(family, zbdd.single(a))),
            Family{{b}});
  // The empty set subsumes everything.
  EXPECT_EQ(zbdd.without(family, Zbdd::kBase), Zbdd::kEmpty);
  EXPECT_EQ(zbdd.without(family, Zbdd::kEmpty), family);
}

TEST(Zbdd, MinimalRemovesStrictSupersets) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int c = zbdd.new_var();
  Zbdd::Ref ab = zbdd.product(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref abc = zbdd.product(ab, zbdd.single(c));
  Zbdd::Ref family = zbdd.set_union(zbdd.set_union(zbdd.single(a), ab), abc);
  // {a} absorbs {a, b} and {a, b, c}.
  EXPECT_EQ(zbdd.minimal(family), zbdd.single(a));
  // Incomparable sets all survive.
  Zbdd::Ref bc = zbdd.product(zbdd.single(b), zbdd.single(c));
  Zbdd::Ref mixed = zbdd.set_union(zbdd.single(a), bc);
  EXPECT_EQ(zbdd.minimal(mixed), mixed);
}

TEST(Zbdd, EnumerationIsAscendingPerSet) {
  Zbdd zbdd;
  std::vector<int> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(zbdd.new_var());
  Zbdd::Ref chain = Zbdd::kBase;
  for (int v : vars) chain = zbdd.product(chain, zbdd.single(v));
  std::vector<std::vector<int>> seen;
  zbdd.for_each_set(chain, [&](const std::vector<int>& set) {
    seen.push_back(set);
    return true;
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(std::is_sorted(seen[0].begin(), seen[0].end()));
  EXPECT_EQ(seen[0].size(), 4u);
}

TEST(Zbdd, EnumerationStopsWhenAsked) {
  Zbdd zbdd;
  Zbdd::Ref family =
      zbdd.set_union(zbdd.single(zbdd.new_var()),
                     zbdd.single(zbdd.new_var()));
  int visits = 0;
  zbdd.for_each_set(family, [&](const std::vector<int>&) {
    ++visits;
    return false;  // stop after the first set
  });
  EXPECT_EQ(visits, 1);
}

TEST(Zbdd, NodeLimitInterrupts) {
  Zbdd zbdd;
  zbdd.set_node_limit(8);
  std::vector<int> vars;
  for (int i = 0; i < 32; ++i) vars.push_back(zbdd.new_var());
  bool interrupted = false;
  try {
    Zbdd::Ref acc = Zbdd::kEmpty;
    for (int v : vars) acc = zbdd.set_union(acc, zbdd.single(v));
  } catch (const Zbdd::Interrupt& interrupt) {
    interrupted = true;
    EXPECT_FALSE(interrupt.deadline_exceeded);
  }
  EXPECT_TRUE(interrupted);
}

TEST(Zbdd, ExpiredBudgetInterrupts) {
  Zbdd zbdd;
  Budget budget;
  budget.set_deadline_ms(0);  // already past
  zbdd.set_budget(&budget);
  bool interrupted = false;
  try {
    // Enough allocations to pass the amortised poll stride.
    Zbdd::Ref acc = Zbdd::kEmpty;
    for (int i = 0; i < 256; ++i)
      acc = zbdd.set_union(acc, zbdd.single(zbdd.new_var()));
  } catch (const Zbdd::Interrupt& interrupt) {
    interrupted = true;
    EXPECT_TRUE(interrupt.deadline_exceeded);
  }
  EXPECT_TRUE(interrupted);
}

TEST(Zbdd, RauzyMinsolOnSharedStructure) {
  // (a OR x) AND (b OR x) has minimal cut sets {x} and {a, b}; the naive
  // product also produces {a, x}, {b, x} and {x, x} = {x}.
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int x = zbdd.new_var();
  Zbdd::Ref left = zbdd.set_union(zbdd.single(a), zbdd.single(x));
  Zbdd::Ref right = zbdd.set_union(zbdd.single(b), zbdd.single(x));
  Zbdd::Ref minimal = zbdd.minimal(zbdd.product(left, right));
  EXPECT_EQ(enumerate(zbdd, minimal), (Family{{x}, {a, b}}));
}

TEST(Zbdd, ArenaGrowthKeepsNodesAndGcKeepsSurvivors) {
  // The node arena grows in blocks that never move (the first holds 4,096
  // slots): a Node reference taken before the growth must read the same
  // fields after it, and collect_garbage must leave every surviving ref
  // denoting the same family, also once freed slots are handed out again.
  constexpr int kVars = 100;
  Zbdd zbdd;
  for (int v = 0; v < kVars; ++v) zbdd.new_var();
  const Zbdd::Ref early = zbdd.product(zbdd.single(0), zbdd.single(1));
  const Zbdd::Node& held = zbdd.node(early);
  const Zbdd::Node fields = held;

  auto pair = [&](int i, int j) {
    return zbdd.product(zbdd.single(i), zbdd.single(j));
  };
  std::vector<Zbdd::Ref> survivors;
  Zbdd::Ref kept_union = Zbdd::kEmpty;
  for (int i = 0; i < kVars; ++i)
    for (int j = i + 1; j < kVars; ++j) {
      const Zbdd::Ref ref = pair(i, j);
      if ((i + j) % 7 == 0) {
        survivors.push_back(ref);
        kept_union = zbdd.set_union(kept_union, ref);
      }
    }
  ASSERT_GT(zbdd.size(), 4096u);  // past the first block boundary
  EXPECT_EQ(&held, &zbdd.node(early));
  EXPECT_EQ(held.var, fields.var);
  EXPECT_EQ(held.low, fields.low);
  EXPECT_EQ(held.high, fields.high);

  survivors.push_back(kept_union);
  std::vector<Family> families;
  for (Zbdd::Ref ref : survivors) families.push_back(enumerate(zbdd, ref));
  const std::size_t before = zbdd.table_size();
  zbdd.collect_garbage(survivors);
  EXPECT_LT(zbdd.table_size(), before);
  EXPECT_EQ(zbdd.table_size(), zbdd.live_size(survivors));
  // Refill the freed slots with other families, then re-check.
  for (int i = 0; i < kVars; ++i)
    for (int j = i + 1; j < kVars; ++j)
      if ((i + j) % 7 != 0) pair(i, j);
  for (std::size_t k = 0; k < survivors.size(); ++k)
    EXPECT_EQ(enumerate(zbdd, survivors[k]), families[k]) << k;
  // Canonicity survives too: rebuilding a kept family finds its node.
  EXPECT_EQ(pair(0, 7), survivors.front());
}

}  // namespace
}  // namespace ftsynth
