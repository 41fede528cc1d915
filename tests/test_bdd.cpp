// Unit tests for the BDD engine and its probability evaluation.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/bdd_prob.h"

namespace ftsynth {
namespace {

TEST(Bdd, TerminalsAndVariables) {
  Bdd bdd;
  EXPECT_TRUE(bdd.is_false(Bdd::kFalse));
  EXPECT_TRUE(bdd.is_true(Bdd::kTrue));
  int x = bdd.new_var();
  Bdd::Ref fx = bdd.var(x);
  EXPECT_EQ(bdd.var(x), fx);  // unique table: same node
  EXPECT_EQ(bdd.apply_not(fx), bdd.nvar(x));
  EXPECT_EQ(bdd.node_count(fx), 1u);
}

TEST(Bdd, BooleanIdentities) {
  Bdd bdd;
  Bdd::Ref x = bdd.var(bdd.new_var());
  Bdd::Ref y = bdd.var(bdd.new_var());
  EXPECT_EQ(bdd.apply_and(x, x), x);
  EXPECT_EQ(bdd.apply_or(x, x), x);
  EXPECT_EQ(bdd.apply_and(x, bdd.apply_not(x)), Bdd::kFalse);
  EXPECT_EQ(bdd.apply_or(x, bdd.apply_not(x)), Bdd::kTrue);
  EXPECT_EQ(bdd.apply_xor(x, x), Bdd::kFalse);
  EXPECT_EQ(bdd.apply_and(x, y), bdd.apply_and(y, x));
  // De Morgan.
  EXPECT_EQ(bdd.apply_not(bdd.apply_and(x, y)),
            bdd.apply_or(bdd.apply_not(x), bdd.apply_not(y)));
  // ite(x, y, 0) == x AND y.
  EXPECT_EQ(bdd.ite(x, y, Bdd::kFalse), bdd.apply_and(x, y));
}

TEST(Bdd, EvaluateAgainstTruthTable) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  // f = (x AND y) OR (NOT x AND z)
  Bdd::Ref f = bdd.apply_or(
      bdd.apply_and(bdd.var(vx), bdd.var(vy)),
      bdd.apply_and(bdd.nvar(vx), bdd.var(vz)));
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> assignment{(bits & 1) != 0, (bits & 2) != 0,
                                 (bits & 4) != 0};
    bool expected = (assignment[0] && assignment[1]) ||
                    (!assignment[0] && assignment[2]);
    EXPECT_EQ(bdd.evaluate(f, assignment), expected) << bits;
  }
}

TEST(Bdd, SatCount) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  (void)vz;
  Bdd::Ref f = bdd.apply_or(bdd.var(vx), bdd.var(vy));
  // x OR y over three variables: 6 of 8 assignments.
  EXPECT_DOUBLE_EQ(bdd.sat_count(f), 6.0);
  EXPECT_DOUBLE_EQ(bdd.sat_count(Bdd::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(bdd.sat_count(Bdd::kFalse), 0.0);
}

TEST(Bdd, ProbabilityMatchesClosedForms) {
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  std::vector<double> p{0.1, 0.2};
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_and(bdd.var(vx), bdd.var(vy)), p),
              0.1 * 0.2, 1e-15);
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_or(bdd.var(vx), bdd.var(vy)), p),
              0.1 + 0.2 - 0.1 * 0.2, 1e-15);
  EXPECT_NEAR(bdd_probability(bdd, bdd.apply_not(bdd.var(vx)), p), 0.9,
              1e-15);
  EXPECT_DOUBLE_EQ(bdd_probability(bdd, Bdd::kTrue, p), 1.0);
  EXPECT_DOUBLE_EQ(bdd_probability(bdd, Bdd::kFalse, p), 0.0);
}

TEST(Bdd, ProbabilityHandlesSharedEventsExactly) {
  // f = (x AND y) OR (x AND z): P = p_x * (p_y + p_z - p_y p_z).
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  int vz = bdd.new_var();
  Bdd::Ref f = bdd.apply_or(bdd.apply_and(bdd.var(vx), bdd.var(vy)),
                            bdd.apply_and(bdd.var(vx), bdd.var(vz)));
  std::vector<double> p{0.5, 0.3, 0.4};
  EXPECT_NEAR(bdd_probability(bdd, f, p), 0.5 * (0.3 + 0.4 - 0.12), 1e-15);
}

TEST(Bdd, BirnbaumImportance) {
  // f = x OR y: dP/dp_x = 1 - p_y.
  Bdd bdd;
  int vx = bdd.new_var();
  int vy = bdd.new_var();
  Bdd::Ref f = bdd.apply_or(bdd.var(vx), bdd.var(vy));
  std::vector<double> p{0.25, 0.4};
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, vx), 1.0 - 0.4, 1e-15);
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, vy), 1.0 - 0.25, 1e-15);
  // f = x AND y: dP/dp_x = p_y.
  Bdd::Ref g = bdd.apply_and(bdd.var(vx), bdd.var(vy));
  EXPECT_NEAR(bdd_birnbaum(bdd, g, p, vx), 0.4, 1e-15);
}

/// Property sweep: random 6-variable formulas; BDD probability must match
/// brute-force enumeration.
class BddRandomFormula : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomFormula, ProbabilityMatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  Bdd bdd;
  const int n = 6;
  for (int i = 0; i < n; ++i) bdd.new_var();

  // Build a random formula bottom-up from literals.
  std::vector<Bdd::Ref> pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back(bdd.var(i));
    pool.push_back(bdd.nvar(i));
  }
  auto pick = [&](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
  };
  for (int step = 0; step < 12; ++step) {
    Bdd::Ref a = pool[pick(pool.size())];
    Bdd::Ref b = pool[pick(pool.size())];
    pool.push_back(uniform(rng) < 0.5 ? bdd.apply_and(a, b)
                                      : bdd.apply_or(a, b));
  }
  Bdd::Ref f = pool.back();

  std::vector<double> p(n);
  for (double& value : p) value = uniform(rng);

  double brute = 0.0;
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::vector<bool> assignment(n);
    double weight = 1.0;
    for (int i = 0; i < n; ++i) {
      assignment[static_cast<std::size_t>(i)] = (bits >> i) & 1;
      weight *= assignment[static_cast<std::size_t>(i)] ? p[static_cast<std::size_t>(i)]
                                                        : 1.0 - p[static_cast<std::size_t>(i)];
    }
    if (bdd.evaluate(f, assignment)) brute += weight;
  }
  EXPECT_NEAR(bdd_probability(bdd, f, p), brute, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomFormula, ::testing::Range(0, 25));

TEST(BddOrder, ExplicitOrderPreservesSemantics) {
  // The same function under the identity and a reversed order: identical
  // truth tables and sat counts, different (but valid) diagrams.
  auto build = [](Bdd& bdd) {
    // f = (x0 AND x2) OR (x1 AND NOT x2)
    return bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(2)),
                        bdd.apply_and(bdd.var(1), bdd.nvar(2)));
  };
  Bdd plain;
  for (int i = 0; i < 3; ++i) plain.new_var();
  Bdd::Ref f_plain = build(plain);

  Bdd reordered;
  for (int i = 0; i < 3; ++i) reordered.new_var();
  reordered.set_order({2, 1, 0});
  EXPECT_EQ(reordered.level_of(2), 0);
  EXPECT_EQ(reordered.level_of(0), 2);
  Bdd::Ref f_reordered = build(reordered);

  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> assignment{(bits & 1) != 0, (bits & 2) != 0,
                                 (bits & 4) != 0};
    EXPECT_EQ(plain.evaluate(f_plain, assignment),
              reordered.evaluate(f_reordered, assignment))
        << bits;
  }
  EXPECT_EQ(plain.sat_count(f_plain), reordered.sat_count(f_reordered));
  // Under the reversed order the root must decide the variable at level 0.
  EXPECT_EQ(reordered.node(f_reordered).var, 2);
}

TEST(BddOrder, RestrictionsFollowTheInstalledOrder) {
  Bdd bdd;
  for (int i = 0; i < 3; ++i) bdd.new_var();
  bdd.set_order({1, 2, 0});
  // f = (x0 AND x1) OR x2.
  Bdd::Ref f = bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(1)),
                            bdd.var(2));
  std::vector<double> p{0.5, 0.25, 0.125};
  // Birnbaum importance of x0: P(f | x0=1) - P(f | x0=0)
  //   = (p1 + p2 - p1 p2) - p2 = p1 (1 - p2).
  EXPECT_NEAR(bdd_birnbaum(bdd, f, p, 0), 0.25 * (1.0 - 0.125), 1e-12);
  EXPECT_NEAR(bdd_probability_given(bdd, f, p, 2, true), 1.0, 1e-12);
  EXPECT_NEAR(bdd_probability_given(bdd, f, p, 2, false), 0.5 * 0.25,
              1e-12);
}

TEST(BddOrder, RejectsBadOrders) {
  Bdd bdd;
  for (int i = 0; i < 3; ++i) bdd.new_var();
  EXPECT_ANY_THROW(bdd.set_order({0, 1}));     // wrong size
  EXPECT_ANY_THROW(bdd.set_order({0, 1, 1}));  // not a permutation
  Bdd late;
  late.new_var();
  late.var(0);  // a node exists: too late to reorder
  EXPECT_ANY_THROW(late.set_order({0}));
}

TEST(Bdd, ArenaGrowthKeepsNodesAndGcKeepsSurvivors) {
  // The node arena grows in blocks that never move (the first holds 4,096
  // slots): a Node reference taken before the growth must read the same
  // fields after it, and collect_garbage must leave every surviving ref
  // denoting the same function, also once freed slots are handed out again.
  constexpr int kVars = 100;
  Bdd bdd;
  for (int v = 0; v < kVars; ++v) bdd.new_var();
  const Bdd::Ref early = bdd.apply_and(bdd.var(0), bdd.var(1));
  const Bdd::Node& held = bdd.node(early);
  const Bdd::Node fields = held;

  auto conj = [&](int i, int j) {
    return bdd.apply_and(bdd.var(i), bdd.var(j));
  };
  std::vector<Bdd::Ref> survivors;
  Bdd::Ref kept_or = Bdd::kFalse;
  for (int i = 0; i < kVars; ++i)
    for (int j = i + 1; j < kVars; ++j) {
      const Bdd::Ref ref = conj(i, j);
      if ((i + j) % 7 == 0) {
        survivors.push_back(ref);
        kept_or = bdd.apply_or(kept_or, ref);
      }
    }
  ASSERT_GT(bdd.size(), 4096u);  // past the first block boundary
  EXPECT_EQ(&held, &bdd.node(early));
  EXPECT_EQ(held.var, fields.var);
  EXPECT_EQ(held.low, fields.low);
  EXPECT_EQ(held.high, fields.high);

  survivors.push_back(kept_or);
  // A function's fingerprint: its value under fixed random assignments.
  std::mt19937 rng(7);
  std::vector<std::vector<bool>> assignments(64, std::vector<bool>(kVars));
  for (auto& assignment : assignments)
    for (int v = 0; v < kVars; ++v) assignment[v] = (rng() & 1) != 0;
  auto fingerprint = [&](Bdd::Ref ref) {
    std::vector<bool> values;
    for (const auto& assignment : assignments)
      values.push_back(bdd.evaluate(ref, assignment));
    return values;
  };
  std::vector<std::vector<bool>> before;
  std::vector<double> counts;
  for (Bdd::Ref ref : survivors) {
    before.push_back(fingerprint(ref));
    counts.push_back(bdd.sat_count(ref));
  }
  const std::size_t table = bdd.table_size();
  bdd.collect_garbage(survivors);
  EXPECT_LT(bdd.table_size(), table);
  EXPECT_EQ(bdd.table_size(), bdd.live_size(survivors));
  // Refill the freed slots with other functions, then re-check.
  for (int i = 0; i < kVars; ++i)
    for (int j = i + 1; j < kVars; ++j)
      if ((i + j) % 7 != 0) conj(i, j);
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    EXPECT_EQ(fingerprint(survivors[k]), before[k]) << k;
    EXPECT_EQ(bdd.sat_count(survivors[k]), counts[k]) << k;
  }
  // Canonicity survives too: rebuilding a kept function finds its node.
  EXPECT_EQ(conj(0, 7), survivors.front());
}

}  // namespace
}  // namespace ftsynth
