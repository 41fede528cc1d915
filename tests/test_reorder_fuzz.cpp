// Cross-engine differential fuzzing for the cut-set pipeline.
//
// A seeded generator produces random AND/OR/NOT fault trees (shared
// subtrees included, so they are DAGs); every tree is analysed by all
// four engines (micsup, mocus, zbdd, bound) under every --order policy,
// with a cold and a warm cone cache, and with the set engine running on a
// thread pool. All renderings must be byte-identical: the canonical
// minimal cut-set family is order-, engine-, cache- and
// schedule-invariant. The bound engine additionally certifies a
// probability interval, which must always contain the exact BDD
// probability -- both when run to exhaustion and when stopped early at
// the default epsilon.
//
// Failures report the offending seed; rerun a single seed with
//   ctest -R 'DifferentialFuzz.*/<seed>'
// and shrink by lowering kTreesPerSeed locally. The suite name is NOT
// matched by the TSan regex (Concurrency|Parallel|Reorder) on purpose:
// the sanitizer fuzz budget belongs to the ASan/UBSan job, which runs
// the full ctest suite.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "bdd/bdd_prob.h"
#include "casestudy/synthetic.h"
#include "core/symbol.h"
#include "core/thread_pool.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"
#include "fuzz_trees.h"

namespace ftsynth {
namespace {

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, EnginesOrdersAndCachesAgree) {
  const int seed = GetParam();
  std::mt19937 rng = fuzz_rng(seed);
  for (int t = 0; t < kTreesPerSeed; ++t) {
    FaultTree tree = random_fuzz_tree(rng, seed * kTreesPerSeed + t);

    CutSetOptions options;
    CutSetAnalysis reference = compute_cut_sets(tree, options);
    ASSERT_FALSE(reference.truncated)
        << "generator produced a truncating tree; seed=" << seed
        << " tree=" << t;
    const std::string expected = reference.to_string();

    options.engine = CutSetEngine::kMocus;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
        << "mocus diverged; seed=" << seed << " tree=" << t;

    options.engine = CutSetEngine::kZbdd;
    for (OrderPolicy policy : {OrderPolicy::kStatic, OrderPolicy::kSift,
                               OrderPolicy::kSiftConverge}) {
      options.order = policy;
      EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
          << "zbdd/" << to_string(policy) << " diverged; seed=" << seed
          << " tree=" << t;
    }

    // Cone cache: populate under one policy, replay under another. The
    // stored families are canonicalised, so warm hits must not leak the
    // writing run's variable order into the replaying run's output.
    ConeCache cache(cone_keyspace(options));
    options.cone_cache = &cache;
    options.order = OrderPolicy::kSift;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
        << "zbdd cold cache diverged; seed=" << seed << " tree=" << t;
    options.order = OrderPolicy::kStatic;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
        << "zbdd warm cache diverged; seed=" << seed << " tree=" << t;
    options.cone_cache = nullptr;

    // The set engine on a pool: schedule independence.
    ThreadPool pool(4);
    CutSetOptions pooled;
    pooled.pool = &pool;
    EXPECT_EQ(compute_cut_sets(tree, pooled).to_string(), expected)
        << "pooled micsup diverged; seed=" << seed << " tree=" << t;

    // The bound engine, run to exhaustion (negative epsilon disables
    // early stopping): same canonical family, byte-identical.
    BddEncoding encoding = encode_bdd(tree);
    BddProbabilityEngine prob_engine(
        encoding.bdd, encoding.probabilities(ProbabilityOptions{}));
    const double exact = prob_engine.probability(encoding.root);

    CutSetOptions bound;
    bound.engine = CutSetEngine::kBound;
    bound.bound_epsilon = -1.0;
    CutSetAnalysis exhausted = compute_cut_sets(tree, bound);
    EXPECT_EQ(exhausted.to_string(), expected)
        << "bound exhaustion diverged; seed=" << seed << " tree=" << t;
    // Certified containment: the SDP lower bound and the BDD take
    // different arithmetic routes, so allow a 1e-9 rounding whisker.
    ASSERT_TRUE(exhausted.p_lower.has_value());
    ASSERT_TRUE(exhausted.p_upper.has_value());
    EXPECT_LE(*exhausted.p_lower, exact + 1e-9)
        << "bound lower bound above exact; seed=" << seed << " tree=" << t;
    EXPECT_GE(*exhausted.p_upper, exact - 1e-9)
        << "bound upper bound below exact; seed=" << seed << " tree=" << t;

    // And again at the default epsilon: the run may stop early, but the
    // interval must still bracket the exact probability.
    bound.bound_epsilon = 1e-6;
    CutSetAnalysis anytime = compute_cut_sets(tree, bound);
    ASSERT_TRUE(anytime.p_lower.has_value());
    ASSERT_TRUE(anytime.p_upper.has_value());
    EXPECT_LE(*anytime.p_lower, exact + 1e-9)
        << "anytime lower bound above exact; seed=" << seed << " tree=" << t;
    EXPECT_GE(*anytime.p_upper, exact - 1e-9)
        << "anytime upper bound below exact; seed=" << seed << " tree=" << t;
  }
}

// 25 seeds x 10 trees = 250 random DAGs per CI run, each analysed eleven
// ways (including two bound-engine runs checked against the exact BDD
// probability). The ISSUE acceptance floor is 200 trees.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(0, kFuzzSeeds));

}  // namespace
}  // namespace ftsynth
