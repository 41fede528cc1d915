// Exact probability of a BDD-encoded boolean function under independent
// per-variable probabilities. Because every variable occurs at most once on
// any root-to-terminal path of an ROBDD, Shannon expansion gives the exact
// probability in one linear pass:
//
//   P(node v) = p_v * P(high) + (1 - p_v) * P(low)
//
// BddProbabilityEngine is the batched form: one dense index of the root
// shared across every query of an analysis (probability, conditionals,
// Birnbaum), plus the O(N) all-variables Birnbaum sweep that replaces the
// per-variable conditional loop (O(V*N) -> O(N)).

#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.h"

namespace ftsynth {

/// Exact P[f = true] with P[var i = true] = probabilities[i].
/// `probabilities` must cover every variable appearing in `f`.
double bdd_probability(const Bdd& bdd, Bdd::Ref f,
                       const std::vector<double>& probabilities);

/// Birnbaum importance of variable `v`: P[f | v=1] - P[f | v=0], computed
/// exactly on the BDD.
double bdd_birnbaum(const Bdd& bdd, Bdd::Ref f,
                    const std::vector<double>& probabilities, int v);

/// Exact P[f | v = value] (conditional probability with the variable
/// pinned).
double bdd_probability_given(const Bdd& bdd, Bdd::Ref f,
                             const std::vector<double>& probabilities, int v,
                             bool value);

/// Batches probability queries over one BDD under one fixed probability
/// vector. The first query on a root indexes it once: its reachable nodes
/// get dense ids (deepest level first, so every child precedes its
/// parents), a flat node table and the unconditional P[node] of every
/// node. Every later query on that root is a loop over dense arrays --
/// no hashing, no recursion, no allocation beyond one scratch vector.
///
/// Memo audit: the engine keeps no hash memo. The dense tables hold one
/// value per node, computed with the same expression as the Shannon
/// recursion, p * P[high] + (1 - p) * P[low], so every result is
/// bit-identical to a recursive evaluation (tests/test_kernels.cpp).
///
/// Reordering audit: the index records each node's level, so the engine
/// must not be used across a sift() of its diagram. (In practice the
/// probability BDD is built under a static order and never sifted.) No
/// query allocates diagram nodes.
class BddProbabilityEngine {
 public:
  /// `probabilities` must cover every variable appearing in any queried
  /// function; it is copied (queries must see a stable vector).
  BddProbabilityEngine(const Bdd& bdd, std::vector<double> probabilities);

  /// Exact P[f = true].
  double probability(Bdd::Ref f);

  /// Exact P[f | v = value]: evaluated directly on the original diagram,
  /// no cofactor is built. Nodes strictly below v's level cannot contain
  /// v, so they keep their unconditional values; only the levels at and
  /// above v are re-evaluated, as one flat loop over the index.
  double probability_given(Bdd::Ref f, int v, bool value);

  /// Birnbaum importance of `v`: P[f | v=1] - P[f | v=0].
  double birnbaum(Bdd::Ref f, int v);

  /// Birnbaum importance of EVERY variable in one combined pass: the
  /// upward values P[node] of the index and a downward sweep computing
  /// each node's reachability weight R[node] (the probability that the
  /// path from the root reaches it), then
  ///
  ///   BM(v) = sum over nodes n labelled v of R[n] * (P[high] - P[low])
  ///
  /// -- exact, equal to the conditional definition, and O(N) total
  /// instead of O(V*N). The returned vector is indexed by variable and
  /// sized like the probability vector; variables not in `f` get 0.
  /// The downward sweep runs in reverse postorder (low child first),
  /// which is structure-determined, so results are bit-identical across
  /// runs regardless of Ref numbering.
  std::vector<double> birnbaum_all(Bdd::Ref f);

  const std::vector<double>& probabilities() const noexcept {
    return probabilities_;
  }

 private:
  /// Builds the index of `f` unless it is already the indexed root.
  void index(Bdd::Ref f);
  /// Dense id of an indexed Ref: 0 and 1 are the terminals.
  std::uint32_t id_of(Bdd::Ref ref) const {
    return ref <= Bdd::kTrue ? ref : dense_[ref];
  }

  struct Node {
    int var;
    int level;
    std::uint32_t low;   ///< dense id of the low child
    std::uint32_t high;  ///< dense id of the high child
  };

  const Bdd& bdd_;
  std::vector<double> probabilities_;
  Bdd::Ref root_ = Bdd::kFalse;      ///< the indexed root (kFalse: none)
  std::vector<std::uint32_t> dense_; ///< Ref -> dense id, indexed roots only
  std::vector<Node> nodes_;          ///< by dense id; 0 and 1 unused
  std::vector<double> value_;        ///< P[node] by dense id
  std::vector<std::uint32_t> postorder_;  ///< dense ids, low child first
  std::vector<double> scratch_;      ///< conditional values by dense id
};

}  // namespace ftsynth
