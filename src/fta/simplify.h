// Fault tree normalisation.
//
// Synthesised trees are already compact (constant-folded, deduplicated,
// single-child-free), but cut-set analysis wants a stricter shape. normalise
// rebuilds a tree so that:
//
//   * NOT gates are pushed down to the leaves (negation normal form) via
//     De Morgan's laws, so every remaining gate is AND/OR and negation only
//     ever wraps a single leaf event;
//   * nested gates of the same kind are flattened (OR of OR -> one OR);
//   * duplicate children are removed;
//   * house events are folded away (true absorbs OR, disappears from AND).
//
// Sharing (the DAG property) is preserved: each (node, polarity) pair is
// rebuilt once.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "fta/fault_tree.h"

namespace ftsynth {

/// Returns a normalised copy of `tree` (see above). The input is not
/// modified. Leaf names, rates and descriptions are preserved.
FaultTree normalise(const FaultTree& tree);

/// True if no NOT gate in `tree` has a non-leaf child and no gate nests a
/// gate of the same kind (the shape normalise() guarantees).
bool is_normalised(const FaultTree& tree);

/// Structural hash-consing: rebuilds `tree` so that structurally identical
/// subtrees (same gate kind, same children, order-insensitive) become one
/// shared node. Unlike normalise() the gate structure is preserved --
/// nothing is flattened or re-polarised -- so the rendered tree keeps its
/// shape while duplicate expansions (memoisation disabled, or one key
/// resolved in several loop contexts) collapse. Gate descriptions of merged
/// nodes keep the first copy's text.
FaultTree deduplicate(const FaultTree& tree);

/// A stable 128-bit structural hash of a fault-tree cone. Two nodes -- in
/// the same tree, in different trees, or in different *processes* -- get
/// the same hash exactly when their cones are structurally identical:
/// same node kind, same event name, same quantification (rate / fixed
/// probability), same gate kind and, recursively, the same child cones
/// (order-insensitive for AND/OR/NOT, order-significant for PAND, mirroring
/// deduplicate()). No pointer or std::hash input is used, so the value is
/// a valid cross-run cache key (analysis/cache.h).
struct StructuralHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const StructuralHash& a,
                         const StructuralHash& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const StructuralHash& a,
                         const StructuralHash& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const StructuralHash& a,
                        const StructuralHash& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits (hi first); from_hex() round-trips it.
  std::string to_hex() const;
  static std::optional<StructuralHash> from_hex(std::string_view text);
};

/// Hasher for unordered containers keyed by StructuralHash. The value is
/// already uniformly mixed, so folding the lanes is enough.
struct StructuralHashHasher {
  std::size_t operator()(const StructuralHash& h) const noexcept {
    return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// Per-node structural hashes for every node reachable from the top of
/// `tree` (empty map when there is no top). One postorder pass; O(nodes +
/// edges).
std::unordered_map<const FtNode*, StructuralHash, std::hash<const FtNode*>>
structural_hashes(const FaultTree& tree);

/// Structural hash of the whole tree (its top cone); the zero hash when
/// the tree has no top.
StructuralHash structural_hash(const FaultTree& tree);

}  // namespace ftsynth
