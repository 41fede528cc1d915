#include "analysis/cutsets.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "analysis/cache.h"
#include "analysis/ordering.h"
#include "analysis/probability.h"
#include "bdd/zbdd.h"
#include "bound/frontier.h"
#include "bound/pdag.h"
#include "core/error.h"
#include "fta/simplify.h"

namespace ftsynth {

std::size_t CutSetAnalysis::min_order() const noexcept {
  return cut_sets.empty() ? 0 : cut_sets.front().size();
}

std::vector<const CutSet*> CutSetAnalysis::of_order(std::size_t order) const {
  std::vector<const CutSet*> out;
  for (const CutSet& cs : cut_sets) {
    if (cs.size() == order) out.push_back(&cs);
  }
  return out;
}

std::string CutSetAnalysis::to_string() const {
  std::string out;
  for (const CutSet& cs : cut_sets) {
    out += "{";
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i != 0) out += ", ";
      if (cs[i].negated) out += "NOT ";
      out += cs[i].event->name().view();
    }
    out += "}\n";
  }
  if (deadline_exceeded) out += "(deadline exceeded: partial result)\n";
  else if (truncated) out += "(truncated: limits reached)\n";
  return out;
}

namespace {

// -- Flat set families ------------------------------------------------------
//
// Every (event, polarity) literal of the tree under analysis is interned
// once into a dense id (2 * event_rank + negated, event ranks in
// depth-first occurrence order -- the same order the decision diagrams
// use), so a working cut set is a fixed-width row of 64-bit words. A
// Family keeps a whole list of sets as one contiguous rows x words array
// plus two per-row columns that make the subsumption hot loop cheap:
//
//   * count: cached popcount -- a set can only be subsumed by a set with
//     strictly fewer literals (equal counts subsume only on equality,
//     which deduplication removes first), so minimisation buckets by it;
//   * signature: the OR-fold of the row's words -- `(a.sig & ~b.sig) != 0`
//     disproves "a subset of b" with one AND-NOT before the word loop.
//
// Polarities of one event are the adjacent bit pair (2k, 2k + 1), which
// never straddles a word, so a row holding both is found with one
// shift-and-mask per word.

constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

bool contradictory(const std::uint64_t* row, std::size_t words) noexcept {
  std::uint64_t clash = 0;
  for (std::size_t w = 0; w < words; ++w) clash |= row[w] & (row[w] >> 1);
  return (clash & kEvenBits) != 0;
}

class Family {
 public:
  explicit Family(std::size_t words) : words_(words) {}

  std::size_t words() const noexcept { return words_; }
  std::size_t size() const noexcept { return counts_.size(); }
  bool empty() const noexcept { return counts_.empty(); }
  const std::uint64_t* row(std::size_t i) const noexcept {
    return bits_.data() + i * words_;
  }
  std::uint32_t count(std::size_t i) const noexcept { return counts_[i]; }
  std::uint64_t signature(std::size_t i) const noexcept {
    return signatures_[i];
  }
  bool contradictory(std::size_t i) const noexcept {
    return ftsynth::contradictory(row(i), words_);
  }

  void reserve(std::size_t rows) {
    bits_.reserve(rows * words_);
    counts_.reserve(rows);
    signatures_.reserve(rows);
  }
  void clear() noexcept { truncate(0); }
  /// Keeps the first `rows` rows.
  void truncate(std::size_t rows) {
    bits_.resize(rows * words_);
    counts_.resize(rows);
    signatures_.resize(rows);
  }

  /// Appends the set of `literals` (ids below words() * 64); repeats
  /// collapse.
  void push_literals(std::span<const int> literals) {
    std::uint64_t* out = open_row();
    std::uint64_t signature = 0;
    for (const int literal : literals) {
      const std::uint64_t bit = 1ULL << (literal & 63);
      out[static_cast<std::size_t>(literal) >> 6] |= bit;
      signature |= bit;
    }
    close_row(out, signature);
  }

  /// Appends a row given as `words()` raw words.
  void push_words(const std::uint64_t* words) {
    std::uint64_t* out = open_row();
    std::uint64_t signature = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      out[w] = words[w];
      signature |= words[w];
    }
    close_row(out, signature);
  }

  /// Appends row `i` of `other`, a different family of the same width.
  void push_row(const Family& other, std::size_t i) {
    bits_.insert(bits_.end(), other.row(i), other.row(i) + words_);
    counts_.push_back(other.counts_[i]);
    signatures_.push_back(other.signatures_[i]);
  }

  /// Appends every row of `other`, a different family of the same width.
  void append(const Family& other) {
    bits_.insert(bits_.end(), other.bits_.begin(), other.bits_.end());
    counts_.insert(counts_.end(), other.counts_.begin(), other.counts_.end());
    signatures_.insert(signatures_.end(), other.signatures_.begin(),
                       other.signatures_.end());
  }

  /// Appends the union of row `i` of `a` and row `j` of `b` -- the cut
  /// set of an AND -- unless it holds both polarities of an event. Neither
  /// operand may be this family.
  void push_union(const Family& a, std::size_t i, const Family& b,
                  std::size_t j) {
    const std::size_t base = bits_.size();
    bits_.resize(base + words_);
    std::uint64_t* out = bits_.data() + base;
    const std::uint64_t* x = a.row(i);
    const std::uint64_t* y = b.row(j);
    std::uint32_t count = 0;
    std::uint64_t clash = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t word = x[w] | y[w];
      out[w] = word;
      count += static_cast<std::uint32_t>(std::popcount(word));
      clash |= word & (word >> 1);
    }
    if ((clash & kEvenBits) != 0) {
      bits_.resize(base);
      return;
    }
    counts_.push_back(count);
    signatures_.push_back(a.signatures_[i] | b.signatures_[j]);
  }

  /// Drops the rows holding more than `max_count` literals, keeping the
  /// order of the rest. Returns true when a row was dropped.
  bool drop_larger_than(std::size_t max_count) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (counts_[i] > max_count) continue;
      if (out != i) {
        std::copy(row(i), row(i) + words_, bits_.begin() + out * words_);
        counts_[out] = counts_[i];
        signatures_[out] = signatures_[i];
      }
      ++out;
    }
    const bool dropped = out != size();
    truncate(out);
    return dropped;
  }

  /// Reorders the rows canonically: by popcount, then by the ascending
  /// literal sequence. For equal counts, lexicographic order of the
  /// sorted id lists is decided by the lowest differing bit: the common
  /// literals below it are shared, so whichever set owns that bit has the
  /// smaller id there. Only where the order is observable -- a truncating
  /// limit keeps a prefix, a cone entry or a listing is emitted in order
  /// -- is a family sorted; finish() canonicalises by name keys anyway.
  void sort_canonical() {
    const auto less = [&](std::size_t a, std::size_t b) {
      if (counts_[a] != counts_[b]) return counts_[a] < counts_[b];
      const std::uint64_t* x = row(a);
      const std::uint64_t* y = row(b);
      for (std::size_t w = 0; w < words_; ++w) {
        if (x[w] == y[w]) continue;
        const std::uint64_t diff = x[w] ^ y[w];
        return (x[w] & (diff & -diff)) != 0;
      }
      return false;
    };
    // A truncating clamp right after a sort finds its rows in order.
    std::size_t i = 1;
    while (i < size() && !less(i, i - 1)) ++i;
    if (i >= size()) return;
    std::vector<std::uint32_t> order(size());
    for (std::size_t k = 0; k < order.size(); ++k)
      order[k] = static_cast<std::uint32_t>(k);
    std::sort(order.begin(), order.end(), less);
    Family sorted(words_);
    sorted.reserve(size());
    for (const std::uint32_t i : order) sorted.push_row(*this, i);
    *this = std::move(sorted);
  }

  /// Calls `visit(literal)` for each literal of row `i`, ascending.
  template <typename Visit>
  void for_each_literal(std::size_t i, Visit&& visit) const {
    const std::uint64_t* words = row(i);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        visit(static_cast<int>(w * 64) + std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::uint64_t* open_row() {
    bits_.resize(bits_.size() + words_, 0);
    return bits_.data() + bits_.size() - words_;
  }
  void close_row(const std::uint64_t* out, std::uint64_t signature) {
    std::uint32_t count = 0;
    for (std::size_t w = 0; w < words_; ++w)
      count += static_cast<std::uint32_t>(std::popcount(out[w]));
    counts_.push_back(count);
    signatures_.push_back(signature);
  }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;         ///< rows x words, row-major
  std::vector<std::uint32_t> counts_;       ///< popcount per row
  std::vector<std::uint64_t> signatures_;   ///< OR of the row's words
};

/// Scratch kept across minimise() calls of one analysis, so the per-call
/// cost is proportional to the family, not to the literal universe.
struct MinimiseScratch {
  struct IndexEntry {
    std::uint32_t count;      ///< popcount of the kept row
    std::uint32_t index;      ///< row in the kept family
    std::uint64_t signature;  ///< signature of the kept row
  };
  std::vector<std::uint32_t> level_begin;  ///< popcount -> first position
  std::vector<std::uint32_t> level_fill;   ///< placement cursor per level
  std::vector<std::uint32_t> order;        ///< row ids by popcount, stable
  std::vector<std::uint64_t> slots;        ///< dedup hash table
  std::vector<std::vector<IndexEntry>> buckets;  ///< by lowest literal
};

std::uint64_t row_hash(const std::uint64_t* row, std::size_t words) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t w = 0; w < words; ++w) {
    h ^= row[w];
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
  }
  return h;
}

/// Removes non-minimal, duplicate and contradictory sets. The survivors
/// come out by ascending popcount and, within one count, in input order
/// (sort_canonical() gives the canonical order where it is observable).
/// The pass works level by level, and three observations keep it far
/// below the naive quadratic scan:
///
///   * popcount levels -- a counting sort groups the rows by popcount, and
///     a row can only be subsumed by a survivor with strictly fewer
///     literals, so no comparison sort of the family is ever needed;
///   * hash dedup -- duplicates share a level, so a hash table over the
///     level's rows drops them before any subsumption test;
///   * lowest-literal indexing -- a subsumer is a subset of the candidate,
///     so its lowest literal is one of the candidate's own literals: the
///     survivors are bucketed by lowest literal id and a candidate with k
///     literals is screened against just those k buckets. Bucket entries
///     carry (count, signature), are appended in ascending count order
///     and are scanned only up to the candidate's count.
///
/// The subsumption screen is quadratic in the worst case, so
/// `deadline_hit()` is probed per candidate; on expiry the survivors so
/// far are returned (a partial, flagged result).
template <typename Deadline>
Family minimise(const Family& sets, MinimiseScratch& scratch,
                Deadline&& deadline_hit) {
  const std::size_t words = sets.words();
  Family kept(words);
  if (sets.empty()) return kept;

  // Counting sort by popcount; contradictory rows never enter a level.
  std::uint32_t max_count = 0;
  for (std::size_t i = 0; i < sets.size(); ++i)
    max_count = std::max(max_count, sets.count(i));
  const std::size_t levels = std::size_t{max_count} + 1;
  std::vector<std::uint32_t>& begin = scratch.level_begin;
  begin.assign(levels + 1, 0);
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (!sets.contradictory(i)) ++begin[sets.count(i) + 1];
  for (std::size_t c = 1; c <= levels; ++c) begin[c] += begin[c - 1];
  scratch.level_fill.assign(begin.begin(), begin.end() - 1);
  scratch.order.resize(begin[levels]);
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (!sets.contradictory(i))
      scratch.order[scratch.level_fill[sets.count(i)]++] =
          static_cast<std::uint32_t>(i);
  if (scratch.order.empty()) return kept;
  // The empty set absorbs every other set. It also has no lowest literal
  // to index under, so it gets its own exit rather than a bucket.
  if (begin[1] > 0) {
    kept.push_row(sets, scratch.order[0]);
    return kept;
  }

  if (scratch.buckets.size() < words * 64) scratch.buckets.resize(words * 64);
  for (std::size_t b = 0; b < words * 64; ++b) scratch.buckets[b].clear();
  // True when some survivor subsumes row i. Only the buckets of the
  // row's own literals can hold one.
  const auto screened_out = [&](std::size_t i) {
    const std::uint64_t* candidate = sets.row(i);
    const std::uint32_t count = sets.count(i);
    const std::uint64_t not_sig = ~sets.signature(i);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = candidate[w];
      while (bits != 0) {
        const std::size_t literal =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (const MinimiseScratch::IndexEntry& entry :
             scratch.buckets[literal]) {
          if (entry.count >= count) break;
          if ((entry.signature & not_sig) != 0) continue;
          const std::uint64_t* small = kept.row(entry.index);
          bool subset = true;
          for (std::size_t v = 0; v < words && subset; ++v)
            subset = (small[v] & ~candidate[v]) == 0;
          if (subset) return true;
        }
      }
    }
    return false;
  };

  // Dedup slots hold (high hash half << 32 | row), so most probes that
  // meet another row are settled without reading it.
  constexpr std::uint64_t kFree = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t c = 1; c < levels; ++c) {
    const std::size_t first = begin[c];
    const std::size_t last = begin[c + 1];
    if (first == last) continue;
    std::size_t capacity = 2;
    while (capacity < 2 * (last - first)) capacity *= 2;
    scratch.slots.assign(capacity, kFree);
    for (std::size_t p = first; p < last; ++p) {
      if (deadline_hit()) return kept;
      const std::uint32_t i = scratch.order[p];
      const std::uint64_t* candidate = sets.row(i);
      const std::uint64_t hash = row_hash(candidate, words);
      const std::uint64_t tag = hash & ~0xFFFFFFFFULL;
      std::size_t slot = hash & (capacity - 1);
      bool duplicate = false;
      while (scratch.slots[slot] != kFree) {
        const std::uint64_t entry = scratch.slots[slot];
        if ((entry & ~0xFFFFFFFFULL) == tag &&
            std::equal(candidate, candidate + words,
                       sets.row(entry & 0xFFFFFFFFULL))) {
          duplicate = true;
          break;
        }
        slot = (slot + 1) & (capacity - 1);
      }
      if (duplicate) continue;
      scratch.slots[slot] = tag | i;
      if (screened_out(i)) continue;
      std::size_t w = 0;
      while (candidate[w] == 0) ++w;
      const std::size_t lowest =
          w * 64 + static_cast<std::size_t>(std::countr_zero(candidate[w]));
      scratch.buckets[lowest].push_back(
          {sets.count(i), static_cast<std::uint32_t>(kept.size()),
           sets.signature(i)});
      kept.push_row(sets, i);
    }
  }
  return kept;
}

/// Shared bookkeeping: the literal interning table, the canonical-order
/// table, limit tracking and the minimisation scratch.
class Context {
 public:
  explicit Context(const CutSetOptions& options)
      : options_(options), budget_(options.budget) {}

  /// Interns `events` (their rank is their listing index); every
  /// literal_id() lookup and row width derives from this table, so it
  /// must run before any family is built. Pass the depth-first occurrence
  /// order (analysis/ordering.h) for the canonical id assignment.
  ///
  /// Also ranks the events by name once and looks each one up once in
  /// `original`, the tree the caller passed in (the engines may run on a
  /// normalised copy), so finish() orders and emits sets on integer keys
  /// alone. Event names are unique per tree, so rank order is name order.
  void intern(std::vector<const FtNode*> events, const FaultTree& original) {
    events_ = std::move(events);
    event_index_.reserve(events_.size());
    name_index_.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      event_index_.emplace(events_[i], static_cast<int>(i));
      name_index_.emplace(events_[i]->name(), static_cast<int>(i));
    }
    words_ = (2 * events_.size() + 63) / 64;

    by_name_.resize(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i)
      by_name_[i] = static_cast<std::uint32_t>(i);
    std::sort(by_name_.begin(), by_name_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return events_[a]->name() < events_[b]->name();
              });
    key_of_.resize(2 * events_.size());
    leaves_.resize(events_.size());
    for (std::size_t rank = 0; rank < by_name_.size(); ++rank) {
      const std::size_t i = by_name_[rank];
      key_of_[2 * i] = static_cast<std::uint32_t>(2 * rank);
      key_of_[2 * i + 1] = static_cast<std::uint32_t>(2 * rank + 1);
      leaves_[rank] = original.find_event(events_[i]->name());
    }
  }

  /// Amortised deadline probe for the engines' hot loops. Once it fires
  /// the run is marked partial and every later probe returns true
  /// immediately, so the engines unwind fast.
  bool deadline_hit() noexcept {
    if (deadline_exceeded_) return true;
    if (!budget_.poll()) return false;
    mark_deadline();
    return true;
  }

  /// Latches the deadline flags without probing (the ZBDD engine learns of
  /// expiry from the manager's interrupt, not from its own probe).
  void mark_deadline() noexcept {
    deadline_exceeded_ = true;
    truncated_ = true;
  }

  int literal_id(const FtNode* event, bool negated) const {
    auto it = event_index_.find(event);
    check_internal(it != event_index_.end(),
                   "cut-set literal was not interned");
    return it->second * 2 + (negated ? 1 : 0);
  }

  /// Literal id for an interned event name, or -1 when the name is not in
  /// this analysis's universe (a cone-cache entry that cannot be mapped).
  int literal_id_by_name(Symbol name, bool negated) const {
    auto it = name_index_.find(name);
    if (it == name_index_.end()) return -1;
    return it->second * 2 + (negated ? 1 : 0);
  }

  const FtNode* event_of(int literal) const {
    return events_[static_cast<std::size_t>(literal / 2)];
  }

  /// True while no limit or deadline has bitten: results so far are exact,
  /// so they are safe to publish into a cone cache.
  bool clean() const noexcept { return !truncated_ && !deadline_exceeded_; }

  /// An empty family over this analysis's literal universe.
  Family family() const { return Family(words_); }

  /// The family holding the one set {literal}.
  Family literal_family(int literal) const {
    Family family(words_);
    family.push_literals({&literal, 1});
    return family;
  }

  Family minimise(const Family& sets) {
    return ftsynth::minimise(sets, scratch_, [this] { return deadline_hit(); });
  }

  /// Applies the order/count limits; sets the truncation flag when they
  /// bite. Keeps the canonically smallest sets when over the count limit.
  Family clamp(Family sets) {
    if (sets.drop_larger_than(options_.max_order)) truncated_ = true;
    if (sets.size() > options_.max_sets) {
      truncated_ = true;
      sets.sort_canonical();
      sets.truncate(options_.max_sets);
    }
    return sets;
  }

  /// Canonical result: literals sorted by (event name, polarity), sets by
  /// (size, literals). Each set becomes its sorted keys 2 * rank + negated
  /// (a flat array), the sets are ordered on those keys, and every literal
  /// is emitted pointing at the original tree's leaf. The row order of
  /// `sets` does not matter.
  CutSetAnalysis finish(const Family& sets) const {
    CutSetAnalysis analysis;
    analysis.truncated = truncated_;
    analysis.deadline_exceeded = deadline_exceeded_;
    analysis.peak_sets = peak_sets_;
    std::size_t literals = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) literals += sets.count(i);
    std::vector<std::uint32_t> keys;
    keys.reserve(literals);
    std::vector<std::size_t> offsets;
    offsets.reserve(sets.size() + 1);
    offsets.push_back(0);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::size_t begin = keys.size();
      sets.for_each_literal(i, [&](int literal) {
        keys.push_back(key_of_[static_cast<std::size_t>(literal)]);
      });
      std::sort(keys.begin() + static_cast<std::ptrdiff_t>(begin), keys.end());
      offsets.push_back(keys.size());
    }

    // Sets ordered by (size, keys): a counting sort by size, then within
    // each size an LSD radix sort -- one stable counting pass per key
    // position, last position first, over key values below
    // key_of_.size(). The sets are distinct, so this is the one order any
    // comparison sort on (size, keys) would produce.
    const std::size_t n = offsets.size() - 1;
    std::size_t max_size = 0;
    for (std::size_t i = 0; i < n; ++i)
      max_size = std::max(max_size, offsets[i + 1] - offsets[i]);
    std::vector<std::size_t> size_begin(max_size + 2, 0);
    for (std::size_t i = 0; i < n; ++i)
      ++size_begin[offsets[i + 1] - offsets[i] + 1];
    for (std::size_t k = 1; k < size_begin.size(); ++k)
      size_begin[k] += size_begin[k - 1];
    std::vector<std::uint32_t> order(n);
    {
      std::vector<std::size_t> fill(size_begin.begin(), size_begin.end() - 1);
      for (std::size_t i = 0; i < n; ++i)
        order[fill[offsets[i + 1] - offsets[i]]++] =
            static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> passed(n);
    std::vector<std::size_t> bins(key_of_.size() + 1);
    for (std::size_t size = 1; size <= max_size; ++size) {
      const std::size_t first = size_begin[size];
      const std::size_t last = size_begin[size + 1];
      if (last - first < 2) continue;
      for (std::size_t pos = size; pos-- > 0;) {
        std::fill(bins.begin(), bins.end(), 0);
        for (std::size_t p = first; p < last; ++p)
          ++bins[keys[offsets[order[p]] + pos] + 1];
        for (std::size_t b = 1; b < bins.size(); ++b) bins[b] += bins[b - 1];
        for (std::size_t p = first; p < last; ++p) {
          const std::uint32_t set = order[p];
          passed[first + bins[keys[offsets[set] + pos]]++] = set;
        }
        std::copy(passed.begin() + static_cast<std::ptrdiff_t>(first),
                  passed.begin() + static_cast<std::ptrdiff_t>(last),
                  order.begin() + static_cast<std::ptrdiff_t>(first));
      }
    }

    analysis.cut_sets.reserve(order.size());
    for (const std::uint32_t index : order) {
      CutSet cs;
      cs.reserve(offsets[index + 1] - offsets[index]);
      for (std::size_t k = offsets[index]; k < offsets[index + 1]; ++k) {
        const std::uint32_t rank = keys[k] >> 1;
        const FtNode* leaf = leaves_[rank];
        if (leaf == nullptr) [[unlikely]]
          invented_leaf(rank);
        cs.push_back({leaf, (keys[k] & 1) != 0});
      }
      analysis.cut_sets.push_back(std::move(cs));
    }
    return analysis;
  }

  /// The original tree's leaf behind interned event `index` (null for a
  /// leaf the normalised copy invented).
  const FtNode* original_leaf(std::size_t index) const {
    return leaves_[key_of_[2 * index] >> 1];
  }

  void track_peak(std::size_t size) noexcept {
    peak_sets_ = std::max(peak_sets_, size);
  }
  void mark_truncated() noexcept { truncated_ = true; }
  const CutSetOptions& options() const noexcept { return options_; }

 private:
  const CutSetOptions& options_;
  Budget budget_;  ///< run-local copy (amortised deadline tick)
  std::unordered_map<const FtNode*, int> event_index_;
  std::unordered_map<Symbol, int> name_index_;
  /// The engines run on a temporary normalised copy of the tree; a
  /// finished literal whose name the original lacks is a bug.
  [[noreturn]] void invented_leaf(std::uint32_t rank) const {
    throw Error(ErrorKind::kInternal,
                "normalised tree invented leaf '" +
                    events_[by_name_[rank]]->name().str() + "'");
  }

  std::vector<const FtNode*> events_;
  std::vector<std::uint32_t> by_name_;  ///< rank -> interned index
  std::vector<std::uint32_t> key_of_;   ///< literal id -> 2 * rank + negated
  std::vector<const FtNode*> leaves_;   ///< rank -> original tree's leaf
  std::size_t words_ = 0;
  bool truncated_ = false;
  bool deadline_exceeded_ = false;
  std::size_t peak_sets_ = 0;
  MinimiseScratch scratch_;
};

// -- Cone-cache bridge ---------------------------------------------------------
//
// Cached families are tree-independent (event name + polarity); the
// helpers below translate between them and this analysis's interned rows.
// Stores emit a family in the LOCAL canonical order (sort_canonical()), and
// an adopted family is the same set of rows minimise() would have returned
// here -- the substitution is invisible in the output.

using NodeHashes =
    std::unordered_map<const FtNode*, StructuralHash, std::hash<const FtNode*>>;

/// The engine tag the keyspace matching below compares against.
std::string_view engine_tag(CutSetEngine engine) noexcept {
  switch (engine) {
    case CutSetEngine::kMicsup:
      return "micsup";
    case CutSetEngine::kMocus:
      return "mocus";
    case CutSetEngine::kZbdd:
      return "zbdd";
    case CutSetEngine::kBound:
      // The bound engine never consults the cone cache (a cached family
      // carries no interval), so this tag only keeps keyspaces distinct.
      return "bound";
  }
  return "micsup";
}

/// The options' cone cache when its keyspace matches this engine + limit
/// configuration; null otherwise (a mismatched cache is ignored, since its
/// families were computed under a different truncation regime).
ConeCache* usable_cache(const CutSetOptions& options,
                        std::string_view engine) {
  ConeCache* cache = options.cone_cache;
  if (cache == nullptr) return nullptr;
  const ConeKeyspace& keyspace = cache->keyspace();
  if (keyspace.engine != engine || keyspace.max_order != options.max_order ||
      keyspace.max_sets != options.max_sets)
    return nullptr;
  return cache;
}

/// Cached family -> local rows, in the cached set order (callers that
/// depend on the order sort). nullopt when some event name is outside
/// this analysis's universe (possible only for a foreign/corrupt
/// persistent entry; treated as a miss).
std::optional<Family> sets_from_family(const ConeFamily& family,
                                       const Context& context) {
  Family sets = context.family();
  sets.reserve(family.sets.size());
  std::vector<int> ids;
  for (const std::vector<ConeLiteral>& cached : family.sets) {
    ids.clear();
    for (const ConeLiteral& literal : cached) {
      const int id = context.literal_id_by_name(literal.event, literal.negated);
      if (id < 0) return std::nullopt;
      ids.push_back(id);
    }
    sets.push_literals(ids);
  }
  return sets;
}

/// Local rows -> cached family, canonically ordered so that the entry is
/// byte-identical whatever order the producing engine left its rows in.
ConeFamily family_from_sets(Family sets, const Context& context) {
  sets.sort_canonical();
  ConeFamily family;
  family.sets.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::vector<ConeLiteral> literals;
    literals.reserve(sets.count(i));
    sets.for_each_literal(i, [&](int literal) {
      literals.push_back(
          {context.event_of(literal)->name(), (literal & 1) != 0});
    });
    family.sets.push_back(std::move(literals));
  }
  return family;
}

/// True for the nodes worth caching: real gates. Leaves and NOT-over-leaf
/// wrappers resolve in O(1) anyway, so caching them only adds lookups.
bool cacheable_cone(const FtNode* node) noexcept {
  return node->kind() == NodeKind::kGate && node->gate() != GateKind::kNot;
}

/// How many sets the ZBDD engine samples for the LISTING once keep_diagram
/// is on and the diagram has proved the family over max_sets (the run is
/// flagged truncated regardless; the reliability numbers come exact from
/// the diagram). Comfortably above the 20 sets report rendering shows.
constexpr std::size_t kDiagramSampleSets = 512;

/// Shared root fast-path: when the WHOLE tree's cone is cached, no engine
/// needs to run at all. Returns the finished analysis on a hit.
std::optional<CutSetAnalysis> cached_root_analysis(const FaultTree& flat,
                                                   const NodeHashes& hashes,
                                                   ConeCache* cache,
                                                   Context& context) {
  if (cache == nullptr || flat.top() == nullptr ||
      !cacheable_cone(flat.top()))
    return std::nullopt;
  const std::shared_ptr<const ConeFamily> family =
      cache->find(hashes.at(flat.top()));
  if (family == nullptr) return std::nullopt;
  std::optional<Family> sets = sets_from_family(*family, context);
  if (!sets) return std::nullopt;
  return context.finish(context.clamp(std::move(*sets)));
}

// -- Bottom-up engine ----------------------------------------------------------

class BottomUp {
 public:
  /// `cone_cache` (with `hashes` over the same tree) enables cross-tree
  /// reuse; both may be null for the classic pointer-memoised run.
  BottomUp(const FaultTree& tree, Context& context,
           ConeCache* cone_cache = nullptr, const NodeHashes* hashes = nullptr)
      : tree_(tree),
        context_(context),
        cone_cache_(cone_cache),
        hashes_(hashes) {}

  /// The top's family (a reference into the memo). The tree needs a top.
  const Family& run() { return resolve(tree_.top()); }

  /// Publishes every memoised gate family into the cone cache. Call only
  /// after a CLEAN run (context.clean()): a family computed under a fired
  /// limit is partial and must never be reused.
  void store_cones() {
    if (cone_cache_ == nullptr) return;
    for (const auto& [node, sets] : memo_) {
      if (!cacheable_cone(node)) continue;
      if (sets.size() > ConeCache::kMaxCachedSets) {
        // Clean but uncacheable: this engine has no structural form to
        // fall back to (the ZBDD engine stores the diagram instead).
        cone_cache_->note_oversize_skip();
        continue;
      }
      cone_cache_->store(hashes_->at(node), family_from_sets(sets, context_));
    }
  }

 private:
  /// Returns a reference into the memo (stable: unordered_map nodes do not
  /// move on rehash), so a shared subtree is never copied on revisit.
  Family& resolve(const FtNode* node) {
    if (auto it = memo_.find(node); it != memo_.end()) return it->second;
    if (cone_cache_ != nullptr && cacheable_cone(node)) {
      if (const std::shared_ptr<const ConeFamily> family =
              cone_cache_->find(hashes_->at(node))) {
        if (std::optional<Family> sets = sets_from_family(*family, context_)) {
          context_.track_peak(sets->size());
          return memo_.emplace(node, std::move(*sets)).first->second;
        }
      }
    }
    Family result = resolve_uncached(node);
    context_.track_peak(result.size());
    return memo_.emplace(node, std::move(result)).first->second;
  }

  Family resolve_uncached(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kHouse: {
        Family truth = context_.family();  // constant true: the empty cut set
        truth.push_literals({});
        return truth;
      }
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop:
        return context_.literal_family(context_.literal_id(node, false));
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot) {
      const FtNode* child = node->children().front();
      check_internal(child->is_leaf(),
                     "cut sets need a normalised tree (NOT over leaf)");
      return context_.literal_family(context_.literal_id(child, true));
    }
    std::vector<Family*> operands;
    for (const FtNode* child : node->children()) {
      if (context_.deadline_hit()) break;  // keep the partial accumulation
      operands.push_back(&resolve(child));
    }
    Family acc = node->gate() == GateKind::kOr ? union_of(operands)
                                                : product_of(operands);
    // Past the deadline the result is partial anyway: skip the
    // minimisation so the whole engine unwinds fast. Independent operands
    // need none.
    if (context_.deadline_hit() || independent(operands))
      return context_.clamp(std::move(acc));
    return context_.clamp(context_.minimise(acc));
  }

  /// True when the operands mention pairwise disjoint events. Their
  /// union (OR) or product (AND) is then minimal already, so minimise()
  /// would return every row: every memo entry is a minimal family without
  /// the empty set (normalise() folds TRUE house events into their
  /// parents), a nonempty set can only contain a set over the same
  /// events, and two products agree only when both factors do.
  static bool independent(const std::vector<Family*>& operands) {
    if (operands.empty()) return true;
    const std::size_t words = operands.front()->words();
    std::vector<std::uint64_t> seen(words);
    std::vector<std::uint64_t> literals(words);
    for (const Family* operand : operands) {
      std::fill(literals.begin(), literals.end(), 0);
      for (std::size_t i = 0; i < operand->size(); ++i)
        for (std::size_t w = 0; w < words; ++w)
          literals[w] |= operand->row(i)[w];
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t events = (literals[w] | (literals[w] >> 1)) &
                                     kEvenBits;
        if ((seen[w] & events) != 0) return false;
        seen[w] |= events;
      }
    }
    return true;
  }

  Family union_of(const std::vector<Family*>& operands) {
    Family acc = context_.family();
    for (const Family* operand : operands) acc.append(*operand);
    context_.track_peak(acc.size());
    return acc;
  }

  /// AND (and kPand, which analysis/temporal.h quantifies; for cut-set
  /// purposes its event sets are those of the AND, a conservative upper
  /// bound): the cross product of the operands, dropping contradictions
  /// as they appear.
  Family product_of(const std::vector<Family*>& operands) {
    if (operands.empty()) return context_.family();
    // A product that outgrows the row budget is minimised and clamped
    // mid-way, and which sets survive a clamp depends on which rows came
    // first. Only then is the row order observable, so only then are the
    // operands put in canonical order -- which makes the truncated result
    // a function of the operands' sets alone.
    const std::size_t budget = context_.options().max_sets * 4;
    std::size_t rows = operands.front()->size();
    bool may_clamp = false;
    for (std::size_t k = 1; k < operands.size() && !may_clamp; ++k) {
      const std::size_t size = operands[k]->size();
      if (size != 0 && rows > budget / size) may_clamp = true;
      rows *= size;
    }
    if (may_clamp)
      for (Family* operand : operands) operand->sort_canonical();

    Family acc = *operands.front();
    context_.track_peak(acc.size());
    for (std::size_t k = 1; k < operands.size(); ++k) {
      if (context_.deadline_hit()) break;  // keep the partial accumulation
      const Family& sets = *operands[k];
      Family product = context_.family();
      product.reserve(
          std::min(acc.size() * sets.size(), budget + sets.size()));
      for (std::size_t i = 0; i < acc.size(); ++i) {
        if (context_.deadline_hit()) break;
        for (std::size_t j = 0; j < sets.size(); ++j)
          product.push_union(acc, i, sets, j);
        if (product.size() > budget) {
          // Keep the blow-up bounded before minimisation. The survivors
          // are sorted even when the clamp keeps them all: they lead the
          // next operand's pass, whose own clamps depend on row order.
          Family kept = context_.minimise(product);
          kept.sort_canonical();
          product = context_.clamp(std::move(kept));
        }
      }
      acc = std::move(product);
      context_.track_peak(acc.size());
    }
    return acc;
  }

  const FaultTree& tree_;
  Context& context_;
  ConeCache* cone_cache_;      ///< not owned; null = no cross-tree reuse
  const NodeHashes* hashes_;   ///< set exactly when cone_cache_ is
  std::unordered_map<const FtNode*, Family> memo_;
};

// -- Top-down MOCUS engine -------------------------------------------------------

class Mocus {
 public:
  Mocus(const FaultTree& tree, Context& context,
        ConeCache* cone_cache = nullptr, const NodeHashes* hashes = nullptr)
      : tree_(tree),
        context_(context),
        cone_cache_(cone_cache),
        hashes_(hashes) {}

  Family run() {
    const FtNode* top = tree_.top();
    if (top == nullptr) return context_.family();

    // A row is a conjunction of unresolved nodes plus resolved literals
    // (a bitset of family().words() words).
    struct Row {
      std::vector<const FtNode*> gates;
      std::vector<std::uint64_t> literals;
    };
    Family done = context_.family();
    const std::size_t words = done.words();
    const auto insert = [](Row& row, int literal) {
      row.literals[static_cast<std::size_t>(literal) >> 6] |=
          1ULL << (literal & 63);
    };
    std::deque<Row> rows;
    rows.push_back({{top}, std::vector<std::uint64_t>(words)});

    while (!rows.empty()) {
      if (context_.deadline_hit()) break;  // finish with the sets done so far
      Row row = std::move(rows.front());
      rows.pop_front();
      context_.track_peak(rows.size() + done.size());
      if (row.gates.empty()) {
        std::size_t count = 0;
        for (const std::uint64_t word : row.literals)
          count += static_cast<std::size_t>(std::popcount(word));
        if (count > context_.options().max_order) {
          context_.mark_truncated();
        } else if (!contradictory(row.literals.data(), words)) {
          done.push_words(row.literals.data());
        }
        continue;
      }
      const FtNode* node = row.gates.back();
      row.gates.pop_back();
      // Cone-cache short-circuit: a cached gate is semantically an OR over
      // its minimal cut sets, so it expands to one row per set -- the
      // whole subtree below it is never visited. The rows are queued in
      // canonical order because the explosion guard below drops from the
      // back.
      if (cone_cache_ != nullptr && cacheable_cone(node)) {
        if (const std::shared_ptr<const ConeFamily> family =
                cone_cache_->find(hashes_->at(node))) {
          if (std::optional<Family> sets =
                  sets_from_family(*family, context_)) {
            sets->sort_canonical();
            for (std::size_t i = 0; i < sets->size(); ++i) {
              Row branch{row.gates, row.literals};
              for (std::size_t w = 0; w < words; ++w)
                branch.literals[w] |= sets->row(i)[w];
              rows.push_back(std::move(branch));
            }
            continue;
          }
        }
      }
      switch (node->kind()) {
        case NodeKind::kHouse:
          rows.push_back(std::move(row));  // true: contributes nothing
          break;
        case NodeKind::kBasic:
        case NodeKind::kUndeveloped:
        case NodeKind::kLoop:
          insert(row, context_.literal_id(node, false));
          rows.push_back(std::move(row));
          break;
        case NodeKind::kGate:
          if (node->gate() == GateKind::kNot) {
            const FtNode* child = node->children().front();
            check_internal(child->is_leaf(),
                           "MOCUS needs a normalised tree (NOT over leaf)");
            insert(row, context_.literal_id(child, true));
            rows.push_back(std::move(row));
          } else if (node->gate() == GateKind::kAnd ||
                     node->gate() == GateKind::kPand) {
            for (const FtNode* child : node->children())
              row.gates.push_back(child);
            rows.push_back(std::move(row));
          } else {  // OR: one row per child
            for (const FtNode* child : node->children()) {
              Row branch = row;
              branch.gates.push_back(child);
              rows.push_back(std::move(branch));
            }
          }
          break;
      }
      if (rows.size() > context_.options().max_sets * 4) {
        // Row explosion guard: finish the rows we have, drop the rest.
        context_.mark_truncated();
        while (rows.size() > context_.options().max_sets) rows.pop_back();
      }
    }
    if (context_.deadline_hit()) return context_.clamp(std::move(done));
    return context_.clamp(context_.minimise(done));
  }

 private:
  const FaultTree& tree_;
  Context& context_;
  ConeCache* cone_cache_;      ///< not owned; null = classic expansion
  const NodeHashes* hashes_;   ///< set exactly when cone_cache_ is
};

}  // namespace

ConeKeyspace cone_keyspace(const CutSetOptions& options) {
  return {std::string(engine_tag(options.engine)), options.max_order,
          options.max_sets};
}

std::string to_string(ProbMode mode) {
  switch (mode) {
    case ProbMode::kCutSets:
      return "cutsets";
    case ProbMode::kDiagram:
      return "diagram";
    case ProbMode::kAuto:
      break;
  }
  return "auto";
}

std::optional<ProbMode> parse_prob_mode(std::string_view text) {
  if (text == "cutsets") return ProbMode::kCutSets;
  if (text == "diagram") return ProbMode::kDiagram;
  if (text == "auto") return ProbMode::kAuto;
  return std::nullopt;
}

CutSetAnalysis minimal_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  context.intern(dfs_variable_order(flat), tree);
  ConeCache* cache = usable_cache(options, "micsup");
  NodeHashes hashes;
  if (cache != nullptr && flat.top() != nullptr)
    hashes = structural_hashes(flat);
  if (flat.top() == nullptr) return context.finish(context.family());
  BottomUp engine(flat, context, cache, &hashes);
  const Family& sets = engine.run();
  if (cache != nullptr && context.clean()) engine.store_cones();
  return context.finish(sets);
}

CutSetAnalysis mocus_cut_sets(const FaultTree& tree,
                              const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  context.intern(dfs_variable_order(flat), tree);
  ConeCache* cache = usable_cache(options, "mocus");
  NodeHashes hashes;
  if (cache != nullptr && flat.top() != nullptr)
    hashes = structural_hashes(flat);
  Family sets = Mocus(flat, context, cache, &hashes).run();
  // MOCUS only materialises the root family; publish it so a warm re-run
  // (or a later tree with this exact cone) short-circuits at the top.
  if (cache != nullptr && context.clean() && flat.top() != nullptr &&
      cacheable_cone(flat.top())) {
    if (sets.size() <= ConeCache::kMaxCachedSets) {
      cache->store(hashes.at(flat.top()), family_from_sets(sets, context));
    } else {
      cache->note_oversize_skip();
    }
  }
  return context.finish(sets);
}

CutSetAnalysis compute_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  switch (options.engine) {
    case CutSetEngine::kMocus:
      return mocus_cut_sets(tree, options);
    case CutSetEngine::kZbdd:
      return zbdd_cut_sets(tree, options);
    case CutSetEngine::kBound:
      return bound_cut_sets(tree, options);
    case CutSetEngine::kMicsup:
      break;
  }
  return minimal_cut_sets(tree, options);
}

std::vector<std::vector<int>> minimise_literal_sets(
    const std::vector<std::vector<int>>& sets, int universe) {
  check_internal(universe >= 0, "literal universe must be non-negative");
  const std::size_t words =
      (static_cast<std::size_t>(universe) + 63) / 64;
  Family packed(words);
  packed.reserve(sets.size());
  for (const std::vector<int>& literals : sets) {
    for (int literal : literals)
      check_internal(literal >= 0 && literal < universe,
                     "literal id outside the declared universe");
    packed.push_literals(literals);
  }
  MinimiseScratch scratch;
  Family kept = minimise(packed, scratch, [] { return false; });
  kept.sort_canonical();
  std::vector<std::vector<int>> out;
  out.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    std::vector<int> literals;
    literals.reserve(kept.count(i));
    kept.for_each_literal(i, [&](int literal) { literals.push_back(literal); });
    out.push_back(std::move(literals));
  }
  return out;
}

// -- Symbolic ZBDD engine --------------------------------------------------------

CutSetAnalysis zbdd_cut_sets(const FaultTree& tree,
                             const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  context.intern(order, tree);
  if (flat.top() == nullptr) return context.finish(context.family());

  ConeCache* cache = usable_cache(options, "zbdd");
  NodeHashes hashes;
  if (cache != nullptr) hashes = structural_hashes(flat);
  if (std::optional<CutSetAnalysis> hit =
          cached_root_analysis(flat, hashes, cache, context)) {
    // The whole tree's family is cached: skip the diagram entirely (and
    // the ordering policy with it -- there is no diagram to reorder).
    return std::move(*hit);
  }

  // The manager lives inside the diagram handle so that keep_diagram can
  // hand it to the caller without a move; without the flag the handle
  // simply dies with this frame.
  auto diagram_handle = std::make_shared<CutSetDiagram>();
  Zbdd& zbdd = diagram_handle->zbdd;
  // Literal id == ZBDD variable: two per event, the plain polarity first,
  // events in depth-first occurrence order (the shared static heuristic --
  // the SEED order; the sift policies may move it afterwards).
  for (std::size_t i = 0; i < 2 * order.size(); ++i) zbdd.new_var();
  Budget budget = options.budget;  // run-local copy sharing the latch
  zbdd.set_budget(&budget);
  // Node ceiling: proportional to the set ceiling (a family of max_sets
  // cut sets rarely needs more nodes than literals-per-set times sets),
  // with a floor so small limits cannot starve genuine diagrams.
  zbdd.set_node_limit(options.max_sets * 8 + (1u << 16));
  const bool dynamic_order = options.order != OrderPolicy::kStatic;
  if (dynamic_order) zbdd.set_auto_reorder(true);

  Family sets = context.family();
  // Declared outside the try so the post-run report covers interrupted
  // runs too: the diagram stays valid when an operation throws.
  Zbdd::Ref contra = Zbdd::kEmpty;
  Zbdd::Ref root = Zbdd::kEmpty;
  bool conversion_complete = false;
  std::unordered_map<const FtNode*, Zbdd::Ref> memo;
  SiftStats sift_total;
  try {
    // Sets holding both polarities of an event are contradictory; the
    // pair family {{x, NOT x}, ...} subtracts them via `without`.
    flat.for_each_reachable([&](const FtNode& node) {
      if (node.kind() != NodeKind::kGate || node.gate() != GateKind::kNot)
        return;
      const FtNode* child = node.children().front();
      check_internal(child->is_leaf(),
                     "cut sets need a normalised tree (NOT over leaf)");
      const int plain = context.literal_id(child, false);
      contra = zbdd.set_union(
          contra, zbdd.product(zbdd.single(plain), zbdd.single(plain + 1)));
    });

    // Cached family -> diagram: union of per-set single-variable products.
    // The family is minimal and contradiction-free by construction (clean
    // producer run), and a ZBDD is canonical per family under a fixed
    // variable order, so this builds the very node convert() would reach.
    auto ref_from_family =
        [&](const ConeFamily& family) -> std::optional<Zbdd::Ref> {
      Zbdd::Ref acc = Zbdd::kEmpty;
      for (const std::vector<ConeLiteral>& cached : family.sets) {
        Zbdd::Ref product = Zbdd::kBase;
        for (const ConeLiteral& literal : cached) {
          const int id =
              context.literal_id_by_name(literal.event, literal.negated);
          if (id < 0) return std::nullopt;
          product = zbdd.product(product, zbdd.single(id));
        }
        acc = zbdd.set_union(acc, product);
      }
      return acc;
    };

    // Cached diagram structure -> diagram: one forward pass over the
    // serialised nodes (children strictly precede parents), each rebuilt
    // as low UNION ({{v}} PRODUCT high). That is make(v, low, high)
    // expressed through public, order-INDEPENDENT set algebra, so a
    // consumer under any current level order -- static, or moved by a
    // different sift history than the producer's -- adopts the entry and
    // re-canonicalises locally. This is what makes cones bigger than
    // kMaxCachedSets warm-startable: the family is never enumerated.
    auto ref_from_diagram =
        [&](const ConeDiagram& cached) -> std::optional<Zbdd::Ref> {
      std::vector<Zbdd::Ref> slots;
      slots.reserve(cached.nodes.size() + 2);
      slots.push_back(Zbdd::kEmpty);
      slots.push_back(Zbdd::kBase);
      for (const ConeDiagramNode& node : cached.nodes) {
        const int id = context.literal_id_by_name(node.event, node.negated);
        if (id < 0) return std::nullopt;
        if (node.low >= slots.size() || node.high >= slots.size())
          return std::nullopt;
        slots.push_back(zbdd.set_union(
            slots[node.low], zbdd.product(zbdd.single(id), slots[node.high])));
      }
      if (cached.root >= slots.size()) return std::nullopt;
      return slots[cached.root];
    };

    // Everything resolvable without recursing into gate children: memo
    // hits, cached cones, leaves and (normalised) NOT gates. AND/OR gates
    // return nullopt and get an explicit conversion frame below.
    //
    // Under a sift policy inner cones are never adopted from the cache:
    // rebuilding one changes the unique-table history, hence where sifting
    // parks the variables, hence the enumeration prefix a truncated
    // listing samples. Converting every cone keeps cold and warm runs on
    // one history. Stores and the whole-tree fast path above still apply.
    auto resolve_simple =
        [&](const FtNode* node) -> std::optional<Zbdd::Ref> {
      if (auto it = memo.find(node); it != memo.end()) return it->second;
      if (cache != nullptr && !dynamic_order && cacheable_cone(node)) {
        if (const ConeCache::ConeHit hit = cache->find_any(hashes.at(node))) {
          std::optional<Zbdd::Ref> cached =
              hit.family != nullptr ? ref_from_family(*hit.family)
                                    : ref_from_diagram(*hit.diagram);
          if (cached) {
            memo.emplace(node, *cached);
            return *cached;
          }
        }
      }
      Zbdd::Ref result = Zbdd::kEmpty;
      switch (node->kind()) {
        case NodeKind::kHouse:
          result = Zbdd::kBase;  // constant true: the empty cut set
          break;
        case NodeKind::kBasic:
        case NodeKind::kUndeveloped:
        case NodeKind::kLoop:
          result = zbdd.single(context.literal_id(node, false));
          break;
        case NodeKind::kGate: {
          if (node->gate() != GateKind::kNot) return std::nullopt;
          const FtNode* child = node->children().front();
          check_internal(child->is_leaf(),
                         "cut sets need a normalised tree (NOT over leaf)");
          result = zbdd.single(context.literal_id(child, true));
          break;
        }
      }
      memo.emplace(node, result);
      return result;
    };

    // Bottom-up conversion with per-node memoisation: shared subtrees of
    // the DAG convert once, and every memoised family is already minimal.
    //
    // The walk is an explicit postorder stack rather than recursion so
    // that EVERY live intermediate family is enumerable: dynamic
    // reordering garbage-collects at its safe points, and a partial
    // accumulator hiding in a recursive activation record would be swept.
    struct Frame {
      const FtNode* node;
      std::size_t next = 0;  ///< index of the next child to combine
      Zbdd::Ref acc = Zbdd::kEmpty;
    };
    std::vector<Frame> frames;
    // Every ref the engine still holds -- the GC root set for reordering.
    auto live_roots = [&]() {
      std::vector<Zbdd::Ref> roots;
      roots.reserve(memo.size() + frames.size() + 2);
      roots.push_back(contra);
      roots.push_back(root);
      for (const auto& [node, ref] : memo) roots.push_back(ref);
      for (const Frame& frame : frames) roots.push_back(frame.acc);
      return roots;
    };
    // Honours a pressure-flagged reorder between operations. make() never
    // reorders itself: an operation mid-flight holds node copies on the C++
    // stack that an in-place swap would silently bypass.
    SiftOptions sift_options;
    sift_options.budget = &budget;
    auto reorder_point = [&]() {
      if (!zbdd.reorder_pending()) return;
      if (std::optional<SiftStats> stats =
              zbdd.maybe_reorder(live_roots(), sift_options))
        sift_total.merge(*stats);
    };

    auto convert = [&](const FtNode* top) -> Zbdd::Ref {
      if (std::optional<Zbdd::Ref> simple = resolve_simple(top))
        return *simple;
      frames.push_back(
          {top, 0, top->gate() == GateKind::kOr ? Zbdd::kEmpty : Zbdd::kBase});
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const FtNode* node = frame.node;
        const bool is_or = node->gate() == GateKind::kOr;
        if (frame.next < node->children().size()) {
          const FtNode* child = node->children()[frame.next];
          std::optional<Zbdd::Ref> ready = resolve_simple(child);
          if (!ready) {
            // Descend. push_back invalidates `frame`: touch nothing after.
            frames.push_back({child, 0,
                              child->gate() == GateKind::kOr ? Zbdd::kEmpty
                                                             : Zbdd::kBase});
            continue;
          }
          ++frame.next;
          frame.acc = is_or ? zbdd.set_union(frame.acc, *ready)
                            : zbdd.product(frame.acc, *ready);
          reorder_point();  // acc is rooted via the frame: safe point
          continue;
        }
        // All children combined: finalise this gate.
        Zbdd::Ref result = frame.acc;
        if (!is_or) {  // AND; kPand conservatively as AND (analysis/temporal.h)
          if (contra != Zbdd::kEmpty) result = zbdd.without(result, contra);
        }
        result = zbdd.minimal(result);
        memo.emplace(node, result);
        frames.pop_back();
        reorder_point();
      }
      return memo.at(top);
    };

    root = zbdd.minimal(convert(flat.top()));
    conversion_complete = true;
    // For the symbolic engine the working set IS the diagram.
    context.track_peak(zbdd.size());

    // Final explicit pass: pressure may never have fired (small diagrams)
    // or may have left gains on the table; the sift policies always end on
    // a locally minimal order. The budget still applies -- an interrupted
    // pass parks at the best order seen and degrades, never corrupts.
    if (dynamic_order) {
      sift_options.converge = options.order == OrderPolicy::kSiftConverge;
      sift_total.merge(zbdd.sift(live_roots(), sift_options));
    }

    // Extract the minimal family. The limits apply per path: long sets
    // are skipped (max_order), the enumeration stops at max_sets.
    //
    // Diagram-native mode makes extraction a LISTING concern only: the
    // reliability numbers come from diagram sweeps, so once set_count()
    // proves the family over max_sets (the run is truncated either way)
    // there is no reason to enumerate the full quota -- a bounded sample
    // keeps the listing informative while the dominant cost of huge-family
    // runs disappears.
    std::size_t extract_cap = context.options().max_sets;
    const double family_size = zbdd.set_count(root);
    if (options.keep_diagram && family_size > static_cast<double>(extract_cap))
      extract_cap = std::min(extract_cap, kDiagramSampleSets);
    std::vector<int> path;
    bool truncated_paths = false;
    if (family_size <= static_cast<double>(extract_cap)) {
      // The whole family fits the cap: one diagram-order walk lists it
      // all, and finish() sorts canonically. Only max_order can truncate.
      auto extract = [&](auto&& self, Zbdd::Ref ref) -> void {
        if (context.deadline_hit()) return;
        if (ref == Zbdd::kEmpty) return;
        if (sets.size() > extract_cap) {
          truncated_paths = true;
          return;
        }
        if (ref == Zbdd::kBase) {
          if (path.size() > context.options().max_order) {
            truncated_paths = true;
            return;
          }
          sets.push_literals(path);
          return;
        }
        const Zbdd::Node node = zbdd.node(ref);
        self(self, node.low);
        path.push_back(node.var);
        self(self, node.high);
        path.pop_back();
      };
      extract(extract, root);
    } else {
      // Truncated family: the listing is a bounded sample. Sample it
      // CANONICALLY -- smallest sets first, canonical order within one
      // size -- instead of in diagram order: diagram order follows the
      // variable order, which dynamic reordering moves, and stdout must
      // not. Per-node order bounds prune each sweep to the subgraphs that
      // can hold a set of the wanted size; the enumeration ceiling bounds
      // the boundary order's cost (a sample past the ceiling keeps the
      // enumeration prefix, docs/FORMATS.md).
      truncated_paths = true;
      constexpr std::size_t kNoSets = std::numeric_limits<std::size_t>::max();
      std::unordered_map<Zbdd::Ref, std::pair<std::size_t, std::size_t>>
          bounds;  // min / max literals over the node's family
      auto order_bounds = [&](auto&& self, Zbdd::Ref ref)
          -> std::pair<std::size_t, std::size_t> {
        if (ref == Zbdd::kEmpty) return {kNoSets, 0};
        if (ref == Zbdd::kBase) return {0, 0};
        if (auto it = bounds.find(ref); it != bounds.end()) return it->second;
        const Zbdd::Node node = zbdd.node(ref);
        const auto low = self(self, node.low);
        const auto high = self(self, node.high);  // never the empty family
        const std::pair<std::size_t, std::size_t> result{
            std::min(low.first,
                     high.first == kNoSets ? kNoSets : high.first + 1),
            std::max(low.second, high.second + 1)};
        bounds.emplace(ref, result);
        return result;
      };
      const auto root_bounds = order_bounds(order_bounds, root);
      const std::size_t k_hi =
          std::min(root_bounds.second, context.options().max_order);
      const std::size_t ceiling =
          std::max<std::size_t>(4 * extract_cap, std::size_t{1} << 16);
      Family order_sets = context.family();
      auto enumerate = [&](auto&& self, Zbdd::Ref ref,
                           std::size_t want) -> bool {
        if (ref == Zbdd::kEmpty) return true;
        if (context.deadline_hit()) return false;
        if (ref == Zbdd::kBase) {
          if (want == 0) {
            if (order_sets.size() >= ceiling) return false;
            order_sets.push_literals(path);
          }
          return true;
        }
        const auto node_bounds = order_bounds(order_bounds, ref);
        if (node_bounds.first > want || node_bounds.second < want)
          return true;  // no set of exactly `want` literals below here
        const Zbdd::Node node = zbdd.node(ref);
        if (!self(self, node.low, want)) return false;
        if (want > 0) {
          path.push_back(node.var);
          const bool keep_going = self(self, node.high, want - 1);
          path.pop_back();
          if (!keep_going) return false;
        }
        return true;
      };
      bool stop = false;
      for (std::size_t k = root_bounds.first;
           !stop && k <= k_hi && sets.size() < extract_cap; ++k) {
        order_sets.clear();
        if (!enumerate(enumerate, root, k)) stop = true;
        order_sets.sort_canonical();
        for (std::size_t i = 0;
             i < order_sets.size() && sets.size() < extract_cap; ++i)
          sets.push_row(order_sets, i);
      }
    }
    if (truncated_paths) context.mark_truncated();

    // Publish every memoised gate family after a CLEAN run (partial
    // diagrams must never be reused). Enumeration cost is bounded by the
    // same cap the other engines use. The diagram enumerates in the
    // CURRENT variable order, which the sift policies may have moved, so
    // family_from_sets() re-canonicalises -- cache contents, like stdout,
    // must be byte-identical across policies.
    if (cache != nullptr && context.clean() && !context.deadline_hit()) {
      // Cone diagram -> serialised structure, postorder (low child first)
      // so children land on earlier slots than every parent. Serialised
      // under the CURRENT variable order; consumers rebuild with
      // order-independent algebra, so the entry stays valid whatever
      // order they run under (the file bytes, unlike family entries, DO
      // depend on the producer's order policy -- an accepted asymmetry,
      // documented in docs/FORMATS.md, that never reaches stdout because
      // extraction re-canonicalises).
      auto diagram_from_ref = [&](Zbdd::Ref ref) -> ConeDiagram {
        ConeDiagram out;
        std::unordered_map<Zbdd::Ref, std::uint32_t> slot;
        auto slot_of = [&](Zbdd::Ref r) -> std::uint32_t {
          if (r == Zbdd::kEmpty) return 0;
          if (r == Zbdd::kBase) return 1;
          return slot.at(r) + 2;
        };
        struct Frame {
          Zbdd::Ref ref;
          int stage;  // 0 = visit low, 1 = visit high, 2 = emit
        };
        std::vector<Frame> stack;
        if (!zbdd.is_terminal(ref)) stack.push_back({ref, 0});
        while (!stack.empty()) {
          Frame& frame = stack.back();
          if (frame.stage == 2) {
            if (slot.find(frame.ref) == slot.end()) {
              const Zbdd::Node& node = zbdd.node(frame.ref);
              const std::uint32_t low = slot_of(node.low);
              const std::uint32_t high = slot_of(node.high);
              slot.emplace(frame.ref,
                           static_cast<std::uint32_t>(out.nodes.size()));
              out.nodes.push_back({context.event_of(node.var)->name(),
                                   (node.var & 1) != 0, low, high});
            }
            stack.pop_back();
            continue;
          }
          const Zbdd::Node& node = zbdd.node(frame.ref);
          const Zbdd::Ref child = frame.stage == 0 ? node.low : node.high;
          ++frame.stage;
          if (!zbdd.is_terminal(child) && slot.find(child) == slot.end())
            stack.push_back({child, 0});
        }
        out.root = slot_of(ref);
        return out;
      };
      for (const auto& [node, ref] : memo) {
        if (!cacheable_cone(node)) continue;
        if (zbdd.set_count(ref) >
            static_cast<double>(ConeCache::kMaxCachedSets)) {
          // Too many sets to enumerate -- the very cones the diagram
          // record kind exists for. Only a diagram too big for the node
          // cap stays uncacheable.
          if (zbdd.node_count(ref) <= ConeCache::kMaxCachedDiagramNodes) {
            cache->store_diagram(hashes.at(node), diagram_from_ref(ref));
          } else {
            cache->note_oversize_skip();
          }
          continue;
        }
        Family cone_sets = context.family();
        zbdd.for_each_set(ref, [&](const std::vector<int>& literals) {
          cone_sets.push_literals(literals);
          return true;
        });
        cache->store(hashes.at(node),
                     family_from_sets(std::move(cone_sets), context));
      }
    }
  } catch (const Zbdd::Interrupt& interrupt) {
    // Degrade, don't die: report what we have (usually nothing from the
    // conversion phase) with the honest flags.
    if (interrupt.deadline_exceeded) context.mark_deadline();
    context.mark_truncated();
  }

  // Reordering report (--verbose): live sizes after a final sweep, the
  // stats the sifting accumulated, and the order the run ended on. Built
  // for static runs too so the policies are directly comparable.
  zbdd.collect_garbage([&] {
    std::vector<Zbdd::Ref> roots{contra, root};
    for (const auto& [node, ref] : memo) roots.push_back(ref);
    return roots;
  }());
  ReorderReport report;
  report.policy = to_string(options.order);
  report.passes = sift_total.passes;
  report.swaps = sift_total.swaps;
  report.nodes_after = zbdd.table_size();
  report.nodes_before = sift_total.swaps > 0 ? sift_total.size_before
                                             : report.nodes_after;
  report.root_nodes = zbdd.node_count(root);
  for (int level = 0; level < zbdd.var_count(); ++level) {
    if (zbdd.level_width(level) == 0) continue;
    const int literal = zbdd.var_at_level(level);
    std::string name = context.event_of(literal)->name().str();
    report.final_order.push_back((literal & 1) != 0 ? "NOT " + name
                                                    : std::move(name));
  }

  CutSetAnalysis analysis = context.finish(context.clamp(std::move(sets)));
  analysis.reorder = std::move(report);

  if (options.keep_diagram) {
    // The manager outlives this frame inside the handle: detach the
    // run-local budget copy (it dies here) and drop everything but the
    // family itself.
    zbdd.set_budget(nullptr);
    zbdd.collect_garbage({root});
    diagram_handle->root = root;
    diagram_handle->exact = conversion_complete;
    diagram_handle->events.reserve(order.size());
    // Same leaves as cut-set literals: variable 2r/2r+1 -> the original
    // tree's equally-named leaf (null only for a leaf the normalised copy
    // invented, which finish() above would have rejected for any literal
    // actually reachable).
    for (std::size_t r = 0; r < order.size(); ++r)
      diagram_handle->events.push_back(context.original_leaf(r));
    analysis.diagram = std::move(diagram_handle);
  }
  return analysis;
}

namespace {

/// Rauzy's `without` operator on cut-set BDDs (variables occur positively;
/// the low branch means "variable absent"): drops every solution of `f`
/// that is a superset of some solution of `g`.
class MinimalSolutions {
 public:
  explicit MinimalSolutions(Bdd& bdd) : bdd_(bdd) {}

  Bdd::Ref minsol(Bdd::Ref f) {
    if (bdd_.is_terminal(f)) return f;
    if (auto it = minsol_memo_.find(f); it != minsol_memo_.end())
      return it->second;
    const Bdd::Node node = bdd_.node(f);
    Bdd::Ref low = minsol(node.low);
    Bdd::Ref high = without(minsol(node.high), low);
    Bdd::Ref result = make(node.var, low, high);
    minsol_memo_.emplace(f, result);
    return result;
  }

 private:
  Bdd::Ref without(Bdd::Ref f, Bdd::Ref g) {
    if (bdd_.is_false(f)) return Bdd::kFalse;
    if (bdd_.is_true(g)) return Bdd::kFalse;   // the empty set subsumes all
    if (bdd_.is_false(g)) return f;
    if (bdd_.is_true(f)) return Bdd::kTrue;    // {} is only subsumed by {}
    auto key = std::make_pair(f, g);
    if (auto it = without_memo_.find(key); it != without_memo_.end())
      return it->second;
    const Bdd::Node nf = bdd_.node(f);
    const Bdd::Node ng = bdd_.node(g);
    // Compare by LEVEL, not variable index: the encoding may install the
    // depth-first-occurrence order (analysis/ordering.h).
    const int lf = bdd_.level_of(nf.var);
    const int lg = bdd_.level_of(ng.var);
    Bdd::Ref result;
    if (lf < lg) {
      // g never mentions nf.var at this level.
      result = make(nf.var, without(nf.low, g), without(nf.high, g));
    } else if (lf > lg) {
      // Solutions of f exclude ng.var; only g-solutions excluding it
      // (g.low) can subsume them.
      result = without(f, ng.low);
    } else {
      Bdd::Ref low = without(nf.low, ng.low);
      Bdd::Ref high = without(without(nf.high, ng.low), ng.high);
      result = make(nf.var, low, high);
    }
    without_memo_.emplace(key, result);
    return result;
  }

  Bdd::Ref make(int var, Bdd::Ref low, Bdd::Ref high) {
    // Rebuild through ite on the variable to stay reduced and hashed.
    return bdd_.ite(bdd_.var(var), high, low);
  }

  struct PairHash {
    std::size_t operator()(
        const std::pair<Bdd::Ref, Bdd::Ref>& key) const noexcept {
      return std::hash<Bdd::Ref>{}(key.first) * 1000003u ^ key.second;
    }
  };

  Bdd& bdd_;
  std::unordered_map<Bdd::Ref, Bdd::Ref> minsol_memo_;
  std::unordered_map<std::pair<Bdd::Ref, Bdd::Ref>, Bdd::Ref, PairHash>
      without_memo_;
};

}  // namespace

CutSetAnalysis bdd_cut_sets(const FaultTree& tree,
                            const CutSetOptions& options) {
  // Coherence check: Rauzy's minimal solutions assume a monotone function.
  bool has_not = false;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.kind() == NodeKind::kGate && node.gate() == GateKind::kNot)
      has_not = true;
  });
  require(!has_not, ErrorKind::kAnalysis,
          "bdd_cut_sets needs a coherent tree (no NOT gates); use "
          "minimal_cut_sets instead");

  BddEncoding encoding = encode_bdd(tree);
  Context context(options);
  context.intern(encoding.events, tree);
  if (tree.top() == nullptr) return context.finish(context.family());

  MinimalSolutions engine(encoding.bdd);
  Bdd::Ref solutions = engine.minsol(encoding.root);

  // Enumerate paths: a high edge includes the variable, low (and skipped
  // levels) exclude it.
  Family sets = context.family();
  std::vector<int> literals;
  bool truncated_paths = false;
  auto enumerate = [&](auto&& self, Bdd::Ref ref) -> void {
    if (context.deadline_hit()) return;
    if (sets.size() > context.options().max_sets) {
      truncated_paths = true;
      return;
    }
    if (encoding.bdd.is_false(ref)) return;
    if (encoding.bdd.is_true(ref)) {
      if (literals.size() > context.options().max_order) {
        truncated_paths = true;
        return;
      }
      std::vector<int> ids;
      ids.reserve(literals.size());
      for (int var : literals) {
        ids.push_back(context.literal_id(
            encoding.events[static_cast<std::size_t>(var)], false));
      }
      sets.push_literals(ids);
      context.track_peak(sets.size());
      return;
    }
    const Bdd::Node node = encoding.bdd.node(ref);
    self(self, node.low);
    literals.push_back(node.var);
    self(self, node.high);
    literals.pop_back();
  };
  enumerate(enumerate, solutions);
  if (truncated_paths) context.mark_truncated();

  return context.finish(context.deadline_hit() ? sets
                                              : context.minimise(sets));
}

// -- Anytime bound engine --------------------------------------------------------

CutSetAnalysis bound_cut_sets(const FaultTree& tree,
                              const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  context.intern(order, tree);

  // The frontier is probability-driven, so the basic probabilities enter
  // here rather than at the reporting stage; polarity adjustment happens
  // inside the PDAG (literal ids match this context's convention).
  ProbabilityOptions prob;
  prob.mission_time_hours = options.bound_mission_time_hours;
  prob.default_event_probability = options.bound_default_probability;
  std::vector<double> probabilities;
  probabilities.reserve(order.size());
  for (const FtNode* event : order)
    probabilities.push_back(event_probability(*event, prob));
  const bound::Pdag pdag = bound::compile_pdag(flat, order, probabilities);

  bound::BoundLimits limits;
  limits.epsilon = options.bound_epsilon;
  limits.max_order = options.max_order;
  limits.max_sets = options.max_sets;
  limits.max_expansions = options.budget.max_nodes;
  limits.budget = options.budget;
  limits.pool = options.pool;
  bound::BoundOutcome outcome = bound::drain_frontier(pdag, limits);

  if (outcome.deadline_exceeded) context.mark_deadline();
  if (outcome.truncated) context.mark_truncated();
  context.track_peak(outcome.stats.peak_frontier);

  // Best-first emission is probability-ordered, not subset-ordered: a
  // later, smaller set can subsume an earlier one, so the canonical
  // minimisation pass still runs. On exhausted runs the result is the
  // exact minimal family -- literal-for-literal what the exact engines
  // return through this same kernel.
  Family sets = context.family();
  sets.reserve(outcome.products.size());
  for (const std::vector<int>& product : outcome.products)
    sets.push_literals(product);
  CutSetAnalysis analysis =
      context.finish(context.clamp(context.minimise(sets)));

  analysis.p_lower = outcome.p_lower;
  analysis.p_upper = outcome.p_upper;
  analysis.converged = outcome.converged;
  FrontierStats stats;
  stats.rounds = outcome.stats.rounds;
  stats.expansions = outcome.stats.expansions;
  stats.emitted = outcome.stats.emitted;
  stats.peak_frontier = outcome.stats.peak_frontier;
  stats.subsumed = outcome.stats.subsumed;
  stats.deferred = outcome.stats.deferred;
  analysis.frontier_stats = stats;
  return analysis;
}

}  // namespace ftsynth
