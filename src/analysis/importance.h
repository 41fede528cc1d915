// Importance measures -- ranking basic events by their contribution to the
// top event, the analysis that "helps identify weak areas of the design"
// (paper, sections 2 and 4, aim 3).
//
//   * Fussell-Vesely: fraction of the (rare-event) top probability carried
//     by cut sets containing the event.
//   * Birnbaum: dP(top)/dp(event), computed exactly on the BDD.
//   * RAW (Risk Achievement Worth): P(top | event occurred) / P(top) --
//     how much worse things get if the component is known failed.
//   * RRW (Risk Reduction Worth): P(top) / P(top | event perfect) -- how
//     much is gained by making the component perfect.

#pragma once

#include <string>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"

namespace ftsynth {

struct ImportanceEntry {
  const FtNode* event = nullptr;
  double fussell_vesely = 0.0;
  double birnbaum = 0.0;
  double raw = 0.0;  ///< risk achievement worth (1 = no effect)
  double rrw = 0.0;  ///< risk reduction worth (1 = no effect)
  std::size_t cut_set_count = 0;    ///< cut sets containing the event
  std::size_t smallest_order = 0;   ///< order of the smallest such cut set
};

/// Every probability-stage number of one tree analysis, computed together
/// so the expensive artefacts are built once: one BDD encoding and one
/// dense index of its root serve the exact top probability, the O(N)
/// all-variables Birnbaum sweep and the conditional evaluations behind
/// RAW/RRW; one family pass (probability.h, family_probability) -- or, in
/// the diagram regime, one set of ZBDD measure sweeps -- serves
/// Fussell-Vesely, the rare-event and Esary-Proschan bounds, the per-event
/// set counts and the smallest orders.
struct ReliabilitySummary {
  std::vector<ImportanceEntry> importance;  ///< ranked as importance_ranking
  double p_exact = 0.0;          ///< exact P(top) on the BDD
  double p_rare_event = 0.0;     ///< sum of cut-set probabilities
  double p_esary_proschan = 0.0; ///< 1 - prod(1 - P(set))
  double p_mcub = 0.0;           ///< same bound in log space (mcub_bound)
  /// True when the family-derived numbers above (rare-event, EP, FV,
  /// counts, orders) came from diagram traversal rather than the
  /// extracted cut-set list. Happens only when `mode` requested it, the
  /// analysis carries an exact diagram, AND extraction was cut short --
  /// the case where the diagram numbers are exact while the family
  /// numbers would have been partial. On clean runs both paths use the
  /// extracted family, keeping output byte-identical across modes.
  bool diagram_native = false;
};

/// Computes the full probability stage for one analysed tree. With
/// ProbMode::kCutSets this reproduces the classic pipeline bit for bit
/// (importance_ranking + the probability.h bounds); kDiagram/kAuto switch
/// the family-derived numbers to diagram sweeps exactly under the
/// conditions documented on ReliabilitySummary::diagram_native.
ReliabilitySummary analyse_reliability(const FaultTree& tree,
                                       const CutSetAnalysis& analysis,
                                       const ProbabilityOptions& options,
                                       ProbMode mode = ProbMode::kCutSets);

/// Ranks every basic event of `tree`, most important (by Fussell-Vesely,
/// then Birnbaum) first. Thin wrapper over analyse_reliability (cut-set
/// mode) kept for the existing call sites and tests.
std::vector<ImportanceEntry> importance_ranking(
    const FaultTree& tree, const CutSetAnalysis& analysis,
    const ProbabilityOptions& options);

/// Renders the ranking as a text table.
std::string render_importance(const std::vector<ImportanceEntry>& ranking);

}  // namespace ftsynth
