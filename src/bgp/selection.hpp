#pragma once
// The BGP route-selection procedure of Section 2 (procedure Choose_best,
// Fig 6) and its truncated form Choose^B (Fig 10) used by the paper's
// modified protocol.
//
// Rules, in the paper's default order:
//   1. highest LOCAL-PREF (degree of preference),
//   2. shortest AS-PATH length,
//   3. per-neighbor-AS MED elimination: within each nextAS group keep only
//      the minimum-MED routes (routes through different ASes are *not*
//      compared — the root cause of the oscillations),
//   4. if any E-BGP routes remain, keep only E-BGP routes and among them the
//      minimum (IGP-)cost ones; otherwise
//   5. keep the minimum-cost I-BGP routes,
//   6. the route learned from the peer with the minimum BGP identifier wins.
//
// Footnote 4 of the paper notes that RFC 1771 / Halabi order rules 4 and 5
// differently: first minimum IGP cost over *all* routes, then prefer E-BGP.
// Figure 1(b) converges under the default ordering and diverges under the
// RFC ordering, so both are implemented (RuleOrder).
//
// Choose^B = rules 1-3 only; its output is a *set* of exit paths and — key
// to the convergence theorem — depends only on path attributes, never on the
// evaluating node, so every router computes the same survivor set from the
// same inputs (Lemma 7.4).

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/exit_table.hpp"
#include "netsim/shortest_paths.hpp"
#include "util/types.hpp"

namespace ibgp::bgp {

/// Relative order of the E-BGP-preference and IGP-cost rules (footnote 4).
enum class RuleOrder {
  /// Paper default (Cisco/Juniper/Halabi): E-BGP routes beat I-BGP routes
  /// outright, IGP cost compared within each class.
  kPreferEbgpFirst,
  /// RFC 1771 / Stewart ordering: minimum IGP cost first across all routes,
  /// E-BGP preferred only among cost-ties.  Diverges on Fig 1(b).
  kIgpCostFirst,
};

/// MED comparison regime (Section 1 lists these operational mitigations).
enum class MedMode {
  kPerNeighborAs,  ///< standard semantics: compare only within one nextAS
  kAlwaysCompare,  ///< Cisco "bgp always-compare-med": one global MED group
  kIgnore,         ///< MEDs disabled entirely
};

/// Per-neighbor-AS deviation from the global MED regime.  Real networks mix
/// regimes ("always-compare towards provider X, ignore MEDs from peer Y"),
/// and Godfrey's *BGP Stability is Precarious* predicts such mixes are
/// fertile ground for divergence — the adversarial explorer searches them.
struct MedOverride {
  AsId as = 0;
  MedMode mode = MedMode::kPerNeighborAs;

  friend bool operator==(const MedOverride&, const MedOverride&) = default;
};

struct SelectionPolicy {
  RuleOrder order = RuleOrder::kPreferEbgpFirst;
  MedMode med = MedMode::kPerNeighborAs;

  /// Per-AS exceptions to `med` (first matching entry wins).  Semantics of
  /// the resulting groups in rule 3: every AS whose effective mode is
  /// kAlwaysCompare shares ONE elimination group; kPerNeighborAs ASes each
  /// form their own group; kIgnore ASes are exempt from MED elimination
  /// entirely.  All of this is a pure function of path attributes, so
  /// Choose^B stays node-independent under any mix.
  std::vector<MedOverride> med_overrides;

  /// The effective MED regime for routes through `as`.
  [[nodiscard]] MedMode med_mode_for(AsId as) const {
    for (const MedOverride& entry : med_overrides) {
      if (entry.as == as) return entry.mode;
    }
    return med;
  }

  friend bool operator==(const SelectionPolicy&, const SelectionPolicy&) = default;
};

/// A route as evaluated at a particular node u: exit path + the IGP metric of
/// the internal part + who advertised it to u (Section 4's route(p, u) with
/// learnedFrom).
struct RouteView {
  PathId path = kNoPath;
  Cost metric = kInfCost;    ///< cost(SP(u, exitPoint)) + exitCost
  BgpId learned_from = 0;    ///< BGP id of the advertising peer
  bool is_ebgp = false;      ///< exitPoint == u (learned directly via E-BGP)

  friend bool operator==(const RouteView&, const RouteView&) = default;
};

/// Input candidate: a visible exit path and the peer it was learned from.
struct Candidate {
  PathId path = kNoPath;
  BgpId learned_from = 0;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// Rules 1-3 (Choose^B, Fig 10) over bare exit paths.  Node-independent.
/// Writes the surviving ids to `out` (which must not alias `paths`) in
/// ascending order.  The policy's MED regime (including per-AS overrides)
/// governs rule 3; `order` is irrelevant here.
void choose_survivors(const ExitTable& table, std::span<const PathId> paths,
                      const SelectionPolicy& policy, std::vector<PathId>& out);

/// Materializes route(p, u): metric and E-BGP-ness of `path` as seen from
/// node u.  Returns nullopt when the exit point is IGP-unreachable from u.
std::optional<RouteView> make_route_view(const ExitTable& table,
                                         const netsim::ShortestPaths& igp, NodeId u,
                                         const Candidate& candidate);

/// The selection steps of Choose_best, for decision provenance.  Values are
/// stable indices into SelectionProvenance::eliminated and the observability
/// layer's per-rule counters.
enum class SelectionRule : std::uint8_t {
  kSoleCandidate = 0,  ///< one usable route; no rule had to discriminate
  kLocalPref = 1,      ///< rule 1: highest LOCAL-PREF
  kAsPathLength = 2,   ///< rule 2: shortest AS-PATH
  kMed = 3,            ///< rule 3: per-neighbor-AS MED elimination
  kEbgpOverIbgp = 4,   ///< rule 4: E-BGP routes beat I-BGP routes
  kIgpCost = 5,        ///< rule 5: minimum IGP metric
  kBgpIdTieBreak = 6,  ///< rule 6: lowest learnedFrom BGP identifier
  kPathIdTieBreak = 7, ///< beyond the paper: duplicate-announcement fallback
};
inline constexpr std::size_t kSelectionRuleCount = 8;

/// Stable kebab-case name ("local-pref", "igp-cost", ...), used for metric
/// names and ibgp-trace-v1 records.
std::string_view selection_rule_name(SelectionRule rule);

constexpr std::size_t rule_index(SelectionRule rule) {
  return static_cast<std::size_t>(rule);
}

/// Provenance of one Choose_best invocation: which rule eliminated whom and
/// which rule was decisive (the last one that actually narrowed the set —
/// kSoleCandidate when the usable set was already a singleton).
///
/// Invariant (tested): when a route was selected,
///   usable == 1 + sum(eliminated)  and  usable == candidates - unreachable.
struct SelectionProvenance {
  std::size_t candidates = 0;    ///< input routes offered to the procedure
  std::size_t unreachable = 0;   ///< dropped before rule 1 (exit unreachable)
  std::size_t usable = 0;        ///< survivors entering rule 1
  std::array<std::uint32_t, kSelectionRuleCount> eliminated{};
  SelectionRule decisive = SelectionRule::kSoleCandidate;
  bool selected = false;         ///< false: empty usable set, no decision

  [[nodiscard]] std::uint64_t eliminated_total() const {
    std::uint64_t total = 0;
    for (const std::uint32_t count : eliminated) total += count;
    return total;
  }
};

/// Full Choose_best (Fig 6) at node u over `candidates`.
/// Deterministic: ties after rule 6 (identical learnedFrom — possible only
/// for duplicate announcements) fall back to the lowest PathId.
/// Returns nullopt when no candidate is usable (empty set or unreachable).
/// When `provenance` is non-null it is overwritten with this invocation's
/// elimination record.
///
/// Choose_best and Choose^B filter in per-thread scratch buffers, so once
/// those (and a reused survivor vector) have grown to the largest candidate
/// set seen on the thread, neither allocates.
std::optional<RouteView> choose_best(const ExitTable& table, const netsim::ShortestPaths& igp,
                                     NodeId u, std::span<const Candidate> candidates,
                                     const SelectionPolicy& policy = {},
                                     SelectionProvenance* provenance = nullptr);

/// Step-by-step record of one selection, for explanation tools and tests.
struct SelectionExplanation {
  /// Survivor path ids after each rule, in application order; entry 0 is the
  /// usable input set.
  std::vector<std::pair<std::string, std::vector<PathId>>> stages;
  std::optional<RouteView> best;
};

/// Runs choose_best while recording every elimination stage.
SelectionExplanation explain_selection(const ExitTable& table,
                                       const netsim::ShortestPaths& igp, NodeId u,
                                       std::span<const Candidate> candidates,
                                       const SelectionPolicy& policy = {});

}  // namespace ibgp::bgp
