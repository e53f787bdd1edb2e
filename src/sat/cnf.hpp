#pragma once
// CNF formulas: the source side of the Section 5 reduction.
//
// Variables are 1-based (DIMACS convention); a literal is +v or -v.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ibgp::sat {

/// A literal: variable index (1-based) with sign.
struct Lit {
  std::int32_t value = 0;  // +v or -v, never 0

  [[nodiscard]] std::uint32_t var() const { return static_cast<std::uint32_t>(value < 0 ? -value : value); }
  [[nodiscard]] bool positive() const { return value > 0; }

  friend bool operator==(const Lit&, const Lit&) = default;
};

using Clause = std::vector<Lit>;

/// Truth assignment: assignment[v] for v in 1..num_vars (index 0 unused).
using Assignment = std::vector<bool>;

class Formula {
 public:
  Formula() = default;
  explicit Formula(std::uint32_t num_vars) : num_vars_(num_vars) {}

  [[nodiscard]] std::uint32_t num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t num_clauses() const { return clauses_.size(); }
  [[nodiscard]] const std::vector<Clause>& clauses() const { return clauses_; }

  /// Adds a clause; grows num_vars if a literal exceeds it.  Throws on a
  /// zero literal or an empty clause.
  void add_clause(Clause clause);

  /// True iff `assignment` (size num_vars+1) satisfies every clause.
  [[nodiscard]] bool satisfied_by(const Assignment& assignment) const;

  /// DIMACS "p cnf" serialization.
  [[nodiscard]] std::string to_dimacs() const;

 private:
  std::uint32_t num_vars_ = 0;
  std::vector<Clause> clauses_;
};

/// Parses DIMACS CNF (comments, "p cnf" header, zero-terminated clauses).
/// Throws std::runtime_error on malformed input.
Formula parse_dimacs(std::string_view text);

/// Uniform random 3-SAT with `clauses` clauses over `vars` variables; no
/// clause contains a variable twice (tautologies and duplicates avoided).
Formula random_3sat(std::uint32_t vars, std::size_t clauses, std::uint64_t seed);

}  // namespace ibgp::sat
