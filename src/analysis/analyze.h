#ifndef TRIQ_ANALYSIS_ANALYZE_H_
#define TRIQ_ANALYSIS_ANALYZE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/termination.h"
#include "datalog/program.h"

namespace triq::analysis {

/// Everything the static analyzer can say about one program: the
/// termination verdict, the lint findings, and the shape numbers
/// (stratification and rule-group count).
struct ProgramAnalysis {
  TerminationVerdict verdict;
  std::vector<Lint> lints;

  size_t num_rules = 0;
  bool stratified = true;
  /// Strata of the minimal stratification; 0 when not stratified.
  size_t num_strata = 0;
  /// Strongly connected components of the rule graph with an edge
  /// a -> b whenever b's positive body reads a head predicate of a
  /// (mutually recursive rules share a group).
  size_t num_rule_groups = 0;

  bool HasErrors() const;
  size_t CountSeverity(LintSeverity severity) const;

  /// Multi-line human-readable report (the triq_lint / --analyze
  /// output): a verdict line, a shape line, then one line per finding.
  std::string Report() const;
};

/// Runs the full analyzer: termination lattice, lint pass, shape.
ProgramAnalysis Analyze(const datalog::Program& program,
                        const LintOptions& options = {});

}  // namespace triq::analysis

#endif  // TRIQ_ANALYSIS_ANALYZE_H_
