#include "analysis/analyze.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/graph.h"
#include "datalog/atom.h"
#include "datalog/rule.h"
#include "datalog/stratify.h"

namespace triq::analysis {

namespace {

// Rule a -> rule b for every head predicate of a that occurs positively
// in b's body; the SCCs of that graph are the groups of mutually
// recursive rules. Constraints are nodes without out-edges.
size_t CountRuleGroups(const datalog::Program& program) {
  const std::vector<datalog::Rule>& rules = program.rules();
  std::unordered_map<datalog::PredicateId, std::vector<uint32_t>> readers;
  for (size_t r = 0; r < rules.size(); ++r) {
    for (const datalog::Atom& atom : rules[r].body) {
      if (!atom.negated) {
        readers[atom.predicate].push_back(static_cast<uint32_t>(r));
      }
    }
  }
  std::vector<std::vector<uint32_t>> edges(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    for (const datalog::Atom& head : rules[r].head) {
      auto it = readers.find(head.predicate);
      if (it == readers.end()) continue;
      edges[r].insert(edges[r].end(), it->second.begin(), it->second.end());
    }
  }
  return common::StronglyConnectedComponents(edges).num_components;
}

}  // namespace

bool ProgramAnalysis::HasErrors() const {
  return std::any_of(lints.begin(), lints.end(), [](const Lint& lint) {
    return lint.severity == LintSeverity::kError;
  });
}

size_t ProgramAnalysis::CountSeverity(LintSeverity severity) const {
  return static_cast<size_t>(
      std::count_if(lints.begin(), lints.end(), [&](const Lint& lint) {
        return lint.severity == severity;
      }));
}

std::string ProgramAnalysis::Report() const {
  std::string out = "verdict: ";
  out += TerminationName(verdict.termination);
  if (!verdict.method.empty()) out += " (" + verdict.method + ")";
  out += "\n";
  if (!verdict.witness.empty()) {
    out += "witness: " + verdict.witness + "\n";
  }
  out += "rules: " + std::to_string(num_rules);
  out += stratified
             ? ", strata: " + std::to_string(num_strata)
             : std::string(", strata: (not stratified)");
  out += ", rule groups: " + std::to_string(num_rule_groups) + "\n";
  for (const Lint& lint : lints) {
    out += LintToString(lint) + "\n";
  }
  return out;
}

ProgramAnalysis Analyze(const datalog::Program& program,
                        const LintOptions& options) {
  ProgramAnalysis analysis;
  analysis.verdict = AnalyzeTermination(program);
  analysis.lints = LintProgram(program, options);
  analysis.num_rules = program.size();
  auto stratification = datalog::Stratify(program.WithoutConstraints());
  if (stratification.ok()) {
    analysis.num_strata = static_cast<size_t>(stratification->num_strata);
  } else {
    analysis.stratified = false;
  }
  analysis.num_rule_groups = CountRuleGroups(program);
  return analysis;
}

}  // namespace triq::analysis
