// triq_lint — static analyzer / linter for Datalog∃,¬s,⊥ rule files.
//
//   triq_lint [--answer PRED]... [--require-termination] FILE...
//
// For every file: parses it, runs the full static analysis
// (analysis::Analyze — termination verdict, stratification, rule
// groups, lint pass), and prints the report prefixed with the file name.
//
// Flags:
//   --answer PRED           predicate read from outside the program
//                           (repeatable); exempt from the unused-
//                           predicate warning
//   --require-termination   also fail (exit 1) when the termination
//                           verdict is not guaranteed-terminating
//
// Exit status: 0 when every file parses, has no error-severity finding,
// and (under --require-termination) is proved terminating; 1 otherwise.
// Warnings alone never fail the run. Designed for CI: point it at a
// directory's .rules files and let the exit code gate the build.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "common/dictionary.h"
#include "common/strings.h"
#include "datalog/parser.h"

namespace {

/// Indents every line of `report` under the file-name header.
void PrintReport(const std::string& file, const std::string& report) {
  std::cout << file << ":\n";
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) std::cout << "  " << line << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> answer_predicates;
  std::vector<std::string> files;
  bool require_termination = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--answer") {
      if (i + 1 >= argc) {
        std::cerr << "triq_lint: --answer needs a value\n";
        return 1;
      }
      answer_predicates.push_back(argv[++i]);
    } else if (arg == "--require-termination") {
      require_termination = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: triq_lint [--answer PRED]..."
                   " [--require-termination] FILE...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "triq_lint: unknown flag " << arg << "\n";
      return 1;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "triq_lint: no input files (see --help)\n";
    return 1;
  }

  bool failed = false;
  for (const std::string& file : files) {
    triq::Result<std::string> text = triq::ReadFile(file);
    if (!text.ok()) {
      std::cerr << "triq_lint: " << text.status().message() << "\n";
      failed = true;
      continue;
    }
    // Fresh dictionary per file: findings in one file must not change
    // what counts as "used" or "derivable" in the next.
    auto dict = std::make_shared<triq::Dictionary>();
    auto program = triq::datalog::ParseProgram(*text, dict);
    if (!program.ok()) {
      PrintReport(file, "parse error: " + program.status().message());
      failed = true;
      continue;
    }
    triq::analysis::LintOptions options;
    for (const std::string& pred : answer_predicates) {
      options.output_predicates.insert(dict->Intern(pred));
    }
    triq::analysis::ProgramAnalysis analysis =
        triq::analysis::Analyze(*program, options);
    PrintReport(file, analysis.Report());
    if (analysis.HasErrors()) failed = true;
    if (require_termination &&
        analysis.verdict.termination !=
            triq::analysis::Termination::kGuaranteedTerminating) {
      std::cout << "  (termination required but not proved)\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
