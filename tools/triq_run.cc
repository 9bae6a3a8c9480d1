// triq_run — command-line query runner over a triq::Engine session.
//
// Evaluate a Datalog∃,¬s,⊥ rule program over an RDF graph:
//   triq_run --graph data.ttl --program query.rules --answer query
//
// Or a SPARQL pattern, optionally under an entailment regime:
//   triq_run --graph data.ttl --sparql '{ ?X eats _:B }' --regime all
//
// Flags:
//   --graph FILE      RDF graph in the Turtle subset (required)
//   --program FILE    rule program (with --answer PRED)
//   --answer PRED     answer predicate of the rule program
//   --sparql TEXT     SPARQL graph pattern (alternative to --program)
//   --pattern TEXT    legacy alias of --sparql
//   --regime MODE     none | active-domain | all  (default none;
//                     plain and active are accepted as aliases of
//                     none and active-domain)
//   --threads N       chase thread count, 1..1024 (default 1; N > 1
//                     runs the parallel sharded executor, same answers)
//   --classify        print the language class of the program and exit
//   --analyze         print the static-analysis report (termination
//                     verdict, lint findings) for the attached program
//                     and exit without materializing; exit 1 on
//                     error-severity findings
//   --explain         print the per-rule join plans (order, access
//                     paths, cardinality estimates) the chase and the
//                     query executor chose against the materialized
//                     instance, then the answers
//   --prove TUPLE     print a proof tree for answer tuple "a,b,c"
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chase/proof_tree.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "datalog/parser.h"
#include "engine/engine.h"

namespace {

struct Args {
  std::string graph_file;
  std::string program_file;
  std::string answer_predicate;
  std::string pattern;
  std::string regime = "none";
  std::string prove;
  size_t threads = 1;
  bool classify = false;
  bool analyze = false;
  bool explain = false;
};

int Fail(const std::string& message) {
  std::cerr << "triq_run: " << message << "\n";
  return 1;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int RunRuleProgram(const Args& args, triq::Engine* engine) {
  std::string program_text;
  if (!ReadFile(args.program_file, &program_text)) {
    return Fail("cannot read " + args.program_file);
  }
  std::string answer = args.answer_predicate.empty() && args.classify
                           ? "query"
                           : args.answer_predicate;
  if (answer.empty()) return Fail("--program needs --answer PRED");

  // The program file is the whole workload — rule libraries in it may
  // extend loaded predicates (e.g. the owl:sameAs library writes
  // triple), so it is attached as the session's data program and the
  // answers are read off the materialized instance, exactly the paper's
  // Eval. TriqQuery::Create still vets (Π, answer) well-formedness and
  // classifies.
  auto program = triq::datalog::ParseProgram(program_text,
                                             engine->dict_ptr());
  if (!program.ok()) return Fail(program.status().ToString());
  auto query = triq::core::TriqQuery::Create(*program, answer);
  if (!query.ok()) return Fail(query.status().ToString());

  if (args.classify) {
    std::cout << triq::core::LanguageName(query->Classify()) << "\n";
    return 0;
  }

  triq::Status attached = engine->AttachProgram(*program);
  if (!attached.ok()) return Fail(attached.ToString());

  if (args.analyze) {
    // Static analysis only: report over the attached data program (the
    // answer predicate counts as an output), no chase rounds run.
    triq::analysis::ProgramAnalysis analysis =
        engine->AnalyzeProgram({answer});
    std::cout << analysis.Report();
    return analysis.HasErrors() ? 1 : 0;
  }

  if (args.explain) {
    auto plans = engine->ExplainProgram();
    if (!plans.ok()) return Fail(plans.status().ToString());
    std::cout << *plans;
  }

  auto answers = engine->Answers(answer);
  if (!answers.ok()) return Fail(answers.status().ToString());
  for (const triq::chase::Tuple& tuple : *answers) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) std::cout << '\t';
      std::cout << engine->dict().Text(tuple[i].symbol());
    }
    std::cout << '\n';
  }
  std::cerr << answers->size() << " answer(s)\n";

  if (!args.prove.empty()) {
    triq::datalog::Atom goal;
    goal.predicate = engine->dict().Intern(answer);
    for (const std::string& part :
         triq::SplitAndTrim(args.prove, ',')) {
      goal.args.push_back(
          triq::datalog::Term::Constant(engine->dict().Intern(part)));
    }
    auto materialized = engine->MaterializedInstance();
    if (!materialized.ok()) return Fail(materialized.status().ToString());
    auto tree = ExtractProofTree(**materialized, goal);
    if (!tree.ok()) return Fail(tree.status().ToString());
    std::cout << "\nproof of " << AtomToString(goal, engine->dict())
              << ":\n" << ProofTreeToString(**tree, engine->dict());
  }
  return 0;
}

int RunPattern(const Args& args, triq::Engine* engine) {
  if (args.explain) {
    auto plans = engine->ExplainQuery(args.pattern);
    if (!plans.ok()) return Fail(plans.status().ToString());
    std::cout << *plans;
  }
  auto answers = engine->Query(args.pattern);
  if (!answers.ok()) return Fail(answers.status().ToString());
  for (const triq::sparql::SparqlMapping& m : answers->mappings()) {
    std::cout << m.ToString(engine->dict()) << '\n';
  }
  std::cerr << answers->size() << " mapping(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--graph") {
      const char* v = next();
      if (!v) return Fail("--graph needs a value");
      args.graph_file = v;
    } else if (flag == "--program") {
      const char* v = next();
      if (!v) return Fail("--program needs a value");
      args.program_file = v;
    } else if (flag == "--answer") {
      const char* v = next();
      if (!v) return Fail("--answer needs a value");
      args.answer_predicate = v;
    } else if (flag == "--sparql" || flag == "--pattern") {
      const char* v = next();
      if (!v) return Fail(flag + " needs a value");
      args.pattern = v;
    } else if (flag == "--regime") {
      const char* v = next();
      if (!v) return Fail("--regime needs a value");
      args.regime = v;
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return Fail("--threads needs a value");
      uint64_t parsed = 0;
      if (!triq::ParseCount(v, triq::common::kMaxThreads, &parsed) ||
          parsed < 1) {
        return Fail("--threads wants a whole number in [1, " +
                    std::to_string(triq::common::kMaxThreads) + "], got '" +
                    v + "'");
      }
      args.threads = static_cast<size_t>(parsed);
    } else if (flag == "--prove") {
      const char* v = next();
      if (!v) return Fail("--prove needs a value");
      args.prove = v;
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--classify") {
      args.classify = true;
    } else if (flag == "--analyze") {
      args.analyze = true;
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "usage: triq_run --graph FILE"
                   " (--program FILE --answer PRED | --sparql TEXT)"
                   " [--regime none|active-domain|all] [--threads N]"
                   " [--classify] [--analyze] [--explain] [--prove a,b,c]\n";
      return 0;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  if (args.graph_file.empty()) return Fail("--graph is required (see --help)");
  if (args.program_file.empty() == args.pattern.empty()) {
    return Fail("give exactly one of --program / --sparql");
  }

  triq::Result<triq::EntailmentRegime> regime =
      triq::ParseEntailmentRegime(args.regime);
  if (!regime.ok()) return Fail(regime.status().ToString());

  triq::Engine engine(triq::EngineOptions()
                          .SetNumThreads(args.threads)
                          .SetTrackProvenance(!args.prove.empty())
                          .SetRegime(*regime));
  triq::Status loaded = engine.LoadTurtleFile(args.graph_file);
  if (!loaded.ok()) return Fail(loaded.ToString());
  std::cerr << "loaded " << engine.base().TotalFacts() << " triple(s)\n";

  if (!args.program_file.empty()) {
    return RunRuleProgram(args, &engine);
  }
  return RunPattern(args, &engine);
}
