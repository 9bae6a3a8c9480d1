#include "core/triq.h"

#include <algorithm>

namespace triq::core {

std::string_view LanguageName(Language language) {
  switch (language) {
    case Language::kDatalog: return "Datalog(~s)";
    case Language::kTriqLite10: return "TriQ-Lite 1.0";
    case Language::kTriq10: return "TriQ 1.0";
    case Language::kUnrestricted: return "Datalog(E,~s,_|_)";
  }
  return "?";
}

Result<TriqQuery> TriqQuery::Create(datalog::Program program,
                                    std::string_view answer_predicate) {
  SymbolId answer = program.dict().Intern(answer_predicate);
  for (const datalog::Rule& rule : program.rules()) {
    for (const datalog::Atom& atom : rule.body) {
      if (atom.predicate == answer) {
        return Status::InvalidArgument(
            "answer predicate must not occur in rule bodies");
      }
    }
  }
  return TriqQuery(std::move(program), answer);
}

Language TriqQuery::Classify() const {
  bool has_existential = false;
  bool has_constraint = false;
  for (const datalog::Rule& rule : program_.rules()) {
    if (rule.IsConstraint()) has_constraint = true;
    if (!rule.ExistentialVariables().empty()) has_existential = true;
  }
  if (!has_existential && !has_constraint &&
      datalog::IsStratifiedCheck(program_)) {
    return Language::kDatalog;
  }
  if (datalog::IsTriqLite10(program_)) return Language::kTriqLite10;
  if (datalog::IsTriq10(program_)) return Language::kTriq10;
  return Language::kUnrestricted;
}

Result<std::vector<chase::Tuple>> TriqQuery::Evaluate(
    const chase::Instance& database, const chase::ChaseOptions& options,
    chase::ChaseStats* stats) const {
  chase::Instance working = database.CloneFacts();
  TRIQ_RETURN_IF_ERROR(chase::RunChase(program_, &working, options, stats));
  return chase::ConstantTuples(working.Find(answer_predicate_));
}

Result<bool> TriqQuery::Holds(const chase::Instance& database,
                              const std::vector<std::string>& tuple,
                              const chase::ChaseOptions& options) const {
  TRIQ_ASSIGN_OR_RETURN(std::vector<chase::Tuple> answers,
                        Evaluate(database, options));
  chase::Tuple target;
  for (const std::string& text : tuple) {
    SymbolId id = database.dict().Find(text);
    if (id == kInvalidSymbol) return false;
    target.push_back(chase::Term::Constant(id));
  }
  return std::find(answers.begin(), answers.end(), target) != answers.end();
}

}  // namespace triq::core
