#ifndef TRIQ_CORE_TRIQ_H_
#define TRIQ_CORE_TRIQ_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "chase/chase.h"
#include "datalog/classify.h"
#include "datalog/program.h"

namespace triq::core {

/// Where a query program falls in the paper's language hierarchy
/// (strongest applicable class first).
enum class Language {
  kDatalog,       // no ∃, no ⊥ — plain Datalog(¬s)
  kTriqLite10,    // warded + grounded stratified negation (Def 6.1)
  kTriq10,        // weakly-frontier-guarded + stratified (Def 4.2)
  kUnrestricted,  // Datalog∃,¬s,⊥ outside TriQ 1.0 (Eval undecidable
                  // in general)
};

std::string_view LanguageName(Language language);

/// A triple query: a Datalog∃,¬s,⊥ program Π plus an answer predicate p
/// that does not occur in any rule body (Section 3.2). This is the
/// public entry point of the library — parse or build a program, wrap it
/// in a TriqQuery, classify it, and evaluate it over a database.
class TriqQuery {
 public:
  /// Validates the (Π, p) well-formedness conditions.
  static Result<TriqQuery> Create(datalog::Program program,
                                  std::string_view answer_predicate);

  const datalog::Program& program() const { return program_; }
  datalog::PredicateId answer_predicate() const { return answer_predicate_; }

  /// Strongest language class this query belongs to.
  Language Classify() const;

  /// Eval (Section 3.2): chases a copy of `database` and returns the
  /// all-constant tuples of the answer predicate. An inconsistent
  /// database (constraint violation) yields StatusCode::kInconsistent —
  /// the paper's ⊤ answer.
  Result<std::vector<chase::Tuple>> Evaluate(
      const chase::Instance& database,
      const chase::ChaseOptions& options = {},
      chase::ChaseStats* stats = nullptr) const;

  /// Membership check: is `tuple` (constants) among the answers? Reads
  /// the database's dictionary without writing it: a string it never
  /// interned is in no answer.
  Result<bool> Holds(const chase::Instance& database,
                     const std::vector<std::string>& tuple,
                     const chase::ChaseOptions& options = {}) const;

 private:
  TriqQuery(datalog::Program program, datalog::PredicateId answer)
      : program_(std::move(program)), answer_predicate_(answer) {}

  datalog::Program program_;
  datalog::PredicateId answer_predicate_;
};

}  // namespace triq::core

#endif  // TRIQ_CORE_TRIQ_H_
