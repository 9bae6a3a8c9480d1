#ifndef TRIQ_SPARQL_ALGEBRA_H_
#define TRIQ_SPARQL_ALGEBRA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/dictionary.h"

namespace triq::sparql {

/// A term of a triple pattern: a URI constant, a variable (?X), or a
/// blank node (_:B) acting as an existential (Section 3.1).
struct PatternTerm {
  enum class Kind { kConstant, kVariable, kBlank };
  Kind kind = Kind::kConstant;
  SymbolId symbol = kInvalidSymbol;

  static PatternTerm Constant(SymbolId s) {
    return {Kind::kConstant, s};
  }
  static PatternTerm Variable(SymbolId s) {
    return {Kind::kVariable, s};
  }
  static PatternTerm Blank(SymbolId s) { return {Kind::kBlank, s}; }

  bool IsConstant() const { return kind == Kind::kConstant; }
  bool IsVariable() const { return kind == Kind::kVariable; }
  bool IsBlank() const { return kind == Kind::kBlank; }

  friend bool operator==(PatternTerm a, PatternTerm b) {
    return a.kind == b.kind && a.symbol == b.symbol;
  }
};

/// One element of a basic graph pattern.
struct TriplePattern {
  PatternTerm subject;
  PatternTerm predicate;
  PatternTerm object;
};

/// A SPARQL built-in condition R (Section 3.1): atomic conditions
/// bound(?X), ?X = c, ?X = ?Y, closed under ¬, ∨, ∧.
struct Condition {
  enum class Kind { kBound, kEqConst, kEqVar, kNot, kOr, kAnd };
  Kind kind = Kind::kBound;
  SymbolId var1 = kInvalidSymbol;      // kBound / kEqConst / kEqVar
  SymbolId var2 = kInvalidSymbol;      // kEqVar
  SymbolId constant = kInvalidSymbol;  // kEqConst
  std::unique_ptr<Condition> left;     // kNot / kOr / kAnd
  std::unique_ptr<Condition> right;    // kOr / kAnd

  static std::unique_ptr<Condition> Bound(SymbolId var);
  static std::unique_ptr<Condition> EqConst(SymbolId var, SymbolId constant);
  static std::unique_ptr<Condition> EqVar(SymbolId var1, SymbolId var2);
  static std::unique_ptr<Condition> Not(std::unique_ptr<Condition> c);
  static std::unique_ptr<Condition> Or(std::unique_ptr<Condition> a,
                                       std::unique_ptr<Condition> b);
  static std::unique_ptr<Condition> And(std::unique_ptr<Condition> a,
                                        std::unique_ptr<Condition> b);

  /// var(R), first-seen order.
  void CollectVariables(std::vector<SymbolId>* out) const;
};

/// A SPARQL graph pattern (Section 3.1), built from basic graph patterns
/// with AND, UNION, OPT, FILTER, and SELECT.
struct GraphPattern {
  enum class Kind { kBasic, kAnd, kUnion, kOpt, kFilter, kSelect };
  Kind kind = Kind::kBasic;

  std::vector<TriplePattern> triples;  // kBasic
  std::unique_ptr<GraphPattern> left;  // binary ops; child for Filter/Select
  std::unique_ptr<GraphPattern> right;           // kAnd / kUnion / kOpt
  std::unique_ptr<Condition> condition;          // kFilter
  std::vector<SymbolId> projection;              // kSelect (the set W)

  static std::unique_ptr<GraphPattern> Basic(std::vector<TriplePattern> ts);
  static std::unique_ptr<GraphPattern> And(std::unique_ptr<GraphPattern> a,
                                           std::unique_ptr<GraphPattern> b);
  static std::unique_ptr<GraphPattern> Union(std::unique_ptr<GraphPattern> a,
                                             std::unique_ptr<GraphPattern> b);
  static std::unique_ptr<GraphPattern> Opt(std::unique_ptr<GraphPattern> a,
                                           std::unique_ptr<GraphPattern> b);
  static std::unique_ptr<GraphPattern> Filter(std::unique_ptr<GraphPattern> p,
                                              std::unique_ptr<Condition> c);
  static std::unique_ptr<GraphPattern> Select(std::vector<SymbolId> vars,
                                              std::unique_ptr<GraphPattern> p);

  /// var(P): every variable occurring in the pattern, first-seen order.
  /// For SELECT nodes this is the projection list (the answer schema).
  std::vector<SymbolId> Variables() const;

  std::string ToString(const Dictionary& dict) const;
};

}  // namespace triq::sparql

#endif  // TRIQ_SPARQL_ALGEBRA_H_
