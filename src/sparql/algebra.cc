#include "sparql/algebra.h"

#include <algorithm>

namespace triq::sparql {

namespace {

void AddUnique(std::vector<SymbolId>* vec, SymbolId v) {
  if (std::find(vec->begin(), vec->end(), v) == vec->end()) {
    vec->push_back(v);
  }
}

}  // namespace

std::unique_ptr<Condition> Condition::Bound(SymbolId var) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kBound;
  c->var1 = var;
  return c;
}

std::unique_ptr<Condition> Condition::EqConst(SymbolId var,
                                              SymbolId constant) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kEqConst;
  c->var1 = var;
  c->constant = constant;
  return c;
}

std::unique_ptr<Condition> Condition::EqVar(SymbolId var1, SymbolId var2) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kEqVar;
  c->var1 = var1;
  c->var2 = var2;
  return c;
}

std::unique_ptr<Condition> Condition::Not(std::unique_ptr<Condition> inner) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kNot;
  c->left = std::move(inner);
  return c;
}

std::unique_ptr<Condition> Condition::Or(std::unique_ptr<Condition> a,
                                         std::unique_ptr<Condition> b) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kOr;
  c->left = std::move(a);
  c->right = std::move(b);
  return c;
}

std::unique_ptr<Condition> Condition::And(std::unique_ptr<Condition> a,
                                          std::unique_ptr<Condition> b) {
  auto c = std::make_unique<Condition>();
  c->kind = Kind::kAnd;
  c->left = std::move(a);
  c->right = std::move(b);
  return c;
}

void Condition::CollectVariables(std::vector<SymbolId>* out) const {
  switch (kind) {
    case Kind::kBound:
    case Kind::kEqConst:
      AddUnique(out, var1);
      break;
    case Kind::kEqVar:
      AddUnique(out, var1);
      AddUnique(out, var2);
      break;
    case Kind::kNot:
      left->CollectVariables(out);
      break;
    case Kind::kOr:
    case Kind::kAnd:
      left->CollectVariables(out);
      right->CollectVariables(out);
      break;
  }
}

std::unique_ptr<GraphPattern> GraphPattern::Basic(
    std::vector<TriplePattern> ts) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kBasic;
  p->triples = std::move(ts);
  return p;
}

std::unique_ptr<GraphPattern> GraphPattern::And(
    std::unique_ptr<GraphPattern> a, std::unique_ptr<GraphPattern> b) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kAnd;
  p->left = std::move(a);
  p->right = std::move(b);
  return p;
}

std::unique_ptr<GraphPattern> GraphPattern::Union(
    std::unique_ptr<GraphPattern> a, std::unique_ptr<GraphPattern> b) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kUnion;
  p->left = std::move(a);
  p->right = std::move(b);
  return p;
}

std::unique_ptr<GraphPattern> GraphPattern::Opt(
    std::unique_ptr<GraphPattern> a, std::unique_ptr<GraphPattern> b) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kOpt;
  p->left = std::move(a);
  p->right = std::move(b);
  return p;
}

std::unique_ptr<GraphPattern> GraphPattern::Filter(
    std::unique_ptr<GraphPattern> inner, std::unique_ptr<Condition> c) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kFilter;
  p->left = std::move(inner);
  p->condition = std::move(c);
  return p;
}

std::unique_ptr<GraphPattern> GraphPattern::Select(
    std::vector<SymbolId> vars, std::unique_ptr<GraphPattern> inner) {
  auto p = std::make_unique<GraphPattern>();
  p->kind = Kind::kSelect;
  p->projection = std::move(vars);
  p->left = std::move(inner);
  return p;
}

std::vector<SymbolId> GraphPattern::Variables() const {
  std::vector<SymbolId> out;
  switch (kind) {
    case Kind::kBasic:
      for (const TriplePattern& t : triples) {
        for (PatternTerm term : {t.subject, t.predicate, t.object}) {
          if (term.IsVariable()) AddUnique(&out, term.symbol);
        }
      }
      break;
    case Kind::kAnd:
    case Kind::kUnion:
    case Kind::kOpt: {
      out = left->Variables();
      for (SymbolId v : right->Variables()) AddUnique(&out, v);
      break;
    }
    case Kind::kFilter:
      out = left->Variables();
      break;
    case Kind::kSelect:
      out = projection;
      break;
  }
  return out;
}

namespace {

std::string TermString(PatternTerm t, const Dictionary& dict) {
  return dict.Text(t.symbol);
}

std::string ConditionString(const Condition& c, const Dictionary& dict) {
  switch (c.kind) {
    case Condition::Kind::kBound:
      return "bound(" + dict.Text(c.var1) + ")";
    case Condition::Kind::kEqConst:
      return dict.Text(c.var1) + " = " + dict.Text(c.constant);
    case Condition::Kind::kEqVar:
      return dict.Text(c.var1) + " = " + dict.Text(c.var2);
    case Condition::Kind::kNot:
      return "(! " + ConditionString(*c.left, dict) + ")";
    case Condition::Kind::kOr:
      return "(" + ConditionString(*c.left, dict) + " || " +
             ConditionString(*c.right, dict) + ")";
    case Condition::Kind::kAnd:
      return "(" + ConditionString(*c.left, dict) + " && " +
             ConditionString(*c.right, dict) + ")";
  }
  return "";
}

}  // namespace

std::string GraphPattern::ToString(const Dictionary& dict) const {
  switch (kind) {
    case Kind::kBasic: {
      std::string out = "{ ";
      for (size_t i = 0; i < triples.size(); ++i) {
        if (i > 0) out += " . ";
        out += TermString(triples[i].subject, dict) + " " +
               TermString(triples[i].predicate, dict) + " " +
               TermString(triples[i].object, dict);
      }
      return out + " }";
    }
    case Kind::kAnd:
      return "AND(" + left->ToString(dict) + ", " + right->ToString(dict) +
             ")";
    case Kind::kUnion:
      return "UNION(" + left->ToString(dict) + ", " + right->ToString(dict) +
             ")";
    case Kind::kOpt:
      return "OPT(" + left->ToString(dict) + ", " + right->ToString(dict) +
             ")";
    case Kind::kFilter:
      return "FILTER(" + left->ToString(dict) + ", " +
             ConditionString(*condition, dict) + ")";
    case Kind::kSelect: {
      std::string out = "SELECT(";
      for (size_t i = 0; i < projection.size(); ++i) {
        if (i > 0) out += " ";
        out += dict.Text(projection[i]);
      }
      return out + ", " + left->ToString(dict) + ")";
    }
  }
  return "";
}

}  // namespace triq::sparql
