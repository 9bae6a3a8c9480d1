#include "translate/sparql_to_datalog.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "translate/owl2ql_program.h"

namespace triq::translate {

namespace {

using datalog::Atom;
using datalog::PredicateId;
using datalog::Program;
using datalog::Rule;
using datalog::Term;
using sparql::GraphPattern;
using sparql::Condition;
using sparql::PatternTerm;

/// The reserved unbound marker ⋆ of τ_out (Section 5.1).
constexpr std::string_view kStarText = "\xE2\x8B\x86";  // "⋆"

/// Node ids are process-global so that programs translated over a shared
/// dictionary can be merged without predicate collisions.
std::atomic<int> g_node_counter{0};

bool Contains(const std::vector<SymbolId>& vec, SymbolId v) {
  return std::find(vec.begin(), vec.end(), v) != vec.end();
}

std::vector<SymbolId> UnionOf(const std::vector<SymbolId>& a,
                              const std::vector<SymbolId>& b) {
  std::vector<SymbolId> out = a;
  for (SymbolId v : b) {
    if (!Contains(out, v)) out.push_back(v);
  }
  return out;
}

std::vector<SymbolId> IntersectOf(const std::vector<SymbolId>& a,
                                  const std::vector<SymbolId>& b) {
  std::vector<SymbolId> out;
  for (SymbolId v : a) {
    if (Contains(b, v)) out.push_back(v);
  }
  return out;
}

/// How a shared variable is matched in one join case (Section 5.1's
/// case analysis for AND/OPT over possibly-unbound variables).
enum class JoinCase {
  kBothAgree,   // same value on both sides (covers bound=bound and ⋆=⋆)
  kLeftWins,    // right side unbound (⋆), value taken from the left
  kRightWins,   // left side unbound (⋆), value taken from the right
};

class Translator {
 public:
  Translator(std::shared_ptr<Dictionary> dict,
             const TranslationOptions& options)
      : dict_(std::move(dict)), options_(options), program_(dict_) {
    star_ = dict_->Intern(kStarText);
  }

  Result<TranslatedQuery> Translate(const GraphPattern& pattern) {
    if (options_.regime != Regime::kPlain && options_.include_owl2ql_core) {
      TRIQ_RETURN_IF_ERROR(program_.Append(BuildOwl2QlCoreProgram(dict_)));
    }
    TRIQ_ASSIGN_OR_RETURN(Node root, Compile(pattern));
    // τ_out: copy the root node into the (body-free) answer predicate.
    PredicateId answer = Fresh("answer");
    Rule out;
    out.body.push_back(NodeAtom(root));
    out.head.push_back(Atom{answer, VarTerms(root.vars), false});
    TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(out)));

    TranslatedQuery q{std::move(program_), answer, root.vars, star_};
    return q;
  }

 private:
  struct Node {
    PredicateId pred = kInvalidSymbol;
    std::vector<SymbolId> vars;     // answer schema, in order
    std::vector<SymbolId> certain;  // subset bound in every answer
  };

  /// A predicate no one has named before: `base@N` for the next counter
  /// value whose text this call newly interns. Names already in the
  /// dictionary — e.g. a user rule deriving `q@0` — are skipped, so a
  /// query's fresh heads never name what the data program mentions.
  PredicateId Fresh(const char* base) {
    for (;;) {
      bool created = false;
      PredicateId pred =
          dict_->Intern(std::string(base) + "@" +
                            std::to_string(g_node_counter.fetch_add(1)),
                        &created);
      if (created) return pred;
    }
  }

  Term Star() const { return Term::Constant(star_); }

  static std::vector<Term> VarTerms(const std::vector<SymbolId>& vars) {
    std::vector<Term> out;
    out.reserve(vars.size());
    for (SymbolId v : vars) out.push_back(Term::Variable(v));
    return out;
  }

  static Atom NodeAtom(const Node& node) {
    return Atom{node.pred, VarTerms(node.vars), false};
  }

  Result<Node> Compile(const GraphPattern& p) {
    switch (p.kind) {
      case GraphPattern::Kind::kBasic:
        return CompileBasic(p);
      case GraphPattern::Kind::kAnd:
        return CompileAnd(p);
      case GraphPattern::Kind::kUnion:
        return CompileUnion(p);
      case GraphPattern::Kind::kOpt:
        return CompileOpt(p);
      case GraphPattern::Kind::kFilter:
        return CompileFilter(p);
      case GraphPattern::Kind::kSelect:
        return CompileSelect(p);
    }
    return Status::Internal("unknown pattern kind");
  }

  // τ_bgp / τ^U_bgp / τ^All_bgp (Sections 5.1-5.3).
  Result<Node> CompileBasic(const GraphPattern& p) {
    if (p.triples.empty()) {
      return Status::InvalidArgument("basic graph patterns must be non-empty");
    }
    Node node;
    node.vars = p.Variables();
    node.certain = node.vars;
    node.pred = Fresh("q");

    PredicateId triple_pred =
        dict_->Intern(options_.regime == Regime::kPlain ? "triple"
                                                        : "triple1");
    Rule rule;
    std::vector<SymbolId> guard_vars;  // C(·) guards under the regimes
    auto to_term = [&](PatternTerm t) -> Term {
      if (t.IsConstant()) return Term::Constant(t.symbol);
      bool guard = options_.regime == Regime::kActiveDomain ||
                   (options_.regime == Regime::kAll && t.IsVariable());
      if (guard && !Contains(guard_vars, t.symbol)) {
        guard_vars.push_back(t.symbol);
      }
      return Term::Variable(t.symbol);
    };
    for (const sparql::TriplePattern& tp : p.triples) {
      Atom atom;
      atom.predicate = triple_pred;
      atom.args = {to_term(tp.subject), to_term(tp.predicate),
                   to_term(tp.object)};
      rule.body.push_back(std::move(atom));
    }
    if (options_.regime != Regime::kPlain) {
      PredicateId c_pred = dict_->Intern("C");
      for (SymbolId v : guard_vars) {
        rule.body.push_back(Atom{c_pred, {Term::Variable(v)}, false});
      }
    }
    rule.head.push_back(Atom{node.pred, VarTerms(node.vars), false});
    TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
    return node;
  }

  /// Enumerates the join-case combinations for the shared variables of
  /// two nodes, invoking `emit(largs, rargs)` with the argument lists of
  /// the two body atoms for each combination.
  Status ForEachJoinCase(
      const Node& l, const Node& r,
      const std::function<Status(const std::vector<Term>&,
                                 const std::vector<Term>&)>& emit) {
    std::vector<SymbolId> shared = IntersectOf(l.vars, r.vars);
    std::vector<std::vector<JoinCase>> choices;
    for (SymbolId v : shared) {
      std::vector<JoinCase> cases = {JoinCase::kBothAgree};
      if (!Contains(r.certain, v)) cases.push_back(JoinCase::kLeftWins);
      if (!Contains(l.certain, v)) cases.push_back(JoinCase::kRightWins);
      choices.push_back(std::move(cases));
    }
    std::vector<JoinCase> combo(shared.size());
    Status status = Status::OK();
    std::function<void(size_t)> recurse = [&](size_t i) {
      if (!status.ok()) return;
      if (i == shared.size()) {
        std::vector<Term> largs, rargs;
        for (SymbolId v : l.vars) {
          auto it = std::find(shared.begin(), shared.end(), v);
          if (it != shared.end() &&
              combo[it - shared.begin()] == JoinCase::kRightWins) {
            largs.push_back(Star());
          } else {
            largs.push_back(Term::Variable(v));
          }
        }
        for (SymbolId v : r.vars) {
          auto it = std::find(shared.begin(), shared.end(), v);
          if (it != shared.end() &&
              combo[it - shared.begin()] == JoinCase::kLeftWins) {
            rargs.push_back(Star());
          } else {
            rargs.push_back(Term::Variable(v));
          }
        }
        status = emit(largs, rargs);
        return;
      }
      for (JoinCase c : choices[i]) {
        combo[i] = c;
        recurse(i + 1);
      }
    };
    recurse(0);
    return status;
  }

  Result<Node> CompileAnd(const GraphPattern& p) {
    TRIQ_ASSIGN_OR_RETURN(Node l, Compile(*p.left));
    TRIQ_ASSIGN_OR_RETURN(Node r, Compile(*p.right));
    Node node;
    node.pred = Fresh("q");
    node.vars = UnionOf(l.vars, r.vars);
    node.certain = UnionOf(l.certain, r.certain);
    TRIQ_RETURN_IF_ERROR(EmitJoinRules(l, r, node));
    return node;
  }

  Status EmitJoinRules(const Node& l, const Node& r, const Node& node) {
    return ForEachJoinCase(
        l, r,
        [&](const std::vector<Term>& largs,
            const std::vector<Term>& rargs) -> Status {
          Rule rule;
          rule.body.push_back(Atom{l.pred, largs, false});
          rule.body.push_back(Atom{r.pred, rargs, false});
          // Every head variable occurs on whichever side is not ⋆.
          std::vector<Term> head;
          for (SymbolId v : node.vars) {
            bool bound_left =
                Contains(l.vars, v) &&
                largs[std::find(l.vars.begin(), l.vars.end(), v) -
                      l.vars.begin()] == Term::Variable(v);
            bool bound_right =
                Contains(r.vars, v) &&
                rargs[std::find(r.vars.begin(), r.vars.end(), v) -
                      r.vars.begin()] == Term::Variable(v);
            head.push_back(bound_left || bound_right ? Term::Variable(v)
                                                     : Star());
          }
          rule.head.push_back(Atom{node.pred, std::move(head), false});
          return program_.AddRule(std::move(rule));
        });
  }

  Result<Node> CompileUnion(const GraphPattern& p) {
    TRIQ_ASSIGN_OR_RETURN(Node l, Compile(*p.left));
    TRIQ_ASSIGN_OR_RETURN(Node r, Compile(*p.right));
    Node node;
    node.pred = Fresh("q");
    node.vars = UnionOf(l.vars, r.vars);
    node.certain = IntersectOf(l.certain, r.certain);
    for (const Node* side : {&l, &r}) {
      Rule rule;
      rule.body.push_back(NodeAtom(*side));
      std::vector<Term> head;
      for (SymbolId v : node.vars) {
        head.push_back(Contains(side->vars, v) ? Term::Variable(v) : Star());
      }
      rule.head.push_back(Atom{node.pred, std::move(head), false});
      TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
    }
    return node;
  }

  Result<Node> CompileOpt(const GraphPattern& p) {
    TRIQ_ASSIGN_OR_RETURN(Node l, Compile(*p.left));
    TRIQ_ASSIGN_OR_RETURN(Node r, Compile(*p.right));
    Node node;
    node.pred = Fresh("q");
    node.vars = UnionOf(l.vars, r.vars);
    node.certain = l.certain;

    // Ω1 ⋈ Ω2 — as for AND.
    TRIQ_RETURN_IF_ERROR(EmitJoinRules(l, r, node));

    // compatible_P (rule (11)): left tuples that have a compatible
    // right tuple, keyed by the *entire* left tuple.
    PredicateId compat = Fresh("compat");
    TRIQ_RETURN_IF_ERROR(ForEachJoinCase(
        l, r,
        [&](const std::vector<Term>& largs,
            const std::vector<Term>& rargs) -> Status {
          Rule rule;
          rule.body.push_back(Atom{l.pred, largs, false});
          rule.body.push_back(Atom{r.pred, rargs, false});
          rule.head.push_back(Atom{compat, largs, false});
          return program_.AddRule(std::move(rule));
        }));

    // Ω1 \ Ω2 (rule (12)): left tuples with no compatible right tuple,
    // padded with ⋆ on the right-only variables.
    Rule diff;
    diff.body.push_back(NodeAtom(l));
    diff.body.push_back(Atom{compat, VarTerms(l.vars), true});
    std::vector<Term> head;
    for (SymbolId v : node.vars) {
      head.push_back(Contains(l.vars, v) ? Term::Variable(v) : Star());
    }
    diff.head.push_back(Atom{node.pred, std::move(head), false});
    TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(diff)));
    return node;
  }

  Result<Node> CompileFilter(const GraphPattern& p) {
    TRIQ_ASSIGN_OR_RETURN(Node child, Compile(*p.left));
    Node node;
    node.pred = Fresh("q");
    node.vars = child.vars;
    node.certain = child.certain;

    // star@(⋆) — a singleton helper relation used to test boundness
    // with grounded negation. It is populated as soon as the child has
    // any answer (if it has none, the filter is empty anyway).
    PredicateId star_pred = Fresh("star");
    {
      Rule rule;
      rule.body.push_back(NodeAtom(child));
      rule.head.push_back(Atom{star_pred, {Star()}, false});
      TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
    }
    TRIQ_ASSIGN_OR_RETURN(
        PredicateId sat, CompileCondition(*p.condition, child, star_pred));
    Rule out;
    out.body.push_back(Atom{sat, VarTerms(child.vars), false});
    out.head.push_back(Atom{node.pred, VarTerms(child.vars), false});
    TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(out)));
    return node;
  }

  /// Compiles µ |= R into a predicate over the child's schema holding
  /// exactly the satisfying tuples.
  Result<PredicateId> CompileCondition(const Condition& cond,
                                       const Node& child,
                                       PredicateId star_pred) {
    PredicateId sat = Fresh("sat");
    auto position_of = [&](SymbolId v) -> int {
      auto it = std::find(child.vars.begin(), child.vars.end(), v);
      return it == child.vars.end()
                 ? -1
                 : static_cast<int>(it - child.vars.begin());
    };
    switch (cond.kind) {
      case Condition::Kind::kBound: {
        int pos = position_of(cond.var1);
        if (pos < 0) {
          return Status::InvalidArgument("filter variable not in pattern");
        }
        Rule rule;
        rule.body.push_back(NodeAtom(child));
        rule.body.push_back(
            Atom{star_pred, {Term::Variable(cond.var1)}, true});
        rule.head.push_back(Atom{sat, VarTerms(child.vars), false});
        TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        break;
      }
      case Condition::Kind::kEqConst: {
        int pos = position_of(cond.var1);
        if (pos < 0) {
          return Status::InvalidArgument("filter variable not in pattern");
        }
        Rule rule;
        std::vector<Term> args = VarTerms(child.vars);
        args[pos] = Term::Constant(cond.constant);
        rule.body.push_back(Atom{child.pred, args, false});
        rule.head.push_back(Atom{sat, args, false});
        TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        break;
      }
      case Condition::Kind::kEqVar: {
        int pos1 = position_of(cond.var1);
        int pos2 = position_of(cond.var2);
        if (pos1 < 0 || pos2 < 0) {
          return Status::InvalidArgument("filter variable not in pattern");
        }
        Rule rule;
        std::vector<Term> args = VarTerms(child.vars);
        args[pos2] = Term::Variable(cond.var1);  // unify the two columns
        rule.body.push_back(Atom{child.pred, args, false});
        // Both must be bound: exclude the ⋆=⋆ tuple.
        rule.body.push_back(
            Atom{star_pred, {Term::Variable(cond.var1)}, true});
        rule.head.push_back(Atom{sat, args, false});
        TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        break;
      }
      case Condition::Kind::kNot: {
        TRIQ_ASSIGN_OR_RETURN(
            PredicateId inner,
            CompileCondition(*cond.left, child, star_pred));
        Rule rule;
        rule.body.push_back(NodeAtom(child));
        rule.body.push_back(Atom{inner, VarTerms(child.vars), true});
        rule.head.push_back(Atom{sat, VarTerms(child.vars), false});
        TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        break;
      }
      case Condition::Kind::kOr: {
        TRIQ_ASSIGN_OR_RETURN(
            PredicateId a, CompileCondition(*cond.left, child, star_pred));
        TRIQ_ASSIGN_OR_RETURN(
            PredicateId b, CompileCondition(*cond.right, child, star_pred));
        for (PredicateId side : {a, b}) {
          Rule rule;
          rule.body.push_back(Atom{side, VarTerms(child.vars), false});
          rule.head.push_back(Atom{sat, VarTerms(child.vars), false});
          TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        }
        break;
      }
      case Condition::Kind::kAnd: {
        TRIQ_ASSIGN_OR_RETURN(
            PredicateId a, CompileCondition(*cond.left, child, star_pred));
        TRIQ_ASSIGN_OR_RETURN(
            PredicateId b, CompileCondition(*cond.right, child, star_pred));
        Rule rule;
        rule.body.push_back(Atom{a, VarTerms(child.vars), false});
        rule.body.push_back(Atom{b, VarTerms(child.vars), false});
        rule.head.push_back(Atom{sat, VarTerms(child.vars), false});
        TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
        break;
      }
    }
    return sat;
  }

  Result<Node> CompileSelect(const GraphPattern& p) {
    TRIQ_ASSIGN_OR_RETURN(Node child, Compile(*p.left));
    Node node;
    node.pred = Fresh("q");
    node.vars = p.projection;
    node.certain = IntersectOf(p.projection, child.certain);
    Rule rule;
    rule.body.push_back(NodeAtom(child));
    std::vector<Term> head;
    for (SymbolId v : node.vars) {
      head.push_back(Contains(child.vars, v) ? Term::Variable(v) : Star());
    }
    rule.head.push_back(Atom{node.pred, std::move(head), false});
    TRIQ_RETURN_IF_ERROR(program_.AddRule(std::move(rule)));
    return node;
  }

  std::shared_ptr<Dictionary> dict_;
  TranslationOptions options_;
  Program program_;
  SymbolId star_ = kInvalidSymbol;
};

}  // namespace

Result<TranslatedQuery> TranslatePattern(const sparql::GraphPattern& pattern,
                                         std::shared_ptr<Dictionary> dict,
                                         const TranslationOptions& options) {
  return Translator(std::move(dict), options).Translate(pattern);
}

sparql::MappingSet AnswersToMappings(const TranslatedQuery& query,
                                     const chase::Instance& instance) {
  const chase::Relation* rel = instance.Find(query.answer_predicate);
  if (rel == nullptr) return {};
  // The relation holds each tuple once, and two distinct tuples decode to
  // distinct mappings: where they differ, one binds the position's
  // variable and the other binds it to another value or leaves it at ⋆.
  // So every row is appended without a membership test.
  std::vector<sparql::SparqlMapping> rows;
  rows.reserve(rel->size());
  for (chase::TupleView tuple : rel->tuples()) {
    sparql::SparqlMapping m;
    bool valid = true;
    for (uint32_t i = 0; i < tuple.size(); ++i) {
      if (tuple[i].IsNull()) {
        valid = false;  // nulls never reach answer schemas (C-guarded)
        break;
      }
      if (tuple[i].symbol() != query.star) {
        m.Bind(query.answer_variables[i], tuple[i].symbol());
      }
    }
    if (valid) rows.push_back(std::move(m));
  }
  return sparql::MappingSet(std::move(rows));
}

Result<sparql::MappingSet> EvaluateTranslated(
    const TranslatedQuery& query, const rdf::Graph& graph,
    const chase::ChaseOptions& chase_options) {
  chase::Instance instance = chase::Instance::FromGraph(graph);
  TRIQ_RETURN_IF_ERROR(
      chase::RunChase(query.program, &instance, chase_options));
  return AnswersToMappings(query, instance);
}

}  // namespace triq::translate
