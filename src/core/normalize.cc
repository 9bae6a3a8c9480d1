#include "core/normalize.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "chase/chase.h"
#include "datalog/positions.h"
#include "datalog/stratify.h"

namespace triq::core {

using datalog::Atom;
using datalog::PositionAnalysis;
using datalog::PredicateId;
using datalog::Program;
using datalog::Rule;
using datalog::Stratification;
using datalog::Term;
using datalog::VariableClasses;

namespace {

bool Contains(const std::vector<Term>& vec, Term t) {
  return std::find(vec.begin(), vec.end(), t) != vec.end();
}

std::vector<Term> AtomVars(const Atom& atom) {
  std::vector<Term> out;
  atom.CollectVariables(&out);
  return out;
}

}  // namespace

// Throughout the normalization passes, TRIQ_IGNORE_STATUS(out.AddRule(...))
// re-adds rules of an already-validated program (or auxiliary rules that
// are well-formed by construction), so AddRule's validation cannot fail.

Program NormalizeSingleExistential(const Program& program) {
  Program out(program.dict_ptr());
  Dictionary& dict = out.dict();
  int aux_counter = 0;
  for (const Rule& rule : program.rules()) {
    std::vector<Term> existentials = rule.ExistentialVariables();
    if (existentials.size() <= 1) {
      TRIQ_IGNORE_STATUS(out.AddRule(rule));
      continue;
    }
    // Frontier X = var(body) ∩ var(head).
    std::vector<Term> frontier = rule.FrontierVariables();
    std::string base =
        "exaux@" + std::to_string(aux_counter++) + "_";
    // Chain rules p1, ..., pk, one invention each (footnote-6 style).
    std::vector<Term> carried = frontier;
    Atom prev_aux;
    for (size_t i = 0; i < existentials.size(); ++i) {
      PredicateId aux = dict.Intern(base + std::to_string(i + 1));
      Rule step;
      if (i == 0) {
        step.body = rule.body;
      } else {
        step.body.push_back(prev_aux);
      }
      carried.push_back(existentials[i]);
      Atom head{aux, carried, false};
      step.head.push_back(head);
      prev_aux = head;
      TRIQ_IGNORE_STATUS(out.AddRule(std::move(step)));
    }
    Rule last;
    last.body.push_back(prev_aux);
    last.head = rule.head;
    TRIQ_IGNORE_STATUS(out.AddRule(std::move(last)));
  }
  return out;
}

Program NormalizeWardedSplit(const Program& program) {
  Program out(program.dict_ptr());
  Dictionary& dict = out.dict();
  Program positive = program.PositiveVersion();
  PositionAnalysis analysis(positive);
  int aux_counter = 0;

  for (const Rule& rule : program.rules()) {
    if (rule.IsConstraint()) {
      TRIQ_IGNORE_STATUS(out.AddRule(rule));
      continue;
    }
    VariableClasses classes = analysis.Classify(rule);
    if (classes.dangerous.empty()) {
      TRIQ_IGNORE_STATUS(out.AddRule(rule));
      continue;
    }
    // Locate a ward: covers the dangerous variables and shares only
    // harmless variables with the rest of the body.
    int ward_index = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].negated) continue;
      std::vector<Term> ward_vars = AtomVars(rule.body[i]);
      bool covers = std::all_of(
          classes.dangerous.begin(), classes.dangerous.end(),
          [&](Term v) { return Contains(ward_vars, v); });
      if (!covers) continue;
      std::vector<Term> rest_vars;
      for (size_t j = 0; j < rule.body.size(); ++j) {
        if (j != i) rule.body[j].CollectVariables(&rest_vars);
      }
      bool shares_only_harmless = true;
      for (Term v : ward_vars) {
        if (Contains(rest_vars, v) && !classes.IsHarmless(v)) {
          shares_only_harmless = false;
          break;
        }
      }
      if (shares_only_harmless) {
        ward_index = static_cast<int>(i);
        break;
      }
    }
    if (ward_index < 0) {  // not warded: leave untouched
      TRIQ_IGNORE_STATUS(out.AddRule(rule));
      continue;
    }
    // Does the rest of the body contain harmful variables? If not the
    // rule is already semi-body-grounded.
    std::vector<const Atom*> rest;
    std::vector<Term> rest_vars;
    for (size_t j = 0; j < rule.body.size(); ++j) {
      if (static_cast<int>(j) == ward_index) continue;
      rest.push_back(&rule.body[j]);
      rule.body[j].CollectVariables(&rest_vars);
    }
    bool rest_harmful = std::any_of(
        rest_vars.begin(), rest_vars.end(),
        [&](Term v) { return !classes.IsHarmless(v); });
    if (rest.empty() || !rest_harmful) {
      TRIQ_IGNORE_STATUS(out.AddRule(rule));
      continue;
    }
    // Variables of the rest that are needed downstream: shared with the
    // ward or propagated to the head. By wardedness all are harmless,
    // so the auxiliary rule is head-grounded.
    std::vector<Term> ward_vars = AtomVars(rule.body[ward_index]);
    std::vector<Term> head_vars = rule.HeadVariables();
    std::vector<Term> carried;
    for (Term v : rest_vars) {
      if ((Contains(ward_vars, v) || Contains(head_vars, v)) &&
          !Contains(carried, v)) {
        carried.push_back(v);
      }
    }
    PredicateId aux =
        dict.Intern("wsaux@" + std::to_string(aux_counter++));
    Rule grounded;
    for (const Atom* a : rest) grounded.body.push_back(*a);
    grounded.head.push_back(Atom{aux, carried, false});
    TRIQ_IGNORE_STATUS(out.AddRule(std::move(grounded)));

    Rule guarded;
    guarded.body.push_back(rule.body[ward_index]);
    guarded.body.push_back(Atom{aux, carried, false});
    guarded.head = rule.head;
    TRIQ_IGNORE_STATUS(out.AddRule(std::move(guarded)));
  }
  return out;
}

namespace {

// Enumerates dom^arity, calling fn for each tuple.
void EnumerateTuples(const std::vector<Term>& domain, size_t arity,
                     const std::function<void(const chase::Tuple&)>& fn) {
  chase::Tuple tuple(arity);
  std::function<void(size_t)> recurse = [&](size_t i) {
    if (i == arity) {
      fn(tuple);
      return;
    }
    for (Term c : domain) {
      tuple[i] = c;
      recurse(i + 1);
    }
  };
  recurse(0);
}

}  // namespace

Result<std::pair<Program, chase::Instance>> EliminateNegation(
    const Program& program, const chase::Instance& database) {
  TRIQ_ASSIGN_OR_RETURN(Stratification strat,
                        datalog::Stratify(program.WithoutConstraints()));
  Dictionary& dict = const_cast<Dictionary&>(program.dict());

  // dom(D): the constants of the database.
  std::unordered_set<uint32_t> seen;
  std::vector<Term> domain;
  for (const auto& [pred, rel] : database.relations()) {
    for (chase::TupleView tuple : rel.tuples()) {
      for (Term t : tuple) {
        if (t.IsConstant() && seen.insert(t.raw()).second) {
          domain.push_back(t);
        }
      }
    }
  }

  Program positive(program.dict_ptr());
  chase::Instance augmented = database.CloneFacts();
  std::unordered_set<PredicateId> complemented;

  auto complement_name = [&](PredicateId pred) {
    return dict.Intern("not~" + dict.Text(pred));
  };

  for (int stratum = 0; stratum < strat.num_strata; ++stratum) {
    std::vector<size_t> rule_indices =
        strat.RulesInStratum(program, stratum);
    // Collect the predicates negated by this stratum's rules.
    std::unordered_map<PredicateId, size_t> negated;  // pred -> arity
    for (size_t r : rule_indices) {
      for (const Atom& a : program.rules()[r].body) {
        if (a.negated) negated[a.predicate] = a.arity();
      }
    }
    if (!negated.empty()) {
      // Ground semantics of the program built so far (the lower strata,
      // already fully transformed) over the augmented database.
      chase::Instance work = augmented.CloneFacts();
      TRIQ_RETURN_IF_ERROR(chase::RunChase(positive, &work));
      for (const auto& [pred, arity] : negated) {
        if (!complemented.insert(pred).second) continue;
        PredicateId comp = complement_name(pred);
        EnumerateTuples(domain, arity, [&](const chase::Tuple& tuple) {
          if (!work.Contains(pred, tuple)) augmented.AddFact(comp, tuple);
        });
        if (arity == 0 && work.Find(pred) == nullptr) {
          augmented.AddFact(comp, chase::Tuple{});
        }
      }
    }
    for (size_t r : rule_indices) {
      Rule rewritten = program.rules()[r];
      for (Atom& a : rewritten.body) {
        if (a.negated) {
          a.negated = false;
          a.predicate = complement_name(a.predicate);
        }
      }
      TRIQ_RETURN_IF_ERROR(positive.AddRule(std::move(rewritten)));
    }
  }
  // Constraints are positive-only by definition; carry them over.
  for (const Rule& rule : program.rules()) {
    if (rule.IsConstraint()) {
      TRIQ_RETURN_IF_ERROR(positive.AddRule(rule));
    }
  }
  return std::make_pair(std::move(positive), std::move(augmented));
}

}  // namespace triq::core
