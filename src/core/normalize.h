#ifndef TRIQ_CORE_NORMALIZE_H_
#define TRIQ_CORE_NORMALIZE_H_

#include <utility>

#include "common/result.h"
#include "chase/instance.h"
#include "datalog/program.h"

namespace triq::core {

/// The program transformations of Section 6.3. All three preserve the
/// ground semantics Π(D)↓ on the original schema, and the first two
/// preserve wardedness — tests assert both. They live in core, above
/// both datalog and the chase, because eliminating negation runs the
/// chase.

/// N(ρ) for multi-existential rules: splits every rule with k > 1
/// existentially quantified variables into a chain of k rules, each
/// inventing a single null through a fresh auxiliary predicate
/// p^ρ_1, ..., p^ρ_k.
datalog::Program NormalizeSingleExistential(const datalog::Program& program);

/// The head-grounded / semi-body-grounded split: every rule whose ward
/// coexists with two or more other body atoms is split into
///   rest-of-body          → t_ρ(shared harmless vars)   (head-grounded)
///   ward, t_ρ(...)        → head                        (semi-body-grounded)
/// so at most one body atom of any ∃-rule carries harmful variables.
/// Rules without dangerous variables are left untouched.
datalog::Program NormalizeWardedSplit(const datalog::Program& program);

/// Step 1 of the Proposition 6.8 algorithm: eliminates (stratified,
/// grounded) negation by materializing complement relations. Returns
/// the positive program Π+ (negated atoms s(t) replaced by fresh
/// positive atoms s̄(t)) together with the augmented database D+ ⊇ D
/// holding the complements of each negated predicate w.r.t. the ground
/// semantics of the lower strata over dom(D).
///
/// Requires a stratified program; complements are enumerated over
/// dom(D)^arity, so this is intended for the PTime fragment (grounded
/// negation), exactly as in the paper.
Result<std::pair<datalog::Program, chase::Instance>> EliminateNegation(
    const datalog::Program& program, const chase::Instance& database);

}  // namespace triq::core

#endif  // TRIQ_CORE_NORMALIZE_H_
