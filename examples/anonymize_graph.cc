// The Section 2 anonymization example: replace every subject URI by a
// blank node, consistently across triples — a query the local blank-
// node semantics of SPARQL's CONSTRUCT cannot express, but three
// Datalog∃ rules can. The invented blanks are labeled nulls in the
// Engine's materialized instance.
//
//   $ ./examples/anonymize_graph
#include <iostream>

#include "engine/engine.h"

int main() {
  triq::Engine engine;
  triq::Status status = engine.AddTriple("alice", "knows", "bob");
  if (status.ok()) status = engine.AddTriple("alice", "likes", "tea");
  if (status.ok()) status = engine.AddTriple("bob", "knows", "alice");
  if (status.ok()) {
    status = engine.AttachRules(R"(
      % Collect subjects, invent one blank per subject, substitute.
      triple(?X, ?Y, ?Z) -> subj(?X) .
      subj(?X) -> exists ?Y bn(?X, ?Y) .
      triple(?X, ?Y, ?Z), bn(?X, ?U) -> output(?U, ?Y, ?Z) .
    )");
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  // The answers mix constants and nulls, so read the relation itself
  // from the materialized snapshot instead of the all-constant
  // Answers() view. The pointer pins the snapshot while we read it.
  auto snapshot = engine.CurrentSnapshot();
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  std::cout << "anonymized graph:\n";
  const triq::chase::Relation* out = (*snapshot)->instance.Find("output");
  for (triq::chase::TupleView t : out->tuples()) {
    std::cout << "  (" << TermToString(t[0], engine.dict()) << ", "
              << TermToString(t[1], engine.dict()) << ", "
              << TermToString(t[2], engine.dict()) << ")\n";
  }
  std::cout << "note: alice's two triples share one blank node, and\n"
               "bob-as-object stays a URI while bob-as-subject is blank.\n";
  return 0;
}
