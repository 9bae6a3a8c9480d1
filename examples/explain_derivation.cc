// Explanation tooling: prove a single fact goal-directedly (no full
// materialization) and print its proof tree from chase provenance —
// Figure 1 and the ProofTree machinery of Section 6.3, applied to the
// transport scenario. The Engine session tracks provenance
// (SetTrackProvenance) and exposes both the pristine base facts (for
// the backward prover) and the materialized instance (for the tree).
//
//   $ ./examples/explain_derivation [num_cities]
#include <cstdlib>
#include <iostream>
#include <string>

#include "chase/backward.h"
#include "chase/proof_tree.h"
#include "core/workloads.h"
#include "engine/engine.h"

int main(int argc, char** argv) {
  int cities = argc > 1 ? std::atoi(argv[1]) : 5;

  triq::Engine engine(triq::EngineOptions().SetTrackProvenance(true));
  triq::Status status = engine.LoadGraph(
      triq::core::TransportNetwork(cities, 2, engine.dict_ptr()));
  if (status.ok()) {
    status =
        engine.AttachProgram(triq::core::TransportProgram(engine.dict_ptr()));
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  triq::datalog::Atom goal;
  goal.predicate = engine.dict().Intern("connected");
  goal.args = {
      triq::datalog::Term::Constant(engine.dict().Intern("city0")),
      triq::datalog::Term::Constant(
          engine.dict().Intern("city" + std::to_string(cities - 1)))};

  // 1. Goal-directed: decide the one fact against the *base* facts,
  //    without materializing the whole reachability relation.
  triq::chase::BackwardStats bstats;
  auto proved = BackwardProve(engine.program(), engine.base(), goal, {},
                              &bstats);
  if (!proved.ok()) {
    std::cerr << proved.status().ToString() << "\n";
    return 1;
  }
  std::cout << "goal " << AtomToString(goal, engine.dict()) << ": "
            << (*proved ? "holds" : "does not hold") << " ("
            << bstats.resolution_steps << " resolution steps)\n\n";

  // 2. Forward with provenance: materialize and extract the proof tree.
  auto snapshot = engine.CurrentSnapshot();
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  auto tree = ExtractProofTree((*snapshot)->instance, goal);
  if (!tree.ok()) {
    std::cerr << tree.status().ToString() << "\n";
    return 1;
  }
  std::cout << "proof tree (" << ProofTreeSize(**tree) << " nodes, depth "
            << ProofTreeDepth(**tree) << "):\n"
            << ProofTreeToString(**tree, engine.dict());
  std::cout << "\nrules referenced by [rule k]:\n"
            << engine.program().ToString();
  return 0;
}
