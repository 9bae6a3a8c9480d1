#ifndef TRIQ_CORE_WORKLOADS_H_
#define TRIQ_CORE_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chase/instance.h"
#include "datalog/program.h"
#include "rdf/graph.h"

namespace triq::core {

/// ---- Example 4.3: k-clique in TriQ 1.0 -------------------------------

/// The fixed query program Π_aux ∪ Π_clique of Example 4.3 (answer
/// predicate `yes`). TriQ 1.0 (weakly-frontier-guarded) and even warded
/// with minimal interaction, but not warded — tests assert all three.
datalog::Program CliqueProgram(std::shared_ptr<Dictionary> dict);

/// Encodes an undirected graph and the integer k into the database of
/// Example 4.3: node0/edge0 facts plus the succ0 chain 0..k.
chase::Instance CliqueDatabase(int num_nodes,
                               const std::vector<std::pair<int, int>>& edges,
                               int k, std::shared_ptr<Dictionary> dict);

/// Undirected G(n, p) edge list (both directions included, no loops).
std::vector<std::pair<int, int>> RandomGraphEdges(int n, double p,
                                                  uint64_t seed);
/// Complete graph K_n edge list.
std::vector<std::pair<int, int>> CompleteGraphEdges(int n);

/// ---- Section 2: transport-service reachability -----------------------

/// The recursive program from the end of Section 2 (answer `query`):
/// collects transport services through partOf chains, then the
/// reachability relation over them. Inexpressible in SPARQL 1.1
/// property paths (two simultaneous unbounded directions).
datalog::Program TransportProgram(std::shared_ptr<Dictionary> dict);

/// A transport network shaped like the paper's figure: a chain of
/// `num_cities` cities; the i-th hop is served by service svc<i>, whose
/// partOf chain to `transportService` has length `part_of_depth`.
rdf::Graph TransportNetwork(int num_cities, int part_of_depth,
                            std::shared_ptr<Dictionary> dict);

/// ---- Section 2: the author example graphs G1..G4 ----------------------

rdf::Graph AuthorsGraphG1(std::shared_ptr<Dictionary> dict);
rdf::Graph AuthorsGraphG2(std::shared_ptr<Dictionary> dict);
/// G3 = G2 + the owl:Restriction axioms (5).
rdf::Graph AuthorsGraphG3(std::shared_ptr<Dictionary> dict);
/// G4: the owl:sameAs example.
rdf::Graph AuthorsGraphG4(std::shared_ptr<Dictionary> dict);

/// ---- PTime scaling workload (Theorem 6.7) ----------------------------

/// Plain transitive closure (a warded — indeed Datalog — program).
datalog::Program TransitiveClosureProgram(std::shared_ptr<Dictionary> dict);
/// edge(v0,v1), ..., edge(v_{n-1}, v_n).
chase::Instance ChainDatabase(int n, std::shared_ptr<Dictionary> dict);

/// ---- Large generated-graph workloads (streaming ingestion) -----------

/// Turtle text for `chains` disjoint chains of `chain_len` e-labeled
/// edges each (chains * chain_len triples; nodes c<i>_n<j>). The big
/// bench-ladder inputs are generated with this and ingested as text
/// (chase::Instance::FromTurtle, Engine::LoadTurtle) instead of being
/// built fact-by-fact.
std::string MultiChainTurtle(int chains, int chain_len);

/// Transitive closure over the triple schema: reach(X,Z) through
/// triple(X, e, Y) hops — the τ_db(G) counterpart of
/// TransitiveClosureProgram (answer predicate `reach`).
datalog::Program TripleReachProgram(std::shared_ptr<Dictionary> dict);

/// ---- Multi-join planner workloads ------------------------------------

/// Triangle enumeration, the canonical 3-atom cyclic join:
///   e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> tri(?X, ?Y, ?Z) .
/// Binary join plans must materialize every wedge (length-2 path)
/// before checking the closing edge; the leapfrog strategy intersects
/// the two adjacency lists directly, so this is the headline workload
/// for the cost-based planner (answer predicate `tri`).
datalog::Program TriangleProgram(std::shared_ptr<Dictionary> dict);

/// Four-atom path query (answer predicate `p4`):
///   e(?X, ?Y), e(?Y, ?Z), e(?Z, ?W), e(?W, ?V) -> p4(?X, ?V) .
/// Exercises greedy ordering and the multi-way merge on a chain of
/// shared variables rather than a cycle.
datalog::Program Path4Program(std::shared_ptr<Dictionary> dict);

/// Mostly-bipartite random graph, the triangle-bench input: nodes
/// 0..n/2-1 (left) each pick `deg` distinct random right neighbors
/// from n/2..n-1, then `planted` triangles are added via intra-left
/// chords. Wedge count is E*deg while almost no wedge closes, which is
/// the regime that separates join strategies on cyclic queries: a
/// binary plan must enumerate and probe every wedge, whereas the
/// leapfrog merge gallops two adjacency lists over near-disjoint id
/// ranges and refutes each candidate in O(log deg). Uniform G(n, p)
/// degrees do NOT separate them (both plans are Theta(E*deg) there) —
/// measured, not just theory.
std::vector<std::pair<int, int>> BipartiteTriangleEdges(int n, int deg,
                                                        int planted,
                                                        uint64_t seed);

/// Directed instance over predicate `e`: both orientations of each
/// undirected edge. Input for TriangleProgram / Path4Program.
chase::Instance EdgeDatabase(const std::vector<std::pair<int, int>>& edges,
                             int n, std::shared_ptr<Dictionary> dict);

/// EdgeDatabase over RandomGraphEdges(n, p, seed).
chase::Instance RandomGraphDatabase(int n, double p, uint64_t seed,
                                    std::shared_ptr<Dictionary> dict);

}  // namespace triq::core

#endif  // TRIQ_CORE_WORKLOADS_H_
