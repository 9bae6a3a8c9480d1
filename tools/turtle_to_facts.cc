// turtle_to_facts — converts a Turtle file into the binary fact-dump
// format (src/chase/fact_dump.h) so large bench/ingestion inputs are
// parsed once and mmapped-speed-loaded thereafter:
//
//   turtle_to_facts --in data.ttl --out data.facts [--predicate triple]
//
// The dump holds τ_db(G): one <predicate>(s, p, o) fact per triple,
// plus the dictionary. Round-trips through chase::LoadFacts.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "chase/fact_dump.h"
#include "chase/instance.h"
#include "common/dictionary.h"

int main(int argc, char** argv) {
  std::string in_path, out_path, predicate = "triple";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--in") {
      const char* v = next();
      if (v == nullptr) { std::cerr << "--in needs a value\n"; return 2; }
      in_path = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) { std::cerr << "--out needs a value\n"; return 2; }
      out_path = v;
    } else if (flag == "--predicate") {
      const char* v = next();
      if (v == nullptr) { std::cerr << "--predicate needs a value\n"; return 2; }
      predicate = v;
    } else {
      std::cerr << "usage: turtle_to_facts --in FILE.ttl --out FILE.facts"
                   " [--predicate NAME]\n";
      return 2;
    }
  }
  if (in_path.empty() || out_path.empty()) {
    std::cerr << "turtle_to_facts: --in and --out are required\n";
    return 2;
  }

  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "turtle_to_facts: cannot open " << in_path << "\n";
    return 1;
  }
  auto staged = triq::chase::Instance::FromTurtle(
      in, std::make_shared<triq::Dictionary>(), predicate);
  if (!staged.ok()) {
    std::cerr << "turtle_to_facts: " << staged.status().ToString() << "\n";
    return 1;
  }
  triq::Status status = triq::chase::SaveFacts(*staged, out_path);
  if (!status.ok()) {
    std::cerr << "turtle_to_facts: " << status.ToString() << "\n";
    return 1;
  }
  std::cerr << "wrote " << staged->TotalFacts() << " triples ("
            << staged->dict().size() << " symbols) to " << out_path << "\n";
  return 0;
}
