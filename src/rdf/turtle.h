#ifndef TRIQ_RDF_TURTLE_H_
#define TRIQ_RDF_TURTLE_H_

#include <functional>
#include <istream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/graph.h"

namespace triq::rdf {

/// Receives one parsed statement's three terms. The views point into the
/// parser's own buffer and are valid only for the duration of the call:
/// a sink that keeps a term must copy it (e.g. by interning it).
using TripleSink = std::function<void(
    std::string_view subject, std::string_view predicate,
    std::string_view object)>;

/// Parses a minimal Turtle-like serialization, handing each statement to
/// `sink` in input order:
///   subject predicate object .
/// one statement per '.', terms are whitespace-separated tokens; quoted
/// strings ("...") are literals and may contain spaces; '#' starts a
/// line comment; a line's trailing '\r' is dropped, so CRLF input reads
/// as LF input. This is intentionally a small, dependency-free subset
/// sufficient for the paper's examples and the test corpora. On a
/// malformed statement the statements before it have already reached
/// the sink.
Status ParseTurtle(std::string_view text, const TripleSink& sink);

/// Streaming variant: reads `in` incrementally (line by line) and hands
/// statements to `sink` as their terminating '.' arrives, so large
/// inputs never need to be materialized as one in-memory string.
/// Accepts exactly the same dialect as ParseTurtle.
Status ParseTurtleStream(std::istream& in, const TripleSink& sink);

/// ParseTurtle / ParseTurtleStream into `graph` (Graph::Add per
/// statement).
Status ParseTurtle(std::string_view text, Graph* graph);
Status ParseTurtleStream(std::istream& in, Graph* graph);

/// Serializes `graph` in the same format (one triple per line).
std::string WriteTurtle(const Graph& graph);

}  // namespace triq::rdf

#endif  // TRIQ_RDF_TURTLE_H_
