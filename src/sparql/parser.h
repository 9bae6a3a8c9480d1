#ifndef TRIQ_SPARQL_PARSER_H_
#define TRIQ_SPARQL_PARSER_H_

#include <cstddef>
#include <memory>
#include <string_view>

#include "common/result.h"
#include "sparql/algebra.h"

namespace triq::sparql {

/// Parses the algebraic graph-pattern notation used in the paper
/// (Section 3.1, operators written functionally):
///
///   { ?Y is_author_of ?Z . ?Y name ?X }
///   AND({ ?X name ?Y }, { ?X phone ?Z })
///   UNION(P1, P2)    OPT(P1, P2)
///   FILTER(P, (bound(?X) && ?Y = dbUllman))
///   SELECT(?X ?Y, P)
///
/// Variables start with '?', blank nodes with '_:', everything else is a
/// URI/constant token; double-quoted strings are literals. Conditions
/// support bound(?X), ?X = c, ?X = ?Y, '!', '&&', '||' and parentheses.
///
/// Patterns nesting deeper than kMaxPatternDepth levels are rejected
/// with InvalidArgument (see below).
Result<std::unique_ptr<GraphPattern>> ParsePattern(
    std::string_view text, Dictionary* dict);

/// The deepest nesting ParsePattern accepts. Every pattern operator,
/// '!' and parenthesized condition nests its operands one level deeper,
/// and each '||' / '&&' of a chain (which associates to the left) nests
/// the chain before it one level deeper. Parsing, translating,
/// evaluating and freeing a pattern each recurse once per level, so the
/// bound keeps one request line from overflowing a thread's stack. The
/// largest frame per level is the translator's condition compiler at
/// about 5 KB in a Debug+ASan build, so a pattern at the bound needs
/// about 1.4 MB there: inside even a 2 MB thread stack.
inline constexpr size_t kMaxPatternDepth = 256;

}  // namespace triq::sparql

#endif  // TRIQ_SPARQL_PARSER_H_
