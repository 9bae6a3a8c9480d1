#include "rdf/turtle.h"

#include <cctype>
#include <sstream>

#include "common/strings.h"

namespace triq::rdf {

namespace {

// Tokenizes one statement body into terms, honoring quoted literals.
// The first three terms land in `terms` as views into `body`; `count`
// is the number of terms found, so a caller can report a wrong arity.
Status TokenizeStatement(std::string_view body, size_t line_no,
                         std::string_view (&terms)[3], size_t* count) {
  *count = 0;
  size_t i = 0;
  while (i < body.size()) {
    if (std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
      continue;
    }
    size_t end = i;
    if (body[i] == '"') {
      end = body.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated string literal at line " +
                                       std::to_string(line_no));
      }
      ++end;
    } else {
      while (end < body.size() &&
             !std::isspace(static_cast<unsigned char>(body[end]))) {
        ++end;
      }
    }
    if (*count < 3) terms[*count] = body.substr(i, end - i);
    ++*count;
    i = end;
  }
  return Status::OK();
}

/// Incremental statement splitter shared by ParseTurtle and
/// ParseTurtleStream: feed raw lines one at a time; statements are
/// tokenized and handed to the sink as soon as their terminating '.'
/// (followed by whitespace) arrives. Only the unterminated statement
/// tail is buffered, so memory stays proportional to one statement,
/// not the whole input.
class StreamingParser {
 public:
  explicit StreamingParser(const TripleSink& sink) : sink_(sink) {}

  /// Feeds one input line (without its trailing newline; a trailing
  /// '\r' is dropped here, so CRLF input parses as LF input).
  Status FeedLine(std::string_view raw) {
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    // Strip a '#' comment. The scan starts in the statement scan's quote
    // state at the start of this line, so a '#' inside a literal that
    // began on an earlier line stays part of the literal.
    size_t keep = raw.size();
    if (raw.find('#') != std::string_view::npos) {
      bool in_string = in_string_;
      for (size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '"') in_string = !in_string;
        if (raw[i] == '#' && !in_string) {
          keep = i;
          break;
        }
      }
    }
    pending_.append(raw.data(), keep);
    pending_.push_back('\n');
    return DrainStatements();
  }

  /// Flushes the final (possibly '.'-less) statement at end of input.
  Status Finish() {
    // Scanning the last line's '\n' moved line_no_ past it; errors here
    // name the last line read.
    if (line_no_ > 1) --line_no_;
    TRIQ_RETURN_IF_ERROR(
        EmitStatement(std::string_view(pending_).substr(stmt_start_)));
    pending_.clear();
    stmt_start_ = scan_pos_ = 0;
    return Status::OK();
  }

 private:
  Status DrainStatements() {
    for (; scan_pos_ < pending_.size(); ++scan_pos_) {
      char c = pending_[scan_pos_];
      if (c == '"') in_string_ = !in_string_;
      if (c == '\n') ++line_no_;
      // A '.' terminates a statement when outside a quoted literal and
      // followed by whitespace (every fed line ends in '\n', so the
      // look-ahead is always available).
      if (c == '.' && !in_string_ && scan_pos_ + 1 < pending_.size() &&
          std::isspace(static_cast<unsigned char>(pending_[scan_pos_ + 1]))) {
        TRIQ_RETURN_IF_ERROR(EmitStatement(
            std::string_view(pending_)
                .substr(stmt_start_, scan_pos_ - stmt_start_)));
        stmt_start_ = scan_pos_ + 1;
      }
    }
    // Compact the consumed prefix once it dominates the buffer.
    if (stmt_start_ > 4096 && stmt_start_ * 2 > pending_.size()) {
      pending_.erase(0, stmt_start_);
      scan_pos_ -= stmt_start_;
      stmt_start_ = 0;
    }
    return Status::OK();
  }

  Status EmitStatement(std::string_view body) {
    std::string_view terms[3];
    size_t count = 0;
    TRIQ_RETURN_IF_ERROR(TokenizeStatement(body, line_no_, terms, &count));
    if (count == 0) return Status::OK();
    if (count != 3) {
      return Status::InvalidArgument(
          "statement near line " + std::to_string(line_no_) + " has " +
          std::to_string(count) + " terms; expected 3");
    }
    sink_(terms[0], terms[1], terms[2]);
    return Status::OK();
  }

  const TripleSink& sink_;
  std::string pending_;     // cleaned, not-yet-consumed input
  size_t scan_pos_ = 0;     // first unscanned offset in pending_
  size_t stmt_start_ = 0;   // start of the current statement
  bool in_string_ = false;  // quote state of the statement scan
  size_t line_no_ = 1;
};

}  // namespace

Status ParseTurtle(std::string_view text, const TripleSink& sink) {
  StreamingParser parser(sink);
  size_t line_start = 0;
  // Like std::getline, a final '\n' ends the last line: no empty line
  // follows it.
  while (line_start < text.size()) {
    size_t eol = text.find('\n', line_start);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(line_start)
                                : text.substr(line_start, eol - line_start);
    TRIQ_RETURN_IF_ERROR(parser.FeedLine(line));
    if (eol == std::string_view::npos) break;
    line_start = eol + 1;
  }
  return parser.Finish();
}

Status ParseTurtleStream(std::istream& in, const TripleSink& sink) {
  StreamingParser parser(sink);
  std::string line;
  while (std::getline(in, line)) {
    TRIQ_RETURN_IF_ERROR(parser.FeedLine(line));
  }
  if (in.bad()) {
    return Status::InvalidArgument("I/O error while reading turtle stream");
  }
  return parser.Finish();
}

Status ParseTurtle(std::string_view text, Graph* graph) {
  return ParseTurtle(
      text, [graph](std::string_view s, std::string_view p,
                    std::string_view o) { graph->Add(s, p, o); });
}

Status ParseTurtleStream(std::istream& in, Graph* graph) {
  return ParseTurtleStream(
      in, [graph](std::string_view s, std::string_view p,
                  std::string_view o) { graph->Add(s, p, o); });
}

std::string WriteTurtle(const Graph& graph) {
  std::ostringstream out;
  for (const Triple& t : graph.triples()) {
    out << graph.dict().Text(t.subject) << ' '
        << graph.dict().Text(t.predicate) << ' '
        << graph.dict().Text(t.object) << " .\n";
  }
  return out.str();
}

}  // namespace triq::rdf
