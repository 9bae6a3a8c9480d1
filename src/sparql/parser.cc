#include "sparql/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace triq::sparql {

namespace {

enum class TokKind {
  kIdent,   // URIs, ?vars, _:blanks, quoted strings
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEq,
  kBang,
  kOrOr,
  kAndAnd,
};

struct Token {
  TokKind kind;
  std::string text;
};

Status Tokenize(std::string_view text, std::vector<Token>* out) {
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) { ++i; continue; }
    switch (c) {
      case '{': out->push_back({TokKind::kLBrace, "{"}); ++i; continue;
      case '}': out->push_back({TokKind::kRBrace, "}"}); ++i; continue;
      case '(': out->push_back({TokKind::kLParen, "("}); ++i; continue;
      case ')': out->push_back({TokKind::kRParen, ")"}); ++i; continue;
      case ',': out->push_back({TokKind::kComma, ","}); ++i; continue;
      case '.': out->push_back({TokKind::kDot, "."}); ++i; continue;
      case '=': out->push_back({TokKind::kEq, "="}); ++i; continue;
      case '!': out->push_back({TokKind::kBang, "!"}); ++i; continue;
      default: break;
    }
    if (c == '|' && i + 1 < text.size() && text[i + 1] == '|') {
      out->push_back({TokKind::kOrOr, "||"});
      i += 2;
      continue;
    }
    if (c == '&' && i + 1 < text.size() && text[i + 1] == '&') {
      out->push_back({TokKind::kAndAnd, "&&"});
      i += 2;
      continue;
    }
    if (c == '"') {
      size_t end = text.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated string in pattern");
      }
      out->push_back({TokKind::kIdent, std::string(text.substr(i, end - i + 1))});
      i = end + 1;
      continue;
    }
    size_t end = i;
    while (end < text.size()) {
      char d = text[end];
      if (std::isspace(static_cast<unsigned char>(d)) || d == '{' ||
          d == '}' || d == '(' || d == ')' || d == ',' || d == '.' ||
          d == '=' || d == '!' || d == '|' || d == '&' || d == '"') {
        break;
      }
      ++end;
    }
    if (end == i) {
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' in pattern");
    }
    out->push_back({TokKind::kIdent, std::string(text.substr(i, end - i))});
    i = end;
  }
  return Status::OK();
}

class PatternParser {
 public:
  PatternParser(std::vector<Token> tokens, Dictionary* dict)
      : tokens_(std::move(tokens)), dict_(dict) {}

  Result<std::unique_ptr<GraphPattern>> Parse() {
    TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<GraphPattern> p, ParsePattern(0));
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument("trailing tokens after pattern");
    }
    return p;
  }

 private:
  // Every Parse* below takes `depth`, the nesting levels (see
  // kMaxPatternDepth) above the node it parses.
  Result<std::unique_ptr<GraphPattern>> ParsePattern(size_t depth) {
    if (Peek(TokKind::kLBrace)) return ParseBasic();
    if (!Peek(TokKind::kIdent)) {
      return Status::InvalidArgument("expected pattern");
    }
    std::string op = tokens_[pos_].text;
    TRIQ_RETURN_IF_ERROR(CheckDepth(depth + 1));
    if (op == "AND" || op == "UNION" || op == "OPT") {
      ++pos_;
      if (!Consume(TokKind::kLParen)) return Err("expected '('");
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<GraphPattern> a,
                            ParsePattern(depth + 1));
      if (!Consume(TokKind::kComma)) return Err("expected ','");
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<GraphPattern> b,
                            ParsePattern(depth + 1));
      if (!Consume(TokKind::kRParen)) return Err("expected ')'");
      if (op == "AND") return GraphPattern::And(std::move(a), std::move(b));
      if (op == "UNION") {
        return GraphPattern::Union(std::move(a), std::move(b));
      }
      return GraphPattern::Opt(std::move(a), std::move(b));
    }
    if (op == "FILTER") {
      ++pos_;
      if (!Consume(TokKind::kLParen)) return Err("expected '('");
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<GraphPattern> p,
                            ParsePattern(depth + 1));
      if (!Consume(TokKind::kComma)) return Err("expected ','");
      size_t height = 0;
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> c,
                            ParseOr(depth + 1, &height));
      if (!Consume(TokKind::kRParen)) return Err("expected ')'");
      return GraphPattern::Filter(std::move(p), std::move(c));
    }
    if (op == "SELECT") {
      ++pos_;
      if (!Consume(TokKind::kLParen)) return Err("expected '('");
      std::vector<SymbolId> vars;
      while (Peek(TokKind::kIdent) && tokens_[pos_].text[0] == '?') {
        vars.push_back(dict_->Intern(tokens_[pos_].text));
        ++pos_;
      }
      if (vars.empty()) return Err("SELECT needs at least one variable");
      if (!Consume(TokKind::kComma)) return Err("expected ','");
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<GraphPattern> p,
                            ParsePattern(depth + 1));
      if (!Consume(TokKind::kRParen)) return Err("expected ')'");
      return GraphPattern::Select(std::move(vars), std::move(p));
    }
    return Err("unknown pattern operator '" + op + "'");
  }

  Result<std::unique_ptr<GraphPattern>> ParseBasic() {
    if (!Consume(TokKind::kLBrace)) return Err("expected '{'");
    std::vector<TriplePattern> triples;
    while (true) {
      TriplePattern tp;
      TRIQ_ASSIGN_OR_RETURN(tp.subject, ParseTerm());
      {
        TRIQ_ASSIGN_OR_RETURN(PatternTerm t, ParseTerm());
        tp.predicate = t;
      }
      {
        TRIQ_ASSIGN_OR_RETURN(PatternTerm t, ParseTerm());
        tp.object = t;
      }
      triples.push_back(tp);
      if (Consume(TokKind::kDot)) {
        if (Peek(TokKind::kRBrace)) break;  // allow trailing '.'
        continue;
      }
      break;
    }
    if (!Consume(TokKind::kRBrace)) return Err("expected '}'");
    return GraphPattern::Basic(std::move(triples));
  }

  Result<PatternTerm> ParseTerm() {
    if (!Peek(TokKind::kIdent)) return Err("expected a term");
    const std::string& text = tokens_[pos_].text;
    ++pos_;
    SymbolId sym = dict_->Intern(text);
    if (text[0] == '?') return PatternTerm::Variable(sym);
    if (text.size() >= 2 && text[0] == '_' && text[1] == ':') {
      return PatternTerm::Blank(sym);
    }
    return PatternTerm::Constant(sym);
  }

  // The condition parsers also report the `height` of what they built
  // (0 for an atomic condition): a chain nests the operands before each
  // operator one level deeper without recursing, so only heights show it.
  Result<std::unique_ptr<Condition>> ParseOr(size_t depth, size_t* height) {
    TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> lhs,
                          ParseAnd(depth, height));
    while (Consume(TokKind::kOrOr)) {
      size_t rhs_height = 0;
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> rhs,
                            ParseAnd(depth, &rhs_height));
      *height = std::max(*height, rhs_height) + 1;
      TRIQ_RETURN_IF_ERROR(CheckDepth(depth + *height));
      lhs = Condition::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Condition>> ParseAnd(size_t depth, size_t* height) {
    TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> lhs,
                          ParseUnary(depth, height));
    while (Consume(TokKind::kAndAnd)) {
      size_t rhs_height = 0;
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> rhs,
                            ParseUnary(depth, &rhs_height));
      *height = std::max(*height, rhs_height) + 1;
      TRIQ_RETURN_IF_ERROR(CheckDepth(depth + *height));
      lhs = Condition::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Condition>> ParseUnary(size_t depth,
                                                size_t* height) {
    *height = 0;
    if (Consume(TokKind::kBang)) {
      TRIQ_RETURN_IF_ERROR(CheckDepth(depth + 1));
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> inner,
                            ParseUnary(depth + 1, height));
      ++*height;
      return Condition::Not(std::move(inner));
    }
    if (Consume(TokKind::kLParen)) {
      TRIQ_RETURN_IF_ERROR(CheckDepth(depth + 1));
      TRIQ_ASSIGN_OR_RETURN(std::unique_ptr<Condition> inner,
                            ParseOr(depth + 1, height));
      if (!Consume(TokKind::kRParen)) return Err("expected ')'");
      ++*height;
      return inner;
    }
    if (!Peek(TokKind::kIdent)) return Err("expected condition");
    std::string text = tokens_[pos_].text;
    if (text == "bound") {
      ++pos_;
      if (!Consume(TokKind::kLParen)) return Err("expected '('");
      if (!Peek(TokKind::kIdent) || tokens_[pos_].text[0] != '?') {
        return Err("bound() takes a variable");
      }
      SymbolId var = dict_->Intern(tokens_[pos_].text);
      ++pos_;
      if (!Consume(TokKind::kRParen)) return Err("expected ')'");
      return Condition::Bound(var);
    }
    if (text[0] != '?') return Err("condition must start with a variable");
    SymbolId var = dict_->Intern(text);
    ++pos_;
    if (!Consume(TokKind::kEq)) return Err("expected '='");
    if (!Peek(TokKind::kIdent)) return Err("expected '=' right-hand side");
    std::string rhs = tokens_[pos_].text;
    ++pos_;
    SymbolId rhs_sym = dict_->Intern(rhs);
    if (rhs[0] == '?') return Condition::EqVar(var, rhs_sym);
    return Condition::EqConst(var, rhs_sym);
  }

  bool Peek(TokKind kind) const {
    return pos_ < tokens_.size() && tokens_[pos_].kind == kind;
  }
  bool Consume(TokKind kind) {
    if (!Peek(kind)) return false;
    ++pos_;
    return true;
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(msg + " at token " + std::to_string(pos_));
  }
  Status CheckDepth(size_t levels) const {
    if (levels <= kMaxPatternDepth) return Status::OK();
    return Err("pattern nests deeper than " +
               std::to_string(kMaxPatternDepth) + " levels");
  }

  std::vector<Token> tokens_;
  Dictionary* dict_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<GraphPattern>> ParsePattern(std::string_view text,
                                                   Dictionary* dict) {
  std::vector<Token> tokens;
  TRIQ_RETURN_IF_ERROR(Tokenize(text, &tokens));
  return PatternParser(std::move(tokens), dict).Parse();
}

}  // namespace triq::sparql
