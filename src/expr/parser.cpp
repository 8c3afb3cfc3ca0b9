#include "expr/parser.hpp"

#include <cctype>

namespace sa::expr {

namespace {

enum class TokenKind { Ident, LParen, RParen, Comma, Not, And, Or, Xor, Arrow, End };

struct Token {
  TokenKind kind;
  std::string text;
  std::size_t position;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) { advance(); }

  const Token& current() const { return current_; }

  void advance() {
    skip_whitespace();
    const std::size_t pos = offset_;
    if (offset_ >= input_.size()) {
      current_ = {TokenKind::End, "", pos};
      return;
    }
    const char c = input_[offset_];
    switch (c) {
      case '(': ++offset_; current_ = {TokenKind::LParen, "(", pos}; return;
      case ')': ++offset_; current_ = {TokenKind::RParen, ")", pos}; return;
      case ',': ++offset_; current_ = {TokenKind::Comma, ",", pos}; return;
      case '!': ++offset_; current_ = {TokenKind::Not, "!", pos}; return;
      case '&': ++offset_; current_ = {TokenKind::And, "&", pos}; return;
      case '|': ++offset_; current_ = {TokenKind::Or, "|", pos}; return;
      case '^': ++offset_; current_ = {TokenKind::Xor, "^", pos}; return;
      case '-':
        if (offset_ + 1 < input_.size() && input_[offset_ + 1] == '>') {
          offset_ += 2;
          current_ = {TokenKind::Arrow, "->", pos};
          return;
        }
        throw ParseError("unexpected '-'", pos);
      default: break;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = offset_;
      while (end < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[end])) || input_[end] == '_')) {
        ++end;
      }
      current_ = {TokenKind::Ident, std::string(input_.substr(offset_, end - offset_)), pos};
      offset_ = end;
      return;
    }
    throw ParseError(std::string("unexpected character '") + c + "'", pos);
  }

 private:
  void skip_whitespace() {
    while (offset_ < input_.size() && std::isspace(static_cast<unsigned char>(input_[offset_]))) {
      ++offset_;
    }
  }

  std::string_view input_;
  std::size_t offset_ = 0;
  Token current_{TokenKind::End, "", 0};
};

class Parser {
 public:
  explicit Parser(std::string_view input) : lexer_(input) {}

  ExprPtr parse_full() {
    ExprPtr result = parse_expr();
    if (lexer_.current().kind != TokenKind::End) {
      throw ParseError("trailing input after expression", lexer_.current().position);
    }
    return result;
  }

 private:
  // expr := or ( "->" expr )?   -- right-associative implication
  ExprPtr parse_expr() {
    ExprPtr lhs = parse_or();
    if (lexer_.current().kind == TokenKind::Arrow) {
      lexer_.advance();
      return implies(std::move(lhs), parse_expr());
    }
    return lhs;
  }

  // The n-ary levels return a lone operand as is: most operands of a real
  // expression (`one(X, Y)` has two, `E1 -> D1` one per side) are not lists,
  // and the factories would collapse a one-element list anyway.
  ExprPtr parse_or() {
    ExprPtr first = parse_xor();
    if (lexer_.current().kind != TokenKind::Or) return first;
    std::vector<ExprPtr> operands{std::move(first)};
    while (lexer_.current().kind == TokenKind::Or) {
      lexer_.advance();
      operands.push_back(parse_xor());
    }
    return disjunction(std::move(operands));
  }

  ExprPtr parse_xor() {
    ExprPtr first = parse_and();
    if (lexer_.current().kind != TokenKind::Xor) return first;
    std::vector<ExprPtr> operands{std::move(first)};
    while (lexer_.current().kind == TokenKind::Xor) {
      lexer_.advance();
      operands.push_back(parse_and());
    }
    return exclusive_or(std::move(operands));
  }

  ExprPtr parse_and() {
    ExprPtr first = parse_unary();
    if (lexer_.current().kind != TokenKind::And) return first;
    std::vector<ExprPtr> operands{std::move(first)};
    while (lexer_.current().kind == TokenKind::And) {
      lexer_.advance();
      operands.push_back(parse_unary());
    }
    return conjunction(std::move(operands));
  }

  ExprPtr parse_unary() {
    if (lexer_.current().kind == TokenKind::Not) {
      lexer_.advance();
      return negate(parse_unary());
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token token = lexer_.current();
    switch (token.kind) {
      case TokenKind::LParen: {
        lexer_.advance();
        ExprPtr inner = parse_expr();
        expect(TokenKind::RParen, "expected ')'");
        return inner;
      }
      case TokenKind::Ident: {
        lexer_.advance();
        if (token.text == "true") return constant(true);
        if (token.text == "false") return constant(false);
        if ((token.text == "one" || token.text == "xor1") &&
            lexer_.current().kind == TokenKind::LParen) {
          return parse_exactly_one();
        }
        return var(token.text);
      }
      default:
        throw ParseError("expected identifier, literal, '!' or '('", token.position);
    }
  }

  ExprPtr parse_exactly_one() {
    expect(TokenKind::LParen, "expected '(' after one");
    std::vector<ExprPtr> operands;
    operands.reserve(4);  // one(...) lists are short: one allocation, not a regrowth
    operands.push_back(parse_expr());
    while (lexer_.current().kind == TokenKind::Comma) {
      lexer_.advance();
      operands.push_back(parse_expr());
    }
    expect(TokenKind::RParen, "expected ')' to close one(...)");
    return exactly_one(std::move(operands));
  }

  void expect(TokenKind kind, const char* message) {
    if (lexer_.current().kind != kind) {
      throw ParseError(message, lexer_.current().position);
    }
    lexer_.advance();
  }

  Lexer lexer_;
};

}  // namespace

ExprPtr parse(std::string_view text) { return Parser(text).parse_full(); }

}  // namespace sa::expr
