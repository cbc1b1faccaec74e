#include "lexer.h"

#include <cctype>

namespace surfnet::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  LexResult run() {
    while (pos_ < text_.size()) step();
    return {std::move(tokens_), std::move(errors_)};
  }

 private:
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      at_line_start_ = true;
    }
    ++pos_;
  }

  void emit(TokKind kind, std::string text, int line) {
    tokens_.push_back({kind, std::move(text), line});
  }

  void step() {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
        c == '\v') {
      advance();
      return;
    }
    if (c == '#' && at_line_start_) {
      lex_preprocessor();
      return;
    }
    at_line_start_ = false;
    if (c == '/' && peek(1) == '/') {
      lex_line_comment();
      return;
    }
    if (c == '/' && peek(1) == '*') {
      lex_block_comment();
      return;
    }
    if (ident_start(c)) {
      lex_identifier_or_prefixed_literal();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      lex_number();
      return;
    }
    if (c == '"') {
      lex_string('"');
      return;
    }
    if (c == '\'') {
      lex_string('\'');
      return;
    }
    lex_punct();
  }

  void lex_line_comment() {
    // A trailing backslash continues a // comment onto the next line.
    while (pos_ < text_.size()) {
      if (peek() == '\\' && (peek(1) == '\n' ||
                             (peek(1) == '\r' && peek(2) == '\n'))) {
        advance();  // backslash
        if (peek() == '\r') advance();
        advance();  // newline
        continue;
      }
      if (peek() == '\n') return;  // newline handled by step()
      advance();
    }
  }

  void lex_block_comment() {
    const int start_line = line_;
    advance();
    advance();
    while (pos_ < text_.size()) {
      if (peek() == '*' && peek(1) == '/') {
        advance();
        advance();
        return;
      }
      advance();
    }
    errors_.push_back({start_line, "unterminated block comment"});
  }

  void lex_preprocessor() {
    const int start_line = line_;
    std::string body;
    advance();  // '#'
    while (pos_ < text_.size()) {
      if (peek() == '\\' && (peek(1) == '\n' ||
                             (peek(1) == '\r' && peek(2) == '\n'))) {
        advance();
        if (peek() == '\r') advance();
        advance();
        body += ' ';
        continue;
      }
      if (peek() == '\n') break;
      // Comments may appear inside directives.
      if (peek() == '/' && peek(1) == '/') {
        lex_line_comment();
        break;
      }
      if (peek() == '/' && peek(1) == '*') {
        lex_block_comment();
        body += ' ';
        continue;
      }
      body += peek();
      advance();
    }
    // Split "include <...>" / "include \"...\"" from everything else.
    std::size_t i = 0;
    while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])))
      ++i;
    std::size_t j = i;
    while (j < body.size() && ident_char(body[j])) ++j;
    const std::string directive = body.substr(i, j - i);
    if (directive == "include") {
      while (j < body.size() &&
             std::isspace(static_cast<unsigned char>(body[j])))
        ++j;
      if (j < body.size() && (body[j] == '"' || body[j] == '<')) {
        const char open = body[j];
        const char close = open == '"' ? '"' : '>';
        std::size_t end = body.find(close, j + 1);
        if (end == std::string::npos) end = body.size();
        // Keep the opening delimiter so rules can tell "..." from <...>.
        emit(TokKind::PpInclude, body.substr(j, end - j), start_line);
        return;
      }
    }
    std::size_t end = body.size();
    while (end > i && std::isspace(static_cast<unsigned char>(body[end - 1])))
      --end;
    emit(TokKind::PpOther, body.substr(i, end - i), start_line);
  }

  void lex_identifier_or_prefixed_literal() {
    const int start_line = line_;
    std::string word;
    while (pos_ < text_.size() && ident_char(peek())) {
      word += peek();
      advance();
    }
    // Raw string literal: R"(...)", with optional encoding prefix.
    if (peek() == '"' && (word == "R" || word == "LR" || word == "uR" ||
                          word == "UR" || word == "u8R")) {
      lex_raw_string();
      return;
    }
    // Encoding-prefixed ordinary literal: L"...", u8'...' etc.
    if ((peek() == '"' || peek() == '\'') &&
        (word == "L" || word == "u" || word == "U" || word == "u8")) {
      lex_string(peek());
      return;
    }
    emit(TokKind::Ident, std::move(word), start_line);
  }

  void lex_raw_string() {
    const int start_line = line_;
    advance();  // opening '"'
    std::string delim;
    while (pos_ < text_.size() && peek() != '(' && peek() != '\n' &&
           delim.size() <= 16) {
      delim += peek();
      advance();
    }
    if (peek() != '(') {
      errors_.push_back({start_line, "malformed raw string delimiter"});
      return;
    }
    advance();  // '('
    const std::string closer = ")" + delim + "\"";
    std::string contents;
    while (pos_ < text_.size()) {
      if (peek() == closer[0] && text_.compare(pos_, closer.size(), closer) == 0) {
        for (std::size_t k = 0; k < closer.size(); ++k) advance();
        emit(TokKind::String, std::move(contents), start_line);
        return;
      }
      contents += peek();
      advance();
    }
    errors_.push_back({start_line, "unterminated raw string literal"});
  }

  void lex_string(char quote) {
    const int start_line = line_;
    advance();  // opening quote
    std::string contents;
    while (pos_ < text_.size()) {
      if (peek() == '\\') {
        // Keep escapes verbatim; they never terminate the literal.
        contents += peek();
        advance();
        if (pos_ < text_.size()) {
          contents += peek();
          advance();
        }
        continue;
      }
      if (peek() == quote) {
        advance();
        emit(quote == '"' ? TokKind::String : TokKind::CharLit,
             std::move(contents), start_line);
        return;
      }
      if (peek() == '\n') break;
      contents += peek();
      advance();
    }
    errors_.push_back(
        {start_line, quote == '"' ? "unterminated string literal"
                                  : "unterminated character literal"});
  }

  void lex_number() {
    const int start_line = line_;
    std::string num;
    while (pos_ < text_.size()) {
      const char c = peek();
      if (ident_char(c) || c == '.' || c == '\'') {
        // Exponent signs: 1e+9, 0x1.8p-3.
        if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') && num.size() &&
            (peek(1) == '+' || peek(1) == '-')) {
          num += c;
          advance();
          num += peek();
          advance();
          continue;
        }
        num += c;
        advance();
        continue;
      }
      break;
    }
    emit(TokKind::Number, std::move(num), start_line);
  }

  void lex_punct() {
    const int start_line = line_;
    const char c = peek();
    const char n = peek(1);
    if ((c == ':' && n == ':') || (c == '&' && n == '&') ||
        (c == '|' && n == '|') || (c == '-' && n == '>')) {
      advance();
      advance();
      emit(TokKind::Punct, std::string{c, n}, start_line);
      return;
    }
    advance();
    emit(TokKind::Punct, std::string(1, c), start_line);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  std::vector<Token> tokens_;
  std::vector<LexError> errors_;
};

}  // namespace

LexResult lex(const std::string& text) { return Lexer(text).run(); }

}  // namespace surfnet::analyze
