#pragma once

// Tokenizer for surfnet-analyze. This is not a full C++ lexer: it produces
// exactly the token classes the semantic rules need, while getting the hard
// parts right that the old per-line regex lint could not — block comments,
// string/char literals (including raw strings R"delim(...)delim" spanning
// lines), digit separators, and preprocessor logical lines with backslash
// continuations. Preprocessor directives are swallowed whole (one token),
// so macro *definitions* never leak code-like tokens into the declaration
// model; macro *invocations* in ordinary code lex as plain identifiers.

#include <string>
#include <vector>

namespace surfnet::analyze {

enum class TokKind {
  Ident,      ///< identifier or keyword
  Number,     ///< numeric literal (handles 1'000'000 and 0x1.8p-3)
  String,     ///< string literal; text is the *contents* (no quotes)
  CharLit,    ///< character literal; text is the contents
  Punct,      ///< one operator/punctuator; "::", "&&", "||", "->" combined
  PpInclude,  ///< #include; text keeps the delimiter: "qec/graph.h or <vector
  PpOther,    ///< any other preprocessor logical line; text is the whole
              ///< directive after '#', trimmed ("pragma once", "ifndef X_H")
};

struct Token {
  TokKind kind;
  std::string text;
  int line;  ///< 1-based line of the token's first character
};

struct LexError {
  int line;
  std::string message;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<LexError> errors;
};

/// Tokenize a whole translation unit (or header).
LexResult lex(const std::string& text);

}  // namespace surfnet::analyze
