#pragma once

// Lightweight declaration/scope model built from the token stream: function
// definitions with parsed parameter lists and body ranges, class membership
// and access at the definition point, file-wide unordered-container
// declarations, and includes. This is deliberately not a C++ parser — it
// recognizes the project's idiomatic shapes (the same ones clang-format
// enforces) and degrades gracefully on anything exotic; the golden fixtures
// pin the shapes it must understand.

#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace surfnet::analyze {

struct Param {
  std::string type;  ///< type tokens joined by spaces ("const std :: size_t")
  std::string name;  ///< "" when unnamed
};

struct Function {
  std::string name;  ///< last component ("find", "operator[]"); qualified
                     ///< names keep only the final identifier
  std::string qualified;         ///< as written, e.g. "Dsu::find"
  std::vector<Param> params;
  std::size_t body_begin = 0;    ///< token index of '{'
  std::size_t body_end = 0;      ///< token index one past matching '}'
  int line = 0;
  bool in_class = false;         ///< defined lexically inside a class body
  bool is_public = true;         ///< access at the definition point
};

struct UnorderedDecl {
  std::string name;
  int line = 0;
  bool member = false;  ///< declared in class scope (vs local/namespace)
};

struct Include {
  std::string target;  ///< path as written, without delimiters
  bool quoted = false; ///< "..." (first-party) vs <...>
  int line = 0;
};

struct FileModel {
  std::string rel_path;  ///< repo-relative, '/'-separated
  std::vector<Token> tokens;
  std::vector<LexError> lex_errors;
  std::vector<Include> includes;
  std::vector<Function> functions;
  std::vector<UnorderedDecl> unordered;
  std::set<std::string> header_decl_names;  ///< function names declared at
                                            ///< class/namespace scope
  bool is_header = false;
};

/// Build the model for one file's raw text.
FileModel build_model(const std::string& rel_path, const std::string& text);

/// Token index of the matching closer for the opener at `open` (one past it
/// when unmatched). Openers: ( [ { <. For '<' the match is best-effort.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open);

}  // namespace surfnet::analyze
