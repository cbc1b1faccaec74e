#include "model.h"

#include <array>

namespace surfnet::analyze {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::Punct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::Ident && t.text == s;
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",    "for",   "while",  "switch", "catch", "do",
      "return", "sizeof", "alignof", "decltype", "static_assert"};
  return kw;
}

const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kw = {
      "int",   "char", "bool",   "float",    "double", "long",  "short",
      "signed", "unsigned", "void", "auto",  "const",  "size_t"};
  return kw;
}

bool is_unordered_name(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

struct Scope {
  enum Kind { TopLevel, Namespace, Class, Function, Enum, Other } kind;
  bool access_public = true;  ///< current access when kind == Class
};

class ModelBuilder {
 public:
  ModelBuilder(FileModel& model) : m_(model), toks_(model.tokens) {}

  void run() {
    scopes_.push_back({Scope::TopLevel, true});
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::PpInclude) {
        record_include(t);
        continue;
      }
      if (t.kind == TokKind::Ident && is_unordered_name(t.text)) {
        record_unordered(i);
        continue;
      }
      if (t.kind == TokKind::Ident && at_decl_scope() && m_.is_header &&
          i + 1 < toks_.size() && is_punct(toks_[i + 1], "(") &&
          !control_keywords().count(t.text)) {
        m_.header_decl_names.insert(t.text);
      }
      if (is_punct(t, "{")) {
        open_brace(i);
        continue;
      }
      if (is_punct(t, "}")) {
        if (scopes_.size() > 1) scopes_.pop_back();
        continue;
      }
      // Access specifier inside a class body: "public :" etc.
      if (t.kind == TokKind::Ident && scopes_.back().kind == Scope::Class &&
          i + 1 < toks_.size() && is_punct(toks_[i + 1], ":")) {
        if (t.text == "public") scopes_.back().access_public = true;
        if (t.text == "private" || t.text == "protected")
          scopes_.back().access_public = false;
      }
    }
  }

 private:
  bool at_decl_scope() const {
    const Scope::Kind k = scopes_.back().kind;
    return k == Scope::TopLevel || k == Scope::Namespace || k == Scope::Class;
  }

  void record_include(const Token& t) {
    if (t.text.empty()) return;
    Include inc;
    inc.quoted = t.text[0] == '"';
    inc.target = t.text.substr(1);
    inc.line = t.line;
    m_.includes.push_back(inc);
  }

  /// `unordered_xxx < ... > name` at token index i (the container ident).
  void record_unordered(std::size_t i) {
    if (i + 1 >= toks_.size() || !is_punct(toks_[i + 1], "<")) return;
    std::size_t after = match_forward(toks_, i + 1);
    if (after >= toks_.size()) return;
    // Nested type access (Foo::iterator) is not a declaration.
    if (is_punct(toks_[after], "::")) return;
    while (after < toks_.size() &&
           (is_punct(toks_[after], "&") || is_punct(toks_[after], "*") ||
            is_ident(toks_[after], "const")))
      ++after;
    if (after >= toks_.size() || toks_[after].kind != TokKind::Ident) return;
    if (after + 1 < toks_.size() && is_punct(toks_[after + 1], "(") &&
        control_keywords().count(toks_[after].text))
      return;
    UnorderedDecl decl;
    decl.name = toks_[after].text;
    decl.line = toks_[after].line;
    decl.member = scopes_.back().kind == Scope::Class;
    m_.unordered.push_back(decl);
  }

  void open_brace(std::size_t i) {
    // Inside a function every nested brace (lambda, init-list, control
    // block) is part of that function's body: just track depth.
    for (const Scope& s : scopes_)
      if (s.kind == Scope::Function) {
        scopes_.push_back({Scope::Other, true});
        return;
      }
    if (try_function(i)) {
      scopes_.push_back({Scope::Function, true});
      return;
    }
    scopes_.push_back({classify_non_function(i), true});
  }

  /// Scan back from `end` (exclusive) to the nearest ; { } at depth 0
  /// looking for a scope keyword.
  Scope::Kind classify_non_function(std::size_t open) {
    std::size_t j = open;
    while (j > 0) {
      const Token& t = toks_[--j];
      if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) break;
      if (t.kind == TokKind::Ident) {
        if (t.text == "namespace" || t.text == "extern")
          return Scope::Namespace;
        if (t.text == "class" || t.text == "struct" || t.text == "union")
          return j > 0 && is_ident(toks_[j - 1], "enum") ? Scope::Enum
                                                         : Scope::Class;
        if (t.text == "enum") return Scope::Enum;
      }
    }
    return Scope::Other;
  }

  /// Recognize a function definition whose body opens at token `open`.
  bool try_function(std::size_t open) {
    std::size_t j = open;
    // Skip qualifiers between ')' and '{': const noexcept override final,
    // and a trailing return "-> Type" (idents / :: / < > / & / *).
    while (j > 0) {
      const Token& t = toks_[j - 1];
      if (is_ident(t, "const") || is_ident(t, "noexcept") ||
          is_ident(t, "override") || is_ident(t, "final") ||
          t.kind == TokKind::Ident || is_punct(t, "::") || is_punct(t, "<") ||
          is_punct(t, ">") || is_punct(t, "&") || is_punct(t, "*") ||
          is_punct(t, "->")) {
        // Only skip identifier runs if a "->"/qualifier path leads to ')'.
        if (t.kind == TokKind::Ident && !is_ident(t, "const") &&
            !is_ident(t, "noexcept") && !is_ident(t, "override") &&
            !is_ident(t, "final") && !has_arrow_before(j - 1))
          break;
        --j;
        continue;
      }
      break;
    }
    if (j == 0 || !is_punct(toks_[j - 1], ")")) return false;
    std::size_t close = j - 1;
    std::size_t paren = match_backward(close);
    if (paren == close) return false;

    // Constructor initializer list: the ')' we found may belong to the last
    // initializer. Walk back over ", name(...)" entries to a ':' that is
    // preceded by the real parameter list's ')'.
    std::size_t name_end = paren;  // exclusive
    std::size_t guard = 0;
    while (guard++ < 64) {
      std::size_t q = name_end;
      while (q > 0 && (toks_[q - 1].kind == TokKind::Ident ||
                       is_punct(toks_[q - 1], "::") ||
                       is_punct(toks_[q - 1], "~")))
        --q;
      if (q == name_end) return false;  // no name before '('
      const bool prev_comma = q > 0 && is_punct(toks_[q - 1], ",");
      const bool prev_colon = q > 0 && is_punct(toks_[q - 1], ":");
      if (prev_comma || prev_colon) {
        // Initializer-list entry; find the previous ")..." group.
        std::size_t k = q - 1;
        if (is_punct(toks_[k], ",")) {
          // Skip back over the previous "name(...)" entries until ':'.
          while (k > 0 && !(is_punct(toks_[k], ":") &&
                            !is_punct(toks_[k], "::"))) {
            if (is_punct(toks_[k], ")") || is_punct(toks_[k], "}")) {
              std::size_t m = match_backward(k);
              if (m == k) return false;
              k = m;
            }
            --k;
          }
        }
        // toks_[k] == ':'. That colon opens a constructor initializer list
        // only if the real parameter list closes right before it —
        // otherwise it is an access specifier or label directly before the
        // function name, and the name we already collected is the one.
        if (k == 0 || !is_punct(toks_[k - 1], ")")) {
          if (prev_comma) return false;
          break;
        }
        close = k - 1;
        paren = match_backward(close);
        if (paren == close) return false;
        name_end = paren;
        continue;
      }
      break;
    }

    // Collect the name chain ending at name_end.
    std::string name, qualified;
    std::size_t q = name_end;
    if (q > 0 && toks_[q - 1].kind == TokKind::Punct &&
        !is_punct(toks_[q - 1], "::") && !is_punct(toks_[q - 1], "&") &&
        !is_punct(toks_[q - 1], "*") && !is_punct(toks_[q - 1], ">")) {
      // Possible operator: walk back over punctuation to "operator".
      std::size_t k = q;
      std::string op;
      while (k > 0 && toks_[k - 1].kind == TokKind::Punct && op.size() < 4) {
        op = toks_[k - 1].text + op;
        --k;
      }
      if (k > 0 && is_ident(toks_[k - 1], "operator")) {
        name = qualified = "operator" + op;
      } else {
        return false;
      }
    } else {
      std::vector<std::string> parts;
      bool expecting_ident = true;
      while (q > 0) {
        const Token& t = toks_[q - 1];
        if (expecting_ident &&
            (t.kind == TokKind::Ident || is_punct(t, "~"))) {
          parts.insert(parts.begin(), t.text);
          expecting_ident = false;
          --q;
          continue;
        }
        if (!expecting_ident && is_punct(t, "::")) {
          parts.insert(parts.begin(), "::");
          expecting_ident = true;
          --q;
          continue;
        }
        break;
      }
      if (parts.empty()) return false;
      for (const std::string& p : parts) qualified += p;
      name = parts.back();
      if (name == "~" && parts.size() >= 2) name = "~" + parts.back();
    }
    if (control_keywords().count(name)) return false;

    Function fn;
    fn.name = name;
    fn.qualified = qualified;
    fn.line = toks_[open].line;
    fn.body_begin = open;
    fn.body_end = match_forward(toks_, open);
    fn.in_class = scopes_.back().kind == Scope::Class;
    fn.is_public = !fn.in_class || scopes_.back().access_public;
    parse_params(paren, close, fn.params);
    m_.functions.push_back(std::move(fn));
    return true;
  }

  bool has_arrow_before(std::size_t i) const {
    // An identifier between ')' and '{' is only legitimate as part of a
    // trailing return type; require a "->" somewhere shortly before it.
    std::size_t k = i;
    for (int steps = 0; k > 0 && steps < 8; ++steps) {
      const Token& t = toks_[--k];
      if (is_punct(t, "->")) return true;
      if (is_punct(t, ")") || is_punct(t, ";") || is_punct(t, "{")) return false;
    }
    return false;
  }

  std::size_t match_backward(std::size_t close) const {
    const std::string& c = toks_[close].text;
    std::string open = c == ")" ? "(" : (c == "]" ? "[" : "{");
    int depth = 0;
    std::size_t j = close;
    while (j > 0) {
      --j;
      if (toks_[j].kind != TokKind::Punct) continue;
      if (toks_[j].text == c) ++depth;
      else if (toks_[j].text == open) {
        if (depth == 0) return j;
        --depth;
      }
    }
    return close;
  }

  void parse_params(std::size_t paren, std::size_t close,
                    std::vector<Param>& out) {
    std::vector<std::vector<const Token*>> pieces(1);
    int depth = 0;
    for (std::size_t i = paren + 1; i < close; ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::Punct) {
        if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<")
          ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}" ||
                 t.text == ">")
          --depth;
        else if (t.text == "," && depth == 0) {
          pieces.emplace_back();
          continue;
        }
      }
      pieces.back().push_back(&t);
    }
    for (auto& piece : pieces) {
      // Drop default arguments and trailing array extents.
      std::size_t end = piece.size();
      int d = 0;
      for (std::size_t i = 0; i < piece.size(); ++i) {
        const Token& t = *piece[i];
        if (t.kind != TokKind::Punct) continue;
        if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<")
          ++d;
        else if (t.text == ")" || t.text == "]" || t.text == "}" ||
                 t.text == ">")
          --d;
        else if (t.text == "=" && d == 0) {
          end = i;
          break;
        }
      }
      while (end > 0 && piece[end - 1]->kind == TokKind::Punct &&
             (piece[end - 1]->text == "]" || piece[end - 1]->text == "["))
        --end;
      if (end == 0) continue;
      if (end == 1 && is_ident(*piece[0], "void")) continue;

      Param param;
      std::size_t name_at = end;  // index of the name token, or == end
      const Token& last = *piece[end - 1];
      if (last.kind == TokKind::Ident && end >= 2 &&
          !type_keywords().count(last.text) &&
          !is_punct(*piece[end - 2], "::")) {
        name_at = end - 1;
        param.name = last.text;
      }
      for (std::size_t i = 0; i < end; ++i) {
        if (i == name_at) continue;
        if (!param.type.empty()) param.type += ' ';
        param.type += piece[i]->text;
      }
      out.push_back(std::move(param));
    }
  }

  FileModel& m_;
  const std::vector<Token>& toks_;
  std::vector<Scope> scopes_;
};

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string close = o == "(" ? ")" : o == "[" ? "]"
                            : o == "{" ? "}" : ">";
  int depth = 0;
  for (std::size_t i = open + 1; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Punct) continue;
    // A template-argument scan that runs into a ';' is a mis-parse (the
    // '<' was a comparison); bail out rather than swallowing the file.
    if (o == "<" && (toks[i].text == ";" || toks[i].text == "{"))
      return open + 1;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == close) {
      if (depth == 0) return i + 1;
      --depth;
    }
  }
  return open + 1;
}

FileModel build_model(const std::string& rel_path, const std::string& text) {
  FileModel model;
  model.rel_path = rel_path;
  model.is_header = rel_path.size() >= 2 &&
                    (rel_path.rfind(".h") == rel_path.size() - 2 ||
                     (rel_path.size() >= 4 &&
                      rel_path.rfind(".hpp") == rel_path.size() - 4));
  LexResult lexed = lex(text);
  model.tokens = std::move(lexed.tokens);
  model.lex_errors = std::move(lexed.errors);
  ModelBuilder(model).run();
  return model;
}

}  // namespace surfnet::analyze
