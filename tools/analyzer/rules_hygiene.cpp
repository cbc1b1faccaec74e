// The token rules of rules.h: symbols, calls and includes banned per tree.
// #define bodies are scanned too, at the directive's line.

#include <sstream>

#include "rules.h"

namespace surfnet::analyze {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::Punct && t.text == s;
}

/// An identifier that can precede an expression ("return time(0)"), unlike
/// a type name ("double time()") or a scope ("Registry::time").
bool expression_keyword(const Token& t) {
  return t.kind == TokKind::Ident &&
         (t.text == "return" || t.text == "co_return" || t.text == "throw" ||
          t.text == "case" || t.text == "else" || t.text == "do");
}

/// How the identifier at toks[i] is reached: "" unqualified, "::" global,
/// "." member access ('.' or '->'), else the qualifying name ("std", ...).
std::string qualifier(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return "";
  if (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) return ".";
  if (!is_punct(toks[i - 1], "::")) return "";
  if (i >= 2 && ((toks[i - 2].kind == TokKind::Ident &&
                  !expression_keyword(toks[i - 2])) ||
                 is_punct(toks[i - 2], ">")))
    return toks[i - 2].text;
  return "::";
}

/// toks[i] names a called free function: '(' follows, the name is
/// unqualified, ::- or std::-qualified, and it is not the declarator of a
/// declaration ("double time() const").
bool free_call(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) return false;
  const std::string q = qualifier(toks, i);
  if (!q.empty()) return q == "::" || q == "std";
  return i == 0 || toks[i - 1].kind != TokKind::Ident ||
         expression_keyword(toks[i - 1]);
}

enum class Match {
  Include,      ///< #include <name>
  Name,         ///< the identifier anywhere
  StdName,      ///< std::name
  Call,         ///< name(...) as a free call (see free_call)
  NullaryCall,  ///< free name(), name(NULL|nullptr|0), std:: excluded
  StdoutCall,   ///< free name(stdout, ...)
};

struct Banned {
  const char* name;
  Match match;
  const char* key;  ///< names the finding and is its baseline key
};

struct TokenRule {
  const char* rule;
  std::vector<std::string> scopes;  ///< path prefixes; empty = every file
  std::vector<Banned> banned;
  const char* why;
};

bool matches(const std::vector<Token>& toks, std::size_t i,
             const Banned& b) {
  if (b.match == Match::Include)
    return toks[i].kind == TokKind::PpInclude &&
           toks[i].text == std::string("<") + b.name;
  if (toks[i].kind != TokKind::Ident || toks[i].text != b.name) return false;
  const auto next_is = [&](std::size_t k, const char* text) {
    return i + k < toks.size() && toks[i + k].text == text;
  };
  switch (b.match) {
    case Match::StdName: return qualifier(toks, i) == "std";
    case Match::Call: return free_call(toks, i);
    case Match::NullaryCall: {
      if (!free_call(toks, i) || qualifier(toks, i) == "std") return false;
      const bool arg =
          next_is(2, "NULL") || next_is(2, "nullptr") || next_is(2, "0");
      return next_is(arg ? 3 : 2, ")");
    }
    case Match::StdoutCall: return free_call(toks, i) && next_is(2, "stdout");
    default: return true;  // Match::Name
  }
}

void scan(const std::vector<Token>& toks, const FileModel& f,
          const TokenRule& r, int macro_line, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::PpOther &&
        toks[i].text.rfind("define", 0) == 0) {
      // Without "define NAME", whose name would read as a declarator.
      std::vector<Token> body = lex(toks[i].text).tokens;
      if (body.size() > 2) {
        body.erase(body.begin(), body.begin() + 2);
        scan(body, f, r, toks[i].line, out);
      }
      continue;
    }
    for (const Banned& b : r.banned)
      if (matches(toks, i, b))
        out.push_back({f.rel_path, macro_line ? macro_line : toks[i].line,
                       r.rule, b.key, std::string(b.key) + " " + r.why});
  }
}

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = {
      {"wallclock-seeding", {},
       {{"rand", Match::StdName, "std::rand"}, {"srand", Match::Call, "srand"},
        {"random_device", Match::Name, "std::random_device"},
        {"system_clock", Match::Name, "system_clock"},
        {"gettimeofday", Match::Name, "gettimeofday"},
        {"time", Match::StdName, "std::time"},
        {"time", Match::NullaryCall, "time()"}},
       "breaks deterministic seeding; derive randomness from an explicit "
       "seed (util/rng.h)"},
      {"stdio-in-src", {"src/"},
       {{"iostream", Match::Include, "<iostream>"},
        {"cout", Match::StdName, "std::cout"},
        {"cerr", Match::StdName, "std::cerr"},
        {"printf", Match::Call, "printf"}, {"puts", Match::Call, "puts"},
        {"fprintf", Match::StdoutCall, "fprintf(stdout)"}},
       "in library code; report through the obs layer (src/obs) instead"},
      {"event-core-purity", {"src/netsim/"},
       {{"chrono", Match::Include, "<chrono>"},
        {"chrono", Match::StdName, "std::chrono"},
        {"steady_clock", Match::Name, "steady_clock"},
        {"system_clock", Match::Name, "system_clock"},
        {"high_resolution_clock", Match::Name, "high_resolution_clock"},
        {"clock", Match::Call, "clock()"}, {"time", Match::Call, "time()"},
        {"unordered_map", Match::Include, "<unordered_map>"},
        {"unordered_set", Match::Include, "<unordered_set>"},
        {"unordered_map", Match::Name, "unordered_map"},
        {"unordered_set", Match::Name, "unordered_set"},
        {"unordered_multimap", Match::Name, "unordered_multimap"},
        {"unordered_multiset", Match::Name, "unordered_multiset"}},
       "in the event engine; virtual time comes from the event queue only "
       "and handler state must iterate deterministically (vectors/sorted), "
       "or (seed, params) bitwise replay breaks"},
  };
  return rules;
}

}  // namespace

void rule_tokens(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const TokenRule& r : token_rules())
    for (const FileModel& f : ctx.files) {
      bool in_scope = r.scopes.empty();
      for (const std::string& prefix : r.scopes)
        in_scope = in_scope || f.rel_path.rfind(prefix, 0) == 0;
      if (in_scope) scan(f.tokens, f, r, 0, out);
    }
}

void rule_headers(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files) {
    if (!f.is_header) continue;
    const std::vector<Token>& toks = f.tokens;
    if (toks.empty() || toks[0].kind != TokKind::PpOther ||
        toks[0].text != "pragma once")
      out.push_back({f.rel_path, toks.empty() ? 1 : toks[0].line,
                     "header-hygiene", "#pragma once",
                     "first non-comment line must be '#pragma once'"});
    for (const Token& t : toks) {
      if (t.kind != TokKind::PpOther) continue;
      std::istringstream directive(t.text);
      std::string word, guard;
      directive >> word >> guard;
      if (word == "ifndef" && guard.size() > 2 &&
          guard.compare(guard.size() - 2, 2, "_H") == 0)
        out.push_back({f.rel_path, t.line, "header-hygiene",
                       "#ifndef " + guard,
                       "#ifndef include guard; use #pragma once"});
    }
  }
}

}  // namespace surfnet::analyze
