#include <algorithm>

#include "rules.h"

namespace surfnet::analyze {

namespace {

bool in_tree(const std::string& rel, const char* tree) {
  const std::string prefix = std::string(tree) + "/";
  return rel.rfind(prefix, 0) == 0;
}

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::Punct && t.text == s;
}

}  // namespace

void rule_lexer(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files)
    for (const LexError& err : f.lex_errors)
      out.push_back({f.rel_path, err.line, "lexer", err.message,
                     err.message + "; the file cannot be analyzed reliably "
                     "past this point"});
}

void rule_unordered(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files) {
    // Determinism-relevant trees only: library results and bench records.
    if (!in_tree(f.rel_path, "src") && !in_tree(f.rel_path, "bench"))
      continue;
    if (f.unordered.empty()) continue;
    std::map<std::string, int> declared;
    for (const UnorderedDecl& d : f.unordered) declared[d.name] = d.line;

    const std::vector<Token>& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Range-for over a declared container: for ( decl : expr ).
      if (toks[i].kind == TokKind::Ident && toks[i].text == "for" &&
          i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
        const std::size_t close = match_forward(toks, i + 1);
        std::size_t colon = 0;
        for (std::size_t j = i + 2; j + 1 < close; ++j)
          if (is_punct(toks[j], ":")) {
            colon = j;
            break;
          }
        if (!colon) continue;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
          auto it = toks[j].kind == TokKind::Ident
                        ? declared.find(toks[j].text)
                        : declared.end();
          if (it == declared.end()) continue;
          out.push_back(
              {f.rel_path, toks[j].line, "unordered-state", it->first,
               "iterating '" + it->first + "' (std::unordered_* declared "
               "line " + std::to_string(it->second) + "): order is "
               "implementation-defined and leaks into results/traces/"
               "metrics; copy into a sorted vector first"});
          break;
        }
        continue;
      }
      // Iterator-based walk or order-sensitive accumulation:
      // name.begin()/cbegin()/rbegin().
      if (toks[i].kind == TokKind::Ident && i + 2 < toks.size() &&
          is_punct(toks[i + 1], ".") &&
          (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
           toks[i + 2].text == "rbegin")) {
        auto it = declared.find(toks[i].text);
        if (it == declared.end()) continue;
        out.push_back(
            {f.rel_path, toks[i].line, "unordered-state", it->first,
             "taking '" + it->first + ".begin()' (std::unordered_* declared "
             "line " + std::to_string(it->second) + "): iteration order is "
             "implementation-defined; copy into a sorted vector first"});
      }
    }
  }
}

std::vector<Finding> run_rules(const AnalyzerContext& ctx) {
  std::vector<Finding> findings;
  rule_lexer(ctx, findings);
  rule_layering(ctx, findings);
  rule_rng(ctx, findings);
  rule_unordered(ctx, findings);
  rule_trace_schema(ctx, findings);
  rule_contracts(ctx, findings);
  rule_tokens(ctx, findings);
  rule_headers(ctx, findings);

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.key == b.key;
                             }),
                 findings.end());
  return findings;
}

}  // namespace surfnet::analyze
