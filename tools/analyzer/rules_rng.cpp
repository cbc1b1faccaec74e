#include <algorithm>

#include "rules.h"

namespace surfnet::analyze {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::Punct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::Ident && t.text == s;
}

const std::set<std::string>& engine_names() {
  static const std::set<std::string> names = {
      "Rng",          "mt19937",      "mt19937_64",
      "minstd_rand",  "minstd_rand0", "default_random_engine",
      "ranlux24",     "ranlux48",     "knuth_b"};
  return names;
}

const std::set<std::string>& draw_methods() {
  static const std::set<std::string> names = {"uniform", "bernoulli", "below",
                                              "between"};
  return names;
}

/// Does this function borrow a caller-owned RNG stream?
std::set<std::string> rng_params(const Function& fn) {
  std::set<std::string> names;
  for (const Param& p : fn.params) {
    if (p.name.empty()) continue;
    const bool rng_type = p.type.find("Rng") != std::string::npos &&
                          p.type.find('&') != std::string::npos;
    if (rng_type || p.name == "rng") names.insert(p.name);
  }
  return names;
}

/// Token indexes (of the rng identifier) of every draw in [begin, end).
std::vector<std::size_t> find_draws(const std::vector<Token>& toks,
                                    std::size_t begin, std::size_t end,
                                    const std::set<std::string>& rngs) {
  std::vector<std::size_t> draws;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::Ident || !rngs.count(toks[i].text)) continue;
    // rng.uniform(... / rng.bernoulli(... / rng(...)
    if (i + 3 < end && is_punct(toks[i + 1], ".") &&
        draw_methods().count(toks[i + 2].text) &&
        is_punct(toks[i + 3], "(")) {
      draws.push_back(i);
      continue;
    }
    if (i + 1 < end && is_punct(toks[i + 1], "(")) draws.push_back(i);
  }
  return draws;
}

struct IfStmt {
  std::size_t then_begin = 0, then_end = 0;
  std::size_t else_begin = 0, else_end = 0;  ///< 0,0 when absent
};

/// [start, end) of the statement beginning at `s`; handles blocks, nested
/// if-chains, and simple `...;` statements.
std::size_t statement_end(const std::vector<Token>& toks, std::size_t s,
                          std::size_t limit);

std::size_t if_statement_end(const std::vector<Token>& toks, std::size_t i,
                             std::size_t limit) {
  // i points at "if". Skip "constexpr", the condition, then the branches.
  std::size_t j = i + 1;
  if (j < limit && is_ident(toks[j], "constexpr")) ++j;
  if (j >= limit || !is_punct(toks[j], "(")) return i + 1;
  j = match_forward(toks, j);
  j = statement_end(toks, j, limit);
  if (j < limit && is_ident(toks[j], "else"))
    j = statement_end(toks, j + 1, limit);
  return j;
}

std::size_t statement_end(const std::vector<Token>& toks, std::size_t s,
                          std::size_t limit) {
  if (s >= limit) return limit;
  if (is_punct(toks[s], "{")) return std::min(match_forward(toks, s), limit);
  if (is_ident(toks[s], "if")) return if_statement_end(toks, s, limit);
  int depth = 0;
  for (std::size_t j = s; j < limit; ++j) {
    if (toks[j].kind != TokKind::Punct) continue;
    const std::string& p = toks[j].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    else if (p == ")" || p == "]" || p == "}") --depth;
    else if (p == ";" && depth == 0) return j + 1;
  }
  return limit;
}

/// Every if-statement inside [begin, end) with its branch ranges.
std::vector<IfStmt> collect_ifs(const std::vector<Token>& toks,
                                std::size_t begin, std::size_t end) {
  std::vector<IfStmt> ifs;
  for (std::size_t i = begin; i < end; ++i) {
    if (!is_ident(toks[i], "if")) continue;
    std::size_t j = i + 1;
    if (j < end && is_ident(toks[j], "constexpr")) ++j;
    if (j >= end || !is_punct(toks[j], "(")) continue;
    const std::size_t cond_end = match_forward(toks, j);
    IfStmt stmt;
    stmt.then_begin = cond_end;
    stmt.then_end = statement_end(toks, cond_end, end);
    if (stmt.then_end < end && is_ident(toks[stmt.then_end], "else")) {
      stmt.else_begin = stmt.then_end + 1;
      stmt.else_end = statement_end(toks, stmt.else_begin, end);
    }
    ifs.push_back(stmt);
  }
  return ifs;
}

/// Backward scan from the draw to its statement boundary: a && / || / ?:
/// on the evaluation path means the draw only happens on some executions.
bool short_circuit_guarded(const std::vector<Token>& toks, std::size_t draw,
                           std::size_t body_begin) {
  int depth = 0;
  bool pending_colon = false;
  for (std::size_t j = draw; j > body_begin; --j) {
    const Token& t = toks[j - 1];
    if (t.kind != TokKind::Punct && t.kind != TokKind::Ident) continue;
    const std::string& p = t.text;
    if (t.kind == TokKind::Punct) {
      if (p == ")" || p == "]") ++depth;
      else if (p == "(" || p == "[") --depth;
      else if (depth <= 0) {
        if (p == ";" || p == "{" || p == "}") return false;
        if (p == "&&" || p == "||") return true;
        if (p == "?") return true;  // first or second ternary arm
        if (p == ":") pending_colon = true;
      }
    } else if (depth <= 0 && (p == "case" || p == "default") &&
               pending_colon) {
      return false;  // the colon was a switch label, not a ternary
    }
  }
  return false;
}

/// The engines whose draw order the draw-count check guards: the traffic
/// engine and the slot loop every design runs on.
bool event_core_file(const std::string& rel) {
  return rel.rfind("src/netsim/event", 0) == 0 ||
         rel.rfind("src/netsim/workload", 0) == 0 ||
         rel == "src/netsim/simulator.cpp" || rel == "src/netsim/sim_internal.h";
}

}  // namespace

void rule_rng(const AnalyzerContext& ctx, std::vector<Finding>& out) {
  for (const FileModel& f : ctx.files) {
    if (f.rel_path.rfind("src/", 0) != 0) continue;
    const std::vector<Token>& toks = f.tokens;
    for (const Function& fn : f.functions) {
      const std::set<std::string> rngs = rng_params(fn);
      if (rngs.empty()) continue;
      const std::size_t begin = fn.body_begin;
      const std::size_t end = std::min(fn.body_end, toks.size());

      // (a) A borrowed stream means no second engine: constructing a local
      // generator inside the function splits the stream and silently
      // breaks (seed, plan) bitwise replay.
      for (std::size_t i = begin; i < end; ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !engine_names().count(toks[i].text))
          continue;
        if (i > 0 && (is_punct(toks[i - 1], ".") ||
                      is_punct(toks[i - 1], "->")))
          continue;  // member access, not a type
        if (i + 1 >= end) continue;
        const Token& next = toks[i + 1];
        const bool declares_named =
            next.kind == TokKind::Ident &&
            (i + 2 >= end || !is_punct(toks[i + 2], ":"));
        const bool constructs_temp =
            is_punct(next, "(") || is_punct(next, "{");
        if (is_punct(next, "::") || is_punct(next, "&") ||
            is_punct(next, "*") || is_punct(next, ">"))
          continue;  // nested-type use, reference alias, or template arg
        if (declares_named || constructs_temp) {
          out.push_back(
              {f.rel_path, toks[i].line, "rng-ownership",
               fn.name + ":" + toks[i].text,
               "'" + fn.qualified + "' borrows an Rng& but constructs a "
               "local '" + toks[i].text + "' engine; all draws must come "
               "from the single caller-owned stream (util/rng.h)"});
        }
      }

      // (b) fork() inside a borrowing function starts a second stream.
      for (std::size_t i = begin; i + 2 < end; ++i) {
        if (toks[i].kind == TokKind::Ident && rngs.count(toks[i].text) &&
            is_punct(toks[i + 1], ".") && is_ident(toks[i + 2], "fork")) {
          out.push_back(
              {f.rel_path, toks[i].line, "rng-ownership",
               fn.name + ":fork",
               "'" + fn.qualified + "' forks the borrowed Rng&; deriving a "
               "second stream inside a borrowing function hides a "
               "draw-order dependency from the caller"});
        }
      }

      // (c) Draw-order hazards in the event/workload engines and the slot
      // loop: a draw that executes only on some control paths shifts the
      // shared RNG stream between engine implementations.
      if (!event_core_file(f.rel_path)) continue;
      const std::vector<std::size_t> draws = find_draws(toks, begin, end, rngs);
      if (draws.empty()) continue;
      const std::vector<IfStmt> ifs = collect_ifs(toks, begin, end);
      for (const std::size_t d : draws) {
        bool hazard = short_circuit_guarded(toks, d, begin);
        const char* how = "behind a short-circuit or ternary";
        if (!hazard) {
          // Innermost if-branch containing the draw, with no draw in the
          // matching branch.
          std::size_t best_span = static_cast<std::size_t>(-1);
          for (const IfStmt& s : ifs) {
            const bool in_then = d >= s.then_begin && d < s.then_end;
            const bool in_else =
                s.else_end && d >= s.else_begin && d < s.else_end;
            if (!in_then && !in_else) continue;
            const std::size_t span = in_then ? s.then_end - s.then_begin
                                             : s.else_end - s.else_begin;
            if (span >= best_span) continue;
            best_span = span;
            const std::size_t ob = in_then ? s.else_begin : s.then_begin;
            const std::size_t oe = in_then ? s.else_end : s.then_end;
            hazard = oe == ob ||
                     find_draws(toks, ob, oe, rngs).empty();
            how = in_then && !s.else_end
                      ? "inside an if with no matching else-draw"
                      : "in one branch of an if whose other branch does "
                        "not draw";
          }
        }
        if (hazard) {
          out.push_back(
              {f.rel_path, toks[d].line, "rng-ownership",
               fn.name + ":draw@" +
                   (toks[d + 1].kind == TokKind::Punct &&
                            toks[d + 1].text == "."
                        ? toks[d + 2].text
                        : "call"),
               "conditional draw " + std::string(how) + " in '" +
                   fn.qualified + "': the event/workload engines and the "
                   "slot loop must keep the RNG stream identical across "
                   "engines and thread counts; hoist the draw or draw in "
                   "both branches (DESIGN.md §9)"});
        }
      }
    }
  }
}

}  // namespace surfnet::analyze
