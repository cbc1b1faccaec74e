#pragma once

// The analyzer's rule set. Each rule sees the whole-repo collection of file
// models (rules like module-layering and trace-schema are inherently
// cross-file) and appends findings. A finding carries a rule-specific
// stable `key` — what the suppression baseline matches on, so baselined
// findings survive unrelated line drift.
//
// Rules (see DESIGN.md §9 for the full semantics):
//   lexer               the file failed to tokenize (unterminated raw
//                       string / string / block comment)
//   module-layering     include edge violates the declared layer DAG, the
//                       target module is unknown, or the include graph of
//                       the layer root has a cycle
//   rng-ownership       a function that borrows an Rng& also constructs a
//                       local engine or forks a second stream; in the
//                       event/workload engines and the slot loop
//                       (simulator.cpp, sim_internal.h), a draw whose
//                       execution is conditional (if/&&/||/?: with no
//                       matching else-draw) is a draw-order hazard
//   unordered-state     iteration over a std::unordered_* container
//                       declared anywhere in the file (member or local)
//   trace-schema        trace-event kinds/keys emitted by src/obs/trace.cpp
//                       disagree with bench/trace_schema.json, or an
//                       emission site names an unknown kind
//   contract-coverage   a public function in a qec/decoder/routing header
//                       subscripts with an integral parameter before any
//                       SURFNET_EXPECTS/SURFNET_ASSERT mentions it
//   wallclock-seeding   std::rand, srand, random_device, system_clock,
//                       gettimeofday, std::time or a free time(NULL) anywhere
//   stdio-in-src        std::cout/cerr, <iostream>, fprintf(stdout, ...), or
//                       a printf/puts call however qualified, in src/
//   header-hygiene      a header whose first token is not #pragma once, or
//                       an #ifndef <X>_H include guard
//   event-core-purity   any clock, free time() call or std::unordered_* in
//                       src/netsim/

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.h"

namespace surfnet::analyze {

struct Finding {
  std::string file;  ///< repo-relative path
  int line = 0;
  std::string rule;
  std::string key;  ///< stable identity for baseline matching
  std::string message;

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return key < other.key;
  }
};

struct LayerConfig {
  std::string root = "src";  ///< tree the layering rule applies to
  std::vector<std::string> layers;  ///< bottom-up module order
  std::map<std::string, int> rank;  ///< derived from `layers`
};

struct AnalyzerContext {
  std::vector<FileModel> files;
  LayerConfig layers;
  /// Trace schema: event kind -> required JSONL keys (sans ev/trial).
  std::map<std::string, std::set<std::string>> trace_schema;
  /// Repo-relative path of the trace serializer the schema is checked
  /// against (src/obs/trace.cpp).
  std::string trace_impl = "src/obs/trace.cpp";
};

void rule_lexer(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_layering(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_rng(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_unordered(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_trace_schema(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_contracts(const AnalyzerContext& ctx, std::vector<Finding>& out);
/// wallclock-seeding, stdio-in-src and event-core-purity.
void rule_tokens(const AnalyzerContext& ctx, std::vector<Finding>& out);
void rule_headers(const AnalyzerContext& ctx, std::vector<Finding>& out);

/// Run every rule and return the findings sorted (file, line, rule, key)
/// and deduplicated. The committed baseline is the only suppression.
std::vector<Finding> run_rules(const AnalyzerContext& ctx);

}  // namespace surfnet::analyze
