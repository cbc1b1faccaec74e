#pragma once

// Suppression baseline: the committed debt ledger. Each entry pins one
// finding by (rule, file, key) — never by line, so entries survive
// unrelated edits — and must say WHY the finding is acceptable. A baseline
// match suppresses the finding; an entry that matches nothing is reported
// so the ledger shrinks as debt is paid. Prefer fixing over baselining.
// The baseline is the only suppression: no in-source escape hatch exists.

#include <string>
#include <vector>

#include "rules.h"

namespace surfnet::analyze {

struct BaselineEntry {
  std::string rule;
  std::string file;
  std::string key;
  std::string why;
};

/// Parse a baseline file. On malformed input (bad JSON, missing fields, an
/// entry without a non-empty "why") returns false and sets `error`.
bool load_baseline(const std::string& text, std::vector<BaselineEntry>& out,
                   std::string& error);

struct BaselineResult {
  std::vector<Finding> active;      ///< not covered by the baseline
  std::vector<Finding> suppressed;  ///< matched an entry
  std::vector<BaselineEntry> unused;  ///< entries that matched nothing
};

BaselineResult apply_baseline(const std::vector<Finding>& findings,
                              const std::vector<BaselineEntry>& entries);

}  // namespace surfnet::analyze
