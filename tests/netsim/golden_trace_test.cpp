// Golden-trace regression tests: a fixed (seed, FaultPlan) pair must
// reproduce the committed JSONL event trace byte for byte. The traces under
// tests/netsim/golden/ pin the full observable behavior of the fault
// injector, the recovery policy, and the simulator around them — any
// unintentional change to event ordering, RNG consumption, or JSONL
// formatting fails here with a field-by-field diff. Regenerate after an
// *intentional* change with:
//
//   SURFNET_REGEN_GOLDEN=1 ctest -R GoldenTrace
//
// and review the golden-file diff like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (same shape as failure_test.cpp).
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

Schedule one_request(int codes, bool dual, std::vector<int> ec = {}) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  s.ec_servers = std::move(ec);
  schedule.scheduled.push_back(s);
  return schedule;
}

std::string jsonl_of(const obs::TraceBuffer& buffer) {
  std::string out;
  for (const auto& event : buffer.events()) out += obs::to_jsonl(event) + "\n";
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Parse one flat JSONL event line ({"key":value,...}, no nesting, string
/// values without embedded commas) into key -> raw value text.
std::map<std::string, std::string> fields_of(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  auto skip = [&](char c) {
    if (i < line.size() && line[i] == c) ++i;
  };
  skip('{');
  while (i < line.size() && line[i] != '}') {
    skip(',');
    if (line[i] != '"') break;
    const auto key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) break;
    const std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip(':');
    const std::size_t start = i;
    if (i < line.size() && line[i] == '"') i = line.find('"', i + 1) + 1;
    while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
    fields[key] = line.substr(start, i - start);
  }
  return fields;
}

std::string golden_path(const char* name) {
  return std::string(SURFNET_TEST_DATA_DIR) + "/netsim/golden/" + name;
}

/// Compare `actual` against the committed golden trace. On mismatch the
/// failure names the first diverging lines and every differing field.
/// SURFNET_REGEN_GOLDEN=1 rewrites the file instead of comparing.
void expect_matches_golden(const std::string& actual, const char* name) {
  const auto path = golden_path(name);
  if (std::getenv("SURFNET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;  // a freshly regenerated trace trivially matches
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden trace " << path
                         << " — regenerate with SURFNET_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();
  if (actual == golden) return;

  const auto actual_lines = lines_of(actual);
  const auto golden_lines = lines_of(golden);
  EXPECT_EQ(actual_lines.size(), golden_lines.size())
      << name << ": event count changed";
  const auto n = std::min(actual_lines.size(), golden_lines.size());
  int reported = 0;
  for (std::size_t i = 0; i < n && reported < 5; ++i) {
    if (actual_lines[i] == golden_lines[i]) continue;
    ++reported;
    const auto got = fields_of(actual_lines[i]);
    const auto want = fields_of(golden_lines[i]);
    for (const auto& [key, value] : want) {
      const auto it = got.find(key);
      if (it == got.end())
        ADD_FAILURE() << name << " line " << i + 1 << ": field \"" << key
                      << "\" missing (golden has " << value << ")";
      else if (it->second != value)
        ADD_FAILURE() << name << " line " << i + 1 << ": field \"" << key
                      << "\" is " << it->second << ", golden has " << value;
    }
    for (const auto& [key, value] : got)
      if (!want.count(key))
        ADD_FAILURE() << name << " line " << i + 1 << ": unexpected field \""
                      << key << "\" = " << value;
  }
}

bool has_event(const obs::TraceBuffer& trace, obs::EventKind kind) {
  for (const auto& event : trace.events())
    if (event.kind == kind) return true;
  return false;
}

TEST(GoldenTrace, FaultCampaignReplaysCommittedJsonl) {
  // One scripted event of every fault kind plus a stochastic per-fiber cut
  // process, on the ring fixture with a fixed seed.
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.max_slots = 300;
  params.entanglement_rate = 3.0;
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 10, 0, 40, 0.3});
  params.faults.scripted.push_back({FaultKind::FiberCut, 25, 1, 30, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 60, 5, 20, 1.0});
  params.faults.stochastic.fiber_cut_rate = 0.02;
  params.faults.stochastic.fiber_cut_duration = 15;

  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  params.sink = {&metrics, &trace};
  util::Rng rng(20240806);
  simulate_surfnet(topo, one_request(6, true, {2}), params, dec, rng);

  // The campaign must actually exercise every fault kind, or the golden
  // trace pins less than it claims to.
  EXPECT_TRUE(has_event(trace, obs::EventKind::FiberDown));
  EXPECT_TRUE(has_event(trace, obs::EventKind::NodeDown));
  EXPECT_TRUE(has_event(trace, obs::EventKind::Degraded));
  expect_matches_golden(jsonl_of(trace), "ring_faults.jsonl");
}

TEST(GoldenTrace, RecoveryCampaignReplaysCommittedJsonl) {
  // A permanent cut on the direct server fiber with flaky swaps and the
  // aggressive policy (its per-code budget cut to 120 slots): the trace
  // pins local recoveries and failed swaps that try again the next slot.
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.max_slots = 600;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 120;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 5000, 1.0});

  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  params.sink = {&metrics, &trace};
  util::Rng rng(424242);
  simulate_surfnet(topo, one_request(4, true, {2}), params, dec, rng);

  EXPECT_TRUE(has_event(trace, obs::EventKind::FiberDown));
  EXPECT_TRUE(has_event(trace, obs::EventKind::Recovery));
  expect_matches_golden(jsonl_of(trace), "ring_recovery.jsonl");
}

/// Blank the "timers" section of a metrics JSON document: timers hold
/// measured wall-clock seconds, the one legitimately run-varying part.
std::string without_timers(std::string json) {
  const auto begin = json.find("\"timers\": {");
  if (begin == std::string::npos) return json;
  const auto end = json.find('}', begin);
  return json.erase(begin, end - begin + 1);
}

/// End-to-end chaos run through the core facade: stochastic correlated
/// cuts, node outages and degradations with the aggressive recovery
/// policy, traced and metered.
std::pair<std::string, std::string> chaos_run(int trials, int threads) {
  auto params = core::make_scenario(core::FacilityLevel::Sufficient,
                                    core::ConnectionQuality::Poor);
  params.simulation.faults.stochastic.correlated_cut_rate = 0.01;
  params.simulation.faults.stochastic.correlated_group_size = 3;
  params.simulation.faults.stochastic.correlated_cut_duration = 25;
  params.simulation.faults.stochastic.node_outage_rate = 0.002;
  params.simulation.faults.stochastic.node_outage_duration = 15;
  params.simulation.faults.stochastic.degradation_rate = 0.01;
  params.simulation.faults.stochastic.degradation_factor = 0.4;
  params.simulation.swap_success = 0.85;
  params.simulation.recovery = RecoveryPolicy::aggressive();

  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  core::RunOptions options;
  options.seed = 20240806;
  options.threads = threads;
  options.sink = {&metrics, &trace};
  core::run_trials(params, core::NetworkDesign::SurfNet, trials, options);
  return {jsonl_of(trace), metrics.to_json()};
}

TEST(GoldenTrace, FaultedRunsAreThreadCountInvariant) {
  // The ISSUE acceptance check: a fixed (seed, FaultPlan) pair replays
  // bitwise-identically at 1 and 8 threads — merged trace and merged
  // metrics both — with faults and recovery actually firing.
  const auto [trace1, metrics1] = chaos_run(8, /*threads=*/1);
  const auto [trace8, metrics8] = chaos_run(8, /*threads=*/8);
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace8);
  EXPECT_EQ(without_timers(metrics1), without_timers(metrics8));
  // The chaos knobs must actually fire, or invariance is tested on the
  // fault-free path only (experiment_test already covers that).
  EXPECT_NE(trace1.find("\"ev\":\"fiber_down\""), std::string::npos);
}

}  // namespace
}  // namespace surfnet::netsim
