// LP pin: routing::route() and the simplex solver on a fixed corpus, bit
// for bit. A change to the solver's kernels that keeps every pivot and
// every floating-point operation (how the eta file is built or applied,
// how long a solver lives) must keep these values; a change that moves
// results on purpose re-records them and says why. The same file pins the
// two routers that solve no LP, route_greedy() and route_purification(),
// so that a change to the capacity bookkeeping or the planner they share
// with route() shows in their schedules too.
//
// Corpus:
//  * route() on the twelve Fig. 6(a) cells (three facility levels, two
//    fiber qualities, SurfNet and Raw) at seeds 1-3, each trial built the
//    way core::run_trial builds it, plus 4x4 and 6x6 grids from
//    bench_ablation_routing's generator, where refactorization bumps are
//    large, and the Sufficient/Good SurfNet cell at code distance 13 with
//    perfbench large_code_batch's scaled capacities. Pinned: the first
//    solve's and the re-solves' iterations, the re-solve count, the bits of
//    lp_objective and a digest of the schedule.
//  * the RoutingFormulation of every instance above: each row's type,
//    right-hand side, columns and coefficients in emission order, each
//    variable's objective and upper bound, and the crash_hint() pairs.
//  * direct solve chains on the same formulations: a crash-started solve,
//    two warm re-solves of tightened residual problems and a cold solve of
//    the last one. Pinned per solve: status, iterations, dual iterations,
//    refactorizations and a digest of the bits of x and the objective.
//  * the LP property campaign's random problems (tests/routing/random_lp.h):
//    per problem one solver runs a cold solve, a crash solve from a random
//    hint and a three-step warm chain, folded into one digest line.
//  * route_greedy() on the Fig. 6(a) cells at seeds 1-3, with fixed and
//    adaptive code distances, and route_purification() at N = 1, 2 and 9
//    on the four Fig. 7 scenarios at seeds 1-3. Pinned: the scheduled
//    codes, the number of schedule entries and the schedule digest.
//
// On a mismatch the test prints the whole computed table in the form of
// the expected one.

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../proptest.h"
#include "core/surfnet.h"
#include "random_lp.h"
#include "routing/formulation.h"
#include "routing/greedy.h"
#include "routing/purification.h"
#include "routing/router.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(int value) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  void add(const std::vector<int>& values) {
    add(static_cast<int>(values.size()));
    for (const int v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t schedule_digest(const netsim::Schedule& schedule) {
  Digest d;
  d.add(schedule.requested_codes);
  for (const auto& s : schedule.scheduled) {
    d.add(s.request_index);
    d.add(s.codes);
    d.add(s.core_path);
    d.add(s.support_path);
    d.add(s.ec_servers);
    d.add(s.code_distance);
  }
  return d.value();
}

void add_solution(Digest& d, const LpSolution& sol) {
  d.add(static_cast<int>(sol.status));
  d.add(sol.iterations);
  d.add(sol.dual_iterations);
  d.add(sol.refactorizations);
  d.add(sol.objective);
  for (const double x : sol.x) d.add(x);
}

/// One routing instance: a topology, its requests, the routing parameters
/// and the Rng state route() continues from.
struct Instance {
  std::string label;
  netsim::Topology topology;
  std::vector<netsim::Request> requests;
  RoutingParams params;
  util::Rng rng;
};

Instance fig6a_instance(core::FacilityLevel level,
                        core::ConnectionQuality quality,
                        core::NetworkDesign design, std::uint64_t seed) {
  const core::ScenarioParams scenario = core::make_scenario(level, quality);
  util::Rng rng(seed);
  auto topology = netsim::make_random_topology(scenario.topology, rng);
  auto requests = netsim::random_requests(
      topology, scenario.num_requests, scenario.max_codes_per_request, rng);
  RoutingParams params = scenario.routing;
  params.dual_channel = design == core::NetworkDesign::SurfNet;
  const std::string label = std::string(core::to_string(level)) + "/" +
                            std::string(core::to_string(quality)) + "/" +
                            std::string(core::to_string(design)) + "/s" +
                            std::to_string(seed);
  return {label, std::move(topology), std::move(requests), params, rng};
}

/// bench_ablation_routing's LP-scaling instance at its default seed.
Instance grid_instance(int grid, int num_requests) {
  netsim::GridSpec spec;
  spec.width = grid;
  spec.height = grid;
  util::Rng rng(1 + static_cast<std::uint64_t>(grid * 1000 + num_requests));
  auto topology = netsim::make_grid_topology(spec, rng);
  auto requests = netsim::random_requests(topology, num_requests, 3, rng);
  RoutingParams params;
  params.core_noise_threshold = 0.6;
  params.total_noise_threshold = 0.7;
  params.ec_reduction = 0.15;
  const std::string label = "grid" + std::to_string(grid) + "x" +
                            std::to_string(grid) + "x" +
                            std::to_string(num_requests);
  return {label, std::move(topology), std::move(requests), params, rng};
}

/// perfbench large_code_batch's cell: Sufficient/Good SurfNet at code
/// distance 13, storage and pair capacities scaled by the code's qubit
/// counts, up to 8 codes per request.
Instance large_code_instance(std::uint64_t seed) {
  constexpr int kDistance = 13;
  core::ScenarioParams scenario = core::make_scenario(
      core::FacilityLevel::Sufficient, core::ConnectionQuality::Good);
  const int base = scenario.simulation.code_distance;
  const double node_scale =
      static_cast<double>(RoutingParams::total_qubits_for(kDistance)) /
      RoutingParams::total_qubits_for(base);
  const double pair_scale =
      static_cast<double>(RoutingParams::core_qubits_for(kDistance)) /
      RoutingParams::core_qubits_for(base);
  scenario.topology.storage_capacity = static_cast<int>(
      std::lround(scenario.topology.storage_capacity * node_scale));
  scenario.topology.entanglement_capacity = static_cast<int>(
      std::lround(scenario.topology.entanglement_capacity * pair_scale));
  util::Rng rng(seed);
  auto topology = netsim::make_random_topology(scenario.topology, rng);
  auto requests =
      netsim::random_requests(topology, scenario.num_requests, 8, rng);
  RoutingParams params = scenario.routing;
  params.dual_channel = true;
  params.core_qubits = RoutingParams::core_qubits_for(kDistance);
  params.support_qubits =
      RoutingParams::total_qubits_for(kDistance) - params.core_qubits;
  return {"sufficient/good/SurfNet/d13/s" + std::to_string(seed),
          std::move(topology), std::move(requests), params, rng};
}

std::vector<Instance> fig6a_corpus(std::initializer_list<std::uint64_t> seeds) {
  std::vector<Instance> corpus;
  for (const std::uint64_t seed : seeds)
    for (const auto level :
         {core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
          core::FacilityLevel::Insufficient})
      for (const auto quality :
           {core::ConnectionQuality::Good, core::ConnectionQuality::Poor})
        for (const auto design :
             {core::NetworkDesign::SurfNet, core::NetworkDesign::Raw})
          corpus.push_back(fig6a_instance(level, quality, design, seed));
  return corpus;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIX64 "ULL", v);
  return buf;
}

/// Compares line by line; on any difference prints every computed line.
void expect_table(const std::vector<std::string>& got,
                  const std::vector<std::string>& want) {
  EXPECT_EQ(got.size(), want.size());
  bool same = got.size() == want.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "record " << i;
    same = same && got[i] == want[i];
  }
  if (same) return;
  std::string table = "computed table:\n";
  for (const auto& line : got) table += "      " + line + "\n";
  ADD_FAILURE() << table;
}

struct RoutePin {
  const char* label;
  long cold_iterations;
  long warm_iterations;
  int resolves;
  std::uint64_t objective_bits;
  std::uint64_t schedule;
};

std::string format(const RoutePin& p) {
  return "{\"" + std::string(p.label) + "\", " +
         std::to_string(p.cold_iterations) + ", " +
         std::to_string(p.warm_iterations) + ", " +
         std::to_string(p.resolves) + ", " + hex(p.objective_bits) + ", " +
         hex(p.schedule) + "},";
}

struct SolvePin {
  const char* label;
  int status;
  int iterations;
  int dual_iterations;
  int refactorizations;
  std::uint64_t solution;
};

std::string format(const SolvePin& p) {
  return "{\"" + std::string(p.label) + "\", " + std::to_string(p.status) +
         ", " + std::to_string(p.iterations) + ", " +
         std::to_string(p.dual_iterations) + ", " +
         std::to_string(p.refactorizations) + ", " + hex(p.solution) + "},";
}

template <typename Pin>
std::vector<std::string> format_all(const std::vector<Pin>& pins) {
  std::vector<std::string> lines;
  for (const Pin& p : pins) lines.push_back(format(p));
  return lines;
}

std::string route_line(Instance& inst) {
  const RouteResult r =
      route(inst.topology, inst.requests, inst.params, inst.rng);
  return format(RoutePin{inst.label.c_str(), r.cold_iterations,
                         r.warm_iterations, r.resolves,
                         std::bit_cast<std::uint64_t>(r.lp_objective),
                         schedule_digest(r.schedule)});
}

/// Crash solve, two warm re-solves of tightened residual problems (the
/// shape route()'s re-solves have) and a cold solve of the last problem.
void append_chain(const Instance& inst, std::vector<std::string>& lines) {
  RoutingFormulation formulation(inst.topology, inst.requests, inst.params);
  LpSolver solver(formulation.problem());
  solver.crash(formulation.crash_hint());
  const auto pin = [&](const char* step, const LpSolution& sol) {
    Digest d;
    add_solution(d, sol);
    const std::string label = inst.label + "/" + step;
    lines.push_back(format(SolvePin{label.c_str(),
                                    static_cast<int>(sol.status),
                                    sol.iterations, sol.dual_iterations,
                                    sol.refactorizations, d.value()}));
  };
  pin("crash", solver.solve());
  for (const double scale : {0.7, 0.4}) {
    for (int k = 0; k < formulation.num_requests(); ++k)
      formulation.set_request_limit(
          k, std::floor(scale * inst.requests[static_cast<std::size_t>(k)]
                                    .codes));
    for (int v = 0; v < inst.topology.num_nodes(); ++v)
      formulation.set_storage_capacity(
          v, scale * inst.topology.node(v).storage_capacity);
    for (int e = 0; e < inst.topology.num_fibers(); ++e)
      formulation.set_entanglement_capacity(
          e, scale * inst.topology.fiber(e).entanglement_capacity);
    pin(scale > 0.5 ? "warm1" : "warm2", solver.solve());
  }
  pin("cold", LpSolver(formulation.problem()).solve());
}

/// route()'s corpus: the Fig. 6(a) cells at seeds 1-3, four grids and the
/// distance-13 cell at seeds 1-3.
std::vector<Instance> route_corpus() {
  std::vector<Instance> corpus = fig6a_corpus({1, 2, 3});
  corpus.push_back(grid_instance(4, 8));
  corpus.push_back(grid_instance(4, 16));
  corpus.push_back(grid_instance(6, 8));
  corpus.push_back(grid_instance(6, 16));
  for (const std::uint64_t seed : {1, 2, 3})
    corpus.push_back(large_code_instance(seed));
  return corpus;
}

TEST(LpPin, RouteResultsOnFig6aCellsAndGrids) {
  std::vector<Instance> corpus = route_corpus();
  std::vector<std::string> got;
  for (Instance& inst : corpus) got.push_back(route_line(inst));
  // clang-format off
  const std::vector<RoutePin> want = {
    {"abundant/good/SurfNet/s1", 20, 0, 0, 0x4020000000000000ULL, 0xBEB0B4A2FE481A6CULL},
    {"abundant/good/Raw/s1", 8, 0, 0, 0x4020000000000000ULL, 0xCC477B4983FCF1AFULL},
    {"abundant/poor/SurfNet/s1", 11, 0, 0, 0x4020000000000000ULL, 0xFBFC5590845C9128ULL},
    {"abundant/poor/Raw/s1", 6, 0, 0, 0x4020000000000000ULL, 0xBE0AD3DF70977D69ULL},
    {"sufficient/good/SurfNet/s1", 89, 71, 2, 0x40258E9B2E610E41ULL, 0x6F2925D955CFE8AFULL},
    {"sufficient/good/Raw/s1", 35, 0, 0, 0x402A000000000000ULL, 0x3D2FF284709A93E3ULL},
    {"sufficient/poor/SurfNet/s1", 74, 10, 2, 0x4025BA2A1016C4BBULL, 0x73A1DE3A4BEB0941ULL},
    {"sufficient/poor/Raw/s1", 22, 14, 1, 0x402822ED3DCE7D39ULL, 0x1970845F7A843D81ULL},
    {"insufficient/good/SurfNet/s1", 62, 30, 1, 0x401E9246203D20F7ULL, 0x77FD46264F28B04EULL},
    {"insufficient/good/Raw/s1", 22, 1, 1, 0x40226670A6C301AFULL, 0xB9B03C4FD072A036ULL},
    {"insufficient/poor/SurfNet/s1", 50, 30, 1, 0x402026DDDDDFC390ULL, 0x57A6B16612773083ULL},
    {"insufficient/poor/Raw/s1", 19, 2, 1, 0x4021FB709711273BULL, 0x9833BFA38F063005ULL},
    {"abundant/good/SurfNet/s2", 141, 0, 0, 0x402A000000000000ULL, 0xB6B9E4F52E5FC9EBULL},
    {"abundant/good/Raw/s2", 14, 0, 0, 0x402A000000000000ULL, 0x34CC55220C2F1DA0ULL},
    {"abundant/poor/SurfNet/s2", 69, 0, 0, 0x402A000000000000ULL, 0xB6B9E4F52E5FC9EBULL},
    {"abundant/poor/Raw/s2", 6, 0, 0, 0x402A000000000000ULL, 0x34CC55220C2F1DA0ULL},
    {"sufficient/good/SurfNet/s2", 98, 56, 2, 0x40262AE36EF93A05ULL, 0x5454112111E73674ULL},
    {"sufficient/good/Raw/s2", 42, 29, 1, 0x402F25E9ABE36DB9ULL, 0xD1E5F3F5F068A18BULL},
    {"sufficient/poor/SurfNet/s2", 70, 34, 2, 0x4026300C72C62BC1ULL, 0x14AACA69435C2C76ULL},
    {"sufficient/poor/Raw/s2", 34, 14, 1, 0x402CD9467F841436ULL, 0x1104B40F1E07F1E7ULL},
    {"insufficient/good/SurfNet/s2", 75, 6, 2, 0x401A4B5FB37F3D1DULL, 0xB5B4677F289A5FD7ULL},
    {"insufficient/good/Raw/s2", 18, 4, 1, 0x402147AE147AE148ULL, 0xB367EF2D04DAD9C0ULL},
    {"insufficient/poor/SurfNet/s2", 50, 16, 1, 0x401AB7D75050F20EULL, 0xB5B4677F289A5FD7ULL},
    {"insufficient/poor/Raw/s2", 18, 0, 1, 0x402147AE147AE148ULL, 0xF6498821FBB893F9ULL},
    {"abundant/good/SurfNet/s3", 83, 0, 0, 0x4026000000000000ULL, 0x5043467623EBD4AAULL},
    {"abundant/good/Raw/s3", 18, 0, 0, 0x4026000000000000ULL, 0x5806A37B1F6535B8ULL},
    {"abundant/poor/SurfNet/s3", 87, 0, 0, 0x4026000000000000ULL, 0x8917E8432B417A6FULL},
    {"abundant/poor/Raw/s3", 14, 0, 0, 0x4026000000000000ULL, 0x0CCA7CE25F5CA6FAULL},
    {"sufficient/good/SurfNet/s3", 102, 35, 1, 0x40203AE2AC7E7E1CULL, 0x72BF0FE1C92558CEULL},
    {"sufficient/good/Raw/s3", 47, 7, 1, 0x4024E3267428E814ULL, 0xEA4B280CAF0D060DULL},
    {"sufficient/poor/SurfNet/s3", 67, 14, 1, 0x401C00000000001AULL, 0x952F9061EF6276ACULL},
    {"sufficient/poor/Raw/s3", 42, 5, 1, 0x4022BFE03DBD0504ULL, 0x7366A28DBC4C9B68ULL},
    {"insufficient/good/SurfNet/s3", 86, 16, 1, 0x401059759FD078C4ULL, 0xF33CA48F42E67E6FULL},
    {"insufficient/good/Raw/s3", 19, 8, 1, 0x4017FEBBE8B78434ULL, 0x08F27F1B8D956CF6ULL},
    {"insufficient/poor/SurfNet/s3", 57, 38, 1, 0x4012C608F4C48715ULL, 0x6423D665DC964029ULL},
    {"insufficient/poor/Raw/s3", 19, 12, 1, 0x4018E6790C3A780FULL, 0x70843D4C0D034EB2ULL},
    {"grid4x4x8", 46, 9, 2, 0x4018729291300D7EULL, 0xA52CA7DDB97F9E74ULL},
    {"grid4x4x16", 18, 0, 1, 0x401EBE2BE2BE2BE3ULL, 0xD43785145403CD58ULL},
    {"grid6x6x8", 72, 0, 1, 0x401124924924924AULL, 0x72B944E2D052E46DULL},
    {"grid6x6x16", 201, 220, 1, 0x40255F15F15F15F2ULL, 0x85345173E806DCE8ULL},
    {"sufficient/good/SurfNet/d13/s1", 16, 1, 1, 0x401F31E43112CFBFULL, 0xD7F3C584215C7712ULL},
    {"sufficient/good/SurfNet/d13/s2", 12, 0, 1, 0x402331E43112CFBEULL, 0x74DA6B133C7B7FEEULL},
    {"sufficient/good/SurfNet/d13/s3", 0, 0, 1, 0x0000000000000000ULL, 0x34B459504102FC59ULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

struct FormulationPin {
  const char* label;
  int rows;
  int vars;
  int nonzeros;
  int hint_pairs;
  std::uint64_t digest;
};

std::string format(const FormulationPin& p) {
  return "{\"" + std::string(p.label) + "\", " + std::to_string(p.rows) +
         ", " + std::to_string(p.vars) + ", " + std::to_string(p.nonzeros) +
         ", " + std::to_string(p.hint_pairs) + ", " + hex(p.digest) + "},";
}

/// Digest of the LP route() builds and of its crash hint, in emission order.
std::string formulation_line(const Instance& inst) {
  const RoutingFormulation formulation(inst.topology, inst.requests,
                                       inst.params);
  const LpProblem& lp = formulation.problem();
  Digest d;
  for (int r = 0; r < lp.num_rows(); ++r) {
    d.add(static_cast<int>(lp.row_type(r)));
    d.add(lp.rhs(r));
    const auto cols = lp.row_cols(r);
    const auto coeffs = lp.row_coeffs(r);
    d.add(static_cast<int>(cols.size()));
    for (std::size_t t = 0; t < cols.size(); ++t) {
      d.add(cols[t]);
      d.add(coeffs[t]);
    }
  }
  for (int v = 0; v < lp.num_vars(); ++v) {
    d.add(lp.objective(v));
    d.add(lp.upper_bound(v));
  }
  const auto hint = formulation.crash_hint();
  for (const auto& [col, row] : hint) {
    d.add(col);
    d.add(row);
  }
  return format(FormulationPin{inst.label.c_str(), lp.num_rows(),
                               lp.num_vars(), lp.num_nonzeros(),
                               static_cast<int>(hint.size()), d.value()});
}

TEST(LpPin, FormulationsOnFig6aCellsAndGrids) {
  std::vector<std::string> got;
  for (const Instance& inst : route_corpus())
    got.push_back(formulation_line(inst));
  // clang-format off
  const std::vector<FormulationPin> want = {
    {"abundant/good/SurfNet/s1", 340, 732, 4350, 222, 0x549B7D06AC389771ULL},
    {"abundant/good/Raw/s1", 153, 384, 1638, 126, 0x1C4D54D5B5329E9DULL},
    {"abundant/poor/SurfNet/s1", 340, 732, 4350, 222, 0x04A9A9DC07585E6DULL},
    {"abundant/poor/Raw/s1", 153, 384, 1638, 126, 0xA1C338B770B60256ULL},
    {"sufficient/good/SurfNet/s1", 259, 504, 2926, 162, 0xA851E18EF120B319ULL},
    {"sufficient/good/Raw/s1", 113, 264, 1094, 90, 0x8534E93226D334ABULL},
    {"sufficient/poor/SurfNet/s1", 259, 504, 2926, 162, 0x2374875CC58310E9ULL},
    {"sufficient/poor/Raw/s1", 113, 264, 1094, 90, 0x99D2252D78F7237FULL},
    {"insufficient/good/SurfNet/s1", 196, 326, 1902, 120, 0xDA294AAD7549DDE0ULL},
    {"insufficient/good/Raw/s1", 86, 172, 714, 66, 0xD5D95C604CDEE87EULL},
    {"insufficient/poor/SurfNet/s1", 196, 326, 1902, 120, 0xFEE60F4BB52C0A50ULL},
    {"insufficient/poor/Raw/s1", 86, 172, 714, 66, 0xD5B0729CA82875B6ULL},
    {"abundant/good/SurfNet/s2", 338, 732, 4330, 222, 0xA8B2B38068FBC519ULL},
    {"abundant/good/Raw/s2", 153, 384, 1628, 126, 0xCAB26ED7B20B1B1DULL},
    {"abundant/poor/SurfNet/s2", 338, 732, 4330, 222, 0x73301305CFB2E08DULL},
    {"abundant/poor/Raw/s2", 153, 384, 1628, 126, 0xBEE20A2F9F781F5DULL},
    {"sufficient/good/SurfNet/s2", 257, 526, 3103, 162, 0xC80C0612733D6F4CULL},
    {"sufficient/good/Raw/s2", 113, 275, 1166, 90, 0xE770D6E6B5FEDDC6ULL},
    {"sufficient/poor/SurfNet/s2", 257, 526, 3103, 162, 0x3E04DE4478C5BA33ULL},
    {"sufficient/poor/Raw/s2", 113, 275, 1166, 90, 0x0D55559D2FB930ACULL},
    {"insufficient/good/SurfNet/s2", 197, 374, 2172, 100, 0xF2DD698385949C84ULL},
    {"insufficient/good/Raw/s2", 86, 196, 813, 55, 0xF50943BB008CB011ULL},
    {"insufficient/poor/SurfNet/s2", 197, 374, 2172, 100, 0x7A42A1FDDF6A3B14ULL},
    {"insufficient/poor/Raw/s2", 86, 196, 813, 55, 0x081C4CAB37D74B55ULL},
    {"abundant/good/SurfNet/s3", 342, 732, 4346, 222, 0x779CF2E77CA9CE9FULL},
    {"abundant/good/Raw/s3", 153, 384, 1636, 126, 0x7E60956064FDFDD7ULL},
    {"abundant/poor/SurfNet/s3", 342, 732, 4346, 222, 0x44CFB1766EDF3F53ULL},
    {"abundant/poor/Raw/s3", 153, 384, 1636, 126, 0x7349EFC566AFF137ULL},
    {"sufficient/good/SurfNet/s3", 256, 522, 3037, 162, 0x870B32F1242CAAABULL},
    {"sufficient/good/Raw/s3", 113, 273, 1136, 90, 0x625A688FF3DAEF15ULL},
    {"sufficient/poor/SurfNet/s3", 256, 522, 3037, 162, 0xE061AD30A0724C9BULL},
    {"sufficient/poor/Raw/s3", 113, 273, 1136, 90, 0x6335A6667C85663BULL},
    {"insufficient/good/SurfNet/s3", 201, 374, 2146, 120, 0xE817BB26C7CAF183ULL},
    {"insufficient/good/Raw/s3", 86, 196, 800, 66, 0x5D635968E66CA2C4ULL},
    {"insufficient/poor/SurfNet/s3", 201, 374, 2146, 120, 0xF3181DCF0A5D5CB7ULL},
    {"insufficient/poor/Raw/s3", 86, 196, 800, 66, 0x9BF941047E136776ULL},
    {"grid4x4x8", 169, 180, 1040, 72, 0x5DDC5295034D3C09ULL},
    {"grid4x4x16", 322, 354, 2059, 148, 0xD66DD9FE1B76F7C5ULL},
    {"grid6x6x8", 457, 846, 4881, 196, 0xC64A89D1D45E2A72ULL},
    {"grid6x6x16", 871, 1700, 9802, 476, 0x75E8F8EE17E14A1AULL},
    {"sufficient/good/SurfNet/d13/s1", 259, 504, 2926, 162, 0x2891F303A52DDFD4ULL},
    {"sufficient/good/SurfNet/d13/s2", 257, 526, 3103, 162, 0x64DF3580CDEDE711ULL},
    {"sufficient/good/SurfNet/d13/s3", 256, 522, 3037, 162, 0xC7FD337DF5B8900BULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

TEST(LpPin, SolveChainsOnRoutingFormulations) {
  std::vector<Instance> corpus = fig6a_corpus({1});
  corpus.push_back(grid_instance(4, 8));
  corpus.push_back(grid_instance(4, 16));
  corpus.push_back(grid_instance(6, 8));
  corpus.push_back(grid_instance(6, 16));
  corpus.push_back(grid_instance(6, 32));
  std::vector<std::string> got;
  for (const Instance& inst : corpus) append_chain(inst, got);
  // clang-format off
  const std::vector<SolvePin> want = {
    {"abundant/good/SurfNet/s1/crash", 0, 20, 0, 2, 0x63765C6ED8ED544BULL},
    {"abundant/good/SurfNet/s1/warm1", 0, 4, 4, 2, 0x177C1C1594766588ULL},
    {"abundant/good/SurfNet/s1/warm2", 0, 0, 0, 1, 0xACE305F10AEB0985ULL},
    {"abundant/good/SurfNet/s1/cold", 0, 30, 0, 2, 0x2EB417A622E0A0BFULL},
    {"abundant/good/Raw/s1/crash", 0, 8, 0, 2, 0x03F0B7A7293DCB45ULL},
    {"abundant/good/Raw/s1/warm1", 0, 1, 1, 2, 0x3248E4AC6503848AULL},
    {"abundant/good/Raw/s1/warm2", 0, 0, 0, 1, 0x6E2D21077FB17F04ULL},
    {"abundant/good/Raw/s1/cold", 0, 16, 0, 2, 0xB3649D0758F73C13ULL},
    {"abundant/poor/SurfNet/s1/crash", 0, 11, 0, 2, 0x494A80C07F566418ULL},
    {"abundant/poor/SurfNet/s1/warm1", 0, 1, 1, 2, 0x0E9DC5A2FB2C61BBULL},
    {"abundant/poor/SurfNet/s1/warm2", 0, 0, 0, 1, 0x48832F48D3F182A5ULL},
    {"abundant/poor/SurfNet/s1/cold", 0, 30, 0, 2, 0xD93231B69D816714ULL},
    {"abundant/poor/Raw/s1/crash", 0, 6, 0, 1, 0x5D6C71B627136226ULL},
    {"abundant/poor/Raw/s1/warm1", 0, 0, 0, 1, 0x17075CF0CD4BF688ULL},
    {"abundant/poor/Raw/s1/warm2", 0, 0, 0, 1, 0x9C3AAD6A174B8CC5ULL},
    {"abundant/poor/Raw/s1/cold", 0, 16, 0, 2, 0x9ADDA2F68FCDD422ULL},
    {"sufficient/good/SurfNet/s1/crash", 0, 89, 0, 3, 0x8403A214A8C3B920ULL},
    {"sufficient/good/SurfNet/s1/warm1", 0, 29, 29, 2, 0x969A6856802D1F27ULL},
    {"sufficient/good/SurfNet/s1/warm2", 0, 19, 19, 2, 0x60355D50524B5D8CULL},
    {"sufficient/good/SurfNet/s1/cold", 0, 112, 0, 3, 0xB2892253D4A6337FULL},
    {"sufficient/good/Raw/s1/crash", 0, 35, 0, 2, 0xEF6B562230697DE9ULL},
    {"sufficient/good/Raw/s1/warm1", 0, 8, 8, 2, 0x8AA636C0137A7D1BULL},
    {"sufficient/good/Raw/s1/warm2", 0, 20, 20, 2, 0xBFF7D1D483411FD6ULL},
    {"sufficient/good/Raw/s1/cold", 0, 54, 0, 2, 0xC49774C7B3170363ULL},
    {"sufficient/poor/SurfNet/s1/crash", 0, 74, 0, 3, 0x84BA921DA2F31591ULL},
    {"sufficient/poor/SurfNet/s1/warm1", 0, 6, 6, 2, 0xFD91012CF493A170ULL},
    {"sufficient/poor/SurfNet/s1/warm2", 0, 1, 1, 2, 0x0FD14D871C819DB5ULL},
    {"sufficient/poor/SurfNet/s1/cold", 0, 86, 0, 3, 0x79C595232DD36D48ULL},
    {"sufficient/poor/Raw/s1/crash", 0, 22, 0, 2, 0x62898D809978EB46ULL},
    {"sufficient/poor/Raw/s1/warm1", 0, 0, 0, 1, 0x74FB361C2F27CA47ULL},
    {"sufficient/poor/Raw/s1/warm2", 0, 4, 4, 2, 0xDC1D7133C34E5425ULL},
    {"sufficient/poor/Raw/s1/cold", 0, 34, 0, 2, 0xB3E5E4F7B9189357ULL},
    {"insufficient/good/SurfNet/s1/crash", 0, 62, 0, 2, 0xDF448C28C960A0BAULL},
    {"insufficient/good/SurfNet/s1/warm1", 0, 13, 13, 2, 0xB407F06DE0B0ED3FULL},
    {"insufficient/good/SurfNet/s1/warm2", 0, 70, 70, 3, 0xBFAC844628817545ULL},
    {"insufficient/good/SurfNet/s1/cold", 0, 26, 0, 2, 0x2CC4218F6BE64AF8ULL},
    {"insufficient/good/Raw/s1/crash", 0, 22, 0, 2, 0x4C9DDEE9A9C63103ULL},
    {"insufficient/good/Raw/s1/warm1", 0, 11, 11, 2, 0xA885EBD83942BF36ULL},
    {"insufficient/good/Raw/s1/warm2", 0, 14, 14, 2, 0x0EC8BFD3FA4DFA51ULL},
    {"insufficient/good/Raw/s1/cold", 0, 7, 0, 2, 0xC825CD03E2B39F3EULL},
    {"insufficient/poor/SurfNet/s1/crash", 0, 50, 0, 2, 0x51A49E1D83DD4133ULL},
    {"insufficient/poor/SurfNet/s1/warm1", 0, 0, 0, 1, 0x5115B226A283F7CBULL},
    {"insufficient/poor/SurfNet/s1/warm2", 0, 41, 41, 2, 0xB1F8AC91BD420FBBULL},
    {"insufficient/poor/SurfNet/s1/cold", 0, 27, 0, 2, 0x8C2F2565F2E7E3ACULL},
    {"insufficient/poor/Raw/s1/crash", 0, 19, 0, 2, 0xCAFD0303B514F56EULL},
    {"insufficient/poor/Raw/s1/warm1", 0, 10, 10, 2, 0x487B6B7CC4FC5DF8ULL},
    {"insufficient/poor/Raw/s1/warm2", 0, 11, 11, 2, 0xCC94CE13E820B3D5ULL},
    {"insufficient/poor/Raw/s1/cold", 0, 7, 0, 2, 0x60C63FAC4AFF40B6ULL},
    {"grid4x4x8/crash", 0, 46, 0, 2, 0x4A0EBE7822BC4984ULL},
    {"grid4x4x8/warm1", 0, 2, 2, 2, 0x7D7483353D787A7EULL},
    {"grid4x4x8/warm2", 0, 0, 0, 1, 0xDE7A56D8CD986A21ULL},
    {"grid4x4x8/cold", 0, 38, 0, 2, 0x5C896DCAE426E7F3ULL},
    {"grid4x4x16/crash", 0, 18, 0, 2, 0x33F5C6FEDC97E96DULL},
    {"grid4x4x16/warm1", 0, 2, 2, 2, 0x368F32B8AF0C08D2ULL},
    {"grid4x4x16/warm2", 0, 0, 0, 1, 0x2E1AB231B38A794FULL},
    {"grid4x4x16/cold", 0, 15, 0, 2, 0x819C6D94592E4193ULL},
    {"grid6x6x8/crash", 0, 72, 0, 3, 0xAA9501AA985DF098ULL},
    {"grid6x6x8/warm1", 0, 0, 0, 1, 0x0F7830D5EA68E398ULL},
    {"grid6x6x8/warm2", 0, 0, 0, 1, 0x6310DD9BD4EEE212ULL},
    {"grid6x6x8/cold", 0, 52, 0, 2, 0xB925B8D33FF7F0ADULL},
    {"grid6x6x16/crash", 0, 201, 0, 5, 0x9DFF986E93E5986BULL},
    {"grid6x6x16/warm1", 0, 156, 156, 4, 0x167030A5FFCED30CULL},
    {"grid6x6x16/warm2", 0, 2, 2, 2, 0x4100D2C6F9C69472ULL},
    {"grid6x6x16/cold", 0, 51, 0, 2, 0x8A0904DAE34FB348ULL},
    {"grid6x6x32/crash", 0, 1309, 0, 22, 0x4F071D1E161303EEULL},
    {"grid6x6x32/warm1", 0, 315, 315, 6, 0x19D0381E83FA56F9ULL},
    {"grid6x6x32/warm2", 0, 560, 560, 10, 0xC4A5ECFE3AF8706EULL},
    {"grid6x6x32/cold", 0, 450, 0, 9, 0x7EA0D54D382A8BC4ULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

TEST(LpPin, SolveChainsOnRandomProblems) {
  // Per problem: cold, crash from a random hint, then three warm steps.
  // The status field packs the five statuses in base 4 (first solve most
  // significant), the counters are summed over the five solves, and the
  // digest covers each solve.
  constexpr proptest::Config kCorpus{.iterations = 48,
                                     .seed = 0x1BADB002C0FFEE11ULL};
  std::vector<std::string> got;
  for (int i = 0; i < kCorpus.iterations; ++i) {
    util::Rng rng(proptest::case_seed(kCorpus.seed, i));
    LpProblem lp = random_lp::problem(rng);
    const auto hint = random_lp::hint(rng, lp);
    Digest d;
    SolvePin sum{"", 0, 0, 0, 0, 0};
    const auto add = [&](const LpSolution& sol) {
      add_solution(d, sol);
      sum.status = sum.status * 4 + static_cast<int>(sol.status);
      sum.iterations += sol.iterations;
      sum.dual_iterations += sol.dual_iterations;
      sum.refactorizations += sol.refactorizations;
    };
    LpSolver solver(lp);
    add(solver.solve());
    solver.crash(hint);
    add(solver.solve());
    for (int step = 0; step < 3; ++step) {
      random_lp::perturb(rng, lp);
      add(solver.solve());
    }
    const std::string label = "random" + std::to_string(i);
    sum.label = label.c_str();
    sum.solution = d.value();
    got.push_back(format(sum));
  }
  // clang-format off
  const std::vector<SolvePin> want = {
    {"random0", 341, 0, 0, 6, 0x11982BC1C5F86746ULL},
    {"random1", 341, 2, 0, 6, 0xDEDA74A1FD750D66ULL},
    {"random2", 682, 5, 0, 5, 0x25E5EF693FEEBF47ULL},
    {"random3", 341, 1, 0, 5, 0xDEC7C9250C741564ULL},
    {"random4", 5, 5, 0, 6, 0xA61034F016E3E3FAULL},
    {"random5", 341, 4, 0, 6, 0xD4290ED4B7888C64ULL},
    {"random6", 0, 7, 1, 9, 0x952B740B03BC7FF2ULL},
    {"random7", 341, 2, 0, 5, 0xCF5B13F92A5F8B05ULL},
    {"random8", 341, 0, 0, 6, 0x11982BC1C5F86746ULL},
    {"random9", 341, 2, 0, 6, 0x4B65208FCEFC1104ULL},
    {"random10", 0, 7, 1, 9, 0xC3EFF8EF41A5F5C5ULL},
    {"random11", 341, 1, 0, 5, 0x8F1A72FA50ED5D24ULL},
    {"random12", 21, 13, 0, 7, 0x9D6E08361F7326C6ULL},
    {"random13", 0, 2, 0, 6, 0xD67F23C7538477DFULL},
    {"random14", 362, 4, 0, 5, 0x7EB31806913688E6ULL},
    {"random15", 341, 0, 0, 6, 0x11982BC1C5F86746ULL},
    {"random16", 341, 2, 0, 6, 0xDEDA74A1FD750D66ULL},
    {"random17", 340, 0, 0, 6, 0xCD9BE1779FE5E807ULL},
    {"random18", 325, 0, 0, 5, 0x86E6CF2C185F57C4ULL},
    {"random19", 341, 0, 0, 5, 0x0218CB18F2E2E4E5ULL},
    {"random20", 341, 2, 0, 5, 0xCF5B13F92A5F8B05ULL},
    {"random21", 0, 14, 0, 5, 0xB17ED4EB234C4B56ULL},
    {"random22", 341, 6, 0, 6, 0x25759B29C5753AA6ULL},
    {"random23", 0, 8, 1, 8, 0x2389E0AFB1104592ULL},
    {"random24", 341, 2, 0, 6, 0xDEDA74A1FD750D66ULL},
    {"random25", 341, 6, 0, 5, 0x8BB75EF5A8859005ULL},
    {"random26", 325, 5, 0, 7, 0xA051BE064269C0A6ULL},
    {"random27", 661, 2, 0, 5, 0x4E907ABF28310665ULL},
    {"random28", 341, 4, 0, 5, 0xF7DDCC108BBA5E27ULL},
    {"random29", 341, 0, 0, 5, 0x0218CB18F2E2E4E5ULL},
    {"random30", 682, 0, 0, 5, 0x022493DA7A7A6B06ULL},
    {"random31", 341, 4, 0, 5, 0x48B3F1A0BAE31225ULL},
    {"random32", 0, 12, 1, 8, 0x3AE83C01D2D77128ULL},
    {"random33", 341, 0, 0, 5, 0x0218CB18F2E2E4E5ULL},
    {"random34", 0, 14, 2, 10, 0x12018BDE577E6340ULL},
    {"random35", 341, 5, 0, 5, 0xFDC54C196B3E2106ULL},
    {"random36", 341, 0, 0, 6, 0x11982BC1C5F86746ULL},
    {"random37", 341, 2, 0, 6, 0xDEDA74A1FD750D66ULL},
    {"random38", 0, 5, 0, 5, 0xED47FF36B1CB225DULL},
    {"random39", 677, 9, 0, 6, 0x7425CFE7EA162424ULL},
    {"random40", 341, 4, 0, 6, 0x583352498DF89486ULL},
    {"random41", 341, 0, 0, 6, 0x11982BC1C5F86746ULL},
    {"random42", 341, 1, 0, 5, 0xDEC7C9250C741564ULL},
    {"random43", 341, 1, 0, 5, 0xDEC7C9250C741564ULL},
    {"random44", 1, 2, 0, 8, 0xF5C60DC2A68B3104ULL},
    {"random45", 341, 6, 0, 5, 0x0870B94B6E4F1045ULL},
    {"random46", 341, 2, 0, 6, 0xDEDA74A1FD750D66ULL},
    {"random47", 682, 10, 0, 5, 0xCB6FC71B77223084ULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

struct SchedulePin {
  const char* label;
  int scheduled_codes;
  int entries;
  std::uint64_t schedule;
};

std::string format(const SchedulePin& p) {
  return "{\"" + std::string(p.label) + "\", " +
         std::to_string(p.scheduled_codes) + ", " +
         std::to_string(p.entries) + ", " + hex(p.schedule) + "},";
}

std::string schedule_line(const std::string& label,
                          const netsim::Schedule& schedule) {
  return format(SchedulePin{label.c_str(), schedule.scheduled_codes(),
                            static_cast<int>(schedule.scheduled.size()),
                            schedule_digest(schedule)});
}

TEST(RouterPin, GreedyOnFig6aCells) {
  std::vector<std::string> got;
  for (const bool adaptive : {false, true}) {
    for (Instance& inst : fig6a_corpus({1, 2, 3})) {
      inst.params.adaptive_code_distance = adaptive;
      const netsim::Schedule schedule =
          route_greedy(inst.topology, inst.requests, inst.params, inst.rng);
      got.push_back(schedule_line(
          inst.label + (adaptive ? "/adaptive" : "/fixed"), schedule));
    }
  }
  // clang-format off
  const std::vector<SchedulePin> want = {
    {"abundant/good/SurfNet/s1/fixed", 8, 6, 0xD6B11606E332236BULL},
    {"abundant/good/Raw/s1/fixed", 8, 6, 0xFE89A4311C8E8B05ULL},
    {"abundant/poor/SurfNet/s1/fixed", 8, 6, 0x5244D2D3A7FA342EULL},
    {"abundant/poor/Raw/s1/fixed", 8, 6, 0xBE0AD3DF70977D69ULL},
    {"sufficient/good/SurfNet/s1/fixed", 6, 4, 0x6D80A73DC4F7020BULL},
    {"sufficient/good/Raw/s1/fixed", 7, 4, 0x72A6D5A90DAE806EULL},
    {"sufficient/poor/SurfNet/s1/fixed", 6, 4, 0x07E061F0A08177E0ULL},
    {"sufficient/poor/Raw/s1/fixed", 10, 5, 0x57376633AC43D2A2ULL},
    {"insufficient/good/SurfNet/s1/fixed", 4, 2, 0x2C1EDFC0EC488A2EULL},
    {"insufficient/good/Raw/s1/fixed", 6, 3, 0x67064870D4ED1F28ULL},
    {"insufficient/poor/SurfNet/s1/fixed", 6, 3, 0x02F9CB3337046FECULL},
    {"insufficient/poor/Raw/s1/fixed", 7, 5, 0x824A9293AA637A25ULL},
    {"abundant/good/SurfNet/s2/fixed", 10, 5, 0x989B99AF479E51C9ULL},
    {"abundant/good/Raw/s2/fixed", 12, 6, 0x7733F4756A67FDA7ULL},
    {"abundant/poor/SurfNet/s2/fixed", 10, 5, 0x989B99AF479E51C9ULL},
    {"abundant/poor/Raw/s2/fixed", 13, 6, 0x34CC55220C2F1DA0ULL},
    {"sufficient/good/SurfNet/s2/fixed", 5, 3, 0xF7BB7EF86FCC2CF5ULL},
    {"sufficient/good/Raw/s2/fixed", 7, 3, 0xCBAF11B64E5BC87CULL},
    {"sufficient/poor/SurfNet/s2/fixed", 5, 3, 0xDA49A7F1545CE9D5ULL},
    {"sufficient/poor/Raw/s2/fixed", 7, 3, 0x83A9DFBF96B48AFCULL},
    {"insufficient/good/SurfNet/s2/fixed", 4, 2, 0xEA5D0FDD309A3F72ULL},
    {"insufficient/good/Raw/s2/fixed", 4, 2, 0x670176A8EFC1193EULL},
    {"insufficient/poor/SurfNet/s2/fixed", 4, 2, 0xEA5D0FDD309A3F72ULL},
    {"insufficient/poor/Raw/s2/fixed", 4, 2, 0x670176A8EFC1193EULL},
    {"abundant/good/SurfNet/s3/fixed", 11, 6, 0x79E51063C143A10EULL},
    {"abundant/good/Raw/s3/fixed", 11, 6, 0x0CCA7CE25F5CA6FAULL},
    {"abundant/poor/SurfNet/s3/fixed", 10, 5, 0xEB4803502FA4B88BULL},
    {"abundant/poor/Raw/s3/fixed", 11, 6, 0x079BF4AB7BF86ABFULL},
    {"sufficient/good/SurfNet/s3/fixed", 4, 2, 0xFBC35126F9E4EBEBULL},
    {"sufficient/good/Raw/s3/fixed", 6, 4, 0x5E9CB6EC79BFB4CBULL},
    {"sufficient/poor/SurfNet/s3/fixed", 5, 3, 0x5D941DA3B900610BULL},
    {"sufficient/poor/Raw/s3/fixed", 6, 4, 0x7157CF760D1EBD4AULL},
    {"insufficient/good/SurfNet/s3/fixed", 2, 1, 0x4A77FF987EFB656CULL},
    {"insufficient/good/Raw/s3/fixed", 3, 2, 0xE8E2A573E2B795A7ULL},
    {"insufficient/poor/SurfNet/s3/fixed", 2, 1, 0x4A77FF987EFB656CULL},
    {"insufficient/poor/Raw/s3/fixed", 4, 3, 0x08F27F1B8D956CF6ULL},
    {"abundant/good/SurfNet/s1/adaptive", 8, 6, 0x8F4772BAA9D6956BULL},
    {"abundant/good/Raw/s1/adaptive", 8, 6, 0x68B61B103485B245ULL},
    {"abundant/poor/SurfNet/s1/adaptive", 8, 6, 0x6FB0D2D440DEC50EULL},
    {"abundant/poor/Raw/s1/adaptive", 8, 6, 0x95A84BBB0F4A8A6FULL},
    {"sufficient/good/SurfNet/s1/adaptive", 2, 2, 0x33A001BB20FD60A9ULL},
    {"sufficient/good/Raw/s1/adaptive", 7, 4, 0xFF3ED6B003C10589ULL},
    {"sufficient/poor/SurfNet/s1/adaptive", 9, 5, 0xA5F42886FF8548E0ULL},
    {"sufficient/poor/Raw/s1/adaptive", 10, 5, 0x36505FDC8C040D20ULL},
    {"insufficient/good/SurfNet/s1/adaptive", 3, 2, 0xB96D4FB36C8E0AACULL},
    {"insufficient/good/Raw/s1/adaptive", 9, 5, 0x58DB4C846D7305E9ULL},
    {"insufficient/poor/SurfNet/s1/adaptive", 6, 4, 0x98C45AE79A26788DULL},
    {"insufficient/poor/Raw/s1/adaptive", 5, 5, 0xF94D4E75DC31C1B1ULL},
    {"abundant/good/SurfNet/s2/adaptive", 12, 5, 0x833991DB74BCC56FULL},
    {"abundant/good/Raw/s2/adaptive", 13, 6, 0xF221F8AC5140D563ULL},
    {"abundant/poor/SurfNet/s2/adaptive", 13, 6, 0x7F25E4976D20F2ACULL},
    {"abundant/poor/Raw/s2/adaptive", 13, 6, 0xCE65282FE433B161ULL},
    {"sufficient/good/SurfNet/s2/adaptive", 7, 3, 0x8736A5A330548494ULL},
    {"sufficient/good/Raw/s2/adaptive", 10, 5, 0x9CDCBADBC2AFC5F7ULL},
    {"sufficient/poor/SurfNet/s2/adaptive", 7, 4, 0x6727B046845063B5ULL},
    {"sufficient/poor/Raw/s2/adaptive", 8, 4, 0x1A7FA79464F59E0BULL},
    {"insufficient/good/SurfNet/s2/adaptive", 2, 1, 0xBD0AFEB39F1CCB17ULL},
    {"insufficient/good/Raw/s2/adaptive", 7, 4, 0xC285B7603F21CCBDULL},
    {"insufficient/poor/SurfNet/s2/adaptive", 3, 2, 0xB291DBE906EDDFF0ULL},
    {"insufficient/poor/Raw/s2/adaptive", 4, 3, 0xB4F25BF32BF742C1ULL},
    {"abundant/good/SurfNet/s3/adaptive", 9, 5, 0xDE629494DE22E3C8ULL},
    {"abundant/good/Raw/s3/adaptive", 11, 6, 0x5AB0CF156C535F3EULL},
    {"abundant/poor/SurfNet/s3/adaptive", 9, 4, 0xC886F7C56E2566AFULL},
    {"abundant/poor/Raw/s3/adaptive", 11, 6, 0x68BA4550646F9538ULL},
    {"sufficient/good/SurfNet/s3/adaptive", 5, 3, 0x59C58CD0586D9E29ULL},
    {"sufficient/good/Raw/s3/adaptive", 7, 4, 0x8D7AC65F42D7468FULL},
    {"sufficient/poor/SurfNet/s3/adaptive", 3, 2, 0xAFD81132189F83AAULL},
    {"sufficient/poor/Raw/s3/adaptive", 7, 4, 0x2DDAB99AF12DD005ULL},
    {"insufficient/good/SurfNet/s3/adaptive", 2, 1, 0xCE8CE374533E3CE8ULL},
    {"insufficient/good/Raw/s3/adaptive", 3, 2, 0x8321BC2F314821A7ULL},
    {"insufficient/poor/SurfNet/s3/adaptive", 3, 3, 0x26A8540F20692E4EULL},
    {"insufficient/poor/Raw/s3/adaptive", 2, 2, 0x4F0A4776120CAE64ULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

TEST(RouterPin, PurificationOnFig7Scenarios) {
  std::vector<std::string> got;
  for (const std::uint64_t seed : {1, 2, 3})
    for (const auto level :
         {core::FacilityLevel::Abundant, core::FacilityLevel::Insufficient})
      for (const auto quality :
           {core::ConnectionQuality::Good, core::ConnectionQuality::Poor})
        for (const int extra_pairs : {1, 2, 9}) {
          // Built the way core::run_trial builds a Purification N trial.
          const core::ScenarioParams scenario =
              core::make_scenario(level, quality);
          util::Rng rng(seed);
          const auto topology =
              netsim::make_random_topology(scenario.topology, rng);
          const auto requests = netsim::random_requests(
              topology, scenario.num_requests,
              scenario.max_codes_per_request, rng);
          const netsim::Schedule schedule = route_purification(
              topology, requests, PurificationParams{extra_pairs}, rng);
          got.push_back(schedule_line(
              std::string(core::to_string(level)) + "/" +
                  std::string(core::to_string(quality)) + "/N" +
                  std::to_string(extra_pairs) + "/s" + std::to_string(seed),
              schedule));
        }
  // clang-format off
  const std::vector<SchedulePin> want = {
    {"abundant/good/N1/s1", 8, 6, 0xC7FC0509B658D16EULL},
    {"abundant/good/N2/s1", 8, 6, 0xC7FC0509B658D16EULL},
    {"abundant/good/N9/s1", 8, 6, 0xC7FC0509B658D16EULL},
    {"abundant/poor/N1/s1", 8, 6, 0xD155B95DEABA5A0EULL},
    {"abundant/poor/N2/s1", 8, 6, 0xD155B95DEABA5A0EULL},
    {"abundant/poor/N9/s1", 8, 6, 0xD155B95DEABA5A0EULL},
    {"insufficient/good/N1/s1", 11, 6, 0xEDF31FB3BC3DF28EULL},
    {"insufficient/good/N2/s1", 11, 6, 0xEDF31FB3BC3DF28EULL},
    {"insufficient/good/N9/s1", 5, 5, 0x33CD2E68820D970CULL},
    {"insufficient/poor/N1/s1", 11, 6, 0xEDF31FB3BC3DF28EULL},
    {"insufficient/poor/N2/s1", 11, 6, 0xEDF31FB3BC3DF28EULL},
    {"insufficient/poor/N9/s1", 5, 5, 0x33CD2E68820D970CULL},
    {"abundant/good/N1/s2", 13, 6, 0x083B0488BD6075A8ULL},
    {"abundant/good/N2/s2", 13, 6, 0x083B0488BD6075A8ULL},
    {"abundant/good/N9/s2", 13, 6, 0x59FC434AEBABF248ULL},
    {"abundant/poor/N1/s2", 13, 6, 0x083B0488BD6075A8ULL},
    {"abundant/poor/N2/s2", 13, 6, 0x083B0488BD6075A8ULL},
    {"abundant/poor/N9/s2", 13, 6, 0x59FC434AEBABF248ULL},
    {"insufficient/good/N1/s2", 14, 6, 0x277726FBE6DE52B1ULL},
    {"insufficient/good/N2/s2", 14, 6, 0xE2B7EECBC77C5875ULL},
    {"insufficient/good/N9/s2", 6, 6, 0xCDC9963E2BBC3C55ULL},
    {"insufficient/poor/N1/s2", 14, 6, 0x277726FBE6DE52B1ULL},
    {"insufficient/poor/N2/s2", 14, 6, 0xE2B7EECBC77C5875ULL},
    {"insufficient/poor/N9/s2", 6, 6, 0xCDC9963E2BBC3C55ULL},
    {"abundant/good/N1/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"abundant/good/N2/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"abundant/good/N9/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"abundant/poor/N1/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"abundant/poor/N2/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"abundant/poor/N9/s3", 11, 6, 0xD42E403012AF1F4EULL},
    {"insufficient/good/N1/s3", 11, 6, 0xA69AFE7F00DB5B4EULL},
    {"insufficient/good/N2/s3", 11, 6, 0xA69AFE7F00DB5B4EULL},
    {"insufficient/good/N9/s3", 5, 5, 0xAFE1F60ED27472A9ULL},
    {"insufficient/poor/N1/s3", 11, 6, 0xA69AFE7F00DB5B4EULL},
    {"insufficient/poor/N2/s3", 11, 6, 0xA69AFE7F00DB5B4EULL},
    {"insufficient/poor/N9/s3", 5, 5, 0xAFE1F60ED27472A9ULL},
  };
  // clang-format on
  expect_table(got, format_all(want));
}

}  // namespace
}  // namespace surfnet::routing
