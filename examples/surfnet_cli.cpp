// Command-line driver for the SurfNet library.
//
//   surfnet_cli decode   [--distance D] [--rotated] [--pauli P]
//                        [--erasure E] [--decoder uf|surfnet|mwpm]
//                        [--trials N] [--seed S] [--threads T] [--draw]
//   surfnet_cli trial    [--facilities abundant|sufficient|insufficient]
//                        [--fibers good|poor]
//                        [--design surfnet|raw|p1|p2|p9]
//                        [--trials N] [--seed S] [--threads T]
//   surfnet_cli topology [--facilities ...] [--fibers ...] [--seed S]
//                        [--routes]         (emits Graphviz DOT on stdout)
//
// Observability (decode and trial): --metrics-out FILE writes the metrics
// JSON document, --trace-out FILE streams the JSONL event trace ("-" =
// stdout for either). The trial trace carries the simulator's per-slot
// events (pool levels, segment jumps, decodes, deliveries); decode runs
// report engine counters and timers into the metrics document.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/surfnet.h"
#include "decoder/code_trial.h"
#include "decoder/mwpm.h"
#include "decoder/trial_runner.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "netsim/dot.h"
#include "obs/session.h"
#include "qec/core_support.h"
#include "qec/lattice.h"
#include "qec/render.h"
#include "qec/rotated_lattice.h"
#include "routing/router.h"
#include "util/rng.h"

namespace {

using namespace surfnet;

struct Args {
  std::string command;
  int distance = 5;
  bool rotated = false;
  double pauli = 0.05;
  double erasure = 0.15;
  std::string decoder = "surfnet";
  std::string facilities = "sufficient";
  std::string fibers = "good";
  std::string design = "surfnet";
  int trials = 2000;
  std::uint64_t seed = 42;
  int threads = 1;
  bool draw = false;
  bool routes = false;
  std::string metrics_out;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s decode|trial|topology [options]\n",
                 argv[0]);
    std::exit(2);
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--distance")) args.distance = std::atoi(v);
    else if (const char* v2 = value("--pauli")) args.pauli = std::atof(v2);
    else if (const char* v3 = value("--erasure")) args.erasure = std::atof(v3);
    else if (const char* v4 = value("--decoder")) args.decoder = v4;
    else if (const char* v5 = value("--facilities")) args.facilities = v5;
    else if (const char* v6 = value("--fibers")) args.fibers = v6;
    else if (const char* v7 = value("--design")) args.design = v7;
    else if (const char* v8 = value("--trials")) args.trials = std::atoi(v8);
    else if (const char* v9 = value("--seed"))
      args.seed = std::strtoull(v9, nullptr, 10);
    else if (const char* v10 = value("--threads"))
      args.threads = std::atoi(v10);
    else if (const char* v11 = value("--metrics-out")) args.metrics_out = v11;
    else if (const char* v12 = value("--trace-out")) args.trace_out = v12;
    else if (std::strcmp(argv[i], "--rotated") == 0) args.rotated = true;
    else if (std::strcmp(argv[i], "--draw") == 0) args.draw = true;
    else if (std::strcmp(argv[i], "--routes") == 0) args.routes = true;
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

int run_decode(const Args& args) {
  std::unique_ptr<qec::CodeLattice> lattice;
  if (args.rotated)
    lattice = std::make_unique<qec::RotatedSurfaceCodeLattice>(args.distance);
  else
    lattice = std::make_unique<qec::SurfaceCodeLattice>(args.distance);

  std::unique_ptr<decoder::Decoder> dec;
  if (args.decoder == "uf") dec = std::make_unique<decoder::UnionFindDecoder>();
  else if (args.decoder == "mwpm") dec = std::make_unique<decoder::MwpmDecoder>();
  else dec = std::make_unique<decoder::SurfNetDecoder>();

  const auto partition = qec::make_core_support(*lattice);
  const auto profile =
      qec::NoiseProfile::core_support(partition, args.pauli, args.erasure);
  util::Rng rng(args.seed);

  if (args.draw) {
    std::printf("%s lattice, distance %d (%d data qubits, %d Core):\n\n%s\n",
                args.rotated ? "rotated" : "planar", args.distance,
                lattice->num_data_qubits(), partition.num_core,
                qec::render_core(*lattice).c_str());
    const auto sample =
        qec::sample_errors(profile, qec::PauliChannel::IndependentXZ, rng);
    std::printf("sampled errors + Z-graph syndromes (*):\n\n%s\n",
                qec::render_errors(*lattice, qec::GraphKind::Z, sample)
                    .c_str());
  }

  obs::FileSession session(args.metrics_out, args.trace_out);
  decoder::TrialRunnerOptions options;
  options.threads = args.threads;
  options.seed = args.seed;
  options.sink = session.sink();
  const auto report = decoder::run_logical_error_trials(
      *lattice, profile, qec::PauliChannel::IndependentXZ, *dec, args.trials,
      options);
  session.finish();
  std::printf("%s decoder, d=%d, pauli=%.3f, erasure=%.3f: logical error "
              "rate %.4f +- %.4f (%lld trials, %d thread(s))\n",
              dec->name().data(), args.distance, args.pauli, args.erasure,
              report.error_rate(), report.error_rate_ci95(),
              static_cast<long long>(report.trials), report.threads);
  return 0;
}

core::FacilityLevel facilities_of(const std::string& name) {
  if (name == "abundant") return core::FacilityLevel::Abundant;
  if (name == "insufficient") return core::FacilityLevel::Insufficient;
  return core::FacilityLevel::Sufficient;
}

core::NetworkDesign design_of(const std::string& name) {
  if (name == "raw") return core::NetworkDesign::Raw;
  if (name == "p1") return core::NetworkDesign::Purification1;
  if (name == "p2") return core::NetworkDesign::Purification2;
  if (name == "p9") return core::NetworkDesign::Purification9;
  return core::NetworkDesign::SurfNet;
}

int run_trial(const Args& args) {
  const auto params = core::make_scenario(
      facilities_of(args.facilities),
      args.fibers == "poor" ? core::ConnectionQuality::Poor
                            : core::ConnectionQuality::Good);
  const int trials = std::max(1, args.trials / 100);
  obs::FileSession session(args.metrics_out, args.trace_out);
  core::RunOptions options;
  options.seed = args.seed;
  options.threads = args.threads;
  options.sink = session.sink();
  const auto agg =
      core::run_trials(params, design_of(args.design), trials, options);
  session.finish();
  std::printf("%s on %s/%s (%d trials): fidelity %.3f +- %.3f, latency "
              "%.1f slots, throughput %.3f\n",
              core::to_string(design_of(args.design)).data(),
              args.facilities.c_str(), args.fibers.c_str(), trials,
              agg.fidelity.mean(), agg.fidelity.ci95(), agg.latency.mean(),
              agg.throughput.mean());
  return 0;
}

int run_topology(const Args& args) {
  const auto params = core::make_scenario(
      facilities_of(args.facilities),
      args.fibers == "poor" ? core::ConnectionQuality::Poor
                            : core::ConnectionQuality::Good);
  util::Rng rng(args.seed);
  const auto topology = netsim::make_random_topology(params.topology, rng);
  if (!args.routes) {
    std::cout << netsim::to_dot(topology);
    return 0;
  }
  const auto requests = netsim::random_requests(
      topology, params.num_requests, params.max_codes_per_request, rng);
  const auto routed = routing::route(
      topology, requests, params.routing, rng,
      routing::RouteOptions{routing::RouteStrategy::Lp});
  std::cout << netsim::to_dot(topology, routed.schedule);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.command == "decode") return run_decode(args);
  if (args.command == "trial") return run_trial(args);
  if (args.command == "topology") return run_topology(args);
  std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
  return 2;
}
