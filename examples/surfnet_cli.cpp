// Command-line driver for the SurfNet library.
//
//   surfnet_cli decode   [--distance D] [--pauli P] [--erasure E]
//                        [--decoder uf|surfnet|mwpm]
//                        [--trials N] [--seed S] [--threads T] [--draw]
//   surfnet_cli trial    [--facilities abundant|sufficient|insufficient]
//                        [--fibers good|poor]
//                        [--design surfnet|raw|p1|p2|p9]
//                        [--trials N] [--seed S] [--threads T]
//   surfnet_cli topology [--facilities ...] [--fibers ...] [--seed S]
//                        [--routes]         (emits Graphviz DOT on stdout)
//
// Every value is checked here, before any work starts: numbers must parse
// as a whole token, D in [2, 255], N >= 0, P and E in [0, 1], and names
// must be one of those listed above. Anything else exits 2 with one line
// on stderr that names the flag.
//
// --threads T (decode, trial) runs T worker threads, 0 or less meaning
// all hardware threads; the results do not depend on T.
//
// Observability (decode and trial): --metrics-out FILE writes the metrics
// JSON document, --trace-out FILE streams the JSONL event trace ("-" =
// stdout for either). The trial trace carries the simulator's per-slot
// events (pool levels, segment jumps, decodes, deliveries); decode runs
// report engine counters and timers into the metrics document.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
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
#include "routing/router.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

using namespace surfnet;

/// One accepted spelling of a named option value.
template <typename T>
struct Named {
  const char* name;
  T value;
};

template <typename D>
std::unique_ptr<decoder::Decoder> make_decoder() {
  return std::make_unique<D>();
}
using DecoderFactory = std::unique_ptr<decoder::Decoder> (*)();

constexpr Named<DecoderFactory> kDecoders[] = {
    {"uf", &make_decoder<decoder::UnionFindDecoder>},
    {"surfnet", &make_decoder<decoder::SurfNetDecoder>},
    {"mwpm", &make_decoder<decoder::MwpmDecoder>}};
constexpr Named<core::FacilityLevel> kFacilities[] = {
    {"abundant", core::FacilityLevel::Abundant},
    {"sufficient", core::FacilityLevel::Sufficient},
    {"insufficient", core::FacilityLevel::Insufficient}};
constexpr Named<core::ConnectionQuality> kFibers[] = {
    {"good", core::ConnectionQuality::Good},
    {"poor", core::ConnectionQuality::Poor}};
constexpr Named<core::NetworkDesign> kDesigns[] = {
    {"surfnet", core::NetworkDesign::SurfNet},
    {"raw", core::NetworkDesign::Raw},
    {"p1", core::NetworkDesign::Purification1},
    {"p2", core::NetworkDesign::Purification2},
    {"p9", core::NetworkDesign::Purification9}};

struct Args {
  std::string command;
  int distance = 5;
  double pauli = 0.05;
  double erasure = 0.15;
  Named<DecoderFactory> decoder = kDecoders[1];
  Named<core::FacilityLevel> facilities = kFacilities[1];
  Named<core::ConnectionQuality> fibers = kFibers[0];
  Named<core::NetworkDesign> design = kDesigns[0];
  int trials = 2000;
  std::uint64_t seed = 42;
  int threads = 1;
  bool draw = false;
  bool routes = false;
  std::string metrics_out;
  std::string trace_out;
};

[[noreturn]] void reject(const char* flag, const char* expected,
                         const char* value) {
  std::fprintf(stderr, "surfnet_cli: %s expects %s, got '%s'\n", flag,
               expected, value);
  std::exit(2);
}

/// The largest --distance: far above any distance the repository runs, and
/// its lattice takes about a megabyte.
constexpr int kMaxCliDistance = 255;

int parse_int(const char* flag, const char* text, int min, int max,
              const char* expected) {
  int value = 0;
  if (!util::parse_whole(text, value) || value < min || value > max)
    reject(flag, expected, text);
  return value;
}

double parse_rate(const char* flag, const char* text) {
  double value = 0.0;
  // Written so that NaN fails the range test.
  if (!util::parse_whole(text, value) || !(value >= 0.0 && value <= 1.0))
    reject(flag, "a rate in [0, 1]", text);
  return value;
}

template <typename T, std::size_t N>
Named<T> parse_name(const char* flag, const char* text,
                    const Named<T> (&table)[N]) {
  for (const auto& entry : table)
    if (std::strcmp(entry.name, text) == 0) return entry;
  std::string known = "one of ";
  for (std::size_t i = 0; i < N; ++i)
    known += std::string(i == 0 ? "" : "|") + table[i].name;
  reject(flag, known.c_str(), text);
}

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s decode|trial|topology [options]\n",
                 argv[0]);
    std::exit(2);
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    const auto is = [&](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "surfnet_cli: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (is("--distance"))
      args.distance = parse_int(flag, value(), 2, kMaxCliDistance,
                                "an integer in [2, 255]");
    else if (is("--pauli")) args.pauli = parse_rate(flag, value());
    else if (is("--erasure")) args.erasure = parse_rate(flag, value());
    else if (is("--decoder"))
      args.decoder = parse_name(flag, value(), kDecoders);
    else if (is("--facilities"))
      args.facilities = parse_name(flag, value(), kFacilities);
    else if (is("--fibers")) args.fibers = parse_name(flag, value(), kFibers);
    else if (is("--design")) args.design = parse_name(flag, value(), kDesigns);
    else if (is("--trials"))
      args.trials = parse_int(flag, value(), 0, INT_MAX, "an integer >= 0");
    else if (is("--seed")) {
      const char* v = value();
      if (!util::parse_whole(v, args.seed))
        reject(flag, "an unsigned 64-bit integer", v);
    } else if (is("--threads"))
      args.threads = parse_int(flag, value(), INT_MIN, INT_MAX, "an integer");
    else if (is("--metrics-out")) args.metrics_out = value();
    else if (is("--trace-out")) args.trace_out = value();
    else if (is("--draw")) args.draw = true;
    else if (is("--routes")) args.routes = true;
    else {
      std::fprintf(stderr, "surfnet_cli: unknown option %s\n", flag);
      std::exit(2);
    }
  }
  return args;
}

int run_decode(const Args& args) {
  const qec::SurfaceCodeLattice lattice(args.distance);
  const auto dec = args.decoder.value();

  const auto partition = qec::make_core_support(lattice);
  const auto profile =
      qec::NoiseProfile::core_support(partition, args.pauli, args.erasure);
  util::Rng rng(args.seed);

  if (args.draw) {
    std::printf("planar lattice, distance %d (%d data qubits, %d Core):\n\n"
                "%s\n",
                args.distance, lattice.num_data_qubits(), partition.num_core,
                qec::render_core(lattice).c_str());
    const auto sample = qec::sample_errors(profile, rng);
    std::printf("sampled errors + Z-graph syndromes (*):\n\n%s\n",
                qec::render_errors(lattice, qec::GraphKind::Z, sample)
                    .c_str());
  }

  obs::FileSession session(args.metrics_out, args.trace_out);
  const auto report = decoder::run_logical_error_trials(
      lattice, profile, *dec, args.trials,
      {.seed = args.seed, .threads = args.threads, .sink = session.sink()});
  session.finish();
  std::printf("%s decoder, d=%d, pauli=%.3f, erasure=%.3f: logical error "
              "rate %.4f +- %.4f (%lld trials, %d thread(s))\n",
              dec->name().data(), args.distance, args.pauli, args.erasure,
              report.error_rate(), report.error_rate_ci95(),
              static_cast<long long>(report.trials), report.threads);
  return 0;
}

int run_trial(const Args& args) {
  const auto params =
      core::make_scenario(args.facilities.value, args.fibers.value);
  const int trials = std::max(1, args.trials / 100);
  obs::FileSession session(args.metrics_out, args.trace_out);
  const auto agg = core::run_trials(
      params, args.design.value, trials,
      {.seed = args.seed, .threads = args.threads, .sink = session.sink()});
  session.finish();
  std::printf("%s on %s/%s (%d trials): fidelity %.3f +- %.3f, latency "
              "%.1f slots, throughput %.3f\n",
              core::to_string(args.design.value).data(),
              args.facilities.name, args.fibers.name, trials,
              agg.fidelity.mean(), agg.fidelity.ci95(), agg.latency.mean(),
              agg.throughput.mean());
  return 0;
}

int run_topology(const Args& args) {
  const auto params =
      core::make_scenario(args.facilities.value, args.fibers.value);
  util::Rng rng(args.seed);
  const auto topology = netsim::make_random_topology(params.topology, rng);
  if (!args.routes) {
    std::cout << netsim::to_dot(topology);
    return 0;
  }
  const auto requests = netsim::random_requests(
      topology, params.num_requests, params.max_codes_per_request, rng);
  const auto routed =
      routing::route(topology, requests, params.routing, rng);
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
