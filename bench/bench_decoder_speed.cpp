// Decoder runtime scaling (paper Sec. IV-C, Theorem 2 / Corollary 1.1):
// per-decode latency and throughput of the three decoders across code
// distances, on the paper's network noise (pauli 6%, erasure 15%, Core
// rates halved). Expected shape: near-linear scaling for Union-Find and
// the SurfNet Decoder (O(n alpha(n)) growth plus peeling), polynomially
// steeper growth for MWPM (Dijkstra all-pairs + O(n^3) blossom).
//
// Decodes run through the parallel trial runner with per-thread reusable
// workspaces, so the cluster decoders are measured on their allocation-free
// steady-state path. --json emits one record per (decoder, distance) in
// the shared bench envelope — the record schema is stable across commits:
//   {"decoder", "distance", "qubits", "trials", "threads",
//    "trials_per_sec", "ns_per_decode"}
// so saved outputs can be diffed/ratioed to track the perf trajectory
// (scripts/bench_compare.py).
//
// A second tier measures the pure-erasure peeling decoder ("Erasure") on
// erasure-only syndromes (25% erasure, no Pauli noise), where it is
// defined at any distance. Expected shape: near-linear in qubit count.
//
// MWPM's rows at d >= 17 decode a tenth of --trials (at least one): at the
// full count they took nearly all of a run's time. Each row's "trials"
// field reports the count it used.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "decoder/code_trial.h"
#include "decoder/erasure_decoder.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "decoder/union_find.h"
#include "qec/core_support.h"
#include "qec/error_model.h"
#include "qec/lattice.h"
#include "util/table.h"

namespace {

using namespace surfnet;

/// Keep the compiler from discarding a decode result.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// A pool of pregenerated decode inputs for one distance, cycled through by
/// every worker so the measurement covers varied syndromes, not one cached
/// instance.
std::vector<decoder::DecodeInput> make_inputs(
    const qec::SurfaceCodeLattice& lattice, int count, std::uint64_t seed) {
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.06, 0.15);
  const auto prior = profile.component_error_prob();
  util::Rng rng(seed);
  std::vector<decoder::DecodeInput> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto sample = qec::sample_errors(profile, rng);
    inputs.push_back(decoder::make_decode_input(lattice, qec::GraphKind::Z,
                                                sample, prior));
  }
  return inputs;
}

/// Input pool for the pure-erasure tier. Both erasure decoders require the
/// syndrome to be explainable by the erased region alone (they throw on
/// residual Pauli defects), so this pool carries zero Pauli noise.
std::vector<decoder::DecodeInput> make_erasure_inputs(
    const qec::SurfaceCodeLattice& lattice, int count, std::uint64_t seed) {
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.25);
  const auto prior = profile.component_error_prob();
  util::Rng rng(seed);
  std::vector<decoder::DecodeInput> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto sample = qec::sample_errors(profile, rng);
    inputs.push_back(decoder::make_decode_input(lattice, qec::GraphKind::Z,
                                                sample, prior));
  }
  return inputs;
}

struct SpeedRow {
  std::string decoder;
  int distance = 0;
  int qubits = 0;
  std::int64_t trials = 0;
  int threads = 1;
  double trials_per_sec = 0.0;
  double ns_per_decode = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("decoder_speed", argc, argv, {.json = true});
  const int trials = args.resolve_trials(2000, 20000);
  const int large_mwpm_trials = std::max(1, trials / 10);
  if (!args.json())
    std::printf("Decoder speed — %d decodes per point (%d for MWPM at "
                "d >= 17), seed %llu, %d thread(s)\n\n",
                trials, large_mwpm_trials,
                static_cast<unsigned long long>(args.seed()),
                args.threads());

  const decoder::UnionFindDecoder union_find;
  const decoder::SurfNetDecoder surfnet;
  const decoder::MwpmDecoder mwpm;
  struct Case {
    const decoder::Decoder* decoder;
    std::vector<int> distances;
  };
  // MWPM's O(n^3) blossom makes d > 21 impractical at this trial budget.
  const std::vector<Case> cases{
      {&union_find, {5, 9, 13, 17, 21, 25}},
      {&surfnet, {5, 9, 13, 17, 21, 25}},
      {&mwpm, {5, 9, 13, 17, 21}},
  };

  std::vector<SpeedRow> rows;
  const auto measure = [&](const decoder::Decoder& dec, int d,
                           const qec::SurfaceCodeLattice& lattice,
                           const std::vector<decoder::DecodeInput>& inputs) {
    const auto report = decoder::run_trials(
        &dec == &mwpm && d >= 17 ? large_mwpm_trials : trials, args.options(),
        [&]() -> decoder::TrialFn {
          auto ws = std::make_shared<decoder::DecodeWorkspace>();
          return [&, ws](std::int64_t t, util::Rng&) {
            const auto& correction = dec.decode(
                inputs[static_cast<std::size_t>(t) % inputs.size()], *ws);
            escape(correction.data());
            return decoder::TrialOutcome{};
          };
        });
    SpeedRow row;
    row.decoder = std::string(dec.name());
    row.distance = d;
    row.qubits = lattice.num_data_qubits();
    row.trials = report.trials;
    row.threads = report.threads;
    row.trials_per_sec = report.trials_per_sec();
    row.ns_per_decode = report.ns_per_trial();
    rows.push_back(row);
  };

  for (const auto& c : cases) {
    for (const int d : c.distances) {
      const qec::SurfaceCodeLattice lattice(d);
      const auto inputs = make_inputs(lattice, 64, args.seed());
      measure(*c.decoder, d, lattice, inputs);
    }
  }

  // Pure-erasure tier.
  const decoder::ErasureDecoder peeling;
  for (const int d : {5, 9, 13, 17, 21, 25}) {
    const qec::SurfaceCodeLattice lattice(d);
    const auto inputs = make_erasure_inputs(lattice, 64, args.seed());
    measure(peeling, d, lattice, inputs);
  }

  args.finish_observability();
  if (args.json()) {
    std::vector<std::string> records;
    records.reserve(rows.size());
    for (const auto& r : rows) {
      char record[256];
      std::snprintf(record, sizeof(record),
                    "{\"decoder\": \"%s\", \"distance\": %d, \"qubits\": %d, "
                    "\"trials\": %lld, \"threads\": %d, "
                    "\"trials_per_sec\": %.1f, \"ns_per_decode\": %.1f}",
                    r.decoder.c_str(), r.distance, r.qubits,
                    static_cast<long long>(r.trials), r.threads,
                    r.trials_per_sec, r.ns_per_decode);
      records.emplace_back(record);
    }
    args.print_json_envelope(records);
    return 0;
  }

  util::Table table({"decoder", "d", "qubits", "trials/sec", "ns/decode"});
  for (const auto& r : rows)
    table.add_row({r.decoder, std::to_string(r.distance),
                   std::to_string(r.qubits),
                   util::Table::fmt(r.trials_per_sec, 0),
                   util::Table::fmt(r.ns_per_decode, 0)});
  table.print(std::cout);
  std::printf("\nExpected shape: near-linear ns/decode growth in qubit "
              "count for the cluster decoders and for Erasure (peeling) "
              "on the erasure-only tier, polynomially steeper for "
              "MWPM.\n");
  return 0;
}
