// Quickstart: build a surface code, subject it to Pauli + erasure noise,
// decode with the SurfNet Decoder, and check the logical outcome.
//
//   ./quickstart [distance] [pauli_rate] [erasure_rate]

#include <cstdio>
#include <cstdlib>

#include "decoder/code_trial.h"
#include "decoder/surfnet_decoder.h"
#include "qec/core_support.h"
#include "qec/error_model.h"
#include "qec/lattice.h"
#include "qec/render.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace surfnet;

  const int distance = argc > 1 ? std::atoi(argv[1]) : 5;
  const double pauli = argc > 2 ? std::atof(argv[2]) : 0.04;
  const double erasure = argc > 3 ? std::atof(argv[3]) : 0.10;

  // 1. The lattice: a planar surface code of the requested distance.
  const qec::SurfaceCodeLattice lattice(distance);
  const auto partition = qec::make_core_support(lattice);
  std::printf("distance-%d surface code: %d data qubits "
              "(%d Core + %d Support), %d measure-Z, %d measure-X\n",
              distance, lattice.num_data_qubits(), partition.num_core,
              partition.num_support, lattice.num_measure_z(),
              lattice.num_measure_x());

  // 2. The SurfNet noise setup: Support qubits at full rates, Core halved.
  const auto profile =
      qec::NoiseProfile::core_support(partition, pauli, erasure);

  // 3. Sample one error configuration and decode it on both graphs.
  util::Rng rng(2024);
  const decoder::SurfNetDecoder decoder;
  const auto sample = qec::sample_errors(profile, rng);
  int pauli_errors = 0, erasures = 0;
  for (std::size_t q = 0; q < sample.error.size(); ++q) {
    if (sample.erased[q]) ++erasures;
    else if (sample.error[q] != qec::Pauli::I) ++pauli_errors;
  }
  std::printf("sampled %d Pauli errors and %d erasures\n\n", pauli_errors,
              erasures);
  std::printf("lattice (C = Core cross):\n%s\n",
              qec::render_core(lattice).c_str());
  std::printf("errors (#=erased, letters=Pauli) and Z-syndromes (*):\n%s\n",
              qec::render_errors(lattice, qec::GraphKind::Z, sample).c_str());

  const auto prior = profile.component_error_prob();
  const auto outcome =
      decoder::decode_sample(lattice, sample, prior, decoder);
  std::printf("Z-graph (X-type errors): %s\n",
              outcome.z_graph.success() ? "corrected" : "LOGICAL ERROR");
  std::printf("X-graph (Z-type errors): %s\n",
              outcome.x_graph.success() ? "corrected" : "LOGICAL ERROR");

  // 4. Monte-Carlo logical error rate at these settings.
  const double ler = decoder::logical_error_rate(
      lattice, profile, decoder, 2000, rng);
  std::printf("logical error rate over 2000 trials: %.4f\n", ler);
  return 0;
}
