// Verifies the headline perf property: once a trial workspace is warm, the
// sample → decode → evaluate pipeline performs ZERO heap allocations per
// trial, and the network simulator's per-correction decode (rates into the
// run's noise profile, sample, decode both graphs, evaluate) performs none
// per correction, and an obs::ScopedTimer with no registry performs none.
// Global operator new/delete are overridden with a counting shim; the
// counter is armed only after a warm-up pass over the SAME counter-seeded
// sequence, so the replay places identical demands on every buffer.
//
// This test lives in its own binary: the replacement operators are global
// and would skew allocation behaviour of unrelated tests.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "decoder/code_trial.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "decoder/union_find.h"
#include "netsim/sim_internal.h"
#include "obs/metrics.h"
#include "qec/core_support.h"
#include "qec/lattice.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_allocations{0};

void count_allocation() {
  if (g_armed.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// GCC pairs the replaced operator delete's std::free with the standard
// operator new and reports -Wmismatched-new-delete; the pairing is in fact
// consistent (both operators are replaced malloc/free shims).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace surfnet::decoder {
namespace {

/// Run trials [0, n) of the counter-seeded stream through one workspace.
void run_stream(const qec::CodeLattice& lattice,
                const qec::NoiseProfile& profile,
                const std::vector<double>& prior, const Decoder& decoder,
                std::uint64_t base_seed, int n, CodeTrialWorkspace& ws,
                std::int64_t* failures) {
  for (int t = 0; t < n; ++t) {
    util::Rng rng(trial_seed(base_seed, static_cast<std::uint64_t>(t)));
    qec::sample_errors(profile, rng, ws.sample);
    const auto result = decode_sample(lattice, ws.sample, prior, decoder, ws);
    if (failures && !result.success()) ++*failures;
  }
}

void expect_zero_steady_state_allocations(const Decoder& decoder) {
  const qec::SurfaceCodeLattice lattice(9);
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.07, 0.15);
  const auto prior = profile.component_error_prob();
  const std::uint64_t seed = 20240607;
  const int trials = 200;

  CodeTrialWorkspace ws;
  // Warm-up: grow every buffer to the demands of the exact trial sequence.
  run_stream(lattice, profile, prior, decoder, seed, trials, ws, nullptr);

  // Replay the identical sequence with the counter armed.
  std::int64_t failures = 0;
  g_allocations.store(0);
  g_armed.store(true);
  run_stream(lattice, profile, prior, decoder, seed, trials, ws, &failures);
  g_armed.store(false);

  EXPECT_EQ(g_allocations.load(), 0)
      << decoder.name() << ": steady-state trials allocated";
  // Sanity: the replay did real decoding work at these noise rates.
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, trials);
}

TEST(ZeroAlloc, UnionFindSteadyState) {
  expect_zero_steady_state_allocations(UnionFindDecoder());
}

TEST(ZeroAlloc, SurfNetDecoderSteadyState) {
  expect_zero_steady_state_allocations(SurfNetDecoder());
}

/// Corrections [0, n) of a fixed sequence through one run workspace:
/// codes of two distances, SurfNet and Raw plans, varying accumulated
/// noise, each on its own counter-seeded stream.
void run_corrections(const std::vector<netsim::detail::RequestPlan>& plans,
                     const netsim::SimulationParams& params,
                     const Decoder& decoder, int n,
                     netsim::detail::CorrectionWorkspace& ws,
                     std::int64_t* failures) {
  for (int i = 0; i < n; ++i) {
    netsim::detail::ActiveCode code;
    code.acc_support_mu = 1.0 + 0.25 * (i % 5);
    code.acc_core_mu = 0.5 + 0.5 * (i % 3);
    code.acc_support_hops = 1 + i % 3;
    code.jumps_since_ec = i % 4;
    util::Rng rng(trial_seed(20240607, static_cast<std::uint64_t>(i)));
    netsim::detail::run_correction(
        plans[static_cast<std::size_t>(i) % plans.size()], code, i,
        /*node=*/0, /*is_ec=*/true, params, decoder, ws, rng);
    if (failures && code.corrupted) ++*failures;
  }
}

void expect_zero_allocations_per_correction(const Decoder& decoder) {
  const netsim::detail::CodeGeometry d9(9);
  const netsim::detail::CodeGeometry d13(13);
  const netsim::ScheduledRequest request;
  std::vector<netsim::detail::RequestPlan> plans(3);
  plans[0].geometry = &d9;
  plans[1].geometry = &d13;
  plans[2].geometry = &d9;
  plans[2].raw = true;  // no Core path: every qubit rides the plain channel
  for (auto& plan : plans) plan.sched = &request;
  const netsim::SimulationParams params;
  const int corrections = 150;

  netsim::detail::CorrectionWorkspace ws;
  run_corrections(plans, params, decoder, corrections, ws, nullptr);

  std::int64_t failures = 0;
  g_allocations.store(0);
  g_armed.store(true);
  run_corrections(plans, params, decoder, corrections, ws, &failures);
  g_armed.store(false);

  EXPECT_EQ(g_allocations.load(), 0)
      << decoder.name() << ": steady-state corrections allocated";
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, corrections);
}

TEST(ZeroAlloc, UnionFindPerCorrection) {
  expect_zero_allocations_per_correction(UnionFindDecoder());
}

TEST(ZeroAlloc, SurfNetDecoderPerCorrection) {
  expect_zero_allocations_per_correction(SurfNetDecoder());
}

TEST(ZeroAlloc, ScopedTimerWithoutRegistry) {
  // LpSolver::solve opens a "lp.solve_seconds" timer on every solve, sink
  // or not. The name is 16 characters, one more than a std::string holds
  // without a heap buffer, so a timer that copied it allocated each time.
  g_allocations.store(0);
  g_armed.store(true);
  { const obs::ScopedTimer timer(nullptr, "lp.solve_seconds"); }
  g_armed.store(false);
  EXPECT_EQ(g_allocations.load(), 0);
}

TEST(ZeroAlloc, CountingShimIsLive) {
  // Guard against the shim silently not being linked in: an armed heap
  // allocation must be observed.
  g_allocations.store(0);
  g_armed.store(true);
  auto* p = new std::vector<int>(1024);
  g_armed.store(false);
  delete p;
  EXPECT_GT(g_allocations.load(), 0);
}

}  // namespace
}  // namespace surfnet::decoder
