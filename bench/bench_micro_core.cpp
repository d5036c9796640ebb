// Micro-benchmarks of the simulator substrate (google-benchmark):
// event-queue throughput, channel math, full-stack simulated-seconds/s.

#include <benchmark/benchmark.h>

#include "channel/absorption.hpp"
#include "channel/noise.hpp"
#include "channel/propagation.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace aquamac;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // aquamac-lint: allow(rng-root) -- bench-local stream; feeds no simulation run.
  Rng rng{7};
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(Time::from_ns(static_cast<std::int64_t>(rng.below(1'000'000'000))), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1'000)->Arg(10'000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    std::vector<EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(queue.push(Time::from_ns(static_cast<std::int64_t>(i)), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) queue.cancel(handles[i]);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10'000);

void BM_ThorpAbsorption(benchmark::State& state) {
  double f = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(thorp_absorption_db_per_km(f));
    f = f < 50.0 ? f + 0.01 : 0.5;
  }
}
BENCHMARK(BM_ThorpAbsorption);

void BM_NoisePsd(benchmark::State& state) {
  const NoiseParams params{.shipping = 0.5, .wind_mps = 5.0};
  double f = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ambient_noise_psd_db(f, params));
    f = f < 50.0 ? f + 0.01 : 1.0;
  }
}
BENCHMARK(BM_NoisePsd);

void BM_BellhopLiteEigenray(benchmark::State& state) {
  const BellhopLitePropagation prop{std::make_shared<LinearProfile>(1'500.0, 0.017)};
  // aquamac-lint: allow(rng-root) -- bench-local stream; feeds no simulation run.
  Rng rng{11};
  for (auto _ : state) {
    const Vec3 a{rng.uniform(0, 4'000), rng.uniform(0, 4'000), rng.uniform(0, 4'000)};
    const Vec3 b{rng.uniform(0, 4'000), rng.uniform(0, 4'000), rng.uniform(0, 4'000)};
    benchmark::DoNotOptimize(prop.compute(a, b, 10.0));
  }
}
BENCHMARK(BM_BellhopLiteEigenray);

void BM_FullStackSimulation(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig config = small_test_scenario();
    config.mac = MacKind::kEwMac;
    benchmark::DoNotOptimize(run_scenario(config));
  }
  // 65 simulated seconds per iteration (60 s traffic + 5 s hello).
  state.counters["sim_s_per_s"] =
      benchmark::Counter(65.0 * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullStackSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
