#include "sim/replay.hpp"

#include <gtest/gtest.h>

namespace mergescale::sim {
namespace {

Machine make_machine(int cores, bool contention = false) {
  MachineConfig config = MachineConfig::icpp2011(cores);
  config.model_bus_contention = contention;
  return Machine(config);
}

TEST(Replay, EmptyTraceListIsZeroCycles) {
  Machine m = make_machine(2);
  const ReplayResult r = replay(m, {});
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_TRUE(r.core_cycles.empty());
}

TEST(Replay, ComputeOnlyTraceTimedByIssueWidth) {
  Machine m = make_machine(1);
  Trace trace{Op::compute(100)};
  const ReplayResult r = replay(m, {trace});
  // 100 ops at width 4 = 25 cycles.
  EXPECT_EQ(r.cycles, 25u);
  EXPECT_EQ(r.ops.compute, 100u);
}

TEST(Replay, ComputeRoundsUpPartialGroups) {
  Machine m = make_machine(1);
  Trace trace{Op::compute(5)};
  EXPECT_EQ(replay(m, {trace}).cycles, 2u);  // ceil(5/4)
}

TEST(Replay, MemoryOpsUseMachineLatency) {
  Machine m = make_machine(1);
  Trace trace{Op::load(0x1000), Op::load(0x1008)};
  const ReplayResult r = replay(m, {trace});
  // Cold miss + L1 hit.
  const auto& c = m.config();
  EXPECT_EQ(r.cycles, static_cast<std::uint64_t>(
                          c.l1_hit_latency + c.memory_latency +
                          c.l1_hit_latency));
  EXPECT_EQ(r.ops.loads, 2u);
  EXPECT_EQ(r.memory.l1_misses, 1u);
  EXPECT_EQ(r.memory.l1_hits, 1u);
}

TEST(Replay, PhaseDurationIsMaxOverCores) {
  Machine m = make_machine(2);
  std::vector<Trace> traces(2);
  traces[0] = {Op::compute(400)};  // 100 cycles
  traces[1] = {Op::compute(40)};   // 10 cycles
  const ReplayResult r = replay(m, traces);
  EXPECT_EQ(r.cycles, 100u);
  EXPECT_EQ(r.core_cycles[0], 100u);
  EXPECT_EQ(r.core_cycles[1], 10u);
}

TEST(Replay, BalancedTracesScale) {
  // The same total work split across 4 cores takes ~1/4 the time.
  Machine m1 = make_machine(1);
  Trace whole{Op::compute(4000)};
  const std::uint64_t serial_cycles = replay(m1, {whole}).cycles;

  Machine m4 = make_machine(4);
  std::vector<Trace> quarters(4, Trace{Op::compute(1000)});
  const std::uint64_t parallel_cycles = replay(m4, quarters).cycles;
  EXPECT_EQ(parallel_cycles, serial_cycles / 4);
}

TEST(Replay, InterleavingSeesCoherenceTraffic) {
  // Two cores write the same line alternately: replay must generate
  // invalidations/cache-to-cache transfers, which a per-core sequential
  // replay would miss.
  Machine m = make_machine(2);
  std::vector<Trace> traces(2);
  for (int i = 0; i < 50; ++i) {
    traces[0].push_back(Op::store(0x1000));
    traces[0].push_back(Op::compute(40));
    traces[1].push_back(Op::store(0x1000));
    traces[1].push_back(Op::compute(40));
  }
  const ReplayResult r = replay(m, traces);
  EXPECT_GT(r.memory.invalidations + r.memory.cache_to_cache, 20u);
}

TEST(Replay, MachineClockAdvancesAcrossPhases) {
  Machine m = make_machine(1);
  EXPECT_EQ(m.now(), 0u);
  Trace t1{Op::compute(40)};
  replay(m, {t1});
  EXPECT_EQ(m.now(), 10u);
  Trace t2{Op::compute(40)};
  replay(m, {t2});
  EXPECT_EQ(m.now(), 20u);
}

TEST(Replay, WarmCachesCarryBetweenPhases) {
  Machine m = make_machine(1);
  Trace t1{Op::load(0x1000)};
  replay(m, {t1});  // cold miss
  Trace t2{Op::load(0x1000)};
  const ReplayResult r = replay(m, {t2});  // warm hit
  EXPECT_EQ(r.cycles, static_cast<std::uint64_t>(m.config().l1_hit_latency));
}

TEST(Replay, RejectsTooManyTraces) {
  Machine m = make_machine(2);
  std::vector<Trace> traces(3, Trace{Op::compute(4)});
  EXPECT_THROW(replay(m, traces), std::invalid_argument);
}

TEST(Replay, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m = make_machine(4, /*contention=*/true);
    std::vector<Trace> traces(4);
    for (int c = 0; c < 4; ++c) {
      for (int i = 0; i < 100; ++i) {
        traces[c].push_back(Op::load(0x1000 + (i % 8) * 64));
        traces[c].push_back(Op::compute(10 + c));
        traces[c].push_back(Op::store(0x8000 + c * 64));
      }
    }
    return replay(m, traces).cycles;
  };
  const std::uint64_t first = run_once();
  EXPECT_EQ(run_once(), first);
  EXPECT_GT(first, 0u);
}

}  // namespace
}  // namespace mergescale::sim
