#pragma once
// Executor abstraction: the mechanism that lets one kernel source run
// natively (real-hardware validation, paper §V-B) and on the timing
// simulator (parameter extraction, §IV).
//
// Kernels — the merging strategies in reduction.hpp and every workload
// phase — are templates over an Executor `E` and annotate their own
// dynamic behaviour: `e.load(p)` / `e.store(p)` before touching memory
// that matters for timing, `e.compute(n)` for arithmetic work.  With
// NativeExecutor the annotations compile to nothing; with
// CountingExecutor they count abstract operations (machine-independent
// work measurement); with sim::RecordingExecutor they emit a trace for
// the timing model.  The kernels always perform the real computation, so
// results are identical across executors.

#include <concepts>
#include <cstdint>

namespace mergescale::runtime {

/// Structural requirements on an executor.
template <typename E>
concept Executor = requires(E e, const void* p, std::uint64_t n) {
  { e.load(p) };
  { e.store(p) };
  { e.compute(n) };
};

/// No-op executor: kernels run at full native speed.
struct NativeExecutor {
  void load(const void*) noexcept {}
  void store(const void*) noexcept {}
  void compute(std::uint64_t) noexcept {}
};

/// Counts annotated operations; used by the native drivers to report
/// machine-independent per-phase work alongside wall-clock time.
struct CountingExecutor {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ops = 0;

  void load(const void*) noexcept { ++loads; }
  void store(const void*) noexcept { ++stores; }
  void compute(std::uint64_t n) noexcept { ops += n; }

  /// Total annotated events (memory + arithmetic).
  std::uint64_t total() const noexcept { return loads + stores + ops; }
};

static_assert(Executor<NativeExecutor>);
static_assert(Executor<CountingExecutor>);

}  // namespace mergescale::runtime
