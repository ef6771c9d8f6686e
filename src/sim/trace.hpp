#pragma once
// Operation traces.  A workload kernel instantiated with the
// RecordingExecutor emits one Op per dynamic memory access plus
// run-length-encoded compute operations; the replay engine then plays the
// per-core traces through the timing model.  Ops are packed into 8 bytes
// so full-size phases (tens of millions of ops) stay memory-friendly.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace mergescale::sim {

/// Dynamic operation kinds.
enum class OpKind : std::uint8_t {
  kLoad = 0,     ///< data load; payload = byte address
  kStore = 1,    ///< data store; payload = byte address
  kCompute = 2,  ///< payload = number of ALU/FPU operations (RLE)
};

/// One dynamic operation, packed as kind:2 | payload:62.
struct Op {
  std::uint64_t bits = 0;

  static Op load(std::uint64_t addr) { return make(OpKind::kLoad, addr); }
  static Op store(std::uint64_t addr) { return make(OpKind::kStore, addr); }
  static Op compute(std::uint64_t count) {
    return make(OpKind::kCompute, count);
  }

  OpKind kind() const noexcept { return static_cast<OpKind>(bits >> 62); }
  std::uint64_t payload() const noexcept {
    return bits & ((1ULL << 62) - 1);
  }

  friend bool operator==(const Op&, const Op&) = default;

 private:
  static Op make(OpKind kind, std::uint64_t payload) {
    MS_CHECK(payload < (1ULL << 62), "op payload exceeds 62 bits");
    return Op{static_cast<std::uint64_t>(kind) << 62 | payload};
  }
};

/// A dynamic operation stream of one core for one phase.
using Trace = std::vector<Op>;

/// Gives the host buffers a simulated kernel touches one canonical
/// layout: each registered buffer starts on its own cache line, packed
/// in registration order above every host address.  A trace recorded
/// through the map names the same addresses whatever the heap handed
/// out, so the simulated caches see the same line splits and set
/// conflicts in every run and build.  Addresses outside every registered
/// buffer pass through unchanged.
class AddressMap {
 public:
  /// Registers the `bytes` bytes at `p` as the next buffer.  A registered
  /// buffer that overlaps it has been freed, and its region is dropped,
  /// so the heap reusing a freed range cannot mistranslate a new buffer.
  void add(const void* p, std::size_t bytes) {
    if (bytes == 0) return;
    const auto begin = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t end = begin + bytes;
    std::erase_if(regions_, [&](const Region& region) {
      return region.begin < end && begin < region.end;
    });
    regions_.push_back({begin, end, next_});
    next_ += (bytes + kLine - 1) / kLine * kLine;
  }

  template <typename T>
  void add(std::span<T> buffer) {
    add(buffer.data(), buffer.size_bytes());
  }

  /// The canonical address of host address `addr`.
  std::uint64_t translate(std::uintptr_t addr) const {
    for (const Region& region : regions_) {
      if (addr >= region.begin && addr < region.end) {
        return region.base + (addr - region.begin);
      }
    }
    return addr;
  }

 private:
  /// Buffer alignment: MachineConfig's cache line size.
  static constexpr std::uint64_t kLine = 64;
  /// Above the 47-bit user address space, below Op's 62-bit payload.
  static constexpr std::uint64_t kBase = std::uint64_t{1} << 48;

  struct Region {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::uint64_t base = 0;
  };
  std::vector<Region> regions_;
  std::uint64_t next_ = kBase;
};

/// Recording executor: satisfies the runtime::Executor interface (see
/// runtime/executor.hpp) by appending operations to a trace.  Compute
/// operations are run-length-coalesced on the fly.
class RecordingExecutor {
 public:
  /// Records into `trace` (not owned; must outlive the executor), with
  /// addresses through `map` when one is given (not owned either).
  explicit RecordingExecutor(Trace& trace, const AddressMap* map = nullptr)
      : trace_(&trace), map_(map) {}

  /// Records a load of the line containing `p`.
  void load(const void* p) {
    flush_compute();
    trace_->push_back(Op::load(address(p)));
  }
  /// Records a store to the line containing `p`.
  void store(const void* p) {
    flush_compute();
    trace_->push_back(Op::store(address(p)));
  }
  /// Records `n` arithmetic operations.
  void compute(std::uint64_t n) { pending_compute_ += n; }

  /// Flushes any coalesced compute ops (called automatically around
  /// memory operations; call once at end of kernel).
  void flush_compute() {
    if (pending_compute_ > 0) {
      trace_->push_back(Op::compute(pending_compute_));
      pending_compute_ = 0;
    }
  }

 private:
  std::uint64_t address(const void* p) const {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    return map_ != nullptr ? map_->translate(addr) : addr;
  }

  Trace* trace_;
  const AddressMap* map_;
  std::uint64_t pending_compute_ = 0;
};

/// Total operation counts of a trace (for sanity checks and reports).
struct TraceSummary {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t compute = 0;

  std::uint64_t memory_ops() const noexcept { return loads + stores; }
};

/// Computes the summary of a trace.
TraceSummary summarize(const Trace& trace);

}  // namespace mergescale::sim
