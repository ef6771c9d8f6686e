#include "sim/replay.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mergescale::sim {

ReplayResult replay(Machine& machine, const std::vector<Trace>& traces) {
  MS_CHECK(static_cast<int>(traces.size()) <= machine.cores(),
           "more traces than simulated cores");
  ReplayResult result;
  result.core_cycles.assign(traces.size(), 0);
  if (traces.empty()) return result;

  const MemoryStats before = machine.stats();
  const std::uint64_t start = machine.now();
  const int width = machine.config().issue_width;

  struct Cursor {
    std::size_t next = 0;       // next op index
    std::uint64_t clock = 0;    // local core clock (absolute cycles)
    bool done = false;
  };
  std::vector<Cursor> cursors(traces.size());
  for (std::size_t c = 0; c < cursors.size(); ++c) {
    cursors[c].clock = start;
    cursors[c].done = traces[c].empty();
  }

  std::size_t remaining = 0;
  for (const Cursor& cur : cursors) {
    if (!cur.done) ++remaining;
  }

  while (remaining > 0) {
    // Pick the unfinished core with the smallest local clock (ties go to
    // the lowest core id, keeping the replay deterministic).
    std::size_t pick = traces.size();
    for (std::size_t c = 0; c < cursors.size(); ++c) {
      if (cursors[c].done) continue;
      if (pick == traces.size() || cursors[c].clock < cursors[pick].clock) {
        pick = c;
      }
    }

    Cursor& cur = cursors[pick];
    const Op op = traces[pick][cur.next++];
    switch (op.kind()) {
      case OpKind::kCompute: {
        const std::uint64_t n = op.payload();
        cur.clock += (n + static_cast<std::uint64_t>(width) - 1) /
                     static_cast<std::uint64_t>(width);
        result.ops.compute += n;
        break;
      }
      case OpKind::kLoad:
      case OpKind::kStore: {
        const bool is_write = op.kind() == OpKind::kStore;
        const int latency = machine.access(static_cast<int>(pick),
                                           op.payload(), is_write, cur.clock);
        cur.clock += static_cast<std::uint64_t>(latency);
        if (is_write) {
          ++result.ops.stores;
        } else {
          ++result.ops.loads;
        }
        break;
      }
    }
    if (cur.next == traces[pick].size()) {
      cur.done = true;
      --remaining;
    }
  }

  std::uint64_t finish = start;
  for (std::size_t c = 0; c < cursors.size(); ++c) {
    result.core_cycles[c] = cursors[c].clock - start;
    finish = std::max(finish, cursors[c].clock);
  }
  result.cycles = finish - start;
  result.memory = machine.stats() - before;
  machine.advance_to(finish);
  return result;
}

}  // namespace mergescale::sim
