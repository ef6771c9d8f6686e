#pragma once
// The ordered block pipeline behind every stage that turns a long input
// into an ordered output on a thread team: the report writers and
// `--dump` (explore/report), and the exhaustive sweep, which evaluates
// blocks of flat indices and writes their log frames
// (search::run_sweep).  Workers produce numbered blocks into a ring of
// reused slots; the calling thread consumes them strictly in block
// order and produces blocks itself whenever the next one is not ready,
// so the consumer's serial work (a stream write, a log write) overlaps
// the parallel production instead of following it.

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "runtime/thread_team.hpp"
#include "util/check.hpp"

namespace mergescale::runtime {

/// Runs one parallel region on `team` that produces blocks 0 .. blocks-1
/// and consumes them in order.  Any worker claims the lowest unclaimed
/// block and calls `produce(slot, block, tid)` on its slot of `ring`,
/// block b using ring[b % ring.size()] (`tid` picks the worker's own
/// scratch).  The calling thread (tid 0) calls
/// `consume(slot, block)` on each produced block in block order, and
/// produces a block itself whenever the next one is not ready.  A block
/// is claimed only once the block ring.size() before it is consumed, so
/// a slot is never produced into while it waits to be consumed and
/// memory stays at the ring.  A team of one is the sequential
/// produce-consume loop.
///
/// Every consume() happens-after the produce() of its block, and every
/// produce() into a slot happens-after the consume() of its previous
/// block (sequentially consistent atomics order both).  A throwing
/// callback stops every worker; the region joins and ThreadTeam::run
/// rethrows it.  `team` must not be running a region already.
template <typename Slot, typename Produce, typename Consume>
void run_ordered_blocks(ThreadTeam& team, std::size_t blocks,
                        std::vector<Slot>& ring, Produce produce,
                        Consume consume) {
  MS_CHECK(!ring.empty(), "an ordered block pipeline needs a ring slot");
  std::vector<std::atomic<bool>> ready(ring.size());  // produced, unconsumed
  std::atomic<std::size_t> claimed{0};   // blocks handed to a producer
  std::atomic<std::size_t> consumed{0};  // blocks consumed, in order
  std::atomic<bool> failed{false};       // a callback threw: all stop

  // Claims the next block and produces it, if its slot is free.  False
  // when no block could be claimed.
  const auto produce_next = [&](int tid) {
    std::size_t b = claimed.load();
    if (b >= blocks || b >= consumed.load() + ring.size()) return false;
    // A lost race only means another worker took block b.
    if (!claimed.compare_exchange_strong(b, b + 1)) return true;
    produce(ring[b % ring.size()], b, tid);
    ready[b % ring.size()].store(true);
    return true;
  };

  team.run([&](int tid, int /*team_size*/) {
    try {
      while (!failed.load()) {
        if (tid == 0) {
          const std::size_t next = consumed.load();
          if (next == blocks) return;
          if (ready[next % ring.size()].load()) {
            consume(ring[next % ring.size()], next);
            ready[next % ring.size()].store(false);
            consumed.store(next + 1);
            continue;
          }
        } else if (claimed.load() >= blocks) {
          return;
        }
        if (!produce_next(tid)) std::this_thread::yield();
      }
    } catch (...) {
      failed.store(true);
      throw;
    }
  });
}

}  // namespace mergescale::runtime
