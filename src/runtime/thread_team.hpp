#pragma once
// Persistent worker-thread team.  Replaces the pthreads runtime the paper
// used on its Xeon validation machine: a fixed team executes parallel
// regions (SPMD bodies) with a shared barrier, so workloads are written
// exactly like their MineBench counterparts (fork once, barrier-separated
// phases, master executes serial/merging phases).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::runtime {

/// A team of `size` logical workers backed by `size − 1` std::threads
/// plus the calling thread (which participates as tid 0).  Workers park
/// between regions on a condition variable — an idle team burns no CPU,
/// so long-lived teams (e.g. a resident explore engine) are free between
/// batches.  Inside a region the barriers stay spin-based (phases are
/// short and compute-bound).  run() has fork/join semantics.
class ThreadTeam {
 public:
  /// Body of a parallel region: invoked once per worker with
  /// (tid, team_size).
  using Body = std::function<void(int tid, int team_size)>;

  /// Creates a team of `size` >= 1 workers.
  explicit ThreadTeam(int size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// The team size a `--threads`-style request means: `requested` when
  /// positive, else the hardware concurrency (1 when unknown).
  static int resolve_size(int requested);

  /// Number of workers (including the master).
  int size() const noexcept { return size_; }

  /// Runs `body` on every worker and returns when all have finished.
  /// Exceptions thrown by any worker are rethrown on the caller (first
  /// one wins; the region still joins fully).
  void run(const Body& body);

  /// Barrier across the team, callable from inside a region body.
  void barrier() noexcept { region_barrier_.wait(); }

  /// Static block partition of [begin, end) for worker `tid`: returns
  /// {chunk_begin, chunk_end}.  Remainder elements go to the low tids so
  /// chunk sizes differ by at most one.
  static std::pair<std::size_t, std::size_t> partition(std::size_t begin,
                                                       std::size_t end,
                                                       int tid,
                                                       int team_size);

 private:
  void worker_loop(int tid);

  const int size_;
  std::vector<std::thread> threads_;
  // Parking start gate: run() bumps the generation and notifies; workers
  // wake when they observe a generation they have not executed yet.
  util::Mutex start_mu_;
  util::CondVar start_cv_;
  std::uint64_t start_generation_ MS_GUARDED_BY(start_mu_) = 0;
  SpinBarrier finish_barrier_;  // collects workers at region end
  SpinBarrier region_barrier_;  // user-visible barrier()
  // body_ and errors_ are NOT mutex-guarded: run() writes them before
  // releasing the workers (the generation bump under start_mu_ publishes
  // body_) and reads them only after finish_barrier_ collects every
  // worker, so all access is ordered by the start-gate/barrier protocol
  // — a discipline the static analysis cannot express, which is why the
  // members carry no annotation (TSan checks the protocol instead).
  const Body* body_ = nullptr;
  std::vector<std::exception_ptr> errors_;
  bool shutting_down_ MS_GUARDED_BY(start_mu_) = false;
};

}  // namespace mergescale::runtime
