#include "runtime/thread_team.hpp"

#include "util/check.hpp"

namespace mergescale::runtime {

ThreadTeam::ThreadTeam(int size)
    : size_(size),
      finish_barrier_(size),
      region_barrier_(size),
      errors_(static_cast<std::size_t>(size)) {
  MS_CHECK(size >= 1, "thread team needs at least one worker");
  threads_.reserve(static_cast<std::size_t>(size - 1));
  for (int tid = 1; tid < size; ++tid) {
    threads_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    util::MutexLock lock(start_mu_);
    shutting_down_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadTeam::resolve_size(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadTeam::run(const Body& body) {
  MS_CHECK(static_cast<bool>(body), "parallel region body must be callable");
  body_ = &body;
  for (auto& e : errors_) e = nullptr;
  {
    // Release the workers into the region.  The finish barrier of the
    // previous run() keeps the team in lockstep, so no worker can still
    // be executing an older generation here.
    util::MutexLock lock(start_mu_);
    ++start_generation_;
  }
  start_cv_.notify_all();
  try {
    body(0, size_);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  finish_barrier_.wait();  // wait for all workers to finish
  body_ = nullptr;
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t executed = 0;
  for (;;) {
    {
      util::MutexLock lock(start_mu_);
      // Open-coded wait loop: a predicate lambda would read the guarded
      // members from an un-annotated context (see util/sync.hpp).
      while (!shutting_down_ && start_generation_ == executed) {
        start_cv_.wait(lock);
      }
      if (shutting_down_) return;
      executed = start_generation_;
    }
    const Body* body = body_;
    if (body != nullptr) {
      try {
        (*body)(tid, size_);
      } catch (...) {
        errors_[static_cast<std::size_t>(tid)] = std::current_exception();
      }
    }
    finish_barrier_.wait();
  }
}

std::pair<std::size_t, std::size_t> ThreadTeam::partition(std::size_t begin,
                                                          std::size_t end,
                                                          int tid,
                                                          int team_size) {
  MS_CHECK(team_size >= 1, "team size must be positive");
  MS_CHECK(tid >= 0 && tid < team_size, "tid out of range");
  MS_CHECK(begin <= end, "invalid range");
  const std::size_t total = end - begin;
  const std::size_t chunk = total / static_cast<std::size_t>(team_size);
  const std::size_t extra = total % static_cast<std::size_t>(team_size);
  const std::size_t utid = static_cast<std::size_t>(tid);
  const std::size_t lo =
      begin + utid * chunk + std::min(utid, extra);
  const std::size_t hi = lo + chunk + (utid < extra ? 1 : 0);
  return {lo, hi};
}

}  // namespace mergescale::runtime
