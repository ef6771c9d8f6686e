#pragma once
// Exploration-as-a-service: a TCP query server over a recorded run.
// Start-up opens the run's columnar archive (archive.msca) and decodes
// only the records it does not hold (serve/served_run); clients then
// ask `best` / `topk` / `pareto` / `eval` / `stats` over the
// newline-delimited protocol (serve/protocol).  Every answer comes from
// the memory-mapped archive plus that small in-memory delta — `eval`
// looks its design point up in the archive, then in the delta, and
// falls back to budgeted live evaluation through core::evaluate, every
// live answer appended to the run log so the next server start (or any
// explore_cli --resume) inherits it.
//
// Each connection gets one session thread, and that thread runs its own
// queries: there is no admission limit in front of execution.  Queries
// synchronize only on the data they touch — a reader lock for the
// delta copy, one mutex around a live evaluation — so a limit below the
// client count could only idle clients the archive could have answered.

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "search/run_log.hpp"
#include "serve/served_run.hpp"
#include "serve/protocol.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::serve {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via port(), or point `port_file` somewhere for scripts).
  int port = 0;
  /// When non-empty, the bound port is written here (write + rename, so
  /// a polling client never reads a partial file).
  std::string port_file;
  /// Live `eval` evaluations (points neither the archive nor the delta
  /// holds) this server may run; once spent, further misses get an ERR
  /// instead of compute time.
  std::uint64_t live_budget = 100000;
};

class QueryServer {
 public:
  /// Serves `run` from `records` (see open_served_records); `log`, when
  /// non-null, receives every live evaluation (flushed per record) and
  /// must outlive the server.
  QueryServer(ServedRun run, ServedRecords records, search::RunLog* log,
              ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the acceptor thread.  Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();

  /// Stops accepting, closes every session, joins all threads.  Safe to
  /// call twice; the destructor calls it.
  void stop();

  /// Bound port (valid after start()).
  int port() const noexcept { return port_; }

  /// Parses and executes one request line exactly as a session would,
  /// returning the full framed reply.  `kind_out`
  /// (optional) reports the parsed query kind, kQuit included; callers
  /// without a socket use this to drive the server in-process.
  std::string execute_line(const std::string& line,
                           QueryKind* kind_out = nullptr);

  /// Queries answered (any reply, ERR included) since start.
  std::uint64_t queries_answered() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Live evaluations spent against ServerOptions::live_budget.
  std::uint64_t live_evals() const noexcept {
    return live_used_.load(std::memory_order_relaxed);
  }

  /// True once a run-log append failed: the server keeps answering
  /// archive-backed queries but sheds `eval` misses (typed ERR) instead
  /// of producing live results it cannot make durable.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// eval misses shed because the live budget was exhausted / the
  /// server was degraded.
  std::uint64_t shed_busy() const noexcept {
    return shed_busy_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_degraded() const noexcept {
    return shed_degraded_.load(std::memory_order_relaxed);
  }

  /// Resolves eval coordinates against the run's scenario into a job
  /// through explore::find_label and explore::point_job, the lookup and
  /// builder resume and expansion use; throws std::invalid_argument with
  /// a client-facing message.  Reads only immutable state — no lock.
  explore::EvalJob resolve_eval(const Query& query) const;

 private:
  /// Executes a parsed query into a framed reply.
  std::string execute(const Query& query);
  std::string answer_best() const MS_EXCLUDES(delta_mu_);
  std::string answer_topk(std::size_t k) const MS_EXCLUDES(delta_mu_);
  std::string answer_pareto(explore::CostMetric metric) const
      MS_EXCLUDES(delta_mu_);
  std::string answer_eval(const Query& query)
      MS_EXCLUDES(live_mu_, delta_mu_);
  /// The delta's record for `key`, copied out under a reader lock.
  std::optional<explore::EvalResult> find_delta(
      const search::DesignKey& key) const MS_EXCLUDES(delta_mu_);
  std::string answer_stats() const MS_EXCLUDES(delta_mu_);
  void acceptor_main() MS_EXCLUDES(sessions_mu_);
  void session_main(int fd, std::size_t slot) MS_EXCLUDES(sessions_mu_);

  /// Immutable after construction: resolve_eval and answer_stats read
  /// it without a lock.
  const ServedRun run_;
  /// explore::comm_laws(run_.spec), built once for resolve_eval.
  const std::vector<core::GrowthFunction> comm_laws_;
  search::RunLog* log_;
  ServerOptions options_;

  /// Zone-map query engine over the archived records (search/archive).
  /// Immutable; its query methods are const and internally thread-safe,
  /// so every query runs them without holding delta_mu_.
  const search::ArchiveReader archive_;
  /// Guards the delta (readers: every query; writer: the live-eval
  /// append path).  best/topk/pareto copy the delta out under a reader
  /// lock and render OUTSIDE it — the lock is held for a copy, never
  /// for an archive scan or a table render.
  mutable util::SharedMutex delta_mu_;
  /// Records the archive does not hold — decoded at start-up, then every
  /// live evaluation — folded into every answer on top of archive_.  A
  /// deque, so delta_keys_' views into its records stay valid as it
  /// grows.
  std::deque<explore::EvalResult> delta_ MS_GUARDED_BY(delta_mu_);
  std::unordered_map<search::DesignKey, const explore::EvalResult*,
                     search::DesignKeyHash>
      delta_keys_ MS_GUARDED_BY(delta_mu_);
  /// Serializes live evaluations: re-check the delta, spend budget,
  /// append to log + delta as one step, so a racing duplicate miss
  /// cannot double-append or double-spend.
  util::Mutex live_mu_;
  std::atomic<std::uint64_t> live_used_{0};
  std::atomic<std::size_t> next_index_{0};
  /// Sticky archive-only mode: set when a run-log append throws.  The
  /// log's own errors are sticky too (a dead writer thread / full
  /// disk), so there is nothing to probe for recovery — degradation
  /// lasts until restart.
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> eval_hits_{0};  ///< evals the archive/delta held
  std::atomic<std::uint64_t> shed_busy_{0};
  std::atomic<std::uint64_t> shed_degraded_{0};

  std::atomic<std::uint64_t> completed_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  /// Session registry: fds are shut down at stop() to unblock recv(),
  /// then every thread is joined.  A closing session marks its slot's
  /// fd -1 as its last act under sessions_mu_; the acceptor reaps such
  /// slots on each accept — moves their threads out, joins them outside
  /// the lock, and reuses a slot — so the slots track the connections
  /// open at once, not every connection the server ever accepted.
  struct Session {
    int fd = -1;
    std::thread thread;
  };
  util::Mutex sessions_mu_;
  std::vector<Session> sessions_ MS_GUARDED_BY(sessions_mu_);
};

}  // namespace mergescale::serve
