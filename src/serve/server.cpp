#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/design_space.hpp"
#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "noc/topology.hpp"
#include "util/format.hpp"

namespace mergescale::serve {

namespace {

/// Shortest exact-enough value rendering (matches report's table cells).
std::string compact(double value) { return util::format_general(value, 9); }

std::string sys_error(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

QueryServer::QueryServer(ServedRun run, ServedRecords records,
                         search::RunLog* log, ServerOptions options)
    : run_(std::move(run)),
      comm_laws_(explore::comm_laws(run_.spec)),
      log_(log),
      options_(std::move(options)),
      archive_(std::move(records.archive)) {
  util::WriterLock lock(delta_mu_);
  for (explore::EvalResult& record : records.delta) {
    delta_.push_back(std::move(record));
    delta_keys_.emplace(search::DesignKey::of(delta_.back()), &delta_.back());
  }
  next_index_.store(
      static_cast<std::size_t>(archive_.row_count()) + delta_.size(),
      std::memory_order_relaxed);
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error(sys_error("serve: socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  // Loopback only: the server trusts its archive, not the network.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string error = sys_error("serve: bind 127.0.0.1");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(error);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string error = sys_error("serve: listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(error);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::runtime_error(sys_error("serve: getsockname"));
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (!options_.port_file.empty()) {
    // Write + rename: a script polling the file never reads a torn port.
    const std::string tmp = options_.port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << port_ << "\n";
      out.flush();
      if (!out.good()) {
        throw std::runtime_error("serve: cannot write " + tmp);
      }
    }
    std::filesystem::rename(tmp, options_.port_file);
  }

  acceptor_ = std::thread(&QueryServer::acceptor_main, this);
}

void QueryServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    util::MutexLock lock(sessions_mu_);
    for (const Session& session : sessions_) {
      if (session.fd >= 0) ::shutdown(session.fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  // The acceptor is gone, so the registry is final.  Move the threads
  // out under the lock (the slots stay: a session's last act is to
  // retake sessions_mu_ and clear its fd slot), then join lock-free —
  // joining while holding the lock would deadlock against that.
  std::vector<std::thread> to_join;
  {
    util::MutexLock lock(sessions_mu_);
    for (Session& session : sessions_) {
      to_join.push_back(std::move(session.thread));
    }
  }
  for (std::thread& thread : to_join) {
    if (thread.joinable()) thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void QueryServer::acceptor_main() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (stopping_.load() || (errno != EINTR && errno != ECONNABORTED)) {
        break;
      }
      continue;
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Reap finished sessions (fd -1) and reuse the first one's slot; the
    // joins run outside the lock, which a finished session never takes
    // again.
    std::vector<std::thread> finished;
    {
      util::MutexLock lock(sessions_mu_);
      std::size_t slot = sessions_.size();
      for (std::size_t i = 0; i < sessions_.size(); ++i) {
        if (sessions_[i].fd >= 0) continue;
        if (sessions_[i].thread.joinable()) {
          finished.push_back(std::move(sessions_[i].thread));
        }
        if (slot == sessions_.size()) slot = i;
      }
      if (slot == sessions_.size()) sessions_.emplace_back();
      sessions_[slot].fd = fd;
      sessions_[slot].thread =
          std::thread(&QueryServer::session_main, this, fd, slot);
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void QueryServer::session_main(int fd, std::size_t slot) {
  auto send_all = [fd](std::string_view text) {
    while (!text.empty()) {
      const ssize_t sent = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
      if (sent <= 0) return false;
      text.remove_prefix(static_cast<std::size_t>(sent));
    }
    return true;
  };

  std::string buffer;
  char chunk[4096];
  // A line that outgrows kMaxLineBytes without a newline gets one ERR and
  // is then discarded byte-for-byte until its newline shows up — the
  // session survives garbage instead of buffering it.
  bool discarding = false;
  bool open = true;
  while (open) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (discarding) {
        // Tail of an oversized line already answered with ERR.
        discarding = false;
        continue;
      }
      QueryKind kind = QueryKind::kBest;
      const std::string reply = execute_line(line, &kind);
      if (!send_all(reply) || kind == QueryKind::kQuit) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (open && !discarding && buffer.size() > kMaxLineBytes) {
      discarding = true;
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (!send_all(err_reply("request line exceeds " +
                              std::to_string(kMaxLineBytes) + " bytes"))) {
        open = false;
      }
      buffer.clear();
    } else if (open && discarding) {
      buffer.clear();
    }
  }
  ::close(fd);
  util::MutexLock lock(sessions_mu_);
  sessions_[slot].fd = -1;
}

std::string QueryServer::execute_line(const std::string& line,
                                      QueryKind* kind_out) {
  std::string error;
  const std::optional<Query> query = parse_query(line, &error);
  if (kind_out != nullptr) {
    *kind_out = query ? query->kind : QueryKind::kBest;
  }
  std::string reply;
  if (!query) {
    reply = err_reply(error);
  } else if (query->kind == QueryKind::kQuit) {
    reply = ok_header(QueryKind::kQuit, 0) + "END\n";
  } else {
    try {
      reply = execute(*query);
    } catch (const std::exception& e) {
      reply = err_reply(e.what());
    } catch (...) {
      reply = err_reply("internal error");
    }
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

std::string QueryServer::execute(const Query& query) {
  switch (query.kind) {
    case QueryKind::kBest: return answer_best();
    case QueryKind::kTopK: return answer_topk(query.k);
    case QueryKind::kPareto: return answer_pareto(query.metric);
    case QueryKind::kEval: return answer_eval(query);
    case QueryKind::kStats: return answer_stats();
    case QueryKind::kQuit: break;  // handled in execute_line
  }
  return err_reply("internal error: unhandled query kind");
}

// The best/topk/pareto answers fold the archive engine's result with
// the live delta: the engine's pruned scan already returns the exact
// archive-side answer (top_k/pareto are closed under refolding — the
// frontier of frontier(A) ∪ D is the frontier of A ∪ D, and likewise
// for the k-best), so re-running the reference reduction over
// engine-result + delta is byte-identical to the reference over the
// full union, while touching only zone-admitted blocks.  delta_mu_ is
// held for the delta copy alone; the archive scan and the table render
// both run outside it.

std::string QueryServer::answer_best() const {
  std::vector<explore::EvalResult> pool;
  if (std::optional<explore::EvalResult> archived = archive_.best()) {
    pool.push_back(std::move(*archived));
  }
  {
    util::ReaderLock lock(delta_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const explore::EvalResult* best = explore::best_result(pool);
  if (best == nullptr) {
    return err_reply("no feasible design point in the archive");
  }
  // explore::best_line is the very rendering explore_cli prints, so this
  // answer is byte-identical to the CLI's report over the same records.
  const std::string payload = explore::best_line(*best) + "\n";
  return ok_header(QueryKind::kBest, 1) + payload + "END\n";
}

std::string QueryServer::answer_topk(std::size_t k) const {
  std::vector<explore::EvalResult> pool = archive_.top_k(k);
  {
    util::ReaderLock lock(delta_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const std::string payload = explore::to_table(explore::top_k(pool, k))
                                  .to_text("top-k designs by speedup");
  return ok_header(QueryKind::kTopK, count_lines(payload)) + payload + "END\n";
}

std::string QueryServer::answer_pareto(explore::CostMetric metric) const {
  std::vector<explore::EvalResult> pool = archive_.pareto(metric);
  {
    util::ReaderLock lock(delta_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const std::string payload =
      explore::to_table(explore::pareto_frontier(pool, metric))
          .to_text(std::string("Pareto frontier (speedup vs. ") +
                   (metric == explore::CostMetric::kCoreArea ? "core area"
                                                             : "core count") +
                   ")");
  return ok_header(QueryKind::kPareto, count_lines(payload)) + payload +
         "END\n";
}

explore::EvalJob QueryServer::resolve_eval(const Query& query) const {
  const core::ModelVariant variant = core::parse_model_variant(query.variant);
  // Coordinates resolve against the run's own scenario: what-if points
  // may leave the recorded *grid* (any n/r/rl), but not the recorded
  // *laws* — an app or growth outside the scenario could not be resolved
  // back from the log on the next start, so the answer would silently
  // stop being durable.
  const core::AppParams* app = explore::find_label(run_.spec.apps, query.app);
  if (app == nullptr) {
    throw std::invalid_argument("app '" + query.app +
                                "' is not part of this archive's scenario");
  }
  const core::GrowthFunction* growth =
      explore::find_label(run_.spec.growths, query.growth);
  if (growth == nullptr) {
    throw std::invalid_argument("growth '" + query.growth +
                                "' is not part of this archive's scenario");
  }
  // Symmetric variants never read rl, and their recorded points hold 0:
  // the builder normalizes it so any rl= finds the same design point.
  if (core::is_asymmetric_variant(variant) && !(query.rl > 0.0)) {
    throw std::invalid_argument("eval: asymmetric variants need rl= > 0");
  }
  const core::GrowthFunction* comm = nullptr;
  if (core::is_comm_variant(variant)) {
    if (query.topology == "-") {
      throw std::invalid_argument("eval: comm variants need topology=");
    }
    noc::parse_topology(query.topology);  // an unknown name throws here
    comm = explore::find_label(comm_laws_, query.topology);
    if (comm == nullptr) {
      throw std::invalid_argument(
          "topology '" + query.topology +
          "' is not part of this archive's scenario");
    }
  }
  return explore::point_job(run_.spec, variant, query.n, *app, *growth, comm,
                            query.r, query.rl);
}

namespace {

std::string render_eval(const explore::EvalResult& result,
                        std::string_view source) {
  std::ostringstream os;
  os << "eval: variant=" << core::model_variant_name(result.variant)
     << " n=" << compact(result.n) << " app=" << result.app
     << " growth=" << result.growth << " topology=" << result.topology
     << " r=" << compact(result.r) << " rl=" << compact(result.rl)
     << " feasible=" << (result.feasible ? "yes" : "no")
     << " cores=" << compact(result.cores)
     << " speedup=" << compact(result.speedup) << " source=" << source
     << "\n";
  return ok_header(QueryKind::kEval, 1) + os.str() + "END\n";
}

}  // namespace

std::optional<explore::EvalResult> QueryServer::find_delta(
    const search::DesignKey& key) const {
  util::ReaderLock lock(delta_mu_);
  const auto it = delta_keys_.find(key);
  if (it == delta_keys_.end()) return std::nullopt;
  return *it->second;
}

std::string QueryServer::answer_eval(const Query& query) {
  const explore::EvalJob job = resolve_eval(query);
  // The job's coordinates as a record: the design key both lookups
  // probe, and the reply's coordinates on a hit.
  explore::EvalResult point;
  point.variant = job.request.variant;
  point.n = job.request.chip.n;
  point.app = job.request.app.name;
  point.growth = job.request.growth.name();
  point.topology = job.topology;
  point.r = job.request.r;
  point.rl = job.request.rl;
  const search::DesignKey key = search::DesignKey::of(point);
  std::optional<explore::EvalResult> held = archive_.find(key);
  if (!held) held = find_delta(key);
  if (!held) {
    // A sticky run-log failure means a fresh result could not be made
    // durable; shed the miss before spending compute on an answer the
    // next server start would not remember.
    if (degraded_.load(std::memory_order_relaxed)) {
      shed_degraded_.fetch_add(1, std::memory_order_relaxed);
      return err_reply(
          "degraded(archive-only): the run log is failing, so live "
          "evaluation is disabled; this point is not in the archive");
    }
    // One miss at a time: budget spend, log append, and delta insert
    // are a single step, so two sessions racing on the same fresh point
    // cannot double-evaluate or double-record it.
    util::MutexLock live(live_mu_);
    held = find_delta(key);
    if (!held) {
      if (live_used_.load(std::memory_order_relaxed) >=
          options_.live_budget) {
        shed_busy_.fetch_add(1, std::memory_order_relaxed);
        return err_reply("busy: live evaluation budget exhausted (" +
                         std::to_string(options_.live_budget) +
                         " evaluations spent); this point is not in the "
                         "archive");
      }
      explore::EvalResult fresh =
          explore::evaluate_job(job, nullptr, /*use_cache=*/false);
      fresh.index = next_index_.fetch_add(1, std::memory_order_relaxed);
      // The delta takes the record only after it is durably logged, so a
      // failed append cannot leave behind an answer a restarted server
      // would not have.
      if (log_ != nullptr) {
        try {
          log_->append(fresh);
          log_->flush();  // a kill -9 after this reply loses nothing
        } catch (const std::exception& error) {
          degraded_.store(true, std::memory_order_relaxed);
          shed_degraded_.fetch_add(1, std::memory_order_relaxed);
          return err_reply(
              std::string("degraded(archive-only): run log append failed "
                          "(") +
              error.what() + "); live evaluation disabled");
        }
      }
      live_used_.fetch_add(1, std::memory_order_relaxed);
      {
        util::WriterLock lock(delta_mu_);
        delta_.push_back(fresh);
        delta_keys_.emplace(search::DesignKey::of(delta_.back()),
                            &delta_.back());
      }
      return render_eval(fresh, "live");
    }
  }
  eval_hits_.fetch_add(1, std::memory_order_relaxed);
  point.feasible = held->feasible;
  point.cores = held->cores;
  point.speedup = held->speedup;
  return render_eval(point, "archive");
}

std::string QueryServer::answer_stats() const {
  std::ostringstream os;
  std::size_t delta_records = 0;
  {
    util::ReaderLock lock(delta_mu_);
    delta_records = delta_.size();
  }
  // Archived rows plus the delta: the whole union the server answers
  // over.
  os << "archive_records=" << archive_.row_count() + delta_records << "\n"
     << "archive_dir=" << run_.dir << "\n"
     << "config=" << run_.config << "\n"
     << "delta_records=" << delta_records << "\n"
     << "eval_hits=" << eval_hits_.load(std::memory_order_relaxed) << "\n"
     << "eval_index_ms=" << compact(archive_.key_table_ms()) << "\n"
     << "queries=" << completed_.load(std::memory_order_relaxed) << "\n"
     << "live_evals=" << live_used_.load(std::memory_order_relaxed) << "\n"
     << "live_budget=" << options_.live_budget << "\n"
     << "degraded=" << (degraded_.load(std::memory_order_relaxed) ? 1 : 0)
     << "\n"
     << "shed_busy=" << shed_busy_.load(std::memory_order_relaxed) << "\n"
     << "shed_degraded=" << shed_degraded_.load(std::memory_order_relaxed)
     << "\n";
  const std::string payload = os.str();
  return ok_header(QueryKind::kStats, count_lines(payload)) + payload +
         "END\n";
}

}  // namespace mergescale::serve
