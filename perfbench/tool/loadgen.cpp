// Closed-loop socket load against a running serve_cli: two point clients
// and one analytic client, each on its own connection, each sending its
// next request only after the previous reply arrived.  Every round trip
// is timed here, at the client.  Prints one JSON object to stdout.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "mix.hpp"
#include "tool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Blocking line-oriented client connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to 127.0.0.1:" +
                               std::to_string(port) + " failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    std::string text = line + "\n";
    std::string_view rest = text;
    while (!rest.empty()) {
      const ssize_t sent = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (sent <= 0) return false;
      rest.remove_prefix(static_cast<std::size_t>(sent));
    }
    return true;
  }

  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buffer_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

struct Reply {
  bool ok = false;      ///< OK-framed (false: ERR reply)
  std::string header;
  std::vector<std::string> lines;
};

/// Sends one request and reads its framed reply.  False when the
/// connection dropped or the framing broke.
bool round_trip(Connection& conn, const std::string& request, Reply* reply) {
  reply->lines.clear();
  if (!conn.send_line(request) || !conn.read_line(&reply->header)) {
    return false;
  }
  if (reply->header.rfind("ERR", 0) == 0) {
    reply->ok = false;
    return true;
  }
  const std::size_t at = reply->header.find("lines=");
  if (reply->header.rfind("OK ", 0) != 0 || at == std::string::npos) {
    return false;
  }
  const std::size_t count = std::stoul(reply->header.substr(at + 6));
  reply->lines.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!conn.read_line(&reply->lines[i])) return false;
  }
  std::string end;
  if (!conn.read_line(&end) || end != "END") return false;
  reply->ok = true;
  return true;
}

/// Whether an OK reply's payload is what the query kind promises.
bool payload_ok(Kind kind, const Reply& reply) {
  const auto contains = [&](const std::string& needle) {
    for (const std::string& line : reply.lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  switch (kind) {
    case Kind::kEvalHit: return contains(" source=archive");
    case Kind::kEvalMiss: return contains(" source=live");
    case Kind::kBest:
      return reply.lines.size() == 1 && reply.lines[0].rfind("best: ", 0) == 0;
    case Kind::kTopK10:
    case Kind::kTopK1000: return contains("top-k designs by speedup");
    case Kind::kParetoArea:
    case Kind::kParetoCores: return contains("Pareto frontier");
  }
  return false;
}

struct ClientLog {
  std::vector<double> latency_ms[kKinds];
  std::uint64_t attempted = 0;
  std::uint64_t err_replies = 0;
  std::uint64_t bad_payload = 0;
  std::uint64_t dropped = 0;
  std::string first_failure;
};

void record(ClientLog& log, const MixQuery& query, bool transported,
            const Reply& reply, double ms) {
  log.attempted += 1;
  if (!transported) {
    log.dropped += 1;
    if (log.first_failure.empty()) log.first_failure = "dropped: " + query.line;
    return;
  }
  if (!reply.ok) {
    log.err_replies += 1;
    if (log.first_failure.empty()) {
      log.first_failure = query.line + " -> " + reply.header;
    }
    return;
  }
  if (!payload_ok(query.kind, reply)) {
    log.bad_payload += 1;
    if (log.first_failure.empty()) {
      log.first_failure =
          query.line + " -> " + (reply.lines.empty() ? "" : reply.lines[0]);
    }
    return;
  }
  log.latency_ms[static_cast<int>(query.kind)].push_back(ms);
}

std::string summary(const std::vector<double>& ms) {
  JsonObject out;
  out.num("n", static_cast<double>(ms.size()))
      .num("p25_ms", percentile(ms, 0.25))
      .num("p50_ms", percentile(ms, 0.50))
      .num("p75_ms", percentile(ms, 0.75))
      .num("p99_ms", percentile(ms, 0.99));
  return out.text();
}

}  // namespace

int run_load(const Args& args) {
  const int port = static_cast<int>(args.num("port"));
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const double seconds = args.num("seconds");
  constexpr int kPointClients = 2;

  std::vector<ClientLog> logs(kPointClients + 1);
  std::atomic<int> points_running{kPointClients};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<Clock::time_point> finished(kPointClients);

  auto point_client = [&](int id) {
    ClientLog& log = logs[static_cast<std::size_t>(id)];
    PointMix mix(seed, id, kPointClients);
    Connection conn(port);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Reply reply;
    while (Clock::now() < deadline) {
      const MixQuery query = mix.next();
      const Clock::time_point sent = Clock::now();
      const bool transported = round_trip(conn, query.line, &reply);
      record(log, query, transported, reply,
             seconds_between(sent, Clock::now()) * 1e3);
      if (!transported) break;
    }
    finished[static_cast<std::size_t>(id)] = Clock::now();
    points_running.fetch_sub(1, std::memory_order_release);
  };

  auto analytic_client = [&]() {
    ClientLog& log = logs[kPointClients];
    Connection conn(port);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    Reply reply;
    for (std::uint64_t i = 0;
         points_running.load(std::memory_order_acquire) > 0; ++i) {
      const MixQuery query = analytic_query(i);
      const Clock::time_point sent = Clock::now();
      const bool transported = round_trip(conn, query.line, &reply);
      record(log, query, transported, reply,
             seconds_between(sent, Clock::now()) * 1e3);
      if (!transported) break;
    }
  };

  std::vector<std::thread> threads;
  try {
    for (int id = 0; id < kPointClients; ++id) {
      threads.emplace_back([&, id] {
        try {
          point_client(id);
        } catch (const std::exception& e) {
          logs[static_cast<std::size_t>(id)].first_failure = e.what();
          logs[static_cast<std::size_t>(id)].dropped += 1;
          ready.fetch_add(1);
          points_running.fetch_sub(1);
        }
      });
    }
    threads.emplace_back([&] {
      try {
        analytic_client();
      } catch (const std::exception& e) {
        logs[kPointClients].first_failure = e.what();
        logs[kPointClients].dropped += 1;
        ready.fetch_add(1);
      }
    });
    while (ready.load() < kPointClients + 1) std::this_thread::yield();
    start = Clock::now();
    go.store(true, std::memory_order_release);
  } catch (...) {
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();

  double wall = 0.0;
  for (const Clock::time_point& end : finished) {
    if (end > start) wall = std::max(wall, seconds_between(start, end));
  }

  // Server-side counters after the load: gate limit, probe windows,
  // live evaluations, shed requests.
  std::map<std::string, std::string> stats;
  {
    Connection conn(port);
    Reply reply;
    if (round_trip(conn, "stats", &reply) && reply.ok) {
      for (const std::string& line : reply.lines) {
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos && line.rfind("config=", 0) != 0) {
          stats[line.substr(0, eq)] = line.substr(eq + 1);
        }
      }
    }
    round_trip(conn, "quit", &reply);
  }

  JsonObject kinds;
  std::vector<double> point_ms;
  std::vector<double> scan_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t err_replies = 0;
  std::uint64_t bad_payload = 0;
  std::uint64_t dropped = 0;
  std::string first_failure;
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> all;
    for (const ClientLog& log : logs) {
      all.insert(all.end(), log.latency_ms[k].begin(), log.latency_ms[k].end());
    }
    kinds.raw(kind_name(static_cast<Kind>(k)), summary(all));
    auto& target = is_point(static_cast<Kind>(k)) ? point_ms : scan_ms;
    target.insert(target.end(), all.begin(), all.end());
  }
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    err_replies += log.err_replies;
    bad_payload += log.bad_payload;
    dropped += log.dropped;
    failed += log.err_replies + log.bad_payload + log.dropped;
    if (first_failure.empty()) first_failure = log.first_failure;
  }
  JsonObject server;
  for (const auto& [key, value] : stats) server.str(key, value);

  JsonObject out;
  out.num("wall_s", wall)
      .num("point_answered", static_cast<double>(point_ms.size()))
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("err_replies", static_cast<double>(err_replies))
      .num("bad_payload", static_cast<double>(bad_payload))
      .num("dropped", static_cast<double>(dropped))
      .str("first_failure", first_failure)
      .raw("point", summary(point_ms))
      .raw("scan", summary(scan_ms))
      .raw("kinds", kinds.text())
      .raw("stats", server.text());
  std::cout << out.text() << "\n";
  return 0;
}

}  // namespace perfbench
