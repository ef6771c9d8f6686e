// serve_client: minimal line-protocol client for serve_cli.  Reads one
// query per line from stdin (or a single --query), sends each to the
// server, and prints the framed reply verbatim — `OK <kind> lines=<N>`
// + payload + `END`, or a one-line `ERR <message>`.
//
//   printf 'best\ntopk 3\nquit\n' |
//     ./build/serve_client --port-file /tmp/run.port
//
// Each request carries a deadline (--timeout-ms, 30 s by default) and a
// retry budget (--retries) with jittered exponential backoff: a connect
// failure, a dropped connection, or a deadline expiry closes the socket
// and retries the whole request on a fresh one.  A reply is only printed once it is complete, so a
// half-received attempt never leaks partial output; when every attempt
// fails the client prints a single `ERR deadline ...` line instead of
// hanging.
//
// Exit status: 0 when every query got a complete reply (ERR replies
// included — they are protocol answers, not transport failures), 1 on
// connect/transport errors or an expired deadline.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "serve/retry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace mergescale;
using Clock = std::chrono::steady_clock;

namespace {

enum class RecvStatus { kOk, kTimeout, kClosed };

/// One connection attempt's state: socket + receive buffer.
struct Connection {
  int fd = -1;
  std::string buffer;

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    buffer.clear();
  }
};

bool connect_to(int port, Connection* conn) {
  conn->close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  conn->fd = fd;
  return true;
}

/// Caps the next recv at the time remaining before `deadline`.
void set_recv_timeout(int fd, Clock::time_point deadline) {
  auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
      deadline - Clock::now());
  // SO_RCVTIMEO of zero means "block forever"; an expired deadline
  // still needs a positive (tiny) timeout so recv returns promptly.
  remaining = std::max(remaining, std::chrono::microseconds(1000));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(remaining.count() / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(remaining.count() % 1000000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Reads one newline-terminated line (stripped) before `deadline`.
RecvStatus next_line(Connection* conn, Clock::time_point deadline,
                     std::string* line) {
  for (;;) {
    const std::size_t nl = conn->buffer.find('\n');
    if (nl != std::string::npos) {
      line->assign(conn->buffer, 0, nl);
      conn->buffer.erase(0, nl + 1);
      return RecvStatus::kOk;
    }
    if (Clock::now() >= deadline) return RecvStatus::kTimeout;
    set_recv_timeout(conn->fd, deadline);
    char chunk[4096];
    const ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      conn->buffer.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return RecvStatus::kTimeout;
    }
    if (got < 0 && errno == EINTR) continue;
    return RecvStatus::kClosed;
  }
}

bool send_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t sent = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    text.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

/// Reads one complete framed reply into `reply` (not printed — the
/// caller prints only complete replies, so retried attempts never emit
/// partial output).
RecvStatus read_reply(Connection* conn, Clock::time_point deadline,
                      std::string* reply) {
  reply->clear();
  std::string line;
  RecvStatus status = next_line(conn, deadline, &line);
  if (status != RecvStatus::kOk) return status;
  *reply = line + "\n";
  if (line.rfind("ERR", 0) == 0) return RecvStatus::kOk;  // one-line reply
  // OK header: payload lines follow until END.
  for (;;) {
    status = next_line(conn, deadline, &line);
    if (status != RecvStatus::kOk) return status;
    *reply += line + "\n";
    if (line == "END") return RecvStatus::kOk;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("serve_client",
                "line-protocol client for serve_cli: send queries from "
                "stdin (or --query) and print framed replies");
  cli.opt("port", static_cast<long long>(0), "server port on 127.0.0.1");
  cli.opt("port-file", std::string(),
          "read the port from this file (what serve_cli --port-file wrote)");
  cli.opt("query", std::string(),
          "send this single query instead of reading stdin");
  cli.opt("timeout-ms", static_cast<long long>(30000),
          "per-request deadline in milliseconds");
  cli.opt("retries", static_cast<long long>(0),
          "transport retries per request, each on a fresh connection "
          "with jittered exponential backoff");
  cli.opt("backoff-ms", static_cast<long long>(50),
          "nominal first-retry backoff (doubles per retry, jittered "
          "over [0.5x, 1.5x), capped at 2000 ms)");
  if (!cli.parse(argc, argv)) return 0;

  int port = static_cast<int>(cli.get_int("port"));
  if (const std::string path = cli.get_string("port-file"); !path.empty()) {
    std::ifstream in(path);
    if (!(in >> port)) {
      std::cerr << "serve_client: cannot read a port from " << path << "\n";
      return 1;
    }
  }
  if (port <= 0 || port > 65535) {
    std::cerr << "serve_client: need --port or --port-file\n";
    return 1;
  }

  const long long timeout_ms =
      std::max<long long>(1, cli.get_int("timeout-ms"));
  serve::RetryPolicy policy;
  policy.retries = static_cast<int>(std::max<long long>(0,
                                                        cli.get_int("retries")));
  policy.base_backoff =
      std::chrono::milliseconds(std::max<long long>(0,
                                                    cli.get_int("backoff-ms")));
  // Jitter only decorrelates concurrent clients; it needs no entropy
  // beyond "different per process".
  util::Xoshiro256 rng(static_cast<std::uint64_t>(::getpid()) * 0x9e3779b9u);

  Connection conn;
  bool ok = true;
  auto roundtrip = [&](const std::string& query) {
    const int attempts = policy.retries + 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(
            serve::backoff_delay(policy, attempt - 1, rng.next()));
      }
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(timeout_ms);
      if (conn.fd < 0 && !connect_to(port, &conn)) continue;
      std::string reply;
      if (!send_all(conn.fd, query + "\n") ||
          read_reply(&conn, deadline, &reply) != RecvStatus::kOk) {
        // A timed-out or dropped attempt poisons the stream (a late
        // reply would answer the wrong request); retry on a fresh
        // connection.
        conn.close();
        continue;
      }
      std::cout << reply;
      return query != "quit";
    }
    std::cout << "ERR deadline: no complete reply to '" << query
              << "' within " << timeout_ms << " ms (" << attempts
              << " attempt" << (attempts == 1 ? "" : "s") << ")\n";
    ok = false;
    return false;
  };

  if (const std::string query = cli.get_string("query"); !query.empty()) {
    roundtrip(query);
  } else {
    for (std::string line; std::getline(std::cin, line);) {
      if (line.empty()) continue;
      if (!roundtrip(line)) break;
    }
  }
  conn.close();
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "serve_client: " << e.what() << "\n";
  return 1;
}
