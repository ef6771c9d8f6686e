// Socket-level saturation test: real TCP clients hammer a started
// server whose session threads each run their own queries.
// Kept in its own file so sanitizer CI can include the serve unit tests
// while excluding this deliberately timing-sensitive load test.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "explore/report.hpp"
#include "search/run_log.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"

namespace mergescale::serve {
namespace {

constexpr const char* kConfig =
    "apps=kmeans;budgets=64;growths=linear;variants=asymmetric;"
    "topologies=mesh;small-cores=1,4;sizes=8,16;comp-share=0.5;"
    "f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& text) {
  std::size_t offset = 0;
  while (offset < text.size()) {
    const ssize_t sent = ::send(fd, text.data() + offset,
                                text.size() - offset, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    offset += static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reads until buffer ends with "END\n" (or "ERR ...\n" as a full
/// reply).  Returns the reply, empty on transport failure.
std::string read_reply(int fd, std::string* buffer) {
  for (;;) {
    const std::size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      if (buffer->rfind("ERR", 0) == 0) {
        const std::string reply = buffer->substr(0, nl + 1);
        buffer->erase(0, nl + 1);
        return reply;
      }
      const std::size_t end = buffer->find("END\n");
      if (end != std::string::npos) {
        const std::string reply = buffer->substr(0, end + 4);
        buffer->erase(0, end + 4);
        return reply;
      }
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return {};
    buffer->append(chunk, static_cast<std::size_t>(got));
  }
}

TEST(Saturation, MultiClientLoadDoesNotCollapseThroughput) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("mergescale_saturation_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  fs::remove_all(dir);

  // Record a tiny archive, then serve it.
  const explore::ScenarioSpec spec = explore::from_config(kConfig, "serve");
  explore::ExploreEngine recorder(explore::EngineOptions{2});
  const auto results = recorder.run(spec);
  search::RunLog::write_meta(dir, kConfig);
  {
    search::RunLog log(dir);
    for (const auto& result : results) log.append(result);
  }

  QueryServer server(open_served_run(dir), open_served_records(dir), nullptr,
                     ServerOptions{});
  server.start();
  ASSERT_GT(server.port(), 0);

  // Baseline: one client, one in-flight query at a time, for a fixed
  // wall-clock slice.
  const auto measure = [&](int clients,
                           std::chrono::milliseconds duration) -> long {
    std::atomic<long> completed{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        const int fd = connect_loopback(server.port());
        if (fd < 0) return;
        std::string buffer;
        while (!stop.load(std::memory_order_relaxed)) {
          if (!send_all(fd, "best\n")) break;
          const std::string reply = read_reply(fd, &buffer);
          if (reply.empty()) break;
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        ::close(fd);
      });
    }
    std::this_thread::sleep_for(duration);
    stop.store(true);
    for (auto& thread : threads) thread.join();
    return completed.load();
  };

  const long baseline = measure(1, std::chrono::milliseconds(400));
  ASSERT_GT(baseline, 0) << "single client answered nothing";

  const long saturated = measure(6, std::chrono::milliseconds(1200));
  // Saturating load over 3x the wall clock must not collapse below the
  // single-client volume — an extremely generous floor (a healthy
  // server beats it by an order of magnitude even on one core), but one
  // a livelocked or collapsed server would miss.
  EXPECT_GT(saturated, baseline)
      << "throughput collapsed under load (baseline " << baseline << ")";

  EXPECT_GT(server.queries_answered(),
            static_cast<std::uint64_t>(baseline + saturated) - 1);

  // Stats flow concurrently with a clean shutdown.
  const std::string stats = server.execute_line("stats");
  EXPECT_NE(stats.find("queries="), std::string::npos);
  server.stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mergescale::serve
