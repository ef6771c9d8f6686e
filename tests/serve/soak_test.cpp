// Connection soak: a long-lived server reaps the sessions of closed
// connections as new ones arrive, so thousands of sequential
// connect/quit cycles leave its thread count and address space flat
// instead of growing by one joinable thread (and its stack) per
// connection ever made.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "search/run_log.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"

namespace mergescale::serve {
namespace {

constexpr const char* kConfig =
    "apps=kmeans;budgets=64;growths=linear;variants=asymmetric;"
    "topologies=mesh;small-cores=1,4;sizes=8,16;comp-share=0.5;"
    "f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

/// A numeric field of /proc/self/status ("Threads", "VmSize" in kB).
long status_field(const std::string& name) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(name + ":", 0) == 0) {
      return std::stol(line.substr(name.size() + 1));
    }
  }
  return -1;
}

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

/// One connection: send `quit`, read the framed reply to EOF.
bool connect_and_quit(int port) {
  const int fd = connect_loopback(port);
  if (fd < 0) return false;
  bool ok = ::send(fd, "quit\n", 5, MSG_NOSIGNAL) == 5;
  std::string reply;
  char chunk[256];
  for (ssize_t got; ok && (got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return ok && reply == "OK quit lines=0\nEND\n";
}

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_soak_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    explore::ExploreEngine engine(explore::EngineOptions{1});
    const auto results = engine.run(explore::from_config(kConfig, "serve"));
    search::RunLog::write_meta(dir_, kConfig);
    search::RunLog log(dir_);
    for (const auto& result : results) log.append(result);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SoakTest, TenThousandConnectionsLeaveThreadsAndMemoryFlat) {
  QueryServer server(open_served_run(dir_), nullptr, ServerOptions{});
  server.start();
  // Warm up past one-time allocations (thread stacks, socket buffers)
  // before taking the baseline.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(connect_and_quit(server.port()));
  const long threads_before = status_field("Threads");
  const long vm_before = status_field("VmSize");
  ASSERT_GT(threads_before, 0);

  long threads_peak = threads_before;
  long vm_peak = vm_before;
  constexpr int kCycles = 10000;
  for (int i = 1; i <= kCycles; ++i) {
    ASSERT_TRUE(connect_and_quit(server.port())) << "cycle " << i;
    if (i % 500 == 0) {
      threads_peak = std::max(threads_peak, status_field("Threads"));
      vm_peak = std::max(vm_peak, status_field("VmSize"));
    }
  }
  // Sequential clients keep at most a couple of sessions alive at once.
  // Unjoined finished threads leave Threads: but keep their stacks
  // mapped (8 MiB of address space each, ~80 GB for a leak here); the
  // 4 GiB allowance covers the malloc arenas (64 MiB each) a loaded
  // machine makes glibc create for new threads.
  EXPECT_LE(threads_peak, threads_before + 4);
  EXPECT_LE(vm_peak, vm_before + 4L * 1024 * 1024) << "kB of address space";
  EXPECT_EQ(server.queries_answered(), static_cast<std::uint64_t>(kCycles + 100));
  server.stop();
}

TEST_F(SoakTest, StopEndsSessionsThatAreStillOpen) {
  QueryServer server(open_served_run(dir_), nullptr, ServerOptions{});
  server.start();
  // Sessions left open mid-conversation (each answered once, so each
  // was accepted), plus a reaped slot for one of them to reuse.
  ASSERT_TRUE(connect_and_quit(server.port()));
  std::vector<int> open;
  for (int i = 0; i < 4; ++i) {
    open.push_back(connect_loopback(server.port()));
    ASSERT_GE(open.back(), 0);
    ASSERT_EQ(::send(open.back(), "best\n", 5, MSG_NOSIGNAL), 5);
    char chunk[64];
    ASSERT_GT(::recv(open.back(), chunk, sizeof(chunk), 0), 0);
  }
  // stop() shuts each open session down and joins it; every client then
  // sees its connection closed.
  server.stop();
  for (const int fd : open) {
    char rest[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, rest, sizeof(rest), 0)) > 0) {
    }
    EXPECT_EQ(got, 0);
    ::close(fd);
  }
}

}  // namespace
}  // namespace mergescale::serve
