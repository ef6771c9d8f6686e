#pragma once
// util::IoEnv decorator that forwards every call to a base env and counts
// what passes through: appends, bytes written, flushes, syncs, bytes read,
// and the time spent in each.  Installed with util::ScopedIoEnv around a
// traced replay, it yields the util.io.* metrics without touching the
// program: every persisted byte already moves through util::io_env().
//
// Counters are atomics, so a run-log writer thread may report into them;
// nothing here records spans.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/io_env.hpp"

namespace perfbench {

struct IoCounters {
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<std::uint64_t> write_ns{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> read_ns{0};
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline std::uint64_t since_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

class CountingWritableFile final : public mergescale::util::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<mergescale::util::WritableFile> base,
                       IoCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  mergescale::util::IoResult append(std::string_view data) override {
    const auto start = Clock::now();
    mergescale::util::IoResult result = base_->append(data);
    counters_->write_ns += since_ns(start);
    counters_->appends += 1;
    counters_->write_bytes += data.size();
    return result;
  }
  mergescale::util::IoResult flush() override {
    const auto start = Clock::now();
    mergescale::util::IoResult result = base_->flush();
    counters_->write_ns += since_ns(start);
    counters_->flushes += 1;
    return result;
  }
  mergescale::util::IoResult sync() override {
    const auto start = Clock::now();
    mergescale::util::IoResult result = base_->sync();
    counters_->write_ns += since_ns(start);
    counters_->syncs += 1;
    return result;
  }
  mergescale::util::IoResult close() override {
    const auto start = Clock::now();
    mergescale::util::IoResult result = base_->close();
    counters_->write_ns += since_ns(start);
    return result;
  }

 private:
  std::unique_ptr<mergescale::util::WritableFile> base_;
  IoCounters* counters_;
};

class CountingRandomAccessFile final
    : public mergescale::util::RandomAccessFile {
 public:
  CountingRandomAccessFile(
      std::unique_ptr<mergescale::util::RandomAccessFile> base,
      IoCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  std::uint64_t size() const noexcept override { return base_->size(); }

  mergescale::util::IoResult read(std::uint64_t offset, std::size_t count,
                                  std::string_view* out,
                                  std::string* scratch) const override {
    const auto start = Clock::now();
    mergescale::util::IoResult result =
        base_->read(offset, count, out, scratch);
    counters_->read_ns += since_ns(start);
    if (result.ok()) counters_->read_bytes += out->size();
    return result;
  }

 private:
  std::unique_ptr<mergescale::util::RandomAccessFile> base_;
  IoCounters* counters_;
};

}  // namespace detail

class CountingIoEnv final : public mergescale::util::IoEnv {
 public:
  explicit CountingIoEnv(mergescale::util::IoEnv* base) : base_(base) {}

  IoCounters& counters() noexcept { return counters_; }

  mergescale::util::IoResult new_writable(
      const std::string& path, bool truncate,
      std::unique_ptr<mergescale::util::WritableFile>* out) override {
    std::unique_ptr<mergescale::util::WritableFile> file;
    mergescale::util::IoResult result =
        base_->new_writable(path, truncate, &file);
    if (result.ok()) {
      *out = std::make_unique<detail::CountingWritableFile>(std::move(file),
                                                            &counters_);
    }
    return result;
  }

  mergescale::util::IoResult read_file(const std::string& path,
                                       std::string* out) override {
    const auto start = detail::Clock::now();
    mergescale::util::IoResult result = base_->read_file(path, out);
    count_read(start, result, out->size());
    return result;
  }

  mergescale::util::IoResult read_file_range(const std::string& path,
                                             std::uint64_t offset,
                                             std::size_t count,
                                             std::string* out) override {
    const auto start = detail::Clock::now();
    mergescale::util::IoResult result =
        base_->read_file_range(path, offset, count, out);
    count_read(start, result, out->size());
    return result;
  }

  mergescale::util::IoResult new_random_access(
      const std::string& path,
      std::unique_ptr<mergescale::util::RandomAccessFile>* out) override {
    const auto start = detail::Clock::now();
    std::unique_ptr<mergescale::util::RandomAccessFile> file;
    mergescale::util::IoResult result = base_->new_random_access(path, &file);
    counters_.read_ns += detail::since_ns(start);
    if (result.ok()) {
      *out = std::make_unique<detail::CountingRandomAccessFile>(
          std::move(file), &counters_);
    }
    return result;
  }

  bool exists(const std::string& path) override { return base_->exists(path); }
  mergescale::util::IoResult file_size(const std::string& path,
                                       std::uint64_t* out) override {
    return base_->file_size(path, out);
  }
  mergescale::util::IoResult rename_file(const std::string& from,
                                         const std::string& to) override {
    return base_->rename_file(from, to);
  }
  mergescale::util::IoResult remove_file(const std::string& path) override {
    return base_->remove_file(path);
  }
  mergescale::util::IoResult truncate_file(const std::string& path,
                                           std::uint64_t size) override {
    return base_->truncate_file(path, size);
  }
  mergescale::util::IoResult create_directories(
      const std::string& path) override {
    return base_->create_directories(path);
  }
  mergescale::util::IoResult list_dir(
      const std::string& path, std::vector<std::string>* names) override {
    return base_->list_dir(path, names);
  }

 private:
  void count_read(detail::Clock::time_point start,
                  const mergescale::util::IoResult& result,
                  std::size_t bytes) {
    counters_.read_ns += detail::since_ns(start);
    if (result.ok()) counters_.read_bytes += bytes;
  }

  mergescale::util::IoEnv* base_;
  IoCounters counters_;
};

}  // namespace perfbench
