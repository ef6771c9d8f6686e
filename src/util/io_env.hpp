#pragma once
// Injectable filesystem environment (the LevelDB FaultInjectionTestEnv
// idiom): every byte the persistence stack moves goes through an IoEnv,
// so tests can swap in a FaultyIoEnv that injects short writes, ENOSPC,
// failed fsyncs and renames at named fail points (util/failpoint.hpp),
// records the write/sync trace per file, and replays power loss by
// dropping any suffix that was never synced.
//
// Durability contract (matches the real POSIX behavior RealIoEnv maps
// onto):
//
//   append()  hands bytes to the OS page cache — they survive a process
//             kill but NOT power loss;
//   flush()   is a barrier only for user-space buffering (RealIoEnv
//             writes through, so it is a no-op there);
//   sync()    is fsync(2) — bytes survive power loss once it returns.
//
// Every fallible operation returns a [[nodiscard]] IoResult so the
// compiler flags any unchecked write/fsync/rename — the audit the
// pre-IoEnv code could not enforce.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::util {

/// Outcome of a filesystem primitive.  Empty message == success.
struct IoResult {
  std::string message;     ///< errno text + path context on failure
  bool not_found = false;  ///< failure was "no such file"

  bool ok() const noexcept { return message.empty(); }

  static IoResult success() { return {}; }
  static IoResult failure(std::string message) {
    return {std::move(message), false};
  }
  static IoResult missing(std::string message) {
    return {std::move(message), true};
  }
};

/// A sequential output file.  close() is idempotent; the destructor
/// closes silently, so callers that care about the result (everyone on
/// the durability path) must call close() explicitly.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  [[nodiscard]] virtual IoResult append(std::string_view data) = 0;
  [[nodiscard]] virtual IoResult flush() = 0;
  [[nodiscard]] virtual IoResult sync() = 0;
  [[nodiscard]] virtual IoResult close() = 0;
};

/// A read-only file handle with positioned reads — what the columnar
/// archive reader (search/archive) queries through, touching only the
/// byte ranges its zone maps admit instead of streaming the whole file.
/// read() is const and carries no cursor, so one handle may serve
/// concurrent queries.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// File size captured when the handle was opened.
  virtual std::uint64_t size() const noexcept = 0;

  /// Reads `count` bytes at `offset` into *out.  Zero-copy
  /// implementations (RealIoEnv's mmap handle) point *out into the
  /// mapping and leave *scratch alone; buffered ones fill *scratch and
  /// point *out at it, so *scratch must outlive the use of *out.
  /// Reads past EOF shorten — *out holds what was there.
  [[nodiscard]] virtual IoResult read(std::uint64_t offset, std::size_t count,
                                      std::string_view* out,
                                      std::string* scratch) const = 0;
};

/// The filesystem surface the persistence stack is allowed to touch.
/// RealIoEnv forwards to POSIX; FaultyIoEnv decorates any base env.
class IoEnv {
 public:
  virtual ~IoEnv() = default;

  /// Opens `path` for writing; truncate=false appends.  Parent
  /// directories must already exist.
  [[nodiscard]] virtual IoResult new_writable(
      const std::string& path, bool truncate,
      std::unique_ptr<WritableFile>* out) = 0;

  /// Reads the whole file / `count` bytes starting at `offset` (short
  /// reads at EOF are not an error — `out` holds what was there).
  [[nodiscard]] virtual IoResult read_file(const std::string& path,
                                           std::string* out) = 0;
  [[nodiscard]] virtual IoResult read_file_range(const std::string& path,
                                                 std::uint64_t offset,
                                                 std::size_t count,
                                                 std::string* out) = 0;

  /// Opens `path` for positioned read-only access.  The default
  /// implementation routes every read() through this env's own
  /// read_file_range(), so decorating envs (FaultyIoEnv) inherit fault
  /// injection with no override; RealIoEnv overrides it with a
  /// zero-copy mmap handle.
  [[nodiscard]] virtual IoResult new_random_access(
      const std::string& path, std::unique_ptr<RandomAccessFile>* out);

  virtual bool exists(const std::string& path) = 0;
  [[nodiscard]] virtual IoResult file_size(const std::string& path,
                                           std::uint64_t* out) = 0;
  [[nodiscard]] virtual IoResult rename_file(const std::string& from,
                                             const std::string& to) = 0;
  /// Removing a file that does not exist succeeds.
  [[nodiscard]] virtual IoResult remove_file(const std::string& path) = 0;
  [[nodiscard]] virtual IoResult truncate_file(const std::string& path,
                                               std::uint64_t size) = 0;
  [[nodiscard]] virtual IoResult create_directories(
      const std::string& path) = 0;
  /// Plain filenames (no paths) of regular files in `path`; a missing
  /// directory yields success and an empty list.
  [[nodiscard]] virtual IoResult list_dir(const std::string& path,
                                          std::vector<std::string>* names) = 0;
};

/// The POSIX-backed environment (the only code in the tree allowed to
/// call raw file primitives — enforced by the mslint `raw-io` rule).
IoEnv& real_io_env();

/// The active environment.  Defaults to real_io_env(); the first call
/// checks MS_FAILPOINTS and, when set, arms the registry and routes
/// through a process-lifetime FaultyIoEnv so CLI smokes inject faults
/// with no code changes.
IoEnv& io_env();

/// Overrides the active environment (nullptr restores the default).
/// Returns the previous override.  Tests use ScopedIoEnv instead.
IoEnv* set_io_env(IoEnv* env);

/// RAII env override for tests.  Objects that capture the env at
/// construction (RunLog, BinaryLog) must not outlive the scope.
class ScopedIoEnv {
 public:
  explicit ScopedIoEnv(IoEnv* env) : previous_(set_io_env(env)) {}
  ~ScopedIoEnv() { set_io_env(previous_); }

  ScopedIoEnv(const ScopedIoEnv&) = delete;
  ScopedIoEnv& operator=(const ScopedIoEnv&) = delete;

 private:
  IoEnv* previous_;
};

/// Fault-injecting decorator.  Consults one fail point per primitive —
///
///   io.open  io.read  io.write  io.short-write  io.flush  io.sync
///   io.rename  io.remove  io.truncate  io.mkdir  io.list
///
// — passing the file path as the argument, so specs can target
/// individual files (`io.write=after:3@results.msbin`).  io.short-write
/// is special: when it fires, the first half of the buffer reaches the
/// base env before the error returns, modeling a torn write.
///
/// The env also records, per written file, how many bytes reached the
/// OS (`written`) versus survived the last sync (`durable`) — the trace
/// the crash-consistency harness replays.
class FaultyIoEnv : public IoEnv {
 public:
  /// Decorates `base` (defaults to real_io_env()).
  explicit FaultyIoEnv(IoEnv* base = nullptr);

  [[nodiscard]] IoResult new_writable(const std::string& path, bool truncate,
                                      std::unique_ptr<WritableFile>* out)
      override;
  [[nodiscard]] IoResult read_file(const std::string& path,
                                   std::string* out) override;
  [[nodiscard]] IoResult read_file_range(const std::string& path,
                                         std::uint64_t offset,
                                         std::size_t count,
                                         std::string* out) override;
  bool exists(const std::string& path) override;
  [[nodiscard]] IoResult file_size(const std::string& path,
                                   std::uint64_t* out) override;
  [[nodiscard]] IoResult rename_file(const std::string& from,
                                     const std::string& to) override;
  [[nodiscard]] IoResult remove_file(const std::string& path) override;
  [[nodiscard]] IoResult truncate_file(const std::string& path,
                                       std::uint64_t size) override;
  [[nodiscard]] IoResult create_directories(const std::string& path) override;
  [[nodiscard]] IoResult list_dir(const std::string& path,
                                  std::vector<std::string>* names) override;

  /// Write/sync trace of one file written through this env.
  struct FileTrace {
    std::uint64_t durable = 0;  ///< bytes that survived the last sync()
    std::uint64_t written = 0;  ///< bytes handed to the OS in total
  };
  std::optional<FileTrace> trace(const std::string& path) const
      MS_EXCLUDES(mu_);

  /// Replays power loss: truncates every tracked file back to its
  /// durable size plus `keep_torn(unsynced_bytes)` bytes of the
  /// unsynced suffix (a torn final write; default keeps none), then
  /// marks the env powered off — every subsequent operation fails, so
  /// abandoned writers cannot quietly repair the damage.
  void lose_power(
      const std::function<std::uint64_t(std::uint64_t)>& keep_torn = {})
      MS_EXCLUDES(mu_);

  /// "Reboots" after lose_power(): operations flow to the base env
  /// again.  Traces are reset to the on-disk state.
  void reset_power() MS_EXCLUDES(mu_);

 private:
  friend class FaultyWritableFile;

  bool powered_off() const;
  bool inject(std::string_view point, const std::string& path,
              IoResult* result) const;
  void on_append(const std::string& path, std::uint64_t bytes)
      MS_EXCLUDES(mu_);
  void on_sync(const std::string& path) MS_EXCLUDES(mu_);
  void on_open(const std::string& path, bool truncate) MS_EXCLUDES(mu_);

  IoEnv* base_;
  std::atomic<bool> powered_off_{false};
  mutable Mutex mu_;
  std::unordered_map<std::string, FileTrace> traces_ MS_GUARDED_BY(mu_);
};

}  // namespace mergescale::util
