#include "search/binary_log.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "search/byte_codec.hpp"
#include "util/check.hpp"

namespace mergescale::search {

using namespace bytes;

namespace {

constexpr std::uint32_t kMagic = 0x4C42534Du;  // "MSBL" little-endian
// Version 2: a record's index is its canonical flat index
// (search::SearchSpace::canonical).  Version 1 logs numbered an
// unsharded sweep by expansion order and adaptive records by batch slot.
constexpr std::uint32_t kVersion = 2;
// Fingerprint of the record layout (field order, widths, frame shape).
// Bump together with kVersion whenever the layout changes; readers
// refuse anything else.
constexpr std::uint64_t kSchema = 0x45564C31'4D534231ull;  // "1BSM1LVE"
constexpr std::size_t kHeaderSize = BinaryLog::kHeaderBytes;
constexpr std::size_t kFrameOverhead = 7;  // crc u32 + len u16 + type u8

constexpr std::uint8_t kStringFrame = 0;
constexpr std::uint8_t kEvalFrame = 1;
constexpr std::size_t kEvalPayload = 68;
static_assert(BinaryLog::kRecordBytes == kFrameOverhead + kEvalPayload);

std::string encode_header() {
  std::string header;
  header.reserve(kHeaderSize);
  put_u32(header, kMagic);
  put_u32(header, kVersion);
  put_u64(header, kSchema);
  put_u64(header, 0);  // reserved
  return header;
}

void check_header(const std::string& bytes, const std::string& path) {
  if (bytes.size() < kHeaderSize || get_u32(bytes.data()) != kMagic) {
    throw std::runtime_error("binary log: " + path +
                             " is not a mergescale binary run log");
  }
  if (get_u32(bytes.data() + 4) != kVersion ||
      get_u64(bytes.data() + 8) != kSchema) {
    throw std::runtime_error(
        "binary log: " + path +
        " was written under a different format version/schema; refusing to "
        "read it (re-record or fold it with a matching build)");
  }
}

/// Appends one framed record (crc + len + type + payload) to `out`.
/// Throws instead of wrapping the u16 length: a silently truncated
/// length field would desynchronize the framing and take every record
/// after it down with it.
void put_frame(std::string& out, std::uint8_t type,
               const std::string& payload) {
  if (payload.size() > 0xFFFF) {
    throw std::runtime_error(
        "binary log: record payload exceeds the 64 KiB frame limit "
        "(a label this long cannot be encoded)");
  }
  std::string body;
  body.reserve(3 + payload.size());
  put_u16(body, static_cast<std::uint16_t>(payload.size()));
  body.push_back(static_cast<char>(type));
  body += payload;
  put_u32(out, crc32(body.data(), body.size()));
  out += body;
}

/// One structural walk step.  Returns false when the bytes at `offset`
/// cannot be a whole frame (torn tail / destroyed framing).
struct Frame {
  std::uint8_t type = 0;
  const char* payload = nullptr;
  std::size_t payload_size = 0;
  bool crc_ok = false;
  std::size_t next_offset = 0;
};

bool next_frame(const std::string& bytes, std::size_t offset, Frame* out) {
  if (offset + kFrameOverhead > bytes.size()) return false;
  const std::uint16_t len = get_u16(bytes.data() + offset + 4);
  if (offset + kFrameOverhead + len > bytes.size()) return false;
  out->type = static_cast<std::uint8_t>(bytes[offset + 6]);
  out->payload = bytes.data() + offset + kFrameOverhead;
  out->payload_size = len;
  out->crc_ok = get_u32(bytes.data() + offset) ==
                crc32(bytes.data() + offset + 4,
                      static_cast<std::size_t>(3) + len);
  out->next_offset = offset + kFrameOverhead + len;
  return true;
}

/// Reads the whole file through the env.  Missing file -> empty bytes
/// (a fresh log); any other read failure is a real I/O error and
/// throws, so a transiently unreadable log is never mistaken for empty
/// and truncated by the fresh-file path.
std::string read_whole_file(util::IoEnv& env, const std::string& path) {
  std::string bytes;
  const util::IoResult result = env.read_file(path, &bytes);
  if (!result.ok() && !result.not_found) {
    throw std::runtime_error("binary log: " + result.message);
  }
  return bytes;
}

void check_io(const util::IoResult& result, const char* what,
              const std::string& path) {
  if (!result.ok()) {
    throw std::runtime_error("binary log: " + std::string(what) + " " + path +
                             " failed: " + result.message);
  }
}

}  // namespace

BinaryLog::BinaryLog(std::string path, std::size_t flush_every,
                     bool sync_every_flush)
    : path_(std::move(path)),
      flush_every_(flush_every == 0 ? 1 : flush_every),
      sync_every_flush_(sync_every_flush),
      env_(&util::io_env()) {
  const std::string bytes = read_whole_file(*env_, path_);
  if (bytes.empty()) {
    // Fresh file: write the header eagerly (and flushed) so even a run
    // killed before its first flush leaves a self-identifying file.
    check_io(env_->new_writable(path_, /*truncate=*/true, &out_), "open",
             path_);
    check_io(out_->append(encode_header()), "write header to", path_);
    check_io(out_->flush(), "flush", path_);
    if (sync_every_flush_) check_io(out_->sync(), "fsync", path_);
    return;
  }
  check_header(bytes, path_);

  // Walk the frames: rebuild the string table and find the end of the
  // last CRC-verified frame.  Truncating the unverifiable suffix (not
  // just an incomplete final frame) keeps appends from extending a
  // region a reader could never walk.
  std::size_t verified_end = kHeaderSize;
  std::size_t offset = kHeaderSize;
  Frame frame;
  while (next_frame(bytes, offset, &frame)) {
    if (frame.crc_ok) {
      if (frame.type == kStringFrame && frame.payload_size >= 4) {
        const std::uint32_t id = get_u32(frame.payload);
        string_ids_.emplace(
            std::string(frame.payload + 4, frame.payload_size - 4), id);
        if (id >= next_string_id_) next_string_id_ = id + 1;
      }
      verified_end = frame.next_offset;
    }
    offset = frame.next_offset;
  }
  if (verified_end < bytes.size()) {
    check_io(env_->truncate_file(path_, verified_end),
             "truncate torn tail of", path_);
  }
  check_io(env_->new_writable(path_, /*truncate=*/false, &out_), "open",
           path_);
}

BinaryLog::~BinaryLog() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; an unflushable tail is the documented
    // crash-loss window.
  }
}

std::uint32_t BinaryLog::label_id(std::string_view name) {
  const auto [it, fresh] = string_ids_.try_emplace(std::string(name),
                                                   next_string_id_);
  if (fresh) {
    ++next_string_id_;
    std::string payload;
    payload.reserve(4 + name.size());
    put_u32(payload, it->second);
    payload += name;
    put_frame(buffer_, kStringFrame, payload);
  }
  return it->second;
}

std::uint32_t BinaryLog::string_id(std::size_t column,
                                   const std::string& name) {
  LastLabel& last = last_labels_[column];
  if (last.set && last.text == name) return last.id;
  last.set = true;
  last.text = name;
  last.id = label_id(name);
  return last.id;
}

void BinaryLog::encode_record(const explore::EvalResult& result,
                              const RecordLabels& labels, char* frame) {
  poke_u16(frame + 4, static_cast<std::uint16_t>(kEvalPayload));
  frame[6] = static_cast<char>(kEvalFrame);
  char* p = frame + kFrameOverhead;  // the payload, as load() reads it
  poke_u64(p, result.index);
  p[8] = static_cast<char>(result.variant);
  p[9] = static_cast<char>(result.feasible ? 1 : 0);
  p[10] = static_cast<char>(result.from_cache ? 1 : 0);
  p[11] = 0;  // pad
  for (std::size_t column = 0; column < labels.size(); ++column) {
    poke_u32(p + 12 + 4 * column, labels[column]);
  }
  poke_f64(p + 28, result.n);
  poke_f64(p + 36, result.r);
  poke_f64(p + 44, result.rl);
  poke_f64(p + 52, result.cores);
  poke_f64(p + 60, result.speedup);
  poke_u32(frame, crc32(frame + 4, 3 + kEvalPayload));  // crc last
}

void BinaryLog::append(const explore::EvalResult& result) {
  // String-table frames first (rare: once per distinct label per file).
  const RecordLabels labels{
      string_id(0, result.scenario), string_id(1, result.app),
      string_id(2, result.growth), string_id(3, result.topology)};
  // Appending a record must not allocate: it runs once per evaluation
  // of a million-point search.
  char frame[kRecordBytes];
  encode_record(result, labels, frame);
  append_records(std::string_view(frame, sizeof frame));
}

void BinaryLog::append_records(std::string_view frames) {
  MS_CHECK(frames.size() % kRecordBytes == 0,
           "append_records takes whole record frames");
  while (!frames.empty()) {
    const std::size_t take = std::min(flush_every_ - buffered_records_,
                                      frames.size() / kRecordBytes);
    const std::string_view group = frames.substr(0, take * kRecordBytes);
    frames.remove_prefix(group.size());
    appended_ += take;
    if (take == flush_every_ && buffer_.empty()) {
      write_group(group);  // a whole group in place: no copy
      continue;
    }
    buffer_.append(group);
    buffered_records_ += take;
    if (buffered_records_ >= flush_every_) flush();
  }
}

void BinaryLog::flush() {
  // A group is whole records: string-table frames with no record after
  // them yet stay buffered for the group that carries one.
  if (buffered_records_ == 0) {
    if (sync_every_flush_) check_io(out_->sync(), "fsync", path_);
    return;
  }
  // Hand the group off before writing: a failed group is LOST (that is
  // the documented window), never silently retried by a later flush or
  // the destructor — a retry that happened to succeed would persist
  // records the caller was already told failed.
  std::string group;
  group.swap(buffer_);
  buffered_records_ = 0;
  write_group(group);
  // Written: the next group reuses its capacity instead of regrowing.
  group.clear();
  buffer_.swap(group);
}

void BinaryLog::write_group(std::string_view group) {
  check_io(out_->append(group), "write to", path_);
  check_io(out_->flush(), "flush", path_);
  if (sync_every_flush_) check_io(out_->sync(), "fsync", path_);
}

std::vector<explore::EvalResult> BinaryLog::load(const std::string& path) {
  std::vector<explore::EvalResult> records;
  const std::string bytes = read_whole_file(util::io_env(), path);
  if (bytes.empty()) return records;
  check_header(bytes, path);

  std::unordered_map<std::uint32_t, std::string> names;
  std::size_t offset = kHeaderSize;
  Frame frame;
  while (next_frame(bytes, offset, &frame)) {
    if (frame.crc_ok) {
      if (frame.type == kStringFrame && frame.payload_size >= 4) {
        names[get_u32(frame.payload)] =
            std::string(frame.payload + 4, frame.payload_size - 4);
      } else if (frame.type == kEvalFrame &&
                 frame.payload_size == kEvalPayload) {
        const char* p = frame.payload;
        explore::EvalResult result;
        result.index = static_cast<std::size_t>(get_u64(p));
        const auto variant = static_cast<unsigned char>(p[8]);
        result.feasible = p[9] != 0;
        result.from_cache = p[10] != 0;
        const auto scenario = names.find(get_u32(p + 12));
        const auto app = names.find(get_u32(p + 16));
        const auto growth = names.find(get_u32(p + 20));
        const auto topology = names.find(get_u32(p + 24));
        result.n = get_f64(p + 28);
        result.r = get_f64(p + 36);
        result.rl = get_f64(p + 44);
        result.cores = get_f64(p + 52);
        result.speedup = get_f64(p + 60);
        // A record whose labels reference a dictionary entry this walk
        // never verified cannot be reconstructed — skip it like any
        // other corrupt record.
        if (variant > static_cast<unsigned char>(
                          core::ModelVariant::kAsymmetricComm) ||
            scenario == names.end() || app == names.end() ||
            growth == names.end() || topology == names.end()) {
          offset = frame.next_offset;
          continue;
        }
        result.variant = static_cast<core::ModelVariant>(variant);
        result.scenario = scenario->second;
        result.app = app->second;
        result.growth = growth->second;
        result.topology = topology->second;
        std::tie(result.feasible, result.cores, result.speedup) =
            stored_outcome(result);
        records.push_back(std::move(result));
      }
    }
    offset = frame.next_offset;
  }
  return records;
}

}  // namespace mergescale::search
