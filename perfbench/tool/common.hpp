#pragma once
// Small helpers shared by the perfbench_tool subcommands: flag parsing,
// percentiles and a minimal JSON object writer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

/// Nearest-rank percentile of `values` (p in [0, 1]); 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Flat JSON object built field by field; nested objects are added as
/// already-rendered text.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += json_escape(value);
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += json_escape(key);
    body_ += "\":";
    body_ += rendered;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
