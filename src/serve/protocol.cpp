#include "serve/protocol.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace mergescale::serve {

namespace {

/// Whitespace-splits `line` (spaces and tabs; empty tokens dropped).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t begin = 0;
  while (begin < line.size()) {
    while (begin < line.size() && (line[begin] == ' ' || line[begin] == '\t')) {
      ++begin;
    }
    std::size_t end = begin;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > begin) tokens.push_back(line.substr(begin, end - begin));
    begin = end;
  }
  return tokens;
}

/// Strict full-token double parse; rejects empty, partial, and the
/// embedded-NUL trick (strtod would stop at the NUL and "succeed").
std::optional<double> to_double(std::string_view token) {
  if (token.empty() || token.size() > 64) return std::nullopt;
  if (token.find('\0') != std::string_view::npos) return std::nullopt;
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Fills eval coordinates from `key=value` tokens.  Returns false (with
/// `*error`) on an unknown key, a repeated key, a bad number, or a
/// missing required coordinate.
bool parse_eval(const std::vector<std::string_view>& tokens, Query* query,
                std::string* error) {
  bool saw_variant = false, saw_n = false, saw_app = false;
  bool saw_growth = false, saw_r = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail(error, "eval expects key=value tokens, got '" +
                             std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) {
      return fail(error, "eval: empty value for '" + std::string(key) + "'");
    }
    auto number = [&](double* out, bool* seen) {
      if (seen != nullptr && *seen) {
        fail(error, "eval: repeated key '" + std::string(key) + "'");
        return false;
      }
      const auto parsed = to_double(value);
      if (!parsed) {
        fail(error, "eval: '" + std::string(key) + "' expects a number, got '" +
                        std::string(value) + "'");
        return false;
      }
      *out = *parsed;
      if (seen != nullptr) *seen = true;
      return true;
    };
    auto label = [&](std::string* out, bool* seen) {
      if (seen != nullptr && *seen) {
        fail(error, "eval: repeated key '" + std::string(key) + "'");
        return false;
      }
      *out = std::string(value);
      if (seen != nullptr) *seen = true;
      return true;
    };
    if (key == "variant") {
      if (!label(&query->variant, &saw_variant)) return false;
    } else if (key == "app") {
      if (!label(&query->app, &saw_app)) return false;
    } else if (key == "growth") {
      if (!label(&query->growth, &saw_growth)) return false;
    } else if (key == "topology") {
      if (!label(&query->topology, nullptr)) return false;
    } else if (key == "n") {
      if (!number(&query->n, &saw_n)) return false;
    } else if (key == "r") {
      if (!number(&query->r, &saw_r)) return false;
    } else if (key == "rl") {
      if (!number(&query->rl, nullptr)) return false;
    } else {
      return fail(error, "eval: unknown key '" + std::string(key) +
                             "' (expected variant|n|app|growth|r|rl|topology)");
    }
  }
  if (!saw_variant || !saw_n || !saw_app || !saw_growth || !saw_r) {
    return fail(error,
                "eval needs variant=, n=, app=, growth= and r= (rl= for the "
                "asymmetric variants, topology= for the comm variants)");
  }
  if (!(query->n > 0.0) || !(query->r > 0.0) || query->rl < 0.0) {
    return fail(error, "eval: n and r must be positive, rl non-negative");
  }
  return true;
}

}  // namespace

std::string_view query_kind_name(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kBest: return "best";
    case QueryKind::kTopK: return "topk";
    case QueryKind::kPareto: return "pareto";
    case QueryKind::kEval: return "eval";
    case QueryKind::kStats: return "stats";
    case QueryKind::kQuit: return "quit";
  }
  return "?";
}

std::optional<Query> parse_query(std::string_view line, std::string* error) {
  if (line.size() > kMaxLineBytes) {
    fail(error, "request line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes");
    return std::nullopt;
  }
  // A stray CR (a client speaking CRLF) is part of line splitting, not a
  // token of the last word.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty()) {
    fail(error, "empty request");
    return std::nullopt;
  }

  Query query;
  const std::string_view command = tokens[0];
  auto arity = [&](std::size_t count) {
    if (tokens.size() == count) return true;
    fail(error, std::string(command) + " takes " + std::to_string(count - 1) +
                    " argument(s)");
    return false;
  };
  if (command == "best") {
    if (!arity(1)) return std::nullopt;
    query.kind = QueryKind::kBest;
  } else if (command == "topk") {
    if (!arity(2)) return std::nullopt;
    query.kind = QueryKind::kTopK;
    const auto k = to_double(tokens[1]);
    if (!k || *k < 1.0 || *k > static_cast<double>(kMaxTopK) ||
        *k != static_cast<double>(static_cast<std::size_t>(*k))) {
      fail(error, "topk expects an integer k in [1, " +
                      std::to_string(kMaxTopK) + "]");
      return std::nullopt;
    }
    query.k = static_cast<std::size_t>(*k);
  } else if (command == "pareto") {
    if (!arity(2)) return std::nullopt;
    query.kind = QueryKind::kPareto;
    const std::optional<explore::CostMetric> metric =
        explore::parse_cost_metric(tokens[1]);
    if (!metric) {
      fail(error, "pareto expects 'area' or 'cores'");
      return std::nullopt;
    }
    query.metric = *metric;
  } else if (command == "eval") {
    query.kind = QueryKind::kEval;
    if (!parse_eval(tokens, &query, error)) return std::nullopt;
  } else if (command == "stats") {
    if (!arity(1)) return std::nullopt;
    query.kind = QueryKind::kStats;
  } else if (command == "quit") {
    if (!arity(1)) return std::nullopt;
    query.kind = QueryKind::kQuit;
  } else {
    fail(error, "unknown command '" + std::string(command) +
                    "' (expected best|topk|pareto|eval|stats|quit)");
    return std::nullopt;
  }
  return query;
}

std::string ok_header(QueryKind kind, std::size_t lines) {
  return "OK " + std::string(query_kind_name(kind)) +
         " lines=" + std::to_string(lines) + "\n";
}

std::string err_reply(std::string_view message) {
  // Flatten + truncate: whatever an exception carried, the reply is one
  // bounded line and the framing survives.
  constexpr std::size_t kMaxErrBytes = 400;
  std::string flat(message.substr(0, kMaxErrBytes));
  std::replace_if(
      flat.begin(), flat.end(),
      [](char c) { return c == '\n' || c == '\r' || c == '\0'; }, ' ');
  if (message.size() > kMaxErrBytes) flat += "...";
  return "ERR " + flat + "\n";
}

std::size_t count_lines(std::string_view payload) {
  std::size_t lines = 0;
  for (char c : payload) {
    if (c == '\n') ++lines;
  }
  if (!payload.empty() && payload.back() != '\n') ++lines;
  return lines;
}

}  // namespace mergescale::serve
