#pragma once
// Full-scan references for the server's ranking replies: best, topk and
// pareto rendered exactly as the server frames them, computed by the
// explore reductions over one record vector (archive rows first, then
// the delta in insertion order — the union the server answers over).

#include <string>
#include <utility>
#include <vector>

#include "explore/report.hpp"
#include "serve/protocol.hpp"

namespace mergescale::serve {

inline std::string reference_best(
    const std::vector<explore::EvalResult>& records) {
  const explore::EvalResult* best = explore::best_result(records);
  return ok_header(QueryKind::kBest, 1) + explore::best_line(*best) +
         "\nEND\n";
}

inline std::string reference_topk(
    const std::vector<explore::EvalResult>& records, std::size_t k) {
  const std::string payload = explore::to_table(explore::top_k(records, k))
                                  .to_text("top-k designs by speedup");
  return ok_header(QueryKind::kTopK, count_lines(payload)) + payload +
         "END\n";
}

inline std::string reference_pareto(
    const std::vector<explore::EvalResult>& records,
    explore::CostMetric metric) {
  const std::string payload =
      explore::to_table(explore::pareto_frontier(records, metric))
          .to_text(metric == explore::CostMetric::kCoreArea
                       ? "Pareto frontier (speedup vs. core area)"
                       : "Pareto frontier (speedup vs. core count)");
  return ok_header(QueryKind::kPareto, count_lines(payload)) + payload +
         "END\n";
}

/// The replies to "best", "topk 1000", "pareto area", "pareto cores".
inline std::vector<std::string> reference_scans(
    const std::vector<explore::EvalResult>& records) {
  return {reference_best(records), reference_topk(records, 1000),
          reference_pareto(records, explore::CostMetric::kCoreArea),
          reference_pareto(records, explore::CostMetric::kCoreCount)};
}

}  // namespace mergescale::serve
