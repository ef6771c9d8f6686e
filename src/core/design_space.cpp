#include "core/design_space.hpp"

#include <algorithm>

#include "core/reduction_model.hpp"
#include "util/check.hpp"

namespace mergescale::core {

std::string_view model_variant_name(ModelVariant variant) noexcept {
  switch (variant) {
    case ModelVariant::kSymmetric: return "symmetric";
    case ModelVariant::kAsymmetric: return "asymmetric";
    case ModelVariant::kSymmetricComm: return "symmetric-comm";
    case ModelVariant::kAsymmetricComm: return "asymmetric-comm";
  }
  return "unknown";
}

ModelVariant parse_model_variant(std::string_view name) {
  for (ModelVariant v :
       {ModelVariant::kSymmetric, ModelVariant::kAsymmetric,
        ModelVariant::kSymmetricComm, ModelVariant::kAsymmetricComm}) {
    if (name == model_variant_name(v)) return v;
  }
  throw std::invalid_argument("unknown model variant: " + std::string(name));
}

bool is_comm_variant(ModelVariant variant) noexcept {
  return variant == ModelVariant::kSymmetricComm ||
         variant == ModelVariant::kAsymmetricComm;
}

bool is_asymmetric_variant(ModelVariant variant) noexcept {
  return variant == ModelVariant::kAsymmetric ||
         variant == ModelVariant::kAsymmetricComm;
}

std::optional<DesignPoint> evaluate_reference(const EvalRequest& request) {
  const ChipConfig& chip = request.chip;
  if (is_asymmetric_variant(request.variant) &&
      asymmetric_infeasible(chip, request.rl, request.r)) {
    return std::nullopt;
  }
  switch (request.variant) {
    case ModelVariant::kSymmetric:
      return DesignPoint{
          request.r, 0.0,
          speedup_symmetric(chip, request.app, request.growth, request.r)};
    case ModelVariant::kAsymmetric:
      return DesignPoint{request.r, request.rl,
                         speedup_asymmetric(chip, request.app, request.growth,
                                            request.rl, request.r)};
    case ModelVariant::kSymmetricComm: {
      CommAppParams app = CommAppParams::from(request.app);
      app.comp_share = request.comp_share;
      return DesignPoint{
          request.r, 0.0,
          comm_speedup_symmetric(chip, app, request.growth,
                                 request.comm_growth, request.r)};
    }
    case ModelVariant::kAsymmetricComm: {
      CommAppParams app = CommAppParams::from(request.app);
      app.comp_share = request.comp_share;
      return DesignPoint{
          request.r, request.rl,
          comm_speedup_asymmetric(chip, app, request.growth,
                                  request.comm_growth, request.rl, request.r)};
    }
  }
  throw std::invalid_argument("unknown model variant");
}

std::vector<DesignPoint> evaluate_sweep(const EvalRequest& base,
                                        std::span<const double> sizes) {
  std::vector<EvalRequest> requests(sizes.size(), base);
  const bool asym = is_asymmetric_variant(base.variant);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    (asym ? requests[i].rl : requests[i].r) = sizes[i];
  }
  std::vector<std::optional<DesignPoint>> results(requests.size());
  evaluate_batch(requests, results);
  std::vector<DesignPoint> points;
  points.reserve(results.size());
  for (const auto& point : results) {
    if (point) points.push_back(*point);
  }
  return points;
}

EvalRequest make_comm_request(ModelVariant variant, const ChipConfig& chip,
                              const CommAppParams& app,
                              const GrowthFunction& grow_comp,
                              const GrowthFunction& grow_comm) {
  return EvalRequest{variant,
                     chip,
                     AppParams{app.name, app.f, app.fcon, 0.0},
                     grow_comp,
                     grow_comm,
                     app.comp_share};
}

std::vector<double> power_of_two_sizes(double n) {
  MS_CHECK(n >= 1.0, "chip budget must be at least one BCE");
  std::vector<double> sizes;
  for (double r = 1.0; r <= n; r *= 2.0) sizes.push_back(r);
  return sizes;
}

DesignPoint best_point(const std::vector<DesignPoint>& sweep) {
  MS_CHECK(!sweep.empty(), "cannot take the best point of an empty sweep");
  return *try_best_point(sweep);
}

std::optional<DesignPoint> try_best_point(
    const std::vector<DesignPoint>& sweep) noexcept {
  if (sweep.empty()) return std::nullopt;
  return *std::max_element(sweep.begin(), sweep.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.speedup < b.speedup;
                           });
}

DesignPoint optimal_symmetric(const ChipConfig& chip, const AppParams& app,
                              const GrowthFunction& growth) {
  return best_point(
      evaluate_sweep(EvalRequest{ModelVariant::kSymmetric, chip, app, growth},
                     power_of_two_sizes(chip.n)));
}

DesignPoint optimal_asymmetric(const ChipConfig& chip, const AppParams& app,
                               const GrowthFunction& growth) {
  EvalRequest request{ModelVariant::kAsymmetric, chip, app, growth};
  const std::vector<double> sizes = power_of_two_sizes(chip.n);
  DesignPoint best{1.0, 1.0, 0.0};
  for (double r : sizes) {
    request.r = r;
    if (auto candidate = try_best_point(evaluate_sweep(request, sizes));
        candidate && candidate->speedup > best.speedup) {
      best = *candidate;
    }
  }
  return best;
}

}  // namespace mergescale::core
