#include "analysis/finite_size.hpp"

#include <cmath>

#include "sim/replicate.hpp"
#include "util/error.hpp"

namespace lsm::analysis {

ScalingFit fit_one_over_n(const std::vector<std::size_t>& processor_counts,
                          const std::vector<double>& values) {
  LSM_EXPECT(processor_counts.size() == values.size(),
             "counts and values must align");
  LSM_EXPECT(processor_counts.size() >= 2, "need at least two points to fit");
  // Ordinary least squares of y on x = 1/n.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const auto m = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    LSM_EXPECT(processor_counts[i] >= 1, "processor counts must be >= 1");
    const double x = 1.0 / static_cast<double>(processor_counts[i]);
    sx += x;
    sy += values[i];
    sxx += x * x;
    sxy += x * values[i];
  }
  ScalingFit fit;
  fit.coefficient = (m * sxy - sx * sy) / (m * sxx - sx * sx);
  fit.limit = (sy - fit.coefficient * sx) / m;
  double ss = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double pred =
        fit.limit + fit.coefficient / static_cast<double>(processor_counts[i]);
    ss += (values[i] - pred) * (values[i] - pred);
  }
  fit.residual = std::sqrt(ss / m);
  fit.processor_counts = processor_counts;
  fit.values = values;
  return fit;
}

PowerLawFit fit_decay_exponent(const std::vector<std::size_t>& processor_counts,
                               const std::vector<double>& gaps,
                               const std::vector<double>& gap_ses,
                               double resolve_sigmas) {
  LSM_EXPECT(processor_counts.size() == gaps.size() &&
                 gaps.size() == gap_ses.size(),
             "counts, gaps and standard errors must align");
  PowerLawFit fit;
  fit.points_total = gaps.size();
  // Weighted least squares of y = ln|gap| on x = ln n. By the delta
  // method Var[ln|gap|] ~= (se/gap)^2, so each point's weight is
  // (gap/se)^2 — precise small-n points dominate, barely-resolved
  // large-n points contribute what their noise allows.
  double sw = 0.0, swx = 0.0, swy = 0.0, swxx = 0.0, swxy = 0.0;
  std::vector<double> xs, ys, ws;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    LSM_EXPECT(processor_counts[i] >= 1, "processor counts must be >= 1");
    const double gap = std::abs(gaps[i]);
    const double se = gap_ses[i];
    LSM_EXPECT(se >= 0.0, "standard errors must be non-negative");
    if (gap <= 0.0) continue;                  // sign flip through zero
    if (gap <= resolve_sigmas * se) continue;  // unresolved: noise floor
    const double x = std::log(static_cast<double>(processor_counts[i]));
    const double y = std::log(gap);
    const double rel = se > 0.0 ? se / gap : 1e-6;
    const double w = 1.0 / (rel * rel);
    xs.push_back(x);
    ys.push_back(y);
    ws.push_back(w);
    sw += w;
    swx += w * x;
    swy += w * y;
    swxx += w * x * x;
    swxy += w * x * y;
  }
  fit.points_used = xs.size();
  LSM_EXPECT(fit.points_used >= 2,
             "need at least two resolved gaps to fit a decay exponent");
  const double denom = sw * swxx - swx * swx;
  LSM_EXPECT(denom > 0.0, "degenerate design: all points at one n");
  const double slope = (sw * swxy - swx * swy) / denom;
  fit.exponent = -slope;  // gap ~ n^(-beta) means slope = -beta
  fit.log_amplitude = (swy - slope * swx) / sw;
  double wss = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - (fit.log_amplitude + slope * xs[i]);
    wss += ws[i] * r * r;
  }
  fit.residual = std::sqrt(wss / sw);
  // Heteroscedastic-consistent SE of the slope: with weights equal to
  // inverse variances, Var[slope] = 1 / (sum w (x - xbar_w)^2).
  const double xbar = swx / sw;
  double sxx_c = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx_c += ws[i] * (xs[i] - xbar) * (xs[i] - xbar);
  }
  fit.exponent_se = sxx_c > 0.0 ? 1.0 / std::sqrt(sxx_c) : 0.0;
  return fit;
}

ScalingFit sojourn_scaling(const sim::SimConfig& base,
                           const std::vector<std::size_t>& counts,
                           std::size_t replications, par::ThreadPool& pool) {
  std::vector<double> values;
  values.reserve(counts.size());
  for (std::size_t n : counts) {
    sim::SimConfig cfg = base;
    cfg.processors = n;
    values.push_back(
        sim::replicate(cfg, sim::ReplicateOptions{.replications = replications,
                                                  .pool = &pool})
            .sojourn.mean);
  }
  return fit_one_over_n(counts, values);
}

}  // namespace lsm::analysis
