#include "core/batch.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/fixed_point.hpp"
#include "ode/newton.hpp"
#include "ode/system.hpp"
#include "util/error.hpp"

namespace lsm::core {

namespace {

void gather_lane(const std::vector<double>& x, std::size_t nb, std::size_t l,
                 ode::State& out) {
  const std::size_t dim = x.size() / nb;
  out.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) out[i] = x[i * nb + l];
}

void scatter_lane(const ode::State& s, std::size_t nb, std::size_t l,
                  std::vector<double>& x) {
  for (std::size_t i = 0; i < s.size(); ++i) x[i * nb + l] = s[i];
}

}  // namespace

RhsBatchEvaluator::RhsBatchEvaluator(std::vector<const MeanFieldModel*> models)
    : models_(std::move(models)) {
  LSM_EXPECT(!models_.empty(), "RhsBatchEvaluator needs at least one lane");
  dim_ = models_[0]->dimension();
  lambdas_.reserve(models_.size());
  for (const MeanFieldModel* m : models_) {
    LSM_EXPECT(m->dimension() == dim_,
              "RhsBatchEvaluator lanes must share one dimension");
    lambdas_.push_back(m->lambda());
  }
  lane_x_.resize(dim_);
  lane_f_.resize(dim_);
}

void RhsBatchEvaluator::eval(const double* x, double* dx, bool root) {
  const std::size_t nb = models_.size();
  const bool batched =
      root ? models_[0]->root_residual_batch(nb, lambdas_.data(), x, dx)
           : models_[0]->rhs_batch(nb, lambdas_.data(), x, dx);
  if (batched) {
    ++passes_;
    evals_ += nb;
    return;
  }
  // No batched kernel: lane-by-lane through each lane's own model, so the
  // per-lane arrival rates still apply.
  for (std::size_t l = 0; l < nb; ++l) {
    for (std::size_t i = 0; i < dim_; ++i) lane_x_[i] = x[i * nb + l];
    if (root) {
      models_[l]->root_residual(lane_x_, lane_f_);
    } else {
      models_[l]->deriv(0.0, lane_x_, lane_f_);
    }
    for (std::size_t i = 0; i < dim_; ++i) dx[i * nb + l] = lane_f_[i];
  }
  evals_ += nb;
}

BatchSweepResult batched_lambda_sweep(
    const std::function<std::unique_ptr<MeanFieldModel>(double)>& factory,
    const std::vector<double>& lambdas, const BatchSweepOptions& opts) {
  BatchSweepResult res;
  res.points.resize(lambdas.size());
  if (lambdas.empty()) return res;
  const std::size_t lanes = std::max<std::size_t>(1, opts.lanes);

  // Scalar solves run with the stock FixedPointOptions (plus the sweep's
  // Krylov tuning), so a fallback is an ordinary trustworthy
  // core::solve_fixed_point — identical to a scalar sweep's point.
  FixedPointOptions scalar_opts;
  scalar_opts.krylov = opts.krylov;

  // The two most recent solved points (oldest first), each stored at the
  // truncation it was solved at; seeds for the next block extrapolate
  // between them.
  struct SolvedPoint {
    double lambda = 0.0;
    ode::State state;
    std::size_t trunc = 0;
  };
  std::vector<SolvedPoint> hist;
  ode::NewtonWorkspace chord;

  for (std::size_t base = 0; base < lambdas.size(); base += lanes) {
    const std::size_t nb = std::min(lanes, lambdas.size() - base);
    std::vector<std::unique_ptr<MeanFieldModel>> models;
    models.reserve(nb);
    std::size_t shared_trunc = 0;
    for (std::size_t l = 0; l < nb; ++l) {
      models.push_back(factory(lambdas[base + l]));
      shared_trunc = std::max(shared_trunc, models.back()->truncation());
    }

    // First block: one ordinary cold solve of lane 0 seeds every lane.
    ode::State cold_seed;
    std::size_t cold_seed_trunc = 0;
    if (hist.empty()) {
      FixedPointResult r = solve_fixed_point(*models[0], scalar_opts);
      res.rhs_evals += r.rhs_evals;
      cold_seed = std::move(r.state);
      cold_seed_trunc = r.state_truncation;
    }

    // All lanes of a block share one discretization so the batched kernel
    // can run them in lockstep; the widest lane (largest lambda of an
    // ascending grid) picks it.
    for (const auto& m : models) m->set_truncation(shared_trunc);
    const std::size_t dim = models[0]->dimension();
    for (const auto& m : models) {
      LSM_EXPECT(m->dimension() == dim,
                "batched_lambda_sweep lanes must share one dimension");
    }

    // Seed each lane: linear continuation from the two previous solved
    // points when available (clamped — near-critical curves bend too hard
    // for long linear steps), else the nearest single solved state.
    std::vector<ode::State> lane_states(nb);
    for (std::size_t l = 0; l < nb; ++l) {
      const double lam = lambdas[base + l];
      if (hist.size() >= 2) {
        ode::State newer =
            models[l]->resized_tail_state(hist[1].state, hist[1].trunc);
        const ode::State older =
            models[l]->resized_tail_state(hist[0].state, hist[0].trunc);
        const double dl = hist[1].lambda - hist[0].lambda;
        double t = dl != 0.0 ? (lam - hist[1].lambda) / dl : 0.0;
        t = std::clamp(t, 0.0, opts.extrapolation_max);
        for (std::size_t i = 0; i < dim; ++i) {
          newer[i] += t * (newer[i] - older[i]);
        }
        lane_states[l] = std::move(newer);
      } else if (!hist.empty()) {
        lane_states[l] =
            models[l]->resized_tail_state(hist[0].state, hist[0].trunc);
      } else {
        lane_states[l] =
            models[l]->resized_tail_state(cold_seed, cold_seed_trunc);
      }
      models[l]->project(lane_states[l]);
    }

    // Batched damped-Picard smoothing: every lane moves toward its fixed
    // point through ONE component-major pass per iteration.
    std::vector<const MeanFieldModel*> lane_ptrs;
    lane_ptrs.reserve(nb);
    for (const auto& m : models) lane_ptrs.push_back(m.get());
    RhsBatchEvaluator evaluator(std::move(lane_ptrs));
    std::vector<double> x(dim * nb);
    std::vector<double> f(dim * nb);
    for (std::size_t l = 0; l < nb; ++l) scatter_lane(lane_states[l], nb, l, x);
    ode::State lane_scratch(dim);
    for (std::size_t pass = 0; pass < opts.smoothing_passes; ++pass) {
      evaluator.eval(x.data(), f.data(), /*root=*/false);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] += opts.smoothing_gamma * f[i];
      }
      for (std::size_t l = 0; l < nb; ++l) {
        gather_lane(x, nb, l, lane_scratch);
        models[l]->project(lane_scratch);
        scatter_lane(lane_scratch, nb, l, x);
      }
    }
    res.rhs_evals += evaluator.rhs_evals();
    res.batch_passes += evaluator.batch_passes();

    // Per-lane Newton finish, left to right. Each lane starts from the
    // better of two seeds: its batched-smoothing iterate, or a one-step
    // staircase extrapolation of the two most recently FINISHED lanes.
    // The block-level seed above extrapolates up to `lanes` grid steps,
    // which near-critical curves do not forgive; the staircase restores
    // the scalar chain's one-step continuation quality for the far end of
    // the block at the cost of two residual evaluations per lane.
    ode::State last1, last2;
    double last1_lambda = 0.0, last2_lambda = 0.0;
    bool have1 = false, have2 = false;
    if (hist.size() >= 2) {
      last2 = models[0]->resized_tail_state(hist[0].state, hist[0].trunc);
      last2_lambda = hist[0].lambda;
      have2 = true;
    }
    if (!hist.empty()) {
      last1 =
          models[0]->resized_tail_state(hist.back().state, hist.back().trunc);
      last1_lambda = hist.back().lambda;
      have1 = true;
    } else {
      last1 = models[0]->resized_tail_state(cold_seed, cold_seed_trunc);
      last1_lambda = lambdas[base];
      have1 = true;
    }
    ode::State stair, f_probe(dim);
    for (std::size_t l = 0; l < nb; ++l) {
      const double lam = lambdas[base + l];
      gather_lane(x, nb, l, lane_states[l]);
      if (have1) {
        stair = last1;
        if (have2) {
          const double dl = last1_lambda - last2_lambda;
          double t = dl != 0.0 ? (lam - last1_lambda) / dl : 0.0;
          t = std::clamp(t, 0.0, opts.extrapolation_max);
          for (std::size_t i = 0; i < dim; ++i) {
            stair[i] += t * (stair[i] - last2[i]);
          }
        }
        models[l]->project(stair);
        models[l]->root_residual(lane_states[l], f_probe);
        const double smoothed_res = ode::norm_linf(f_probe);
        models[l]->root_residual(stair, f_probe);
        const double stair_res = ode::norm_linf(f_probe);
        res.rhs_evals += 2;
        if (stair_res < smoothed_res) lane_states[l] = stair;
      }
      const RootSystem root(*models[l]);
      ode::CountingSystem counted(root);
      double residual = 0.0;
      if (dim <= opts.newton_max_dim) {
        ode::NewtonOptions nopts;
        nopts.tol = opts.polish_tol;
        ode::NewtonResult nr =
            ode::newton_fixed_point(counted, lane_states[l], nopts, &chord);
        res.jacobian_builds += nr.jacobian_builds;
        lane_states[l] = std::move(nr.state);
        residual = nr.residual_norm;
      } else {
        ode::NewtonKrylovOptions kopts = opts.krylov;
        kopts.tol = opts.polish_tol;
        ode::NewtonKrylovResult nr =
            ode::newton_krylov_fixed_point(counted, lane_states[l], kopts,
                                           &chord);
        res.jacobian_builds += nr.jacobian_builds;
        lane_states[l] = std::move(nr.state);
        residual = nr.residual_norm;
      }
      res.rhs_evals += counted.evals();

      BatchSweepPoint& pt = res.points[base + l];
      pt.lambda = lambdas[base + l];
      if (residual <= opts.tol) {
        pt.residual = residual;
        pt.sojourn = models[l]->mean_sojourn(lane_states[l]);
      } else {
        // The batched phases missed this lane; a standalone scalar solve
        // (the same path the scalar sweep takes) supplies the answer.
        FixedPointResult r = solve_fixed_point(*models[l], scalar_opts);
        res.rhs_evals += r.rhs_evals;
        ++res.fallback_solves;
        pt.fallback = true;
        pt.residual = r.residual;
        pt.sojourn = models[l]->mean_sojourn(r.state);
        lane_states[l] = std::move(r.state);
      }
      last2 = std::move(last1);
      last2_lambda = last1_lambda;
      have2 = have1;
      last1 = lane_states[l];
      last1_lambda = lambdas[base + l];
      have1 = true;
    }

    hist.clear();
    if (nb >= 2) {
      hist.push_back({lambdas[base + nb - 2], std::move(lane_states[nb - 2]),
                      models[nb - 2]->truncation()});
    }
    hist.push_back({lambdas[base + nb - 1], std::move(lane_states[nb - 1]),
                    models[nb - 1]->truncation()});
  }
  return res;
}

}  // namespace lsm::core
