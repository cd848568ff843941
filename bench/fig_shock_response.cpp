// Figure F11 (the content of Kurtz's theorem, visualized): the *transient
// trajectory* of a finite system tracks the ODE solution, not just its
// fixed point. A load shock -- half the machine starts with 12 tasks --
// arrives on top of lambda = 0.7 background traffic; we print tasks per
// processor and busy fraction over time, model vs n = 256 simulation,
// with and without stealing.
#include <iostream>

#include "bench_common.hpp"
#include "core/threshold_ws.hpp"
#include "ode/integrator.hpp"

namespace {

using namespace lsm;

/// Shock initial condition: fraction `frac` of processors hold `k` tasks.
ode::State shocked_state(const core::MeanFieldModel& model, double frac,
                         std::size_t k) {
  ode::State s(model.dimension(), 0.0);
  s[0] = 1.0;
  for (std::size_t i = 1; i <= k; ++i) s[i] = frac;
  return s;
}

/// Model trajectory sampled at exact multiples of dt (integration runs
/// segment by segment so sample times line up with the simulator's).
std::vector<sim::SimResult::TimelinePoint> model_timeline(
    const core::MeanFieldModel& model, ode::State s, double horizon,
    double dt) {
  std::vector<sim::SimResult::TimelinePoint> out;
  out.push_back({0.0, model.mean_tasks(s), s[1]});
  double t = 0.0;
  while (t < horizon) {
    const double target = std::min(t + dt, horizon);
    t = ode::integrate_adaptive(model, s, t, target, {});
    out.push_back({t, model.mean_tasks(s), s[1]});
  }
  return out;
}

}  // namespace

int main() {
  const auto f = bench::fidelity();
  bench::print_header(
      "Fig F11: shock response -- transient trajectory, model vs sim", f);
  par::ThreadPool pool(util::worker_threads());

  constexpr double kLambda = 0.7;
  constexpr std::size_t kShock = 12;
  constexpr double kHorizon = 40.0;
  constexpr double kDt = 2.0;

  core::ThresholdWS steal_model(kLambda, 2);
  core::NoStealing none_model(kLambda);
  const auto m_steal = model_timeline(
      steal_model, shocked_state(steal_model, 0.5, kShock), kHorizon, kDt);
  const auto m_none = model_timeline(
      none_model, shocked_state(none_model, 0.5, kShock), kHorizon, kDt);

  auto sim_timeline = [&](const sim::StealPolicy& policy) {
    sim::SimConfig cfg;
    cfg.processors = 256;
    cfg.arrival_rate = kLambda;
    cfg.policy = policy;
    cfg.initial_tasks = kShock;
    cfg.loaded_count = 128;
    cfg.horizon = kHorizon + 1.0;
    cfg.warmup = 0.0;
    cfg.timeline_dt = kDt;
    std::vector<sim::SimResult::TimelinePoint> acc;
    for (std::size_t rep = 0; rep < f.replications; ++rep) {
      cfg.seed = 42 + rep;
      const auto res = sim::simulate(cfg);
      if (acc.empty()) {
        acc = res.timeline;
      } else {
        for (std::size_t i = 0; i < acc.size() && i < res.timeline.size();
             ++i) {
          acc[i].mean_tasks += res.timeline[i].mean_tasks;
          acc[i].busy_fraction += res.timeline[i].busy_fraction;
        }
      }
    }
    for (auto& p : acc) {
      p.mean_tasks /= static_cast<double>(f.replications);
      p.busy_fraction /= static_cast<double>(f.replications);
    }
    return acc;
  };

  const auto s_steal = sim_timeline(lsm::sim::StealPolicy::on_empty(2));
  const auto s_none = sim_timeline(lsm::sim::StealPolicy::none());

  lsm::util::Table table({"t", "steal model E[N]", "steal sim E[N]",
                          "steal model busy", "steal sim busy",
                          "none model E[N]", "none sim E[N]"});
  const std::size_t rows = std::min({m_steal.size(), s_steal.size(),
                                     m_none.size(), s_none.size()});
  for (std::size_t i = 0; i < rows; ++i) {
    table.add_row({lsm::util::Table::fmt(m_steal[i].t, 1),
                   lsm::util::Table::fmt(m_steal[i].mean_tasks),
                   lsm::util::Table::fmt(s_steal[i].mean_tasks),
                   lsm::util::Table::fmt(m_steal[i].busy_fraction),
                   lsm::util::Table::fmt(s_steal[i].busy_fraction),
                   lsm::util::Table::fmt(m_none[i].mean_tasks),
                   lsm::util::Table::fmt(s_none[i].mean_tasks)});
  }
  table.print(std::cout);
  std::cout << "\nreading: the n = 256 trajectory rides the deterministic "
               "limit through the whole transient; stealing switches the "
               "idle half of the machine on within a couple of service "
               "times and drains the shock far sooner than independent "
               "queues do\n";
  return 0;
}
