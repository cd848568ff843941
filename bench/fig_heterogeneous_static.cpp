// Figure F7 (Section 3.5): (a) heterogeneous processor speeds -- stealing
// lets slow processors shed load onto fast ones; (b) static systems --
// the limiting model predicts the drain time of an imbalanced initial
// load, with and without stealing.
#include <iostream>

#include "bench_common.hpp"
#include "core/fixed_point.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/metrics.hpp"
#include "core/multi_class_ws.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F7: heterogeneous speeds and static drains", f);
  par::ThreadPool pool(util::worker_threads());

  std::cout << "(a) 25% fast (mu=2) / 75% slow (mu=0.8), threshold T = 2\n";
  util::Table het({"lambda", "Est E[T]", "Sim(128)", "E[load|fast]",
                   "E[load|slow]"});
  for (double lambda : {0.70, 0.90, 0.99}) {
    core::MultiClassWS model(lambda, {{0.25, 2.0}, {0.75, 0.8}}, 2);
    const auto fp = core::solve_fixed_point(model);
    sim::SimConfig cfg;
    cfg.processors = 128;
    cfg.arrival_rate = lambda;
    cfg.speed_groups = {{32, 2.0}, {96, 0.8}};
    cfg.policy = sim::StealPolicy::on_empty(2);
    het.add_row({util::Table::fmt(lambda, 2),
                 util::Table::fmt(model.mean_sojourn(fp.state)),
                 util::Table::fmt(bench::sim_mean_sojourn(cfg, f, pool)),
                 util::Table::fmt(model.mean_tasks_in_class(fp.state, 0)),
                 util::Table::fmt(model.mean_tasks_in_class(fp.state, 1))});
  }
  het.print(std::cout);

  std::cout << "\n(b) static drain: half the processors start with k tasks "
               "(model drain time vs simulated, n = 256)\n";
  util::Table drain({"initial k", "model steal", "sim steal", "model none",
                     "sim none"});
  for (std::size_t k : {4u, 8u, 16u}) {
    auto steal = core::GeneralArrivalWS::static_system(2, 64);
    auto none = core::GeneralArrivalWS::static_system(60, 64);
    const double t_model_steal =
        core::drain_time(steal, steal.loaded_state(0.5, k), 0.01);
    const double t_model_none =
        core::drain_time(none, none.loaded_state(0.5, k), 0.01);

    auto sim_drain = [&](bool with_steal) {
      sim::SimConfig cfg;
      cfg.processors = 256;
      cfg.arrival_rate = 0.0;
      cfg.initial_tasks = k;
      cfg.loaded_count = 128;
      cfg.policy = with_steal ? sim::StealPolicy::on_empty(2)
                              : sim::StealPolicy::none();
      cfg.horizon = 1e6;
      cfg.warmup = 0.0;
      cfg.seed = 42;
      double acc = 0.0;
      for (std::size_t rep = 0; rep < f.replications; ++rep) {
        cfg.seed = 42 + rep;
        acc += sim::simulate(cfg).drain_time;
      }
      return acc / static_cast<double>(f.replications);
    };

    drain.add_row({std::to_string(k), util::Table::fmt(t_model_steal, 2),
                   util::Table::fmt(sim_drain(true), 2),
                   util::Table::fmt(t_model_none, 2),
                   util::Table::fmt(sim_drain(false), 2)});
  }
  drain.print(std::cout);
  std::cout
      << "\nnotes: (1) the model drains the *mean* load to 1% of a task per\n"
         "processor, while the simulated figure is the makespan (last\n"
         "completion) -- a max over exponentials that the limit never quite\n"
         "reaches; (2) stealing accelerates the bulk of the drain but can\n"
         "lengthen the makespan slightly at low imbalance, because spreading\n"
         "the final tasks over more processors takes a max over more\n"
         "exponential stragglers.\n";
  return 0;
}
