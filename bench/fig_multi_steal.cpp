// Figure F6 (Section 3.4 ablations): (a) stealing k tasks at once under a
// high threshold T = 6 -- with free transfers, equalizing load helps;
// (b) the Rudolph-Slivkin-Allalouf-Upfal pairwise re-balancing scheme at
// rates r, against threshold stealing.
#include <iostream>

#include "bench_common.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/rebalance_ws.hpp"
#include "core/threshold_ws.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F6: multi-steal and pairwise re-balancing", f);
  par::ThreadPool pool(util::worker_threads());
  const double lambda = 0.9;

  std::cout << "(a) steal k tasks per success, T = 6, lambda = 0.9\n";
  util::Table multi({"k", "Est E[T]", "Sim(128)"});
  for (std::size_t k : {1u, 2u, 3u}) {
    core::ComposedWS model(lambda, {.threshold = 6, .steal_count = k});
    sim::SimConfig cfg;
    cfg.processors = 128;
    cfg.arrival_rate = lambda;
    cfg.policy = sim::StealPolicy::on_empty(6, 1, k);
    multi.add_row({std::to_string(k),
                   util::Table::fmt(core::fixed_point_sojourn(model)),
                   util::Table::fmt(bench::sim_mean_sojourn(cfg, f, pool))});
  }
  multi.print(std::cout);

  std::cout << "\n(b) pairwise re-balancing at rate r, lambda = 0.9\n";
  util::Table reb({"r", "Est E[T]", "Sim(128)"});
  for (double r : {0.25, 0.5, 1.0, 2.0}) {
    core::RebalanceWS model(lambda, r);
    sim::SimConfig cfg;
    cfg.processors = 128;
    cfg.arrival_rate = lambda;
    cfg.policy = sim::StealPolicy::rebalance(r);
    reb.add_row({util::Table::fmt(r, 2),
                 util::Table::fmt(core::fixed_point_sojourn(model)),
                 util::Table::fmt(bench::sim_mean_sojourn(cfg, f, pool))});
  }
  reb.print(std::cout);

  std::cout << "\nreference: threshold stealing T=2 gives "
            << core::SimpleWS(lambda).analytic_sojourn()
            << ", no stealing gives " << 1.0 / (1.0 - lambda) << "\n";
  return 0;
}
