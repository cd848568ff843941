// Figure F10 (quantifying the introduction's motivation): work stealing vs
// sender-initiated work sharing, on BOTH axes that matter -- expected time
// in system and control-message traffic. "When all processors are busy,
// no attempts are made to migrate work": the stealing message rate
// (s_1 - s_2 per processor) vanishes as lambda -> 1 while the sharing
// rate (lambda s_S) grows, and the response-time advantage flips to
// stealing exactly where messages get expensive.
//
// Runs through exp::Runner: both policies. fixed points, simulations and
// message counters come out of one cached grid, with the estimate-side
// rates read off the stored fixed-point tail profiles.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header(
      "Fig F10: stealing vs sharing -- response time and message traffic", f);
  constexpr std::size_t kShareThreshold = 2;

  exp::ExperimentSpec spec;
  spec.name = "fig_sharing_vs_stealing";
  spec.fidelity = f;
  spec.lambdas = {0.10, 0.30, 0.50, 0.70, 0.90, 0.95, 0.99};
  spec.outputs.tail_limit = 4;  // enough for s_1 - s_2 and lambda * s_S
  {
    exp::GridEntry steal;
    steal.label = "steal";
    steal.model = "simple";
    steal.config.processors = 128;
    steal.config.policy = sim::StealPolicy::on_empty(2);
    spec.add(std::move(steal));
  }
  {
    exp::GridEntry share;
    share.label = "share";
    share.model = "sharing";
    share.params = {{"S", static_cast<double>(kShareThreshold)}};
    share.config.processors = 128;
    share.config.policy = sim::StealPolicy::sharing(kShareThreshold);
    spec.add(std::move(share));
  }

  const auto report = exp::Runner().run(spec);

  util::Table table({"lambda", "steal E[T]", "share E[T]", "steal msg/s",
                     "share msg/s", "sim steal msg/s", "sim share msg/s"});
  for (const double lambda : spec.lambdas) {
    const auto& steal = report.at("steal", lambda);
    const auto& share = report.at("share", lambda);
    const double steal_rate = steal.est_tail[1] - steal.est_tail[2];
    const double share_rate = lambda * share.est_tail[kShareThreshold];
    table.add_row({util::Table::fmt(lambda, 2),
                   util::Table::fmt(steal.est_sojourn),
                   util::Table::fmt(share.est_sojourn),
                   util::Table::fmt(steal_rate, 4),
                   util::Table::fmt(share_rate, 4),
                   util::Table::fmt(steal.message_rate, 4),
                   util::Table::fmt(share.message_rate, 4)});
  }
  table.print(std::cout);
  std::cout << "\nreading: stealing's traffic peaks at moderate load and "
               "vanishes near saturation (busy processors never probe); "
               "sharing's traffic grows with load exactly when the network "
               "can least afford it\n"
            << report.summary() << "\n";
  return 0;
}
