// Capacity planning: given a latency SLO (mean time in system), find the
// highest per-processor arrival rate each policy can sustain -- i.e. how
// much headroom work stealing buys before you must add machines. Uses
// bisection on the fixed-point sojourn.
//
//   ./cluster_sizing [--slo=3.0]
#include <functional>
#include <iostream>

#include "lsm.hpp"

namespace {

/// Largest lambda in (0, 0.99] whose predicted sojourn meets the SLO.
/// A load where the fixed-point solver fails to converge is far past any
/// reasonable SLO, so it simply counts as a violation.
double max_load(const std::function<double(double)>& sojourn_at, double slo) {
  const auto meets = [&](double lambda) {
    try {
      return sojourn_at(lambda) <= slo;
    } catch (const lsm::util::Error&) {
      return false;
    }
  };
  double lo = 0.01, hi = 0.99;
  if (meets(hi)) return hi;
  for (int iter = 0; iter < 30; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  const double slo = args.get("slo", 3.0);

  std::cout << "max sustainable per-processor load for mean-sojourn SLO "
            << slo << " (service time = 1)\n\n";

  lsm::util::Table table({"policy", "max lambda", "headroom vs no-steal"});
  const double base = max_load(
      [](double l) { return 1.0 / (1.0 - l); }, slo);
  table.add_row({"no stealing", lsm::util::Table::fmt(base, 4), "1.00x"});

  const auto add = [&](const std::string& name,
                       const std::function<double(double)>& f) {
    const double lam = max_load(f, slo);
    table.add_row({name, lsm::util::Table::fmt(lam, 4),
                   lsm::util::Table::fmt(lam / base, 2) + "x"});
  };
  add("steal on empty (T=2)", [](double l) {
    return lsm::core::SimpleWS(l).analytic_sojourn();
  });
  add("preemptive (B=2, T=2)", [](double l) {
    return lsm::core::fixed_point_sojourn(
        lsm::core::ComposedWS(l, {.begin_steal = 2}));
  });
  add("retries r=2 (T=2)", [](double l) {
    return lsm::core::fixed_point_sojourn(
        lsm::core::ComposedWS(l, {.retry_rate = 2.0}));
  });
  add("two choices (T=2)", [](double l) {
    return lsm::core::fixed_point_sojourn(
        lsm::core::ComposedWS(l, {.choices = 2}));
  });
  add("transfer r=0.5 (T=3)", [](double l) {
    return lsm::core::fixed_point_sojourn(
        lsm::core::StagedTransferWS(l, 0.5, 1, 3));
  });
  table.print(std::cout);
  std::cout << "\nreading: a 1.10x headroom means 10% more load per machine "
               "at the same SLO, i.e. ~9% fewer machines for fixed demand\n";
  return 0;
}
