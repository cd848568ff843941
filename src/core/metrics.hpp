// Derived metrics over fixed points and trajectories.
#pragma once

#include <cstddef>

#include "core/model.hpp"
#include "ode/state.hpp"

namespace lsm::core {

/// Estimates the geometric decay ratio of the tail pi_{begin..} by a
/// log-linear least-squares fit over entries above `floor` (default stops
/// before truncation noise). Section 2.2's headline claim is that this
/// ratio equals lambda/(1 + lambda - pi_2) with stealing vs lambda without.
[[nodiscard]] double tail_decay_ratio(const ode::State& pi, std::size_t begin,
                                      double floor = 1e-10);

/// Integrates a static/drain model until the expected work per processor
/// falls below `epsilon`; returns the drain time (Section 3.5). The model
/// must have zero external arrivals for this to terminate.
[[nodiscard]] double drain_time(const MeanFieldModel& model, ode::State start,
                                double epsilon = 1e-3, double t_max = 1e5);

}  // namespace lsm::core
