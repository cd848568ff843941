// Umbrella header for the lsm library: mean-field models of randomized
// work stealing (Mitzenmacher, SPAA 1998), fixed-point solvers, and the
// discrete-event simulator used to validate them.
#pragma once

#include "analysis/convergence.hpp"  // IWYU pragma: export
#include "analysis/finite_size.hpp"  // IWYU pragma: export
#include "analysis/spectral.hpp"     // IWYU pragma: export
#include "analysis/stability.hpp"    // IWYU pragma: export
#include "analysis/transient.hpp"    // IWYU pragma: export
#include "core/composed_ws.hpp"      // IWYU pragma: export
#include "core/erlang_ws.hpp"        // IWYU pragma: export
#include "core/fixed_point.hpp"      // IWYU pragma: export
#include "core/general_arrival_ws.hpp"  // IWYU pragma: export
#include "core/metrics.hpp"          // IWYU pragma: export
#include "core/model.hpp"            // IWYU pragma: export
#include "core/multi_class_ws.hpp"   // IWYU pragma: export
#include "core/rebalance_ws.hpp"     // IWYU pragma: export
#include "core/registry.hpp"         // IWYU pragma: export
#include "core/staged_transfer_ws.hpp"  // IWYU pragma: export
#include "core/threshold_ws.hpp"     // IWYU pragma: export
#include "core/work_sharing.hpp"     // IWYU pragma: export
#include "exp/runner.hpp"            // IWYU pragma: export
#include "exp/spec.hpp"              // IWYU pragma: export
#include "ode/integrator.hpp"        // IWYU pragma: export
#include "ode/krylov.hpp"            // IWYU pragma: export
#include "ode/steady_state.hpp"      // IWYU pragma: export
#include "parallel/parallel_for.hpp"  // IWYU pragma: export
#include "parallel/rng_streams.hpp"  // IWYU pragma: export
#include "parallel/thread_pool.hpp"  // IWYU pragma: export
#include "sim/replicate.hpp"         // IWYU pragma: export
#include "sim/simulator.hpp"         // IWYU pragma: export
#include "util/cli.hpp"              // IWYU pragma: export
#include "util/env.hpp"              // IWYU pragma: export
#include "util/json.hpp"             // IWYU pragma: export
#include "util/statistics.hpp"       // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
