// Former names of the experiment engine, kept for code that still spells
// them: exp::Runner runs every spec, warm-chained λ sweeps included (see
// exp/runner.hpp). New code should include exp/runner.hpp and use
// Runner/RunnerOptions.
#pragma once

#include "exp/runner.hpp"

namespace lsm::exp {

using SweepRunner = Runner;
using SweepOptions = RunnerOptions;

}  // namespace lsm::exp
