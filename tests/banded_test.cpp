// Tests for the banded substrate behind the Newton-Krylov path's banded
// chord: banded storage/LU, banded FD Jacobians (batched vs scalar
// columns), and the Table 2 value the public solver reaches through that chord.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "ode/banded.hpp"
#include "ode/linalg.hpp"
#include "reference_solvers.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;
using ode::State;

// --- BandedMatrix -------------------------------------------------------------

TEST(BandedMatrix, StoresAndRetrievesWithinBand) {
  ode::BandedMatrix m(5, 1, 2);
  m.set(0, 0, 1.0);
  m.set(0, 2, 3.0);
  m.set(3, 2, -2.0);
  EXPECT_DOUBLE_EQ(m.get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.get(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.get(3, 2), -2.0);
  EXPECT_DOUBLE_EQ(m.get(4, 4), 0.0);  // unset entries read as 0
}

TEST(BandedMatrix, OutOfBandReadsAreZero) {
  ode::BandedMatrix m(6, 1, 1);
  EXPECT_DOUBLE_EQ(m.get(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(m.get(5, 0), 0.0);
}

TEST(BandedMatrix, RejectsOutOfBandWrites) {
  ode::BandedMatrix m(6, 1, 1);
  EXPECT_THROW(m.set(5, 0, 1.0), util::LogicError);
}

// --- BandedLuSolver ---------------------------------------------------------------

/// Builds matching banded and dense versions of a random diagonally
/// dominant band matrix and checks the two solvers agree.
TEST(BandedLu, MatchesDenseSolver) {
  util::Xoshiro256 rng(11);
  for (std::size_t kl : {1u, 3u}) {
    for (std::size_t ku : {1u, 2u}) {
      const std::size_t n = 40;
      ode::BandedMatrix band(n, kl, ku);
      ode::Matrix dense(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j_lo = i >= kl ? i - kl : 0;
        const std::size_t j_hi = std::min(i + ku, n - 1);
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
          const double v = (i == j) ? 5.0 : 2.0 * rng.uniform() - 1.0;
          band.set(i, j, v);
          dense(i, j) = v;
        }
      }
      std::vector<double> b(n);
      for (auto& v : b) v = rng.uniform();
      const auto xb = ode::BandedLuSolver(band).solve(b);
      const auto xd = ode::LuSolver(dense).solve(b);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(xb[i], xd[i], 1e-11) << "kl=" << kl << " ku=" << ku;
      }
    }
  }
}

TEST(BandedLu, PivotsWhenDiagonalVanishes) {
  // [[0, 1], [1, 0]] needs a row swap.
  ode::BandedMatrix m(2, 1, 1);
  m.set(0, 1, 1.0);
  m.set(1, 0, 1.0);
  const auto x = ode::BandedLuSolver(m).solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(BandedLu, DetectsSingularity) {
  ode::BandedMatrix m(3, 1, 1);
  m.set(0, 0, 1.0);  // row 1 is entirely zero
  m.set(2, 2, 1.0);
  EXPECT_THROW(ode::BandedLuSolver{std::move(m)}, util::Error);
}

TEST(BandedLu, TridiagonalLaplacianRoundTrip) {
  const std::size_t n = 100;
  ode::BandedMatrix m(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.set(i, i, 2.0);
    if (i > 0) m.set(i, i - 1, -1.0);
    if (i + 1 < n) m.set(i, i + 1, -1.0);
  }
  // Known solution x, compute b = Ax, solve back.
  std::vector<double> x_true(n), b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = std::sin(0.1 * static_cast<double>(i + 1));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 2.0 * x_true[i];
    if (i > 0) b[i] -= x_true[i - 1];
    if (i + 1 < n) b[i] -= x_true[i + 1];
  }
  const auto x = ode::BandedLuSolver(std::move(m)).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// --- BandedLuSolver against the row-major oracle ------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One band matrix written into both storages.
struct BandPair {
  ode::BandedMatrix band;
  reference::RowMajorBand oracle;

  BandPair(std::size_t n, std::size_t kl, std::size_t ku)
      : band(n, kl, ku), oracle(n, kl, ku) {}
  void set(std::size_t i, std::size_t j, double v) {
    band.set(i, j, v);
    oracle.set(i, j, v);
  }
};

/// Random band with weak diagonals, so partial pivoting swaps rows, and
/// some exact zeros, so some multipliers vanish.
BandPair random_band(std::size_t n, std::size_t kl, std::size_t ku,
                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  BandPair m(n, kl, ku);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_lo = i >= kl ? i - kl : 0;
    const std::size_t j_hi = std::min(i + ku, n - 1);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double u = rng.uniform();
      if (u < 0.15 && i != j) continue;  // an exact zero in the band
      m.set(i, j, (i == j ? 0.3 : 1.0) * (2.0 * rng.uniform() - 1.0));
    }
  }
  return m;
}

/// I - h J for the erlang c = 10 model at n = 621 (kl = ku = 10): a band
/// with the stage models' coupling pattern and magnitudes.
BandPair erlang_iteration(double h) {
  const core::ErlangServiceWS model(0.85, 10, 620);
  const State s = model.empty_state();
  const auto jac = ode::banded_fd_jacobian(model, 0.0, s, 10, 10);
  const std::size_t n = s.size();
  BandPair m(n, 10, 10);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_lo = i >= 10 ? i - 10 : 0;
    const std::size_t j_hi = std::min(i + 10, n - 1);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      m.set(i, j, (i == j ? 1.0 : 0.0) - h * jac.get(i, j));
    }
  }
  return m;
}

/// Factors, pivots and solves of `lu` equal the oracle's bit for bit;
/// returns the number of row swaps.
std::size_t expect_matches_oracle(const ode::BandedLuSolver& lu,
                                  const BandPair& m, std::uint64_t seed) {
  const reference::RowMajorBandedLu ref(m.oracle);
  const std::size_t n = m.band.size();
  const std::size_t kl = m.band.lower();
  const std::size_t ku = m.band.upper();
  EXPECT_EQ(lu.pivots(), ref.pivots());
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < n; ++j) {
    // Every stored entry of column j, fill rows included.
    const std::size_t i_lo = j >= ku + kl ? j - ku - kl : 0;
    const std::size_t i_hi = std::min(j + kl, n - 1);
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      if (bits(lu.factors().get(i, j)) != bits(ref.factors().get(i, j))) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "n=" << n << " kl=" << kl << " ku=" << ku;
  util::Xoshiro256 rng(seed);
  std::vector<double> b(n), x(n);
  for (int rep = 0; rep < 3; ++rep) {
    for (double& v : b) v = 2.0 * rng.uniform() - 1.0;
    const std::vector<double> want = ref.solve(b);
    lu.solve_into(b.data(), x.data());
    const std::vector<double> in_place = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(x[i]), bits(want[i])) << "i=" << i;
      EXPECT_EQ(bits(in_place[i]), bits(want[i])) << "i=" << i;
    }
  }
  std::size_t swaps = 0;
  for (std::size_t k = 0; k < n; ++k) swaps += ref.pivots()[k] != k ? 1 : 0;
  return swaps;
}

TEST(BandedLuOracle, UnequalBandsWithRowSwapsMatchBitForBit) {
  struct Shape {
    std::size_t n, kl, ku;
  };
  for (const Shape shape : {Shape{40, 3, 1}, Shape{57, 1, 4}, Shape{33, 5, 2},
                            Shape{64, 2, 7}, Shape{9, 8, 0}, Shape{12, 0, 3}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const BandPair m = random_band(shape.n, shape.kl, shape.ku, seed);
      const ode::BandedLuSolver lu(m.band);
      const std::size_t swaps = expect_matches_oracle(lu, m, seed);
      if (shape.kl > 0) {
        EXPECT_GT(swaps, 0U) << "n=" << shape.n << " kl=" << shape.kl;
      }
    }
  }
}

TEST(BandedLuOracle, ErlangIterationMatricesMatchBitForBit) {
  // Small steps keep the diagonal dominant; the long pseudo-transient
  // steps pivot.
  std::size_t swaps = 0;
  for (const double h : {0.1, 100.0, 1e6}) {
    const BandPair m = erlang_iteration(h);
    ASSERT_EQ(m.band.size(), 621U);
    const ode::BandedLuSolver lu(m.band);
    swaps += expect_matches_oracle(lu, m, 5);
  }
  EXPECT_GT(swaps, 0U);
}

TEST(BandedLuOracle, RefactorMatchesAFreshFactorization) {
  // Reusing the storage of an earlier factorization (pivots, fill) leaves
  // no trace: the factors are those of a fresh solver.
  const std::size_t n = 50, kl = 3, ku = 2;
  ode::BandedLuSolver lu(random_band(n, kl, ku, 7).band);
  for (std::uint64_t seed = 8; seed <= 10; ++seed) {
    const BandPair next = random_band(n, kl, ku, seed);
    lu.refactor([&](ode::BandedMatrix& m) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t i_lo = j >= ku ? j - ku : 0;
        for (std::size_t i = i_lo; i <= std::min(j + kl, n - 1); ++i) {
          m.set(i, j, next.band.get(i, j));
        }
      }
    });
    expect_matches_oracle(lu, next, seed);
  }
}

TEST(BandedMatrix, ColumnsAreContiguous) {
  ode::BandedMatrix m(6, 2, 1);
  double* col = m.column_from(1, 2);  // rows 1..4 of column 2
  for (std::size_t i = 1; i <= 4; ++i) *col++ = static_cast<double>(10 * i + 2);
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(m.get(i, 2), static_cast<double>(10 * i + 2));
  }
  EXPECT_EQ(m.get(0, 2), 0.0);  // a fill row of column 2: untouched
  EXPECT_EQ(m.get(5, 2), 0.0);  // below the band
}

// --- banded FD Jacobians ----------------------------------------------------------

/// Truly banded nonlinear system: a reaction-diffusion chain.
class Diffusion final : public ode::OdeSystem {
 public:
  explicit Diffusion(std::size_t n, double rate) : n_(n), rate_(rate) {}
  void deriv(double, const State& s, State& ds) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      const double left = i > 0 ? s[i - 1] : 0.0;
      const double right = i + 1 < n_ ? s[i + 1] : 0.0;
      ds[i] = rate_ * (left - 2.0 * s[i] + right) - s[i] * s[i] * s[i];
    }
  }
  [[nodiscard]] std::size_t dimension() const override { return n_; }

 private:
  std::size_t n_;
  double rate_;
};

/// A system's deriv without its lane kernel: the scalar FD column path.
class ScalarOnly final : public ode::OdeSystem {
 public:
  explicit ScalarOnly(const ode::OdeSystem& inner) : inner_(inner) {}
  void deriv(double t, const State& s, State& ds) const override {
    inner_.deriv(t, s, ds);
  }
  [[nodiscard]] std::size_t dimension() const override {
    return inner_.dimension();
  }

 private:
  const ode::OdeSystem& inner_;
};

TEST(BandedFd, BatchedColumnsEqualScalarColumns) {
  // The 8-lane assembly (including the short last block: 621 = 77 * 8 + 5)
  // writes the same band, bit for bit, with the same evaluation count.
  const core::ErlangServiceWS model(0.85, 10, 620);
  State s = model.mm1_state();
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] *= 1.0 + 0.01 * std::sin(static_cast<double>(i));
  }
  const ode::CountingSystem batched(model);
  const ScalarOnly scalar(model);
  const ode::CountingSystem counted_scalar(scalar);
  const auto a = ode::banded_fd_jacobian(batched, 0.0, s, 10, 10);
  const auto b = ode::banded_fd_jacobian(counted_scalar, 0.0, s, 10, 10);
  EXPECT_EQ(batched.evals(), s.size() + 1);
  EXPECT_EQ(counted_scalar.evals(), s.size() + 1);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::size_t j_lo = i >= 10 ? i - 10 : 0;
    for (std::size_t j = j_lo; j <= std::min(i + 10, s.size() - 1); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.get(i, j)),
                std::bit_cast<std::uint64_t>(b.get(i, j)))
          << i << "," << j;
    }
  }
}

TEST(BandedFd, RecoversAnalyticDerivatives) {
  Diffusion sys(10, 2.0);
  State s(10, 0.5);
  const auto jac = ode::banded_fd_jacobian(sys, 0.0, s, 1, 1);
  // d(ds_i)/d(s_i) = -2*rate - 3 s_i^2 = -4 - 0.75
  EXPECT_NEAR(jac.get(4, 4), -4.75, 1e-5);
  EXPECT_NEAR(jac.get(4, 5), 2.0, 1e-5);
  EXPECT_NEAR(jac.get(4, 3), 2.0, 1e-5);
}

// --- Stiff fixed points through the public solver ---------------------------

TEST(StiffRelax, ErlangFixedPointPathUsesStiffSolver) {
  // The public solver routes c > 1 stage models, which are stiff, to the
  // Newton-Krylov path with a banded chord and must deliver the Table 2
  // value.
  core::ErlangServiceWS model(0.9, 20);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_EQ(fp.method, ode::FixedPointMethod::Krylov);
  EXPECT_NEAR(model.mean_sojourn(fp.state), 2.709, 2e-3);
}

}  // namespace
