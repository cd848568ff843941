// ode::LuSolver against a textbook dense LU kept here as the reference.
//
// The solver skips rows with a zero multiplier and limits each row update
// to the pivot row's nonzero profile. Pivot choice and the arithmetic on
// nonzeros are the textbook algorithm's, so its solutions must match the
// reference bit for bit (EXPECT_EQ; only the sign of an exact zero may
// differ, which == does not see). The random matrices have the shape of the
// mean-field Jacobians (a band plus dense leading columns) plus a sparse
// low-rank term, with small diagonals so that pivots come from below the
// diagonal and the swapped rows' profiles widen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "ode/linalg.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

/// Textbook LU with partial pivoting over every row and column.
std::vector<double> reference_solve(ode::Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(a(r, k)) > best) {
        best = std::abs(a(r, k));
        pivot = r;
      }
    }
    if (best < 1e-300) throw util::Error("reference: singular matrix");
    if (pivot != k) {
      std::swap(perm[pivot], perm[k]);
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(k, c));
    }
    const double inv = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a(r, k) * inv;
      a(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= factor * a(k, c);
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= a(i, j) * x[j];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= a(i, j) * x[j];
    x[i] /= a(i, i);
  }
  return x;
}

struct Shape {
  std::size_t n, kl, ku, dense_cols, rank;
};

/// Band (kl below, ku above the diagonal) with a weak diagonal, plus
/// `dense_cols` dense leading columns, plus `rank` sparse outer products
/// u v^T whose u touches a few rows and v a few far columns.
ode::Matrix random_matrix(const Shape& s, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  ode::Matrix a(s.n, s.n);
  const auto signed_uniform = [&rng] { return 2.0 * rng.uniform() - 1.0; };
  for (std::size_t i = 0; i < s.n; ++i) {
    const std::size_t lo = i >= s.kl ? i - s.kl : 0;
    const std::size_t hi = std::min(s.n - 1, i + s.ku);
    for (std::size_t j = lo; j <= hi; ++j) {
      a(i, j) = (i == j ? 0.1 : 1.0) * signed_uniform();
    }
    for (std::size_t j = 0; j < std::min(s.dense_cols, s.n); ++j) {
      a(i, j) = signed_uniform();
    }
  }
  for (std::size_t q = 0; q < s.rank; ++q) {
    std::vector<double> u(s.n, 0.0), v(s.n, 0.0);
    for (int t = 0; t < 4; ++t) {
      u[static_cast<std::size_t>(rng.uniform() * static_cast<double>(s.n))] =
          signed_uniform();
      v[static_cast<std::size_t>(rng.uniform() * static_cast<double>(s.n))] =
          signed_uniform();
    }
    for (std::size_t i = 0; i < s.n; ++i) {
      if (u[i] == 0.0) continue;
      for (std::size_t j = 0; j < s.n; ++j) a(i, j) += u[i] * v[j];
    }
  }
  return a;
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = 2.0 * rng.uniform() - 1.0;
  return b;
}

TEST(LuProfile, MatchesTextbookLuBitForBit) {
  const std::vector<Shape> shapes = {
      {1, 0, 0, 0, 0},    {7, 1, 1, 0, 0},    {40, 2, 1, 0, 0},
      {64, 1, 3, 1, 0},   {96, 3, 2, 2, 1},   {120, 2, 2, 3, 2},
      {150, 5, 1, 0, 3},  {80, 79, 79, 0, 0}, {100, 1, 1, 0, 4},
      {130, 0, 4, 2, 0},
  };
  std::size_t solved = 0;
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Shape& s = shapes[si];
      const std::string ctx = "shape " + std::to_string(si) + " seed " +
                              std::to_string(seed);
      const ode::Matrix a = random_matrix(s, 1000 * si + seed);
      const std::vector<double> b = random_rhs(s.n, 77 + seed);
      std::vector<double> want;
      try {
        want = reference_solve(a, b);
      } catch (const util::Error&) {
        EXPECT_THROW(ode::LuSolver{a}, util::Error) << ctx;
        continue;
      }
      const std::vector<double> got = ode::LuSolver(a).solve(b);
      ASSERT_EQ(got.size(), want.size()) << ctx;
      for (std::size_t i = 0; i < s.n; ++i) {
        EXPECT_EQ(got[i], want[i]) << ctx << " i=" << i;
      }
      ++solved;
    }
  }
  EXPECT_GE(solved, 70u);  // the shapes are nonsingular almost surely
}

TEST(LuProfile, ZeroMultipliersAndEmptyRowsInsideTheBand) {
  // Exact zeros inside the band: rows whose multiplier is exactly zero are
  // skipped, and a row that starts far right of the diagonal must still
  // pick up fill-in once a pivot swap puts it in play.
  const std::size_t n = 30;
  ode::Matrix a = random_matrix({n, 2, 2, 0, 0}, 5);
  for (std::size_t i = 3; i < n; i += 4) a(i, i - 1) = 0.0;
  for (std::size_t j = 0; j < n; ++j) a(10, j) = 0.0;
  a(10, 25) = 3.0;
  a(0, 0) = 0.0;
  const std::vector<double> b = random_rhs(n, 9);
  const auto want = reference_solve(a, b);
  const auto got = ode::LuSolver(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
}

TEST(LuProfile, SingularMatrixThrows) {
  // A zero column stays zero under elimination.
  ode::Matrix a = random_matrix({50, 2, 2, 1, 1}, 3);
  for (std::size_t i = 0; i < 50; ++i) a(i, 17) = 0.0;
  EXPECT_THROW(ode::LuSolver{a}, util::Error);
  // So does a zero row, wherever it lands after pivoting.
  ode::Matrix b = random_matrix({50, 2, 2, 1, 1}, 4);
  for (std::size_t j = 0; j < 50; ++j) b(33, j) = 0.0;
  EXPECT_THROW(ode::LuSolver{b}, util::Error);
}

TEST(LuProfile, SolveIntoMatchesSolve) {
  const ode::Matrix a = random_matrix({120, 2, 2, 3, 2}, 11);
  const ode::LuSolver lu(a);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<double> b = random_rhs(120, seed);
    const std::vector<double> x = lu.solve(b);
    std::vector<double> y(120);
    lu.solve_into(b.data(), y.data());
    for (std::size_t i = 0; i < 120; ++i) EXPECT_EQ(x[i], y[i]) << i;
  }
}

}  // namespace
