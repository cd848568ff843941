// ode::LuSolver against a textbook dense LU kept here as the reference.
//
// The solver orders the unknowns symmetrically (dense columns last as a
// border, the rest in Cuthill-McKee order), then eliminates P A P^T over
// row windows: it skips rows with a zero multiplier and limits each row
// update to the pivot row's window. Pivot choice and the arithmetic on
// nonzeros are the textbook algorithm's applied to P A P^T, so its
// solutions must match the reference run on P A P^T bit for bit
// (EXPECT_EQ; only the sign of an exact zero may differ, which == does not
// see). The random matrices have the shape of the mean-field Jacobians: a
// band plus dense columns, or segment-major multi-segment states whose
// segments couple at offset +-L, plus a sparse low-rank term, with small
// diagonals so that pivots come from below the diagonal and the swapped
// rows' windows widen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "ode/krylov.hpp"
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

/// The reference applied to P A P^T y = P b, with x = P^T y; `order` is
/// LuSolver::order() (unknown i of P A P^T is unknown order[i] of A).
std::vector<double> reference_ordered_solve(
    const ode::Matrix& a, const std::vector<double>& b,
    const std::vector<std::size_t>& order) {
  const std::size_t n = a.rows();
  ode::Matrix pap(n, n);
  std::vector<double> pb(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) pap(i, j) = a(order[i], order[j]);
    pb[i] = b[order[i]];
  }
  const std::vector<double> y = reference_solve(pap, pb);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[order[i]] = y[i];
  return x;
}

/// Some permutation of 0 .. n-1.
bool is_permutation(const std::vector<std::size_t>& order, std::size_t n) {
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return sorted == ids;
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

struct SegmentShape {
  std::size_t segments, len;
  std::vector<std::size_t> dense_cols;
  std::size_t rank;
};

/// Segment-major state like the phase-type and transfer Jacobians: each
/// segment of `len` unknowns is tridiagonal with a weak diagonal, level i
/// of segment s couples to level i of segment s + 1 (offset +len) and to
/// level i + 2 of segment s - 1 (offset 2 - len), every row has an entry in
/// each of the dense columns, and `rank` sparse outer products are added.
/// The dense columns' own rows are scaled up so that they win pivots and
/// drag their wide windows into the band rows.
ode::Matrix segment_matrix(const SegmentShape& s, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t n = s.segments * s.len;
  ode::Matrix a(n, n);
  const auto signed_uniform = [&rng] { return 2.0 * rng.uniform() - 1.0; };
  for (std::size_t seg = 0; seg < s.segments; ++seg) {
    for (std::size_t i = 0; i < s.len; ++i) {
      const std::size_t r = seg * s.len + i;
      a(r, r) = 0.1 * signed_uniform();
      if (i > 0) a(r, r - 1) = signed_uniform();
      if (i + 1 < s.len) a(r, r + 1) = signed_uniform();
      if (seg + 1 < s.segments) a(r, r + s.len) = signed_uniform();
      if (seg > 0 && i + 2 < s.len) a(r, r + 2 - s.len) = signed_uniform();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t j : s.dense_cols) a(i, j) = signed_uniform();
  }
  for (const std::size_t j : s.dense_cols) {
    for (std::size_t c = 0; c < n; ++c) a(j, c) *= 8.0;
  }
  for (std::size_t q = 0; q < s.rank; ++q) {
    const auto pick = [&] {
      return static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    };
    const std::size_t i = pick(), j = pick();
    a(i, j) += signed_uniform();
  }
  return a;
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = 2.0 * rng.uniform() - 1.0;
  return b;
}

/// Factors `a` and checks the solve against the ordered reference bit for
/// bit, or that both throw. Returns whether it solved.
bool expect_matches_reference(const ode::Matrix& a,
                              const std::vector<double>& b,
                              const std::string& ctx) {
  std::unique_ptr<ode::LuSolver> lu;
  try {
    lu = std::make_unique<ode::LuSolver>(a);
  } catch (const util::Error&) {
    // Singular: so is P A P^T for any symmetric ordering the solver could
    // have chosen; the textbook LU of A must fail too.
    EXPECT_THROW((void)reference_solve(a, b), util::Error) << ctx;
    return false;
  }
  EXPECT_TRUE(is_permutation(lu->order(), a.rows())) << ctx;
  const std::vector<double> want = reference_ordered_solve(a, b, lu->order());
  const std::vector<double> got = lu->solve(b);
  EXPECT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << ctx << " i=" << i;
  }
  return true;
}

TEST(LuProfile, MatchesTextbookLuBitForBit) {
  // The 80 x 80 shape is dense: every column lands in the border and the
  // band is empty. The pure band shapes (no dense columns, no low-rank
  // term) have an empty border.
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
      if (expect_matches_reference(random_matrix(s, 1000 * si + seed),
                                   random_rhs(s.n, 77 + seed), ctx)) {
        ++solved;
      }
    }
  }
  EXPECT_GE(solved, 70u);  // the shapes are nonsingular almost surely
}

TEST(LuProfile, SegmentMajorShapesWithBorderMatchTextbookLu) {
  const std::vector<SegmentShape> shapes = {
      {2, 40, {1, 2}, 0},        {2, 60, {1, 2, 62, 63}, 3},
      {2, 97, {0, 98, 99}, 0},   {5, 24, {1, 2}, 2},
      {5, 30, {1, 2, 31, 32}, 0}, {5, 20, {3, 50, 99}, 4},
  };
  std::size_t solved = 0;
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const SegmentShape& s = shapes[si];
      const std::size_t n = s.segments * s.len;
      const std::string ctx = "segment shape " + std::to_string(si) +
                              " seed " + std::to_string(seed);
      const ode::Matrix a = segment_matrix(s, 500 * si + seed);
      if (expect_matches_reference(a, random_rhs(n, 31 + seed), ctx)) {
        ++solved;
      }
      // The dense columns form the border, last and in index order.
      const std::vector<std::size_t> order = ode::LuSolver(a).order();
      const std::size_t nd = s.dense_cols.size();
      EXPECT_TRUE(std::equal(s.dense_cols.begin(), s.dense_cols.end(),
                             order.end() - static_cast<std::ptrdiff_t>(nd)))
          << ctx;
    }
  }
  EXPECT_GE(solved, 25u);
}

TEST(LuProfile, OrderingKeepsTridiagonalAndInterleavesSegments) {
  // A tridiagonal matrix keeps the identity order, hence the profile LU's
  // exact arithmetic.
  const ode::Matrix tri = random_matrix({50, 1, 1, 0, 0}, 21);
  const ode::LuSolver tri_lu(tri);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(tri_lu.order()[i], i);
  const std::vector<double> b = random_rhs(50, 3);
  const std::vector<double> want = reference_solve(tri, b);
  const std::vector<double> got = tri_lu.solve(b);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], want[i]) << i;

  // Two coupled segments: the breadth-first order interleaves them, so
  // every coupling of P A P^T lies within a narrow band of the diagonal.
  const std::size_t len = 100, n = 2 * len;
  const ode::Matrix seg = segment_matrix({2, len, {}, 0}, 8);
  const std::vector<std::size_t> order = ode::LuSolver(seg).order();
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;
  std::size_t band = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (seg(i, j) == 0.0) continue;
      const std::size_t d = pos[i] > pos[j] ? pos[i] - pos[j] : pos[j] - pos[i];
      band = std::max(band, d);
    }
  }
  EXPECT_LE(band, 6u);
}

TEST(LuProfile, DenseAndSparseConstructorsAgree) {
  const ode::Matrix a = segment_matrix({2, 60, {1, 2, 62, 63}, 3}, 17);
  const std::size_t n = a.rows();
  // Compressed column by column, independently of the Matrix constructor.
  ode::SparseColumns csc;
  csc.n = n;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (a(i, j) == 0.0) continue;
      csc.row.push_back(i);
      csc.value.push_back(a(i, j));
    }
    csc.col_start.push_back(csc.row.size());
  }
  const ode::LuSolver dense(a), sparse(csc);
  EXPECT_EQ(dense.order(), sparse.order());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<double> b = random_rhs(n, seed);
    const std::vector<double> x = dense.solve(b), y = sparse.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], y[i]) << i;
  }
  // Rows out of order within a column are rejected.
  std::swap(csc.row[0], csc.row[1]);
  EXPECT_THROW(ode::LuSolver{csc}, util::LogicError);
}

/// f(s) = A s + c, with an optional batched kernel that evaluates each
/// lane with the scalar arithmetic.
class LinearSystem final : public ode::OdeSystem {
 public:
  LinearSystem(ode::Matrix a, bool batched)
      : a_(std::move(a)), batched_(batched) {}
  void deriv(double, const ode::State& s, ode::State& ds) const override {
    for (std::size_t i = 0; i < a_.rows(); ++i) ds[i] = row_times(i, s, 1, 0);
  }
  [[nodiscard]] bool deriv_batch(double, std::size_t nb, const double* x,
                                 double* dx) const override {
    if (!batched_) return false;
    for (std::size_t l = 0; l < nb; ++l) {
      for (std::size_t i = 0; i < a_.rows(); ++i) {
        dx[i * nb + l] = row_times(i, x, nb, l);
      }
    }
    return true;
  }
  [[nodiscard]] std::size_t dimension() const override { return a_.rows(); }

 private:
  template <class X>
  double row_times(std::size_t i, const X& x, std::size_t nb,
                   std::size_t l) const {
    double acc = 0.25 * static_cast<double>(i % 3);
    for (std::size_t j = 0; j < a_.cols(); ++j) acc += a_(i, j) * x[j * nb + l];
    return acc;
  }

  ode::Matrix a_;
  bool batched_;
};

TEST(LuProfile, FdJacobianRegularizesZeroRows) {
  // A linear system with two identically-zero rows (one of them a dense
  // column's row): factor_fd_jacobian must give them a unit diagonal and
  // factor exactly what the dense forward differences, so regularized,
  // factor to — on the batched and the scalar assembly path alike.
  ode::Matrix a = segment_matrix({2, 50, {1, 52}, 2}, 5);
  const std::size_t n = a.rows();
  for (const std::size_t zero_row : {std::size_t{1}, std::size_t{70}}) {
    for (std::size_t j = 0; j < n; ++j) a(zero_row, j) = 0.0;
  }
  ode::State s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  const double fd_eps = 1e-7;
  const std::vector<double> b = random_rhs(n, 12);
  std::vector<double> first;
  for (const bool batched : {true, false}) {
    const LinearSystem sys(a, batched);
    ode::State f(n), fp(n), pert = s;
    sys.deriv(0.0, s, f);
    // The dense forward-difference Jacobian, regularized.
    ode::Matrix jac(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      const double h = fd_eps * std::max(1.0, std::abs(s[j]));
      pert[j] = s[j] + h;
      sys.deriv(0.0, pert, fp);
      pert[j] = s[j];
      const double inv_h = 1.0 / h;
      for (std::size_t i = 0; i < n; ++i) jac(i, j) = (fp[i] - f[i]) * inv_h;
    }
    for (std::size_t i = 0; i < n; ++i) {
      bool zero = true;
      for (std::size_t j = 0; j < n; ++j) zero = zero && jac(i, j) == 0.0;
      if (zero) jac(i, i) = 1.0;
    }
    EXPECT_EQ(jac(1, 1), 1.0);
    EXPECT_EQ(jac(70, 70), 1.0);

    EXPECT_THROW((void)ode::detail::factor_fd_jacobian(sys, s, f, fd_eps),
                 util::Error);
    const auto lu = ode::detail::factor_fd_jacobian(
        sys, s, f, fd_eps, /*regularize_zero_rows=*/true);
    const std::vector<double> got = lu->solve(b);
    const std::vector<double> want =
        reference_ordered_solve(jac, b, lu->order());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
    if (first.empty()) {
      first = got;
    } else {
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], first[i]) << i;
    }
  }
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
  EXPECT_TRUE(expect_matches_reference(a, random_rhs(n, 9), "band zeros"));
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
  // And a zero row or column of the dense border block.
  ode::Matrix c = segment_matrix({2, 40, {1, 2}, 0}, 6);
  for (std::size_t j = 0; j < 80; ++j) c(2, j) = 0.0;
  EXPECT_THROW(ode::LuSolver{c}, util::Error);
}

TEST(LuProfile, SolveIntoMatchesSolve) {
  for (const ode::Matrix& a : {random_matrix({120, 2, 2, 3, 2}, 11),
                               segment_matrix({5, 24, {1, 2}, 2}, 11)}) {
    const std::size_t n = a.rows();
    const ode::LuSolver lu(a);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<double> b = random_rhs(n, seed);
      const std::vector<double> x = lu.solve(b);
      std::vector<double> y(n);
      lu.solve_into(b.data(), y.data());
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], y[i]) << i;
    }
  }
}

}  // namespace
