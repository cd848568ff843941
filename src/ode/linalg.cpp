#include "ode/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lsm::ode {

namespace {

/// Writes the symmetric ordering into `order` (new index -> old index) and
/// returns the number of band unknowns. Columns with more than n/4
/// nonzeros go last, in index order, as the dense border. The rest follow
/// Cuthill-McKee breadth-first order on the symmetrized pattern: each
/// search starts at the lowest unvisited index and takes neighbours in
/// index order, so a tridiagonal matrix keeps the identity order.
std::size_t order_unknowns(const SparseColumns& a,
                           std::vector<std::size_t>& order) {
  const std::size_t n = a.n;
  // Row pattern (the transpose), columns ascending within each row:
  // counted into row_start[r + 2], so that filling row r advances
  // row_start[r + 1] from its start to its end.
  std::vector<std::size_t> row_start(n + 2, 0), cols(a.row.size());
  for (const std::size_t r : a.row) ++row_start[r + 2];
  std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = a.col_start[j]; p < a.col_start[j + 1]; ++p) {
      cols[row_start[a.row[p] + 1]++] = j;
    }
  }

  enum : char { kFree, kBorder, kOrdered };
  std::vector<char> state(n, kFree);
  for (std::size_t j = 0; j < n; ++j) {
    if (a.col_start[j + 1] - a.col_start[j] > n / 4) state[j] = kBorder;
  }
  order.clear();
  order.reserve(n);
  for (std::size_t start = 0; start < n; ++start) {
    if (state[start] != kFree) continue;
    state[start] = kOrdered;
    order.push_back(start);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      // Neighbours of v: column v's rows merged with row v's columns.
      const std::size_t v = order[head];
      std::size_t p = a.col_start[v], q = row_start[v];
      const std::size_t p_end = a.col_start[v + 1], q_end = row_start[v + 1];
      while (p < p_end || q < q_end) {
        const std::size_t u = q == q_end || (p < p_end && a.row[p] <= cols[q])
                                  ? a.row[p++]
                                  : cols[q++];
        if (state[u] == kFree) {
          state[u] = kOrdered;
          order.push_back(u);
        }
      }
    }
  }
  const std::size_t band = order.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (state[j] == kBorder) order.push_back(j);
  }
  return band;
}

/// The nonzeros of a dense square matrix.
SparseColumns compress(const Matrix& a) {
  LSM_EXPECT(a.rows() == a.cols(), "LU requires a square matrix");
  const std::size_t n = a.rows();
  SparseColumns out;
  out.n = n;
  out.col_start.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = a.row(r);
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c] != 0.0) ++out.col_start[c + 1];
    }
  }
  std::partial_sum(out.col_start.begin(), out.col_start.end(),
                   out.col_start.begin());
  out.row.resize(out.col_start[n]);
  out.value.resize(out.col_start[n]);
  std::vector<std::size_t> next(out.col_start.begin(),
                                out.col_start.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = a.row(r);
    for (std::size_t c = 0; c < n; ++c) {
      if (row[c] == 0.0) continue;
      out.row[next[c]] = r;
      out.value[next[c]++] = row[c];
    }
  }
  return out;
}

}  // namespace

LuSolver::LuSolver(const Matrix& a) : LuSolver(compress(a)) {}

LuSolver::LuSolver(const SparseColumns& a) : n_(a.n) {
  const std::size_t n = n_;
  LSM_EXPECT(a.col_start.size() == n + 1 && a.col_start[0] == 0 &&
                 a.row.size() == a.col_start[n] &&
                 a.value.size() == a.row.size(),
             "malformed sparse columns");
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = a.col_start[j]; p < a.col_start[j + 1]; ++p) {
      LSM_EXPECT(a.row[p] < n &&
                     (p == a.col_start[j] || a.row[p - 1] < a.row[p]),
                 "sparse column rows must ascend within range");
    }
  }
  m_ = order_unknowns(a, order_);
  const std::size_t m = m_, nb = n - m;
  std::vector<std::size_t> inv(n);
  for (std::size_t i = 0; i < n; ++i) inv[order_[i]] = i;

  // Working storage, indexed by row of P A P^T: each row's band columns
  // [lo, end) live at arena[off], with room up to column cap, and its
  // border columns at bord[row * nb]. Elimination never writes left of a
  // row's first nonzero, so lo is fixed; end widens with fill-in.
  struct Slot {
    std::size_t off, lo, end, cap;
  };
  std::vector<Slot> slot(n, Slot{0, m, 0, m});
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t q = inv[j];
    if (q >= m) continue;
    for (std::size_t p = a.col_start[j]; p < a.col_start[j + 1]; ++p) {
      Slot& s = slot[inv[a.row[p]]];
      s.lo = std::min(s.lo, q);
      s.end = std::max(s.end, q + 1);
    }
  }
  for (Slot& s : slot) s.end = std::max(s.end, s.lo);

  // reach[k]: the deepest band position whose row can be nonzero in
  // column k at step k. Band rows below it start right of column k and a
  // pivot swap only moves rows within reach, so the pivot search and the
  // elimination stop there (border rows are checked on their own).
  // far[k]: where the band rows starting by column k end, and so where the
  // pivot rows of steps up to k end while no border row pivots. The band
  // row at position r is pivoted by step r or displaced to at most
  // reach[r], so its slot reaches far[reach[r]]; a row that outgrows its
  // slot anyway (displaced twice, or filled by a border pivot row) moves to
  // a wider one at the end of the arena.
  std::vector<std::size_t> reach(m, 0), far(m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const Slot& s = slot[r];
    if (s.lo == m) continue;
    reach[s.lo] = std::max(reach[s.lo], r);
    far[s.lo] = std::max(far[s.lo], s.end);
  }
  for (std::size_t k = 1; k < m; ++k) {
    reach[k] = std::max(reach[k], reach[k - 1]);
    far[k] = std::max(far[k], far[k - 1]);
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    Slot& s = slot[r];
    if (r < m) s.cap = std::max(s.end, far[std::max(r, reach[r])]);
    s.off = total;
    total += s.cap - s.lo;
  }
  std::vector<double> arena(total, 0.0), bord(n * nb, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t q = inv[j];
    for (std::size_t p = a.col_start[j]; p < a.col_start[j + 1]; ++p) {
      const std::size_t r = inv[a.row[p]];
      if (q < m) {
        arena[slot[r].off + (q - slot[r].lo)] = a.value[p];
      } else {
        bord[r * nb + (q - m)] = a.value[p];
      }
    }
  }
  const auto grow = [&](Slot& s, std::size_t need) {
    const std::size_t width =
        std::min(m - s.lo, std::max(need - s.lo, 2 * (s.cap - s.lo)));
    const std::size_t at = arena.size();
    arena.resize(at + width, 0.0);
    std::copy_n(arena.data() + s.off, s.end - s.lo, arena.data() + at);
    s.off = at;
    s.cap = s.lo + width;
  };

  // id[r]: the row of P A P^T at position r; a pivot swap swaps ids.
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), std::size_t{0});

  // Band columns: partial pivoting over every row with a nonzero in
  // column k, in position order, then an update of each such row across
  // the pivot row's window and the border.
  for (std::size_t k = 0; k < m; ++k) {
    const auto entry = [&](std::size_t r) {
      const Slot& s = slot[id[r]];
      return k >= s.lo && k < s.end ? arena[s.off + (k - s.lo)] : 0.0;
    };
    const std::size_t bottom = std::max(k, reach[k]);
    std::size_t pivot = k;
    double best = std::abs(entry(k));
    const auto consider = [&](std::size_t r) {
      const double v = std::abs(entry(r));
      if (v > best) {
        best = v;
        pivot = r;
      }
    };
    for (std::size_t r = k + 1; r <= bottom; ++r) consider(r);
    for (std::size_t r = m; r < n; ++r) consider(r);
    if (best < 1e-300) throw util::Error("LuSolver: singular matrix");
    std::swap(id[k], id[pivot]);

    const std::size_t cp = id[k];
    const std::size_t pivot_end = slot[cp].end;
    const double inv_pivot = 1.0 / arena[slot[cp].off + (k - slot[cp].lo)];
    const auto eliminate = [&](std::size_t r) {
      const std::size_t c = id[r];
      Slot& s = slot[c];
      if (k < s.lo || k >= s.end) return;
      const double head = arena[s.off + (k - s.lo)];
      if (head == 0.0) return;
      if (pivot_end > s.cap) grow(s, pivot_end);
      const double factor = head * inv_pivot;
      double* row = arena.data() + s.off + (k - s.lo);
      const double* pivot_row = arena.data() + slot[cp].off + (k - slot[cp].lo);
      row[0] = factor;
      for (std::size_t t = 1; t < pivot_end - k; ++t) {
        row[t] -= factor * pivot_row[t];
      }
      s.end = std::max(s.end, pivot_end);
      double* brow = bord.data() + c * nb;
      const double* bpivot = bord.data() + cp * nb;
      for (std::size_t j = 0; j < nb; ++j) brow[j] -= factor * bpivot[j];
    };
    for (std::size_t r = k + 1; r <= bottom; ++r) eliminate(r);
    for (std::size_t r = m; r < n; ++r) eliminate(r);
  }

  // Border columns: the remaining nb x nb block is dense.
  for (std::size_t k = m; k < n; ++k) {
    const std::size_t kb = k - m;
    std::size_t pivot = k;
    double best = std::abs(bord[id[k] * nb + kb]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(bord[id[r] * nb + kb]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) throw util::Error("LuSolver: singular matrix");
    std::swap(id[k], id[pivot]);
    const double* bpivot = bord.data() + id[k] * nb;
    const double inv_pivot = 1.0 / bpivot[kb];
    for (std::size_t r = k + 1; r < n; ++r) {
      double* brow = bord.data() + id[r] * nb;
      if (brow[kb] == 0.0) continue;
      const double factor = brow[kb] * inv_pivot;
      brow[kb] = factor;
      for (std::size_t j = kb + 1; j < nb; ++j) brow[j] -= factor * bpivot[j];
    }
  }

  // The factors stay where elimination left them; position i refers to
  // its row's slot.
  band_ = std::move(arena);
  border_ = std::move(bord);
  window_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slot[id[i]];
    window_[i] = Window{s.off, s.lo, s.end, id[i]};
  }
  // The solve scatters unknown i to order_[i] in place, one cycle at a
  // time; inv marks the unknowns already on a cycle.
  for (std::size_t i = 0; i < n; ++i) {
    if (inv[i] == n || order_[i] == i) continue;
    cycle_leaders_.push_back(i);
    for (std::size_t j = i; inv[j] != n; j = order_[j]) inv[j] = n;
  }
}

std::vector<double> LuSolver::solve(std::vector<double> b) const {
  LSM_EXPECT(b.size() == n_, "rhs has wrong dimension");
  std::vector<double> x(n_);
  solve_into(b.data(), x.data());
  return x;
}

void LuSolver::solve_into(const double* b, double* x) const {
  const std::size_t n = n_, m = m_, nb = n - m;
  for (std::size_t i = 0; i < n; ++i) x[i] = b[order_[window_[i].row]];
  // Forward substitution (unit lower triangle): row i's band window left
  // of the diagonal, then its border columns left of it.
  for (std::size_t i = 0; i < n; ++i) {
    const Window& w = window_[i];
    const double* row = band_.data() + w.off;
    double acc = x[i];
    for (std::size_t j = w.lo; j < std::min(i, w.end); ++j) {
      acc -= row[j - w.lo] * x[j];
    }
    const double* brow = border_.data() + w.row * nb;
    for (std::size_t j = m; j < i; ++j) acc -= brow[j - m] * x[j];
    x[i] = acc;
  }
  // Back substitution: band columns right of the diagonal, then the
  // border's.
  for (std::size_t i = n; i-- > 0;) {
    const Window& w = window_[i];
    const double* brow = border_.data() + w.row * nb;
    double acc = x[i];
    if (i < m) {
      const double* row = band_.data() + w.off + (i - w.lo);
      for (std::size_t j = i + 1; j < w.end; ++j) acc -= row[j - i] * x[j];
      for (std::size_t j = 0; j < nb; ++j) acc -= brow[j] * x[m + j];
      x[i] = acc / row[0];
    } else {
      for (std::size_t j = i + 1; j < n; ++j) acc -= brow[j - m] * x[j];
      x[i] = acc / brow[i - m];
    }
  }
  for (const std::size_t lead : cycle_leaders_) {
    double v = x[lead];
    for (std::size_t j = order_[lead]; j != lead; j = order_[j]) {
      std::swap(v, x[j]);
    }
    x[lead] = v;
  }
}

}  // namespace lsm::ode
