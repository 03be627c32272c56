#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fault.hpp"
#include "common/hash.hpp"

namespace ivory::sparse {

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::Auto: return "auto";
    case Kernel::Dense: return "dense";
    case Kernel::Banded: return "banded";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

void compress(const SparseStamp& s, CscMatrix& out) {
  const std::size_t n = s.n();
  const std::size_t nt = s.triplet_count();
  out.n = n;
  out.col_ptr.assign(n + 1, 0);

  // Counting sort by column, preserving triplet order within each column so
  // duplicate stamps later sum in insertion order (bit-identical to
  // accumulating into a dense matrix directly).
  std::vector<std::int32_t> count(n, 0);
  for (std::size_t t = 0; t < nt; ++t) ++count[static_cast<std::size_t>(s.cols()[t])];
  std::vector<std::size_t> start(n + 1, 0);
  for (std::size_t c = 0; c < n; ++c) start[c + 1] = start[c] + static_cast<std::size_t>(count[c]);
  std::vector<std::int32_t> rtmp(nt);
  std::vector<double> vtmp(nt);
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t slot = next[static_cast<std::size_t>(s.cols()[t])]++;
      rtmp[slot] = s.rows()[t];
      vtmp[slot] = s.vals()[t];
    }
  }

  out.row_ind.clear();
  out.val.clear();
  out.row_ind.reserve(nt);
  out.val.reserve(nt);
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t b = start[c], e = start[c + 1];
    order.resize(e - b);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = b + i;
    // Stable by row: equal rows keep insertion order for the merge below.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) { return rtmp[x] < rtmp[y]; });
    for (std::size_t i = 0; i < order.size();) {
      const std::int32_t r = rtmp[order[i]];
      double sum = vtmp[order[i]];
      for (++i; i < order.size() && rtmp[order[i]] == r; ++i) sum += vtmp[order[i]];
      out.row_ind.push_back(r);
      out.val.push_back(sum);
    }
    out.col_ptr[c + 1] = static_cast<std::int32_t>(out.row_ind.size());
  }
}

std::uint64_t CscMatrix::pattern_hash() const {
  const std::uint64_t n64 = n;
  std::uint64_t h = fnv1a64({reinterpret_cast<const char*>(&n64), sizeof n64});
  h = fnv1a64({reinterpret_cast<const char*>(col_ptr.data()),
               col_ptr.size() * sizeof(std::int32_t)},
              h);
  h = fnv1a64({reinterpret_cast<const char*>(row_ind.data()),
               row_ind.size() * sizeof(std::int32_t)},
              h);
  return h;
}

// ---------------------------------------------------------------------------
// Orderings
// ---------------------------------------------------------------------------

namespace {

// Sorted adjacency of the symmetric pattern of A + A^T, diagonal dropped.
std::vector<std::vector<std::int32_t>> symmetric_adjacency(const CscMatrix& a) {
  const std::size_t n = a.n;
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const std::int32_t r = a.row_ind[static_cast<std::size_t>(k)];
      if (static_cast<std::size_t>(r) == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(static_cast<std::int32_t>(c));
      adj[c].push_back(r);
    }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return adj;
}

// Breadth-first levels from `root` over unvisited nodes; returns the nodes
// reached in BFS order and the index of a farthest node among them.
std::vector<std::int32_t> bfs_component(const std::vector<std::vector<std::int32_t>>& adj,
                                        std::int32_t root, std::vector<char>& seen,
                                        std::int32_t* farthest) {
  std::vector<std::int32_t> order{root};
  seen[static_cast<std::size_t>(root)] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::int32_t nb : adj[static_cast<std::size_t>(order[head])])
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        order.push_back(nb);
      }
  }
  *farthest = order.back();
  return order;
}

// Reverse Cuthill-McKee over the symmetric pattern: per connected component,
// start from a pseudo-peripheral node (double BFS), append neighbours in
// (degree, id) order, reverse at the end. Deterministic. perm[new] = old.
std::vector<std::int32_t> rcm_order(const std::vector<std::vector<std::int32_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<std::int32_t> perm;
  perm.reserve(n);
  std::vector<char> seen(n, 0);
  const auto degree_less = [&](std::int32_t x, std::int32_t y) {
    const std::size_t dx = adj[static_cast<std::size_t>(x)].size();
    const std::size_t dy = adj[static_cast<std::size_t>(y)].size();
    return dx != dy ? dx < dy : x < y;
  };
  for (std::size_t s = 0; s < n; ++s) {
    if (seen[s]) continue;
    // Pseudo-peripheral start: BFS twice from the component's first node.
    std::vector<char> tmp(n, 0);
    std::int32_t far1 = 0, far2 = 0;
    bfs_component(adj, static_cast<std::int32_t>(s), tmp, &far1);
    std::fill(tmp.begin(), tmp.end(), 0);
    bfs_component(adj, far1, tmp, &far2);
    const std::int32_t root = far2;

    // Cuthill-McKee: BFS with neighbours appended in (degree, id) order.
    const std::size_t comp_begin = perm.size();
    perm.push_back(root);
    seen[static_cast<std::size_t>(root)] = 1;
    std::vector<std::int32_t> nbr;
    for (std::size_t head = comp_begin; head < perm.size(); ++head) {
      nbr.clear();
      for (const std::int32_t nb : adj[static_cast<std::size_t>(perm[head])])
        if (!seen[static_cast<std::size_t>(nb)]) {
          seen[static_cast<std::size_t>(nb)] = 1;
          nbr.push_back(nb);
        }
      std::sort(nbr.begin(), nbr.end(), degree_less);
      perm.insert(perm.end(), nbr.begin(), nbr.end());
    }
    std::reverse(perm.begin() + static_cast<std::ptrdiff_t>(comp_begin), perm.end());
  }
  return perm;
}

// Half bandwidth of A under the symmetric permutation perm (perm[new]=old).
int bandwidth_under(const CscMatrix& a, const std::vector<std::int32_t>& perm) {
  std::vector<std::int32_t> inv(a.n);
  for (std::size_t i = 0; i < a.n; ++i) inv[static_cast<std::size_t>(perm[i])] =
      static_cast<std::int32_t>(i);
  int bw = 0;
  for (std::size_t c = 0; c < a.n; ++c)
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const int d = std::abs(inv[static_cast<std::size_t>(
                        a.row_ind[static_cast<std::size_t>(k)])] -
                    inv[c]);
      bw = std::max(bw, d);
    }
  return bw;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural analysis / kernel selection
// ---------------------------------------------------------------------------

std::shared_ptr<const Symbolic> analyze(const CscMatrix& a, Kernel request) {
  require(a.n > 0, "sparse::analyze: empty system");
  auto sym = std::make_shared<Symbolic>();
  sym->n = a.n;
  sym->nnz = a.nnz();
  sym->pattern_hash = a.pattern_hash();

  const double density =
      static_cast<double>(a.nnz()) / (static_cast<double>(a.n) * static_cast<double>(a.n));
  Kernel k = request;
  if (k == Kernel::Auto) {
    // Small or genuinely dense systems: dense LU's constant factors win, and
    // the legacy byte-exact dense path is preserved for the converter-scale
    // circuits every existing test and bench pins down. Everything larger is
    // sparse enough that the RCM band profile bounds the fill.
    k = a.n <= 48 || density >= 0.25 ? Kernel::Dense : Kernel::Banded;
  }
  sym->kernel = k;
  if (k == Kernel::Banded) {
    sym->perm = rcm_order(symmetric_adjacency(a));
    sym->kl = sym->ku = bandwidth_under(a, sym->perm);
  }
  return sym;
}

// ---------------------------------------------------------------------------
// Banded LU (dgbtf2 / dgbtrs shape)
// ---------------------------------------------------------------------------

BandedLu::BandedLu(const CscMatrix& a, const std::vector<std::int32_t>& perm, int kl, int ku)
    : n_(a.n),
      kl_(kl),
      ku_(ku),
      kv_(kl + ku),
      ldab_(2 * kl + ku + 1),
      ab_(static_cast<std::size_t>(2 * kl + ku + 1) * a.n, 0.0),
      piv_(a.n),
      perm_(perm) {
  require(perm.size() == n_, "BandedLu: permutation size mismatch");
  std::vector<std::int32_t> inv(n_);
  for (std::size_t i = 0; i < n_; ++i) inv[static_cast<std::size_t>(perm_[i])] =
      static_cast<std::int32_t>(i);
  // Scatter A(p,p) into band storage: entry (i,j) at ab(kv + i - j, j).
  for (std::size_t c = 0; c < n_; ++c) {
    const std::int32_t j = inv[c];
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const std::int32_t i = inv[static_cast<std::size_t>(a.row_ind[static_cast<std::size_t>(k)])];
      require(i - j <= kl_ && j - i <= ku_, "BandedLu: entry outside declared band");
      ab_[static_cast<std::size_t>(j) * ldab_ + static_cast<std::size_t>(kv_ + i - j)] +=
          a.val[static_cast<std::size_t>(k)];
    }
  }

  const std::int32_t n = static_cast<std::int32_t>(n_);
  for (std::int32_t j = 0; j < n; ++j) {
    double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const std::int32_t km = std::min<std::int32_t>(kl_, n - 1 - j);
    // Partial pivot within the column's subdiagonal window.
    std::int32_t p = 0;
    double best = std::fabs(colj[kv_]);
    for (std::int32_t i = 1; i <= km; ++i) {
      const double v = std::fabs(colj[kv_ + i]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    // Negated comparison: a NaN pivot column is reported here, not solved
    // through. The offending column is reported in original indices.
    if (!(best >= 1e-300))
      throw SingularMatrixError(
          "BandedLu: singular or non-finite matrix (n=" + std::to_string(n_) +
              ", pivot column " + std::to_string(perm_[static_cast<std::size_t>(j)]) + ")",
          n_, static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    piv_[static_cast<std::size_t>(j)] = j + p;
    const std::int32_t ju = std::min<std::int32_t>(j + kv_, n - 1);
    if (p != 0) {
      for (std::int32_t jj = j; jj <= ju; ++jj) {
        double* cj = &ab_[static_cast<std::size_t>(jj) * ldab_];
        std::swap(cj[kv_ + j - jj], cj[kv_ + j + p - jj]);
      }
    }
    const double pivot = colj[kv_];
    for (std::int32_t i = 1; i <= km; ++i) colj[kv_ + i] /= pivot;
    for (std::int32_t jj = j + 1; jj <= ju; ++jj) {
      double* cj = &ab_[static_cast<std::size_t>(jj) * ldab_];
      const double f = cj[kv_ + j - jj];
      if (f == 0.0) continue;
      double* dst = &cj[kv_ + j - jj];  // dst[i] = entry (j + i, jj).
      // Stride-1 AXPY over the column slice: SIMD-amenable.
      for (std::int32_t i = 1; i <= km; ++i) dst[i] -= colj[kv_ + i] * f;
    }
  }
}

void BandedLu::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  require(b.size() == n_, "BandedLu::solve_into: dimension mismatch");
  require(&b != &x, "BandedLu::solve_into: b and x must not alias");
  const double injected = fault::inject("lu_solve");
  pb_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) pb_[i] = b[static_cast<std::size_t>(perm_[i])];
  if (n_ > 0) pb_[0] += injected;

  const std::int32_t n = static_cast<std::int32_t>(n_);
  // Forward: apply row interchanges and the unit-lower multipliers.
  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t pj = piv_[static_cast<std::size_t>(j)];
    if (pj != j) std::swap(pb_[static_cast<std::size_t>(j)], pb_[static_cast<std::size_t>(pj)]);
    const double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const std::int32_t km = std::min<std::int32_t>(kl_, n - 1 - j);
    const double yj = pb_[static_cast<std::size_t>(j)];
    if (yj == 0.0) continue;
    double* y = &pb_[static_cast<std::size_t>(j)];
    for (std::int32_t i = 1; i <= km; ++i) y[i] -= colj[kv_ + i] * yj;
  }
  // Backward over U (bandwidth kv_).
  for (std::int32_t j = n - 1; j >= 0; --j) {
    const double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const double xj = pb_[static_cast<std::size_t>(j)] / colj[kv_];
    pb_[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    const std::int32_t lm = std::min<std::int32_t>(kv_, j);
    double* y = &pb_[static_cast<std::size_t>(j)];
    for (std::int32_t i = 1; i <= lm; ++i) y[-i] -= colj[kv_ - i] * xj;
  }

  x.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) x[static_cast<std::size_t>(perm_[i])] = pb_[i];
  for (std::size_t i = 0; i < n_; ++i)
    if (!std::isfinite(x[i]))
      throw NonFiniteError("BandedLu::solve: non-finite solution component " +
                           std::to_string(i) + " (ill-conditioned or non-finite system)");
}

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

MnaFactorization::MnaFactorization(const CscMatrix& a, std::shared_ptr<const Symbolic> sym)
    : sym_(std::move(sym)) {
  require(sym_ != nullptr, "MnaFactorization: null symbolic");
  require(sym_->n == a.n, "MnaFactorization: symbolic/matrix size mismatch");
  switch (sym_->kernel) {
    case Kernel::Auto:
      throw InvalidParameter("MnaFactorization: symbolic carries unresolved Auto kernel");
    case Kernel::Dense: {
      // CSC holds each entry once, summed in insertion order — assembling the
      // dense matrix from it is bit-identical to stamping it directly.
      Matrix<double> m(a.n, a.n);
      for (std::size_t c = 0; c < a.n; ++c)
        for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k)
          m(static_cast<std::size_t>(a.row_ind[static_cast<std::size_t>(k)]), c) =
              a.val[static_cast<std::size_t>(k)];
      dense_.emplace(std::move(m));
      break;
    }
    case Kernel::Banded:
      banded_.emplace(a, sym_->perm, sym_->kl, sym_->ku);
      break;
  }
}

void MnaFactorization::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  if (dense_) dense_->solve_into(b, x);
  else banded_->solve_into(b, x);
}

std::size_t MnaFactorization::factor_nnz() const {
  if (dense_) return sym_->n * sym_->n;
  return banded_->factor_nnz();
}

}  // namespace ivory::sparse
