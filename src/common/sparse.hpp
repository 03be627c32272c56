// Sparse and banded MNA factorization kernels.
//
// Stamped MNA matrices for PDN ladders and on-chip power grids are
// overwhelmingly sparse (a handful of nonzeros per row) and, after a
// bandwidth-reducing permutation, near-banded. Dense LU (O(n^3) factor,
// O(n^2) solve) makes a 100x100 on-chip grid (~10k unknowns) intractable;
// the kernels here bring that to interactive speed while staying
// byte-deterministic, allocation-free on the solve path, and behind the same
// `solve_into` interface the transient integrator already uses.
//
// Pieces:
//
//  - SparseStamp: triplet accumulator filled directly by the MNA stamp
//    helpers — no dense intermediate is ever built.
//  - CscMatrix: compressed-sparse-column form with duplicates summed in
//    insertion order (so a dense matrix assembled from it is bit-identical
//    to one stamped directly — the dense kernel reproduces the legacy path
//    byte for byte).
//  - analyze(): one-time structural analysis per sparsity pattern — kernel
//    selection (size/density rule with an explicit override) and the
//    reverse-Cuthill-McKee ordering the banded kernel needs. The returned
//    Symbolic is immutable and shared (shared_ptr) across every numeric
//    factorization with the same pattern, so a switch-state change
//    refactorizes numerically without re-running symbolic analysis.
//  - BandedLu: LAPACK-style band-storage LU with partial pivoting
//    (dgbtf2/dgbtrs shape). Inner elimination and substitution loops run
//    over contiguous band columns — stride-1, SIMD-amenable.
//  - MnaFactorization: the kernel-dispatching factorization the transient
//    LU cache stores; `solve_into` matches LuFactorization's contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace ivory::sparse {

enum class Kernel { Auto, Dense, Banded };

/// Lower-case kernel name ("auto", "dense", "banded").
const char* kernel_name(Kernel k);

/// Triplet (COO) accumulator for MNA stamping. `add` appends; duplicates are
/// summed at compression time in insertion order, matching the accumulation
/// order of stamping straight into a dense matrix.
class SparseStamp {
 public:
  explicit SparseStamp(std::size_t n) : n_(n) {}

  std::size_t n() const { return n_; }
  std::size_t triplet_count() const { return row_.size(); }

  void add(std::size_t r, std::size_t c, double v) {
    row_.push_back(static_cast<std::int32_t>(r));
    col_.push_back(static_cast<std::int32_t>(c));
    val_.push_back(v);
  }

  /// Clears the triplets (capacity retained) for re-stamping.
  void reset() {
    row_.clear();
    col_.clear();
    val_.clear();
  }

  const std::vector<std::int32_t>& rows() const { return row_; }
  const std::vector<std::int32_t>& cols() const { return col_; }
  const std::vector<double>& vals() const { return val_; }

 private:
  std::size_t n_;
  std::vector<std::int32_t> row_, col_;
  std::vector<double> val_;
};

/// Compressed sparse column matrix. Row indices are sorted within each
/// column; duplicate stamps have been summed in insertion order.
struct CscMatrix {
  std::size_t n = 0;
  std::vector<std::int32_t> col_ptr;  ///< n + 1 entries.
  std::vector<std::int32_t> row_ind;  ///< nnz entries.
  std::vector<double> val;            ///< nnz entries.

  std::size_t nnz() const { return row_ind.size(); }

  /// FNV-1a over (n, col_ptr, row_ind): identifies the sparsity pattern, not
  /// the values — the key for sharing Symbolic analyses.
  std::uint64_t pattern_hash() const;
};

/// Compresses `s` into `out`, reusing `out`'s storage.
void compress(const SparseStamp& s, CscMatrix& out);

/// Immutable structural analysis of one sparsity pattern: the selected
/// kernel plus the ordering the banded kernel needs. Shared across all numeric
/// factorizations with the same pattern (the symbolic/numeric split).
struct Symbolic {
  Kernel kernel = Kernel::Dense;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::uint64_t pattern_hash = 0;

  /// Banded kernel: symmetric permutation (perm[new] = old) and half
  /// bandwidths of the permuted matrix.
  std::vector<std::int32_t> perm;
  int kl = 0, ku = 0;
};

/// One-time structural analysis. `request` = Kernel::Auto applies the
/// size/density rule; any other value forces that kernel.
///
/// Rule: dense for small or dense systems (n <= 48 or density >= 25%, where
/// dense LU's constant factors win and the legacy byte-exact path is
/// preserved); banded under the RCM ordering otherwise (PDN ladders, regular
/// grids, and any larger sparse circuit — the band profile bounds the fill).
std::shared_ptr<const Symbolic> analyze(const CscMatrix& a, Kernel request);

/// Band-storage LU with partial pivoting on the symmetrically permuted
/// matrix A(p,p). Storage is the LAPACK band layout: ldab = 2*kl + ku + 1
/// rows per column, diagonal at row kl + ku, with kl extra superdiagonals
/// absorbing pivoting fill.
class BandedLu {
 public:
  BandedLu(const CscMatrix& a, const std::vector<std::int32_t>& perm, int kl, int ku);

  /// Allocation-free after first use; `b` and `x` must not alias.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// Occupied band-storage entries (the banded analogue of nnz(L+U)).
  std::size_t factor_nnz() const { return static_cast<std::size_t>(ldab_) * n_; }

 private:
  std::size_t n_ = 0;
  int kl_ = 0, ku_ = 0, kv_ = 0, ldab_ = 0;
  std::vector<double> ab_;             ///< Column-major band storage.
  std::vector<std::int32_t> piv_;      ///< Row pivot at each elimination step.
  std::vector<std::int32_t> perm_;     ///< perm[new] = old.
  mutable std::vector<double> pb_;     ///< Permuted-RHS scratch.
};

/// Kernel-dispatching factorization: dense LuFactorization or BandedLu per
/// the shared Symbolic. This is what the transient keyed LU
/// cache stores; `solve_into` has the same contract as LuFactorization's.
class MnaFactorization {
 public:
  MnaFactorization(const CscMatrix& a, std::shared_ptr<const Symbolic> sym);

  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> x;
    solve_into(b, x);
    return x;
  }

  Kernel kernel() const { return sym_->kernel; }
  const Symbolic& symbolic() const { return *sym_; }
  std::size_t factor_nnz() const;

 private:
  std::shared_ptr<const Symbolic> sym_;
  std::optional<LuFactorization<double>> dense_;
  std::optional<BandedLu> banded_;
};

}  // namespace ivory::sparse
