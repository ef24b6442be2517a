#include "krylov/preconditioner.hpp"

#include <algorithm>

#include "dist/harness.hpp"
#include "util/error.hpp"

namespace dsouth::krylov {

namespace {

class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const value_t> r, std::span<value_t> z) override {
    DSOUTH_CHECK(r.size() == z.size());
    std::copy(r.begin(), r.end(), z.begin());
  }
  const char* name() const override { return "identity"; }
};

class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a) : inv_diag_(a.diagonal()) {
    for (auto& d : inv_diag_) {
      DSOUTH_CHECK_MSG(d != 0.0, "zero diagonal");
      d = 1.0 / d;
    }
  }
  void apply(std::span<const value_t> r, std::span<value_t> z) override {
    DSOUTH_CHECK(r.size() == inv_diag_.size() && z.size() == r.size());
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
  }
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<value_t> inv_diag_;
};

class SymmetricGsPreconditioner final : public Preconditioner {
 public:
  explicit SymmetricGsPreconditioner(const CsrMatrix& a) : a_(&a) {
    DSOUTH_CHECK(a.rows() == a.cols());
    DSOUTH_CHECK(a.has_full_diagonal());
    diag_ = a.diagonal();
  }
  void apply(std::span<const value_t> r, std::span<value_t> z) override {
    const index_t n = a_->rows();
    DSOUTH_CHECK(r.size() == static_cast<std::size_t>(n));
    DSOUTH_CHECK(z.size() == static_cast<std::size_t>(n));
    // Solve (D + L) D⁻¹ (D + U) z = r via forward substitution, diagonal
    // scaling and back substitution (classical SSOR(1) preconditioner).
    scratch_.assign(static_cast<std::size_t>(n), 0.0);
    // Forward: (D + L) y = r.
    for (index_t i = 0; i < n; ++i) {
      value_t s = r[static_cast<std::size_t>(i)];
      auto cols = a_->row_cols(i);
      auto vals = a_->row_vals(i);
      for (std::size_t k = 0; k < cols.size() && cols[k] < i; ++k) {
        s -= vals[k] * scratch_[static_cast<std::size_t>(cols[k])];
      }
      scratch_[static_cast<std::size_t>(i)] =
          s / diag_[static_cast<std::size_t>(i)];
    }
    // Scale: y <- D y.
    for (index_t i = 0; i < n; ++i) {
      scratch_[static_cast<std::size_t>(i)] *=
          diag_[static_cast<std::size_t>(i)];
    }
    // Backward: (D + U) z = y.
    for (index_t i = n - 1; i >= 0; --i) {
      value_t s = scratch_[static_cast<std::size_t>(i)];
      auto cols = a_->row_cols(i);
      auto vals = a_->row_vals(i);
      for (std::size_t k = cols.size(); k-- > 0 && cols[k] > i;) {
        s -= vals[k] * z[static_cast<std::size_t>(cols[k])];
      }
      z[static_cast<std::size_t>(i)] = s / diag_[static_cast<std::size_t>(i)];
    }
  }
  const char* name() const override { return "symmetric-gs"; }

 private:
  const CsrMatrix* a_;
  std::vector<value_t> diag_;
  std::vector<value_t> scratch_;
};

class DistributedPreconditioner final : public Preconditioner {
 public:
  DistributedPreconditioner(const CsrMatrix& a,
                            const graph::Partition& partition,
                            const DistPreconditionerOptions& opt)
      : layout_(a, partition), opt_(opt), zeros_(a.rows(), 0.0) {
    DSOUTH_CHECK(opt.steps >= 1);
    name_ = std::string(dist::method_abbrev(opt.method)) + "(" +
            std::to_string(opt.steps) + " steps, P=" +
            std::to_string(layout_.num_ranks()) + ")";
  }

  void apply(std::span<const value_t> r, std::span<value_t> z) override {
    DSOUTH_CHECK(r.size() == zeros_.size());
    DSOUTH_CHECK(z.size() == zeros_.size());
    dist::RunHarness h(opt_.method, layout_, r, zeros_, opt_.run);
    for (index_t k = 0; k < opt_.steps; ++k) h.solver().step();
    auto x = h.solver().gather_x();
    std::copy(x.begin(), x.end(), z.begin());
    comm_cost_ += h.runtime().stats().comm_cost();
    model_time_ += h.runtime().model_time_seconds();
  }

  const char* name() const override { return name_.c_str(); }
  double comm_cost() const override { return comm_cost_; }
  bool is_variable() const override {
    // The Southwell selections depend on the input residual (genuinely
    // variable), and even fixed-step Block Jacobi uses nonsymmetric local
    // GS sweeps — all three need the flexible-CG pairing.
    return true;
  }
  double model_time() const { return model_time_; }

 private:
  dist::DistLayout layout_;
  DistPreconditionerOptions opt_;
  std::vector<value_t> zeros_;
  std::string name_;
  double comm_cost_ = 0.0;
  double model_time_ = 0.0;
};

}  // namespace

std::unique_ptr<Preconditioner> make_identity_preconditioner() {
  return std::make_unique<IdentityPreconditioner>();
}

std::unique_ptr<Preconditioner> make_jacobi_preconditioner(
    const CsrMatrix& a) {
  return std::make_unique<JacobiPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_symmetric_gs_preconditioner(
    const CsrMatrix& a) {
  return std::make_unique<SymmetricGsPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_distributed_preconditioner(
    const CsrMatrix& a, const graph::Partition& partition,
    const DistPreconditionerOptions& opt) {
  return std::make_unique<DistributedPreconditioner>(a, partition, opt);
}

}  // namespace dsouth::krylov
