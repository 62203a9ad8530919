#include "util/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lily {

SparseMatrix SparseMatrix::Builder::build() && {
    std::sort(triplets_.begin(), triplets_.end(), [](const Triplet& a, const Triplet& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });

    SparseMatrix m;
    m.n_ = n_;
    m.row_start_.assign(n_ + 1, 0);
    m.diag_.assign(n_, 0.0);
    m.diag_pos_.assign(n_, kNoEntry);
    m.anchor_slot_.assign(n_, 0);
    m.anchor_prefix_.assign(n_, 0.0);
    m.anchor_tail_start_.assign(n_ + 1, 0);
    // Merge duplicates while copying into CSR form. The fold order within
    // each (row, col) group is whatever permutation the (unstable) sort
    // produced; set_anchor must replay exactly that order, so record the
    // pre-slot fold and the post-slot values as we go.
    for (std::size_t k = 0; k < triplets_.size();) {
        const std::uint32_t row = triplets_[k].row;
        const std::uint32_t col = triplets_[k].col;
        double sum = 0.0;
        bool slot_seen = false;
        while (k < triplets_.size() && triplets_[k].row == row && triplets_[k].col == col) {
            if (row == col) {
                if (triplets_[k].anchor_slot) {
                    assert(!slot_seen && "at most one anchor slot per row");
                    slot_seen = true;
                    m.anchor_slot_[row] = 1;
                    m.anchor_prefix_[row] = sum;
                } else if (slot_seen) {
                    m.anchor_tail_vals_.push_back(triplets_[k].value);
                }
            }
            sum += triplets_[k].value;
            ++k;
        }
        if (row == col) {
            m.diag_[row] = sum;
            m.diag_pos_[row] = static_cast<std::uint32_t>(m.val_.size());
            m.anchor_tail_start_[row + 1] = static_cast<std::uint32_t>(m.anchor_tail_vals_.size());
        }
        m.col_.push_back(col);
        m.val_.push_back(sum);
        ++m.row_start_[row + 1];
    }
    // anchor_tail_start_ was only written at diagonal groups; make it a
    // proper running offset for every row.
    for (std::size_t r = 0; r < n_; ++r) {
        m.anchor_tail_start_[r + 1] =
            std::max(m.anchor_tail_start_[r + 1], m.anchor_tail_start_[r]);
    }
    for (std::size_t r = 0; r < n_; ++r) m.row_start_[r + 1] += m.row_start_[r];
    return m;
}

void SparseMatrix::set_diagonal(std::size_t i, double value) {
    assert(i < n_ && diag_pos_[i] != kNoEntry);
    val_[diag_pos_[i]] = value;
    diag_[i] = value;
}

void SparseMatrix::set_anchor(std::size_t i, double w) {
    assert(i < n_ && anchor_slot_[i] != 0 && diag_pos_[i] != kNoEntry);
    double s = anchor_prefix_[i] + w;
    for (std::size_t k = anchor_tail_start_[i]; k < anchor_tail_start_[i + 1]; ++k) {
        s += anchor_tail_vals_[k];
    }
    val_[diag_pos_[i]] = s;
    diag_[i] = s;
}

// The SpMV kernels hoist the array bases into locals and walk the entry
// index k straight through the rows (row_start_[r] of the next row is the ke
// the previous row stopped at). Per-row accumulation is a serial ascending
// left-fold, and every reduction folds its elementwise products inline in
// ascending row order — the same multiplies added in the same sequence as a
// standalone dot product (no FMA contraction on the baseline x86-64
// target). CG steers by these scalars, so any change in summation order
// would perturb every later iterate and un-pin the committed bench tables.
// The kernels are deliberately serial: the placement systems are a few
// thousand rows, where one pool fork/join per kernel call costs more than
// the sweep itself.
void SparseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp = x.data();
    double* const yp = y.data();
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * xp[cols[k]];
        yp[r] = acc;
    }
}

double SparseMatrix::multiply_dot_fold(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp = x.data();
    double* const yp = y.data();
    double s = 0.0;
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * xp[cols[k]];
        yp[r] = acc;
        s += xp[r] * acc;
    }
    return s;
}

void SparseMatrix::multiply_dot_fold2(std::span<const double> x1, std::span<double> y1,
                                      std::span<const double> x2, std::span<double> y2,
                                      double& fold1, double& fold2) const {
    assert(x1.size() == n_ && y1.size() == n_ && x2.size() == n_ && y2.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp1 = x1.data();
    const double* const xp2 = x2.data();
    double* const yp1 = y1.data();
    double* const yp2 = y2.data();
    double s1 = 0.0;
    double s2 = 0.0;
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double a1 = 0.0;
        double a2 = 0.0;
        for (; k < ke; ++k) {
            const double v = vals[k];
            const std::uint32_t c = cols[k];
            a1 += v * xp1[c];
            a2 += v * xp2[c];
        }
        yp1[r] = a1;
        s1 += xp1[r] * a1;
        yp2[r] = a2;
        s2 += xp2[r] * a2;
    }
    fold1 = s1;
    fold2 = s2;
}

double SparseMatrix::multiply_residual_fold(std::span<const double> x, std::span<const double> b,
                                            std::span<double> r) const {
    assert(x.size() == n_ && b.size() == n_ && r.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp = x.data();
    const double* const bp = b.data();
    double* const rp = r.data();
    double s = 0.0;
    std::uint32_t k = 0;
    for (std::size_t row = 0; row < n_; ++row) {
        const std::uint32_t ke = rs[row + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * xp[cols[k]];
        const double res = bp[row] - acc;
        rp[row] = res;
        s += res * res;
    }
    return s;
}

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

/// State of one conjugate-gradient solve. conjugate_gradient drives one of
/// these, conjugate_gradient_pair two in lockstep; both run the identical
/// per-axis arithmetic below, so a pair solve reproduces two sequential
/// solves bit for bit.
struct CgAxis {
    std::span<const double> b;
    std::span<double> x;
    std::span<double> r, z, p, ap;
    double stop = 0.0;
    double rz = 0.0;
    CgResult res;
    bool active = true;
};

/// Bind `ws` to a fresh solve of A x = b and run the setup pass: r = b - A x,
/// z = D^-1 r (Jacobi), p = z. Deactivates the axis when the initial guess
/// already meets the tolerance.
CgAxis start_axis(const SparseMatrix& a, std::span<const double> b, std::span<double> x,
                  CgWorkspace& ws, double tol) {
    const std::size_t n = a.size();
    assert(b.size() == n && x.size() == n);
    // resize(), not assign(): every element is written before it is read,
    // and a warmed workspace must not reallocate.
    ws.r.resize(n);
    ws.z.resize(n);
    ws.p.resize(n);
    ws.ap.resize(n);
    CgAxis ax{b, x, ws.r, ws.z, ws.p, ws.ap, 0.0, 0.0, {}, true};

    const double r_sq0 = a.multiply_residual_fold(x, b, ax.r);
    ax.stop = tol * std::max(1.0, std::sqrt(dot(b, b)));
    double rz = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = a.diagonal(i);
        ax.z[i] = d > 0.0 ? ax.r[i] / d : ax.r[i];
        rz += ax.r[i] * ax.z[i];
    }
    ax.rz = rz;
    std::copy(ax.z.begin(), ax.z.end(), ax.p.begin());
    ax.res.residual_norm = std::sqrt(r_sq0);
    if (ax.res.residual_norm <= ax.stop) {
        ax.res.converged = true;
        ax.active = false;
    }
    return ax;
}

/// One CG iteration on an active axis, given p.Ap (with ap = A p already
/// written by the SpMV).
void step_axis(const SparseMatrix& a, CgAxis& ax, double p_ap, std::size_t it) {
    if (!ax.active) return;
    if (p_ap <= 0.0) {  // matrix not SPD along p; this axis bails out
        ax.active = false;
        return;
    }
    const std::size_t n = a.size();
    const double alpha = ax.rz / p_ap;
    // One sweep: iterate update, convergence fold, and the next Jacobi
    // preconditioner application with its r.z fold. On the converging
    // iteration z and rz_next are simply dead values.
    double r_sq = 0.0;
    double rz_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ax.x[i] += alpha * ax.p[i];
        ax.r[i] -= alpha * ax.ap[i];
        r_sq += ax.r[i] * ax.r[i];
        const double d = a.diagonal(i);
        ax.z[i] = d > 0.0 ? ax.r[i] / d : ax.r[i];
        rz_next += ax.r[i] * ax.z[i];
    }
    ax.res.iterations = it + 1;
    ax.res.residual_norm = std::sqrt(r_sq);
    if (ax.res.residual_norm <= ax.stop) {
        ax.res.converged = true;
        ax.active = false;
        return;
    }
    const double beta = rz_next / ax.rz;
    ax.rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) ax.p[i] = ax.z[i] + beta * ax.p[i];
}

/// Budget gate before an iteration: one tick per active axis. Returns false
/// (and flags the axis) when the budget is spent.
bool tick_axis(CgAxis& ax, StageBudget* budget) {
    if (!ax.active || budget == nullptr || budget->tick()) return ax.active;
    // Out of budget: the axis keeps its current (partial) iterate.
    ax.res.budget_exhausted = true;
    ax.active = false;
    return false;
}

}  // namespace

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, CgWorkspace& ws, double tol,
                            std::size_t max_iters, StageBudget* budget) {
    CgAxis ax = start_axis(a, b, x, ws, tol);
    for (std::size_t it = 0; it < max_iters && tick_axis(ax, budget); ++it) {
        step_axis(a, ax, a.multiply_dot_fold(ax.p, ax.ap), it);
    }
    return ax.res;
}

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, double tol, std::size_t max_iters,
                            StageBudget* budget) {
    CgWorkspace ws;
    return conjugate_gradient(a, b, x, ws, tol, max_iters, budget);
}

std::pair<CgResult, CgResult> conjugate_gradient_pair(
    const SparseMatrix& a, std::span<const double> b1, std::span<double> x1, CgWorkspace& ws1,
    std::span<const double> b2, std::span<double> x2, CgWorkspace& ws2, double tol,
    std::size_t max_iters, StageBudget* budget) {
    CgAxis ax1 = start_axis(a, b1, x1, ws1, tol);
    CgAxis ax2 = start_axis(a, b2, x2, ws2, tol);
    for (std::size_t it = 0; it < max_iters; ++it) {
        const bool on1 = tick_axis(ax1, budget);
        const bool on2 = tick_axis(ax2, budget);
        double pap1 = 0.0;
        double pap2 = 0.0;
        if (on1 && on2) {
            a.multiply_dot_fold2(ax1.p, ax1.ap, ax2.p, ax2.ap, pap1, pap2);
        } else if (on1) {
            pap1 = a.multiply_dot_fold(ax1.p, ax1.ap);
        } else if (on2) {
            pap2 = a.multiply_dot_fold(ax2.p, ax2.ap);
        } else {
            break;
        }
        step_axis(a, ax1, pap1, it);
        step_axis(a, ax2, pap2, it);
    }
    return {ax1.res, ax2.res};
}

}  // namespace lily
