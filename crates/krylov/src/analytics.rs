//! Convergence analytics derived from Krylov recurrence coefficients.
//!
//! CG's scalars are a Lanczos process in disguise: the step sizes `αᵢ`
//! and direction updates `βᵢ` assemble the symmetric tridiagonal matrix
//!
//! ```text
//!   T[0,0]   = 1/α₀
//!   T[i,i]   = 1/αᵢ + βᵢ₋₁/αᵢ₋₁          (i ≥ 1)
//!   T[i,i-1] = √βᵢ₋₁ / αᵢ₋₁
//! ```
//!
//! whose extreme eigenvalues converge (from the inside) to the extreme
//! eigenvalues of the preconditioned operator M⁻¹A. The ratio is the
//! condition-number estimate `κ̂` the solve ledger reports, and the
//! classical CG bound turns `κ̂` into an iteration estimate for the
//! *unpreconditioned* problem — the denominator of the ledger's
//! "preconditioner quality" figure.

/// Eigenvalue count of the symmetric tridiagonal `(diag, offdiag)` that
/// is strictly less than `x`, by the Sturm-sequence recurrence.
fn sturm_count(diag: &[f64], offdiag: &[f64], x: f64) -> usize {
    let mut count = 0usize;
    let mut d = 1.0f64;
    for (i, &a) in diag.iter().enumerate() {
        let off2 = if i == 0 { 0.0 } else { offdiag[i - 1] * offdiag[i - 1] };
        d = a - x - off2 / d;
        if d == 0.0 {
            // Nudge off the singularity; the standard safeguard.
            d = f64::MIN_POSITIVE;
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// Bisect for the eigenvalue boundary where the Sturm count first
/// reaches `target` (1 → smallest eigenvalue, n → largest).
fn bisect(diag: &[f64], offdiag: &[f64], target: usize, mut lo: f64, mut hi: f64) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if sturm_count(diag, offdiag, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Extreme eigenvalues `(λmin, λmax)` of a symmetric tridiagonal matrix
/// by Sturm-sequence bisection inside the Gershgorin interval. `None`
/// for an empty matrix or non-finite entries.
pub fn tridiag_extreme_eigenvalues(diag: &[f64], offdiag: &[f64]) -> Option<(f64, f64)> {
    let n = diag.len();
    if n == 0 || offdiag.len() + 1 != n {
        return None;
    }
    if diag.iter().chain(offdiag).any(|v| !v.is_finite()) {
        return None;
    }
    // Gershgorin bounds, slightly inflated so the bisection brackets.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let mut radius = 0.0;
        if i > 0 {
            radius += offdiag[i - 1].abs();
        }
        if i + 1 < n {
            radius += offdiag[i].abs();
        }
        lo = lo.min(diag[i] - radius);
        hi = hi.max(diag[i] + radius);
    }
    let pad = 1e-12 * (1.0 + hi.abs().max(lo.abs()));
    let (lo, hi) = (lo - pad, hi + pad);
    let lmin = bisect(diag, offdiag, 1, lo, hi);
    let lmax = bisect(diag, offdiag, n, lo, hi);
    Some((lmin, lmax))
}

/// Build the Lanczos tridiagonal from CG's `αᵢ` and `βᵢ` sequences and
/// return the condition-number estimate `λmax/λmin` of the
/// preconditioned operator. `betas` must be one shorter than `alphas`
/// (no β is produced on the final iteration). `None` when the sequences
/// are empty, inconsistent, non-positive where positivity is required
/// (SPD breakdown), or when λmin is not safely positive.
pub fn cond_estimate_from_cg(alphas: &[f64], betas: &[f64]) -> Option<f64> {
    let n = alphas.len();
    if n == 0 || betas.len() + 1 < n {
        return None;
    }
    let betas = &betas[..n - 1];
    if alphas.iter().any(|&a| a <= 0.0 || !a.is_finite())
        || betas.iter().any(|&b| b < 0.0 || !b.is_finite())
    {
        return None;
    }
    let mut diag = Vec::with_capacity(n);
    let mut offdiag = Vec::with_capacity(n.saturating_sub(1));
    diag.push(1.0 / alphas[0]);
    for i in 1..n {
        diag.push(1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]);
        offdiag.push(betas[i - 1].sqrt() / alphas[i - 1]);
    }
    let (lmin, lmax) = tridiag_extreme_eigenvalues(&diag, &offdiag)?;
    (lmin > 1e-300 && lmax.is_finite()).then(|| lmax / lmin)
}

/// Classical CG iteration estimate for relative tolerance `rtol` on an
/// SPD system of condition number `cond`:
/// `⌈½·√cond·ln(2/rtol)⌉`, floored at one iteration. `None` when either
/// input is out of domain.
pub fn unpreconditioned_iterations(cond: f64, rtol: f64) -> Option<u64> {
    if cond < 1.0 || !cond.is_finite() || !rtol.is_finite() || rtol <= 0.0 || rtol >= 1.0 {
        return None;
    }
    let iters = 0.5 * cond.sqrt() * (2.0 / rtol).ln();
    Some((iters.ceil() as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sturm_bisection_matches_laplacian_spectrum() {
        // tridiag(-1, 2, -1) of order n has eigenvalues
        // 2 - 2·cos(kπ/(n+1)), k = 1..n.
        let n = 25usize;
        let diag = vec![2.0; n];
        let offdiag = vec![-1.0; n - 1];
        let (lmin, lmax) = tridiag_extreme_eigenvalues(&diag, &offdiag).unwrap();
        let analytic =
            |k: usize| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!((lmin - analytic(1)).abs() < 1e-9, "lmin {lmin}");
        assert!((lmax - analytic(n)).abs() < 1e-9, "lmax {lmax}");
    }

    #[test]
    fn identity_operator_estimates_condition_one() {
        // CG on the identity converges in one step with α₀ = 1: the
        // Lanczos matrix is [1] and κ̂ = 1.
        let cond = cond_estimate_from_cg(&[1.0], &[]).unwrap();
        assert!((cond - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sequences_yield_none() {
        assert_eq!(cond_estimate_from_cg(&[], &[]), None);
        assert_eq!(cond_estimate_from_cg(&[1.0, 1.0], &[]), None);
        assert_eq!(cond_estimate_from_cg(&[-1.0], &[]), None);
        assert_eq!(cond_estimate_from_cg(&[1.0, f64::NAN], &[0.5]), None);
    }

    #[test]
    fn iteration_bound_is_monotone_in_condition() {
        let a = unpreconditioned_iterations(10.0, 1e-8).unwrap();
        let b = unpreconditioned_iterations(1000.0, 1e-8).unwrap();
        assert!(b > a);
        assert_eq!(unpreconditioned_iterations(0.5, 1e-8), None);
        assert_eq!(unpreconditioned_iterations(10.0, 0.0), None);
        assert_eq!(unpreconditioned_iterations(f64::INFINITY, 1e-8), None);
    }
}
