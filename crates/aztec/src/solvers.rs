//! RAztec's own iterative methods: CG, GMRES(k), BiCGStab, CGS and TFQMR
//! over [`Vector`]s. Independent implementations from `rkrylov`'s — RAztec
//! uses *left* preconditioning (Aztec's convention) where RKSP uses right,
//! so even the residual the two packages report differs in kind: RAztec's
//! recurrence tracks the preconditioned residual.
//!
//! Every loop allocates at solve scope only — its vectors, and GMRES its
//! basis and Hessenberg, are made before the first iteration and reused to
//! the last — and makes one pass where an update is followed by a
//! reduction of the vector it just wrote. The fused passes perform the
//! same multiply-adds and the same one-block sums as the separate ones
//! (`crate::reference` keeps those, and the tests there compare bits).

use rcomm::Communicator;
use rsparse::dense;

use crate::aztecoo::{AzWhy, AztecOptions};
use crate::precond::AzPc;
use crate::rowmatrix::RowMatrix;
use crate::vector::Vector;
use crate::{AztecError, AztecResult};

pub(crate) struct RawOutcome {
    pub why: AzWhy,
    pub iterations: usize,
    /// Recurrence residual norm at exit (preconditioned residual).
    pub rec_residual: f64,
    pub initial_residual: f64,
}

/// Per-solve stagnation bookkeeping, threaded through [`stop_check`].
/// Derived purely from the rank-agreed recurrence residual, so every rank
/// reaches the same verdict on the same iteration.
pub(crate) struct StopState {
    best: f64,
    stalled: usize,
    last_it: usize,
}

impl StopState {
    pub(crate) fn new(r0: f64) -> Self {
        StopState { best: r0, stalled: 0, last_it: 0 }
    }
}

pub(crate) fn stop_check(
    rnorm: f64,
    r0: f64,
    bnorm: f64,
    opts: &AztecOptions,
    it: usize,
    state: &mut StopState,
) -> Option<AzWhy> {
    let scale = match opts.conv {
        crate::aztecoo::AzConv::R0 => {
            if r0 > 0.0 {
                r0
            } else {
                1.0
            }
        }
        crate::aztecoo::AzConv::Rhs => {
            if bnorm > 0.0 {
                bnorm
            } else {
                1.0
            }
        }
    };
    if !rnorm.is_finite() {
        return Some(AzWhy::Breakdown);
    }
    if rnorm <= opts.tol * scale {
        return Some(AzWhy::Normal);
    }
    if rnorm > 1e8 * scale.max(1.0) {
        return Some(AzWhy::Ill);
    }
    // Stagnation test: count each iteration once (methods that check
    // twice per iteration — BiCGStab's half-step, TFQMR's inner loop —
    // only advance the stall counter when `it` advances).
    if opts.stall_window > 0 && it > state.last_it {
        state.last_it = it;
        if rnorm < state.best * (1.0 - 1e-12) {
            state.best = rnorm;
            state.stalled = 0;
        } else {
            state.stalled += 1;
        }
        if state.stalled >= opts.stall_window {
            return Some(AzWhy::Stagnated);
        }
    }
    if it >= opts.max_iter {
        return Some(AzWhy::Maxits);
    }
    None
}

/// `r ← b − A·x` in one pass, `ax` receiving the product: per element the
/// `b + (−1)·ax` that `b.clone()` then `update(−1.0, ax)` computed.
pub(crate) fn residual(
    comm: &Communicator,
    a: &dyn RowMatrix,
    b: &Vector,
    x: &Vector,
    ax: &mut Vector,
    r: &mut Vector,
) -> AztecResult<()> {
    a.apply(comm, x, ax)?;
    if !b.map().same_as(ax.map()) || !r.map().same_as(ax.map()) {
        return Err(AztecError::MapMismatch("vector maps differ".into()));
    }
    for ((ri, bi), ai) in r.values_mut().iter_mut().zip(b.values()).zip(ax.values()) {
        *ri = bi + (-1.0) * ai;
    }
    Ok(())
}

/// Left-preconditioned CG on M⁻¹A.
pub(crate) fn cg(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    let bnorm = b.norm2(comm)?;
    // `q` holds A·x until the loop needs it for A·p.
    let mut q = Vector::new(map.clone());
    let mut r = Vector::new(map.clone());
    residual(comm, a, b, x, &mut q, &mut r)?;
    let mut z = Vector::new(map);
    pc.apply(comm, &r, &mut z)?;
    let r0 = z.norm2(comm)?; // Aztec-style: preconditioned residual norm
    let mut stop = StopState::new(r0);
    if let Some(why) = stop_check(r0, r0, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0, initial_residual: r0 });
    }
    let mut p = z.clone();
    let mut rz = r.dot(&z, comm)?;
    let mut it = 0usize;
    let mut rnorm = r0;
    let why = loop {
        it += 1;
        a.apply(comm, &p, &mut q)?;
        let pq = p.dot(&q, comm)?;
        if pq == 0.0 || !pq.is_finite() {
            break AzWhy::Breakdown;
        }
        let alpha = rz / pq;
        x.update(alpha, &p)?;
        r.update(-alpha, &q)?;
        pc.apply(comm, &r, &mut z)?;
        rnorm = z.norm2(comm)?;
        if let Some(why) = stop_check(rnorm, r0, bnorm, opts, it, &mut stop) {
            break why;
        }
        let rz_new = r.dot(&z, comm)?;
        let beta = rz_new / rz;
        rz = rz_new;
        p.update2(1.0, &z, beta)?;
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0 })
}

/// Left-preconditioned restarted GMRES(k) on M⁻¹A, modified Gram–Schmidt.
///
/// The orthogonalisation of `w` against `v_0..v_j` runs as `j + 2` passes,
/// one per allreduce: `h_0 = ⟨w, v_0⟩`; then `w ← w − h_{i−1}·v_{i−1}`
/// fused with `h_i = ⟨w, v_i⟩`; then `w ← w − h_j·v_j` fused with `‖w‖`.
pub(crate) fn gmres(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    if !x.map().same_as(&map) {
        return Err(AztecError::MapMismatch("vector maps differ".into()));
    }
    let n = map.num_my();
    // A cycle stops at `max_iter` steps at the latest, so it needs no more
    // storage than that.
    let k = opts.kspace.clamp(1, opts.max_iter.max(1));
    let bnorm = b.norm2(comm)?;
    let sum = |local: f64| -> AztecResult<f64> { Ok(comm.allreduce(local, rcomm::sum)?) };

    let mut ax = Vector::new(map.clone());
    let mut r = Vector::new(map.clone());
    let mut z = Vector::new(map.clone());
    residual(comm, a, b, x, &mut ax, &mut r)?;
    pc.apply(comm, &r, &mut z)?;
    let r0 = z.norm2(comm)?;
    let mut stop = StopState::new(r0);
    if let Some(why) = stop_check(r0, r0, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0, initial_residual: r0 });
    }

    let mut w = Vector::new(map.clone());
    // The newest basis vector, as the `Vector` that `apply` takes.
    let mut vj = Vector::new(map);
    // All basis vectors, column `i` at `i·n`, and the Hessenberg, column `j`
    // at `j·ld`, rotated in place. One zeroed allocation each: a column
    // costs memory only once a cycle reaches it.
    let ld = k + 1;
    let (Some(basis_len), Some(h_len)) = (ld.checked_mul(n), ld.checked_mul(k)) else {
        return Err(AztecError::BadOption(format!(
            "a Krylov space of min(kspace, max_iter) = {k} vectors does not fit in memory"
        )));
    };
    let mut basis = vec![0.0; basis_len];
    let mut h = vec![0.0; h_len];
    let mut cs = vec![0.0; k];
    let mut sn = vec![0.0; k];
    let mut g = vec![0.0; k + 1];
    let mut y = vec![0.0; k];

    let mut it = 0usize;
    let mut rnorm = r0;
    let why = 'outer: loop {
        let beta = rnorm;
        set_scaled(1.0 / beta, z.values(), vj.values_mut(), &mut basis[..n]);
        g[0] = beta;

        let mut inner = 0usize;
        let mut cycle_why = None;
        while inner < k {
            let j = inner;
            // w = M⁻¹·A·v_j.
            a.apply(comm, &vj, &mut ax)?;
            pc.apply(comm, &ax, &mut w)?;
            let hcol = &mut h[j * ld..j * ld + j + 2];
            let wv = w.values_mut();
            let mut hij = sum(dense::dot(wv, column(&basis, n, 0)))?;
            hcol[0] = hij;
            for (i, h) in hcol[1..=j].iter_mut().enumerate() {
                let (v_i, v_next) = (column(&basis, n, i), column(&basis, n, i + 1));
                hij = sum(dense::axpy_dot(-hij, v_i, wv, v_next))?;
                *h = hij;
            }
            let hnext = sum(dense::axpy_dot_self(-hij, column(&basis, n, j), wv))?.sqrt();
            hcol[j + 1] = hnext;
            for i in 0..j {
                let t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
                hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
                hcol[i] = t;
            }
            let (c, s) = givens(hcol[j], hcol[j + 1]);
            cs[j] = c;
            sn[j] = s;
            hcol[j] = c * hcol[j] + s * hcol[j + 1];
            let gj = g[j];
            g[j] = c * gj;
            g[j + 1] = -s * gj;
            it += 1;
            inner += 1;
            rnorm = g[j + 1].abs();
            if let Some(why) = stop_check(rnorm, r0, bnorm, opts, it, &mut stop) {
                cycle_why = Some(why);
                break;
            }
            if hnext == 0.0 {
                cycle_why = Some(AzWhy::Normal);
                break;
            }
            set_scaled(1.0 / hnext, wv, vj.values_mut(), &mut basis[(j + 1) * n..(j + 2) * n]);
        }
        // y via back substitution; x += V·y.
        let kk = inner;
        for i in (0..kk).rev() {
            let mut acc = g[i];
            for jj in i + 1..kk {
                acc -= h[jj * ld + i] * y[jj];
            }
            y[i] = acc / h[i * ld + i];
        }
        let xv = x.values_mut();
        for (i, yi) in y[..kk].iter().enumerate() {
            dense::axpy(*yi, column(&basis, n, i), xv);
        }
        if let Some(why) = cycle_why {
            break 'outer why;
        }
        residual(comm, a, b, x, &mut ax, &mut r)?;
        pc.apply(comm, &r, &mut z)?;
        rnorm = z.norm2(comm)?;
        if let Some(why) = stop_check(rnorm, r0, bnorm, opts, it, &mut stop) {
            break 'outer why;
        }
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0 })
}

/// Column `i` of a flat basis of `n`-element vectors.
fn column(basis: &[f64], n: usize, i: usize) -> &[f64] {
    &basis[i * n..(i + 1) * n]
}

/// `v ← a·x` and `col ← a·x` in one pass over `x`: the products `clone`
/// then `scale(a)` made, written to the basis and to the operand of the
/// next product at once.
fn set_scaled(a: f64, x: &[f64], v: &mut [f64], col: &mut [f64]) {
    for ((vi, ci), xi) in v.iter_mut().zip(col).zip(x) {
        let s = xi * a;
        *vi = s;
        *ci = s;
    }
}

/// Left-preconditioned BiCGStab on M⁻¹A.
pub(crate) fn bicgstab(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    let bnorm = b.norm2(comm)?;
    let mut tmp = Vector::new(map.clone());
    // Iterate on the preconditioned system: r = M⁻¹(b − A x). `t` holds the
    // raw residual until the loop needs it.
    let mut t = Vector::new(map.clone());
    residual(comm, a, b, x, &mut tmp, &mut t)?;
    let mut r = Vector::new(map.clone());
    pc.apply(comm, &t, &mut r)?;
    let r0n = r.norm2(comm)?;
    let mut stop = StopState::new(r0n);
    if let Some(why) = stop_check(r0n, r0n, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0n, initial_residual: r0n });
    }
    let r_hat = r.clone();
    let mut p = r.clone();
    let mut v = Vector::new(map);
    let mut rho = r_hat.dot(&r, comm)?;
    let mut it = 0usize;
    let mut rnorm = r0n;
    let why = loop {
        it += 1;
        // v = M⁻¹·A·p.
        a.apply(comm, &p, &mut tmp)?;
        pc.apply(comm, &tmp, &mut v)?;
        let rhv = r_hat.dot(&v, comm)?;
        if rhv == 0.0 || !rhv.is_finite() {
            break AzWhy::Breakdown;
        }
        let alpha = rho / rhv;
        let snorm = r.update_norm2(-alpha, &v, comm)?; // s stored in r
        if let Some(why) = stop_check(snorm, r0n, bnorm, opts, it, &mut stop) {
            x.update(alpha, &p)?;
            rnorm = snorm;
            break why;
        }
        // t = M⁻¹·A·s.
        a.apply(comm, &r, &mut tmp)?;
        pc.apply(comm, &tmp, &mut t)?;
        let tt = t.dot(&t, comm)?;
        if tt == 0.0 {
            break AzWhy::Breakdown;
        }
        let omega = t.dot(&r, comm)? / tt;
        if omega == 0.0 || !omega.is_finite() {
            break AzWhy::Breakdown;
        }
        x.update_pair(alpha, &p, omega, &r)?;
        rnorm = r.update_norm2(-omega, &t, comm)?;
        if let Some(why) = stop_check(rnorm, r0n, bnorm, opts, it, &mut stop) {
            break why;
        }
        let rho_new = r_hat.dot(&r, comm)?;
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + β(p − ω v).
        for ((pi, ri), vi) in p.values_mut().iter_mut().zip(r.values()).zip(v.values()) {
            *pi = ri + beta * (*pi - omega * vi);
        }
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0n })
}

/// Left-preconditioned CGS on M⁻¹A (Aztec's `AZ_cgs`).
pub(crate) fn cgs(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    let bnorm = b.norm2(comm)?;
    let mut tmp = Vector::new(map.clone());
    // `mau` (M⁻¹·A·û in the loop) holds the raw residual until then.
    let mut mau = Vector::new(map.clone());
    residual(comm, a, b, x, &mut tmp, &mut mau)?;
    let mut r = Vector::new(map.clone());
    pc.apply(comm, &mau, &mut r)?;
    let r0n = r.norm2(comm)?;
    let mut stop = StopState::new(r0n);
    if let Some(why) = stop_check(r0n, r0n, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0n, initial_residual: r0n });
    }
    let r_hat = r.clone();
    let mut p = r.clone();
    let mut u = r.clone();
    let mut v = Vector::new(map.clone());
    let mut q = Vector::new(map.clone());
    let mut uhat = Vector::new(map);
    let mut rho = r_hat.dot(&r, comm)?;
    let mut it = 0usize;
    let mut rnorm = r0n;
    let why = loop {
        it += 1;
        if rho == 0.0 || !rho.is_finite() {
            break AzWhy::Breakdown;
        }
        // v = M⁻¹·A·p.
        a.apply(comm, &p, &mut tmp)?;
        pc.apply(comm, &tmp, &mut v)?;
        let sigma = r_hat.dot(&v, comm)?;
        if sigma == 0.0 || !sigma.is_finite() {
            break AzWhy::Breakdown;
        }
        let alpha = rho / sigma;
        // q = u − α·v ; û = u + q.
        for ((qi, ui), vi) in q.values_mut().iter_mut().zip(u.values()).zip(v.values()) {
            *qi = ui - alpha * vi;
        }
        for ((hi, ui), qi) in uhat.values_mut().iter_mut().zip(u.values()).zip(q.values()) {
            *hi = ui + qi;
        }
        // x += α·û ; r −= α·M⁻¹·A·û.
        x.update(alpha, &uhat)?;
        a.apply(comm, &uhat, &mut tmp)?;
        pc.apply(comm, &tmp, &mut mau)?;
        rnorm = r.update_norm2(-alpha, &mau, comm)?;
        if let Some(why) = stop_check(rnorm, r0n, bnorm, opts, it, &mut stop) {
            break why;
        }
        let rho_new = r_hat.dot(&r, comm)?;
        let beta = rho_new / rho;
        rho = rho_new;
        // u = r + β·q ; p = u + β·(q + β·p).
        for ((ui, ri), qi) in u.values_mut().iter_mut().zip(r.values()).zip(q.values()) {
            *ui = ri + beta * qi;
        }
        for ((pi, qi), ui) in p.values_mut().iter_mut().zip(q.values()).zip(u.values()) {
            *pi = ui + beta * (qi + beta * *pi);
        }
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0n })
}

/// Left-preconditioned TFQMR on M⁻¹A (Aztec's `AZ_tfqmr`).
pub(crate) fn tfqmr(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    let bnorm = b.norm2(comm)?;
    // Initial preconditioned residual; `au` holds the raw one until the
    // loop needs it for M⁻¹·A·y.
    let mut r = Vector::new(map.clone());
    let mut scratch = Vector::new(map.clone());
    let mut au = Vector::new(map.clone());
    residual(comm, a, b, x, &mut scratch, &mut au)?;
    pc.apply(comm, &au, &mut r)?;
    let mut apply_m = |comm: &Communicator, vin: &Vector, vout: &mut Vector| -> AztecResult<()> {
        a.apply(comm, vin, &mut scratch)?;
        pc.apply(comm, &scratch, vout)
    };
    let r0n = r.norm2(comm)?;
    let mut stop = StopState::new(r0n);
    if let Some(why) = stop_check(r0n, r0n, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0n, initial_residual: r0n });
    }
    let r_hat = r.clone();
    let mut w = r.clone();
    let mut y = r.clone();
    let mut v = Vector::new(map.clone());
    apply_m(comm, &y, &mut v)?;
    let mut u = v.clone();
    let mut d = Vector::new(map);
    let mut theta = 0.0f64;
    let mut eta = 0.0f64;
    let mut tau = r0n;
    let mut rho = r_hat.dot(&r, comm)?;
    let mut it = 0usize;
    let mut rnorm = r0n;
    let why = 'outer: loop {
        it += 1;
        let sigma = r_hat.dot(&v, comm)?;
        if sigma == 0.0 || rho == 0.0 || !sigma.is_finite() {
            break AzWhy::Breakdown;
        }
        let alpha = rho / sigma;
        for m in 0..2 {
            if m == 1 {
                y.update(-alpha, &v)?;
                apply_m(comm, &y, &mut u)?;
            }
            let wnorm = w.update_norm2(-alpha, &u, comm)?;
            let coeff = theta * theta * eta / alpha;
            for (di, yi) in d.values_mut().iter_mut().zip(y.values()) {
                *di = yi + coeff * *di;
            }
            theta = wnorm / tau;
            let cfac = 1.0 / (1.0 + theta * theta).sqrt();
            tau *= theta * cfac;
            eta = cfac * cfac * alpha;
            x.update(eta, &d)?;
            rnorm = tau * ((2 * it) as f64).sqrt();
            if let Some(why) = stop_check(rnorm, r0n, bnorm, opts, it, &mut stop) {
                break 'outer why;
            }
        }
        let rho_new = r_hat.dot(&w, comm)?;
        let beta = rho_new / rho;
        rho = rho_new;
        for (yi, wi) in y.values_mut().iter_mut().zip(w.values()) {
            *yi = wi + beta * *yi;
        }
        apply_m(comm, &y, &mut au)?;
        for ((vi, ui), aui) in v.values_mut().iter_mut().zip(u.values()).zip(au.values()) {
            *vi = aui + beta * (ui + beta * *vi);
        }
        // `u` is M⁻¹·A·y from here on; its old storage is the next `au`.
        std::mem::swap(&mut u, &mut au);
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0n })
}

pub(crate) fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}
