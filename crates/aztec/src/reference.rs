//! The five loops as they stood before their passes were fused and their
//! workspaces hoisted — two-pass modified Gram–Schmidt, `clone` + `scale`,
//! `clone` + `update`, a fresh basis per restart — kept verbatim as the
//! oracle: every loop in [`crate::solvers`] must return the same iteration
//! count, the same residual bits and the same bits in every coefficient of
//! `x` as its namesake here.

use rcomm::Communicator;

use crate::aztecoo::{AzWhy, AztecOptions};
use crate::precond::AzPc;
use crate::rowmatrix::RowMatrix;
use crate::solvers::{givens, stop_check, RawOutcome, StopState};
use crate::vector::Vector;
use crate::AztecResult;

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
    let mut ax = Vector::new(map.clone());
    a.apply(comm, x, &mut ax)?;
    let mut r = b.clone();
    r.update(-1.0, &ax)?;
    let mut z = Vector::new(map.clone());
    pc.apply(comm, &r, &mut z)?;
    let r0 = z.norm2(comm)?; // Aztec-style: preconditioned residual norm
    let mut stop = StopState::new(r0);
    if let Some(why) = stop_check(r0, r0, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0, initial_residual: r0 });
    }
    let mut p = z.clone();
    let mut q = Vector::new(map);
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

/// Left-preconditioned restarted GMRES(k) on M⁻¹A.
pub(crate) fn gmres(
    comm: &Communicator,
    a: &dyn RowMatrix,
    pc: &mut dyn AzPc,
    b: &Vector,
    x: &mut Vector,
    opts: &AztecOptions,
) -> AztecResult<RawOutcome> {
    let map = a.row_map().clone();
    let k = opts.kspace.max(1);
    let bnorm = b.norm2(comm)?;

    let mut ax = Vector::new(map.clone());
    let mut w = Vector::new(map.clone());
    let precond_residual =
        |pc: &mut dyn AzPc, x: &Vector, ax: &mut Vector, out: &mut Vector| -> AztecResult<()> {
            a.apply(comm, x, ax)?;
            let mut r = b.clone();
            r.update(-1.0, ax)?;
            pc.apply(comm, &r, out)?;
            Ok(())
        };

    let mut z = Vector::new(map.clone());
    precond_residual(pc, x, &mut ax, &mut z)?;
    let r0 = z.norm2(comm)?;
    let mut stop = StopState::new(r0);
    if let Some(why) = stop_check(r0, r0, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0, initial_residual: r0 });
    }

    let mut it = 0usize;
    let mut rnorm = r0;
    let why = 'outer: loop {
        let beta = rnorm;
        let mut v0 = z.clone();
        v0.scale(1.0 / beta);
        let mut basis = vec![v0];
        let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut cs: Vec<f64> = Vec::with_capacity(k);
        let mut sn: Vec<f64> = Vec::with_capacity(k);
        let mut g = vec![0.0; k + 1];
        g[0] = beta;

        let mut inner = 0usize;
        let mut cycle_why = None;
        while inner < k {
            let j = inner;
            // w = M⁻¹·A·v_j.
            a.apply(comm, &basis[j], &mut ax)?;
            pc.apply(comm, &ax, &mut w)?;
            let mut hcol = vec![0.0; j + 2];
            for (i, vi) in basis.iter().enumerate().take(j + 1) {
                let hij = w.dot(vi, comm)?;
                hcol[i] = hij;
                w.update(-hij, vi)?;
            }
            let hnext = w.norm2(comm)?;
            hcol[j + 1] = hnext;
            for i in 0..j {
                let t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
                hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
                hcol[i] = t;
            }
            let (c, s) = givens(hcol[j], hcol[j + 1]);
            cs.push(c);
            sn.push(s);
            hcol[j] = c * hcol[j] + s * hcol[j + 1];
            let gj = g[j];
            g[j] = c * gj;
            g[j + 1] = -s * gj;
            h_cols.push(hcol);
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
            let mut vn = w.clone();
            vn.scale(1.0 / hnext);
            basis.push(vn);
        }
        // y via back substitution; x += V·y.
        let kk = inner;
        let mut y = vec![0.0; kk];
        for i in (0..kk).rev() {
            let mut acc = g[i];
            for (jj, yj) in y.iter().enumerate().take(kk).skip(i + 1) {
                acc -= h_cols[jj][i] * yj;
            }
            y[i] = acc / h_cols[i][i];
        }
        for (vi, yi) in basis.iter().zip(&y) {
            x.update(*yi, vi)?;
        }
        if let Some(why) = cycle_why {
            break 'outer why;
        }
        precond_residual(pc, x, &mut ax, &mut z)?;
        rnorm = z.norm2(comm)?;
        if let Some(why) = stop_check(rnorm, r0, bnorm, opts, it, &mut stop) {
            break 'outer why;
        }
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0 })
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
    a.apply(comm, x, &mut tmp)?;
    let mut raw = b.clone();
    raw.update(-1.0, &tmp)?;
    // Iterate on the preconditioned system: r = M⁻¹(b − A x).
    let mut r = Vector::new(map.clone());
    pc.apply(comm, &raw, &mut r)?;
    let r0n = r.norm2(comm)?;
    let mut stop = StopState::new(r0n);
    if let Some(why) = stop_check(r0n, r0n, bnorm, opts, 0, &mut stop) {
        return Ok(RawOutcome { why, iterations: 0, rec_residual: r0n, initial_residual: r0n });
    }
    let r_hat = r.clone();
    let mut p = r.clone();
    let mut v = Vector::new(map.clone());
    let mut t = Vector::new(map);
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
        r.update(-alpha, &v)?; // s stored in r
        let snorm = r.norm2(comm)?;
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
        x.update(alpha, &p)?;
        x.update(omega, &r)?;
        r.update(-omega, &t)?;
        rnorm = r.norm2(comm)?;
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
    a.apply(comm, x, &mut tmp)?;
    let mut raw = b.clone();
    raw.update(-1.0, &tmp)?;
    let mut r = Vector::new(map.clone());
    pc.apply(comm, &raw, &mut r)?;
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
        let mut mau = Vector::new(a.row_map().clone());
        pc.apply(comm, &tmp, &mut mau)?;
        r.update(-alpha, &mau)?;
        rnorm = r.norm2(comm)?;
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
    // Initial preconditioned residual (before the closure below captures
    // its scratch buffer).
    let mut r = Vector::new(map.clone());
    {
        let mut tmp0 = Vector::new(map.clone());
        a.apply(comm, x, &mut tmp0)?;
        let mut raw = b.clone();
        raw.update(-1.0, &tmp0)?;
        pc.apply(comm, &raw, &mut r)?;
    }
    let mut scratch = Vector::new(map.clone());
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
            w.update(-alpha, &u)?;
            let coeff = theta * theta * eta / alpha;
            for (di, yi) in d.values_mut().iter_mut().zip(y.values()) {
                *di = yi + coeff * *di;
            }
            theta = w.norm2(comm)? / tau;
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
        let mut au = Vector::new(a.row_map().clone());
        apply_m(comm, &y, &mut au)?;
        for ((vi, ui), aui) in v.values_mut().iter_mut().zip(u.values()).zip(au.values()) {
            *vi = aui + beta * (ui + beta * *vi);
        }
        u = au;
    };
    Ok(RawOutcome { why, iterations: it, rec_residual: rnorm, initial_residual: r0n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aztecoo::{AzConv, AzPrecond, AzSolver};
    use crate::precond::{JacobiPc, NeumannPc, NoPc, SymGsPc};
    use crate::rowmatrix::CrsMatrix;
    use crate::solvers;
    use rcomm::Universe;
    use rsparse::{generate, CsrMatrix};

    type Loop = fn(
        &Communicator,
        &dyn RowMatrix,
        &mut dyn AzPc,
        &Vector,
        &mut Vector,
        &AztecOptions,
    ) -> AztecResult<RawOutcome>;

    /// A method as [`crate::solvers`] runs it and as it ran before.
    fn loops(solver: AzSolver) -> (Loop, Loop) {
        match solver {
            AzSolver::Cg => (solvers::cg, cg),
            AzSolver::Gmres => (solvers::gmres, gmres),
            AzSolver::BiCgStab => (solvers::bicgstab, bicgstab),
            AzSolver::Cgs => (solvers::cgs, cgs),
            AzSolver::Tfqmr => (solvers::tfqmr, tfqmr),
        }
    }

    const ALL_PCS: [AzPrecond; 4] =
        [AzPrecond::None, AzPrecond::Jacobi, AzPrecond::Neumann { order: 2 }, AzPrecond::SymGs];

    fn build_pc<'a>(m: &'a CrsMatrix, precond: AzPrecond) -> Box<dyn AzPc + 'a> {
        match precond {
            AzPrecond::None => Box::new(NoPc),
            AzPrecond::Jacobi => Box::new(JacobiPc::new(m).unwrap()),
            AzPrecond::Neumann { order } => Box::new(NeumannPc::new(m, order).unwrap()),
            AzPrecond::SymGs => Box::new(SymGsPc::new(m).unwrap()),
        }
    }

    /// `a·x = b` from the guess `x0`, all replicated.
    #[derive(Clone, Copy)]
    struct System<'a> {
        a: &'a CsrMatrix,
        b: &'a [f64],
        x0: &'a [f64],
    }

    /// Everything a loop leaves behind on one rank, down to the bit.
    #[derive(Debug, Clone, PartialEq)]
    struct Trace {
        why: AzWhy,
        its: usize,
        rec_residual: u64,
        initial_residual: u64,
        x: Vec<u64>,
    }

    fn trace(
        comm: &Communicator,
        m: &CrsMatrix,
        f: Loop,
        precond: AzPrecond,
        sys: System,
        opts: &AztecOptions,
    ) -> Trace {
        let mut pc = build_pc(m, precond);
        let bv = Vector::from_global(m.row_map().clone(), sys.b).unwrap();
        let mut xv = Vector::from_global(m.row_map().clone(), sys.x0).unwrap();
        let out = f(comm, m, pc.as_mut(), &bv, &mut xv, opts).unwrap();
        Trace {
            why: out.why,
            its: out.iterations,
            rec_residual: out.rec_residual.to_bits(),
            initial_residual: out.initial_residual.to_bits(),
            x: xv.values().iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Run `solver` both ways on `ranks` ranks; every rank must see the same
    /// bits from both and the same verdict as every other rank. Returns the
    /// verdict and the iteration count.
    fn same_bits(
        what: &str,
        solver: AzSolver,
        sys: System,
        ranks: usize,
        precond: AzPrecond,
        opts: &AztecOptions,
    ) -> (AzWhy, usize) {
        let (new, old) = loops(solver);
        let out = Universe::run(ranks, |comm| {
            let m = CrsMatrix::from_global(comm, sys.a).unwrap();
            let got = trace(comm, &m, new, precond, sys, opts);
            let want = trace(comm, &m, old, precond, sys, opts);
            (got, want)
        });
        let tag =
            format!("{what}: {solver:?}/{precond:?} on {ranks} ranks, kspace {}", opts.kspace);
        for (got, want) in &out {
            assert_eq!(got, want, "{tag}");
            assert_eq!((got.why, got.its), (out[0].0.why, out[0].0.its), "{tag}: ranks disagree");
        }
        (out[0].0.why, out[0].0.its)
    }

    fn opts(kspace: usize, max_iter: usize) -> AztecOptions {
        AztecOptions { kspace, max_iter, conv: AzConv::Rhs, ..AztecOptions::default() }
    }

    fn paper(m: usize) -> CsrMatrix {
        rmesh::paper_problem(m).assemble_global().0
    }

    #[test]
    fn gmres_retraces_the_two_pass_loop_on_every_grid_rank_count_depth_and_preconditioner() {
        let systems = [paper(1), paper(2), paper(7), paper(40), generate::laplacian_2d(40)];
        for a in &systems {
            let b = generate::random_vector(a.rows(), 5);
            let sys = System { a, b: &b, x0: &vec![0.0; a.rows()] };
            for ranks in [1usize, 2, 3] {
                for kspace in [1usize, 2, 5, 30] {
                    for precond in ALL_PCS {
                        same_bits("grid", AzSolver::Gmres, sys, ranks, precond, &opts(kspace, 64));
                    }
                }
            }
        }
    }

    #[test]
    fn gmres_agrees_around_restart_boundaries_and_when_max_iter_cuts_a_cycle() {
        let a = paper(7);
        let b = generate::random_vector(a.rows(), 11);
        let sys = System { a: &a, b: &b, x0: &vec![0.0; a.rows()] };
        // Converged solves: the sweep over depths must include one that
        // ends on the last step of a cycle and one that ends on the first
        // step of the next.
        let (mut on_boundary, mut one_past) = (false, false);
        for kspace in 2..=24 {
            let (why, its) =
                same_bits("sweep", AzSolver::Gmres, sys, 2, AzPrecond::Jacobi, &opts(kspace, 500));
            assert_eq!(why, AzWhy::Normal, "kspace {kspace}");
            on_boundary |= its > kspace && its % kspace == 0;
            one_past |= its > kspace && its % kspace == 1;
        }
        assert!(on_boundary && one_past, "sweep missed a case: {on_boundary} {one_past}");
        // `max_iter` on a boundary, one past it, and mid-cycle.
        for max_iter in [10usize, 11, 13] {
            let (why, its) =
                same_bits("maxits", AzSolver::Gmres, sys, 3, AzPrecond::None, &opts(5, max_iter));
            assert_eq!((why, its), (AzWhy::Maxits, max_iter));
        }
        // A space deeper than `max_iter` allows is never filled.
        let (why, its) =
            same_bits("deep", AzSolver::Gmres, sys, 1, AzPrecond::None, &opts(1_000_000, 4));
        assert_eq!((why, its), (AzWhy::Maxits, 4));
    }

    #[test]
    fn gmres_agrees_on_the_degenerate_starts() {
        // Happy breakdown: b an eigenvector of a diagonal matrix, so the
        // first Arnoldi step leaves nothing to normalise.
        let n = 12;
        let diag = CsrMatrix::from_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n).collect(),
            (0..n).map(|i| 2.0 + i as f64).collect(),
        )
        .unwrap();
        let mut e3 = vec![0.0; n];
        e3[3] = 1.5;
        let happy = System { a: &diag, b: &e3, x0: &vec![0.0; n] };
        for ranks in [1usize, 2, 3] {
            let (why, its) =
                same_bits("happy", AzSolver::Gmres, happy, ranks, AzPrecond::None, &opts(30, 50));
            assert_eq!((why, its), (AzWhy::Normal, 1));
        }

        let a = paper(7);
        degenerate_starts(AzSolver::Gmres, &a, &opts(5, 200));
    }

    /// A non-zero guess, `b = 0` from a zero and a non-zero guess, and a
    /// NaN in `b` — a typed `Breakdown` before the first iteration, on
    /// every rank — under every preconditioner on 1, 2 and 3 ranks.
    fn degenerate_starts(solver: AzSolver, a: &CsrMatrix, o: &AztecOptions) {
        let n = a.rows();
        let b = generate::random_vector(n, 3);
        let guess = generate::random_vector(n, 4);
        let zero = vec![0.0; n];
        let mut poisoned = b.clone();
        poisoned[n - 2] = f64::NAN;
        let sys = |b, x0| System { a, b, x0 };
        for ranks in [1usize, 2, 3] {
            for precond in ALL_PCS {
                same_bits("guess", solver, sys(&b, &guess), ranks, precond, o);
                let (why, its) = same_bits("b = 0", solver, sys(&zero, &zero), ranks, precond, o);
                assert_eq!((why, its), (AzWhy::Normal, 0));
                same_bits("b = 0, x0 != 0", solver, sys(&zero, &guess), ranks, precond, o);
                let (why, its) = same_bits("NaN", solver, sys(&poisoned, &zero), ranks, precond, o);
                assert_eq!((why, its), (AzWhy::Breakdown, 0));
            }
        }
    }

    /// 72 900 local rows: past `DOT_BLOCK`, where a blocked reduction
    /// would round differently from the one-block `dot` RAztec has always
    /// used. Three restart cycles.
    #[test]
    fn gmres_keeps_the_one_block_reductions_past_dot_block() {
        let a = paper(270);
        assert!(a.rows() > rsparse::dense::DOT_BLOCK);
        let b = generate::random_vector(a.rows(), 9);
        let sys = System { a: &a, b: &b, x0: &vec![0.0; a.rows()] };
        let (why, its) =
            same_bits("past DOT_BLOCK", AzSolver::Gmres, sys, 1, AzPrecond::Jacobi, &opts(30, 90));
        assert_eq!((why, its), (AzWhy::Maxits, 90));
    }

    #[test]
    fn the_other_four_loops_retrace_their_unfused_selves() {
        let nonsym = [paper(7), paper(40)];
        let spd = [generate::laplacian_2d(7), generate::laplacian_2d(40)];
        for solver in [AzSolver::Cg, AzSolver::BiCgStab, AzSolver::Cgs, AzSolver::Tfqmr] {
            let systems = if solver == AzSolver::Cg { &spd } else { &nonsym };
            for a in systems {
                let b = generate::random_vector(a.rows(), 21);
                let sys = System { a, b: &b, x0: &vec![0.0; a.rows()] };
                for ranks in [1usize, 2, 3] {
                    for precond in ALL_PCS {
                        same_bits("solve", solver, sys, ranks, precond, &opts(30, 80));
                        let (why, its) =
                            same_bits("maxits", solver, sys, ranks, precond, &opts(30, 3));
                        assert_eq!((why, its), (AzWhy::Maxits, 3));
                    }
                }
                degenerate_starts(solver, a, &opts(30, 80));
            }
        }
    }
}
