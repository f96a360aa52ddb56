//! Table/figure generation: the paper's Table 1 and Figure 5, row by row
//! and point by point.

use rcomm::Universe;

use crate::harness::{measure_pair, Package};
use crate::workload::paper_workload;

/// One row of the paper's Table 1: "Computing Times of PETSc Component
/// with and without the LISI interface".
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Problem nonzeros (first column).
    pub nnz: usize,
    /// Time through the CCA/LISI component (seconds).
    pub cca_seconds: f64,
    /// Time through the native API (seconds).
    pub non_cca_seconds: f64,
    /// Absolute overhead (seconds).
    pub overhead_seconds: f64,
    /// Overhead as a percentage of the CCA time (the paper divides by
    /// the second column).
    pub overhead_percent: f64,
    /// Iterations (last column).
    pub iterations: usize,
}

/// Regenerate Table 1: the RKSP (PETSc stand-in) component on
/// `processors` ranks over the paper's grid sizes, `reps` runs each.
pub fn table1_rows(grid_sizes: &[usize], processors: usize, reps: usize) -> Vec<Table1Row> {
    grid_sizes
        .iter()
        .map(|&m| {
            let w = paper_workload(m);
            let out = Universe::run(processors, |comm| measure_pair(comm, Package::Rksp, &w, reps));
            let (native, cca, iters) = out[0];
            let overhead = cca - native;
            Table1Row {
                nnz: w.nnz(),
                cca_seconds: cca,
                non_cca_seconds: native,
                overhead_seconds: overhead,
                overhead_percent: 100.0 * overhead / cca,
                iterations: iters,
            }
        })
        .collect()
}

/// Render rows in the paper's format.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("| nnz    | CCA(s)  | NonCCA(s) | Overhead(s)/(%)  | Iters |\n");
    s.push_str("|--------|---------|-----------|------------------|-------|\n");
    for r in rows {
        s.push_str(&format!(
            "| {:<6} | {:<7.3} | {:<9.3} | {:+.3}/{:<8.2} | {:<5} |\n",
            r.nnz,
            r.cca_seconds,
            r.non_cca_seconds,
            r.overhead_seconds,
            r.overhead_percent,
            r.iterations
        ));
    }
    s
}

/// One point of Figure 5: a package at a processor count, both paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5Point {
    /// The package (curve triple).
    pub package: Package,
    /// Processor (rank) count.
    pub processors: usize,
    /// CCA-path seconds (the "o" curve).
    pub cca_seconds: f64,
    /// Native-path seconds (the "+" curve).
    pub non_cca_seconds: f64,
    /// Iterations, for the record.
    pub iterations: usize,
}

/// Regenerate Figure 5: all three packages at each processor count on the
/// paper's nnz = 199200 problem (m = 200), or a smaller `m` for quick
/// runs.
pub fn figure5_series(m: usize, processor_counts: &[usize], reps: usize) -> Vec<Figure5Point> {
    let w = paper_workload(m);
    let mut points = Vec::new();
    for &package in &Package::ALL {
        for &p in processor_counts {
            let out = Universe::run(p, |comm| measure_pair(comm, package, &w, reps));
            let (native, cca, iters) = out[0];
            points.push(Figure5Point {
                package,
                processors: p,
                cca_seconds: cca,
                non_cca_seconds: native,
                iterations: iters,
            });
        }
    }
    points
}

/// Render the Figure 5 series as aligned text.
pub fn format_figure5(points: &[Figure5Point]) -> String {
    let mut s = String::new();
    s.push_str("package  procs  CCA(s)      NonCCA(s)   overhead(%)  iters\n");
    for pt in points {
        let over = 100.0 * (pt.cca_seconds - pt.non_cca_seconds) / pt.cca_seconds;
        s.push_str(&format!(
            "{:<8} {:<6} {:<11.4} {:<11.4} {:<12.2} {}\n",
            pt.package.name(),
            pt.processors,
            pt.cca_seconds,
            pt.non_cca_seconds,
            over,
            pt.iterations
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds_on_small_sizes() {
        // Scaled-down Table 1 (tests must stay fast): the structural
        // claims that repeat exactly — positive times, the overhead
        // identity, nonzeros and iterations growing with size — must
        // already show. Which of two sub-millisecond solves is slower is
        // the host's choice, not the table's.
        let rows = table1_rows(&[12, 24], 2, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.cca_seconds > 0.0 && r.non_cca_seconds > 0.0);
            assert_eq!(r.overhead_seconds, r.cca_seconds - r.non_cca_seconds);
        }
        assert!(rows[1].nnz > rows[0].nnz, "{rows:?}");
        assert!(rows[1].iterations > rows[0].iterations, "{rows:?}");
        let text = format_table1(&rows);
        assert!(text.contains("nnz"));
        assert!(text.contains("Iters"));
    }

    #[test]
    fn figure5_covers_all_packages_and_counts() {
        let pts = figure5_series(10, &[1, 2], 1);
        assert_eq!(pts.len(), 6);
        for pt in &pts {
            assert!(pt.cca_seconds > 0.0 && pt.non_cca_seconds > 0.0);
        }
        let text = format_figure5(&pts);
        assert!(text.contains("RKSP"));
        assert!(text.contains("RAztec"));
        assert!(text.contains("RSLU"));
    }
}
