//! Static work/traffic models and the machine bandwidth roofline.
//!
//! Wall-clock spans say how *long* a kernel ran; a [`KernelModel`] says
//! how much work one invocation *should* move — flops and bytes derived
//! once from the cached operator plans at setup time (CSR row pointers,
//! halo send lists, level schedules), never measured on the hot path.
//! Joining the two at render time yields achieved GF/s, GB/s and
//! arithmetic intensity per kernel and per rank
//! ([`crate::RankReport::kernel_efficiency`]).
//!
//! A one-shot STREAM-style copy/triad micro-calibration
//! (`RSPARSE_CALIBRATE=1`, cached to `.rsparse_calibration.json`) gives
//! the per-host attainable bandwidth so the same join can also report
//! "% of attainable" — the roofline column in the summary sink, the
//! Prometheus exporter and the solve ledger.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use crate::counter::Counter;
use crate::recorder;

/// What one "unit" of a modelled kernel means when joining the model
/// with the measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// One unit per recorded call of the model's span (e.g. one matvec).
    SpanCalls,
    /// One unit per increment of a counter (e.g. one payload byte for
    /// collective reductions, where message sizes vary per call).
    Counter(Counter),
}

/// Which measured time the model joins against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBase {
    /// The span's total (inclusive) seconds — leaf kernels.
    Total,
    /// The span's self (exclusive) seconds — umbrella spans like
    /// `ksp_solve` whose children (matvec, allreduce, sptrsv) carry
    /// their own models.
    SelfTime,
}

/// A static per-unit work/traffic model attached to a probe span,
/// computed once from the cached plans at setup time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelModel {
    /// Span whose measured time and (for [`WorkUnit::SpanCalls`]) call
    /// count the model joins against.
    pub span: &'static str,
    /// Floating-point operations per unit.
    pub flops: u64,
    /// Bytes touched per unit (streaming model: every value, index and
    /// vector element counted once per pass).
    pub bytes: u64,
    /// Unit semantics.
    pub unit: WorkUnit,
    /// Time base for the join.
    pub time: TimeBase,
    /// Right-hand sides the modelled unit sweeps over (1 for single-RHS
    /// kernels). Batched kernels amortize the matrix read across `nrhs`
    /// vector streams, so their per-unit flops/bytes are NOT `nrhs`
    /// multiples of the single-RHS model — diffs must key on
    /// `(kernel, nrhs)` to compare like with like.
    pub nrhs: u64,
}

/// Register (or replace) the model for kernel `name` on the current
/// thread's recorder. Called from plan builders at setup time; the last
/// registered plan wins, matching "the operator this rank solves with".
pub fn register(name: &'static str, model: KernelModel) {
    recorder::with_local(|r| r.local().folds.models.insert(name, model));
}

/// Streaming-traffic model of one CSR-shaped sweep: `flops = 2·nnz`
/// (multiply + add per stored entry) and one pass over values (8·nnz),
/// column indices (8·nnz), source gathers (8·nnz), row pointers
/// (8·(rows+1)) and destination writes (8·rows).
///
/// The model is built from the *logical* CSR pattern, so SELL-C-σ and
/// block-CSR plans of the same matrix produce bit-identical numbers —
/// efficiency comparisons across formats share one denominator.
pub fn csr_traffic(rows: usize, nnz: usize) -> (u64, u64) {
    let flops = 2 * nnz as u64;
    let bytes = 24 * nnz as u64 + 16 * rows as u64 + 8;
    (flops, bytes)
}

/// Streaming-traffic model of one fused multi-vector sweep over `k`
/// right-hand sides: the matrix streams (values, column indices, row
/// pointers) are read **once**, while the source gathers and destination
/// writes scale with `k` — the whole point of the batched kernels.
/// Reduces to [`csr_traffic`] at `k = 1`.
pub fn csr_traffic_multi(rows: usize, nnz: usize, k: usize) -> (u64, u64) {
    let k = k as u64;
    let flops = 2 * k * nnz as u64;
    let matrix = 16 * nnz as u64 + 8 * rows as u64 + 8;
    let vectors = k * (8 * nnz as u64 + 8 * rows as u64);
    (flops, matrix + vectors)
}

// ---------------------------------------------------------------------------
// Roofline calibration
// ---------------------------------------------------------------------------

/// Measured memory-bandwidth roofline for this host, from the
/// STREAM-style copy/triad micro-calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Best copy bandwidth (`c[i] = a[i]`; 16 bytes/element), GB/s. This
    /// is the attainable-bandwidth ceiling the "% of roofline" columns
    /// divide by.
    pub copy_gbs: f64,
    /// Best triad bandwidth (`a[i] = b[i] + s·c[i]`; 24 bytes/element),
    /// GB/s.
    pub triad_gbs: f64,
}

/// On-disk cache name for the calibration (written next to the working
/// directory the run started in; gitignored).
pub const CALIBRATION_FILE: &str = ".rsparse_calibration.json";

const CALIBRATION_SCHEMA: &str = "rsparse-calibration-v1";

/// STREAM-style array length: 4 Mi doubles = 32 MiB per array, far past
/// any private cache, so the sweep measures memory bandwidth.
const STREAM_LEN: usize = 1 << 22;
const STREAM_REPS: usize = 3;

/// Run the copy/triad calibration now (a few hundred milliseconds) and
/// return the best-of-`STREAM_REPS` bandwidths.
pub fn calibrate() -> Roofline {
    let mut a = vec![1.0f64; STREAM_LEN];
    let b = vec![2.0f64; STREAM_LEN];
    let mut c = vec![0.0f64; STREAM_LEN];
    let mut copy_gbs = 0.0f64;
    let mut triad_gbs = 0.0f64;
    for _ in 0..STREAM_REPS {
        let t0 = Instant::now();
        c.copy_from_slice(&a);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&c);
        copy_gbs = copy_gbs.max(16.0 * STREAM_LEN as f64 / dt / 1e9);

        let t0 = Instant::now();
        for i in 0..STREAM_LEN {
            a[i] = b[i] + 0.42 * c[i];
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        triad_gbs = triad_gbs.max(24.0 * STREAM_LEN as f64 / dt / 1e9);
    }
    Roofline { copy_gbs, triad_gbs }
}

fn render_calibration(r: &Roofline) -> String {
    format!(
        "{{\"schema\":\"{CALIBRATION_SCHEMA}\",\"copy_gbs\":{:.3},\"triad_gbs\":{:.3}}}\n",
        r.copy_gbs, r.triad_gbs
    )
}

/// Extract `"key": <number>` from the tiny calibration document. The
/// probe crate takes no runtime dependencies, so the parser is the
/// minimal hand-rolled scan the fixed writer format needs.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &doc[doc.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn load_calibration(path: &Path) -> Option<Roofline> {
    let doc = fs::read_to_string(path).ok()?;
    if !doc.contains(CALIBRATION_SCHEMA) {
        return None;
    }
    let copy_gbs = json_number(&doc, "copy_gbs")?;
    let triad_gbs = json_number(&doc, "triad_gbs")?;
    (copy_gbs > 0.0 && triad_gbs > 0.0).then_some(Roofline { copy_gbs, triad_gbs })
}

fn resolve_roofline() -> Option<Roofline> {
    let path = PathBuf::from(CALIBRATION_FILE);
    let knob = std::env::var("RSPARSE_CALIBRATE").unwrap_or_default();
    let knob = knob.trim().to_ascii_lowercase();
    match knob.as_str() {
        "off" | "0" | "none" | "false" => return None,
        "force" => {}
        _ => {
            if let Some(r) = load_calibration(&path) {
                return Some(r);
            }
            if !matches!(knob.as_str(), "1" | "on" | "true" | "force") {
                return None;
            }
        }
    }
    let r = calibrate();
    // Cache for every later run on this host; failure to write only
    // costs recalibration next time.
    let _ = fs::write(&path, render_calibration(&r));
    Some(r)
}

/// The host roofline, if available: the cached calibration when
/// `.rsparse_calibration.json` exists, a fresh (then cached) one when
/// `RSPARSE_CALIBRATE=1` asks for it, `None` otherwise. Resolved once
/// per process.
pub fn roofline() -> Option<Roofline> {
    static ROOFLINE: OnceLock<Option<Roofline>> = OnceLock::new();
    *ROOFLINE.get_or_init(resolve_roofline)
}

/// One kernel's model joined with its measurements on one rank — the row
/// rendered by the summary sink, the Prometheus exporter and the solve
/// ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEfficiency {
    /// Kernel name the model was registered under (e.g. `"spmv"`).
    pub name: &'static str,
    /// Span the measurements came from.
    pub span: &'static str,
    /// Units executed (span calls or counter value, per the model).
    pub units: u64,
    /// Measured seconds (span total or self time, per the model).
    pub seconds: f64,
    /// Modelled flops moved (`units · model.flops`).
    pub flops: u64,
    /// Modelled bytes touched (`units · model.bytes`).
    pub bytes: u64,
    /// Achieved GF/s (`flops / seconds / 1e9`).
    pub gflops: f64,
    /// Achieved GB/s (`bytes / seconds / 1e9`).
    pub gbs: f64,
    /// Arithmetic intensity (flops per byte).
    pub ai: f64,
    /// Achieved GB/s as a percentage of the roofline copy bandwidth;
    /// `None` when no calibration is available.
    pub pct_of_roofline: Option<f64>,
    /// Right-hand sides per modelled unit (from the model; 1 for
    /// single-RHS kernels).
    pub nrhs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_traffic_counts_every_stream_once() {
        let (flops, bytes) = csr_traffic(10, 50);
        assert_eq!(flops, 100);
        // 24·nnz + 16·rows + 8 row-pointer tail.
        assert_eq!(bytes, 24 * 50 + 16 * 10 + 8);
    }

    #[test]
    fn csr_traffic_multi_amortizes_the_matrix_read() {
        // k = 1 reduces exactly to the single-RHS model.
        assert_eq!(csr_traffic_multi(10, 50, 1), csr_traffic(10, 50));
        // k = 8: flops scale with k, but only the vector streams do —
        // the matrix (values + indices + row pointers) is read once.
        let (flops, bytes) = csr_traffic_multi(10, 50, 8);
        assert_eq!(flops, 8 * 100);
        let matrix = 16 * 50 + 8 * 10 + 8;
        let vectors = 8 * (8 * 50 + 8 * 10);
        assert_eq!(bytes, matrix + vectors);
        assert!(bytes < 8 * csr_traffic(10, 50).1);
    }

    #[test]
    fn calibration_document_round_trips() {
        let r = Roofline { copy_gbs: 12.345, triad_gbs: 9.876 };
        let doc = render_calibration(&r);
        assert_eq!(json_number(&doc, "copy_gbs"), Some(12.345));
        assert_eq!(json_number(&doc, "triad_gbs"), Some(9.876));
        let dir = std::env::temp_dir().join("rsparse_calibration_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(CALIBRATION_FILE);
        fs::write(&path, &doc).unwrap();
        let loaded = load_calibration(&path).expect("load");
        assert_eq!(loaded, r);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn models_register_last_wins() {
        // A concurrent `reset` clears every recorder's models.
        let _g = crate::tests::locked();
        let model = KernelModel {
            span: "work",
            flops: 7,
            bytes: 11,
            unit: WorkUnit::SpanCalls,
            time: TimeBase::Total,
            nrhs: 1,
        };
        register("test_kernel", model);
        register("test_kernel", KernelModel { bytes: 13, ..model });
        let models = recorder::with_local(|r| r.local().folds.models.clone());
        assert_eq!(models.get("test_kernel").unwrap().bytes, 13);
    }
}
