//! MatrixMarket I/O — the exchange format of the sparse-matrix community
//! and the natural way to feed external problems into the examples.
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix array real general` (dense vector) flavours.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// Parsed MatrixMarket symmetry kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; mirrored on read.
    Symmetric,
}

fn bad(line: usize, reason: impl Into<String>) -> SparseError {
    SparseError::BadMatrixMarket { line, reason: reason.into() }
}

/// Read a sparse matrix in MatrixMarket coordinate format from a reader.
pub fn read_matrix<R: BufRead>(reader: R) -> SparseResult<CsrMatrix> {
    let mut lines = reader.lines().enumerate();

    // Header.
    let (_, header) = lines
        .next()
        .ok_or_else(|| bad(0, "empty file"))?
        .1
        .map(|h| (0usize, h))
        .map_err(SparseError::from)?;
    let head = header.to_ascii_lowercase();
    let fields: Vec<&str> = head.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(bad(1, "missing %%MatrixMarket matrix header"));
    }
    if fields[2] != "coordinate" {
        return Err(bad(1, format!("unsupported storage '{}'", fields[2])));
    }
    if fields[3] != "real" && fields[3] != "integer" {
        return Err(bad(1, format!("unsupported field type '{}'", fields[3])));
    }
    let symmetry = match fields[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(bad(1, format!("unsupported symmetry '{other}'"))),
    };

    // Size line (skipping comments).
    let mut size_line = None;
    for (ln, line) in lines.by_ref() {
        let line = line.map_err(SparseError::from)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((ln + 1, t.to_string()));
        break;
    }
    let (size_ln, size_line) = size_line.ok_or_else(|| bad(0, "missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|_| bad(size_ln, "bad size entry")))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(bad(size_ln, "size line must have rows cols nnz"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = CooMatrix::new(rows, cols);
    let mut seen = 0usize;
    for (ln, line) in lines {
        let line = line.map_err(SparseError::from)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| bad(ln + 1, "missing row"))?
            .parse()
            .map_err(|_| bad(ln + 1, "bad row index"))?;
        let c: usize = it
            .next()
            .ok_or_else(|| bad(ln + 1, "missing column"))?
            .parse()
            .map_err(|_| bad(ln + 1, "bad column index"))?;
        let v: f64 = it
            .next()
            .ok_or_else(|| bad(ln + 1, "missing value"))?
            .parse()
            .map_err(|_| bad(ln + 1, "bad value"))?;
        if r == 0 || c == 0 {
            return Err(bad(ln + 1, "MatrixMarket indices are 1-based"));
        }
        coo.push(r - 1, c - 1, v).map_err(|e| bad(ln + 1, e.to_string()))?;
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v).map_err(|e| bad(ln + 1, e.to_string()))?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(bad(0, format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Read a sparse matrix from a MatrixMarket file on disk.
pub fn read_matrix_file(path: impl AsRef<Path>) -> SparseResult<CsrMatrix> {
    let f = std::fs::File::open(path)?;
    read_matrix(std::io::BufReader::new(f))
}

/// Write a sparse matrix in MatrixMarket coordinate/real/general form.
pub fn write_matrix<W: Write>(w: W, a: &CsrMatrix) -> SparseResult<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by rsparse (CCA-LISI reproduction)")?;
    let (rows, cols) = a.shape();
    writeln!(w, "{rows} {cols} {}", a.nnz())?;
    for (r, c, v) in a.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

/// Write a sparse matrix to a file.
pub fn write_matrix_file(path: impl AsRef<Path>, a: &CsrMatrix) -> SparseResult<()> {
    let f = std::fs::File::create(path)?;
    write_matrix(f, a)
}

/// Write a dense vector in MatrixMarket array form.
pub fn write_vector<W: Write>(w: W, v: &[f64]) -> SparseResult<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "%%MatrixMarket matrix array real general")?;
    writeln!(w, "{} 1", v.len())?;
    for x in v {
        writeln!(w, "{x:.17e}")?;
    }
    w.flush()?;
    Ok(())
}

/// Read a dense vector in MatrixMarket array form.
pub fn read_vector<R: BufRead>(reader: R) -> SparseResult<Vec<f64>> {
    let mut lines = reader.lines().enumerate();
    let (_, header) = match lines.next() {
        Some((i, l)) => (i, l.map_err(SparseError::from)?),
        None => return Err(bad(0, "empty file")),
    };
    let head = header.to_ascii_lowercase();
    if !head.starts_with("%%matrixmarket") || !head.contains("array") {
        return Err(bad(1, "expected MatrixMarket array header"));
    }
    let mut dims = None;
    let mut out = Vec::new();
    for (ln, line) in lines {
        let line = line.map_err(SparseError::from)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if dims.is_none() {
            let d: Vec<usize> = t
                .split_whitespace()
                .map(|x| x.parse().map_err(|_| bad(ln + 1, "bad dimension")))
                .collect::<Result<_, _>>()?;
            if d.len() != 2 || d[1] != 1 {
                return Err(bad(ln + 1, "expected 'n 1' vector dimensions"));
            }
            dims = Some(d[0]);
            out.reserve(d[0]);
        } else {
            out.push(t.parse::<f64>().map_err(|_| bad(ln + 1, "bad value"))?);
        }
    }
    let n = dims.ok_or_else(|| bad(0, "missing dimensions"))?;
    if out.len() != n {
        return Err(bad(0, format!("expected {n} values, found {}", out.len())));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn matrix_round_trips_through_text() {
        let a = generate::random_csr(9, 7, 0.25, 13);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &a).unwrap();
        let back = read_matrix(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn symmetric_matrices_are_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    3 3 4.0\n";
        let a = read_matrix(std::io::Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(2, 2), 4.0);
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    \n\
                    2 2 2\n\
                    % another\n\
                    1 1 1.5\n\
                    2 2 2.5\n";
        let a = read_matrix(std::io::Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(1, 1), 2.5);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let no_header = "1 1 1\n";
        assert!(read_matrix(std::io::Cursor::new(no_header)).is_err());

        let bad_kind = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0\n";
        assert!(read_matrix(std::io::Cursor::new(bad_kind)).is_err());

        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(matches!(
            read_matrix(std::io::Cursor::new(zero_based)),
            Err(SparseError::BadMatrixMarket { line: 3, .. })
        ));

        let wrong_count = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        assert!(read_matrix(std::io::Cursor::new(wrong_count)).is_err());

        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 1.0\n";
        assert!(read_matrix(std::io::Cursor::new(oob)).is_err());
    }

    #[test]
    fn vector_round_trips() {
        let v = generate::random_vector(17, 4);
        let mut buf = Vec::new();
        write_vector(&mut buf, &v).unwrap();
        let back = read_vector(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rsparse_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let a = generate::laplacian_2d(4);
        write_matrix_file(&path, &a).unwrap();
        let back = read_matrix_file(&path).unwrap();
        assert_eq!(back, a);
        std::fs::remove_file(&path).ok();
    }
}
