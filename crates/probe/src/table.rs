//! Report tables — rows of rank × key × typed columns — and their text and
//! JSON writers. [`Value::write`] is where a column's [`Kind`] decides how
//! each format writes a value; [`Table::text`], [`Table::json`] /
//! [`Table::json_object`] and the Prometheus page's `families` in
//! [`crate::export`] are the one writer per format.

use std::fmt::Write as _;

use crate::json;

/// What a column holds: counts, seconds, latency quantiles (seconds),
/// rates or ratios, percentages, or text (the one kind text aligns left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Count,
    Secs,
    Quantile,
    Rate,
    Pct,
    Text,
}

/// The three output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    Text,
    Json,
    Prometheus,
}

/// One cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Int(u64),
    Real(f64),
    Text(String),
    Null,
}

impl Value {
    /// This value, in a column of `kind`, written as `format` (empty for
    /// text and absent values as Prometheus, which are no sample).
    pub(crate) fn write(&self, kind: Kind, format: Format) -> String {
        match (self, kind, format) {
            (Value::Int(n), ..) => n.to_string(),
            (Value::Real(x), _, Format::Prometheus) => format!("{x:e}"),
            (Value::Real(x), Kind::Rate, Format::Json) => format!("{x:.6}"),
            (Value::Real(x), Kind::Pct, Format::Json) => format!("{x:.3}"),
            (Value::Real(x), _, Format::Json) => json::number(*x),
            (Value::Real(x), Kind::Quantile, Format::Text) => format!("{x:.3e}"),
            (Value::Real(x), Kind::Rate, Format::Text) => format!("{x:.3}"),
            (Value::Real(x), Kind::Pct, Format::Text) => format!("{x:.1}%"),
            (Value::Real(x), _, Format::Text) => format!("{x:.6}"),
            (Value::Text(s), _, Format::Json) => format!("\"{}\"", json::escape(s)),
            (Value::Text(s), _, Format::Text) => s.clone(),
            (Value::Null, _, Format::Json) => "null".to_string(),
            (Value::Null, _, Format::Text) => "-".to_string(),
            (Value::Text(_) | Value::Null, _, Format::Prometheus) => String::new(),
        }
    }
}

/// One row: its rank, its key (a name, or only a text label), a value per column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) rank: Option<usize>,
    pub(crate) key: String,
    pub(crate) values: Vec<Value>,
}

/// A table: rank × key × typed columns.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    /// Name of the key column; `None` when the key is only a text label
    /// (JSON leaves it out, text heads it `rank`).
    pub(crate) key: Option<&'static str>,
    /// Each column's name — the JSON member and the text header — and kind.
    pub(crate) columns: Vec<(String, Kind)>,
    pub(crate) rows: Vec<Row>,
}

impl Table {
    pub(crate) fn new(key: Option<&'static str>, columns: &[(&str, Kind)]) -> Table {
        let columns = columns.iter().map(|&(name, kind)| (name.to_string(), kind)).collect();
        Table { key, columns, rows: Vec::new() }
    }

    pub(crate) fn push(&mut self, rank: Option<usize>, key: impl Into<String>, values: Vec<Value>) {
        self.rows.push(Row { rank, key: key.into(), values });
    }

    /// Index of the column named `name`.
    pub(crate) fn column(&self, name: &str) -> usize {
        self.columns.iter().position(|c| c.0 == name).expect("a column of this table")
    }

    /// Text: `title` on its own line (unless empty), a header and a line
    /// per row, indented by `indent`, each column as wide as its widest
    /// cell; nothing at all for a table without rows.
    pub(crate) fn text(&self, title: &str, indent: usize) -> String {
        if self.rows.is_empty() {
            return String::new();
        }
        let head = std::iter::once(self.key.unwrap_or("rank").to_string())
            .chain(self.columns.iter().map(|c| c.0.clone()))
            .collect();
        let lines: Vec<Vec<String>> = std::iter::once(head)
            .chain(self.rows.iter().map(|row| {
                let cells = row.values.iter().zip(&self.columns);
                let cells = cells.map(|(v, (_, kind))| v.write(*kind, Format::Text));
                std::iter::once(row.key.clone()).chain(cells).collect()
            }))
            .collect();
        let width = |j: usize| lines.iter().map(|l| l[j].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..lines[0].len()).map(width).collect();
        let mut out = if title.is_empty() { String::new() } else { format!("{title}\n") };
        for line in &lines {
            let _ = write!(out, "{:indent$}{:<w$}", "", line[0], w = widths[0]);
            for ((cell, w), (_, kind)) in line[1..].iter().zip(&widths[1..]).zip(&self.columns) {
                let _ = match kind {
                    Kind::Text => write!(out, "  {cell:<w$}"),
                    _ => write!(out, "  {cell:>w$}"),
                };
            }
            out.truncate(out.trim_end_matches(' ').len());
            out.push('\n');
        }
        out
    }

    /// JSON: an array of one object per row — `"rank"` first when
    /// `with_rank`, the key when the table names it, then the columns.
    pub(crate) fn json(&self, with_rank: bool) -> String {
        let object = |row: &Row| {
            let mut members = Vec::new();
            if with_rank {
                let rank = row.rank.map_or("null".to_string(), |r| r.to_string());
                members.push(format!("\"rank\":{rank}"));
            }
            if let Some(key) = self.key {
                members.push(format!("\"{key}\":\"{}\"", json::escape(&row.key)));
            }
            for ((name, kind), v) in self.columns.iter().zip(&row.values) {
                members.push(format!("\"{name}\":{}", v.write(*kind, Format::Json)));
            }
            format!("{{{}}}", members.join(","))
        };
        format!("[{}]", self.rows.iter().map(object).collect::<Vec<_>>().join(","))
    }

    /// JSON: one object mapping each row's key to its first value (the
    /// counters' and notes' form).
    pub(crate) fn json_object(&self) -> String {
        let kind = self.columns[0].1;
        let member = |row: &Row| {
            format!("\"{}\":{}", json::escape(&row.key), row.values[0].write(kind, Format::Json))
        };
        format!("{{{}}}", self.rows.iter().map(member).collect::<Vec<_>>().join(","))
    }
}
