//! A PETSc-style string option database. LISI's generic parameter setters
//! (`set`, `setInt`, `setBool`, `setDouble` — paper §6.5) funnel into this
//! structure, and each solver package interprets the keys it knows.

use std::collections::BTreeMap;
use std::fmt;

/// A value that does not parse as the type its key takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadValue {
    /// The key the caller set.
    pub key: String,
    /// Its unparsable value.
    pub value: String,
}

impl fmt::Display for BadValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse '{}' for '{}'", self.value, self.key)
    }
}

impl std::error::Error for BadValue {}

/// An ordered string key–value store with typed setters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    entries: BTreeMap<String, String>,
}

impl Options {
    /// Empty database.
    pub fn new() -> Self {
        Options::default()
    }

    /// Set a string value (last write wins).
    pub fn set(&mut self, key: &str, value: &str) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Set an integer value.
    pub fn set_int(&mut self, key: &str, value: i64) {
        self.set(key, &value.to_string());
    }

    /// Set a boolean value.
    pub fn set_bool(&mut self, key: &str, value: bool) {
        self.set(key, if value { "true" } else { "false" });
    }

    /// Set a floating-point value (round-trip formatting).
    pub fn set_double(&mut self, key: &str, value: f64) {
        self.set(key, &format!("{value:e}"));
    }

    /// Get a raw value.
    pub fn get(&self, key: &str) -> Option<String> {
        self.entries.get(key).cloned()
    }

    /// First present key among aliases (LISI keys vs PETSc keys).
    pub fn get_first(&self, keys: &[&str]) -> Option<String> {
        keys.iter().find_map(|k| self.get(k))
    }

    /// Typed read with parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// Parse the first of `keys` that is set: `Ok(None)` when none is, a
    /// [`BadValue`] naming the key the caller set when its value does not
    /// parse as `T`.
    pub fn parse_first<T: std::str::FromStr>(&self, keys: &[&str]) -> Result<Option<T>, BadValue> {
        let Some((key, value)) = keys.iter().find_map(|k| self.entries.get_key_value(*k)) else {
            return Ok(None);
        };
        value.parse().map(Some).map_err(|_| BadValue { key: key.clone(), value: value.clone() })
    }

    /// Whether a key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Dump as `key=value` lines in key order — what LISI's `get_all()`
    /// returns to the application.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for (k, v) in self.iter() {
            s.push_str(k);
            s.push('=');
            s.push_str(v);
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_setters_round_trip() {
        let mut o = Options::new();
        o.set("solver", "gmres");
        o.set_int("maxits", 500);
        o.set_bool("trace", true);
        o.set_double("tol", 1e-7);
        assert_eq!(o.get("solver").as_deref(), Some("gmres"));
        assert_eq!(o.get_parsed::<usize>("maxits"), Some(500));
        assert_eq!(o.get_parsed::<bool>("trace"), Some(true));
        assert_eq!(o.get_parsed::<f64>("tol"), Some(1e-7));
        assert_eq!(o.len(), 4);
        assert!(!o.is_empty());
    }

    #[test]
    fn last_write_wins_and_aliases_resolve_in_order() {
        let mut o = Options::new();
        o.set("tol", "1e-3");
        o.set("tol", "1e-9");
        assert_eq!(o.get("tol").as_deref(), Some("1e-9"));
        o.set("ksp_rtol", "1e-4");
        assert_eq!(o.get_first(&["ksp_rtol", "tol"]).as_deref(), Some("1e-4"));
        assert_eq!(o.get_first(&["missing", "tol"]).as_deref(), Some("1e-9"));
        assert_eq!(o.get_first(&["missing1", "missing2"]), None);
    }

    #[test]
    fn parse_first_names_the_key_that_was_set() {
        let mut o = Options::new();
        assert_eq!(o.parse_first::<usize>(&["ksp_max_it", "maxits"]), Ok(None));
        o.set("maxits", "x");
        let err = o.parse_first::<usize>(&["ksp_max_it", "maxits"]).unwrap_err();
        assert_eq!(err, BadValue { key: "maxits".into(), value: "x".into() });
        o.set("ksp_max_it", "12");
        assert_eq!(o.parse_first(&["ksp_max_it", "maxits"]), Ok(Some(12usize)));
    }

    #[test]
    fn dump_is_sorted_and_parseable() {
        let mut o = Options::new();
        o.set("b_key", "2");
        o.set("a_key", "1");
        assert_eq!(o.dump(), "a_key=1\nb_key=2\n");
    }
}
