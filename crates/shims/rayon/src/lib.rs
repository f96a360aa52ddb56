//! Empty: kept because `benchmark/Cargo.lock` lists `rayon` as a dependency of `lisi-sparse`.
