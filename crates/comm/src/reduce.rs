//! Ready-made reduction combiners, mirroring the MPI predefined operations
//! `MPI_SUM` and `MPI_MAX`.
//!
//! These are plain functions usable wherever a collective takes an
//! `Fn(&T, &T) -> T` combiner:
//!
//! ```
//! use rcomm::{sum, Universe};
//! let out = Universe::run(3, |c| c.allreduce(c.rank() as f64, sum).unwrap());
//! assert_eq!(out, vec![3.0, 3.0, 3.0]);
//! ```

use std::ops::Add;

/// Addition (`MPI_SUM`).
pub fn sum<T: Add<Output = T> + Clone>(a: &T, b: &T) -> T {
    a.clone() + b.clone()
}

/// Maximum (`MPI_MAX`).
pub fn max<T: PartialOrd + Clone>(a: &T, b: &T) -> T {
    if b > a {
        b.clone()
    } else {
        a.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn scalar_ops() {
        assert_eq!(sum(&2, &3), 5);
        assert_eq!(max(&2, &3), 3);
        assert_eq!(max(&3.5, &-1.0), 3.5);
    }

    #[test]
    fn ops_work_inside_collectives() {
        let out = Universe::run(4, |c| {
            let mx = c.allreduce(c.rank() as f64, max).unwrap();
            let total = c.allreduce(c.rank() as i64 + 1, sum).unwrap();
            (mx, total)
        });
        for v in out {
            assert_eq!(v, (3.0, 10));
        }
    }
}
