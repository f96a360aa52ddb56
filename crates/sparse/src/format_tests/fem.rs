//! Checks of the FEM element decoder in [`crate::convert`].

mod tests {
    use crate::convert::{decode_fem, Window};
    use crate::error::SparseError;

    #[test]
    fn element_matrix_size_is_validated() {
        let w = Window::serial(2);
        assert!(matches!(
            decode_fem(w, 2, &[1.0, 2.0, 3.0], &[0, 1]),
            Err(SparseError::LengthMismatch { what: "FEM element matrices", expected: 4, got: 3 })
        ));
        assert!(decode_fem(w, 2, &[1.0; 4], &[0, 1]).is_ok());
    }

    #[test]
    fn dof_bounds_are_validated() {
        assert!(matches!(
            decode_fem(Window::serial(2), 2, &[1.0; 4], &[0, 5]),
            Err(SparseError::OutOfWindow { axis: "dof", index: 5, lo: 0, hi: 2 })
        ));
        // Every dof must be a row this rank owns, at the window's base.
        let w = Window { start: 2, rows: 2, cols: 4, base: 1 };
        assert!(matches!(
            decode_fem(w, 2, &[1.0; 4], &[2, 3]),
            Err(SparseError::OutOfWindow { axis: "dof", index: 2, lo: 3, hi: 5 })
        ));
        assert!(decode_fem(w, 2, &[1.0; 4], &[3, 4]).is_ok());
    }

    #[test]
    fn overlapping_elements_sum() {
        // Two 2-dof elements sharing dof 1: [1 -1 0; -1 2 -1; 0 -1 1].
        let e = [1.0, -1.0, -1.0, 1.0];
        let a = decode_fem(Window::serial(3), 2, &[e, e].concat(), &[0, 1, 1, 2]).unwrap();
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.nnz(), 7);
    }
}
