//! Checks of the MSR decoder and encoder in [`crate::convert`].

mod tests {
    use crate::convert::{csr_to_msr, decode_msr, Window};
    use crate::csr::CsrMatrix;
    use crate::error::SparseError;

    /// [ 4 1 0 ]
    /// [ 1 4 1 ]
    /// [ 0 1 4 ]
    fn tridiag_csr() -> CsrMatrix {
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn csr_msr_round_trip() {
        let a = tridiag_csr();
        let (val, ja) = csr_to_msr(&a, 0).unwrap();
        assert_eq!(&val[..3], &[4.0, 4.0, 4.0]);
        // Dense diagonal (3) + four off-diagonals after the unused slot 3.
        assert_eq!(val.len() - 1, 7);
        assert_eq!(ja, [4, 5, 7, 8, 1, 0, 2, 1]);
        assert_eq!(decode_msr(Window::serial(3), &val, &ja).unwrap(), a);
    }

    #[test]
    fn layout_validation() {
        let one = Window::serial(1);
        // ja[0] wrong.
        assert!(matches!(
            decode_msr(one, &[1.0, 0.0], &[0, 2]),
            Err(SparseError::MalformedPointers(_))
        ));
        // ja[n] must not run past val.
        assert!(matches!(
            decode_msr(one, &[1.0, 0.0], &[2, 9]),
            Err(SparseError::MalformedPointers(_))
        ));
        // val and ja must be the same length.
        assert!(matches!(
            decode_msr(one, &[1.0, 0.0], &[2]),
            Err(SparseError::LengthMismatch { what: "MSR ja", .. })
        ));
        // Minimal valid 1x1: diagonal only.
        let m = decode_msr(one, &[5.0, 0.0], &[2, 2]).unwrap();
        assert_eq!(m.matvec(&[2.0]).unwrap(), vec![10.0]);
        // An off-diagonal slot naming the diagonal column is a duplicate,
        // summed into the diagonal like a repeated COO triplet.
        let m = decode_msr(Window::serial(2), &[1.0, 1.0, 0.0, 9.0], &[3, 4, 4, 0]).unwrap();
        assert_eq!((m.get(0, 0), m.get(1, 1), m.nnz()), (10.0, 1.0, 2));
    }

    #[test]
    fn rectangular_csr_is_rejected() {
        // A window taller than it is wide has diagonal slots with no column.
        let tall = CsrMatrix::from_parts(2, 1, vec![0, 1, 1], vec![0], vec![1.0]).unwrap();
        assert!(matches!(
            csr_to_msr(&tall, 0),
            Err(SparseError::OutOfWindow { axis: "diagonal column", index: 1, lo: 0, hi: 1 })
        ));
        let w = Window { start: 0, rows: 2, cols: 1, base: 0 };
        assert!(matches!(
            decode_msr(w, &[1.0, 0.0, 0.0], &[3, 3, 3]),
            Err(SparseError::OutOfWindow { axis: "diagonal column", .. })
        ));
    }

    #[test]
    fn zero_diagonal_is_stored_densely_but_dropped_on_csr() {
        // [ 0 2 ]
        // [ 0 5 ]
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 1], vec![2.0, 5.0]).unwrap();
        let (val, ja) = csr_to_msr(&a, 0).unwrap();
        assert_eq!(&val[..2], &[0.0, 5.0]);
        assert_eq!(val.len() - 1, 3); // dense diagonal (2) + 1 off-diag
        assert_eq!(decode_msr(Window::serial(2), &val, &ja).unwrap(), a); // zero diagonal dropped again
    }
}
