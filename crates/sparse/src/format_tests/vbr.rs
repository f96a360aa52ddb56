//! Checks of the uniform-VBR decoder and encoder in [`crate::convert`].

mod tests {
    use crate::convert::{csr_to_vbr, decode_vbr, Window};
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::error::SparseError;

    /// 4×4 with 2×2 blocks:
    /// [ 1 2 | 0 0 ]
    /// [ 3 4 | 0 0 ]
    /// [ 0 0 | 5 0 ]
    /// [ 0 6 | 0 7 ]
    fn sample_csr() -> CsrMatrix {
        let coo = CooMatrix::from_triplets(
            4,
            4,
            &[0, 0, 1, 1, 2, 3, 3],
            &[0, 1, 0, 1, 2, 1, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap();
        coo.to_csr()
    }

    #[test]
    fn from_csr_stores_touched_blocks_only() {
        let (v, p, c) = csr_to_vbr(&sample_csr(), 2).unwrap();
        // Blocks (0,0), (1,0) (because of the 6 at (3,1)), (1,1).
        assert_eq!((&p[..], &c[..]), (&[0, 1, 3][..], &[0, 0, 1][..]));
        assert_eq!(v, [1.0, 3.0, 2.0, 4.0, 0.0, 0.0, 0.0, 6.0, 5.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn vbr_round_trips_through_csr() {
        let a = sample_csr();
        let (v, p, c) = csr_to_vbr(&a, 2).unwrap();
        assert_eq!(decode_vbr(Window::serial(4), 2, &v, &p, &c).unwrap(), a);
        // The same arrays at index base 1, read as the lower half of the
        // matrix by the rank that owns rows 2..4.
        let lower = a.row_block(2, 4).unwrap();
        let (v, p, c) = csr_to_vbr(&lower, 2).unwrap();
        let shift = |x: &[usize]| x.iter().map(|i| i + 1).collect::<Vec<_>>();
        let w = Window { start: 2, rows: 2, cols: 4, base: 1 };
        assert_eq!(decode_vbr(w, 2, &v, &shift(&p), &shift(&c)).unwrap(), lower);
    }

    #[test]
    fn partition_validation() {
        let a = sample_csr();
        let (v, p, c) = csr_to_vbr(&a, 2).unwrap();
        let w = Window::serial(4);
        // Block-row pointers not covering the matrix.
        assert!(matches!(
            decode_vbr(w, 2, &v, &p[..2], &c),
            Err(SparseError::LengthMismatch {
                what: "VBR block-row pointers",
                expected: 3,
                got: 2
            })
        ));
        // Non-monotone block-row pointers.
        assert!(matches!(
            decode_vbr(w, 2, &[0.0; 4], &[0, 2, 1], &[0, 1]),
            Err(SparseError::MalformedPointers(_))
        ));
        // Too few values for the stored blocks.
        assert!(matches!(
            decode_vbr(w, 2, &v[..11], &p, &c),
            Err(SparseError::LengthMismatch { what: "VBR values", expected: 12, got: 11 })
        ));
        // A block size that does not divide the matrix, on either side.
        assert!(matches!(csr_to_vbr(&a, 3), Err(SparseError::BadBlockPartition(_))));
        assert!(matches!(
            decode_vbr(w, 3, &[], &[0, 0], &[]),
            Err(SparseError::BadBlockPartition(_))
        ));
    }
}
