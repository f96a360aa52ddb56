//! Finite-element assembly input — LISI's `SparseStruct::FEM`. The
//! application hands over *element* contributions (a dense element matrix
//! plus the global indices of its local degrees of freedom); assembly sums
//! them into a global sparse matrix. This is the format scientific codes
//! have "in hand" before any sparse structure exists, and the reason COO
//! duplicate-summing semantics matter.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// One element contribution: `dofs.len() × dofs.len()` dense matrix in
/// row-major order plus the global indices it scatters to.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Global degree-of-freedom indices of the element's local nodes.
    pub dofs: Vec<usize>,
    /// Row-major dense element matrix of size `dofs.len()²`.
    pub matrix: Vec<f64>,
}

impl Element {
    /// Build one element, checking the matrix size.
    pub fn new(dofs: Vec<usize>, matrix: Vec<f64>) -> SparseResult<Self> {
        let k = dofs.len();
        if matrix.len() != k * k {
            return Err(SparseError::LengthMismatch {
                what: "element matrix",
                expected: k * k,
                got: matrix.len(),
            });
        }
        Ok(Element { dofs, matrix })
    }
}

/// A collection of element contributions awaiting assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FemAssembly {
    n: usize,
    elements: Vec<Element>,
}

impl FemAssembly {
    /// Empty assembly over `n` global degrees of freedom.
    pub fn new(n: usize) -> Self {
        FemAssembly { n, elements: Vec::new() }
    }

    /// Global problem size.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of elements added so far.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Borrow the raw elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Add one element, validating all its dof indices.
    pub fn add_element(&mut self, element: Element) -> SparseResult<()> {
        for &d in &element.dofs {
            if d >= self.n {
                return Err(SparseError::IndexOutOfBounds {
                    axis: "dof",
                    index: d,
                    bound: self.n,
                });
            }
        }
        self.elements.push(element);
        Ok(())
    }

    /// Assemble into COO (duplicates kept; summed on CSR conversion).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.n, self.n);
        coo.reserve(self.elements.iter().map(|e| e.matrix.len()).sum());
        for e in &self.elements {
            let k = e.dofs.len();
            for (li, &gi) in e.dofs.iter().enumerate() {
                for (lj, &gj) in e.dofs.iter().enumerate() {
                    let v = e.matrix[li * k + lj];
                    if v != 0.0 {
                        coo.push(gi, gj, v).expect("dofs validated on insert");
                    }
                }
            }
        }
        coo
    }

    /// Assemble straight to CSR (overlapping contributions summed).
    pub fn to_csr(&self) -> CsrMatrix {
        self.to_coo().to_csr()
    }

    /// Assemble an element-wise right-hand side: `loads[i]` scatters into
    /// the global vector at `elements[i].dofs`.
    pub fn assemble_rhs(&self, loads: &[Vec<f64>]) -> SparseResult<Vec<f64>> {
        if loads.len() != self.elements.len() {
            return Err(SparseError::LengthMismatch {
                what: "element loads",
                expected: self.elements.len(),
                got: loads.len(),
            });
        }
        let mut b = vec![0.0; self.n];
        for (e, load) in self.elements.iter().zip(loads) {
            if load.len() != e.dofs.len() {
                return Err(SparseError::LengthMismatch {
                    what: "element load vector",
                    expected: e.dofs.len(),
                    got: load.len(),
                });
            }
            for (&d, &v) in e.dofs.iter().zip(load) {
                b[d] += v;
            }
        }
        Ok(b)
    }
}

/// Assemble a 1-D linear-element stiffness matrix for −u″ on `n + 1`
/// equally spaced nodes (a standard smoke-test problem whose assembled
/// matrix is the scaled tridiagonal [−1, 2, −1]).
pub fn stiffness_1d(n_elements: usize) -> FemAssembly {
    let n = n_elements + 1;
    let h = 1.0 / n_elements as f64;
    let mut fem = FemAssembly::new(n);
    let k = 1.0 / h;
    for e in 0..n_elements {
        fem.add_element(
            Element::new(vec![e, e + 1], vec![k, -k, -k, k]).expect("square by construction"),
        )
        .expect("indices in range");
    }
    fem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_matrix_size_is_validated() {
        assert!(Element::new(vec![0, 1], vec![1.0, 2.0, 3.0]).is_err());
        assert!(Element::new(vec![0, 1], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn dof_bounds_are_validated() {
        let mut fem = FemAssembly::new(2);
        let e = Element::new(vec![0, 5], vec![1.0; 4]).unwrap();
        assert!(fem.add_element(e).is_err());
    }

    #[test]
    fn overlapping_elements_sum() {
        // Two 2-dof elements sharing dof 1.
        let mut fem = FemAssembly::new(3);
        fem.add_element(Element::new(vec![0, 1], vec![1.0, -1.0, -1.0, 1.0]).unwrap())
            .unwrap();
        fem.add_element(Element::new(vec![1, 2], vec![1.0, -1.0, -1.0, 1.0]).unwrap())
            .unwrap();
        let a = fem.to_csr();
        // Assembled: [1 -1 0; -1 2 -1; 0 -1 1]
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn stiffness_1d_matches_finite_differences() {
        let fem = stiffness_1d(4);
        assert_eq!(fem.element_count(), 4);
        let a = fem.to_csr();
        let h_inv = 4.0;
        // Interior row: (1/h)·[−1, 2, −1].
        assert_eq!(a.get(2, 1), -h_inv);
        assert_eq!(a.get(2, 2), 2.0 * h_inv);
        assert_eq!(a.get(2, 3), -h_inv);
        // Boundary rows have a single off-diagonal.
        assert_eq!(a.get(0, 0), h_inv);
    }

    #[test]
    fn rhs_assembly_scatters_and_sums() {
        let mut fem = FemAssembly::new(3);
        fem.add_element(Element::new(vec![0, 1], vec![0.0; 4]).unwrap()).unwrap();
        fem.add_element(Element::new(vec![1, 2], vec![0.0; 4]).unwrap()).unwrap();
        let b = fem.assemble_rhs(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(b, vec![1.0, 5.0, 4.0]);
        assert!(fem.assemble_rhs(&[vec![1.0, 2.0]]).is_err());
        assert!(fem.assemble_rhs(&[vec![1.0], vec![1.0, 1.0]]).is_err());
    }
}
