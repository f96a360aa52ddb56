//! Fill-reducing orderings: natural, reverse Cuthill–McKee, and minimum
//! degree on the symmetrized pattern — the `permc_spec` choices of
//! SuperLU.

use rsparse::CsrMatrix;

/// Ordering strategy for the analyze phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Identity permutation (SuperLU's `NATURAL`).
    Natural,
    /// Reverse Cuthill–McKee: bandwidth reduction.
    Rcm,
    /// Minimum degree on A + Aᵀ (SuperLU's `MMD_AT_PLUS_A` spirit).
    #[default]
    MinDegree,
}

impl Ordering {
    /// Parse a name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "natural" | "none" => Some(Ordering::Natural),
            "rcm" => Some(Ordering::Rcm),
            "mindegree" | "min_degree" | "mmd" | "amd" => Some(Ordering::MinDegree),
            _ => None,
        }
    }

    /// Compute the permutation for a square matrix: `perm[new] = old`.
    pub fn compute(self, a: &CsrMatrix) -> Vec<usize> {
        match self {
            Ordering::Natural => (0..a.rows()).collect(),
            Ordering::Rcm => rcm(a),
            Ordering::MinDegree => min_degree(a),
        }
    }
}

/// Symmetrized adjacency (A + Aᵀ pattern, no diagonal) in flat CSR form:
/// the neighbours of `v` are `idx[ptr[v]..ptr[v + 1]]`, sorted.
struct SymGraph {
    ptr: Vec<usize>,
    idx: Vec<u32>,
}

impl SymGraph {
    fn new(a: &CsrMatrix) -> Self {
        let n = a.rows();
        assert!(u32::try_from(n).is_ok(), "ordering indexes vertices with u32, got n = {n}");
        let mut ptr = vec![0usize; n + 1];
        for (r, c, _) in a.iter().filter(|&(r, c, _)| r != c) {
            ptr[r + 1] += 1;
            ptr[c + 1] += 1;
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        // Fill both directions (duplicates included), then sort and
        // deduplicate each row, compacting towards the front.
        let mut idx = vec![0u32; ptr[n]];
        let mut fill = ptr.clone();
        for (r, c, _) in a.iter().filter(|&(r, c, _)| r != c) {
            idx[fill[r]] = c as u32;
            fill[r] += 1;
            idx[fill[c]] = r as u32;
            fill[c] += 1;
        }
        let mut w = 0;
        for v in 0..n {
            let (lo, hi) = (ptr[v], ptr[v + 1]);
            idx[lo..hi].sort_unstable();
            ptr[v] = w;
            for k in lo..hi {
                if k == lo || idx[k] != idx[k - 1] {
                    idx[w] = idx[k];
                    w += 1;
                }
            }
        }
        ptr[n] = w;
        idx.truncate(w);
        SymGraph { ptr, idx }
    }

    fn neighbours(&self, v: usize) -> &[u32] {
        &self.idx[self.ptr[v]..self.ptr[v + 1]]
    }
}

/// Reverse Cuthill–McKee: BFS from a minimum-degree start vertex in each
/// connected component, neighbours visited in increasing-degree order,
/// final order reversed.
pub fn rcm(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let adj = SymGraph::new(a);
    let degree: Vec<usize> = (0..n).map(|v| adj.neighbours(v).len()).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Process vertices grouped by component, starting from low degree.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| degree[v]);
    for &start in &by_degree {
        if visited[start] {
            continue;
        }
        // BFS.
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj
                .neighbours(v)
                .iter()
                .map(|&u| u as usize)
                .filter(|&u| !visited[u])
                .collect();
            nbrs.sort_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Minimum degree on the symmetrized pattern, run on a quotient graph.
///
/// An eliminated pivot `p` is kept as an *element* whose list `L_p` is
/// the clique its elimination would have formed; the clique's edges are
/// never stored. A live variable `i` carries a variable list `A_i` (plain
/// edges not yet covered by an element) and an element list `E_i`, both
/// in flat `u32` storage shaped like the input adjacency: `|A_i| + |E_i|`
/// never exceeds `i`'s initial degree, so neither list is ever
/// reallocated. Element lists are appended to one pool, at most one entry
/// per entry of the L factor. Eliminating `p`:
///
/// 1. `L_p = (A_p ∪ ⋃_{e ∈ E_p} L_e) \ {p}`; every `e ∈ E_p` is absorbed
///    into `p` (its clique is a subset of `L_p`);
/// 2. for each `i ∈ L_p`: absorbed elements leave `E_i` and `p` joins it,
///    `A_i` loses `p` and every member of `L_p` (those edges are now
///    implied by `p`), and the degree of `i` is recomputed **exactly** as
///    `|(A_i ∪ ⋃_{e ∈ E_i} L_e) \ {i}|` by one marker sweep.
///
/// The pivot is the live variable with the smallest `(degree, index)`
/// pair — ties go to the lower index — taken from a lazy-deletion binary
/// heap: a variable is pushed again whenever its degree changes and stale
/// entries are skipped on pop. Exact degrees and this tie-break define
/// the permutation uniquely; it is the one explicit clique formation
/// gives (the test oracle), at a cost of Σ|L_e| per update instead of
/// Σd² set inserts: on the paper PDE 0.05 s where the cliques took 0.7 s
/// at m = 120 (n = 14 400), and 0.9 s where they took 21 s at m = 300.
pub fn min_degree(a: &CsrMatrix) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Degree of an eliminated variable: never equals a heap entry's.
    const ELIMINATED: u32 = u32::MAX;

    let n = a.rows();
    let SymGraph { ptr, idx: mut vars } = SymGraph::new(a);
    // A_i = vars[ptr[i]..][..vlen[i]], E_i = elems[ptr[i]..][..elen[i]].
    let mut vlen: Vec<u32> = ptr.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    let mut elems = vec![0u32; vars.len()];
    let mut elen = vec![0u32; n];
    // L_e = pool[span[e].0..span[e].1] for an eliminated, unabsorbed e.
    let mut pool: Vec<u32> = Vec::with_capacity(vars.len());
    let mut span = vec![(0usize, 0usize); n];
    let mut absorbed = vec![false; n];
    let mut degree = vlen.clone();
    // mark[j] == tag ⇔ j was already seen in the sweep numbered `tag`.
    let mut mark = vec![0usize; n];
    let mut tag = 0usize;

    let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
        degree.iter().zip(0u32..).map(|(&d, v)| Reverse((d, v))).collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Reverse((deg, p)) = heap.pop().expect("one live entry per vertex remains");
        let p = p as usize;
        if deg != degree[p] {
            continue; // stale
        }
        degree[p] = ELIMINATED;
        order.push(p);

        // Step 1: gather L_p at the end of the pool, marking its members.
        tag += 1;
        let in_lp = tag;
        mark[p] = in_lp;
        let lp_start = pool.len();
        for &e in &elems[ptr[p]..][..elen[p] as usize] {
            let e = e as usize;
            absorbed[e] = true;
            for m in span[e].0..span[e].1 {
                let j = pool[m];
                if mark[j as usize] != in_lp {
                    mark[j as usize] = in_lp;
                    pool.push(j);
                }
            }
        }
        for &j in &vars[ptr[p]..][..vlen[p] as usize] {
            if mark[j as usize] != in_lp {
                mark[j as usize] = in_lp;
                pool.push(j);
            }
        }
        span[p] = (lp_start, pool.len());
        let lp_len = pool.len() - lp_start;

        // Step 2: update every member of L_p.
        for m in lp_start..pool.len() {
            let i = pool[m] as usize;
            tag += 1;
            let base = ptr[i];
            // |L_p \ {i}|, then whatever else i reaches outside L_p.
            let mut deg = lp_len - 1;
            let mut w = base;
            for k in base..base + elen[i] as usize {
                let e = elems[k];
                if absorbed[e as usize] {
                    continue;
                }
                elems[w] = e;
                w += 1;
                for &j in &pool[span[e as usize].0..span[e as usize].1] {
                    let seen = &mut mark[j as usize];
                    if *seen != in_lp && *seen != tag {
                        *seen = tag;
                        deg += 1;
                    }
                }
            }
            elems[w] = p as u32;
            elen[i] = (w + 1 - base) as u32;
            let mut w = base;
            for k in base..base + vlen[i] as usize {
                let j = vars[k];
                let seen = &mut mark[j as usize];
                if *seen == in_lp {
                    continue; // p itself, or an edge the element p now covers
                }
                vars[w] = j;
                w += 1;
                if *seen != tag {
                    *seen = tag;
                    deg += 1;
                }
            }
            vlen[i] = (w - base) as u32;
            degree[i] = deg as u32;
            heap.push(Reverse((deg as u32, i as u32)));
        }
    }
    order
}

/// Validate that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Bandwidth of a matrix under a permutation (`perm[new] = old`); the RCM
/// quality metric.
pub fn bandwidth(a: &CsrMatrix, perm: &[usize]) -> usize {
    let n = a.rows();
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut bw = 0usize;
    for (r, c, _) in a.iter() {
        bw = bw.max(inv[r].abs_diff(inv[c]));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsparse::generate;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    /// The oracle: minimum degree with every elimination clique formed
    /// explicitly — smallest `(degree, vertex)` first, degrees read off
    /// the elimination graph itself. Quadratic in the clique sizes.
    fn clique_min_degree(a: &CsrMatrix) -> Vec<usize> {
        let n = a.rows();
        let graph = SymGraph::new(a);
        let mut adj: Vec<BTreeSet<usize>> = (0..n)
            .map(|v| graph.neighbours(v).iter().map(|&u| u as usize).collect())
            .collect();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            adj.iter().enumerate().map(|(v, nb)| Reverse((nb.len(), v))).collect();
        while order.len() < n {
            let Reverse((deg, v)) = heap.pop().expect("one live entry per vertex remains");
            if eliminated[v] || deg != adj[v].len() {
                continue; // stale
            }
            eliminated[v] = true;
            order.push(v);
            let nbrs: Vec<usize> = std::mem::take(&mut adj[v]).into_iter().collect();
            for &u in &nbrs {
                adj[u].remove(&v);
                adj[u].extend(nbrs.iter().filter(|&&w| w != u));
                heap.push(Reverse((adj[u].len(), u)));
            }
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn quotient_graph_ordering_equals_the_clique_oracle(
            kind in 0usize..crate::corpus::KINDS,
            n in 2usize..=200,
            seed in 0u64..100_000,
        ) {
            let a = crate::corpus::matrix(kind, n, seed);
            prop_assert_eq!(min_degree(&a), clique_min_degree(&a));
        }

        #[test]
        fn quotient_graph_ordering_equals_the_oracle_on_unstructured_patterns(
            n in 1usize..=120,
            density in 0.0f64..0.2,
            seed in 0u64..100_000,
        ) {
            // Possibly singular, possibly with empty rows: the ordering
            // only sees the pattern.
            let a = generate::random_csr(n, n, density, seed);
            prop_assert_eq!(min_degree(&a), clique_min_degree(&a));
        }
    }

    /// FNV-1a over the permutation, one step per entry.
    fn checksum(perm: &[usize]) -> u64 {
        perm.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
            (h ^ p as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn ordering_of_the_benchmark_matrix_is_pinned() {
        // The `direct_2r` workload's matrix; the clique ordering of PR 13
        // gave this permutation, and `direct.fill_nnz` follows from it.
        let (a, _) = rmesh::paper_problem(120).assemble_global();
        assert_eq!(checksum(&min_degree(&a)), 0x7a01_2afa_c35c_6503);
    }

    #[test]
    #[ignore = "n = 90 000: run in release mode by scripts/check_all.sh"]
    fn ordering_scales() {
        // A count, not a timing: the permutation the clique ordering took
        // 19.5 s to produce. A quadratic ordering makes this test (and
        // check_all.sh) visibly hang long before it fails.
        let (a, _) = rmesh::paper_problem(300).assemble_global();
        let perm = min_degree(&a);
        assert!(is_permutation(&perm, 90_000));
        assert_eq!(checksum(&perm), 0x6988_4b07_0a9c_5c33);
    }

    #[test]
    fn all_orderings_produce_valid_permutations() {
        let a = generate::random_csr(30, 30, 0.1, 77);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let p = ord.compute(&a);
            assert!(is_permutation(&p, 30), "{ord:?}");
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = generate::laplacian_1d(5);
        assert_eq!(Ordering::Natural.compute(&a), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_band_matrix() {
        // Take a banded matrix, scramble it, and check RCM restores a
        // narrow band.
        let a = generate::laplacian_1d(40);
        let scramble: Vec<usize> = (0..40).map(|i| (i * 17) % 40).collect();
        let shuffled = a.permute_symmetric(&scramble).unwrap();
        let before = bandwidth(&shuffled, &Ordering::Natural.compute(&shuffled));
        let after = bandwidth(&shuffled, &rcm(&shuffled));
        assert!(before > 5, "scramble must have widened the band: {before}");
        assert_eq!(after, 1, "RCM must recover the tridiagonal band");
    }

    #[test]
    fn min_degree_orders_star_center_last() {
        // Star graph: center 0 has degree n−1, leaves degree 1. Minimum
        // degree must eliminate all leaves before the center.
        let n = 8;
        let mut coo = rsparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for leaf in 1..n {
            coo.push(0, leaf, -1.0).unwrap();
            coo.push(leaf, 0, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let order = min_degree(&a);
        // Once all but one leaf is gone the center's degree drops to 1 and
        // it may tie with the final leaf, so the center lands in one of
        // the last two positions — never earlier.
        let center_pos = order.iter().position(|&v| v == 0).unwrap();
        assert!(center_pos >= n - 2, "{order:?}");
    }

    #[test]
    fn orderings_handle_disconnected_graphs() {
        // Block diagonal with two components.
        let mut coo = rsparse::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(4, 5, 1.0).unwrap();
        coo.push(5, 4, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(is_permutation(&rcm(&a), 6));
        assert!(is_permutation(&min_degree(&a), 6));
    }

    #[test]
    fn parse_names() {
        assert_eq!(Ordering::parse("natural"), Some(Ordering::Natural));
        assert_eq!(Ordering::parse("RCM"), Some(Ordering::Rcm));
        assert_eq!(Ordering::parse("amd"), Some(Ordering::MinDegree));
        assert_eq!(Ordering::parse("colamd9"), None);
    }
}
