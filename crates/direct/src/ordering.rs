//! Fill-reducing orderings: natural, reverse Cuthill–McKee, and minimum
//! degree on the symmetrized pattern — the `permc_spec` choices of
//! SuperLU.
//!
//! Minimum degree runs on a quotient graph with **exact** degrees and
//! the `(degree, index)` tie-break, so its permutation is the one explicit
//! clique formation gives. It pays for exactness at element cost, with
//! AMD's machinery: an indexed heap updated in place, `|L_e \ L_p|` from
//! one scan per pivot, aggressive absorption, and a marker sweep only for
//! variables that still touch two or more other elements (see
//! [`min_degree`] for the invariants each rests on).

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
    // The output is the BFS queue: `order[head..]` is still to be expanded.
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    // Process vertices grouped by component, starting from low degree.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| degree[v]);
    for &start in &by_degree {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        order.push(start);
        while head < order.len() {
            let v = order[head];
            head += 1;
            // Enqueue the unvisited neighbours, then sort just them
            // (stably, so ties keep index order).
            let tail = order.len();
            for &u in adj.neighbours(v) {
                let u = u as usize;
                if !visited[u] {
                    visited[u] = true;
                    order.push(u);
                }
            }
            order[tail..].sort_by_key(|&u| degree[u]);
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
/// per entry of the L factor. Three invariants hold between pivots:
///
/// * **(I1)** `E_i` is exactly the set of live elements whose list holds
///   `i`, and a live element's list holds only live variables (every
///   element that holds `p` is in `E_p` and dies with it);
/// * **(I2)** `A_i ∩ L_e = ∅` for every `e ∈ E_i`: `A_i` loses all of
///   `L_e` when `e` is formed and never grows, and `L_e` never changes;
/// * **(I3)** the heap holds one key per live variable, its exact degree
///   `|(A_i ∪ ⋃_{e ∈ E_i} L_e) \ {i}|`.
///
/// Eliminating `p`:
///
/// 1. `L_p = (A_p ∪ ⋃_{e ∈ E_p} L_e) \ {p}`; every `e ∈ E_p` is absorbed
///    into `p` (its list is a subset of `L_p`);
/// 2. `w_e = |L_e \ L_p|` for every other element that meets `L_p`, by
///    AMD's scan: start at `|L_e|`, subtract one per `i ∈ L_p` with
///    `e ∈ E_i` — by (I1) that counts `L_e ∩ L_p` exactly;
/// 3. for each `i ∈ L_p`: `E_i` loses the absorbed elements and every `e`
///    with `w_e = 0` (`L_e ⊆ L_p`: *aggressive absorption*, which changes
///    no degree), `p` joins it, `A_i` loses every member of `L_p` (those
///    edges are now implied by `p`), and the degree becomes
///    `|L_p| − 1 + |A_i| + |⋃_{e ∈ E_i \ {p}} L_e \ L_p|` — the last term
///    is `w_e` when one other element is left (the *one-element
///    shortcut*; by (I2) `A_i` adds nothing it counts), and a marker
///    sweep over those lists only when two or more are.
///
/// The pivot is the live variable with the smallest `(degree, index)`
/// pair — ties go to the lower index — popped from an indexed binary heap
/// of the keys `degree << 32 | index` that a recomputed degree updates in
/// place, and that is not touched when the degree came out unchanged.
/// Exact degrees and this tie-break define the permutation uniquely; it
/// is the one explicit clique formation gives (the test oracle). On the
/// paper PDE it takes ≈ 15 ms at m = 120 (n = 14 400; the explicit
/// cliques took 0.7 s, the lazy-heap quotient graph before this one
/// 55–75 ms) and ≈ 0.13 s at m = 300 (cliques 21 s, lazy heap 1.1–1.3 s).
pub fn min_degree(a: &CsrMatrix) -> Vec<usize> {
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
    // w[e] = |L_e \ L_p| while w_step[e] is the current pivot's step.
    let mut w = vec![0u32; n];
    let mut w_step = vec![0u32; n];
    // mark[j] == tag ⇔ j was already seen in the sweep numbered `tag`.
    let mut mark = vec![0usize; n];
    let mut tag = 0usize;
    #[cfg(test)]
    let mut tally = Tally::default();

    let mut heap = DegreeHeap::new(&vlen);
    let mut order = Vec::with_capacity(n);
    while let Some(p) = heap.pop() {
        order.push(p);
        let step = order.len() as u32;

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
        let lp = lp_start..pool.len();

        // Step 2: w_e = |L_e \ L_p| for every live element meeting L_p.
        for &i in &pool[lp.clone()] {
            let i = i as usize;
            for &e in &elems[ptr[i]..][..elen[i] as usize] {
                let e = e as usize;
                if absorbed[e] {
                    continue;
                }
                if w_step[e] != step {
                    w_step[e] = step;
                    w[e] = (span[e].1 - span[e].0) as u32;
                }
                w[e] -= 1;
            }
        }

        // Step 3: update every member of L_p.
        for m in lp.clone() {
            let i = pool[m] as usize;
            let base = ptr[i];
            let mut kept = base;
            for k in base..base + elen[i] as usize {
                let e = elems[k] as usize;
                if absorbed[e] {
                    continue;
                }
                if w[e] == 0 {
                    absorbed[e] = true; // L_e ⊆ L_p
                    #[cfg(test)]
                    {
                        tally.absorptions += 1;
                    }
                    continue;
                }
                elems[kept] = e as u32;
                kept += 1;
            }
            elems[kept] = p as u32;
            elen[i] = (kept + 1 - base) as u32;
            let mut end = base;
            for k in base..base + vlen[i] as usize {
                let j = vars[k];
                if mark[j as usize] != in_lp {
                    vars[end] = j;
                    end += 1;
                }
            }
            vlen[i] = (end - base) as u32;

            // |L_p \ {i}| + |A_i|, then what the other elements add.
            let mut deg = lp.len() - 1 + (end - base);
            let others = &elems[base..kept];
            match others {
                [] => {}
                &[e] => {
                    deg += w[e as usize] as usize;
                    #[cfg(test)]
                    {
                        tally.shortcuts += 1;
                    }
                }
                _ => {
                    tag += 1;
                    for &e in others {
                        let (lo, hi) = span[e as usize];
                        for &j in &pool[lo..hi] {
                            let seen = &mut mark[j as usize];
                            if *seen != in_lp && *seen != tag {
                                *seen = tag;
                                deg += 1;
                            }
                        }
                        #[cfg(test)]
                        {
                            tally.swept += (hi - lo) as u64;
                        }
                    }
                    #[cfg(test)]
                    {
                        tally.sweeps += 1;
                    }
                }
            }
            if !heap.update(i, deg as u32) {
                #[cfg(test)]
                {
                    tally.unchanged += 1;
                }
            }
        }
    }
    #[cfg(test)]
    LAST_TALLY.with(|t| t.set(tally));
    order
}

/// The live variables of [`min_degree`] in a binary min-heap of the
/// unique keys `degree << 32 | index`, with each variable's slot kept
/// beside it so a degree is changed in place.
struct DegreeHeap {
    keys: Vec<u64>,
    /// `slot[v]`: where `v`'s key sits in `keys` while `v` is live.
    slot: Vec<u32>,
}

impl DegreeHeap {
    fn new(degree: &[u32]) -> Self {
        let keys = degree.iter().zip(0u64..).map(|(&d, v)| u64::from(d) << 32 | v).collect();
        let mut heap = DegreeHeap { keys, slot: (0..degree.len() as u32).collect() };
        for s in (0..degree.len() / 2).rev() {
            heap.sift_down(s);
        }
        heap
    }

    /// Remove and return the variable with the smallest key.
    fn pop(&mut self) -> Option<usize> {
        let top = *self.keys.first()?;
        let last = self.keys.pop().expect("non-empty");
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.sift_down(0);
        }
        Some(top as u32 as usize)
    }

    /// Give live variable `v` the degree `degree`; false if it had it.
    fn update(&mut self, v: usize, degree: u32) -> bool {
        let s = self.slot[v] as usize;
        let (old, new) = (self.keys[s], u64::from(degree) << 32 | v as u64);
        if new == old {
            return false;
        }
        self.keys[s] = new;
        if new < old {
            self.sift_up(s);
        } else {
            self.sift_down(s);
        }
        true
    }

    fn sift_up(&mut self, mut s: usize) {
        let key = self.keys[s];
        while s > 0 {
            let parent = (s - 1) / 2;
            if self.keys[parent] < key {
                break;
            }
            self.place(s, self.keys[parent]);
            s = parent;
        }
        self.place(s, key);
    }

    fn sift_down(&mut self, mut s: usize) {
        let key = self.keys[s];
        let len = self.keys.len();
        loop {
            let mut child = 2 * s + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.keys[child + 1] < self.keys[child] {
                child += 1;
            }
            if key < self.keys[child] {
                break;
            }
            self.place(s, self.keys[child]);
            s = child;
        }
        self.place(s, key);
    }

    fn place(&mut self, s: usize, key: u64) {
        self.keys[s] = key;
        self.slot[key as u32 as usize] = s as u32;
    }
}

/// What one [`min_degree`] call did on each of its branches (tests only).
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// Recomputed degrees equal to the old one: no heap operation.
    unchanged: u64,
    /// Elements absorbed because `L_e ⊆ L_p` although `e ∉ E_p`.
    absorptions: u64,
    /// Degrees taken from `w_e` of the one other element.
    shortcuts: u64,
    /// Marker sweeps (two or more other elements).
    sweeps: u64,
    /// Element-list entries those sweeps walked.
    swept: u64,
}

#[cfg(test)]
thread_local! {
    /// The tally of the calling thread's last [`min_degree`].
    static LAST_TALLY: std::cell::Cell<Tally> = std::cell::Cell::default();
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
        let mut adj: Vec<BTreeSet<usize>> =
            (0..n).map(|v| graph.neighbours(v).iter().map(|&u| u as usize).collect()).collect();
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
        perm.iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &p| (h ^ p as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn ordering_of_the_benchmark_matrix_is_pinned() {
        // The `direct_2r` workload's matrix; the clique ordering of PR 13
        // gave this permutation, and `direct.fill_nnz` follows from it.
        let (a, _) = rmesh::paper_problem(120).assemble_global();
        assert_eq!(checksum(&min_degree(&a)), 0x7a01_2afa_c35c_6503);
    }

    /// `min_degree` and the tally it left on this thread.
    fn tallied(a: &CsrMatrix) -> (Vec<usize>, Tally) {
        let perm = min_degree(a);
        (perm, LAST_TALLY.with(std::cell::Cell::get))
    }

    /// Every branch of `min_degree` taken at least once in `t`.
    fn every_branch(t: Tally) -> bool {
        t.unchanged > 0 && t.absorptions > 0 && t.shortcuts > 0 && t.sweeps > 0 && t.swept > 0
    }

    #[test]
    fn every_branch_fires_where_the_oracle_agrees() {
        for m in [8, 24, 40] {
            let (a, _) = rmesh::paper_problem(m).assemble_global();
            let (perm, t) = tallied(&a);
            assert_eq!(perm, clique_min_degree(&a), "paper m = {m}");
            assert!(every_branch(t), "paper m = {m}: {t:?}");
        }
        // The corpus as a whole: a random member may not need every branch.
        let mut total = Tally::default();
        for kind in 0..crate::corpus::KINDS {
            for seed in 0..4 {
                let a = crate::corpus::matrix(kind, 200, seed);
                let (perm, t) = tallied(&a);
                assert_eq!(perm, clique_min_degree(&a), "corpus kind {kind} seed {seed}");
                total.unchanged += t.unchanged;
                total.absorptions += t.absorptions;
                total.shortcuts += t.shortcuts;
                total.sweeps += t.sweeps;
                total.swept += t.swept;
            }
        }
        assert!(every_branch(total), "corpus: {total:?}");
    }

    #[test]
    fn tracked_matrix_tally_is_pinned() {
        // The lazy-heap loop before PR 25 swept 17 671 008 element entries
        // on this matrix and pushed 327 636 heap entries.
        let (a, _) = rmesh::paper_problem(120).assemble_global();
        let (perm, t) = tallied(&a);
        assert_eq!(checksum(&perm), 0x7a01_2afa_c35c_6503);
        let pinned = Tally {
            unchanged: 7_860,
            absorptions: 2,
            shortcuts: 218_356,
            sweeps: 51_151,
            swept: 2_033_642,
        };
        assert_eq!(t, pinned);
    }

    #[test]
    fn min_degree_handles_empty_and_trivial_patterns() {
        assert_eq!(min_degree(&rsparse::CooMatrix::new(0, 0).to_csr()), Vec::<usize>::new());
        assert_eq!(min_degree(&rsparse::CooMatrix::new(1, 1).to_csr()), vec![0]);
        let mut one = rsparse::CooMatrix::new(1, 1);
        one.push(0, 0, 3.0).unwrap();
        assert_eq!(min_degree(&one.to_csr()), vec![0]);
        // Rows 2 and 5 are empty; {0, 1, 3} is a path, {4, 6} an edge.
        let mut coo = rsparse::CooMatrix::new(7, 7);
        for (r, c) in [(0, 1), (1, 3), (4, 6)] {
            coo.push(r, c, 1.0).unwrap();
            coo.push(c, r, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let perm = min_degree(&a);
        assert_eq!(perm, clique_min_degree(&a));
        // The isolated vertices go first, then the degree-1 ends by index.
        assert_eq!(perm, vec![2, 5, 0, 1, 3, 4, 6]);
    }

    #[test]
    fn rcm_of_the_benchmark_matrix_is_pinned() {
        // Taken at the parent of PR 25, before the BFS reused its output
        // as the queue.
        let (a, _) = rmesh::paper_problem(120).assemble_global();
        assert_eq!(checksum(&rcm(&a)), 0x86c4_5a37_10ca_79ed);
    }

    #[test]
    fn ordering_scales() {
        // A count, not a timing: the permutation the clique ordering took
        // 19.5 s to produce. A quadratic ordering makes this test visibly
        // hang long before it fails.
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
