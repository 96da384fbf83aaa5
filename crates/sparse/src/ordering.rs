//! The fill-reducing ordering.
//!
//! SPICE matrices are extremely sparse but fill in badly under natural
//! ordering; a fill-reducing column permutation keeps the LU factors sparse.
//! This module provides the one ordering [`crate::SparseLu::factor`] uses, a
//! classic minimum degree on the symmetrized pattern of the matrix, and the
//! [`Permutation`] type any ordering is handed over in.

use crate::csc::CscMatrix;
use crate::error::{Result, SparseError};

/// A permutation of `0..n` with its inverse.
///
/// `perm[k]` is the original index placed at position `k`
/// (new-to-old); `inv[i]` is the position of original index `i` (old-to-new).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// Builds a permutation from a new-to-old mapping.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `perm` is not a
    /// permutation of `0..perm.len()`.
    pub(crate) fn from_vec(perm: Vec<usize>) -> Result<Self> {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (k, &p) in perm.iter().enumerate() {
            if p >= n || inv[p] != usize::MAX {
                return Err(SparseError::DimensionMismatch { expected: n, found: p });
            }
            inv[p] = k;
        }
        Ok(Permutation { perm, inv })
    }

    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n).collect(), inv: (0..n).collect() }
    }

    /// Length of the permutation.
    pub(crate) fn len(&self) -> usize {
        self.perm.len()
    }

    /// New-to-old mapping: original index at position `k`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// Minimum-degree ordering on the symmetrized pattern of `a`.
///
/// The textbook algorithm on an explicit elimination graph with exact
/// degrees (no supernodes, no element absorption): eliminate the active node
/// of least degree, the lowest-numbered one among equals, and join its
/// neighbours into a clique. The next node comes off a heap keyed
/// `(degree, node)`; a neighbour already adjacent to the whole clique only
/// drops the eliminated node from its list, any other has its list rebuilt
/// by one sorted merge. A step therefore costs the size of the lists it
/// touches; what stays super-linear is the clique fill itself, which this
/// representation stores edge by edge.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] if `a` is not square, and
/// [`SparseError::DimensionMismatch`] if its dimension does not fit the
/// `u32` node ids used here (the limit [`crate::SparseLu`] has anyway).
pub fn min_degree(a: &CscMatrix) -> Result<Permutation> {
    let adj = a.symmetric_adjacency()?;
    let n = adj.len();
    if u32::try_from(n).is_err() {
        return Err(SparseError::DimensionMismatch { expected: u32::MAX as usize, found: n });
    }
    // Sorted lists of each node's still-active neighbours: an eliminated
    // node leaves every list it was in, so a node's degree is its list's
    // length.
    let mut adj: Vec<Vec<u32>> =
        adj.into_iter().map(|l| l.into_iter().map(|u| u as u32).collect()).collect();
    let mut queue = DegreeQueue::new(&adj);
    let mut perm = Vec::with_capacity(n);
    let mut merged: Vec<u32> = Vec::new();
    // `in_clique[w] == v` while v's neighbours are being joined and w is one.
    let mut in_clique = vec![u32::MAX; n];
    while let Some(v) = queue.pop_min() {
        perm.push(v as usize);
        let nbrs = std::mem::take(&mut adj[v as usize]);
        for &w in &nbrs {
            in_clique[w as usize] = v;
        }
        for &u in &nbrs {
            let old = &mut adj[u as usize];
            let joined = old.iter().filter(|&&w| in_clique[w as usize] == v).count();
            if joined + 1 == nbrs.len() {
                // Already adjacent to all of v's other neighbours: only v
                // leaves the list.
                let at = old.binary_search(&v).expect("the adjacency is symmetric");
                old.remove(at);
            } else {
                // u's list loses v and gains v's other neighbours (clique
                // fill), in one sorted merge.
                merged.clear();
                let (mut i, mut j) = (0, 0);
                while i < old.len() && j < nbrs.len() {
                    let (x, y) = (old[i], nbrs[j]);
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                    let w = x.min(y);
                    if w != v && w != u {
                        merged.push(w);
                    }
                }
                merged.extend(old[i..].iter().filter(|&&w| w != v));
                merged.extend(nbrs[j..].iter().filter(|&&w| w != u));
                // Copied back, not swapped in: a swap hands every list the
                // capacity of some longer one before it, and the grids'
                // peak memory showed it.
                old.clear();
                old.extend_from_slice(&merged);
            }
            queue.set_degree(u, adj[u as usize].len());
        }
    }
    Permutation::from_vec(perm)
}

/// The active nodes of [`min_degree`] as an indexed binary min-heap keyed
/// `(degree, node)`: the order a scan of all nodes for the first one of least
/// degree would find them in.
struct DegreeQueue {
    /// Heap of `degree << 32 | node`.
    heap: Vec<u64>,
    /// Where each active node sits in `heap`.
    pos: Vec<u32>,
}

impl DegreeQueue {
    fn key(node: u32, degree: usize) -> u64 {
        // A degree is below the node count, which fits `u32`.
        (degree as u64) << 32 | u64::from(node)
    }

    fn node(key: u64) -> u32 {
        key as u32
    }

    fn new(adj: &[Vec<u32>]) -> Self {
        let mut heap: Vec<u64> =
            adj.iter().enumerate().map(|(v, l)| Self::key(v as u32, l.len())).collect();
        // A sorted array is a heap.
        heap.sort_unstable();
        let mut pos = vec![0u32; heap.len()];
        for (at, &key) in heap.iter().enumerate() {
            pos[Self::node(key) as usize] = at as u32;
        }
        DegreeQueue { heap, pos }
    }

    fn pop_min(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(Self::node(last));
        }
        let min = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(Self::node(min))
    }

    /// Re-keys the active node `node`.
    fn set_degree(&mut self, node: u32, degree: usize) {
        let at = self.pos[node as usize] as usize;
        let key = Self::key(node, degree);
        let old = std::mem::replace(&mut self.heap[at], key);
        if key < old {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
    }

    fn sift_up(&mut self, mut at: usize) {
        let key = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[parent] <= key {
                break;
            }
            self.put(at, self.heap[parent]);
            at = parent;
        }
        self.put(at, key);
    }

    fn sift_down(&mut self, mut at: usize) {
        let key = self.heap[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if key <= self.heap[child] {
                break;
            }
            self.put(at, self.heap[child]);
            at = child;
        }
        self.put(at, key);
    }

    fn put(&mut self, at: usize, key: u64) {
        self.heap[at] = key;
        self.pos[Self::node(key) as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn tridiag(n: usize) -> CscMatrix {
        let mut t = CooMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
                t.push(i + 1, i, -1.0).unwrap();
            }
        }
        t.to_csc()
    }

    /// [`min_degree`] as it was first written: a scan of every node per
    /// elimination and one binary-search insert per fill edge. Kept as the
    /// reference the heap-and-merge version must reproduce exactly.
    fn min_degree_reference(a: &CscMatrix) -> Permutation {
        let mut adj = a.symmetric_adjacency().unwrap();
        let n = adj.len();
        let mut eliminated = vec![false; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut perm = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best = usize::MAX;
            let mut best_deg = usize::MAX;
            for v in 0..n {
                if !eliminated[v] && degree[v] < best_deg {
                    best = v;
                    best_deg = degree[v];
                }
            }
            let v = best;
            eliminated[v] = true;
            perm.push(v);
            let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            for &u in &nbrs {
                let lu = &mut adj[u];
                if let Ok(pos) = lu.binary_search(&v) {
                    lu.remove(pos);
                }
                for &w in &nbrs {
                    if w != u {
                        if let Err(pos) = adj[u].binary_search(&w) {
                            adj[u].insert(pos, w);
                        }
                    }
                }
                degree[u] = adj[u].iter().filter(|&&x| !eliminated[x]).count();
            }
            adj[v].clear();
        }
        Permutation::from_vec(perm).unwrap()
    }

    /// Stamps a two-terminal conductance pattern between unknowns `a`, `b`.
    fn couple(t: &mut CooMatrix, a: usize, b: usize) {
        for (r, c) in [(a, a), (b, b), (a, b), (b, a)] {
            t.push(r, c, 1.0).unwrap();
        }
    }

    /// The MNA pattern of `wavepipe_circuit::generators::power_grid`: mesh
    /// nodes numbered in the generator's first-touch order (here, right,
    /// down), four pad nodes behind the corners, one branch row per supply.
    fn power_grid_pattern(rows: usize, cols: usize) -> CscMatrix {
        let mut ids = std::collections::HashMap::new();
        let mut node = |r: usize, c: usize| {
            let next = ids.len();
            *ids.entry((r, c)).or_insert(next)
        };
        let mut mesh = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let here = node(r, c);
                if c + 1 < cols {
                    mesh.push((here, node(r, c + 1)));
                }
                if r + 1 < rows {
                    mesh.push((here, node(r + 1, c)));
                }
            }
        }
        let corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)];
        let corners = corners.map(|(r, c)| node(r, c));
        let nodes = rows * cols + 4;
        let mut t = CooMatrix::new(nodes + 4, nodes + 4);
        for (a, b) in mesh {
            couple(&mut t, a, b);
        }
        for (k, corner) in corners.into_iter().enumerate() {
            let (pad, branch) = (rows * cols + k, nodes + k);
            couple(&mut t, pad, corner);
            t.push(pad, branch, 1.0).unwrap();
            t.push(branch, pad, 1.0).unwrap();
        }
        t.to_csc()
    }

    /// The MNA pattern of the digital chains: a supply node every stage
    /// touches, each stage's output row reading its input column (the
    /// MOSFET stamp is not symmetric), two source branches.
    fn inverter_chain_pattern(stages: usize) -> CscMatrix {
        let n = stages + 4;
        let (vdd, inp) = (0, 1);
        let mut t = CooMatrix::new(n, n);
        for (node, branch) in [(vdd, n - 2), (inp, n - 1)] {
            t.push(node, branch, 1.0).unwrap();
            t.push(branch, node, 1.0).unwrap();
        }
        let mut prev = inp;
        for i in 0..stages {
            let out = 2 + i;
            couple(&mut t, out, vdd);
            t.push(out, prev, 1.0).unwrap();
            t.push(vdd, prev, 1.0).unwrap();
            prev = out;
        }
        t.to_csc()
    }

    /// A symmetric band of half-width 1..=3 (every interior node has the
    /// same degree, so nearly every step is a tie) plus a few random pairs.
    fn banded_plus_fill() -> impl Strategy<Value = CscMatrix> {
        (2usize..=120, 1usize..=3).prop_flat_map(|(n, band)| {
            proptest::collection::vec((0usize..n, 0usize..n), 0..(n / 2 + 1)).prop_map(
                move |extra| {
                    let mut t = CooMatrix::new(n, n);
                    for i in 0..n {
                        t.push(i, i, 1.0).unwrap();
                        for j in i + 1..(i + band + 1).min(n) {
                            couple(&mut t, i, j);
                        }
                    }
                    for (a, b) in extra {
                        couple(&mut t, a, b);
                    }
                    t.to_csc()
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn min_degree_is_the_scan_on_power_grids(rows in 2usize..=24, cols in 2usize..=24) {
            let a = power_grid_pattern(rows, cols);
            prop_assert_eq!(min_degree(&a).unwrap(), min_degree_reference(&a));
        }

        #[test]
        fn min_degree_is_the_scan_on_digital_chains(stages in 1usize..=80) {
            let a = inverter_chain_pattern(stages);
            prop_assert_eq!(min_degree(&a).unwrap(), min_degree_reference(&a));
        }

        #[test]
        fn min_degree_is_the_scan_on_tied_bands_with_fill(a in banded_plus_fill()) {
            prop_assert_eq!(min_degree(&a).unwrap(), min_degree_reference(&a));
        }
    }

    #[test]
    fn invalid_permutation_rejected() {
        assert!(Permutation::from_vec(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_vec(vec![0, 3]).is_err());
    }

    #[test]
    fn identity_permutation_is_noop() {
        let p = Permutation::identity(4);
        assert_eq!(p.perm(), [0, 1, 2, 3]);
        assert_eq!(p.inv, [0, 1, 2, 3]);
    }

    #[test]
    fn min_degree_returns_valid_permutation() {
        let a = tridiag(10);
        let p = min_degree(&a).unwrap();
        assert_eq!(p.len(), 10);
        let mut seen = [false; 10];
        for &v in p.perm() {
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn min_degree_starts_with_lowest_degree_node() {
        // On a star graph, the centre has the highest degree and must be last.
        let mut t = CooMatrix::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0).unwrap();
        }
        for leaf in 1..5 {
            t.push(0, leaf, 1.0).unwrap();
            t.push(leaf, 0, 1.0).unwrap();
        }
        let p = min_degree(&t.to_csc()).unwrap();
        // Leaves (degree 1) must be eliminated before the hub (degree 4);
        // once three leaves are gone the hub's degree ties with the last
        // leaf's, so the hub may appear at position 3 or 4 but never earlier.
        let hub_pos = p.perm().iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= 3, "hub eliminated too early: position {hub_pos}");
    }

    #[test]
    fn ordering_rejects_non_square() {
        let t = CooMatrix::new(2, 3).to_csc();
        assert!(min_degree(&t).is_err());
    }
}
