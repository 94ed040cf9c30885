//! Merge dendrograms.
//!
//! A full agglomerative clustering of `q` objects performs `q-1` merges;
//! the dendrogram records them together with the information loss `δI` of
//! each merge (the horizontal axis of Figures 10 and 14–18 in the paper).
//! FD-RANK walks this structure to find, for a set of attributes `S`, the
//! merge at which all of `S` first participate in one cluster.

/// One merge step: clusters `left` and `right` become node `node`.
///
/// Node ids: leaves are `0..n_leaves`; the `k`-th merge creates node
/// `n_leaves + k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// Node id of the first merged cluster.
    pub left: usize,
    /// Node id of the second merged cluster.
    pub right: usize,
    /// Node id of the resulting cluster.
    pub node: usize,
    /// Information loss `δI` of this merge, in bits.
    pub loss: f64,
}

/// The merge tree of a (possibly partial) agglomerative clustering.
#[derive(Clone, Debug, Default)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// A dendrogram over `n_leaves` initial singleton clusters with no
    /// merges yet.
    pub fn new(n_leaves: usize) -> Self {
        Dendrogram {
            n_leaves,
            merges: Vec::with_capacity(n_leaves.saturating_sub(1)),
        }
    }

    /// Records a merge of nodes `left` and `right` with loss `loss`,
    /// returning the new node's id.
    pub fn push(&mut self, left: usize, right: usize, loss: f64) -> usize {
        let node = self.n_leaves + self.merges.len();
        debug_assert!(left < node && right < node && left != right);
        self.merges.push(Merge {
            left,
            right,
            node,
            loss,
        });
        node
    }

    /// Number of leaves (initial clusters).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merges in chronological order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Maximum `δI` over all merges — the `max(Q)` of FD-RANK, used as
    /// the initial rank of every dependency.
    pub fn max_loss(&self) -> f64 {
        self.merges.iter().map(|m| m.loss).fold(0.0, f64::max)
    }

    /// The leaf ids under `node`, in ascending order.
    pub fn leaves_under(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if x < self.n_leaves {
                out.push(x);
            } else {
                let m = self.merges[x - self.n_leaves];
                stack.push(m.left);
                stack.push(m.right);
            }
        }
        out.sort_unstable();
        out
    }

    /// For every leaf, the chronologically ordered list of merge indices
    /// it participates in (its path to the root).
    fn leaf_merge_paths(&self) -> Vec<Vec<usize>> {
        // parent[node] = merge index that consumed `node`.
        let total_nodes = self.n_leaves + self.merges.len();
        let mut parent = vec![usize::MAX; total_nodes];
        for (k, m) in self.merges.iter().enumerate() {
            parent[m.left] = k;
            parent[m.right] = k;
        }
        (0..self.n_leaves)
            .map(|leaf| {
                let mut path = Vec::new();
                let mut node = leaf;
                while parent[node] != usize::MAX {
                    let k = parent[node];
                    path.push(k);
                    node = self.merges[k].node;
                }
                path
            })
            .collect()
    }

    /// The first (chronological) merge at which **all** leaves of `set`
    /// are inside one cluster — the lowest common ancestor of the set.
    /// Returns `None` if they never join (partial clustering) or `set`
    /// is empty. A singleton set joins "at" its own leaf; we return the
    /// first merge that touches it, or `None` if it never merges.
    pub fn common_merge(&self, set: &[usize]) -> Option<Merge> {
        match set {
            [] => None,
            &[leaf] => {
                let paths = self.leaf_merge_paths();
                paths[leaf].first().map(|&k| self.merges[k])
            }
            _ => {
                let paths = self.leaf_merge_paths();
                // The LCA merge is the earliest merge index present on every
                // leaf's path (paths are chronological and nested, so the
                // intersection's minimum is the join point).
                let mut candidate: Option<usize> = None;
                'outer: for &k in &paths[set[0]] {
                    for &leaf in &set[1..] {
                        if !paths[leaf].contains(&k) {
                            continue 'outer;
                        }
                    }
                    candidate = Some(k);
                    break;
                }
                candidate.map(|k| self.merges[k])
            }
        }
    }

    /// The cluster memberships after rolling back to exactly `k` clusters
    /// (i.e. applying the first `n_leaves - k` merges). Each inner vector
    /// lists leaf ids; clusters are ordered by smallest member.
    pub fn clusters_at(&self, k: usize) -> Vec<Vec<usize>> {
        assert!(k >= 1);
        let n_merges = self.n_leaves.saturating_sub(k).min(self.merges.len());
        // Union-find over leaves.
        let mut uf: Vec<usize> = (0..self.n_leaves).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        // Map node id → representative leaf.
        let mut rep: Vec<usize> = (0..self.n_leaves + self.merges.len()).collect();
        for m in &self.merges[..n_merges] {
            let rl = find(&mut uf, rep[m.left]);
            let rr = find(&mut uf, rep[m.right]);
            let (a, b) = (rl.min(rr), rl.max(rr));
            uf[b] = a;
            rep[m.node] = a;
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for leaf in 0..self.n_leaves {
            groups.entry(find(&mut uf, leaf)).or_default().push(leaf);
        }
        groups.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dendrogram of the paper's Figure 10: leaves A=0, B=1, C=2;
    /// B,C merge at 0.158, then A joins at 0.516.
    fn figure10() -> Dendrogram {
        let mut d = Dendrogram::new(3);
        let bc = d.push(1, 2, 0.158);
        d.push(0, bc, 0.516);
        d
    }

    #[test]
    fn node_ids_sequential() {
        let d = figure10();
        assert_eq!(d.merges()[0].node, 3);
        assert_eq!(d.merges()[1].node, 4);
        assert_eq!(d.n_leaves(), 3);
    }

    #[test]
    fn max_and_total_loss() {
        let d = figure10();
        assert!((d.max_loss() - 0.516).abs() < 1e-12);
        let total: f64 = d.merges().iter().map(|m| m.loss).sum();
        assert!((total - 0.674).abs() < 1e-12);
    }

    #[test]
    fn leaves_under_nodes() {
        let d = figure10();
        assert_eq!(d.leaves_under(3), vec![1, 2]);
        assert_eq!(d.leaves_under(4), vec![0, 1, 2]);
        assert_eq!(d.leaves_under(0), vec![0]);
    }

    #[test]
    fn common_merge_pairs() {
        // FD-RANK's Step 1.c on Figure 10: {B,C} joins at loss 0.158,
        // {A,B} only at 0.516.
        let d = figure10();
        assert!((d.common_merge(&[1, 2]).unwrap().loss - 0.158).abs() < 1e-12);
        assert!((d.common_merge(&[0, 1]).unwrap().loss - 0.516).abs() < 1e-12);
        assert!((d.common_merge(&[0, 1, 2]).unwrap().loss - 0.516).abs() < 1e-12);
    }

    #[test]
    fn common_merge_singleton_and_empty() {
        let d = figure10();
        assert!((d.common_merge(&[2]).unwrap().loss - 0.158).abs() < 1e-12);
        assert!(d.common_merge(&[]).is_none());
    }

    #[test]
    fn common_merge_unjoined_leaves() {
        // Partial clustering: 4 leaves, single merge of (0,1).
        let mut d = Dendrogram::new(4);
        d.push(0, 1, 0.1);
        assert!(d.common_merge(&[2, 3]).is_none());
        assert!(d.common_merge(&[0, 2]).is_none());
        assert!(d.common_merge(&[0, 1]).is_some());
        assert!(d.common_merge(&[3]).is_none()); // leaf 3 never merges
    }

    #[test]
    fn clusters_at_various_k() {
        let d = figure10();
        assert_eq!(d.clusters_at(3), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(d.clusters_at(2), vec![vec![0], vec![1, 2]]);
        assert_eq!(d.clusters_at(1), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn clusters_at_with_nested_merges() {
        let mut d = Dendrogram::new(4);
        let a = d.push(0, 1, 0.1);
        let b = d.push(2, 3, 0.2);
        d.push(a, b, 0.5);
        assert_eq!(d.clusters_at(2), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(d.clusters_at(1), vec![vec![0, 1, 2, 3]]);
    }
}
