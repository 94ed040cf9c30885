//! The DCF-tree of LIMBO Phase 1.
//!
//! A height-balanced B-tree-like structure whose leaf entries are DCFs
//! summarizing groups of inserted objects and whose non-leaf entries are
//! DCFs *"produced by merging the DCFs of its children"*. Insertion
//! descends along the closest-entry path (distance = merge information
//! loss); at the leaf, the object either merges into the closest entry —
//! if the loss does not exceed the threshold `τ = φ·I(V;T)/|V|` — or
//! starts a new entry, splitting overflowing nodes on the way back up.
//!
//! # Arena layout
//!
//! Entries live in a flat `pool: Vec<Entry>` and nodes in a flat
//! `nodes: Vec<Node>`, both indexed by `u32`; a node holds only the ids
//! of its entries. Insertion is iterative — the descent records a
//! `(node, entry index)` path into a reused vector, the incoming DCF is
//! borrowed (cloned into the pool only when it opens a new entry), and
//! every summary refresh goes through [`Dcf::merge_in_place`], which
//! merges in the summary's own buffers. No buffer passes between
//! entries, so each entry's capacity follows its own support, and a
//! leaf handed to Phase 2 carries no upper-level summary's capacity.
//! Splits recycle entry slots freed by parent restructuring through a
//! free list.
//!
//! The result is pinned bit-identical to the original recursive
//! implementation, kept as `dbmine_oracles::DcfTreeRef`: same
//! leaf DCFs bit for bit, same merge decisions, same structure. The
//! identity holds because every behavioral input is replicated exactly —
//! descent order (`entry.dcf.distance(&incoming)`, ties to the lower
//! index), the leaf absorb test `d <= τ`, split seeding (farthest pair in
//! `i < j` scan order) and redistribution (`dl <= dr` against the seeds),
//! node entry order (`swap_remove` + push), and the merge arithmetic
//! itself (`merge_in_place` is bit-identical to the allocating
//! `dbmine_oracles::dcf_merge`).

use dbmine_ib::Dcf;

/// An entry of a tree node: a cluster summary, plus (for internal nodes)
/// the child holding its constituents.
#[derive(Clone, Debug)]
struct Entry {
    dcf: Dcf,
    /// Index into `DcfTree::nodes`; `NO_CHILD` for leaf entries.
    child: u32,
}

const NO_CHILD: u32 = u32::MAX;

/// A tree node: entry ids into the pool, in insertion order.
#[derive(Clone, Debug)]
struct Node {
    entries: Vec<u32>,
    leaf: bool,
}

/// The DCF-tree: streaming summarization of objects under an
/// information-loss merge threshold.
#[derive(Clone, Debug)]
pub struct DcfTree {
    /// Flat entry arena; slots on `free` are dead and reusable.
    pool: Vec<Entry>,
    /// Entry slots freed by parent restructuring during splits.
    free: Vec<u32>,
    nodes: Vec<Node>,
    root: u32,
    branching: usize,
    threshold: f64,
    n_inserted: usize,
    /// The (node, entry index) descent path of the last insert.
    path: Vec<(u32, usize)>,
}

impl DcfTree {
    /// A new tree with the given branching factor `B ≥ 2` and merge
    /// threshold `τ` (in bits of information loss).
    pub fn new(branching: usize, threshold: f64) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        DcfTree {
            pool: Vec::new(),
            free: Vec::new(),
            nodes: vec![Node {
                entries: Vec::new(),
                leaf: true,
            }],
            root: 0,
            branching,
            threshold,
            n_inserted: 0,
            path: Vec::new(),
        }
    }

    /// The merge threshold `τ`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of objects inserted so far.
    pub fn n_inserted(&self) -> usize {
        self.n_inserted
    }

    /// Inserts one object summary (normally a singleton DCF).
    ///
    /// An insert absorbed by an existing leaf entry never touches the
    /// incoming DCF's allocations at all; only an insert that opens a new
    /// leaf entry clones it into the pool. In the summary regime (`φ > 0`)
    /// absorbs dominate, so Phase 1 streams borrowed objects and
    /// allocates only to resize a summary on the insert's path.
    pub fn insert(&mut self, dcf: &Dcf) {
        if let Some(leaf) = self.descend_or_absorb(dcf) {
            self.insert_new_entry(leaf, dcf.clone());
        }
    }

    /// Descends to the leaf closest to `dcf` and absorbs it there when the
    /// merge loss is within threshold (refreshing every ancestor summary).
    /// Returns the target leaf when the object was *not* absorbed and a
    /// new entry is required; the descent path is left in `self.path`.
    fn descend_or_absorb(&mut self, dcf: &Dcf) -> Option<u32> {
        self.n_inserted += 1;

        // Descend along the closest-entry path, recording it.
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut node = self.root;
        while !self.nodes[node as usize].leaf {
            let (idx, _) = self
                .closest_entry(node, dcf)
                .expect("internal nodes are never empty");
            path.push((node, idx));
            let eid = self.nodes[node as usize].entries[idx];
            node = self.pool[eid as usize].child;
        }

        // Leaf: absorb into the closest entry if within threshold.
        let absorb = match self.closest_entry(node, dcf) {
            Some((idx, d)) if d <= self.threshold => Some(idx),
            _ => None,
        };
        if let Some(idx) = absorb {
            dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TreeAbsorbs, 1);
            let eid = self.nodes[node as usize].entries[idx];
            self.pool[eid as usize].dcf.merge_in_place(dcf);
            // Refresh every ancestor summary with the incoming object.
            for &(n, i) in path.iter().rev() {
                let aid = self.nodes[n as usize].entries[i];
                self.pool[aid as usize].dcf.merge_in_place(dcf);
            }
            self.path = path;
            return None;
        }
        self.path = path;
        Some(node)
    }

    /// Opens a new entry for `dcf` in `leaf` (the descent path must be in
    /// `self.path`), splitting overflowing nodes on the way back up.
    fn insert_new_entry(&mut self, node: u32, dcf: Dcf) {
        let path = std::mem::take(&mut self.path);
        let eid = self.alloc_entry(Entry {
            dcf,
            child: NO_CHILD,
        });
        self.nodes[node as usize].entries.push(eid);
        let mut pending = if self.nodes[node as usize].entries.len() > self.branching {
            Some(self.split(node))
        } else {
            None
        };
        for &(n, i) in path.iter().rev() {
            match pending {
                Some((e1, e2)) => {
                    // Replace the split child's summary with the halves.
                    let entries = &mut self.nodes[n as usize].entries;
                    let old = entries.swap_remove(i);
                    entries.push(e1);
                    entries.push(e2);
                    // A dead slot keeps no summary buffers.
                    self.pool[old as usize].dcf = Dcf::default();
                    self.free.push(old);
                    pending = if self.nodes[n as usize].entries.len() > self.branching {
                        Some(self.split(n))
                    } else {
                        None
                    };
                }
                None => {
                    // Ancestors above the highest split absorb the new
                    // object's mass into their summaries.
                    let aid = self.nodes[n as usize].entries[i];
                    Self::merge_pool_pair(&mut self.pool, aid, eid);
                }
            }
        }
        if let Some((e1, e2)) = pending {
            // Root split: grow a new root.
            let new_root = self.nodes.len() as u32;
            self.nodes.push(Node {
                entries: vec![e1, e2],
                leaf: false,
            });
            self.root = new_root;
        }
        self.path = path;
    }

    /// Merges pool entry `src` into pool entry `dst` in place.
    fn merge_pool_pair(pool: &mut [Entry], dst: u32, src: u32) {
        let (d, s) = (dst as usize, src as usize);
        debug_assert_ne!(d, s);
        let (dst_e, src_e) = if d < s {
            let (lo, hi) = pool.split_at_mut(s);
            (&mut lo[d], &hi[0])
        } else {
            let (lo, hi) = pool.split_at_mut(d);
            (&mut hi[0], &lo[s])
        };
        dst_e.dcf.merge_in_place(&src_e.dcf);
    }

    /// Allocates a pool slot, preferring ones freed by earlier splits.
    fn alloc_entry(&mut self, e: Entry) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.pool[id as usize] = e;
                id
            }
            None => {
                let id = u32::try_from(self.pool.len()).expect("DCF-tree entry pool overflows u32");
                self.pool.push(e);
                id
            }
        }
    }

    /// The entry of `node` closest to `dcf` by information loss
    /// (ties to the lower index), with its distance.
    fn closest_entry(&self, node: u32, dcf: &Dcf) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &eid) in self.nodes[node as usize].entries.iter().enumerate() {
            let d = self.pool[eid as usize].dcf.distance(dcf);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best
    }

    /// Splits an overflowing node in two, seeding with the farthest entry
    /// pair and redistributing the rest by proximity. Returns the two
    /// summary entries for the parent.
    fn split(&mut self, node: u32) -> (u32, u32) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TreeSplits, 1);
        let leaf = self.nodes[node as usize].leaf;
        let ids = std::mem::take(&mut self.nodes[node as usize].entries);
        debug_assert!(ids.len() >= 2);

        // Farthest pair as seeds.
        let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let d = self.pool[ids[i] as usize]
                    .dcf
                    .distance(&self.pool[ids[j] as usize].dcf);
                if d > worst {
                    worst = d;
                    s1 = i;
                    s2 = j;
                }
            }
        }

        let mut left: Vec<u32> = Vec::with_capacity(ids.len());
        let mut right: Vec<u32> = Vec::with_capacity(ids.len());
        left.push(ids[s1]);
        right.push(ids[s2]);
        for (i, &eid) in ids.iter().enumerate() {
            if i == s1 || i == s2 {
                continue;
            }
            let dl = self.pool[left[0] as usize]
                .dcf
                .distance(&self.pool[eid as usize].dcf);
            let dr = self.pool[right[0] as usize]
                .dcf
                .distance(&self.pool[eid as usize].dcf);
            if dl <= dr {
                left.push(eid);
            } else {
                right.push(eid);
            }
        }

        fn summarize(pool: &[Entry], es: &[u32]) -> Dcf {
            let mut it = es.iter();
            let first = *it.next().expect("split halves are non-empty");
            let mut s = pool[first as usize].dcf.clone();
            for &e in it {
                s.merge_in_place(&pool[e as usize].dcf);
            }
            s
        }
        let left_summary = summarize(&self.pool, &left);
        let right_summary = summarize(&self.pool, &right);

        // Reuse `node` for the left half; allocate the right half.
        self.nodes[node as usize].entries = left;
        let right_id = self.nodes.len() as u32;
        self.nodes.push(Node {
            entries: right,
            leaf,
        });
        let e1 = self.alloc_entry(Entry {
            dcf: left_summary,
            child: node,
        });
        let e2 = self.alloc_entry(Entry {
            dcf: right_summary,
            child: right_id,
        });
        (e1, e2)
    }

    /// Consumes the tree, moving the leaf-level DCFs out left to right
    /// without cloning them. These are the summaries Phase 2 clusters
    /// with AIB.
    pub fn into_leaves(mut self) -> Vec<Dcf> {
        let mut out = Vec::new();
        let mut stack = vec![(self.root, 0usize)];
        while let Some(top) = stack.last_mut() {
            let (node, idx) = *top;
            let n = &self.nodes[node as usize];
            if idx >= n.entries.len() {
                stack.pop();
                continue;
            }
            top.1 += 1;
            let eid = n.entries[idx] as usize;
            if n.leaf {
                out.push(std::mem::take(&mut self.pool[eid].dcf));
            } else {
                stack.push((self.pool[eid].child, 0));
            }
        }
        out
    }

    /// Number of leaf entries (the size of Phase 2's input).
    pub fn n_leaf_entries(&self) -> usize {
        // Every node is reachable (splits reuse the split node and push
        // its sibling), so the leaf nodes hold exactly the leaf entries.
        self.nodes
            .iter()
            .filter(|n| n.leaf)
            .map(|n| n.entries.len())
            .sum()
    }

    /// Height of the tree (1 for a single leaf node).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while !self.nodes[node as usize].leaf {
            h += 1;
            let eid = self.nodes[node as usize].entries[0];
            node = self.pool[eid as usize].child;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::SparseDist;
    use dbmine_oracles::DcfTreeRef;

    fn singleton(w: f64, pairs: &[(u32, f64)]) -> Dcf {
        Dcf::singleton(w, SparseDist::from_pairs(pairs.to_vec()))
    }

    #[test]
    fn zero_threshold_merges_only_identical() {
        let mut t = DcfTree::new(4, 0.0);
        t.insert(&singleton(0.25, &[(0, 1.0)]));
        t.insert(&singleton(0.25, &[(0, 1.0)])); // identical → merged
        t.insert(&singleton(0.25, &[(1, 1.0)]));
        t.insert(&singleton(0.25, &[(1, 0.5), (2, 0.5)]));
        assert_eq!(t.n_leaf_entries(), 3);
        assert_eq!(t.n_inserted(), 4);
        let merged = t
            .into_leaves()
            .into_iter()
            .find(|d| d.count == 2)
            .expect("identical pair merged");
        assert!((merged.weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn large_threshold_merges_everything() {
        let mut t = DcfTree::new(4, 10.0);
        for i in 0..50u32 {
            t.insert(&singleton(0.02, &[(i, 1.0)]));
        }
        assert_eq!(t.n_leaf_entries(), 1);
        let l = t.into_leaves();
        assert!((l[0].weight - 1.0).abs() < 1e-9);
        assert_eq!(l[0].count, 50);
    }

    #[test]
    fn splits_keep_all_mass_and_counts() {
        let mut t = DcfTree::new(2, 0.0);
        let n = 40u32;
        for i in 0..n {
            t.insert(&singleton(1.0 / n as f64, &[(i, 1.0)]));
        }
        assert_eq!(t.n_leaf_entries(), n as usize);
        assert!(t.height() > 1, "tree must have split with B = 2");
        let leaves = t.into_leaves();
        let total: f64 = leaves.iter().map(|d| d.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let count: usize = leaves.iter().map(|d| d.count).sum();
        assert_eq!(count, n as usize);
    }

    #[test]
    fn similar_objects_share_leaves() {
        // Two tight groups; τ large enough to absorb within-group noise
        // but far below the between-group loss.
        let mut t = DcfTree::new(4, 0.02);
        for _ in 0..10 {
            t.insert(&singleton(0.05, &[(0, 0.95), (1, 0.05)]));
            t.insert(&singleton(0.05, &[(5, 0.95), (6, 0.05)]));
        }
        assert_eq!(t.n_leaf_entries(), 2);
        let leaves = t.into_leaves();
        assert!(leaves.iter().all(|d| d.count == 10));
    }

    #[test]
    fn aux_vectors_survive_tree_merges() {
        let mut t = DcfTree::new(4, 10.0);
        t.insert(&Dcf::singleton_with_aux(
            0.5,
            SparseDist::from_pairs(vec![(0, 1.0)]),
            SparseDist::from_pairs(vec![(0, 2.0)]),
        ));
        t.insert(&Dcf::singleton_with_aux(
            0.5,
            SparseDist::from_pairs(vec![(0, 1.0)]),
            SparseDist::from_pairs(vec![(1, 3.0)]),
        ));
        let l = t.into_leaves();
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].aux.get(0), 2.0);
        assert_eq!(l[0].aux.get(1), 3.0);
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = DcfTree::new(3, 0.0);
        for i in 0..200u32 {
            t.insert(&singleton(0.005, &[(i, 1.0)]));
        }
        assert_eq!(t.n_leaf_entries(), 200);
        // With B = 3 the height of a 200-leaf tree stays small.
        assert!(t.height() <= 12, "height {} too large", t.height());
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn branching_of_one_rejected() {
        let _ = DcfTree::new(1, 0.0);
    }

    #[test]
    fn empty_tree_has_no_leaves() {
        let t = DcfTree::new(4, 0.0);
        assert_eq!(t.n_leaf_entries(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.into_leaves().is_empty());
    }

    /// Deterministic xorshift stream of pseudo-random singleton DCFs.
    fn random_objects(seed: u64, n: usize, dom: u32) -> Vec<Dcf> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..n)
            .map(|_| {
                let k = 1 + (next() % 4) as usize;
                let mut pairs: Vec<(u32, f64)> = (0..k)
                    .map(|_| ((next() % u64::from(dom)) as u32, 1.0 + (next() % 9) as f64))
                    .collect();
                pairs.sort_by_key(|&(i, _)| i);
                pairs.dedup_by_key(|&mut (i, _)| i);
                let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
                for p in &mut pairs {
                    p.1 /= total;
                }
                Dcf::singleton(1.0 / n as f64, SparseDist::from_pairs(pairs))
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_random_streams() {
        for (seed, branching, threshold) in [
            (0x5eed1u64, 2usize, 0.0f64),
            (0x5eed2, 3, 0.005),
            (0x5eed3, 4, 0.05),
            (0x5eed4, 6, 0.5),
        ] {
            let objects = random_objects(seed, 120, 12);
            let mut arena = DcfTree::new(branching, threshold);
            let mut reference = DcfTreeRef::new(branching, threshold);
            for o in &objects {
                arena.insert(o);
                reference.insert(o.clone());
            }
            assert_eq!(arena.n_leaf_entries(), reference.n_leaf_entries());
            assert_eq!(arena.height(), reference.height());
            let a = arena.into_leaves();
            let r = reference.leaves();
            assert_eq!(a.len(), r.len());
            for (x, y) in a.iter().zip(&r) {
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                assert_eq!(x.count, y.count);
                assert_eq!(x.cond.entries(), y.cond.entries());
                assert_eq!(
                    x.cond.total().to_bits(),
                    y.cond.total().to_bits(),
                    "totals diverge at seed {seed:#x}"
                );
            }
        }
    }
}
