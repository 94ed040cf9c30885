//! The original boxed-`Vec` DCF-tree, kept as the bit-identity oracle
//! for the arena-backed `dbmine_limbo::DcfTree`.
//!
//! This is the seed implementation verbatim (modulo the rename to
//! [`DcfTreeRef`]): nodes own `Vec<Entry>` with full `Dcf`s inline, the
//! incoming DCF is cloned once per tree level during descent, and every
//! merge allocates fresh vectors via [`dcf_merge`]. Regression and
//! property tests pin the arena tree to this one — same leaf DCFs (bit
//! for bit), same merge decisions, same structure — across random insert
//! streams, `φ` thresholds and branching factors. Do not optimize this
//! file; its cost *is* the baseline the `bench_limbo` runner measures
//! against.

use crate::dcf::dcf_merge;
use dbmine_ib::Dcf;

/// An entry of a tree node: a cluster summary, plus (for internal nodes)
/// the child holding its constituents.
#[derive(Clone, Debug)]
struct Entry {
    dcf: Dcf,
    /// Index into `DcfTreeRef::nodes`; `usize::MAX` for leaf entries.
    child: usize,
}

const NO_CHILD: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node {
    entries: Vec<Entry>,
    leaf: bool,
}

/// Reference DCF-tree: streaming summarization of objects under an
/// information-loss merge threshold, with per-merge allocation.
#[derive(Clone, Debug)]
pub struct DcfTreeRef {
    nodes: Vec<Node>,
    root: usize,
    branching: usize,
    threshold: f64,
    n_inserted: usize,
}

impl DcfTreeRef {
    /// A new tree with the given branching factor `B ≥ 2` and merge
    /// threshold `τ` (in bits of information loss).
    pub fn new(branching: usize, threshold: f64) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        DcfTreeRef {
            nodes: vec![Node {
                entries: Vec::new(),
                leaf: true,
            }],
            root: 0,
            branching,
            threshold,
            n_inserted: 0,
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
    pub fn insert(&mut self, dcf: Dcf) {
        self.n_inserted += 1;
        if let Some((e1, e2)) = self.insert_rec(self.root, dcf) {
            // Root split: grow a new root.
            let new_root = self.nodes.len();
            self.nodes.push(Node {
                entries: vec![e1, e2],
                leaf: false,
            });
            self.root = new_root;
        }
    }

    /// Recursive insertion; returns the replacement pair if `node` split.
    fn insert_rec(&mut self, node: usize, dcf: Dcf) -> Option<(Entry, Entry)> {
        if self.nodes[node].leaf {
            return self.insert_into_leaf(node, dcf);
        }
        // Descend into the closest child entry.
        let idx = self
            .closest_entry(node, &dcf)
            .expect("internal nodes are never empty");
        let child = self.nodes[node].entries[idx].child;
        match self.insert_rec(child, dcf.clone()) {
            None => {
                // Child absorbed the object: refresh the summary on the path.
                let e = &mut self.nodes[node].entries[idx].dcf;
                *e = dcf_merge(e, &dcf);
                None
            }
            Some((e1, e2)) => {
                let entries = &mut self.nodes[node].entries;
                entries.swap_remove(idx);
                entries.push(e1);
                entries.push(e2);
                if entries.len() > self.branching {
                    Some(self.split(node))
                } else {
                    None
                }
            }
        }
    }

    fn insert_into_leaf(&mut self, node: usize, dcf: Dcf) -> Option<(Entry, Entry)> {
        if let Some(idx) = self.closest_entry(node, &dcf) {
            let d = self.nodes[node].entries[idx].dcf.distance(&dcf);
            if d <= self.threshold {
                let e = &mut self.nodes[node].entries[idx].dcf;
                *e = dcf_merge(e, &dcf);
                return None;
            }
        }
        self.nodes[node].entries.push(Entry {
            dcf,
            child: NO_CHILD,
        });
        if self.nodes[node].entries.len() > self.branching {
            Some(self.split(node))
        } else {
            None
        }
    }

    /// The entry of `node` closest to `dcf` by information loss
    /// (ties to the lower index).
    fn closest_entry(&self, node: usize, dcf: &Dcf) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.nodes[node].entries.iter().enumerate() {
            let d = e.dcf.distance(dcf);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Splits an overflowing node in two, seeding with the farthest entry
    /// pair and redistributing the rest by proximity. Returns the two
    /// summary entries for the parent.
    fn split(&mut self, node: usize) -> (Entry, Entry) {
        let leaf = self.nodes[node].leaf;
        let entries = std::mem::take(&mut self.nodes[node].entries);
        debug_assert!(entries.len() >= 2);

        // Farthest pair as seeds.
        let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                let d = entries[i].dcf.distance(&entries[j].dcf);
                if d > worst {
                    worst = d;
                    s1 = i;
                    s2 = j;
                }
            }
        }

        let mut left: Vec<Entry> = Vec::with_capacity(entries.len());
        let mut right: Vec<Entry> = Vec::with_capacity(entries.len());
        let mut rest: Vec<Entry> = Vec::with_capacity(entries.len());
        for (i, e) in entries.into_iter().enumerate() {
            if i == s1 {
                left.push(e);
            } else if i == s2 {
                right.push(e);
            } else {
                rest.push(e);
            }
        }
        for e in rest {
            let dl = left[0].dcf.distance(&e.dcf);
            let dr = right[0].dcf.distance(&e.dcf);
            if dl <= dr {
                left.push(e);
            } else {
                right.push(e);
            }
        }

        let summarize = |es: &[Entry]| {
            let mut it = es.iter();
            let mut s = it.next().expect("split halves are non-empty").dcf.clone();
            for e in it {
                s = dcf_merge(&s, &e.dcf);
            }
            s
        };
        let left_summary = summarize(&left);
        let right_summary = summarize(&right);

        // Reuse `node` for the left half; allocate the right half.
        self.nodes[node] = Node {
            entries: left,
            leaf,
        };
        let right_id = self.nodes.len();
        self.nodes.push(Node {
            entries: right,
            leaf,
        });
        (
            Entry {
                dcf: left_summary,
                child: node,
            },
            Entry {
                dcf: right_summary,
                child: right_id,
            },
        )
    }

    /// The leaf-level DCFs, left to right.
    pub fn leaves(&self) -> Vec<Dcf> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out);
        out
    }

    fn collect_leaves(&self, node: usize, out: &mut Vec<Dcf>) {
        let n = &self.nodes[node];
        if n.leaf {
            out.extend(n.entries.iter().map(|e| e.dcf.clone()));
        } else {
            for e in &n.entries {
                self.collect_leaves(e.child, out);
            }
        }
    }

    /// Number of leaf entries.
    pub fn n_leaf_entries(&self) -> usize {
        self.count_leaves(self.root)
    }

    fn count_leaves(&self, node: usize) -> usize {
        let n = &self.nodes[node];
        if n.leaf {
            n.entries.len()
        } else {
            n.entries.iter().map(|e| self.count_leaves(e.child)).sum()
        }
    }

    /// Height of the tree (1 for a single leaf node).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while !self.nodes[node].leaf {
            h += 1;
            node = self.nodes[node].entries[0].child;
        }
        h
    }
}
