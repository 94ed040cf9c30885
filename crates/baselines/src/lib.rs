//! Baselines the paper positions itself against.
//!
//! * [`apriori`] — frequent-itemset mining over attribute values
//!   (Agrawal et al., the paper's `[2]`). Section 6.2 notes that value
//!   clustering at `φ_V = 0` *"aligns our method with that of Frequent
//!   Itemset counting"*; the ablation benches compare `C_VD` groups with
//!   the itemsets Apriori finds.
//! * [`joins`] — Bellman-style cross-relation value-overlap summaries
//!   (the paper's `[10]`): Jaccard/containment per column pair, the
//!   classic join-path and foreign-key-candidate signal.

pub mod apriori;
pub mod joins;

pub use apriori::{mine_frequent_itemsets, FrequentItemset};
pub use joins::{join_candidates, self_join_candidates, JoinCandidate};
