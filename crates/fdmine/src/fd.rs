//! Functional dependencies.

use dbmine_relation::{AttrId, AttrSet};
use std::fmt;

/// A functional dependency `X → A` in canonical single-RHS form.
///
/// Multi-attribute right-hand sides are equivalent to one dependency per
/// RHS attribute; FD-RANK re-collapses dependencies that share an
/// antecedent and a rank (Step 2 of the algorithm).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fd {
    /// The determinant (left-hand side).
    pub lhs: AttrSet,
    /// The determined attribute (right-hand side).
    pub rhs: AttrId,
}

impl Fd {
    /// Builds `X → A`.
    pub fn new(lhs: AttrSet, rhs: AttrId) -> Self {
        Fd { lhs, rhs }
    }

    /// True for trivial dependencies (`A ∈ X`).
    pub fn is_trivial(&self) -> bool {
        self.lhs.contains(self.rhs)
    }

    /// All attributes mentioned: `X ∪ {A}` — the set `S` of FD-RANK
    /// Step 1.b.
    pub fn attrs(&self) -> AttrSet {
        self.lhs.with(self.rhs)
    }

    /// Renders as `[A,B]→[C]` given the attribute names.
    pub fn display(&self, names: &[String]) -> String {
        format!(
            "{}→[{}]",
            self.lhs.display(names),
            names.get(self.rhs).map(String::as_str).unwrap_or("?")
        )
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.lhs.iter().map(|a| a.to_string()).collect();
        write!(f, "{{{}}}→{}", lhs.join(","), self.rhs)
    }
}

/// Sorts dependencies canonically (by RHS, then LHS) and removes
/// duplicates and trivial entries.
pub fn normalize_fds(mut fds: Vec<Fd>) -> Vec<Fd> {
    fds.retain(|f| !f.is_trivial());
    fds.sort_by_key(|f| (f.rhs, f.lhs));
    fds.dedup();
    fds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn trivial_detection() {
        assert!(Fd::new(set(&[0, 1]), 1).is_trivial());
        assert!(!Fd::new(set(&[0, 1]), 2).is_trivial());
    }

    #[test]
    fn attrs_union() {
        let f = Fd::new(set(&[0, 2]), 3);
        assert_eq!(f.attrs(), set(&[0, 2, 3]));
    }

    #[test]
    fn display_with_names() {
        let names = vec!["DeptNo".to_string(), "DeptName".to_string()];
        let f = Fd::new(set(&[0]), 1);
        assert_eq!(f.display(&names), "[DeptNo]→[DeptName]");
    }

    #[test]
    fn normalize_dedups_and_drops_trivial() {
        let fds = vec![
            Fd::new(set(&[0]), 1),
            Fd::new(set(&[0]), 1),
            Fd::new(set(&[0, 1]), 1),
        ];
        let n = normalize_fds(fds);
        assert_eq!(n, vec![Fd::new(set(&[0]), 1)]);
    }
}
