//! The minimality filter of the brute-force miner.

use dbmine_fdmine::fd::normalize_fds;
use dbmine_fdmine::Fd;

/// Keeps only the minimal dependencies per RHS: drops `X → A` when some
/// `X' ⊂ X → A` is present.
pub fn minimal_only(fds: Vec<Fd>) -> Vec<Fd> {
    let fds = normalize_fds(fds);
    let mut out: Vec<Fd> = Vec::with_capacity(fds.len());
    for f in &fds {
        let dominated = fds
            .iter()
            .any(|g| g.rhs == f.rhs && g.lhs != f.lhs && g.lhs.is_subset_of(f.lhs));
        if !dominated {
            out.push(*f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::AttrSet;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn minimal_only_filters_supersets() {
        let fds = vec![
            Fd::new(set(&[0]), 2),
            Fd::new(set(&[0, 1]), 2),
            Fd::new(set(&[1]), 3),
        ];
        let m = minimal_only(fds);
        assert_eq!(m, vec![Fd::new(set(&[0]), 2), Fd::new(set(&[1]), 3)]);
    }
}
