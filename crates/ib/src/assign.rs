//! Nearest-representative assignment (LIMBO Phase 3).
//!
//! After Phase 2 produces `k` representative DCFs, the paper performs
//! *"a scan over the data set"* assigning *"each object o to the cluster c
//! such that d(o, c) is minimized"*, where `d` is the merge information
//! loss.

use crate::dcf::Dcf;

/// The representative index minimizing `δI(object, rep)`, together with
/// that loss. Returns `None` when `reps` is empty. Ties break toward the
/// smaller index, making assignment deterministic.
pub fn nearest(object: &Dcf, reps: &[Dcf]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, rep) in reps.iter().enumerate() {
        let d = object.distance(rep);
        match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((i, d)),
        }
    }
    best
}

/// Assigns every object to its nearest representative with `threads`
/// workers (`1` = serial, `0` = all cores). Returns, per object, the
/// `(representative index, information loss)` pair. Each object's
/// assignment is independent, so the result is bit-identical for every
/// thread count.
pub fn assign_all_with<'a>(
    objects: impl IntoIterator<Item = &'a Dcf>,
    reps: &[Dcf],
    threads: usize,
) -> Vec<(usize, f64)> {
    let objects: Vec<&Dcf> = objects.into_iter().collect();
    dbmine_parallel::par_map(threads, &objects, |_, o| {
        nearest(o, reps).expect("assignment requires at least one representative")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::SparseDist;

    fn d(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    #[test]
    fn picks_identical_representative() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(1, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(1, 1.0)]));
        let (idx, loss) = nearest(&o, &reps).unwrap();
        assert_eq!(idx, 1);
        assert!(loss.abs() < 1e-12);
    }

    #[test]
    fn picks_closer_mixture() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 0.9), (1, 0.1)])),
            Dcf::singleton(0.5, d(&[(0, 0.1), (1, 0.9)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(0, 0.8), (1, 0.2)]));
        assert_eq!(nearest(&o, &reps).unwrap().0, 0);
    }

    #[test]
    fn empty_reps_is_none() {
        let o = Dcf::singleton(1.0, d(&[(0, 1.0)]));
        assert!(nearest(&o, &[]).is_none());
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(0, 1.0)]));
        assert_eq!(nearest(&o, &reps).unwrap().0, 0);
    }

    #[test]
    fn assign_all_covers_every_object() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(1, 1.0)])),
        ];
        let objects = [
            Dcf::singleton(0.1, d(&[(0, 1.0)])),
            Dcf::singleton(0.1, d(&[(1, 1.0)])),
            Dcf::singleton(0.1, d(&[(0, 0.5), (1, 0.5)])),
        ];
        let a = assign_all_with(objects.iter(), &reps, 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].0, 0);
        assert_eq!(a[1].0, 1);
    }
}
