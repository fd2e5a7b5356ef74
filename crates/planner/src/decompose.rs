//! Spanning-query decomposition: cut a multi-shard range predicate into
//! per-shard sub-queries at the shard plan's cut values.
//!
//! Shard-affine dispatch routes a query by its *home* (lower-bound) shard;
//! a range spanning shards otherwise executes whole on one pinned worker,
//! reaching across every other shard's latches. Cutting the range at the
//! plan's boundaries gives each sub-query a range wholly inside one shard
//! — its routing key *is* that shard — so even wide scans never break
//! shard/worker affinity: each part runs on its pinned worker, interior
//! parts clamp to sentinels (zero cracks), and a merge ticket folds the
//! per-part counts back into one answer.

use holix_cracking::ShardPlan;
use holix_workloads::QuerySpec;

/// Cuts `q` at the plan's shard boundaries. Returns `None` when the range
/// lies within a single shard (nothing to decompose) or the plan has one
/// shard; otherwise one sub-query per intersected shard, in ascending
/// value order, whose half-open ranges partition `[q.lo, q.hi)` exactly.
pub fn decompose_spanning(plan: &ShardPlan, q: &QuerySpec) -> Option<Vec<QuerySpec>> {
    let (first, last) = plan.shard_range(q.lo, q.hi)?;
    if first == last {
        return None;
    }
    let cuts = plan.cuts();
    let parts = (first..=last)
        .map(|k| QuerySpec {
            attr: q.attr,
            lo: if k == first { q.lo } else { cuts[k - 1] },
            hi: if k == last { q.hi } else { cuts[k] },
        })
        .filter(|p| p.lo < p.hi)
        .collect::<Vec<_>>();
    debug_assert!(parts.len() >= 2, "spanning range produced {parts:?}");
    Some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::ShardPlan;

    fn plan(cuts: &[i64]) -> ShardPlan {
        ShardPlan::from_cuts(cuts.to_vec())
    }

    fn q(lo: i64, hi: i64) -> QuerySpec {
        QuerySpec { attr: 3, lo, hi }
    }

    #[test]
    fn parts_partition_the_range_exactly() {
        let p = plan(&[100, 200, 300]);
        assert_eq!(p.shards(), 4);
        let parts = decompose_spanning(&p, &q(50, 250)).unwrap();
        assert_eq!(parts.len(), 3);
        // Exact partition: consecutive, covering, same attr.
        assert_eq!(parts[0].lo, 50);
        assert_eq!(parts.last().unwrap().hi, 250);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
        assert!(parts.iter().all(|p| p.attr == 3 && p.lo < p.hi));
        // Each part lies within one shard.
        for part in &parts {
            let (a, b) = p.shard_range(part.lo, part.hi).unwrap();
            assert_eq!(a, b, "part {part:?} spans shards");
        }
    }

    #[test]
    fn single_shard_ranges_do_not_decompose() {
        let p = plan(&[100, 200, 300]);
        assert!(decompose_spanning(&p, &q(110, 190)).is_none());
        assert!(
            decompose_spanning(&p, &q(100, 200)).is_none(),
            "exact shard"
        );
        assert!(decompose_spanning(&p, &q(5, 5)).is_none(), "empty");
        assert!(decompose_spanning(&ShardPlan::single(), &q(0, 1_000)).is_none());
    }

    #[test]
    fn exact_cut_bounds_split_cleanly() {
        let p = plan(&[100, 200, 300]);
        let parts = decompose_spanning(&p, &q(100, 300)).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].lo, parts[0].hi), (100, 200));
        assert_eq!((parts[1].lo, parts[1].hi), (200, 300));
    }
}
