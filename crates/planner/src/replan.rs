//! Replan policy: when should the daemon split a hot shard or merge two
//! cold neighbours?
//!
//! The input is the same published statistic the cost model prices
//! queries against — per-shard `PieceStats` reduced to a [`ShardLoad`]
//! (merged rows + pending backlog) — so the decision takes no column lock
//! and is pure. The *mechanism* (sealing, draining, rebuilding, swapping
//! in the successor column) lives in
//! [`holix_cracking::ShardedColumn::apply_replan`]; this module only
//! decides **whether** and **where**, mirroring how the paper's holistic
//! daemon separates deciding (Equation 1 weights) from doing (worker
//! refinement steps).
//!
//! Hippo (PAPERS.md) reorganizes its maintenance-light partial index when
//! the update distribution shifts; ByteStore re-derives per-partition
//! layout from observed access. The policy here is the cracking analogue:
//! a drifting hot region piles rows and pending updates into one shard,
//! the skew trips [`ReplanPolicy::split_skew`], and the split restores
//! per-shard work balance without ever blocking readers.

use holix_cracking::ReplanAction;

/// One shard's load as seen by the replanner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Merged tuples (published `PieceStats::len`).
    pub rows: usize,
    /// Pending Ripple backlog (published `PieceStats::pending`).
    pub pending: usize,
    /// Access heat in row-equivalents: the shard's observed query traffic
    /// (the paper's per-index `f_I`), pre-scaled by the caller so one unit
    /// compares to one resident row. Zero when the caller does not track
    /// access (size-only balancing, the pre-PR-8 behaviour).
    pub access: usize,
}

impl ShardLoad {
    /// The balance weight: merged rows plus the unmerged backlog (a shard
    /// absorbing a drifting insert hot spot is hot *before* its rows are)
    /// plus the access heat (a small shard every query hammers — scalding
    /// — deserves a split even though its rows never trip the size skew).
    pub fn weight(&self) -> usize {
        self.rows + self.pending + self.access
    }
}

/// Guard rails for replan proposals.
#[derive(Debug, Clone, Copy)]
pub struct ReplanPolicy {
    /// Never split a shard whose row count is below twice this (both
    /// halves must stay at least this large).
    pub min_shard_rows: usize,
    /// Split the heaviest shard when its weight exceeds this multiple of
    /// the mean shard weight.
    pub split_skew: f64,
    /// Merge the lightest adjacent pair when their combined weight is
    /// below this fraction of the mean shard weight.
    pub merge_fraction: f64,
    /// Never split past this many shards.
    pub max_shards: usize,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            min_shard_rows: 1024,
            split_skew: 2.0,
            merge_fraction: 0.5,
            max_shards: 64,
        }
    }
}

/// Shard-weight skew `max/mean` — the balance number a replan must not
/// leave worse than a frozen plan. 1.0 is perfectly balanced; 0.0 for an
/// empty plan.
pub fn load_skew(loads: &[ShardLoad]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let total: usize = loads.iter().map(|l| l.weight()).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().map(|l| l.weight()).max().unwrap_or(0);
    max as f64 / mean
}

/// Proposes at most one plan change from the current per-shard loads:
/// split the heaviest shard if it trips the skew threshold (and both
/// halves would stay above the row floor), else merge the lightest
/// adjacent pair if it has gone cold. One action per call keeps each
/// migration's copy work bounded to one or two shards; the daemon simply
/// proposes again next cycle if imbalance remains.
pub fn propose_replan(loads: &[ShardLoad], policy: &ReplanPolicy) -> Option<ReplanAction> {
    if loads.len() < 2 && loads.len() >= policy.max_shards {
        return None;
    }
    let total: usize = loads.iter().map(|l| l.weight()).sum();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / loads.len() as f64;

    // Hot split first: restoring balance for readers beats compacting
    // cold shards.
    if loads.len() < policy.max_shards {
        let (hot, load) = loads
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| l.weight())
            .expect("non-empty loads");
        if load.weight() as f64 > policy.split_skew * mean && load.rows >= 2 * policy.min_shard_rows
        {
            return Some(ReplanAction::Split { shard: hot });
        }
    }

    // Cold merge: lightest adjacent pair, if genuinely cold.
    if loads.len() >= 2 {
        let (left, pair) = loads
            .windows(2)
            .enumerate()
            .map(|(k, w)| (k, w[0].weight() + w[1].weight()))
            .min_by_key(|&(_, w)| w)
            .expect("at least one adjacent pair");
        if (pair as f64) < policy.merge_fraction * mean {
            return Some(ReplanAction::Merge { left });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(rows: usize, pending: usize) -> ShardLoad {
        ShardLoad {
            rows,
            pending,
            access: 0,
        }
    }

    #[test]
    fn balanced_loads_propose_nothing() {
        let policy = ReplanPolicy::default();
        let loads = vec![load(10_000, 0); 4];
        assert_eq!(propose_replan(&loads, &policy), None);
        assert!((load_skew(&loads) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_shard_trips_a_split() {
        let policy = ReplanPolicy::default();
        let loads = vec![load(5_000, 0), load(40_000, 2_000), load(5_000, 0)];
        assert_eq!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Split { shard: 1 })
        );
        assert!(load_skew(&loads) > policy.split_skew);
    }

    #[test]
    fn pending_backlog_counts_toward_heat() {
        let policy = ReplanPolicy::default();
        // Rows balanced, but one shard is absorbing the insert hot spot.
        let loads = vec![load(10_000, 90_000), load(10_000, 0), load(10_000, 0)];
        assert_eq!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Split { shard: 0 })
        );
    }

    #[test]
    fn scalding_small_shard_splits_on_access_skew() {
        let policy = ReplanPolicy::default();
        // Rows perfectly balanced — size-only balancing would do nothing —
        // but shard 2 absorbs nearly all the query traffic.
        let mut loads = vec![load(10_000, 0); 4];
        loads[2].access = 100_000;
        assert_eq!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Split { shard: 2 })
        );
        assert!(load_skew(&loads) > policy.split_skew);
        // The row floor still holds: a scalding shard too small to yield
        // two valid halves is left alone (splitting it cannot spread the
        // heat without creating an undersized shard).
        let mut loads = vec![load(10_000, 0); 4];
        loads[2] = ShardLoad {
            rows: 1_000,
            pending: 0,
            access: 200_000,
        };
        assert_ne!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Split { shard: 2 })
        );
    }

    #[test]
    fn cold_pair_merges_when_no_split_is_due() {
        let policy = ReplanPolicy::default();
        let loads = vec![load(30_000, 0), load(200, 0), load(300, 0), load(30_000, 0)];
        assert_eq!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Merge { left: 1 })
        );
    }

    #[test]
    fn guard_rails_hold() {
        let policy = ReplanPolicy {
            max_shards: 2,
            ..ReplanPolicy::default()
        };
        // Hot but already at the shard cap: no split.
        let loads = vec![load(50_000, 0), load(1_000, 0)];
        assert_eq!(propose_replan(&loads, &policy), None);
        // Hot but too small to split into two valid halves.
        let policy = ReplanPolicy::default();
        let loads = vec![load(1_500, 0), load(100, 0), load(100, 0)];
        assert_ne!(
            propose_replan(&loads, &policy),
            Some(ReplanAction::Split { shard: 0 })
        );
        // Empty plans propose nothing.
        assert_eq!(propose_replan(&[], &policy), None);
        assert_eq!(propose_replan(&[load(0, 0)], &policy), None);
    }
}
