//! Snapshot consistency under full interference (§5.7 grown to the
//! snapshot read path): concurrent snapshot scans must observe the exact
//! base multiset plus the net applied inserts/deletes — never a torn
//! intermediate — while query-driven cracks, background refinements
//! (piece splits), the read path's and an idle worker's Ripple drains run
//! against the same shards, and while the scanners' own first reads sum
//! every shard's pieces. Every read answers from the live pieces' prefix
//! sums and filters its edge pieces; each answer must equal the oracle at
//! one instant.
//!
//! The mid-race oracle uses constant-value update streams: one updater
//! inserts only `VA`, another deletes only pre-merged `VB` tuples. Any
//! *consistent* point-in-time view then satisfies a linear system —
//! `count = base + M + i - d`, `sum = base_sum + M·VB + i·VA - d·VB` —
//! whose integer solution `(i, d)` must fall inside the per-updater
//! progress windows read around the scan. A torn scan (a Ripple shift
//! observed halfway, an insert counted in both a piece sum and pending, a
//! batch in neither, a sum taken beside a moving piece) breaks the
//! coupling and fails the solve.

use holix::cracking::{CrackScratch, ShardPlan, ShardedColumn};
use holix::storage::select::{scan_stats, Predicate};
use holix::storage::types::RowId;
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

const N: usize = 60_000;
const DOMAIN: i64 = 100_000;
/// Inserted by updater A (inside the scanned domain).
const VA: i64 = 41_000;
/// Pre-merged tuples deleted by updater B.
const VB: i64 = 59_000;
/// Pre-merged `VB` tuples available for deletion.
const M: usize = 400;
/// A value band no updater ever touches (exact-equality scans).
const QUIET: (i64, i64) = (70_000, 90_000);

fn base_data(seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| {
            // Keep the base clear of the sentinel update values so the
            // accounting attributes every VA/VB tuple to an updater.
            loop {
                let v = rng.random_range(0..DOMAIN);
                if v != VA && v != VB {
                    return v;
                }
            }
        })
        .collect()
}

/// Locked select on every intersecting shard (merges pending + cracks);
/// count-only, safe under concurrent updates (unlike `select_verified`,
/// whose checksum re-lock is documented as caller-synchronised).
fn select_all(col: &ShardedColumn, pred: Predicate, scratch: &mut CrackScratch) {
    for (k, p) in col.intersecting(pred) {
        col.shard(k).select(p, scratch);
    }
}

#[test]
fn snapshot_scans_observe_exact_multisets_under_interference() {
    let base = base_data(0xB0);
    let plan = ShardPlan::from_values(&base, 4);
    let col = ShardedColumn::from_base_with_plan("stress", &base, plan);
    let base_full = scan_stats(&base, Predicate::range(0, DOMAIN));

    // Pre-merge M deletable VB tuples.
    {
        let mut scratch = CrackScratch::new();
        for i in 0..M {
            col.queue_insert(VB, (N + i) as RowId);
        }
        col.select_verified(Predicate::range(VB - 1, VB + 1), &mut scratch);
        assert_eq!(col.pending_len(), 0, "VB seed tuples must be merged");
        // Merged, but no shard summed: the scanners' first reads sum them
        // while everything below runs.
        assert!((0..col.shard_count()).all(|k| col.shard(k).piece_sums().is_none()));
    }

    let inserted = AtomicUsize::new(0); // updater A progress (applied VA inserts)
    let deleted = AtomicUsize::new(0); // updater B progress (applied VB deletes)

    std::thread::scope(|s| {
        // Updater A: insert VA, read it back through a narrow locked
        // select, drain its shard now and then as a read past the backlog
        // would, then publish progress.
        {
            let col = &col;
            let inserted = &inserted;
            s.spawn(move || {
                let mut scratch = CrackScratch::new();
                for i in 0..250usize {
                    col.queue_insert(VA, (N + M + i) as RowId);
                    // `select` (not select_verified): the verified checksum
                    // re-locks and is documented unsafe vs concurrent
                    // updates.
                    select_all(col, Predicate::range(VA - 3, VA + 3), &mut scratch);
                    if i % 16 == 15 {
                        col.shard(col.plan().shard_of(VA)).merge_pending();
                    }
                    inserted.fetch_add(1, SeqCst);
                }
            });
        }
        // Updater B: delete one pre-merged VB tuple at a time.
        {
            let col = &col;
            let deleted = &deleted;
            s.spawn(move || {
                let mut scratch = CrackScratch::new();
                for i in 0..M {
                    col.queue_delete(VB, (N + i) as RowId);
                    select_all(col, Predicate::range(VB - 3, VB + 3), &mut scratch);
                    if i % 16 == 15 {
                        col.shard(col.plan().shard_of(VB)).merge_pending();
                    }
                    deleted.fetch_add(1, SeqCst);
                }
            });
        }
        // Idle worker: drains every shard whose queue is due, taking the
        // structure lock only when it is free.
        {
            let col = &col;
            let (inserted, deleted) = (&inserted, &deleted);
            s.spawn(move || {
                while inserted.load(SeqCst) < 250 || deleted.load(SeqCst) < M {
                    for k in 0..col.shard_count() {
                        col.shard(k).drain_in_background();
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Cracker: locked selects over random ranges (cracks + merges).
        {
            let col = &col;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC1);
                let mut scratch = CrackScratch::new();
                for _ in 0..300 {
                    let a = rng.random_range(0..DOMAIN);
                    let b = rng.random_range(0..DOMAIN);
                    select_all(
                        col,
                        Predicate::range(a.min(b), a.max(b).max(a.min(b) + 1)),
                        &mut scratch,
                    );
                }
            });
        }
        // Refiners: background piece splits on every shard.
        for t in 0..2u64 {
            let col = &col;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD0 + t);
                let mut scratch = CrackScratch::new();
                for _ in 0..400 {
                    for k in 0..col.shard_count() {
                        col.shard(k).refine_random(&mut rng, &mut scratch, 4);
                    }
                }
            });
        }
        // Snapshot scanners: full-domain solves + quiet-band exact checks.
        // Each starts once the updaters are under way, so the first one's
        // reads sum the shards mid-race (the other may wait out the sum).
        for t in 0..2u64 {
            let col = &col;
            let inserted = &inserted;
            let deleted = &deleted;
            let base = &base;
            let base_full = &base_full;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xE0 + t);
                let mut scratch = CrackScratch::new();
                while inserted.load(SeqCst) < 16 * (t as usize + 1) {
                    std::thread::yield_now();
                }
                for round in 0..250 {
                    // Progress windows bracketing the scan.
                    let i_lo = inserted.load(SeqCst) as i128;
                    let d_lo = deleted.load(SeqCst) as i128;
                    let scan = col.snapshot_scan(Predicate::range(0, DOMAIN), &mut scratch);
                    let i_hi = inserted.load(SeqCst) as i128 + 1; // +1: merge may precede counter bump
                    let d_hi = deleted.load(SeqCst) as i128 + 1;

                    // Solve the 2x2 system for (i, d).
                    let count_delta = scan.count as i128 - base_full.count as i128 - M as i128;
                    let sum_delta = scan.sum - base_full.sum - (M as i128) * (VB as i128);
                    // count_delta = i - d; sum_delta = i*VA - d*VB
                    // => i = (sum_delta - count_delta*VB) / (VA - VB)
                    let num = sum_delta - count_delta * (VB as i128);
                    let den = (VA - VB) as i128;
                    assert_eq!(
                        num % den,
                        0,
                        "torn snapshot: non-integral insert count (round {round}, \
                         count={}, sum={})",
                        scan.count,
                        scan.sum
                    );
                    let i = num / den;
                    let d = i - count_delta;
                    assert!(
                        (i_lo..=i_hi).contains(&i) && (d_lo..=d_hi).contains(&d),
                        "inconsistent snapshot: solved i={i} d={d} outside windows \
                         [{i_lo},{i_hi}] / [{d_lo},{d_hi}] (round {round})"
                    );

                    // Quiet band: no updates land there, so the scan must
                    // equal the static base oracle *exactly*, mid-race.
                    let a = rng.random_range(QUIET.0..QUIET.1 - 1);
                    let b = rng.random_range(a + 1..QUIET.1);
                    let pred = Predicate::range(a, b);
                    let quiet = col.snapshot_scan(pred, &mut scratch);
                    let oracle = scan_stats(base, pred);
                    assert_eq!(
                        (quiet.count, quiet.sum),
                        (oracle.count, oracle.sum),
                        "quiet-band scan diverged (round {round}, pred [{a},{b}))"
                    );
                }
            });
        }
    });

    // Quiesce: merge everything, then all read paths agree exactly.
    let mut scratch = CrackScratch::new();
    for k in 0..col.shard_count() {
        col.shard(k).merge_pending();
    }
    let full = Predicate::range(0, DOMAIN);
    let scan = col.snapshot_scan(full, &mut scratch);
    let (_, locked) = col.select_verified(full, &mut scratch);
    assert_eq!((scan.count, scan.sum), (locked.count, locked.sum));
    let i = inserted.load(SeqCst) as i128;
    let d = deleted.load(SeqCst) as i128;
    assert_eq!(
        scan.count as i128,
        base_full.count as i128 + M as i128 + i - d
    );
    assert_eq!(
        scan.sum,
        base_full.sum + (M as i128 - d) * VB as i128 + i * VA as i128
    );
    // Every shard was summed by the scanners, and keeps its sums: the
    // invariants check each piece's against its values.
    for k in 0..col.shard_count() {
        assert!(col.shard(k).piece_sums().is_some(), "shard {k}");
    }
    let held: usize = (0..col.shard_count()).map(|k| col.shard(k).len()).sum();
    assert_eq!(held as u64, scan.count);

    for k in 0..col.shard_count() {
        col.shard(k).check_invariants(None);
    }
}
