//! Snapshot consistency under full interference (§5.7 grown to the
//! snapshot read path): concurrent snapshot scans must observe the exact
//! base multiset plus the net applied inserts/deletes — never a torn
//! intermediate — while query-driven cracks, background refinements
//! (piece splits) and Ripple merges run against the same shards; and a
//! replaced snapshot's segments must be freed with the last reader that
//! holds it, not before and not later.
//!
//! The mid-race oracle uses constant-value update streams: one updater
//! inserts only `VA`, another deletes only pre-merged `VB` tuples. Any
//! *consistent* point-in-time view then satisfies a linear system —
//! `count = base + M + i - d`, `sum = base_sum + M·VB + i·VA - d·VB` —
//! whose integer solution `(i, d)` must fall inside the per-updater
//! progress windows read around the scan. A torn scan (a Ripple shift
//! observed halfway, an insert counted in both snapshot and pending, a
//! half-published splice) breaks the coupling and fails the solve.

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
fn select_all(col: &ShardedColumn<i64>, pred: Predicate<i64>, scratch: &mut CrackScratch<i64>) {
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
        // Publish every shard's snapshot while its pieces are still
        // shard-sized: the morpher then has an encodable piece on its
        // first pass whatever the schedule. (Left to the scanners, a fast
        // run publishes only after the crackers have cut everything below
        // the morph floor, and no scan ever meets a compressed piece.)
        col.snapshot_scan(Predicate::range(0, DOMAIN), &mut scratch);
    }

    let inserted = AtomicUsize::new(0); // updater A progress (applied VA inserts)
    let deleted = AtomicUsize::new(0); // updater B progress (applied VB deletes)
    let morphs = AtomicUsize::new(0); // background segment re-encodings

    crossbeam::thread::scope(|s| {
        // Updater A: insert VA, force the Ripple merge via a narrow locked
        // select, then publish progress.
        {
            let col = &col;
            let inserted = &inserted;
            s.spawn(move |_| {
                let mut scratch = CrackScratch::new();
                for i in 0..250usize {
                    col.queue_insert(VA, (N + M + i) as RowId);
                    // `select` (not select_verified): the verified checksum
                    // re-locks and is documented unsafe vs concurrent
                    // updates; the plain select still forces the merge.
                    select_all(col, Predicate::range(VA - 3, VA + 3), &mut scratch);
                    inserted.fetch_add(1, SeqCst);
                }
            });
        }
        // Updater B: delete one pre-merged VB tuple at a time.
        {
            let col = &col;
            let deleted = &deleted;
            s.spawn(move |_| {
                let mut scratch = CrackScratch::new();
                for i in 0..M {
                    col.queue_delete(VB, (N + i) as RowId);
                    select_all(col, Predicate::range(VB - 3, VB + 3), &mut scratch);
                    deleted.fetch_add(1, SeqCst);
                }
            });
        }
        // Cracker: locked selects over random ranges (cracks + merges).
        {
            let col = &col;
            s.spawn(move |_| {
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
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0xD0 + t);
                let mut scratch = CrackScratch::new();
                for _ in 0..400 {
                    for k in 0..col.shard_count() {
                        col.shard(k).refine_random(&mut rng, &mut scratch, 4);
                    }
                }
            });
        }
        // Morpher: the daemon's background re-encoding of stable plain
        // snapshot pieces (FOR / delta / RLE), racing everything above —
        // the scanners' exactness asserts now also cover scans that land
        // on compressed pieces mid-flip.
        {
            let col = &col;
            let morphs = &morphs;
            s.spawn(move |_| {
                for _ in 0..200 {
                    for k in 0..col.shard_count() {
                        if col.shard(k).morph_cold_segments() {
                            morphs.fetch_add(1, SeqCst);
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Snapshot scanners: full-domain solves + quiet-band exact checks.
        for t in 0..2u64 {
            let col = &col;
            let inserted = &inserted;
            let deleted = &deleted;
            let base = &base;
            let base_full = &base_full;
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0xE0 + t);
                let mut scratch = CrackScratch::new();
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
    })
    .unwrap();

    // Quiesce: merge everything, then all read paths agree exactly.
    let mut scratch = CrackScratch::new();
    for k in 0..col.shard_count() {
        col.shard(k).merge_pending_range(i64::MIN, i64::MAX);
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
    // Collect agrees with the final multiset too.
    let mut got = Vec::new();
    col.snapshot_collect(full, &mut scratch, &mut got);
    assert_eq!(got.len() as u64, scan.count);

    // Morph to fixpoint: every remaining encodable plain piece flips to
    // its compressed form, and the compressed snapshot must keep
    // answering exactly what the plain one did.
    let mut post_morphs = 0usize;
    loop {
        let mut any = false;
        for k in 0..col.shard_count() {
            if col.shard(k).morph_cold_segments() {
                any = true;
                post_morphs += 1;
            }
        }
        if !any {
            break;
        }
    }
    assert!(
        morphs.load(SeqCst) + post_morphs > 0,
        "no snapshot segment was ever re-encoded"
    );
    let rescan = col.snapshot_scan(full, &mut scratch);
    assert_eq!((rescan.count, rescan.sum), (scan.count, scan.sum));
    let mut regot = Vec::new();
    col.snapshot_collect(full, &mut scratch, &mut regot);
    got.sort_unstable();
    regot.sort_unstable();
    assert_eq!(got, regot, "compressed collect diverged from plain collect");

    for k in 0..col.shard_count() {
        col.shard(k).check_invariants(None);
    }
}

#[test]
fn retired_segments_are_reclaimed_after_last_pin_drops() {
    let base = base_data(0xB1);
    let plan = ShardPlan::from_values(&base, 2);
    let col = ShardedColumn::from_base_with_plan("reclaim", &base, plan);
    let mut scratch = CrackScratch::new();
    let full = Predicate::range(0, DOMAIN);
    col.snapshot_scan(full, &mut scratch); // publish both shards

    let column_bytes = N * std::mem::size_of::<i64>();
    let bytes = |col: &ShardedColumn<i64>| -> usize {
        (0..col.shard_count())
            .map(|k| col.shard(k).snapshot_bytes())
            .sum()
    };

    // Crack-heavy update loop: every merge splices and replaces a
    // snapshot. Nobody holds a replaced version, so nothing accumulates.
    let mut rng = StdRng::seed_from_u64(0xF0);
    for i in 0..150 {
        let v = rng.random_range(0..DOMAIN);
        col.queue_insert(v, (N + i) as RowId);
        col.select_verified(Predicate::range(v - 2, v + 2), &mut scratch);
        for k in 0..col.shard_count() {
            col.shard(k).refine_random(&mut rng, &mut scratch, 2);
        }
        col.snapshot_scan(full, &mut scratch);
    }
    let settled = bytes(&col);
    assert!(
        settled <= 2 * column_bytes,
        "snapshot memory grew without bound: {settled} B vs {column_bytes} B column"
    );

    // A reader that holds shard 0's snapshot open keeps scanning the
    // multiset it started with, and keeps the segments only that version
    // references charged — memory climbs while it lives …
    let held = col.shard(0).snapshot().expect("published above");
    let before = held.stats(i64::MIN, i64::MAX);
    for i in 0..60 {
        let v = rng.random_range(0..DOMAIN / 2); // land updates in shard 0's range
        col.queue_insert(v, (N + 1_000 + i) as RowId);
        col.select_verified(Predicate::range(v - 2, v + 2), &mut scratch);
    }
    let after = held.stats(i64::MIN, i64::MAX);
    assert_eq!((after.count, after.sum), (before.count, before.sum));
    let held_bytes = bytes(&col);
    assert!(
        held_bytes > settled,
        "a held snapshot did not retain its segments ({held_bytes} vs {settled})"
    );
    // … and falls back the moment the reader lets go: no collection pass
    // exists to wait for.
    drop(held);
    let freed = bytes(&col);
    assert!(
        freed <= 2 * column_bytes,
        "replaced segments not freed with their last reader: {freed} B"
    );
    assert!(freed < held_bytes);
}
