//! Replan races: forced shard-plan splits and merges while concurrent
//! readers and Ripple updaters hammer the same attribute.
//!
//! Live answers are band-checked (base oracle ± total in-flight churn); at
//! quiesce every window is checked *exactly* against the sorted-scan
//! oracle; and a reader holding the old plan's column must stay exact
//! after the new plan publishes (the migration republishes the retiring
//! shards' snapshots before the cutover).

use holix::cracking::{CrackScratch, ReplanAction};
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::storage::select::{scan_stats, Predicate};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DOMAIN: i64 = 1 << 20;

fn windows(n: i64) -> Vec<QuerySpec> {
    (0..n)
        .map(|i| QuerySpec {
            attr: 0,
            lo: i * (DOMAIN / n),
            hi: (i + 1) * (DOMAIN / n),
        })
        .collect()
}

#[test]
fn forced_splits_and_merges_race_queries_and_ripple_updaters() {
    const ROWS: usize = 60_000;
    const CHURN: usize = 4_000; // per updater
    let data = Dataset::new(uniform_table(1, ROWS, DOMAIN, 73));
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));

    let qs = windows(8);
    let base: Vec<u64> = qs
        .iter()
        .map(|q| scan_stats(data.column(0), Predicate::range(q.lo, q.hi)).count)
        .collect();

    let done = AtomicBool::new(false);
    let replans = AtomicU64::new(0);
    crossbeam::thread::scope(|s| {
        // Two query threads: every live answer must sit inside the churn
        // band around the base oracle (each updater moves a window's count
        // by at most CHURN).
        for t in 0..2usize {
            let eng = &eng;
            let (qs, base, done) = (&qs, &base, &done);
            s.spawn(move |_| {
                let mut i = t;
                while !done.load(Ordering::Relaxed) {
                    let q = &qs[i % qs.len()];
                    let count = eng.execute(q);
                    let b = base[i % qs.len()];
                    assert!(
                        count >= b.saturating_sub(CHURN as u64) && count <= b + CHURN as u64,
                        "live count {count} outside the churn band of {b}"
                    );
                    i += 1;
                }
            });
        }
        // Replanner: force splits until the plan is wide, then merges —
        // every application races the readers and updaters above.
        let replan = s.spawn(|_| {
            for round in 0..12u64 {
                let shards = eng.sharded(0).shard_count();
                let action = if shards < 6 {
                    ReplanAction::Split {
                        shard: (round as usize) % shards,
                    }
                } else {
                    ReplanAction::Merge { left: 0 }
                };
                if eng.force_replan(0, action) {
                    replans.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        // Updater 0: inserts fresh values spread over the whole domain
        // (row ids beyond the base table).
        let ins = s.spawn(|_| {
            for i in 0..CHURN {
                let v = (i as i64).wrapping_mul(257) % DOMAIN;
                eng.queue_insert(0, v, (ROWS + i) as u32);
            }
        });
        // Updater 1: deletes the first CHURN base tuples by (value, row).
        let del = s.spawn(|_| {
            for (row, &v) in data.column(0).iter().enumerate().take(CHURN) {
                eng.queue_delete(0, v, row as u32);
            }
        });
        ins.join().unwrap();
        del.join().unwrap();
        replan.join().unwrap();
        done.store(true, Ordering::Relaxed);
    })
    .unwrap();

    assert!(
        replans.load(Ordering::Relaxed) >= 1,
        "no forced replan ever applied"
    );
    assert!(eng.plan_version(0) >= 1);

    // Quiesce: every window must now be exact — base tuples, minus the
    // deleted ones, plus the inserted values that fall inside it.
    for (q, b) in qs.iter().zip(&base) {
        let deleted = data
            .column(0)
            .iter()
            .take(CHURN)
            .filter(|&&v| q.lo <= v && v < q.hi)
            .count() as u64;
        let inserted = (0..CHURN)
            .map(|i| (i as i64).wrapping_mul(257) % DOMAIN)
            .filter(|&v| q.lo <= v && v < q.hi)
            .count() as u64;
        assert_eq!(
            eng.execute(q),
            b - deleted + inserted,
            "quiesce mismatch for {q:?}"
        );
    }
    eng.stop();
}

#[test]
fn a_reader_pinned_to_the_old_plan_stays_exact_after_the_new_plan_publishes() {
    let data = Dataset::new(uniform_table(1, 40_000, DOMAIN, 91));
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let eng = HolisticEngine::new(data.clone(), cfg);
    let q = QuerySpec {
        attr: 0,
        lo: 100_000,
        hi: 900_000,
    };
    let expect = scan_stats(data.column(0), Predicate::range(q.lo, q.hi)).count;

    // Hold what an in-flight query would have loaded: the sharded column
    // it started against, which carries its plan and version.
    let old_col = eng.sharded(0);
    assert_eq!(old_col.version(), 0);

    assert!(
        eng.force_replan(0, ReplanAction::Split { shard: 1 }),
        "forced split did not apply"
    );
    assert!(eng.plan_version(0) >= 1, "no new plan version published");
    let new_col = eng.sharded(0);
    assert!(
        !Arc::ptr_eq(&old_col, &new_col),
        "the published column did not change"
    );
    assert_eq!(new_col.version(), eng.plan_version(0));

    // Routing and decomposition read that one published plan. (The key
    // stride is the build-time shard count; a plan split past it clamps.)
    let new_plan = new_col.plan();
    let stride = old_col.plan().shards() as u64;
    assert_eq!(new_plan.shards() as u64, stride + 1);
    for lo in (0..DOMAIN).step_by(1 << 12) {
        let probe = QuerySpec {
            attr: 0,
            lo,
            hi: lo + 1,
        };
        let home = new_plan.shard_of(lo) as u64;
        assert_eq!(eng.routing_key(&probe), home.min(stride - 1), "{lo}");
    }
    assert_eq!(
        eng.decompose(&q),
        holix::planner::decompose_spanning(new_plan, &q)
    );
    assert_ne!(
        eng.decompose(&q),
        holix::planner::decompose_spanning(old_col.plan(), &q),
        "the split moved no cut inside the range"
    );

    // The old column's reader finishes against the plan it started with
    // and is still exact: migration merged the retiring shards' pending
    // updates and republished their snapshots before the cutover.
    let mut scratch = CrackScratch::new();
    let (_, stats) = old_col.select_verified(Predicate::range(q.lo, q.hi), &mut scratch);
    assert_eq!(stats.count, expect, "old-plan reader went stale");

    // New-plan traffic agrees, and an update submitted after the cutover
    // routes through the new plan.
    assert_eq!(eng.execute(&q), expect);
    eng.queue_insert(0, 500_000, 40_000);
    assert_eq!(eng.execute(&q), expect + 1);
    eng.stop();
}
