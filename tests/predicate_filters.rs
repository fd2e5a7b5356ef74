//! Point-predicate integration: equality / IN-list / conjunction answers
//! checked against sorted-column oracles across shard boundaries while
//! Ripple updaters race the engine, the membership filter's
//! false-positive bound, and pathological-bounds robustness (degenerate
//! and inverted ranges are empty on every path, crack nothing, and never
//! panic — across shard counts 1, 2, 4 and 7).

use holix::cracking::{CrackScratch, ShardPlan, ShardedColumn};
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::storage::select::{scan_stats, Predicate};
use holix::workloads::QuerySpec;
use proptest::prelude::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Even-valued base column: every odd key is provably absent, so filter
/// screening is decidable from the outside.
fn even_base(n: usize, half_domain: i64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.random_range(0..half_domain) * 2)
        .collect()
}

/// Binary-search point-count oracle over a pre-sorted column.
fn point_oracle(sorted: &[i64], v: i64) -> u64 {
    (sorted.partition_point(|&x| x < v + 1) - sorted.partition_point(|&x| x < v)) as u64
}

/// Live inserts each updater keeps outstanding; counts on the churned
/// attribute stay within this band of the static oracle (deletes only
/// ever target an updater's own inserts).
const CHURN_WINDOW: usize = 128;

#[test]
fn equality_and_in_probes_match_oracle_across_shards_racing_ripple_updaters() {
    let n = 60_000;
    let half_domain = 1 << 15;
    let domain = half_domain * 2;
    let cols = vec![even_base(n, half_domain, 11), even_base(n, half_domain, 12)];
    let sorted: Vec<Vec<i64>> = cols
        .iter()
        .map(|c| {
            let mut s = c.clone();
            s.sort_unstable();
            s
        })
        .collect();
    let data = Dataset::new(cols);
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let eng = HolisticEngine::new(data, cfg);

    // Two Ripple updaters churn *odd* keys on attribute 0 — each insert
    // flips its key's filter membership mid-run (the filter is OR-updated
    // at queue time), each delete targets the updater's own insert, and a
    // periodic narrow select Ripple-merges the backlog into the shards.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let eng = &eng;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + t as u64);
                let mut live: std::collections::VecDeque<(i64, u32)> =
                    std::collections::VecDeque::new();
                let mut ops = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let v = rng.random_range(0..half_domain) * 2 + 1;
                    let row = 3_000_000 + t * 1_000_000 + ops;
                    eng.queue_insert(0, v, row);
                    live.push_back((v, row));
                    if live.len() > CHURN_WINDOW {
                        let (dv, dr) = live.pop_front().unwrap();
                        eng.queue_delete(0, dv, dr);
                    }
                    if ops.is_multiple_of(16) {
                        eng.execute(&QuerySpec {
                            attr: 0,
                            lo: (v - 500).max(0),
                            hi: (v + 500).min(domain),
                        });
                    }
                    ops += 1;
                    std::thread::yield_now();
                }
                // Quiesce: withdraw every live insert so the net effect
                // on attribute 0 is zero.
                for (dv, dr) in live {
                    eng.queue_delete(0, dv, dr);
                }
            });
        }

        // Racing readers: equality probes on both attributes and IN-lists
        // on the un-churned attribute, every answer oracle-checked (the
        // churned attribute gets the bounded net-insert band).
        let slack = 2 * (CHURN_WINDOW as u64 + 1);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..400 {
            let v = rng.random_range(0..domain);
            let got = eng
                .execute_points(0, &[v])
                .expect("engine supports point probes");
            let base = point_oracle(&sorted[0], v);
            assert!(
                got >= base && got <= base + slack,
                "churned eq answer {got} outside [{base}, {}] for {v}",
                base + slack
            );
            let w = rng.random_range(0..domain);
            assert_eq!(
                eng.execute_points(1, &[w]).unwrap(),
                point_oracle(&sorted[1], w),
                "eq diverged on un-churned attr for {w}"
            );
            if i % 4 == 0 {
                // IN-list with duplicates: counts once per distinct value.
                let mut vals: Vec<i64> = (0..6).map(|_| rng.random_range(0..domain)).collect();
                vals.push(vals[0]);
                let mut distinct = vals.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let want: u64 = distinct.iter().map(|&x| point_oracle(&sorted[1], x)).sum();
                assert_eq!(
                    eng.execute_points(1, &vals).unwrap(),
                    want,
                    "IN-list diverged on {vals:?}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // After quiesce the updaters' net effect is zero: equality answers on
    // the churned attribute are exact again — including on odd keys whose
    // filter bits were raised and whose tuples are all deleted (a stale
    // maybe-present bit must fall through to an exact empty answer, never
    // a wrong one).
    let mut rng = StdRng::seed_from_u64(78);
    for _ in 0..200 {
        let v = rng.random_range(0..domain);
        assert_eq!(
            eng.execute_points(0, &[v]).unwrap(),
            point_oracle(&sorted[0], v),
            "post-quiesce eq diverged for {v}"
        );
    }
    eng.stop();
}

#[test]
fn conjunctions_stay_exact_against_base_table_oracle_even_mid_race() {
    let n = 40_000;
    let domain = 1 << 14;
    let mut rng = StdRng::seed_from_u64(21);
    let cols: Vec<Vec<i64>> = (0..3)
        .map(|_| (0..n).map(|_| rng.random_range(0..domain)).collect())
        .collect();
    let data = Dataset::new(cols.clone());
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let eng = HolisticEngine::new(data, cfg);

    // Conjunctions count *base-table* rows, and the updaters' inserts and
    // deletes only ever touch their own appended rows — so conjunction
    // answers must be exact even while the race is live.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let eng = &eng;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(700 + t as u64);
                let mut live: std::collections::VecDeque<(i64, u32)> =
                    std::collections::VecDeque::new();
                let mut ops = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let v = rng.random_range(0..domain);
                    let row = 3_000_000 + t * 1_000_000 + ops;
                    eng.queue_insert(0, v, row);
                    live.push_back((v, row));
                    if live.len() > CHURN_WINDOW {
                        let (dv, dr) = live.pop_front().unwrap();
                        eng.queue_delete(0, dv, dr);
                    }
                    if ops.is_multiple_of(16) {
                        eng.execute(&QuerySpec {
                            attr: 0,
                            lo: (v - 500).max(0),
                            hi: (v + 500).min(domain),
                        });
                    }
                    ops += 1;
                    std::thread::yield_now();
                }
            });
        }

        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..25 {
            // First term narrow (a cheap driver), the rest random — terms
            // routinely span shard cuts of the equi-depth plan.
            let lo0 = rng.random_range(0..domain - domain / 8);
            let mut terms = vec![QuerySpec {
                attr: 0,
                lo: lo0,
                hi: lo0 + domain / 8,
            }];
            for attr in 1..3 {
                let a = rng.random_range(0..domain);
                let b = rng.random_range(0..domain);
                terms.push(QuerySpec {
                    attr,
                    lo: a.min(b),
                    hi: a.max(b).max(a.min(b) + 1),
                });
            }
            let got = eng
                .execute_conjunction(&terms)
                .expect("conjunction within driver cap");
            let want = (0..n)
                .filter(|&r| {
                    terms
                        .iter()
                        .all(|t| (t.lo..t.hi).contains(&cols[t.attr][r]))
                })
                .count() as u64;
            assert_eq!(got, want, "conjunction diverged on {terms:?}");
        }
        stop.store(true, Ordering::Relaxed);
    });
    eng.stop();
}

#[test]
fn point_filter_false_positive_rate_is_bounded_at_the_column_layer() {
    let n = 50_000;
    let half_domain = 1 << 17;
    let base = even_base(n, half_domain, 31);
    let plan = ShardPlan::from_values(&base, 4);
    let col = ShardedColumn::from_base_with_plan("fpr", &base, plan);
    for k in 0..col.shard_count() {
        col.shard(k).ensure_point_filter();
    }
    let probe = |v: i64| col.shard(col.plan().shard_of(v)).probe_point(v);
    let pieces = col.piece_count();
    let mut rng = StdRng::seed_from_u64(32);
    let trials = 20_000;
    let mut fp = 0u64;
    for _ in 0..trials {
        let v = rng.random_range(0..half_domain) * 2 + 1; // odd → absent
        match probe(v) {
            Some(false) => {}
            Some(true) => fp += 1,
            None => panic!("filter missing on a built shard"),
        }
    }
    // 10 bits/key with 6 hashes sizes the Bloom filter well under 2%;
    // allow 3% for hash-mixing variance across seeds.
    assert!(
        (fp as f64) / (trials as f64) < 0.03,
        "false-positive rate too high: {fp}/{trials}"
    );
    assert_eq!(col.piece_count(), pieces, "screening probes cracked");
    // Soundness: present keys never probe negative.
    for &v in base.iter().step_by(97) {
        assert_eq!(probe(v), Some(true), "false negative on {v}");
    }
}

#[test]
fn degenerate_ranges_on_the_engine_are_empty_and_never_panic() {
    let data = Dataset::new(vec![even_base(20_000, 1 << 14, 41)]);
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let eng = HolisticEngine::new(data, cfg);
    for (lo, hi) in [
        (5_000, 5_000),
        (9_000, 3_000),
        (i64::MAX - 1, i64::MIN + 1),
        (0, i64::MIN),
        (-7, -7),
    ] {
        assert_eq!(
            eng.execute(&QuerySpec { attr: 0, lo, hi }),
            0,
            "({lo},{hi})"
        );
    }
    assert_eq!(eng.execute_points(0, &[]), Some(0));
    assert_eq!(eng.execute_conjunction(&[]), Some(0));
    eng.stop();
}

proptest! {
    #[test]
    fn prop_pathological_bounds_match_scan_oracle_across_shard_counts(
        base in proptest::collection::vec(-500i64..500, 32..200),
        ai in 0usize..12,
        bi in 0usize..12,
    ) {
        // Extreme, degenerate, inverted and sentinel bounds — every shard
        // count must agree with the storage scan and crack nothing for
        // empty (lo >= hi) predicates.
        let pool: [i64; 12] = [
            i64::MIN, i64::MIN + 1, -501, -1, 0, 1, 250, 499, 500,
            i64::MAX - 1, i64::MAX, 42,
        ];
        let (lo, hi) = (pool[ai], pool[bi]);
        let pred = Predicate::range(lo, hi);
        let want = scan_stats(&base, pred);
        for s in [1usize, 2, 4, 7] {
            let plan = ShardPlan::from_values(&base, s);
            let col = ShardedColumn::from_base_with_plan("pathological", &base, plan);
            let pieces = col.piece_count();
            let mut scratch = CrackScratch::new();
            let (_, stats) = col.select_verified(pred, &mut scratch);
            prop_assert_eq!(stats.count, want.count, "count diverged at S={}", s);
            prop_assert_eq!(stats.sum, want.sum, "sum diverged at S={}", s);
            if lo >= hi {
                prop_assert_eq!(stats.count, 0u64);
                prop_assert_eq!(
                    col.piece_count(), pieces,
                    "an empty predicate cracked at S={}", s
                );
            }
        }
    }
}
