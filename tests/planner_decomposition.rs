//! Spanning-query decomposition correctness: any `[lo, hi)` over
//! S ∈ {1, 2, 4, 7} shards, decomposed at the shard plan's cuts and
//! merged, must equal the whole-query result and the sorted oracle —
//! including exact-cut bounds and single-shard-interior ranges — and the
//! service-layer merge-ticket path must stay exact while two Ripple
//! updater threads race the per-shard parts.

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::server::{DecomposePolicy, QueryService, Scheduling, ServiceConfig};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const ROWS: usize = 12_000;
const DOMAIN: i64 = 100_000;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One engine per shard count, shared across proptest cases (engine
/// construction dominates otherwise). Sorted column as the oracle.
struct Fixture {
    sorted: Vec<i64>,
    engines: Vec<(usize, HolisticEngine)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = Dataset::new(uniform_table(1, ROWS, DOMAIN, 31));
        let mut sorted = data.column(0).to_vec();
        sorted.sort_unstable();
        let engines = SHARD_COUNTS
            .iter()
            .map(|&s| {
                let mut cfg = HolisticEngineConfig::split_half_sharded(2, s);
                cfg.holistic.monitor_interval = Duration::from_millis(250);
                (s, HolisticEngine::new(data.clone(), cfg))
            })
            .collect();
        Fixture { sorted, engines }
    })
}

fn oracle(sorted: &[i64], lo: i64, hi: i64) -> u64 {
    (sorted.partition_point(|&v| v < hi) - sorted.partition_point(|&v| v < lo)) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn decomposed_plus_merged_equals_whole_and_oracle(
        a in -1_000i64..101_000,
        b in -1_000i64..101_000,
        cut_lo in any::<bool>(),
        cut_hi in any::<bool>(),
        cut_pick in 0usize..16,
    ) {
        let fx = fixture();
        for (s, engine) in &fx.engines {
            let col = engine.sharded(0);
            let cuts = col.plan().cuts();
            // Optionally snap a bound to an exact shard cut — the
            // boundary case where a part's range starts/ends exactly on
            // the plan's partition point.
            let mut lo = a.min(b);
            let mut hi = a.max(b).max(lo + 1);
            if !cuts.is_empty() {
                if cut_lo {
                    lo = cuts[cut_pick % cuts.len()];
                }
                if cut_hi {
                    hi = cuts[cut_pick / 2 % cuts.len()];
                }
            }
            if lo >= hi {
                std::mem::swap(&mut lo, &mut hi);
                hi += 1;
            }
            let q = QuerySpec { attr: 0, lo, hi };
            let expect = oracle(&fx.sorted, lo, hi);
            let whole = engine.execute(&q);
            prop_assert_eq!(whole, expect, "whole query diverged (S={})", s);
            match engine.decompose(&q) {
                Some(parts) => {
                    prop_assert!(parts.len() >= 2, "S={}: trivial decomposition", s);
                    // Parts partition [lo, hi) exactly …
                    prop_assert_eq!(parts[0].lo, lo);
                    prop_assert_eq!(parts.last().unwrap().hi, hi);
                    for w in parts.windows(2) {
                        prop_assert_eq!(w[0].hi, w[1].lo);
                    }
                    // … each confined to one shard (distinct routing keys) …
                    for part in &parts {
                        let (first, last) = col
                            .plan()
                            .shard_range(part.lo, part.hi)
                            .expect("non-empty part");
                        prop_assert_eq!(first, last, "part {:?} spans shards", part);
                    }
                    // … and the merged counts equal whole and oracle.
                    let merged: u64 = parts.iter().map(|p| engine.execute(p)).sum();
                    prop_assert_eq!(merged, expect, "S={}: decomposed sum diverged", s);
                }
                None => {
                    // Single-shard-interior (or unsharded): the range must
                    // genuinely lie within one shard.
                    let (first, last) = col.plan().shard_range(lo, hi).expect("non-empty");
                    prop_assert_eq!(first, last, "S={}: spanning range not decomposed", s);
                }
            }
        }
    }
}

#[test]
fn decomposed_service_answers_race_two_ripple_updaters() {
    // Two updater threads churn value 7 (insert → merge → delete) while
    // clients push shard-spanning queries through the affinity service
    // with decomposition on. Each updater keeps at most one insert
    // outstanding, so every full-domain answer must be base..=base+2; a
    // lost or double-counted part breaks the band. Narrow control ranges
    // away from the churned value stay oracle-exact throughout.
    let data = Dataset::new(uniform_table(1, 30_000, 100_000, 33));
    let mut sorted = data.column(0).to_vec();
    sorted.sort_unstable();
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = Arc::new(HolisticEngine::new(data, cfg));
    let service = QueryService::start(
        Arc::clone(&engine) as Arc<dyn QueryEngine>,
        None,
        ServiceConfig {
            workers: 4,
            scheduling: Scheduling::CrackAware,
            affinity: true,
            decompose: DecomposePolicy::Always,
            ..ServiceConfig::default()
        },
    );
    let wide = QuerySpec {
        attr: 0,
        lo: 0,
        hi: 100_000,
    };
    let narrow = QuerySpec {
        attr: 0,
        lo: 40_000,
        hi: 42_000,
    };
    let base_wide = oracle(&sorted, wide.lo, wide.hi);
    let base_narrow = oracle(&sorted, narrow.lo, narrow.hi);
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    // A client that panics must not leave anyone waiting for its answers:
    // its guard tells the main loop to give up and the updaters to stop.
    struct PanicGuard<'a> {
        failed: &'a AtomicBool,
        stop: &'a AtomicBool,
    }
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.failed.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
            }
        }
    }
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let engine = &engine;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let row = 1_000_000 + t * 100_000 + i;
                    engine.queue_insert(0, 7, row);
                    engine.execute(&QuerySpec {
                        attr: 0,
                        lo: 0,
                        hi: 20,
                    }); // Ripple merge of the insert
                    engine.queue_delete(0, 7, row);
                    i += 1;
                }
            });
        }
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let service = &service;
                let (failed, stop) = (&failed, &stop);
                s.spawn(move || {
                    let _guard = PanicGuard { failed, stop };
                    let session = service.session();
                    for _ in 0..150 {
                        if failed.load(Ordering::Relaxed) {
                            return;
                        }
                        let got = session.execute(wide).unwrap().count;
                        assert!(
                            (base_wide..=base_wide + 2).contains(&got),
                            "decomposed spanning count {got} outside churn band \
                             [{base_wide}, {}]",
                            base_wide + 2
                        );
                        let got = session.execute(narrow).unwrap().count;
                        assert_eq!(got, base_narrow, "control range diverged");
                    }
                })
            })
            .collect();
        // Let the clients finish (or one of them fail), then stop the
        // churn. No wait without a deadline: a wedged service fails the
        // test in a minute instead of hanging the suite.
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.stats().completed < 2 * 300
            && !failed.load(Ordering::Relaxed)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let completed = service.stats().completed;
        failed.store(true, Ordering::Relaxed); // a client still running leaves
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            // Re-raise a client's own panic (with its message) rather than
            // the scope's generic "a scoped thread panicked".
            if let Err(panic) = client.join() {
                std::panic::resume_unwind(panic);
            }
        }
        assert!(
            completed >= 2 * 300,
            "only {completed} of 600 answers in 60 s"
        );
    });
    // Quiesce: drain every remaining pending op through a locked merge,
    // then all three paths must agree exactly.
    let locked = engine.execute(&wide);
    let merged: u64 = engine
        .decompose(&wide)
        .expect("wide range spans shards")
        .iter()
        .map(|p| engine.execute(p))
        .sum();
    assert_eq!(locked, merged);
    assert_eq!(locked, base_wide, "net-zero churn must restore the base");
    let summary = service.shutdown();
    assert!(
        summary.decomposed > 0,
        "spanning queries were not decomposed"
    );
    engine.stop();
}
