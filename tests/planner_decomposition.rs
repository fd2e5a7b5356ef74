//! Spanning-query decomposition correctness: any `[lo, hi)` over
//! S ∈ {1, 2, 4, 7} shards, decomposed at the shard plan's cuts and
//! merged, must equal the whole-query result and the sorted oracle —
//! including exact-cut bounds and single-shard-interior ranges — and the
//! service-layer merge-ticket path must stay exact while two Ripple
//! updater threads race the per-shard parts. Exact hits the service
//! answers on the submitting thread race Ripple updaters inside their own
//! ranges the same way, and plan-time prices race cracks, drains, first
//! prefix sums and forced replans.

use holix::cracking::ReplanAction;
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::server::{DecomposePolicy, QueryService, Scheduling, ServiceConfig};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use proptest::prelude::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A client that panics must not leave anyone waiting for its answers:
/// its guard tells the main loop to give up and the updaters to stop.
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

#[test]
fn decomposed_service_answers_race_two_ripple_updaters() {
    // Two updater threads churn value 7 (insert → merge → delete) while
    // clients push shard-spanning queries through the affinity service
    // with cost-based decomposition. Each wide query gets a fresh upper
    // bound: a bound no query has cracked cannot be an exact hit, and
    // with ≥ 18k of 30k rows estimated the query prices Expensive, so it
    // is split. Each updater keeps at most one insert outstanding, so
    // every wide answer must be base..=base+2; a lost or double-counted
    // part breaks the band. Narrow control ranges away from the churned
    // value stay oracle-exact throughout.
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
            decompose: DecomposePolicy::CostBased,
            ..ServiceConfig::default()
        },
    );
    const CLIENTS: i64 = 2;
    const ROUNDS: i64 = 150;
    // Client `c`'s `i`-th wide query: distinct across clients and rounds.
    let wide = |c: i64, i: i64| QuerySpec {
        attr: 0,
        lo: 0,
        hi: DOMAIN - (i * CLIENTS + c) - 1,
    };
    let narrow = QuerySpec {
        attr: 0,
        lo: 40_000,
        hi: 42_000,
    };
    let base_narrow = oracle(&sorted, narrow.lo, narrow.hi);
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
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
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, sorted, wide) = (&service, &sorted, &wide);
                let (failed, stop) = (&failed, &stop);
                s.spawn(move || {
                    let _guard = PanicGuard { failed, stop };
                    let session = service.session();
                    for i in 0..ROUNDS {
                        if failed.load(Ordering::Relaxed) {
                            return;
                        }
                        let q = wide(c, i);
                        let base_wide = oracle(sorted, q.lo, q.hi);
                        let got = session.execute(q).unwrap().count;
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
        while service.stats().completed < (CLIENTS * ROUNDS * 2) as u64
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
            completed >= (CLIENTS * ROUNDS * 2) as u64,
            "only {completed} of {} answers in 60 s",
            CLIENTS * ROUNDS * 2
        );
    });
    // Quiesce: drain every remaining pending op through a locked merge,
    // then all three paths must agree exactly.
    let wide = QuerySpec {
        attr: 0,
        lo: 0,
        hi: DOMAIN,
    };
    let locked = engine.execute(&wide);
    let merged: u64 = engine
        .decompose(&wide)
        .expect("wide range spans shards")
        .iter()
        .map(|p| engine.execute(p))
        .sum();
    assert_eq!(locked, merged);
    assert_eq!(
        locked,
        oracle(&sorted, wide.lo, wide.hi),
        "net-zero churn must restore the base"
    );
    let summary = service.shutdown();
    assert!(
        summary.decomposed >= (CLIENTS * ROUNDS / 2) as u64,
        "only {} of {} wide queries were decomposed",
        summary.decomposed,
        CLIENTS * ROUNDS
    );
    engine.stop();
}

#[test]
fn inline_exact_hits_race_two_ripple_updaters_in_range() {
    // Three overlapping ranges on shard 0 are warmed, so their bounds are
    // boundaries and a session answers them on its own thread, counting
    // what is pending in range from the queue. Two updaters each churn one
    // value inside the ranges (queue an insert, read, queue its delete,
    // read, pausing after each step). Two clients alternate warmed ranges
    // with ranges whose upper bound no query has cracked yet, which queue
    // and crack on a dispatcher. A merger Ripple-merges shard 0's queue
    // whenever it holds something, so inline folds race merges that move
    // the pending ops into the column. Each updater adds at most one row at
    // a time, so every answer lies in base..=base+2; an updater's own read
    // sees its own write, which an inline answer that ignored the pending
    // queue would miss; and once the churn stops every answer is the base
    // again.
    let data = Dataset::new(uniform_table(1, 30_000, 100_000, 35));
    let mut sorted = data.column(0).to_vec();
    sorted.sort_unstable();
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = Arc::new(HolisticEngine::new(data, cfg));
    let warmed = [(1_000, 3_000), (2_000, 6_000), (500, 9_000)].map(|(lo, hi)| QuerySpec {
        attr: 0,
        lo,
        hi,
    });
    for q in &warmed {
        assert_eq!(engine.execute(q), oracle(&sorted, q.lo, q.hi));
    }
    let col = engine.sharded(0);
    assert!(
        warmed
            .iter()
            .all(|q| col.plan().shard_range(q.lo, q.hi) == Some((0, 0))),
        "the warmed ranges are not all on shard 0"
    );
    // Each path must have answered this many racing submissions.
    const EACH_PATH: u64 = 200;
    let service = QueryService::start(
        Arc::clone(&engine) as Arc<dyn QueryEngine>,
        None,
        ServiceConfig {
            workers: 2,
            scheduling: Scheduling::CrackAware,
            ..ServiceConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    // Merges of a non-empty queue the merger ran.
    const MERGES: u64 = 50;
    let merges = AtomicU64::new(0);
    std::thread::scope(|s| {
        {
            let (engine, merges) = (&engine, &merges);
            let (failed, stop) = (&failed, &stop);
            s.spawn(move || {
                let _guard = PanicGuard { failed, stop };
                while !stop.load(Ordering::Relaxed) {
                    let shard = Arc::clone(engine.sharded(0).shard(0));
                    if shard.pending_len() > 0 {
                        shard.merge_pending();
                        merges.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            });
        }
        // Updater 0's value lies in all three ranges, updater 1's in the
        // widest only; each reads the range it churns.
        for (t, churned, read) in [(0u32, 2_500, warmed[0]), (1, 8_000, warmed[2])] {
            let (engine, service, sorted) = (&engine, &service, &sorted);
            let (failed, stop) = (&failed, &stop);
            s.spawn(move || {
                let _guard = PanicGuard { failed, stop };
                let session = service.session();
                let base = oracle(sorted, read.lo, read.hi);
                let pause = || std::thread::sleep(Duration::from_micros(50));
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let row = 1_000_000 + t * 100_000 + i;
                    engine.queue_insert(0, churned, row);
                    pause();
                    let got = session.execute(read).unwrap().count;
                    assert!(
                        (base + 1..=base + 2).contains(&got),
                        "{read:?}: count {got} misses the reader's own insert (base {base})"
                    );
                    pause();
                    engine.queue_delete(0, churned, row);
                    pause();
                    let got = session.execute(read).unwrap().count;
                    assert!(
                        (base..=base + 1).contains(&got),
                        "{read:?}: count {got} misses the reader's own delete (base {base})"
                    );
                    pause();
                    i += 1;
                }
            });
        }
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (service, sorted, warmed) = (&service, &sorted, &warmed);
                let (failed, stop) = (&failed, &stop);
                s.spawn(move || {
                    let _guard = PanicGuard { failed, stop };
                    let session = service.session();
                    for i in c.. {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        // A fresh upper bound per submission, distinct
                        // across the two clients: never an exact hit.
                        let q = if i % 2 == 1 {
                            QuerySpec {
                                hi: 9_001 + 2 * i as i64 + c as i64,
                                ..warmed[2]
                            }
                        } else {
                            warmed[(i / 2) % warmed.len()]
                        };
                        let base = oracle(sorted, q.lo, q.hi);
                        let got = session.execute(q).unwrap().count;
                        assert!(
                            (base..=base + 2).contains(&got),
                            "{q:?}: count {got} outside churn band [{base}, {}]",
                            base + 2
                        );
                    }
                })
            })
            .collect();
        // Race until both paths answered enough submissions and the
        // merger merged enough queues (or a client failed). A wedged
        // service fails the test in a minute instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(60);
        let both_paths = |s: &holix::server::StatsSummary| {
            s.screened_inline >= EACH_PATH && s.completed - s.screened_inline >= EACH_PATH
        };
        let raced_enough =
            || both_paths(&service.stats()) && merges.load(Ordering::Relaxed) >= MERGES;
        while !raced_enough() && !failed.load(Ordering::Relaxed) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            if let Err(panic) = client.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let raced = service.stats();
        assert!(
            both_paths(&raced),
            "in 60 s: {} answered inline, {} queued, of {EACH_PATH} each",
            raced.screened_inline,
            raced.completed - raced.screened_inline
        );
        let merged = merges.load(Ordering::Relaxed);
        assert!(merged >= MERGES, "in 60 s: {merged} merges of {MERGES}");
    });
    // Quiesce: every updater ended on a delete, which may still be
    // pending. Each warmed range is answered at submit, exactly.
    let session = service.session();
    for q in &warmed {
        let ticket = session.submit(*q).unwrap();
        let answer = ticket.try_result().expect("a quiet exact hit queued");
        assert_eq!(answer.count, oracle(&sorted, q.lo, q.hi), "{q:?}");
    }
    service.shutdown();
    engine.stop();
}

#[test]
fn estimates_race_cracks_drains_first_sums_and_a_replan() {
    // Two pricers call `estimate_cost` on random ranges while a cracker
    // selects, an updater queues bursts past a shard's merge backlog (so
    // reads merge, and idle workers drain what reads leave), a snapshot
    // reader takes each shard's first prefix sum and the main thread
    // forces a split and then a merge of the shard plan. A price reads the
    // live index — each shard's index read lock, then its pending mutex —
    // so every one comes back promptly, and none claims more values than
    // the attribute can hold: its crack work and its row estimate stay
    // within the base rows plus every insert queued so far.
    let rows = 30_000;
    let data = Dataset::new(uniform_table(1, rows, DOMAIN, 37));
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = HolisticEngine::new(data, cfg);
    let all = QuerySpec {
        attr: 0,
        lo: 0,
        hi: DOMAIN,
    };
    assert_eq!(engine.execute(&all), rows as u64);
    let range = |rng: &mut StdRng, width: i64| {
        let lo = rng.random_range(0..DOMAIN - width);
        QuerySpec {
            attr: 0,
            lo,
            hi: lo + rng.random_range(1..=width),
        }
    };
    // Inserts queued so far: counted before each is queued, so a price
    // that sees an insert reads a bound that includes it.
    let inserted = AtomicU64::new(0);
    let (priced, bursts) = (AtomicU64::new(0), AtomicU64::new(0));
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let (engine, inserted, priced) = (&engine, &inserted, &priced);
            let (failed, stop) = (&failed, &stop);
            s.spawn(move || {
                let _guard = PanicGuard { failed, stop };
                let mut rng = StdRng::seed_from_u64(p);
                while !stop.load(Ordering::Relaxed) {
                    let q = range(&mut rng, DOMAIN / 2);
                    let t0 = Instant::now();
                    let cost = engine.estimate_cost(&q).expect("the engine prices");
                    let took = t0.elapsed();
                    assert!(took < Duration::from_secs(5), "{q:?} priced in {took:?}");
                    let bound = rows as u64 + inserted.load(Ordering::SeqCst);
                    assert!(
                        cost.crack_values <= bound && cost.est_rows <= bound,
                        "{q:?} priced {cost:?}, over {bound} tuples"
                    );
                    priced.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        {
            let (engine, inserted, bursts) = (&engine, &inserted, &bursts);
            let (failed, stop) = (&failed, &stop);
            s.spawn(move || {
                let _guard = PanicGuard { failed, stop };
                let mut rng = StdRng::seed_from_u64(10);
                let mut row = 1_000_000u32;
                while !stop.load(Ordering::Relaxed) {
                    // One burst past the backlog into a narrow band (one
                    // shard), read so the select merges it, then deleted
                    // again and left for whoever drains next.
                    let band = range(&mut rng, 500);
                    let burst: Vec<(i64, u32)> = (0..300)
                        .map(|_| {
                            row += 1;
                            (rng.random_range(band.lo..band.hi), row)
                        })
                        .collect();
                    for &(v, r) in &burst {
                        inserted.fetch_add(1, Ordering::SeqCst);
                        engine.queue_insert(0, v, r);
                    }
                    engine.execute(&band);
                    for &(v, r) in &burst {
                        engine.queue_delete(0, v, r);
                    }
                    bursts.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        {
            let engine = &engine;
            let (failed, stop) = (&failed, &stop);
            s.spawn(move || {
                let _guard = PanicGuard { failed, stop };
                let mut rng = StdRng::seed_from_u64(11);
                while !stop.load(Ordering::Relaxed) {
                    engine.execute(&range(&mut rng, 2_000));
                    engine.execute_snapshot(&range(&mut rng, DOMAIN / 3));
                }
            });
        }
        // Force the two replans while the others run, then let them run
        // against the successor plans too: each phase lasts 1000 prices
        // and 4 bursts.
        let _guard = PanicGuard {
            failed: &failed,
            stop: &stop,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let phase = |n: u64| {
            let (p0, b0) = (
                priced.load(Ordering::Relaxed),
                bursts.load(Ordering::Relaxed),
            );
            let done = || {
                priced.load(Ordering::Relaxed) >= p0 + 1_000
                    && bursts.load(Ordering::Relaxed) >= b0 + 4
            };
            while !done() && !failed.load(Ordering::Relaxed) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                done() || failed.load(Ordering::Relaxed),
                "phase {n} did not finish in 60 s"
            );
        };
        phase(0);
        let split = engine.force_replan(0, ReplanAction::Split { shard: 1 });
        phase(1);
        let merge = engine.force_replan(0, ReplanAction::Merge { left: 1 });
        phase(2);
        stop.store(true, Ordering::Relaxed);
        assert!(split && merge, "a forced replan aborted");
    });
    assert!(!failed.load(Ordering::Relaxed));
    assert_eq!(engine.plan_version(0), 2);
    engine.stop();
}
