//! Row ids on demand under a race. Shards are born without row ids and
//! build them when a conjunction driver or a migration first reads one;
//! a Ripple merge applies its batch to the values alone and logs it. Here
//! crackers and the tuning daemon work every shard of every attribute
//! while one thread runs conjunctions (ids for the driver shards) and
//! another deletes base rows (merged, and logged, without ids). Every
//! answer is checked against an oracle; the written shards must end
//! without ids and then build exactly their surviving base tuples; and
//! the registry must count exactly one build per shard that ended up with
//! ids, and one whole-attribute build (with both of its passes timed) per
//! attribute.
//!
//! One test only: `cracking_row_id_builds_total` and
//! `cracking_whole_builds_total` are process-wide.

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::storage::select::Predicate;
use holix::telemetry::registry;
use holix::workloads::QuerySpec;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 40_000;
const DOMAIN: i64 = 1 << 16;
const SHARDS: usize = 4;
/// Attributes 0..3 take conjunctions; the last one takes the deletes. (A
/// conjunction counts base-table rows through whichever term the engine
/// elects as driver, so a term on an attribute that is losing base rows
/// would make the answer depend on that choice.)
const ATTRS: usize = 4;
const DELETED: usize = ATTRS - 1;

struct Bed {
    cols: Vec<Vec<i64>>,
    sorted: Vec<Vec<i64>>,
    eng: HolisticEngine,
    /// Base rows of attribute `DELETED`, in the order the deleter queues
    /// them, and how many it has queued for sure.
    victims: Vec<u32>,
    queued: AtomicUsize,
    stop: AtomicBool,
}

impl Bed {
    fn count(&self, q: &QuerySpec) -> u64 {
        let col = &self.sorted[q.attr];
        (col.partition_point(|&v| v < q.hi) - col.partition_point(|&v| v < q.lo)) as u64
    }

    /// Checks one range count. Off the deleted attribute the oracle is the
    /// sorted column; on it the answer must be the count after *some*
    /// prefix of the deletes between those known queued before the query
    /// began and those possibly queued when it ended (the deleter bumps
    /// `queued` after the call returns, so one more may be visible).
    fn check_range(&self, q: &QuerySpec, run: impl FnOnce() -> u64) {
        let before = self.queued.load(Ordering::Acquire);
        let got = run();
        let after = (self.queued.load(Ordering::Acquire) + 1).min(self.victims.len());
        let base = self.count(q);
        if q.attr != DELETED {
            assert_eq!(got, base, "{q:?}");
            return;
        }
        let hit = |row: &u32| (q.lo..q.hi).contains(&self.cols[DELETED][*row as usize]);
        let mut gone = self.victims[..before].iter().filter(|r| hit(r)).count() as u64;
        let mut admissible = vec![base - gone];
        for row in &self.victims[before..after] {
            gone += hit(row) as u64;
            admissible.push(base - gone);
        }
        assert!(
            admissible.contains(&got),
            "{q:?}: {got} with {before}..={after} deletes queued, admissible {admissible:?}"
        );
    }

    fn random_range(&self, attr: usize, rng: &mut StdRng) -> QuerySpec {
        let (a, b) = (rng.random_range(0..DOMAIN), rng.random_range(0..DOMAIN));
        QuerySpec {
            attr,
            lo: a.min(b),
            hi: a.max(b) + 1,
        }
    }

    fn cracker(&self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..4_000 {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let q = self.random_range(i % ATTRS, &mut rng);
            match i % 5 {
                0 => self.check_range(&q, || self.eng.execute_snapshot(&q).unwrap().0),
                _ => self.check_range(&q, || self.eng.execute(&q)),
            }
        }
    }

    fn conjunctions(&self) {
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..400 {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            // One narrow term (a cheap driver, on a different attribute
            // and value range every time), the others random.
            let narrow = i % DELETED;
            let terms: Vec<QuerySpec> = (0..DELETED)
                .map(|attr| match attr == narrow {
                    true => {
                        let lo = rng.random_range(0..DOMAIN - DOMAIN / 16);
                        QuerySpec {
                            attr,
                            lo,
                            hi: lo + DOMAIN / 16,
                        }
                    }
                    false => self.random_range(attr, &mut rng),
                })
                .collect();
            let got = self.eng.execute_conjunction(&terms);
            let want = (0..ROWS)
                .filter(|&r| {
                    terms
                        .iter()
                        .all(|t| (t.lo..t.hi).contains(&self.cols[t.attr][r]))
                })
                .count() as u64;
            assert_eq!(got, Some(want), "{terms:?}");
        }
    }

    fn deleter(&self) {
        for (i, &row) in self.victims.iter().enumerate() {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let v = self.cols[DELETED][row as usize];
            self.eng.queue_delete(DELETED, v, row);
            self.queued.store(i + 1, Ordering::Release);
            // A narrow read now and then applies the backlog around the
            // victim while the others are still at work.
            if i % 16 == 0 {
                let q = QuerySpec {
                    attr: DELETED,
                    lo: (v - 200).max(0),
                    hi: v + 200,
                };
                self.check_range(&q, || self.eng.execute(&q));
            }
            std::thread::yield_now();
        }
    }
}

#[test]
fn row_ids_are_built_once_per_shard_under_crackers_conjunctions_and_deletes() {
    holix::telemetry::set_metrics_enabled(true);
    let builds = registry().counter("cracking_row_id_builds_total");
    let builds_before = builds.get();
    let whole = registry().counter("cracking_whole_builds_total");
    let passes =
        ["count", "scatter"].map(|p| registry().histogram(&format!("cracking_whole_build_{p}_ns")));
    let whole_before = (whole.get(), passes.each_ref().map(|h| h.lifetime_count()));

    let mut rng = StdRng::seed_from_u64(5);
    let cols: Vec<Vec<i64>> = (0..ATTRS)
        .map(|_| (0..ROWS).map(|_| rng.random_range(0..DOMAIN)).collect())
        .collect();
    let sorted = cols
        .iter()
        .map(|c| {
            let mut s = c.clone();
            s.sort_unstable();
            s
        })
        .collect();
    let mut victims: Vec<u32> = (0..ROWS as u32).collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.random_range(0..=i));
    }
    victims.truncate(4_000);
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, SHARDS);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let bed = Arc::new(Bed {
        eng: HolisticEngine::new(Dataset::new(cols.clone()), cfg),
        cols,
        sorted,
        victims,
        queued: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });

    // Detached threads and a polling main: a wedged lock fails the test
    // at the deadline instead of hanging a join. A thread that panics
    // tells its siblings to leave.
    struct StopOnPanic(Arc<Bed>);
    impl Drop for StopOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.stop.store(true, Ordering::Relaxed);
            }
        }
    }
    let spawn = |name: &str, work: fn(&Bed)| {
        let guard = StopOnPanic(Arc::clone(&bed));
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || work(&guard.0))
            .expect("spawn")
    };
    let threads = vec![
        spawn("cracker-a", |b| b.cracker(11)),
        spawn("cracker-b", |b| b.cracker(12)),
        spawn("conjunctions", Bed::conjunctions),
        spawn("deleter", Bed::deleter),
    ];
    let deadline = Instant::now() + Duration::from_secs(120);
    while let Some(running) = threads.iter().find(|t| !t.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "thread {:?} still running after 120 s",
            running.thread().name()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for t in threads {
        if let Err(panic) = t.join() {
            std::panic::resume_unwind(panic);
        }
    }
    assert_eq!(bed.queued.load(Ordering::Relaxed), bed.victims.len());
    bed.eng.stop();

    // Quiesced: every delete is queued, so a read of the deleted attribute
    // merges what is left and counts exactly the survivors.
    let all = QuerySpec {
        attr: DELETED,
        lo: 0,
        hi: DOMAIN,
    };
    assert_eq!(bed.eng.execute(&all), (ROWS - bed.victims.len()) as u64);
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..20 {
        let q = bed.random_range(DELETED, &mut rng);
        bed.check_range(&q, || bed.eng.execute(&q));
    }
    let mut with_ids = 0;
    for attr in 0..ATTRS {
        let col = bed.eng.sharded(attr);
        for k in 0..col.shard_count() {
            col.shard(k).check_invariants(None);
            with_ids += col.shard(k).has_row_ids() as u64;
            // Four thousand random victims: every shard merged deletes,
            // and no conjunction drove from one, so none built ids.
            assert!(attr != DELETED || !col.shard(k).has_row_ids());
        }
    }
    assert!(with_ids > 0, "no conjunction driver built ids");
    assert_eq!(
        builds.get() - builds_before,
        with_ids,
        "row-id builds vs shards that store ids"
    );
    // Asked now, each written shard builds exactly the pairs of its base
    // rows that survived the deletes.
    let col = bed.eng.sharded(DELETED);
    let mut gone = vec![false; ROWS];
    bed.victims.iter().for_each(|&r| gone[r as usize] = true);
    for k in 0..col.shard_count() {
        let shard = col.shard(k);
        let ids = shard
            .collect_row_ids(Predicate::range(i64::MIN, i64::MAX))
            .expect("sentinel bounds");
        let mut got: Vec<(i64, u32)> = shard
            .snapshot_range(0, shard.len())
            .into_iter()
            .zip(ids)
            .collect();
        got.sort_unstable();
        let values = &bed.cols[DELETED];
        let mut want: Vec<(i64, u32)> = (0..ROWS)
            .filter(|&r| !gone[r] && col.plan().shard_of(values[r]) == k)
            .map(|r| (values[r], r as u32))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "shard {k} of the deleted attribute");
    }
    assert_eq!(
        builds.get() - builds_before,
        with_ids + SHARDS as u64,
        "one build per written shard asked for ids"
    );
    // No budget: every attribute's first touch built all its shards at
    // once, racing touchers included.
    let each = ATTRS as u64;
    assert_eq!(
        (whole.get(), passes.each_ref().map(|h| h.lifetime_count())),
        (whole_before.0 + each, whole_before.1.map(|c| c + each)),
        "whole-attribute builds and their timed passes"
    );
}
