//! How many threads a first touch builds an attribute on. A whole build
//! runs on the caller plus one helper per context the load accountant sees
//! idle, at most `total_contexts − 1` and one thread per
//! `DEFAULT_MIN_PARALLEL` base rows. Every user path that can first-touch
//! holds its own `user_threads` task, so its helpers are sized against the
//! load it is itself part of: a range query, an IN list's screening probe
//! and a queued insert alike. Each build's helpers are read off the registry's
//! `cracking_whole_build_helpers_total`, and every answer is checked
//! against a scan.
//!
//! One test only: `cracking_whole_builds_total` and
//! `cracking_whole_build_helpers_total` are process-wide.

use holix::cracking::partition::DEFAULT_MIN_PARALLEL;
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::telemetry::registry;
use holix::workloads::QuerySpec;
use rand::prelude::*;

const CONTEXTS: usize = 4;

/// `attrs` columns of `rows` uniform values below 2^20.
fn dataset(attrs: usize, rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::new(
        (0..attrs)
            .map(|_| (0..rows).map(|_| rng.random_range(0..1 << 20)).collect())
            .collect(),
    )
}

/// A four-context engine in four shards whose user operations take
/// `user_threads` contexts, with no tuning workers.
fn engine(data: Dataset, user_threads: usize) -> HolisticEngine {
    let mut cfg = HolisticEngineConfig::split_half_sharded(CONTEXTS, 4);
    cfg.user_threads = user_threads;
    cfg.holistic.max_workers = Some(0);
    HolisticEngine::new(data, cfg)
}

/// Whole builds and their helpers that `run` made, and the accountant's
/// busy contexts after it returned.
fn built_by(e: &HolisticEngine, run: impl FnOnce()) -> (u64, u64, usize) {
    let builds = registry().counter("cracking_whole_builds_total");
    let helpers = registry().counter("cracking_whole_build_helpers_total");
    let (b0, h0) = (builds.get(), helpers.get());
    run();
    (builds.get() - b0, helpers.get() - h0, e.accountant().busy())
}

fn scan(data: &Dataset, q: &QuerySpec) -> u64 {
    let col = data.column(q.attr);
    col.iter().filter(|&&v| q.lo <= v && v < q.hi).count() as u64
}

#[test]
fn a_first_touch_gangs_the_idle_contexts_its_caller_does_not_hold() {
    holix::telemetry::set_metrics_enabled(true);
    let rows = 4 * DEFAULT_MIN_PARALLEL;
    let data = dataset(4, rows, 7);
    let e = engine(data.clone(), 2);
    let q = |attr| QuerySpec {
        attr,
        lo: 1_000,
        hi: 300_000,
    };

    // Every context held by someone else: the caller builds alone.
    {
        let _load = e.accountant().begin_task(CONTEXTS);
        let (builds, helpers, busy) =
            built_by(&e, || assert_eq!(e.execute(&q(0)), scan(&data, &q(0))));
        assert_eq!(
            (builds, helpers),
            (1, 0),
            "a saturated machine gangs nobody"
        );
        assert_eq!(busy, CONTEXTS, "the query let go of its task");
    }

    // An idle machine: the caller's own 2 contexts are busy, so 2 help.
    // Without its task a queued insert would see 4 idle and gang 3.
    let (builds, helpers, busy) = built_by(&e, || e.queue_insert(1, 5, rows as u32));
    assert_eq!((builds, helpers, busy), (1, 2, 0), "queue_insert");
    let (builds, helpers, busy) = built_by(&e, || e.queue_delete(1, 5, rows as u32));
    assert_eq!(
        (builds, helpers, busy),
        (0, 0, 0),
        "queue_delete builds nothing more"
    );
    assert_eq!(e.execute(&q(1)), scan(&data, &q(1)));

    // An IN list (one value absent): its screening probe first-touches.
    let mut values: Vec<i64> = data.column(2)[..3].to_vec();
    values.extend([values[0], 1 << 21]);
    values.sort_unstable();
    values.dedup();
    let want = values
        .iter()
        .map(|&v| {
            scan(
                &data,
                &QuerySpec {
                    attr: 2,
                    lo: v,
                    hi: v + 1,
                },
            )
        })
        .sum();
    let (builds, helpers, busy) =
        built_by(&e, || assert_eq!(e.execute_points(2, &values), Some(want)));
    assert_eq!((builds, helpers, busy), (1, 2, 0), "execute_points");
    let (builds, helpers, busy) = built_by(&e, || assert_eq!(e.execute(&q(3)), scan(&data, &q(3))));
    assert_eq!((builds, helpers, busy), (1, 2, 0), "execute");

    // A conjunction over built attributes (a driver below the row-id cap)
    // builds nothing and holds nothing once it has answered.
    let narrow = |attr| QuerySpec {
        attr,
        lo: 1_000,
        hi: 100_000,
    };
    let want = (0..rows)
        .filter(|&r| {
            [0, 3]
                .iter()
                .all(|&a| (1_000..100_000).contains(&data.column(a)[r]))
        })
        .count() as u64;
    let (builds, _, busy) = built_by(&e, || {
        assert_eq!(e.execute_conjunction(&[narrow(0), narrow(3)]), Some(want))
    });
    assert_eq!((builds, busy), (0, 0), "execute_conjunction");

    // One context a caller: every other one helps, and no more.
    let e = engine(data.clone(), 1);
    let (builds, helpers, busy) = built_by(&e, || assert_eq!(e.execute(&q(0)), scan(&data, &q(0))));
    assert_eq!((builds, helpers, busy), (1, CONTEXTS as u64 - 1, 0));

    // A base shorter than two chunks of `DEFAULT_MIN_PARALLEL` rows: the
    // caller alone, however idle the machine.
    let short = dataset(1, 2 * DEFAULT_MIN_PARALLEL - 1, 8);
    let e = engine(short.clone(), 1);
    let (builds, helpers, busy) =
        built_by(&e, || assert_eq!(e.execute(&q(0)), scan(&short, &q(0))));
    assert_eq!((builds, helpers, busy), (1, 0, 0), "short base");
}
