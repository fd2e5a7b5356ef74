//! The write half of the uptime soak (ROADMAP direction 1(a)): the price
//! of a Ripple drain on one long-lived engine whose piece table never
//! converges.
//!
//! Drains run on the reading thread (a read finding a shard's queue past
//! `CrackerColumn::MERGE_BACKLOG`) and on idle workers (a queue of
//! `CrackerColumn::DRAIN_DUE` on any resident shard), so the test times
//! them where they all land: the process-wide `cracking_ripple_merge_ns`
//! histogram, windowed. That is why it is the only test in its file — a
//! test beside it in the same process would record its own drains there.
//! Beside the drains it times the snapshot reads, which fold the live
//! pieces' sums.

use holix_engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix_storage::types::RowId;
use holix_workloads::data::uniform_table;
use holix_workloads::QuerySpec;
use rand::prelude::*;
use std::time::Duration;

/// Count and sum of a multiset over `0..domain` under inserts and
/// deletes: the soak's oracle.
struct Fenwick {
    count: Vec<i64>,
    sum: Vec<i64>,
}

impl Fenwick {
    fn new(domain: i64) -> Self {
        Fenwick {
            count: vec![0; domain as usize + 1],
            sum: vec![0; domain as usize + 1],
        }
    }

    fn add(&mut self, v: i64, sign: i64) {
        let mut i = v as usize + 1;
        while i < self.count.len() {
            self.count[i] += sign;
            self.sum[i] += sign * v;
            i += i & i.wrapping_neg();
        }
    }

    /// Count and sum of the values below `v`.
    fn below(&self, v: i64) -> (i64, i64) {
        let (mut i, mut count, mut sum) = (v as usize, 0, 0);
        while i > 0 {
            count += self.count[i];
            sum += self.sum[i];
            i &= i - 1;
        }
        (count, sum)
    }

    fn in_range(&self, lo: i64, hi: i64) -> (u64, i128) {
        let ((c1, s1), (c0, s0)) = (self.below(hi), self.below(lo));
        ((c1 - c0) as u64, (s1 - s0) as i128)
    }
}

/// One engine takes 3 × 10⁵ operations of the benchmark's `update_churn`
/// mix — narrow range reads around fresh writes, IN-lists, snapshot scans,
/// inserts, deletes and a 500-insert burst every 2 000 operations — with
/// **unquantised** read bounds, so the piece table never converges: every
/// read may add two boundaries (12.9k pieces after the first 10⁴
/// operations, 264k at the end). Every read is checked against a Fenwick
/// oracle.
///
/// What it pins is the price of a drain. A Ripple merge moves one element
/// per merged value in every piece downstream of the value, so that price
/// cannot be flat in the piece count; what can be held is its slope. The
/// floor (first quartile) of the drains over the last 10⁴ operations,
/// against the first 10⁴, may grow at most twice as fast as the piece
/// table did in between. Measured on the 2-vCPU reference box, when reads
/// paid every merge: 30 → 590–670 µs over a 20.5-fold piece growth
/// (20–22×, about once the piece growth, ≈ 19 ns per boundary of the
/// shard) with the batch kernel; 32 → 2 690 µs (84×, four times the piece
/// growth, ≈ 85 ns per boundary) at its parent, which walked every
/// boundary once per merged value; and, once reads merged only a queue
/// past the backlog, whole, 1.00 → 7.08 ms over a 20.4-fold piece growth
/// (7×), timed as the merging read. Since idle workers drain every shard
/// whose queue reaches half the backlog, few reads merge at all, so the
/// drains are timed where they run; a window must still hold at least 8
/// (24–38 measured, floor 0.12–0.16 → 2.5–3.9 ms over a 20.4-fold piece
/// growth).
///
/// A drain copies nothing, and neither does a read: a snapshot read
/// answers the pieces wholly in its range from the prefix sums at the two
/// ends of their run and filters the two edge pieces, under the structure
/// lock shared — so it waits for a drain holding the shard. Those reads
/// are held to the same slope by halves of the run, timed around
/// `execute_snapshot` from the end of the first window on (the first
/// read of each shard sums it), with at least 8 a half. A half's reads
/// span a piece table that grows through it, so each read's time is
/// taken against the piece table at that read: the first quartile of
/// time per piece may at most double from the first half to the second.
/// Both floors' ratios are printed (`--nocapture`).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertion: run with --release")]
fn write_soak_drains_grow_no_faster_than_the_piece_table() {
    const OPS: usize = 300_000;
    const WINDOW: usize = 10_000;
    /// How much faster than the piece table the floor may grow.
    const SLOPE: u64 = 2;
    holix_telemetry::set_metrics_enabled(true);
    let drains = holix_telemetry::registry().histogram("cracking_ripple_merge_ns");
    let (attrs, rows, shards) = (2, 1 << 18, 4);
    let domain = 2 * rows as i64;
    let data = Dataset::new(uniform_table(attrs, rows, domain, 29));
    let base: Vec<Vec<i64>> = (0..attrs).map(|a| data.column(a).to_vec()).collect();
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, shards);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let e = HolisticEngine::new(data, cfg);
    let mut rng = StdRng::seed_from_u64(31);

    let mut oracle: Vec<Fenwick> = (0..attrs).map(|_| Fenwick::new(domain)).collect();
    for (tree, col) in oracle.iter_mut().zip(&base) {
        col.iter().for_each(|&v| tree.add(v, 1));
    }
    let hot: Vec<i64> = (0..2048).map(|_| rng.random_range(0..domain)).collect();
    let mut base_deleted = vec![vec![false; rows]; attrs];
    let mut inserted: Vec<Vec<(i64, RowId)>> = vec![Vec::new(); attrs];
    let mut recent: Vec<Vec<i64>> = vec![Vec::new(); attrs];
    let mut next_row = rows as RowId;

    // Per window: the drains it held and their first quartile.
    let mut windows: Vec<(u64, u64)> = Vec::with_capacity(OPS / WINDOW);
    // The snapshot reads of the current half after the first window (ns
    // per piece of the table at the read), and per half of the run: how
    // many, and their first quartile.
    let mut reads: Vec<f64> = Vec::new();
    let mut halves: Vec<(usize, f64)> = Vec::with_capacity(2);
    let mut first_pieces = 0;

    let deadline = std::time::Instant::now() + Duration::from_secs(600);
    drains.reset_window();
    let mut i = 0;
    while i < OPS {
        assert!(
            std::time::Instant::now() < deadline,
            "soak at op {i} of {OPS} after 600 s"
        );
        let attr = rng.random_range(0..attrs);
        let mut insert = |e: &HolisticEngine, rng: &mut StdRng| {
            let v = rng.random_range(0..domain);
            oracle[attr].add(v, 1);
            inserted[attr].push((v, next_row));
            if recent[attr].len() == 64 {
                recent[attr].remove(0);
            }
            recent[attr].push(v);
            e.queue_insert(attr, v, next_row);
            next_row += 1;
        };
        if i > 0 && i % 2_000 == 0 {
            for _ in 0..500 {
                insert(&e, &mut rng);
            }
        }
        match rng.random_range(0..100) {
            0..=49 => {
                let centre = if !recent[attr].is_empty() && rng.random_bool(0.7) {
                    recent[attr][rng.random_range(0..recent[attr].len())]
                } else {
                    rng.random_range(0..domain)
                };
                let width = rng.random_range(1..=domain / 512);
                let lo = (centre - rng.random_range(0..width)).clamp(0, domain - width);
                let q = QuerySpec {
                    attr,
                    lo,
                    hi: lo + width,
                };
                let want = oracle[attr].in_range(q.lo, q.hi).0;
                assert_eq!(e.execute(&q), want, "op {i} {q:?}");
            }
            50..=64 => {
                let keys: Vec<i64> = (0..rng.random_range(1..=8))
                    .map(|_| hot[rng.random_range(0..hot.len())])
                    .collect();
                let mut distinct = keys.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let want: u64 = distinct
                    .iter()
                    .map(|&k| oracle[attr].in_range(k, k + 1).0)
                    .sum();
                assert_eq!(e.execute_points(attr, &keys), Some(want), "op {i} {keys:?}");
            }
            65..=69 => {
                let width = rng.random_range(domain / 20..domain / 5);
                let lo = rng.random_range(0..domain - width);
                let q = QuerySpec {
                    attr,
                    lo,
                    hi: lo + width,
                };
                let want = oracle[attr].in_range(q.lo, q.hi);
                let t0 = std::time::Instant::now();
                let got = e.execute_snapshot(&q);
                if i >= WINDOW {
                    let ns = t0.elapsed().as_nanos() as f64;
                    reads.push(ns / e.total_pieces() as f64);
                }
                assert_eq!(got, Some(want), "op {i} {q:?}");
            }
            70..=89 => insert(&e, &mut rng),
            _ => {
                let (v, row) = if !inserted[attr].is_empty() && rng.random_bool(0.5) {
                    let k = rng.random_range(0..inserted[attr].len());
                    inserted[attr].swap_remove(k)
                } else {
                    let mut row = rng.random_range(0..rows);
                    while std::mem::replace(&mut base_deleted[attr][row], true) {
                        row = (row + 1) % rows;
                    }
                    (base[attr][row], row as RowId)
                };
                oracle[attr].add(v, -1);
                e.queue_delete(attr, v, row);
            }
        }
        i += 1;
        if i == WINDOW {
            first_pieces = e.total_pieces();
        }
        if i % WINDOW == 0 {
            let window = drains.snapshot();
            drains.reset_window();
            windows.push((window.count, window.percentile(0.25)));
        }
        if i % (OPS / 2) == 0 {
            reads.sort_unstable_by(f64::total_cmp);
            let floor = reads.get(reads.len() / 4).copied().unwrap_or(0.0);
            halves.push((reads.len(), floor));
            reads.clear();
        }
    }
    let last_pieces = e.total_pieces();
    e.stop();

    // Drains of a few hundred updates, by idle workers or by reads past
    // the backlog: every window must hold enough of them for a floor.
    for (w, &(count, _)) in windows.iter().enumerate() {
        assert!(count >= 8, "window {w}: {count} drains");
    }
    assert!(
        last_pieces >= 8 * first_pieces,
        "the piece table grew from {first_pieces} to {last_pieces} only"
    );
    let mut floors = windows.iter().map(|&(_, floor)| floor);
    let first = floors.next().expect("at least one window");
    // The cheapest of the last three windows, as in the uptime soak: a
    // neighbour's burst comes back down, growth with uptime does not.
    let last = floors.skip(OPS / WINDOW - 4).min().expect("three more");
    println!(
        "drain floor: {first} -> {last} ns ({:.2}x) over pieces {first_pieces} -> \
         {last_pieces} ({:.2}x)",
        last as f64 / first as f64,
        last_pieces as f64 / first_pieces as f64
    );
    assert!(
        last * first_pieces as u64 <= SLOPE * first * last_pieces as u64,
        "a drain costs {last} ns after {OPS} ops, {first} ns in the first {WINDOW} \
         (pieces {first_pieces} -> {last_pieces})"
    );
    // The snapshot reads: by halves of the run, the same slope.
    for (h, &(count, _)) in halves.iter().enumerate() {
        assert!(count >= 8, "half {h}: {count} snapshot reads");
    }
    let ((_, first), (_, last)) = (halves[0], halves[1]);
    println!(
        "snapshot read floor: {first:.3} -> {last:.3} ns per piece ({:.2}x)",
        last / first
    );
    assert!(
        last <= SLOPE as f64 * first,
        "a snapshot read costs {last:.3} ns per piece in the second half, \
         {first:.3} in the first"
    );
}
