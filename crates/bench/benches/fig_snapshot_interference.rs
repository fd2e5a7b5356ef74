//! Snapshot interference — p50/p95/p99 latency of long analytical scans
//! while Ripple updater threads race, lock-free snapshot reads vs the
//! structure-locked select path (the PR 4 tentpole's headline experiment).
//!
//! One sharded holistic dataset per bed; `HOLIX_UPDATERS` threads queue
//! inserts and deletes and immediately force the Ripple merge with a
//! narrow locked select (a writer "transaction"), while one scan thread
//! issues wide range scans and records per-scan latency:
//!
//! - **locked** bed: scans run through `QueryEngine::execute` — every scan
//!   shares each shard's structure `RwLock` with the racing merges, so a
//!   merge mid-scan stalls it (the "index maintenance blocks queries"
//!   overhead the paper's daemon design wants off the query path).
//! - **snapshot** bed: scans run through `QueryEngine::execute_snapshot` —
//!   one published snapshot per touched shard, no structure lock; merges replace
//!   pieces copy-on-write and never wait for the scans.
//!
//! Repetitions are interleaved bed-by-bed so machine drift hits both
//! equally. Every scan's count is bounds-checked online against a tight
//! in-flight gauge (`base <= count <= base + in_flight + slack`), and
//! after the reps quiesce the final counts of both beds are checked
//! exactly against a sorted-column oracle. CSV: per-bed p50/p95/p99/mean
//! scan latency plus updater merge throughput.

use holix_bench::{secs, BenchEnv};
use holix_engine::api::{Dataset, QueryEngine};
use holix_engine::{HolisticEngine, HolisticEngineConfig};
use holix_server::percentile;
use holix_workloads::data::uniform_table;
use holix_workloads::QuerySpec;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Bed {
    label: &'static str,
    updaters: usize,
    engine: Arc<HolisticEngine>,
    /// Per-scan latencies pooled over every measured rep.
    lat: Vec<Duration>,
    /// Updater ops (insert+merge or delete+merge) completed in measurement.
    updater_ops: usize,
    /// Wall time of this bed's measured reps only (qps denominator).
    wall: Duration,
}

fn run_rep(bed: &mut Bed, scans: usize, domain: i64, n: usize, rep: u64, measured: bool) {
    let updaters = bed.updaters;
    let rep_start = Instant::now();
    let stop = AtomicBool::new(false);
    // Inserts issued whose paired delete has not yet been merged: each
    // updater adds BURST before queueing and subtracts BURST after the
    // delete-merge lands, so the scan-count ceiling stays *tight* for the
    // whole run instead of growing with every burst ever issued.
    let in_flight = AtomicUsize::new(0);
    let mut lat = Vec::with_capacity(scans);
    let base_count = n as i64;
    let engine = &bed.engine;
    std::thread::scope(|s| {
        // Ripple updaters: queue a burst of inserts into a narrow value
        // band, force one Ripple merge with a locked select over the band
        // (a long exclusive section on that shard), then delete the burst
        // and merge again — net zero per op pair, so the scan-count bounds
        // stay tight.
        const BURST: usize = 32;
        let mut handles = Vec::new();
        for u in 0..updaters {
            let stop = &stop;
            let in_flight = &in_flight;
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xF00D + rep * 31 + u as u64);
                let mut row = (n + u * 10_000_000) as u32;
                let mut ops = 0usize;
                while !stop.load(SeqCst) {
                    let band = rng.random_range(0..domain - 1_024);
                    let burst: Vec<i64> = (0..BURST)
                        .map(|_| rng.random_range(band..band + 1_024))
                        .collect();
                    in_flight.fetch_add(BURST, SeqCst);
                    for (i, &v) in burst.iter().enumerate() {
                        engine.queue_insert(0, v, row + i as u32);
                    }
                    let merge = QuerySpec {
                        attr: 0,
                        lo: band,
                        hi: band + 1_024,
                    };
                    engine.execute(&merge);
                    for (i, &v) in burst.iter().enumerate() {
                        engine.queue_delete(0, v, row + i as u32);
                    }
                    engine.execute(&merge);
                    // Deletes merged: the burst can no longer be observed.
                    in_flight.fetch_sub(BURST, SeqCst);
                    row += BURST as u32;
                    ops += 2;
                }
                ops
            }));
        }
        // Scan thread (this thread): wide analytical scans, ~25% of the
        // domain each, randomly placed. The yield between scans matters on
        // few-core boxes: it hands the updaters their slice, so scans
        // genuinely race merges instead of monopolising the core.
        let mut rng = StdRng::seed_from_u64(0xBEEF + rep);
        let span = domain / 4;
        for _ in 0..scans {
            let lo = rng.random_range(0..domain - span);
            let q = QuerySpec {
                attr: 0,
                lo,
                hi: lo + span,
            };
            // Read the in-flight gauge *before* the scan: every burst
            // visible to the scan was either already counted here, or is
            // the (at most one, per sequential updater) burst that starts
            // after this read — covered by the slack term below.
            let in_flight_before = in_flight.load(SeqCst) as i64;
            let t0 = Instant::now();
            let count = match bed.label {
                "snapshot" => bed.engine.execute_snapshot(&q).expect("snapshot path").0,
                _ => bed.engine.execute(&q),
            };
            lat.push(t0.elapsed());
            // Online oracle bound, tight for the whole run (the gauge
            // falls back to ~0 as delete-merges land, unlike a monotone
            // issued counter): a torn snapshot that double-counts a piece
            // blows through this immediately.
            let ceiling = base_count + in_flight_before + (updaters * BURST) as i64;
            assert!(
                (count as i64) <= ceiling,
                "{}: count {count} exceeds any reachable state ({ceiling})",
                bed.label
            );
            std::thread::yield_now();
        }
        stop.store(true, SeqCst);
        let ops: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        if measured {
            bed.updater_ops += ops;
        }
    });
    if measured {
        bed.lat.extend(lat);
        bed.wall += rep_start.elapsed();
    }
}

fn main() {
    let env = BenchEnv::from_env();
    env.banner(
        "Snapshot interference: lock-free snapshot scans vs locked selects under Ripple updaters",
        "csv: bed,updaters,scans,p50_us,p95_us,p99_us,mean_us,updater_ops,qps_scan",
    );
    // The issue's 2-4 updater band by default (HOLIX_UPDATERS=2 → {2,4});
    // setting a different HOLIX_UPDATERS shifts the sweep accordingly.
    let mut updater_sweep = vec![env.updaters.max(1), env.updaters.max(1) * 2];
    updater_sweep.dedup();
    let scans = (env.queries / 2).max(16);
    let data = Dataset::new(uniform_table(1, env.n, env.domain, 0x54AB));
    let mut sorted = data.column(0).to_vec();
    sorted.sort_unstable();

    let data_ref = &data;
    let mut beds: Vec<Bed> = updater_sweep
        .iter()
        .flat_map(|&updaters| {
            ["locked", "snapshot"].into_iter().map(move |label| {
                let data = data_ref;
                let mut cfg = HolisticEngineConfig::split_half_sharded(env.threads, env.shards);
                // Daemons off: the beds compare read paths under updater
                // interference, not refinement scheduling.
                cfg.holistic.monitor_interval = Duration::from_millis(250);
                let engine = Arc::new(HolisticEngine::new(data.clone(), cfg));
                engine.stop();
                Bed {
                    label,
                    updaters,
                    engine,
                    lat: Vec::new(),
                    updater_ops: 0,
                    wall: Duration::ZERO,
                }
            })
        })
        .collect();

    // Warmup rep (not measured): cracks the hot paths, publishes and
    // refreshes the snapshots past their cold O(N) builds.
    for bed in &mut beds {
        run_rep(bed, scans / 4 + 4, env.domain, env.n, 0, false);
    }
    // Interleaved measured reps (each bed accumulates its own wall time).
    for rep in 1..=env.reps as u64 {
        for bed in &mut beds {
            run_rep(bed, scans, env.domain, env.n, rep, true);
        }
    }

    // Quiesce + exact oracle: all updates were insert/delete pairs, so both
    // beds must return exactly the base counts on every probe.
    for bed in &beds {
        for (lo, hi) in [(0, env.domain), (env.domain / 3, 2 * env.domain / 3)] {
            let oracle =
                (sorted.partition_point(|&v| v < hi) - sorted.partition_point(|&v| v < lo)) as u64;
            let q = QuerySpec { attr: 0, lo, hi };
            assert_eq!(
                bed.engine.execute(&q),
                oracle,
                "{}: locked quiesce",
                bed.label
            );
            assert_eq!(
                bed.engine.execute_snapshot(&q).unwrap().0,
                oracle,
                "{}: snapshot quiesce",
                bed.label
            );
        }
    }

    println!("bed,updaters,scans,p50_us,p95_us,p99_us,mean_us,updater_ops,qps_scan");
    let mut p99_by_updaters: Vec<(usize, &str, f64)> = Vec::new();
    for bed in &mut beds {
        bed.lat.sort_unstable();
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mean =
            bed.lat.iter().map(|d| d.as_secs_f64()).sum::<f64>() / bed.lat.len().max(1) as f64;
        let (a, b, c) = (
            percentile(&bed.lat, 0.50),
            percentile(&bed.lat, 0.95),
            percentile(&bed.lat, 0.99),
        );
        p99_by_updaters.push((bed.updaters, bed.label, us(c)));
        println!(
            "{},{},{},{:.1},{:.1},{:.1},{:.1},{},{:.1}",
            bed.label,
            bed.updaters,
            bed.lat.len(),
            us(a),
            us(b),
            us(c),
            mean * 1e6,
            bed.updater_ops,
            bed.lat.len() as f64 / secs(bed.wall).max(1e-9),
        );
    }
    for pair in p99_by_updaters.chunks(2) {
        if let [(u, "locked", locked), (_, "snapshot", snapshot)] = pair {
            println!(
                "# updaters={u}: snapshot_p99_speedup={:.3} (locked p99 / snapshot p99, interleaved reps)",
                locked / snapshot.max(1e-9)
            );
        }
    }
}
