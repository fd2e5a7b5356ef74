//! fig_replan — self-organizing shard plans under workload drift.
//!
//! A drifting hot region (each of `HOLIX_PHASES` phases concentrates
//! every insert into a fresh narrow window of the domain, while the
//! query mix redraws its `ClientFocus::HotRegions` hot set) against two
//! otherwise identical sharded holistic beds:
//!
//! - **frozen** — the shard plan fixed at build time (the pre-replan
//!   engine): the phase's hot shard absorbs the whole insert stream and
//!   its weight skew is never repaired;
//! - **replanning** — the engine's replanner thread watches published
//!   per-shard loads (rows + pending backlog), splits hot shards and
//!   merges cold neighbours, migrating values through the snapshot
//!   COW-splice so readers never block, and publishes each successor
//!   plan by swapping in its column (in-flight queries finish against
//!   the plan they started with).
//!
//! Every live answer is band-checked against the sorted-column oracle
//! (base ≤ got ≤ base + two phases of churn — deletes only ever remove
//! churn tuples); at quiesce every check window must be *exact* (base
//! plus the final phase's deterministic churn). The harness reports
//! per-phase shard-weight skew (max/mean over rows + pending), replan
//! counts and p50/p95/p99, and asserts the headline: the replanning bed
//! replans at least once and ends with per-phase skew no worse than the
//! frozen bed's.

use holix_bench::{secs, BenchEnv};
use holix_engine::api::{Dataset, QueryEngine};
use holix_engine::{HolisticEngine, HolisticEngineConfig};
use holix_planner::{load_skew, ShardLoad};
use holix_server::{AdmissionPolicy, QueryService, Scheduling, ServiceConfig};
use holix_workloads::data::uniform_table;
use holix_workloads::traffic::ClientFocus;
use holix_workloads::TrafficSpec;
use std::sync::Arc;
use std::time::Duration;

/// Binary-search count oracle over the pre-sorted base column.
fn oracle(sorted: &[i64], lo: i64, hi: i64) -> u64 {
    (sorted.partition_point(|&v| v < hi) - sorted.partition_point(|&v| v < lo)) as u64
}

/// The `k`-th churn insert of `phase`: a value inside the phase's narrow
/// hot window (one `4·phases`-th of the domain, drifting each phase).
/// Deterministic, so the quiesce oracle can replay the whole stream.
fn churn_value(domain: i64, phases: usize, phase: usize, k: usize) -> i64 {
    let width = (domain / (phases as i64 * 4)).max(1);
    let lo = (phase as i64 * 4 + 1) * width;
    let mut x = (phase as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (k as u64).wrapping_mul(0xD129_0B26_4BC6_34D5);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    lo + (x % width as u64) as i64
}

/// Current shard loads (live lengths + pending backlog) of attribute 0.
fn loads_of(eng: &HolisticEngine) -> Vec<ShardLoad> {
    let col = eng.sharded(0);
    (0..col.shard_count())
        .map(|k| ShardLoad {
            rows: col.shard(k).len(),
            pending: col.shard(k).pending_len(),
            // Size-skew view only: the engine folds access heat in
            // internally, but the headline balance number here stays
            // comparable across beds (the frozen bed records no f_I).
            access: 0,
        })
        .collect()
}

fn main() {
    let env = BenchEnv::from_env();
    env.banner(
        "fig_replan: versioned shard plans vs a frozen plan under a drifting hot region",
        "csv: bed,phase,completed,replans,shards,skew,p50_ms,p95_ms,p99_ms",
    );
    let clients = env.clients.max(2);
    let queries_per_client = (env.queries / env.phases / clients).max(16);
    // One shard must end a phase strictly heavier than twice the mean for
    // the policy to split it: with every insert landing in one of `s`
    // shards that needs I·(1 − 2/s) > n/s, i.e. I > n/2 at s = 4 — so the
    // phase churn is sized at 3n/4 to leave margin. Each phase also drains
    // the previous phase's inserts (the hot region *moves*, it does not
    // accumulate), so the pressure recurs every phase instead of being
    // diluted by a growing base.
    let inserts_per_phase = (env.n * 3 / 4).max(12_288);
    let data = Dataset::new(uniform_table(1, env.n, env.domain, 4111));
    let mut sorted = data.column(0).to_vec();
    sorted.sort_unstable();
    // Deletes only ever remove churn tuples (row ids beyond the base
    // table), so a live answer never undershoots its base oracle; at most
    // two phases of churn (the current one plus the not-yet-drained
    // previous one) are live at any instant.
    let slack = (2 * inserts_per_phase) as u64;

    let beds: Vec<(&str, Arc<HolisticEngine>, QueryService)> =
        [("frozen", false), ("replan", true)]
            .into_iter()
            .map(|(label, replan)| {
                let mut cfg = HolisticEngineConfig::split_half_sharded(env.threads, env.shards);
                cfg.holistic.monitor_interval = Duration::from_millis(2);
                cfg.replan = replan;
                let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
                let service = QueryService::start(
                    Arc::clone(&eng) as Arc<dyn QueryEngine>,
                    Some(Arc::clone(eng.accountant())),
                    ServiceConfig {
                        workers: (env.threads / 2).max(2),
                        admission: AdmissionPolicy::Block,
                        scheduling: Scheduling::CrackAware,
                        affinity: true,
                        ..ServiceConfig::default()
                    },
                );
                (label, eng, service)
            })
            .collect();

    println!("bed,phase,completed,replans,shards,skew,p50_ms,p95_ms,p99_ms");
    let mut skew_sum = [0.0f64; 2];
    for phase in 0..env.phases {
        // The query hot set drifts with the phase (fresh seed → fresh
        // fleet-wide hot regions), the insert hot window drifts with it.
        let mut traffic = TrafficSpec::saturating(
            clients,
            queries_per_client,
            1,
            env.domain,
            0x5EED ^ (phase as u64).wrapping_mul(7919),
        );
        traffic.focus = ClientFocus::HotRegions {
            regions: 8,
            exact_prob: 0.5,
        };
        for (b, (label, eng, service)) in beds.iter().enumerate() {
            service.reset_window();
            std::thread::scope(|s| {
                for u in 0..env.updaters {
                    let eng = Arc::clone(eng);
                    s.spawn(move || {
                        let mut k = u;
                        while k < inserts_per_phase {
                            let v = churn_value(env.domain, env.phases, phase, k);
                            let row = (env.n + phase * inserts_per_phase + k) as u32;
                            eng.queue_insert(0, v, row);
                            if phase > 0 {
                                // Drain the hot region the workload just left.
                                let pv = churn_value(env.domain, env.phases, phase - 1, k);
                                let prow = (env.n + (phase - 1) * inserts_per_phase + k) as u32;
                                eng.queue_delete(0, pv, prow);
                            }
                            k += env.updaters;
                        }
                    });
                }
                for c in 0..clients {
                    let stream = traffic.client_stream(c);
                    let session = service.session();
                    let sorted = &sorted;
                    s.spawn(move || {
                        for tq in &stream {
                            let got = session.execute(tq.spec).expect("submit failed").count;
                            let base = oracle(sorted, tq.spec.lo, tq.spec.hi);
                            assert!(
                                got >= base && got <= base + slack,
                                "online oracle violation: {got} outside [{base}, {}] on {:?}",
                                base + slack,
                                tq.spec
                            );
                        }
                    });
                }
            });
            let skew = load_skew(&loads_of(eng));
            skew_sum[b] += skew;
            let stats = service.stats();
            println!(
                "{label},{phase},{},{},{},{skew:.3},{:.3},{:.3},{:.3}",
                stats.completed,
                eng.replan_count(),
                eng.sharded(0).shard_count(),
                stats.p50.as_secs_f64() * 1e3,
                stats.p95.as_secs_f64() * 1e3,
                stats.p99.as_secs_f64() * 1e3,
            );
        }
    }

    // Quiesce: every check window must be exact — base tuples plus the
    // deterministic churn of the *final* phase (every earlier phase's
    // inserts were drained by its successor).
    let check = 8i64;
    for (label, eng, service) in &beds {
        service.reset_window();
        for w in 0..check {
            let (lo, hi) = (w * (env.domain / check), (w + 1) * (env.domain / check));
            let inserted = (0..inserts_per_phase)
                .filter(|&k| {
                    let v = churn_value(env.domain, env.phases, env.phases - 1, k);
                    lo <= v && v < hi
                })
                .count() as u64;
            let got = eng.execute(&holix_workloads::QuerySpec { attr: 0, lo, hi });
            assert_eq!(
                got,
                oracle(&sorted, lo, hi) + inserted,
                "{label}: quiesce oracle violation on [{lo}, {hi})"
            );
        }
    }

    let (frozen_skew, replan_skew) = (
        skew_sum[0] / env.phases as f64,
        skew_sum[1] / env.phases as f64,
    );
    let (frozen_replans, replans) = (beds[0].1.replan_count(), beds[1].1.replan_count());
    println!(
        "# avg_phase_skew: frozen={frozen_skew:.3} replan={replan_skew:.3} \
         (max/mean shard weight; 1.0 = balanced), replans={replans}, \
         skew_ratio={:.3}",
        replan_skew / frozen_skew.max(1e-9)
    );
    for (_, eng, service) in beds {
        let _ = secs(service.shutdown().p50);
        eng.stop();
    }
    assert_eq!(frozen_replans, 0, "the frozen bed must never replan");
    assert!(
        replans >= 1,
        "the replanning bed never replanned under drift"
    );
    assert!(
        replan_skew <= frozen_skew + 0.05,
        "replanning did not reduce shard skew: {replan_skew:.3} vs frozen {frozen_skew:.3}"
    );
}
