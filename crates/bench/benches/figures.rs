//! The paper's evaluation (§5) as one table: every figure (and Table 1) is
//! a row — the name that selects it, its banner and its body — run at the
//! scale `BenchEnv` reads from the `HOLIX_*` knobs.
//!
//! ```text
//! cargo bench -p holix-bench --bench figures -- fig06a_cumulative fig09_idle_time
//! cargo bench -p holix-bench --bench figures            # every figure, paper order
//! ```
//!
//! Core counts are modelled logically (`HOLIX_THREADS`); on machines with
//! fewer physical cores the high end of a sweep oversubscribes.

use holix_bench::{
    buckets, cumulative, run_per_query, sample_indices, secs, time, total, BenchEnv,
};
use holix_core::{HolisticConfig, Strategy};
use holix_cracking::{CrackScratch, CrackerColumn};
use holix_engine::api::{Dataset, QueryEngine};
use holix_engine::tpch::{HolisticTpch, PresortedTpch, ScanTpch, SidewaysTpch, TpchDb, TpchEngine};
use holix_engine::{
    AdaptiveEngine, CrackMode, HolisticEngine, HolisticEngineConfig, OfflineEngine, OnlineEngine,
    ScanEngine,
};
use holix_parallel::ccgi::ChunkedCrackerColumn;
use holix_server::run_clients;
use holix_storage::select::Predicate;
use holix_storage::types::RowId;
use holix_workloads::data::{uniform_column, uniform_table};
use holix_workloads::patterns::{AttrDist, Pattern};
use holix_workloads::skyserver::SkyServerSpec;
use holix_workloads::tpch::{generate, q12_variants, q1_variants, q6_variants};
use holix_workloads::updates::{update_stream, Op, UpdateScenario};
use holix_workloads::{QuerySpec, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// One figure of the paper: `name` selects it (the old bench target's
/// name), `title` and `csv` are its banner, `body` prints its rows.
struct Figure {
    name: &'static str,
    title: &'static str,
    csv: &'static str,
    body: fn(&BenchEnv),
}

/// Every figure in paper order.
const FIGURES: &[Figure] = &[
    Figure {
        name: "tab01_qualitative",
        title: "Table 1: qualitative comparison of indexing approaches",
        csv: "columns: analysis,idle-before,idle-during,materialization,update-cost,workload,screened-probes",
        body: tab01_qualitative,
    },
    Figure {
        name: "fig06a_cumulative",
        title: "Fig 6(a): cumulative response time, 5 engines, random workload",
        csv: "csv: query,scan,offline,online,adaptive,holistic (cumulative seconds)",
        body: fig06a_cumulative,
    },
    Figure {
        name: "fig06b_breakdown",
        title: "Fig 6(b): breakdown of total response time, adaptive vs holistic",
        csv: "csv: bucket,adaptive,holistic (seconds)",
        body: fig06b_breakdown,
    },
    Figure {
        name: "fig06c_partitions",
        title: "Fig 6(c): cumulative index partitions over the query sequence",
        csv: "csv: query,adaptive_pieces,holistic_pieces",
        body: fig06c_partitions,
    },
    Figure {
        name: "fig06d_workers",
        title: "Fig 6(d): holistic worker activations per tuning cycle",
        csv: "csv: cycle,workers,worker_time_total_s,wall_s,refinements,busy_skips",
        body: fig06d_workers,
    },
    Figure {
        name: "fig07_thread_split",
        title: "Fig 7: thread distribution between user queries and holistic workers",
        csv: "csv: config,total_seconds",
        body: fig07_thread_split,
    },
    Figure {
        name: "fig08_per_query",
        title: "Fig 8: per-query response time of adaptive indexing (one attribute)",
        csv: "csv: query,seconds",
        body: fig08_per_query,
    },
    Figure {
        name: "fig09_idle_time",
        title: "Fig 9: exploiting idle time before the workload (C_potential)",
        csv: "csv: bucket,adaptive,holistic (seconds); idle period scaled by HOLIX_IDLE_MS",
        body: fig09_idle_time,
    },
    Figure {
        name: "fig10_patterns",
        title: "Fig 10: workload patterns (predicate value vs query sequence)",
        csv: "csv: workload,query,predicate_lo",
        body: fig10_patterns,
    },
    Figure {
        name: "fig11_multicore",
        title: "Fig 11: holistic vs multi-core adaptive indexing, varying cores",
        csv: "csv: cores,mp_ccgi,pvdc,pvsdc,holistic,holistic_sharded (total seconds; cores modelled logically; sharded = HOLIX_SHARDS range shards per attribute)",
        body: fig11_multicore,
    },
    Figure {
        name: "fig12_robustness",
        title: "Fig 12: robustness across workload patterns",
        csv: "csv: workload,pvdc,pvsdc,holistic (total seconds)",
        body: fig12_robustness,
    },
    Figure {
        name: "fig13_schemas",
        title: "Fig 13: attribute sweep x attribute/value distributions x strategies",
        csv: "csv: attr_dist,value_pattern,attrs,pvdc,pvsdc,hi_w1,hi_w2,hi_w3,hi_w4",
        body: fig13_schemas,
    },
    Figure {
        name: "fig14_tpch",
        title: "Fig 14: TPC-H Q1/Q6/Q12, 30 variants, 4 engines",
        csv: "csv: query,engine,variant,seconds (presort cost printed separately)",
        body: fig14_tpch,
    },
    Figure {
        name: "fig15_x_sweep",
        title: "Fig 15: refinements per worker (x) across workloads",
        csv: "csv: workload,pvdc,pvsdc,x1,x2,x4,x8,x16,x32",
        body: fig15_x_sweep,
    },
    Figure {
        name: "fig16_updates",
        title: "Fig 16: updates (HFLV / LFHV), adaptive vs holistic",
        csv: "csv: scenario,adaptive,holistic (seconds of query+insert work)",
        body: fig16_updates,
    },
    Figure {
        name: "fig17_clients",
        title: "Fig 17: varying number of concurrent clients",
        csv: "csv: clients,pvdc,holistic,hi_label (total wall seconds)",
        body: fig17_clients,
    },
];

/// Runs the figures named on the command line (all of them without a
/// name). cargo passes `--bench` to every bench target; it selects nothing.
fn main() {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    for name in &names {
        if !FIGURES.iter().any(|f| f.name == name) {
            let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            panic!("unknown figure {name:?}; one of {}", known.join(", "));
        }
    }
    let env = BenchEnv::from_env();
    for fig in FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
    {
        env.banner(fig.title, fig.csv);
        (fig.body)(&env);
    }
}

/// The engine kinds the figures compare; every series builds a fresh one.
enum Kind {
    Scan,
    Offline,
    /// Sorts after a monitoring window of a tenth of the workload.
    Online,
    Adaptive(CrackMode),
    Holistic(HolisticEngineConfig),
}

impl Kind {
    /// PVDC: every crack gangs `threads` threads on one piece.
    fn pvdc(threads: usize) -> Kind {
        Kind::Adaptive(CrackMode::Pvdc { threads })
    }

    /// PVDC plus one auxiliary random crack per query bound.
    fn pvsdc(threads: usize) -> Kind {
        Kind::Adaptive(CrackMode::Pvsdc { threads })
    }

    /// The paper's preferred split (§5.1/Fig 7): half the contexts to user
    /// queries, the rest to holistic workers.
    fn holistic(threads: usize) -> Kind {
        Kind::Holistic(HolisticEngineConfig::split_half(threads))
    }

    fn build(self, env: &BenchEnv, data: &Dataset) -> Box<dyn QueryEngine> {
        let data = data.clone();
        match self {
            Kind::Scan => Box::new(ScanEngine::new(data, env.threads)),
            Kind::Offline => Box::new(OfflineEngine::new(data, env.threads)),
            Kind::Online => Box::new(OnlineEngine::new(data, env.threads, env.queries / 10)),
            Kind::Adaptive(mode) => Box::new(AdaptiveEngine::new(data, mode)),
            Kind::Holistic(cfg) => Box::new(HolisticEngine::new(data, cfg)),
        }
    }
}

/// Per-query response times of `queries` on a fresh engine of `kind` (a
/// holistic engine's daemon stops as the engine drops, after the last
/// query).
fn run(kind: Kind, env: &BenchEnv, data: &Dataset, queries: &[QuerySpec]) -> Vec<Duration> {
    run_per_query(&*kind.build(env, data), queries)
}

/// Total seconds of [`run`].
fn run_secs(kind: Kind, env: &BenchEnv, data: &Dataset, queries: &[QuerySpec]) -> f64 {
    secs(total(&run(kind, env, data, queries)))
}

/// The four synthetic patterns (`queries` queries over `HOLIX_ATTRS`
/// attributes each) and the SkyServer trace (one attribute, `sky_queries`
/// long), as `(label, attributes, queries)`.
fn pattern_workloads(
    env: &BenchEnv,
    queries: usize,
    sky_queries: usize,
    seed: u64,
) -> Vec<(String, usize, Vec<QuerySpec>)> {
    let mut workloads: Vec<_> = Pattern::SYNTHETIC
        .iter()
        .map(|&p| {
            let qs = WorkloadSpec {
                pattern: p,
                attr_dist: AttrDist::Uniform,
                n_attrs: env.attrs,
                n_queries: queries,
                domain: env.domain,
                seed,
            }
            .generate();
            (p.label().to_string(), env.attrs, qs)
        })
        .collect();
    workloads.push((
        "SkyServer".into(),
        1,
        SkyServerSpec {
            n_queries: sky_queries,
            domain: env.domain,
            ..Default::default()
        }
        .generate(),
    ));
    workloads
}

/// Table 1 — qualitative difference among offline, online, adaptive and
/// holistic indexing, derived from the engines' capability metadata.
fn tab01_qualitative(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(1, 1_000, 1_000, 1));
    println!(
        "indexing,analysis,idle_before,idle_during,materialization,update_cost,workload,screened_probes"
    );
    let tick = |b: bool| if b { "yes" } else { "no" };
    for kind in [
        Kind::Offline,
        Kind::Online,
        Kind::Adaptive(CrackMode::Sequential),
        Kind::holistic(2),
    ] {
        let engine = kind.build(env, &data);
        let c = engine.capabilities();
        println!(
            "{},{},{},{},{},{},{},{}",
            engine.name(),
            tick(c.workload_analysis),
            tick(c.idle_before_queries),
            tick(c.idle_during_queries),
            if c.full_materialization {
                "full"
            } else {
                "partial"
            },
            if c.high_update_cost { "high" } else { "low" },
            if c.dynamic { "dynamic" } else { "static" },
            tick(c.point_screening),
        );
    }
}

/// Fig 6(a) — cumulative response time of the five indexing approaches over
/// a random range-select workload with zero workload knowledge and zero
/// idle time (§5.1). Expected shape: scans grow linearly and end highest;
/// offline pays a huge first query then stays flat; online pays at query
/// N/10+1; adaptive improves continuously; holistic tracks adaptive but
/// converges ~2× lower.
fn fig06a_cumulative(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 6));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 60).generate();
    let series: Vec<(&str, Vec<f64>)> = [
        ("scan", Kind::Scan),
        ("offline", Kind::Offline),
        ("online", Kind::Online),
        ("adaptive", Kind::pvdc(env.threads)),
        ("holistic", Kind::holistic(env.threads)),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let times = run(kind, env, &data, &queries);
        (name, cumulative(&times).into_iter().map(secs).collect())
    })
    .collect();

    println!("query,scan,offline,online,adaptive,holistic");
    for i in sample_indices(env.queries, 40) {
        print!("{}", i + 1);
        for (_, s) in &series {
            print!(",{:.6}", s[i]);
        }
        println!();
    }
    println!("# totals:");
    for (name, s) in &series {
        println!("# total,{name},{:.6}", s.last().copied().unwrap_or(0.0));
    }
}

/// Prints the first / next 9 / next 90 / rest buckets of two series.
fn print_buckets(adaptive: &[Duration], holistic: &[Duration]) {
    println!("bucket,adaptive,holistic");
    for ((label, a), (_, h)) in buckets(adaptive).iter().zip(&buckets(holistic)) {
        println!("{label},{a:.6},{h:.6}");
    }
}

/// Fig 6(b) — response-time breakdown: the first query, the next 9, the
/// next 90 and the rest, adaptive vs holistic indexing (§5.1).
fn fig06b_breakdown(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 6));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 60).generate();
    let adaptive = run(Kind::pvdc(env.threads), env, &data, &queries);
    let holistic = run(Kind::holistic(env.threads), env, &data, &queries);
    print_buckets(&adaptive, &holistic);
    println!("# total,adaptive,{:.6}", secs(total(&adaptive)));
    println!("# total,holistic,{:.6}", secs(total(&holistic)));
}

/// Fig 6(c) — cumulative number of index partitions across all adaptive
/// indices as the query sequence evolves, adaptive vs holistic (§5.1):
/// background refinement keeps cracking while queries run.
fn fig06c_partitions(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 6));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 60).generate();

    let adaptive = AdaptiveEngine::new(
        data.clone(),
        CrackMode::Pvdc {
            threads: env.threads,
        },
    );
    let adaptive_pieces: Vec<usize> = queries
        .iter()
        .map(|q| {
            adaptive.execute(q);
            adaptive.total_pieces()
        })
        .collect();
    let holistic = HolisticEngine::new(data, HolisticEngineConfig::split_half(env.threads));
    let holistic_pieces: Vec<usize> = queries
        .iter()
        .map(|q| {
            holistic.execute(q);
            holistic.total_pieces()
        })
        .collect();
    holistic.stop();

    println!("query,adaptive_pieces,holistic_pieces");
    for i in sample_indices(env.queries, 40) {
        println!("{},{},{}", i + 1, adaptive_pieces[i], holistic_pieces[i]);
    }
    println!(
        "# final: adaptive={} holistic={}",
        adaptive_pieces.last().unwrap_or(&0),
        holistic_pieces.last().unwrap_or(&0)
    );
}

/// Fig 6(d) — idle-CPU utilisation: total worker response time and number
/// of activated workers per tuning cycle (§5.1). The first activations are
/// expensive (big pieces); later cycles are cheap as the indices converge.
fn fig06d_workers(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 6));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 60).generate();
    let engine = HolisticEngine::new(data, HolisticEngineConfig::split_half(env.threads));
    run_per_query(&engine, &queries);
    let cycles = engine.stop();

    println!("cycle,workers,worker_time_total,wall,refinements,busy_skips");
    for (i, c) in cycles.iter().enumerate() {
        println!(
            "{},{},{:.6},{:.6},{},{}",
            i + 1,
            c.workers,
            secs(c.worker_time_total),
            secs(c.wall),
            c.refinements,
            c.busy
        );
    }
    let total_ref: u64 = cycles.iter().map(|c| c.refinements).sum();
    println!(
        "# activations={} total_refinements={total_ref}",
        cycles.len()
    );
}

/// Fig 7 — distributing the hardware contexts between user queries and
/// holistic workers (§5.1): half the contexts to user queries and the rest
/// to workers beats every context on parallel query-driven cracking.
/// Labels follow the paper: `u{U}w{N}x{T}` = U user contexts, N workers of
/// T threads each.
fn fig07_thread_split(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 7));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 70).generate();
    let t = env.threads;

    println!("config,total_seconds");
    // All contexts to user queries: plain PVDC, no holistic workers.
    println!("u{t},{:.6}", run_secs(Kind::pvdc(t), env, &data, &queries));

    // Splits: (user contexts, workers, threads per worker).
    let mut splits: Vec<(usize, usize, usize)> = Vec::new();
    if t >= 4 {
        splits.push((t - 2, 2, 1));
        splits.push((t / 2, t / 2, 1));
        splits.push((t / 2, 1, t / 2));
        if t / 2 >= 4 {
            splits.push((t / 2, t / 4, 2));
        }
        splits.push((2, t - 2, 1));
    } else {
        splits.push((t / 2, t / 2, 1));
    }
    for (user, workers, wt) in splits {
        let mut cfg = HolisticEngineConfig::split_half(t);
        cfg.user_threads = user.max(1);
        cfg.holistic.worker_threads = wt.max(1);
        cfg.holistic.max_workers = Some(workers.max(1));
        let seconds = run_secs(Kind::Holistic(cfg), env, &data, &queries);
        println!("u{user}w{workers}x{wt},{seconds:.6}");
    }
}

/// Fig 8 — per-query response time of adaptive indexing on one attribute:
/// the first queries reorganise big partitions; the curve collapses as
/// pieces shrink (§5.1).
fn fig08_per_query(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(1, env.n, env.domain, 8));
    let queries = WorkloadSpec::random(1, env.queries.min(100), env.domain, 80).generate();
    let times = run(Kind::pvdc(env.threads), env, &data, &queries);
    println!("query,seconds");
    for (i, t) in times.iter().enumerate() {
        println!("{},{:.6}", i + 1, secs(*t));
    }
    let first10: f64 = times.iter().take(10).map(|&d| secs(d)).sum();
    let last10: f64 = times.iter().rev().take(10).map(|&d| secs(d)).sum();
    println!("# first10={first10:.6} last10={last10:.6}");
}

/// Fig 9 — idle time before query processing (§5.1): holistic indexing
/// fills `C_potential` with speculative indices and refines them before
/// the first query arrives; adaptive indexing cannot use the idle period.
/// The benefit shows at the *start* of the workload.
fn fig09_idle_time(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 9));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 90).generate();
    let adaptive = run(Kind::pvdc(env.threads), env, &data, &queries);

    // Speculative indices on every attribute, refined during the idle
    // period before the first query.
    let engine = HolisticEngine::new(data, HolisticEngineConfig::split_half(env.threads));
    let attrs: Vec<usize> = (0..env.attrs).collect();
    engine.add_potential(&attrs);
    std::thread::sleep(Duration::from_millis(env.idle_ms));
    let pieces_before_queries = engine.total_pieces();
    let holistic = run_per_query(&engine, &queries);
    engine.stop();

    print_buckets(&adaptive, &holistic);
    println!("# pieces_prepared_during_idle={pieces_before_queries}");
    println!("# total,adaptive,{:.6}", secs(total(&adaptive)));
    println!("# total,holistic,{:.6}", secs(total(&holistic)));
}

/// Fig 10 — the five workload patterns: predicate value against query
/// sequence for Random, Skewed, Periodic, Sequential and the (synthetic)
/// SkyServer trace (§5.3).
fn fig10_patterns(env: &BenchEnv) {
    println!("workload,query,predicate_lo");
    let n = env.queries.min(200);
    for p in Pattern::SYNTHETIC {
        let spec = WorkloadSpec {
            pattern: p,
            attr_dist: AttrDist::Uniform,
            n_attrs: 1,
            n_queries: n,
            domain: env.domain,
            seed: 10,
        };
        for (i, q) in spec.generate().iter().enumerate() {
            println!("{},{},{}", p.label(), i + 1, q.lo);
        }
    }
    let sky = SkyServerSpec {
        n_queries: env.queries.max(1_000),
        domain: env.domain,
        ..Default::default()
    }
    .generate();
    for i in sample_indices(sky.len(), 200) {
        println!("SkyServer,{},{}", i + 1, sky[i].lo);
    }
}

/// Fig 11 — holistic indexing vs the multi-core adaptive-indexing
/// baselines (PVDC, PVSDC, mP-CCGI) while varying the number of cores
/// (§5.2), plus the same holistic split over `HOLIX_SHARDS` range shards
/// per attribute. Everything improves with more cores; holistic most,
/// because it stays active between and during queries.
fn fig11_multicore(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 11));
    let queries = WorkloadSpec::random(env.attrs, env.queries, env.domain, 110).generate();
    let cores: Vec<usize> = [2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&c| c <= 4 || c <= env.threads)
        .collect();

    println!("cores,mp_ccgi,pvdc,pvsdc,holistic,holistic_sharded,hi_label");
    for c in cores {
        let cols: Vec<ChunkedCrackerColumn> = (0..data.attrs())
            .map(|a| ChunkedCrackerColumn::build(&format!("a{a}"), data.column(a), c, 6))
            .collect();
        let (_, ccgi) = time(|| {
            for q in &queries {
                std::hint::black_box(cols[q.attr].select(Predicate::range(q.lo, q.hi)));
            }
        });
        let pvdc = run_secs(Kind::pvdc(c), env, &data, &queries);
        let pvsdc = run_secs(Kind::pvsdc(c), env, &data, &queries);
        // Half the cores to user queries, half to workers (the best split
        // per §5.2); the sharded point runs the same split over S range
        // shards, whose per-shard locks stop concurrent cracks on one
        // attribute from serialising on one column.
        let user = (c / 2).max(1);
        let workers = (c - user).max(1);
        let mut cfg = HolisticEngineConfig::split_half(c);
        cfg.user_threads = user;
        cfg.holistic.max_workers = Some(workers);
        let sharded = HolisticEngineConfig {
            shards: env.shards,
            ..cfg.clone()
        };
        let hi = run_secs(Kind::Holistic(cfg), env, &data, &queries);
        let hi_sharded = run_secs(Kind::Holistic(sharded), env, &data, &queries);
        println!(
            "{c},{:.6},{pvdc:.6},{pvsdc:.6},{hi:.6},{hi_sharded:.6},u{user}w{workers}s{}",
            secs(ccgi),
            env.shards
        );
    }
}

/// Fig 12 — robustness across workload patterns (§5.3): PVDC blows up on
/// Sequential/Skewed (big unindexed pieces), PVSDC repairs most of it,
/// holistic wins everywhere because its refinements span the whole domain
/// and keep running.
fn fig12_robustness(env: &BenchEnv) {
    // SkyServer: one attribute, more queries (paper: 10⁴ vs 10³).
    let workloads = pattern_workloads(env, env.queries, env.queries * 4, 12);
    println!("workload,pvdc,pvsdc,holistic");
    for (label, attrs, queries) in &workloads {
        let data = Dataset::new(uniform_table(*attrs, env.n, env.domain, 120));
        let pvdc = run_secs(Kind::pvdc(env.threads), env, &data, queries);
        let pvsdc = run_secs(Kind::pvsdc(env.threads), env, &data, queries);
        let hi = run_secs(Kind::holistic(env.threads), env, &data, queries);
        println!("{label},{pvdc:.6},{pvsdc:.6},{hi:.6}");
    }
}

/// Fig 13 — more benefits with complex schemas (§5.4): 5–10 attributes
/// under {random, skewed} attribute distributions × {random, periodic}
/// value patterns; PVDC, PVSDC and holistic indexing under all four
/// index-decision strategies W1–W4. Holistic's edge grows with the
/// attribute count; W4 (random) is robust on periodic values.
fn fig13_schemas(env: &BenchEnv) {
    // This experiment multiplies many configurations; shrink per-config work.
    let n = env.n / 2;
    let n_queries = env.queries / 2;

    println!("attr_dist,value_pattern,attrs,pvdc,pvsdc,hi_w1,hi_w2,hi_w3,hi_w4");
    for (attr_dist, dist) in [
        (AttrDist::Uniform, "random_attrs"),
        (AttrDist::Skewed, "skewed_attrs"),
    ] {
        for pattern in [Pattern::Random, Pattern::Periodic] {
            for attrs in [5usize, 6, 7, 8, 9, 10] {
                let data = Dataset::new(uniform_table(attrs, n, env.domain, 13));
                let queries = WorkloadSpec {
                    pattern,
                    attr_dist,
                    n_attrs: attrs,
                    n_queries,
                    domain: env.domain,
                    seed: 130,
                }
                .generate();
                print!(
                    "{dist},{},{attrs},{:.6},{:.6}",
                    pattern.label(),
                    run_secs(Kind::pvdc(env.threads), env, &data, &queries),
                    run_secs(Kind::pvsdc(env.threads), env, &data, &queries)
                );
                for strategy in Strategy::ALL {
                    let mut cfg = HolisticEngineConfig::split_half(env.threads);
                    cfg.holistic.strategy = strategy;
                    print!(
                        ",{:.6}",
                        run_secs(Kind::Holistic(cfg), env, &data, &queries)
                    );
                }
                println!();
            }
        }
    }
}

/// Fig 14 — TPC-H Q1, Q6 and Q12 (§5.6): 30 random variants per query type
/// against plain scans, pre-sorted projections, sideways cracking and
/// holistic indexing. The first sideways/holistic query pays the map-copy
/// cost, then both track (or beat) the pre-sorted engine — whose
/// pre-sorting cost the curves exclude and which is printed separately.
fn fig14_tpch(env: &BenchEnv) {
    let db = Arc::new(TpchDb::new(generate(env.tpch_sf, 14)));
    println!(
        "# lineitem_rows={} orders_rows={}",
        db.li.len(),
        db.orders.len()
    );
    let scan = ScanTpch::new(Arc::clone(&db));
    let (presorted, presort_cost) = time(|| PresortedTpch::new(Arc::clone(&db)));
    println!("# presort_cost_seconds={:.6}", secs(presort_cost));
    let (sideways, sideways_build) = time(|| SidewaysTpch::new(Arc::clone(&db)));
    println!("# sideways_map_build_seconds={:.6}", secs(sideways_build));
    let holistic = HolisticTpch::new(Arc::clone(&db), 140);
    let engines: [&dyn TpchEngine; 4] = [&scan, &presorted, &sideways, &holistic];

    let variants = 30usize;
    let (q1, q6, q12) = (
        q1_variants(variants, 141),
        q6_variants(variants, 142),
        q12_variants(variants, 143),
    );
    println!("query,engine,variant,seconds");
    let series = |label: &str, query: &dyn Fn(&dyn TpchEngine, usize)| {
        for e in engines {
            for v in 0..variants {
                let (_, d) = time(|| query(e, v));
                println!("{label},{},{},{:.6}", e.name(), v + 1, secs(d));
            }
        }
    };
    series("Q1", &|e, v| {
        std::hint::black_box(e.q1(q1[v]));
    });
    series("Q6", &|e, v| {
        std::hint::black_box(e.q6(q6[v]));
    });
    series("Q12", &|e, v| {
        std::hint::black_box(e.q12(q12[v]));
    });
}

/// Fig 15 — sweep of `x`, the refinements each holistic worker performs
/// per activation (§5.5): more refinements per worker help until the
/// indices converge (the paper settles on x = 16).
fn fig15_x_sweep(env: &BenchEnv) {
    let workloads = pattern_workloads(env, env.queries / 2, env.queries, 15);
    println!("workload,pvdc,pvsdc,x1,x2,x4,x8,x16,x32");
    for (label, attrs, queries) in &workloads {
        let data = Dataset::new(uniform_table(*attrs, env.n / 2, env.domain, 150));
        let pvdc = run_secs(Kind::pvdc(env.threads), env, &data, queries);
        let pvsdc = run_secs(Kind::pvsdc(env.threads), env, &data, queries);
        print!("{label},{pvdc:.6},{pvsdc:.6}");
        for x in [1usize, 2, 4, 8, 16, 32] {
            let mut cfg = HolisticEngineConfig::split_half(env.threads);
            cfg.holistic.refinements_per_worker = x;
            print!(",{:.6}", run_secs(Kind::Holistic(cfg), env, &data, queries));
        }
        println!();
    }
}

/// Fig 16 — updates (§5.7): 500 range selects interleaved with 500 inserts
/// under the HFLV and LFHV scenarios, single-threaded adaptive indexing vs
/// holistic indexing with one worker that refines (and merges pending
/// inserts) only during the idle gap after the 10th query. Holistic keeps
/// its ~2× advantage: background refinements merge the pending inserts
/// instead of future queries.
fn fig16_updates(env: &BenchEnv) {
    let base = uniform_column(env.n, env.domain, 160);
    let gap = Duration::from_millis(env.idle_ms);
    println!("scenario,adaptive,holistic");
    for scenario in [
        UpdateScenario::HighFrequencyLowVolume,
        UpdateScenario::LowFrequencyHighVolume,
    ] {
        let ops = update_stream(scenario, 500, 500, env.domain, 161);
        let adaptive = run_stream(&base, &ops, None);
        let holistic = run_stream(&base, &ops, Some(gap));
        println!("{},{adaptive:.6},{holistic:.6}", scenario.label());
    }
}

/// Seconds of query and insert work in `ops`; with `idle_refine`, one
/// worker spends the idle gap after the 10th query refining the index
/// (merging pending updates along the way).
fn run_stream(base: &[i64], ops: &[Op], idle_refine: Option<Duration>) -> f64 {
    let col = CrackerColumn::from_base("a", base);
    let mut scratch = CrackScratch::new();
    let mut rng = SmallRng::seed_from_u64(16);
    let mut next_row = base.len() as RowId;
    let mut queries_done = 0usize;
    let mut busy = Duration::ZERO;

    for op in ops {
        match op {
            Op::Query(q) => {
                if queries_done == 10 {
                    // The paper's 20-second idle gap (scaled): only the
                    // holistic variant exploits it. Refinement stops at the
                    // optimal status (average piece ≤ |L1|), like a worker
                    // whose index moved to C_optimal.
                    if let Some(gap) = idle_refine {
                        let l1_values = HolisticConfig::default().l1_values();
                        let t0 = std::time::Instant::now();
                        while t0.elapsed() < gap && col.avg_piece_len() > l1_values {
                            col.refine_random(&mut rng, &mut scratch, 8);
                        }
                    }
                }
                let (_, d) = time(|| {
                    std::hint::black_box(col.select(Predicate::range(q.lo, q.hi), &mut scratch));
                });
                busy += d;
                queries_done += 1;
            }
            Op::InsertBatch(vals) => {
                let (_, d) = time(|| {
                    for &v in vals {
                        col.queue_insert(v, next_row);
                        next_row += 1;
                    }
                });
                busy += d;
            }
        }
    }
    secs(busy)
}

/// Fig 17 — varying the number of concurrent clients (§5.8), driven
/// through the `holix-server` service layer (closed-loop sessions over a
/// dispatcher pool): holistic indexing helps most with few clients; as
/// clients saturate the contexts, the load monitor scales workers down and
/// holistic converges to PVDC.
fn fig17_clients(env: &BenchEnv) {
    let data = Dataset::new(uniform_table(env.attrs, env.n, env.domain, 17));
    let queries = WorkloadSpec::random(env.attrs, env.queries * 2, env.domain, 170).generate();
    let t = env.threads;
    let mut clients_list = vec![1usize, 2, 4];
    if t >= 8 {
        clients_list.push(8);
    }
    if t >= 16 {
        clients_list.extend([16, 32]);
    }

    println!("clients,pvdc,holistic,hi_label");
    for clients in clients_list {
        // PVDC: each client's query cracks with its share of the contexts.
        let pvdc = Arc::from(Kind::pvdc((t / clients).max(1)).build(env, &data));
        let (pvdc_wall, _) = run_clients(pvdc, &queries, clients);

        // Holistic: user queries take half the per-client share; the daemon
        // sees the remaining contexts through the accountant and scales
        // workers automatically.
        let user = (t / (2 * clients)).max(1);
        let mut cfg = HolisticEngineConfig::split_half(t);
        cfg.user_threads = user;
        let engine = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let (hi_wall, _) = run_clients(
            Arc::clone(&engine) as Arc<dyn QueryEngine>,
            &queries,
            clients,
        );
        let cycles = engine.stop();
        let max_workers = cycles.iter().map(|c| c.workers).max().unwrap_or(0);
        println!(
            "{clients},{:.6},{:.6},u{user}w{max_workers}",
            secs(pvdc_wall),
            secs(hi_wall)
        );
    }
}
