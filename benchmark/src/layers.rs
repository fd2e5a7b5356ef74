//! Per-layer metrics of the traced run: benchmark-side spans, the public
//! counters of `holix_telemetry::registry()` read before and after the
//! measured phase, `HolisticEngine::cycles()`, the service's `StatsSummary`
//! and a few fixed-input kernel probes timed from here.

use crate::rng::Rng;
use crate::runner::{Metric, Scale};
use crate::spans::{layer_self_times, self_times, Name, Span};
use crate::stats::median;
use holix_core::CycleRecord;
use holix_cracking::{crack::crack_in_two, kernels, PointFilter};
use holix_engine::HolisticEngine;
use holix_parallel::partition::parallel_partition;
use holix_planner::CostModel;
use holix_server::StatsSummary;
use holix_storage::column::Column;
use holix_storage::select::{scan_stats, Predicate};
use holix_telemetry::registry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Registry counters sampled around every timed block.
pub const COUNTERS: [&str; 13] = [
    "cracking_cracks_total",
    "cracking_piece_splits_total",
    "cracking_ripple_merges_total",
    "cracking_ripple_merged_values_total",
    "cracking_filter_rebuilds_total",
    "cracking_snapshot_refreshes_total",
    "cracking_segment_morphs_total",
    "cracking_epoch_pins_total",
    "planner_republish_total",
    "engine_cycles_total",
    "engine_refinements_total",
    "engine_busy_aborts_total",
    "engine_worker_ns_total",
];

/// Current values of [`COUNTERS`].
pub fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| registry().counter(name).get())
}

/// What the round loop reads off each bed before dropping it: gauges are
/// kept per round (their median is reported), totals add up.
#[derive(Debug, Clone, Default)]
pub struct BedStats {
    pub bytes_used: Vec<f64>,
    pub budget_pressure: Vec<f64>,
    pub evicted_indexes: Vec<f64>,
    pub pieces: Vec<f64>,
    /// Every daemon cycle of every round's engine (whole life, not only
    /// the timed block: the ratio `workers_per_cycle` is what it feeds).
    pub cycles: Vec<CycleRecord>,
    /// Each round's service window, and the dispatcher thread count.
    pub service: Vec<StatsSummary>,
    pub service_workers: usize,
    pub model: Option<CostModel>,
    pub first_touch_us: Vec<f64>,
    pub head_share: Vec<f64>,
}

impl BedStats {
    /// Index-space gauges of an engine plus the cycle records its `stop()`
    /// returned.
    pub fn of_engine(engine: &HolisticEngine, cycles: Vec<CycleRecord>) -> Self {
        let space = engine.space();
        BedStats {
            bytes_used: vec![space.bytes_used() as f64],
            budget_pressure: vec![space.budget_pressure()],
            evicted_indexes: vec![space.membership_counts().3 as f64],
            pieces: vec![engine.total_pieces() as f64],
            cycles,
            ..BedStats::default()
        }
    }

    pub fn absorb(&mut self, other: BedStats) {
        self.bytes_used.extend(other.bytes_used);
        self.budget_pressure.extend(other.budget_pressure);
        self.evicted_indexes.extend(other.evicted_indexes);
        self.pieces.extend(other.pieces);
        self.cycles.extend(other.cycles);
        self.first_touch_us.extend(other.first_touch_us);
        self.head_share.extend(other.head_share);
        self.service.extend(other.service);
        self.service_workers = self.service_workers.max(other.service_workers);
        self.model = other.model.or(self.model);
    }

    /// Median index-space bytes over the rounds (0 before any round).
    pub fn bytes_used_median(&self) -> f64 {
        median_or_zero(&self.bytes_used)
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Everything the per-layer table is computed from.
pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    /// [`COUNTERS`] deltas summed over the timed blocks.
    pub counters: [u64; COUNTERS.len()],
    /// Wall time and operation count of the timed blocks.
    pub wall: Duration,
    pub ops: u64,
    pub stats: &'a BedStats,
    pub trace_overhead_ratio: f64,
    pub scale: Scale,
}

fn median_us(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = values.map(|ns| ns as f64 / 1e3).collect();
    median_or_zero(&v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, every name on every workload (0 where the layer
/// is bypassed), in the order `BENCHMARK.json` lists them.
pub fn per_layer(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    let selfs = self_times(inp.spans);
    let by_name = |name: Name| {
        inp.spans
            .iter()
            .zip(&selfs)
            .filter(move |(s, _)| s.name == name as u8)
    };
    let span_us = |name: Name| median_us(by_name(name).map(|(s, _)| s.duration()));
    let delta = |name: &str| {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a sampled counter");
        inp.counters[i] as f64
    };
    let stats = inp.stats;
    let ops = inp.ops as f64;

    // server — only `service_steady` goes through it.
    put("server.submit_us", span_us(Name::ServerSubmit), "us");
    put(
        "server.queue_wait_us",
        median_us(by_name(Name::ServerWait).map(|(_, &t)| t)),
        "us",
    );
    let served = inp.spans.iter().filter(|s| {
        s.name == Name::EngineExecute as u8
            && inp
                .spans
                .get(s.parent as usize)
                .is_some_and(|p| p.name == Name::ServerWait as u8)
    });
    put(
        "server.service_us",
        median_us(served.map(Span::duration)),
        "us",
    );
    let stat = |f: fn(&StatsSummary) -> u64| stats.service.iter().map(f).sum::<u64>() as f64;
    let completed = stat(|s| s.completed);
    put(
        "server.busy_frac",
        ratio(
            stat(|s| s.busy_ns),
            inp.wall.as_nanos() as f64 * stats.service_workers as f64,
        ),
        "ratio",
    );
    put(
        "server.queue_depth_peak",
        stats
            .service
            .iter()
            .map(|s| s.queue_depth_peak)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    put(
        "server.coalesce_ratio",
        if completed > 0.0 {
            (1.0 - stat(|s| s.executed) / completed).max(0.0)
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "server.containment_ratio",
        ratio(stat(|s| s.containment), completed),
        "ratio",
    );
    put(
        "server.screened_inline_ratio",
        ratio(stat(|s| s.screened_inline), completed),
        "ratio",
    );
    put(
        "server.snapshot_cutover_ratio",
        ratio(stat(|s| s.snapshot_cutover), completed),
        "ratio",
    );
    put(
        "server.decomposed_parts_per_query",
        ratio(stat(|s| s.decomposed_parts), stat(|s| s.decomposed)),
        "count",
    );
    put(
        "server.rejected_ratio",
        ratio(stat(|s| s.rejected), stat(|s| s.submitted + s.rejected)),
        "ratio",
    );

    // planner
    put("planner.estimate_us", span_us(Name::PlannerEstimate), "us");
    let residuals: Vec<f64> = registry()
        .trace()
        .snapshot()
        .iter()
        .filter(|t| t.predicted_ns > 0 && t.actual_ns > 0)
        .map(|t| t.residual_ns().unsigned_abs() as f64 / t.actual_ns as f64)
        .collect();
    put(
        "planner.residual_ratio",
        if residuals.is_empty() {
            0.0
        } else {
            median(&residuals)
        },
        "ratio",
    );
    put(
        "planner.ns_per_value",
        registry().float_gauge("planner_ns_per_value").get(),
        "ns",
    );
    put(
        "planner.decode_weight",
        stats.model.map_or(0.0, |m| m.decode_weight as f64),
        "count",
    );
    put(
        "planner.republish_total",
        delta("planner_republish_total"),
        "count",
    );

    // engine — median per call type, from spans around the direct calls.
    put("engine.execute_us", span_us(Name::EngineExecute), "us");
    put(
        "engine.execute_snapshot_us",
        span_us(Name::EngineSnapshot),
        "us",
    );
    put(
        "engine.execute_points_us",
        span_us(Name::EnginePoints),
        "us",
    );
    put(
        "engine.execute_conjunction_us",
        span_us(Name::EngineConjunction),
        "us",
    );
    put("engine.queue_insert_us", span_us(Name::EngineInsert), "us");
    put("engine.queue_delete_us", span_us(Name::EngineDelete), "us");
    put(
        "engine.first_touch_us",
        median_or_zero(&stats.first_touch_us),
        "us",
    );
    put(
        "engine.head_share",
        median_or_zero(&stats.head_share),
        "ratio",
    );
    put(
        "engine.pieces_final",
        median_or_zero(&stats.pieces),
        "count",
    );

    // core — the daemon's mirrored cycle counters over the timed blocks.
    let cycles = delta("engine_cycles_total");
    let refinements = delta("engine_refinements_total");
    let busy_s = delta("engine_worker_ns_total") / 1e9;
    let workers: usize = stats.cycles.iter().map(|c| c.workers).sum();
    put("core.cycles_total", cycles, "count");
    put("core.refinements_total", refinements, "count");
    put(
        "core.refinements_per_query",
        ratio(refinements, ops),
        "count",
    );
    put(
        "core.workers_per_cycle",
        ratio(workers as f64, stats.cycles.len() as f64),
        "count",
    );
    put("core.worker_busy_s", busy_s, "s");
    put(
        "core.daemon_share",
        ratio(busy_s, inp.wall.as_secs_f64()),
        "ratio",
    );
    put(
        "core.busy_aborts_total",
        delta("engine_busy_aborts_total"),
        "count",
    );
    put(
        "core.bytes_used_mb",
        stats.bytes_used_median() / (1 << 20) as f64,
        "MB",
    );
    put(
        "core.budget_pressure",
        median_or_zero(&stats.budget_pressure),
        "ratio",
    );
    put(
        "core.evicted_indexes",
        median_or_zero(&stats.evicted_indexes),
        "count",
    );

    // cracking — counters, then the fixed-input probes.
    let merges = delta("cracking_ripple_merges_total");
    put(
        "cracking.cracks_per_query",
        ratio(delta("cracking_cracks_total"), ops),
        "count",
    );
    put(
        "cracking.piece_splits_total",
        delta("cracking_piece_splits_total"),
        "count",
    );
    put("cracking.ripple_merges_total", merges, "count");
    put(
        "cracking.ripple_values_per_merge",
        ratio(delta("cracking_ripple_merged_values_total"), merges),
        "count",
    );
    put(
        "cracking.filter_rebuilds_total",
        delta("cracking_filter_rebuilds_total"),
        "count",
    );
    put(
        "cracking.snapshot_refreshes_total",
        delta("cracking_snapshot_refreshes_total"),
        "count",
    );
    put(
        "cracking.segment_morphs_total",
        delta("cracking_segment_morphs_total"),
        "count",
    );
    put(
        "cracking.epoch_pins_total",
        delta("cracking_epoch_pins_total"),
        "count",
    );
    let probes = Probes::run(inp.scale);
    put("cracking.crack_ns_per_value", probes.crack, "ns");
    put("cracking.unpack_ns_per_value", probes.unpack, "ns");
    put(
        "cracking.filter_count_ns_per_value",
        probes.filter_count,
        "ns",
    );
    put("cracking.bloom_probe_ns", probes.bloom, "ns");
    put("parallel.partition_ns_per_value", probes.partition, "ns");
    put("storage.scan_ns_per_value", probes.scan, "ns");

    // The layers' shares of all recorded self time, and what tracing cost.
    let layers = layer_self_times(inp.spans);
    let total: u64 = layers.iter().map(|(_, t)| t).sum();
    for (layer, name) in [
        ("bench", "bench.self_share"),
        ("server", "server.self_share"),
        ("engine", "engine.self_share"),
        ("planner", "planner.self_share"),
    ] {
        let t = layers.iter().find(|(l, _)| *l == layer).map_or(0, |l| l.1);
        put(name, ratio(t as f64, total as f64), "ratio");
    }
    put("trace.overhead_ratio", inp.trace_overhead_ratio, "ratio");
    out
}

/// Fixed-input kernel probes: the same inputs whatever `--seed` says, so
/// they compare two builds of the kernels and nothing else. Best of
/// [`PROBE_REPS`] runs each.
struct Probes {
    crack: f64,
    unpack: f64,
    filter_count: f64,
    bloom: f64,
    partition: f64,
    scan: f64,
}

const PROBE_REPS: usize = 3;

fn best_ns_per_item(items: usize, mut run: impl FnMut()) -> f64 {
    (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .fold(f64::INFINITY, f64::min)
}

impl Probes {
    fn run(scale: Scale) -> Probes {
        let n: usize = match scale {
            Scale::Tiny => 1 << 16,
            Scale::Full => 1 << 22,
        };
        let mut rng = Rng::new(0x5eed_0f9b_0b35, 0);
        let domain = 1i64 << 40;
        let values: Vec<i64> = (0..n).map(|_| rng.range(0, domain)).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let pivot = domain / 2;

        let crack = best_ns_per_item(n, || {
            let (mut v, mut r) = (values.clone(), rows.clone());
            black_box(crack_in_two(&mut v, &mut r, pivot));
        });
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let partition = best_ns_per_item(n, || {
            let (mut v, mut r) = (values.clone(), rows.clone());
            black_box(parallel_partition(&mut v, &mut r, pivot, threads));
        });
        // The clone is part of both timings above; time it alone and take
        // it back out.
        let clone = best_ns_per_item(n, || {
            black_box((values.clone(), rows.clone()));
        });

        let bits = 17u32;
        let packed = kernels::pack_bits(
            values.iter().map(|&v| v as u64 & ((1 << bits) - 1)),
            n,
            bits,
        );
        let unpack = best_ns_per_item(n, || {
            let mut acc = 0u64;
            kernels::decode_blocks(&packed, bits, n, |block| {
                acc = acc.wrapping_add(block.iter().sum::<u64>());
                true
            });
            black_box(acc);
        });
        let (lo, hi) = (domain / 4, domain / 4 * 3);
        let filter_count = best_ns_per_item(n, || {
            black_box(kernels::filter_count(&values, Some(lo), Some(hi)));
        });
        let column = Column::from_vec("probe", values.clone());
        let scan = best_ns_per_item(n, || {
            black_box(scan_stats(column.values(), Predicate::range(lo, hi)));
        });

        // Half the probed keys were inserted (even), half never (odd).
        let filter = PointFilter::with_capacity(n);
        for k in 0..n as i64 {
            filter.insert(2 * k);
        }
        let keys: Vec<i64> = (0..n).map(|_| rng.range(0, 2 * n as i64)).collect();
        let bloom = best_ns_per_item(n, || {
            black_box(keys.iter().filter(|&&k| filter.contains(k)).count());
        });

        Probes {
            crack: (crack - clone).max(0.0),
            unpack,
            filter_count,
            bloom,
            partition: (partition - clone).max(0.0),
            scan,
        }
    }
}
