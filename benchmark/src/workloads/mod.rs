//! The four workloads and the round loop they share.
//!
//! Every slice is a **round** on fresh state: build the system and replay
//! the warm-up stream (timed — one `setup_s` sample), pause for a fixed
//! idle window, then run the round's fixed operation block (timed — one
//! slice). Rounds repeat the *same* seed-generated operations until the
//! requested seconds have passed. Fresh state per round is what makes the
//! slices repeats of one quantity: on a long-lived engine every workload
//! drifts (piece tables grow, the index-space registry only appends), and
//! a median over drifting slices would depend on how many of them fit.

pub mod analytic_budget;
pub mod cold_explore;
pub mod service_steady;
pub mod update_churn;

use crate::layers::{per_layer, read_counters, BedStats, LayerInputs, COUNTERS};
use crate::ops::{apply_engine, Stream, Trace};
use crate::runner::{
    process_cpu_s, timed_block, Clock, Report, RunConfig, Samples, Slice, CHUNK_OPS, IDLE_WINDOW,
    MIN_SLICES, SPAN_CAPACITY,
};
use crate::spans::{write_jsonl, Recorder};
use holix_engine::{HolisticEngine, HolisticEngineConfig};
use holix_planner::CostModel;
use std::time::{Duration, Instant};

/// Name, and why the workload exists (also the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_explore",
        "fresh engine, Zipf attributes, cracking ranges: crack kernels, first-touch copy and the idle-core daemon do the work; server and planner do none",
    ),
    (
        "service_steady",
        "converged index behind QueryService, pipelined closed-loop sessions on hot regions: queue, tickets, batching and per-submission pricing dominate; cracking is exact hits",
    ),
    (
        "update_churn",
        "reads beside queue_insert/queue_delete on the same cracking layer: Ripple merges, snapshot refresh and filter upkeep do the work, nowhere else",
    ),
    (
        "analytic_budget",
        "wide snapshot scans and conjunctions under a storage budget of half the base data: compressed scans, morphing and eviction; the one workload where space fights speed",
    ),
];

pub fn run(workload: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match workload {
        "cold_explore" => run_rounds(&cold_explore::new(cfg), cfg),
        "service_steady" => run_rounds(&service_steady::ServiceSteady::new(cfg), cfg),
        "update_churn" => run_rounds(&update_churn::new(cfg), cfg),
        "analytic_budget" => run_rounds(&analytic_budget::new(cfg), cfg),
        _ => return None,
    })
}

/// Hardware contexts: the generator thread count and the engine's
/// `total_contexts` (the load shape is "as many callers as cores").
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The engine configuration every workload starts from: half the contexts
/// to user queries, 4 shards per attribute, point filters on, the
/// replanner thread off (a timing-noise source; shard plans stay frozen),
/// the tuning daemon on — it is the system.
pub fn engine_config() -> HolisticEngineConfig {
    let mut cfg = HolisticEngineConfig::split_half_sharded(nproc().max(2), 4);
    cfg.point_filters = true;
    cfg.replan = false;
    cfg
}

/// What a workload provides to the round loop.
pub trait Workload {
    /// The freshly built system one round runs against.
    type Bed;

    fn name(&self) -> &'static str;

    /// Bytes of base data (`space_ratio`'s denominator).
    fn base_bytes(&self) -> usize;

    /// Operations in one timed block.
    fn block_ops(&self) -> usize;

    /// Operations one set-up replays as warm-up.
    fn warmup_ops(&self) -> usize;

    /// Builds the system and replays the warm-up stream; the whole call is
    /// one `setup_s` sample. Adds oracle mismatches to `failed`.
    fn setup(&self, failed: &mut u64) -> Self::Bed;

    /// Runs the timed block, leaving one latency sample per read in
    /// `samples`. Returns the block's wall time and its oracle mismatches.
    fn block(
        &self,
        bed: &Self::Bed,
        samples: &mut Samples,
        trace: Option<&mut Trace<'_>>,
    ) -> (Duration, u64);

    /// Read-only look at the bed after its block, then tear-down.
    fn finish(&self, bed: Self::Bed) -> BedStats;

    /// Sees the block's read latencies while they are still in operation
    /// order (before percentile selection reorders them).
    fn observe(&self, _latencies_ns: &[u32], _stats: &mut BedStats) {}

    /// Generator threads running the block side by side (each runs
    /// `block_ops() / lanes()` operations; the first one's chunk clock
    /// times the block).
    fn lanes(&self) -> usize {
        1
    }

    /// Trace one op in `mask + 1` (a power of two).
    fn trace_sample_mask(&self) -> u32 {
        0
    }
}

/// A single-client workload applied straight to the engine: the warm-up is
/// the head of the stream, the block is the rest.
pub struct Direct {
    pub name: &'static str,
    pub data: holix_engine::api::Dataset,
    pub stream: Stream,
    pub engine_cfg: HolisticEngineConfig,
    pub warmup_ops: usize,
    pub trace_sample_mask: u32,
    /// The block starts on an engine no query has touched: also report
    /// first-touch latency per attribute and the share of the block spent
    /// in its first 5% of operations.
    pub cold: bool,
}

impl Workload for Direct {
    type Bed = HolisticEngine;

    fn name(&self) -> &'static str {
        self.name
    }

    fn base_bytes(&self) -> usize {
        self.data.attrs() * self.data.rows() * std::mem::size_of::<i64>()
    }

    fn block_ops(&self) -> usize {
        self.stream.ops.len() - self.warmup_ops
    }

    fn warmup_ops(&self) -> usize {
        self.warmup_ops
    }

    fn setup(&self, failed: &mut u64) -> HolisticEngine {
        let engine = HolisticEngine::new(self.data.clone(), self.engine_cfg.clone());
        for (i, op) in self.stream.ops[..self.warmup_ops].iter().enumerate() {
            let got = apply_engine(&engine, &self.stream, op, i as u32, None);
            *failed += (op.kind.is_read() && got != op.expected) as u64;
        }
        engine
    }

    fn block(
        &self,
        engine: &HolisticEngine,
        samples: &mut Samples,
        trace: Option<&mut Trace<'_>>,
    ) -> (Duration, u64) {
        timed_block(
            &self.stream.ops[self.warmup_ops..],
            self.warmup_ops as u32,
            samples,
            trace,
            |op, id, t| apply_engine(engine, &self.stream, op, id, t),
        )
    }

    fn observe(&self, latencies_ns: &[u32], stats: &mut BedStats) {
        if !self.cold {
            return;
        }
        // A cold block is all reads: sample `k` is operation `k`.
        let block = &self.stream.ops[self.warmup_ops..];
        let mut seen = vec![false; self.data.attrs()];
        for (op, &ns) in block.iter().zip(latencies_ns) {
            if !std::mem::replace(&mut seen[op.attr as usize], true) {
                stats.first_touch_us.push(ns as f64 / 1e3);
            }
        }
        let sum = |l: &[u32]| l.iter().map(|&ns| ns as u64).sum::<u64>() as f64;
        let head = &latencies_ns[..latencies_ns.len() / 20];
        stats
            .head_share
            .push(sum(head) / sum(latencies_ns).max(1.0));
    }

    fn finish(&self, engine: HolisticEngine) -> BedStats {
        BedStats::of_engine(&engine, engine.stop())
    }

    fn trace_sample_mask(&self) -> u32 {
        self.trace_sample_mask
    }
}

/// Writes the spans to `<dir>/<workload>.spans.jsonl`.
fn write_spans(dir: &std::path::Path, workload: &str, rec: &Recorder, notes: &mut Vec<String>) {
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_jsonl(rec.spans(), &mut w)?;
            std::io::Write::flush(&mut w)
        });
    notes.push(match written {
        Ok(()) => format!(
            "{} spans written to {} ({} dropped at capacity)",
            rec.spans().len(),
            path.display(),
            rec.dropped()
        ),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

/// Rounds until the clock runs out; in a traced run every other round
/// records spans, so `trace.overhead_ratio` compares like with like.
pub fn run_rounds<W: Workload>(w: &W, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let block_ops = w.block_ops();
    let mut samples = Samples::with_capacity(block_ops);
    let mut rec = cfg
        .trace
        .then(|| Recorder::with_capacity(SPAN_CAPACITY, Instant::now()));
    let min_rounds = if cfg.trace {
        2 * MIN_SLICES
    } else {
        MIN_SLICES
    };

    let mut counters = [0u64; COUNTERS.len()];
    let mut measured = Duration::ZERO;
    let mut stats = BedStats::default();
    let mut clock = Clock::start(cfg.seconds);
    while clock.another(report.slices.len(), min_rounds) {
        let t0 = Instant::now();
        let mut failed = 0;
        let bed = w.setup(&mut failed);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        report.attempted += w.warmup_ops() as u64;
        report.failed += failed;
        std::thread::sleep(IDLE_WINDOW);

        let traced = cfg.trace && report.slices.len() % 2 == 1;
        holix_telemetry::set_trace_enabled(traced);
        let mut trace = match (&mut rec, traced) {
            (Some(rec), true) => Some(Trace {
                rec,
                sample_mask: w.trace_sample_mask(),
                model: CostModel::default(),
            }),
            _ => None,
        };
        samples.clear();
        let before = read_counters();
        let cpu_before = process_cpu_s();
        let (wall, failed) = w.block(&bed, &mut samples, trace.as_mut());
        let cpu_s = process_cpu_s() - cpu_before;
        let after = read_counters();
        holix_telemetry::set_trace_enabled(false);
        for (total, (a, b)) in counters.iter_mut().zip(after.iter().zip(before)) {
            *total += a.saturating_sub(b);
        }
        measured += wall;

        if !traced {
            let chunks = samples.chunk_ns();
            report.chunk_ops = (chunks.len() * CHUNK_OPS * w.lanes()) as u64;
            report.chunk_ns.push(chunks);
        }
        w.observe(samples.latencies(), &mut stats);
        let (p50_ns, p95_ns, beyond_p95) = samples.percentiles();
        report.record(Slice {
            wall,
            ops: block_ops as u64,
            failed,
            p50_ns,
            p95_ns,
            beyond_p95,
            cpu_s,
            traced,
        });
        stats.absorb(w.finish(bed));
    }
    report.space_ratio = stats.bytes_used_median() / w.base_bytes() as f64;

    if let Some(rec) = &rec {
        report.per_layer = per_layer(&LayerInputs {
            spans: rec.spans(),
            counters,
            wall: measured,
            ops: report.slices.iter().map(|s| s.ops).sum(),
            stats: &stats,
            trace_overhead_ratio: report.trace_overhead_ratio(),
            scale: cfg.scale,
        });
        if let Some(dir) = &cfg.out_dir {
            write_spans(dir, w.name(), rec, &mut report.notes);
        }
    }
    report
}
