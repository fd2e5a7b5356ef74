//! The measurement loop shared by all workloads, and the run's report.
//!
//! A run is: generate inputs (untimed), then rounds until the requested
//! seconds have passed — each round a timed set-up, a fixed idle window
//! and one timed, fixed-size operation block (a "slice"). End-to-end timings
//! take the quiet side of the slices (see [`Report::end_to_end`]) and are
//! printed with the slices' IQR/median, so a noisy run shows in its own
//! output.

use crate::ops::{Op, Trace};
use crate::stats::{iqr_share, median, percentile, quartile, steady_block_ns};
use std::time::{Duration, Instant};

/// The fixed pause that closes every warm-up ("wait until quiet" would
/// make the daemon's head start depend on the machine's mood).
pub const IDLE_WINDOW: Duration = Duration::from_millis(200);

/// `--seconds` when none is given at full scale; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Slices needed before the clock may end the measured phase.
pub const MIN_SLICES: usize = 3;

/// Span buffer capacity per recording thread.
pub const SPAN_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke sizes: the suite finishes in under 30 s.
    Tiny,
    /// The frozen sizes the bounds were calibrated on.
    Full,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes `<workload>.spans.jsonl` (nowhere if
    /// `None`).
    pub out_dir: Option<std::path::PathBuf>,
}

/// One timed slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall: Duration,
    pub ops: u64,
    pub failed: u64,
    pub p50_ns: u32,
    pub p95_ns: u32,
    /// Latency samples strictly beyond the p95 rank.
    pub beyond_p95: usize,
    /// Process CPU seconds spent during the slice.
    pub cpu_s: f64,
    /// Whether spans were recorded during this slice.
    pub traced: bool,
}

impl Slice {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Operations per chunk: the block's clock is read off every this many
/// operations (see [`crate::stats::steady_block_ns`]).
pub const CHUNK_OPS: usize = 64;

/// One block's measurements — a latency per read, and the clock at every
/// chunk boundary — in buffers that never allocate inside a slice.
#[derive(Debug)]
pub struct Samples {
    latencies: Vec<u32>,
    /// Nanoseconds since the block began, at the end of each chunk.
    marks: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(ops: usize) -> Self {
        // Fill-then-clear: the pages stay faulted in.
        let mut latencies = vec![0u32; ops];
        let mut marks = vec![0u64; ops / CHUNK_OPS + 1];
        latencies.clear();
        marks.clear();
        Samples { latencies, marks }
    }

    pub fn clear(&mut self) {
        self.latencies.clear();
        self.marks.clear();
    }

    /// Notes that operation number `done` (counting from 1) of the block
    /// has finished, `elapsed` after the block began.
    #[inline]
    pub fn tick(&mut self, done: usize, elapsed: Duration) {
        if done.is_multiple_of(CHUNK_OPS) {
            debug_assert!(self.marks.len() < self.marks.capacity());
            self.marks.push(elapsed.as_nanos() as u64);
        }
    }

    /// Duration of each full chunk.
    pub fn chunk_ns(&self) -> Vec<u64> {
        let mut prev = 0;
        self.marks
            .iter()
            .map(|&m| {
                let d = m - prev;
                prev = m;
                d
            })
            .collect()
    }

    /// Appends one latency (saturating at `u32::MAX` ns ≈ 4.3 s). Must stay
    /// within the capacity the buffer was built with.
    #[inline]
    pub fn push(&mut self, latency: Duration) {
        debug_assert!(self.latencies.len() < self.latencies.capacity());
        self.latencies
            .push(latency.as_nanos().min(u32::MAX as u128) as u32);
    }

    pub fn latencies(&self) -> &[u32] {
        &self.latencies
    }

    /// Appends another buffer's latencies; the chunk clock is taken from
    /// the first buffer appended (generator threads run the same load, so
    /// one of them times the block for all).
    pub fn extend_from(&mut self, other: &Samples) {
        assert!(self.latencies.len() + other.latencies.len() <= self.latencies.capacity());
        if self.latencies.is_empty() {
            self.marks.extend_from_slice(&other.marks);
        }
        self.latencies.extend_from_slice(&other.latencies);
    }

    /// `(p50, p95, samples beyond p95)`; reorders the buffer.
    pub fn percentiles(&mut self) -> (u32, u32, usize) {
        let (p50, _) = percentile(&mut self.latencies, 0.50);
        let (p95, beyond) = percentile(&mut self.latencies, 0.95);
        (p50, p95, beyond)
    }
}

/// Runs `ops` back to back, sampling each read's latency and comparing its
/// answer with the oracle's inline. Nothing in here allocates, prints or
/// touches a file. Returns `(wall, failed)`.
#[inline]
pub fn timed_block(
    ops: &[Op],
    first_op_id: u32,
    samples: &mut Samples,
    mut trace: Option<&mut Trace<'_>>,
    mut apply: impl FnMut(&Op, u32, Option<&mut Trace<'_>>) -> u64,
) -> (Duration, u64) {
    assert!(samples.latencies.capacity() - samples.latencies.len() >= ops.len());
    let mut failed = 0u64;
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let start = Instant::now();
        let got = apply(op, first_op_id.wrapping_add(i as u32), trace.as_deref_mut());
        let end = Instant::now();
        if op.kind.is_read() {
            samples.push(end - start);
            failed += (got != op.expected) as u64;
        }
        samples.tick(i + 1, end - t0);
    }
    (t0.elapsed(), failed)
}

/// A reported value; `spread` is the slices' IQR/median where there are
/// slices behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            spread: None,
        }
    }

    /// A lower-is-better timing over slices: their **first quartile**. The
    /// host only ever takes time away, so the quiet side of the slices is
    /// the system and the other side is the neighbours; a quartile rather
    /// than the minimum, so one lucky slice does not set the number.
    fn over_slices(name: &'static str, unit: &'static str, values: &[f64]) -> Self {
        Metric {
            name,
            value: quartile(values, 1),
            unit,
            spread: Some(iqr_share(values)),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub slices: Vec<Slice>,
    pub setup_s: Vec<f64>,
    /// Chunk durations of every untraced round's block.
    pub chunk_ns: Vec<Vec<u64>>,
    /// Operations those chunks cover, over all generator threads.
    pub chunk_ops: u64,
    /// `IndexSpace::bytes_used()` ÷ base data bytes at the end of the run.
    pub space_ratio: f64,
    pub per_layer: Vec<Metric>,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn record(&mut self, slice: Slice) {
        self.attempted += slice.ops;
        self.failed += slice.failed;
        self.slices.push(slice);
    }

    /// The end-to-end metrics, from untraced slices only. Timings take the
    /// quiet side of the rounds: the first quartile over slices, and for
    /// `ops_per_s` the block's operations over its duration with every
    /// chunk at its first-quartile duration over the rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let plain: Vec<&Slice> = self.slices.iter().filter(|s| !s.traced).collect();
        let of = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { plain.iter().map(|s| f(s)).collect() };
        vec![
            Metric::over_slices("setup_s", "s", &self.setup_s),
            Metric {
                name: "ops_per_s",
                value: self.chunk_ops as f64 * 1e9 / steady_block_ns(&self.chunk_ns),
                unit: "1/s",
                spread: Some(iqr_share(&of(&Slice::ops_per_s))),
            },
            Metric::over_slices("p50_us", "us", &of(&|s| s.p50_ns as f64 / 1e3)),
            Metric::over_slices("p95_us", "us", &of(&|s| s.p95_ns as f64 / 1e3)),
            Metric::over_slices(
                "cpu_us_per_op",
                "us",
                &of(&|s| s.cpu_s * 1e6 / s.ops as f64),
            ),
            Metric::new("space_ratio", self.space_ratio, "ratio"),
            Metric::new("rss_peak_mb", rss_peak_mb(), "MB"),
        ]
    }

    /// Traced ÷ untraced throughput over the alternating slices of a traced
    /// run.
    pub fn trace_overhead_ratio(&self) -> f64 {
        let rate = |traced: bool| -> Option<f64> {
            let v: Vec<f64> = self
                .slices
                .iter()
                .filter(|s| s.traced == traced)
                .map(Slice::ops_per_s)
                .collect();
            (!v.is_empty()).then(|| median(&v))
        };
        match (rate(true), rate(false)) {
            (Some(t), Some(u)) if u > 0.0 => t / u,
            _ => 0.0,
        }
    }

    pub fn min_beyond_p95(&self) -> usize {
        self.slices.iter().map(|s| s.beyond_p95).min().unwrap_or(0)
    }
}

/// CPU time this process (all threads, living or joined) has consumed, in
/// seconds, from the `utime` and `stime` fields of `/proc/self/stat`. The
/// kernel excludes time the hypervisor gave to someone else, so on a shared
/// machine this moves far less between runs than wall time does.
pub fn process_cpu_s() -> f64 {
    /// `sysconf(_SC_CLK_TCK)`; 100 on every Linux ABI this runs on.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line, so 12th and 13th from here.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Decides, between rounds, whether another one starts: the minimum
/// number always run; after that a round starts only if one as long as the
/// longest so far would still end inside the requested seconds.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    budget: Duration,
    last_check: Instant,
    longest_round: Duration,
}

impl Clock {
    pub fn start(seconds: f64) -> Self {
        let now = Instant::now();
        Clock {
            start: now,
            budget: Duration::from_secs_f64(seconds),
            last_check: now,
            longest_round: Duration::ZERO,
        }
    }

    /// Call once per loop iteration, before the round it admits.
    pub fn another(&mut self, rounds_done: usize, min_rounds: usize) -> bool {
        let now = Instant::now();
        if rounds_done > 0 {
            self.longest_round = self.longest_round.max(now - self.last_check);
        }
        self.last_check = now;
        rounds_done < min_rounds || now - self.start + self.longest_round <= self.budget
    }
}
