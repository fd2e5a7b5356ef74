//! # holix-bench — shared infrastructure for the figure bed
//!
//! `benches/figures.rs` regenerates the tables and figures of the paper's
//! evaluation (§5) at laptop scale, one row of its figure table each,
//! selected by name (`cargo bench -p holix-bench --bench figures --
//! fig06a_cumulative`; no name runs them all in paper order), and prints
//! the same rows/series as CSV. Scale knobs come from the environment:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `HOLIX_N` | rows per attribute | `1 << 20` |
//! | `HOLIX_QUERIES` | queries per workload | `512` |
//! | `HOLIX_ATTRS` | attributes in the microbenchmark table | `10` |
//! | `HOLIX_THREADS` | hardware contexts to model | machine |
//! | `HOLIX_TPCH_SF` | TPC-H scale factor | `0.02` |
//! | `HOLIX_IDLE_MS` | scaled idle period (Fig 9/16) | `500` |
//! | `HOLIX_SHARDS` | horizontal shards per attribute (Fig 11's sharded series) | `4` |
//! | `HOLIX_METRICS` | process-wide metrics registry on/off (`0`/`false`/`off`/`no` disable; read by `holix-telemetry`) | on |
//! | `HOLIX_TRACE` | per-query lifecycle tracing into the bounded ring (same off values; read by `holix-telemetry`) | off |
//!
//! The paper's sizes (2³⁰ rows, 32 contexts, 1 s monitor interval) are
//! reachable by setting the variables accordingly. A knob that is set but
//! does not parse is a hard error — silently benchmarking the default
//! scale under `HOLIX_N=2^30` would produce misleading numbers.

use holix_engine::api::QueryEngine;
use holix_workloads::QuerySpec;
use std::time::{Duration, Instant};

/// Scale parameters resolved from the environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    pub n: usize,
    pub queries: usize,
    pub attrs: usize,
    pub threads: usize,
    pub domain: i64,
    pub tpch_sf: f64,
    pub idle_ms: u64,
    pub shards: usize,
}

/// Resolves an integer knob; a set-but-unparsable value panics with the
/// variable name and offending value (a typo like `HOLIX_N=2^30` must not
/// silently benchmark the default scale). Pure core of [`env_usize`],
/// separated so tests never have to mutate the process environment.
fn parse_usize_knob(key: &str, value: Option<&str>, default: usize) -> usize {
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{key}={v:?} is not a valid unsigned integer")),
    }
}

/// Pure core of [`env_f64`]; same contract as [`parse_usize_knob`].
fn parse_f64_knob(key: &str, value: Option<&str>, default: f64) -> f64 {
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{key}={v:?} is not a valid float")),
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    parse_usize_knob(key, std::env::var(key).ok().as_deref(), default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    parse_f64_knob(key, std::env::var(key).ok().as_deref(), default)
}

impl BenchEnv {
    /// Reads the scale knobs.
    pub fn from_env() -> Self {
        // Contexts are modelled logically (LoadAccountant), so the default
        // gives the tuning daemon head-room even on small machines; threads
        // beyond the physical cores simply oversubscribe.
        let threads = env_usize(
            "HOLIX_THREADS",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
        );
        let n = env_usize("HOLIX_N", 1 << 20);
        BenchEnv {
            n,
            queries: env_usize("HOLIX_QUERIES", 512),
            attrs: env_usize("HOLIX_ATTRS", 10),
            threads: threads.max(2),
            domain: (n as i64).max(1 << 20),
            tpch_sf: env_f64("HOLIX_TPCH_SF", 0.02),
            idle_ms: env_usize("HOLIX_IDLE_MS", 500) as u64,
            shards: env_usize("HOLIX_SHARDS", 4).max(1),
        }
    }

    /// Prints the standard experiment header.
    pub fn banner(&self, figure: &str, notes: &str) {
        println!("# {figure}");
        println!(
            "# scale: N={} queries={} attrs={} threads={} domain={} tpch_sf={} idle_ms={} shards={}",
            self.n,
            self.queries,
            self.attrs,
            self.threads,
            self.domain,
            self.tpch_sf,
            self.idle_ms,
            self.shards
        );
        if !notes.is_empty() {
            println!("# {notes}");
        }
    }
}

/// Times one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Executes a workload sequentially, returning per-query durations.
pub fn run_per_query(engine: &dyn QueryEngine, queries: &[QuerySpec]) -> Vec<Duration> {
    queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            std::hint::black_box(engine.execute(q));
            t0.elapsed()
        })
        .collect()
}

/// Total across per-query times.
pub fn total(times: &[Duration]) -> Duration {
    times.iter().sum()
}

/// Cumulative series.
pub fn cumulative(times: &[Duration]) -> Vec<Duration> {
    let mut acc = Duration::ZERO;
    times
        .iter()
        .map(|&t| {
            acc += t;
            acc
        })
        .collect()
}

/// Seconds as fractional value for CSV output.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sample indices for plotting a long series (~`points` log-ish spaced rows,
/// always including the first and the last).
pub fn sample_indices(len: usize, points: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let step = (len / points.max(1)).max(1);
    let mut idx: Vec<usize> = (0..len).step_by(step).collect();
    if *idx.last().unwrap() != len - 1 {
        idx.push(len - 1);
    }
    idx
}

/// The paper's Fig 6(b)/9 breakdown of a workload: the first query, the
/// next 9, the next 90, … — buckets ending at query 1, 10, 100, 1,000, …
/// and the last one at `times.len()` — as `first..last` labels (1-based,
/// inclusive) with the seconds spent in each.
pub fn buckets(times: &[Duration]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let (mut start, mut end) = (0, 1);
    while start < times.len() {
        let stop = end.min(times.len());
        out.push((
            format!("{}..{stop}", start + 1),
            secs(total(&times[start..stop])),
        ));
        (start, end) = (stop, end * 10);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_accumulates() {
        let times = [Duration::from_millis(1), Duration::from_millis(2)];
        let c = cumulative(&times);
        assert_eq!(c[1], Duration::from_millis(3));
        assert_eq!(total(&times), Duration::from_millis(3));
    }

    #[test]
    fn sample_indices_cover_ends() {
        let idx = sample_indices(1000, 10);
        assert_eq!(idx[0], 0);
        assert_eq!(*idx.last().unwrap(), 999);
        assert!(idx.len() <= 12);
        assert!(sample_indices(0, 10).is_empty());
    }

    #[test]
    fn buckets_end_at_powers_of_ten() {
        let labels = |n: usize| -> Vec<String> {
            buckets(&vec![Duration::from_millis(1); n])
                .into_iter()
                .map(|(label, _)| label)
                .collect()
        };
        assert_eq!(labels(1_000), ["1..1", "2..10", "11..100", "101..1000"]);
        assert_eq!(labels(512), ["1..1", "2..10", "11..100", "101..512"]);
        assert_eq!(labels(1), ["1..1"]);
        assert!(labels(0).is_empty());
        // Each bucket sums exactly its own queries: 1 + 9 + 90 + 900 ms.
        let seconds: Vec<f64> = buckets(&vec![Duration::from_millis(1); 1_000])
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        for (got, want) in seconds.iter().zip([0.001, 0.009, 0.090, 0.900]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn env_defaults() {
        let e = BenchEnv::from_env();
        assert!(e.threads >= 2);
        assert!(e.n > 0);
        assert!(e.shards >= 1);
    }

    // Knob parsing is tested through the pure cores: mutating the process
    // environment from parallel test threads is UB on glibc (concurrent
    // setenv/getenv), so no test calls std::env::set_var.

    #[test]
    fn env_knobs_parse_when_set() {
        assert_eq!(parse_usize_knob("HOLIX_N", Some("4096"), 7), 4096);
        assert_eq!(parse_f64_knob("HOLIX_TPCH_SF", Some("0.125"), 7.0), 0.125);
        // Unset variables fall back to the default.
        assert_eq!(parse_usize_knob("HOLIX_N", None, 7), 7);
        assert_eq!(parse_f64_knob("HOLIX_TPCH_SF", None, 7.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "HOLIX_N=\"2^30\" is not a valid unsigned integer")]
    fn unparsable_usize_knob_panics_with_name_and_value() {
        parse_usize_knob("HOLIX_N", Some("2^30"), 7);
    }

    #[test]
    #[should_panic(expected = "HOLIX_TPCH_SF=\"fast\" is not a valid float")]
    fn unparsable_f64_knob_panics_with_name_and_value() {
        parse_f64_knob("HOLIX_TPCH_SF", Some("fast"), 0.5);
    }
}
