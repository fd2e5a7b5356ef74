//! Configuration for the holistic tuning layer.

use crate::strategy::Strategy;
use std::time::Duration;

/// Tuning knobs of §4.2 / §5.5. The defaults follow the paper where it names
/// a value (x = 16, 1 s monitor interval, |L1| = 32 KiB on the evaluation
/// machine); benchmarks shrink the interval so laptop-scale runs finish.
#[derive(Debug, Clone)]
pub struct HolisticConfig {
    /// L1 data-cache size in bytes. An index is *optimal* once its average
    /// piece fits in L1 (Equation 1).
    pub l1_bytes: usize,
    /// Refinements each holistic worker performs per activation (`x`).
    pub refinements_per_worker: usize,
    /// CPU-utilisation sampling window between tuning cycles.
    pub monitor_interval: Duration,
    /// How many random pivots a worker tries when pieces are latched before
    /// giving up for this refinement step.
    pub latch_attempts: usize,
    /// Upper bound on simultaneously active holistic workers
    /// (`None` = number of idle contexts).
    pub max_workers: Option<usize>,
    /// Hardware contexts each worker consumes (the paper's `wNxM` labels:
    /// N workers of M threads each). The daemon activates
    /// `idle / worker_threads` workers; a worker's crack kernel may gang
    /// this many threads.
    pub worker_threads: usize,
    /// Index-decision strategy (W1–W4). The paper's analysis (§5.4) finds
    /// the random strategy robust, so it is the default.
    pub strategy: Strategy,
    /// Storage budget for materialised adaptive indices in bytes
    /// (`None` = unlimited). Exceeding it evicts least-frequently-used
    /// indices (§4.2 "Storage Constraints").
    pub storage_budget: Option<usize>,
    /// Seed for worker RNGs (reproducible experiments).
    pub seed: u64,
}

impl Default for HolisticConfig {
    fn default() -> Self {
        HolisticConfig {
            l1_bytes: 32 * 1024,
            refinements_per_worker: 16,
            monitor_interval: Duration::from_secs(1),
            latch_attempts: 16,
            max_workers: None,
            worker_threads: 1,
            strategy: Strategy::W4Random,
            storage_budget: None,
            seed: 0x5EED,
        }
    }
}

impl HolisticConfig {
    /// Config suited to fast experiments: short monitor interval.
    pub fn fast() -> Self {
        HolisticConfig {
            monitor_interval: Duration::from_millis(2),
            ..Default::default()
        }
    }

    /// Number of values that fit in L1 — the `L1s` of the paper's
    /// initial-weight formula.
    pub fn l1_values(&self) -> usize {
        (self.l1_bytes / size_of::<i64>()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = HolisticConfig::default();
        assert_eq!(c.refinements_per_worker, 16);
        assert_eq!(c.monitor_interval, Duration::from_secs(1));
        assert_eq!(c.strategy, Strategy::W4Random);
        assert_eq!(c.l1_bytes, 32 * 1024);
    }

    #[test]
    fn l1_values_counts_i64_values() {
        let mut c = HolisticConfig::default();
        assert_eq!(c.l1_values(), 4096);
        c.l1_bytes = 0;
        assert_eq!(c.l1_values(), 1); // a degenerate L1 clamps
    }
}
