//! Per-index workload statistics (§4.1 "Statistical Information").
//!
//! "For each column in the schema it collects information regarding how many
//! times it has been accessed by user queries, how many pieces the relevant
//! cracker column contains, how many queries did not need to further refine
//! the index because there was an exact hit."
//!
//! The piece count is read off the index itself; the two query counters
//! are atomics because concurrent user queries update them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one adaptive index.
#[derive(Debug, Default)]
pub struct IndexStats {
    /// `f_I`: user queries that accessed the index.
    queries: AtomicU64,
    /// `f_Ih`: user queries answered without any refinement (both bounds
    /// were exact hits).
    exact_hits: AtomicU64,
}

impl IndexStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one user query; `exact_hit` when no bound needed cracking.
    pub fn record_query(&self, exact_hit: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if exact_hit {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `f_I` — user-query accesses.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// `f_Ih` — exact-hit queries.
    pub fn exact_hits(&self) -> u64 {
        self.exact_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = IndexStats::new();
        s.record_query(false);
        s.record_query(true);
        assert_eq!(s.queries(), 2);
        assert_eq!(s.exact_hits(), 1);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = Arc::new(IndexStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000 {
                    s.record_query(i % 4 == 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.queries(), 8_000);
        assert_eq!(s.exact_hits(), 2_000);
    }
}
