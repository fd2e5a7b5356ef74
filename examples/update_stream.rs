//! Mixed reads and writes (§5.7 of the paper): range selects interleaved
//! with insertions. Queries count pending inserts from the queue; the
//! Ripple algorithm merges the queue whole, as one batch — when a
//! background refinement gets to it, or when a query finds it past its
//! backlog.
//!
//! ```sh
//! cargo run --release --example update_stream
//! ```

use holix::cracking::{CrackScratch, CrackerColumn};
use holix::storage::select::Predicate;
use holix::workloads::data::uniform_column;
use holix::workloads::updates::{update_stream, Op, UpdateScenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let rows = 1 << 20;
    let domain = 1 << 20;
    let base = uniform_column(rows, domain, 5);

    for scenario in [
        UpdateScenario::HighFrequencyLowVolume,
        UpdateScenario::LowFrequencyHighVolume,
    ] {
        println!(
            "=== {} (batches of {}) ===",
            scenario.label(),
            scenario.batch()
        );
        let ops = update_stream(scenario, 500, 500, domain, 9);

        let col = CrackerColumn::from_base("a", &base);
        let mut scratch = CrackScratch::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next_row = rows as u32;
        let mut inserted = 0usize;
        let mut query_time = 0.0;
        let mut insert_time = 0.0;
        let mut refine_budget = 64usize; // a worker's idle-cycle allowance

        for op in &ops {
            match op {
                Op::Query(q) => {
                    let t0 = Instant::now();
                    let sel = col.select(Predicate::range(q.lo, q.hi), &mut scratch);
                    query_time += t0.elapsed().as_secs_f64();
                    std::hint::black_box(sel.count());
                }
                Op::InsertBatch(vals) => {
                    let t0 = Instant::now();
                    for &v in vals {
                        col.queue_insert(v, next_row);
                        next_row += 1;
                        inserted += 1;
                    }
                    insert_time += t0.elapsed().as_secs_f64();
                    // Idle moment after a batch: spend a few background
                    // refinements, which also merge pending inserts.
                    for _ in 0..refine_budget.min(16) {
                        col.refine_random(&mut rng, &mut scratch, 4);
                    }
                    refine_budget = refine_budget.saturating_sub(16).max(16);
                }
            }
        }

        println!(
            "queries: {:.2} ms | insert queueing: {:.3} ms | {} values inserted",
            query_time * 1e3,
            insert_time * 1e3,
            inserted
        );
        println!(
            "pieces: {} | still pending (no refinement or backlog merge yet): {}",
            col.piece_count(),
            col.pending_len()
        );
    }
    println!("---");
    println!("inserting never blocks queries: queries count values in the pending queue");
    println!("until a background refinement or a backlog of 256 merges it (Ripple batch)");
}
