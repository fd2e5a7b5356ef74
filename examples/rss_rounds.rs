//! What survives an engine? Builds, queries, stops and drops a
//! `HolisticEngine` thirty times over the same base data — a benchmark
//! run's fresh-state rounds — and reads `/proc/self/statm` and `VmHWM`
//! after every drop.
//!
//! ```sh
//! cargo run --release --example rss_rounds            # 8 attributes of 2^20 rows
//! cargo run --release --example rss_rounds -- 16 21   # cold_explore's 16 of 2^21
//! MALLOC_MMAP_THRESHOLD_=1048576 cargo run --release --example rss_rounds -- 16 21
//! ```
//!
//! Nothing of the engine does: the resident set after a drop is either the
//! base data plus a few hundred KB (the allocator gave the shard vectors
//! back) or a whole engine's worth that the *next* round's peak does not
//! add to (glibc kept them on its free lists — its mmap threshold rises to
//! the largest block ever freed, up to 32 MB, and a shard's vectors are
//! below that). The ≈ 1.1 MB a round that `cold_explore/rss_peak_mb` creeps
//! by is the second case at work: with the address space constant, the high
//! water climbs in steps of one attribute's vectors whenever a round's
//! allocations land across the quarter of head-room the previous tenants
//! reserved and never wrote. Pinning the threshold (third command) makes
//! every round's vectors fresh mappings: the high water stays within 1 MB
//! over thirty rounds and the rounds get slower by their page faults.

use holix::engine::api::{Dataset, QueryEngine};
use holix::engine::holistic::{HolisticEngine, HolisticEngineConfig};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use rand::prelude::*;

const ROUNDS: usize = 30;
const QUERIES: usize = 4096;

/// Resident set now and its high-water mark, in KB.
fn resident_kb() -> (usize, usize) {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm has a resident field");
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let high = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|f| f.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    (pages * 4, high)
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u32>());
    let attrs = args.next().map_or(8, |a| a.expect("attributes")) as usize;
    let rows = 1usize << args.next().map_or(20, |a| a.expect("log2 of the rows"));
    let domain = 2 * rows as i64;
    let data = Dataset::new(uniform_table(attrs, rows, domain, 7));
    let (base, _) = resident_kb();
    println!("{attrs} attributes of {rows} rows: {base} KB resident before the first engine");
    println!("round  after_drop_kb  high_water_kb");
    let mut high_water = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let engine =
            HolisticEngine::new(data.clone(), HolisticEngineConfig::split_half_sharded(2, 4));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..QUERIES {
            let width = rng.random_range(domain / 10_000..domain / 20).max(2);
            let lo = rng.random_range(0..domain - width);
            std::hint::black_box(engine.execute(&QuerySpec {
                attr: rng.random_range(0..attrs),
                lo,
                hi: lo + width,
            }));
        }
        engine.stop();
        drop(engine);
        let (now, high) = resident_kb();
        println!("{round:5}  {now:13}  {high:13}");
        high_water.push(high);
    }
    println!(
        "high water: +{} KB from round 5 to round {}",
        high_water[ROUNDS - 1] - high_water[4],
        ROUNDS - 1
    );
}
