//! Plan-time prices of cold reads under a storage budget: a count or sum
//! that `HolisticEngine::touch_read` would answer from the base zones it
//! meets is priced at those zones' rows, not at the shard's rebuild, until
//! the read that breaks even; from then on at the rebuild. Pricing scans
//! nothing: it moves neither a cell's scanned zones (the break-even read
//! comes where the reads alone put it) nor the process-wide
//! `cracking_cold_scans_total` counter, which is why this is the only test
//! in its file — a test beside it in the same process would scan there.
//! While the registry is held, pricing does not wait for it and prices the
//! rebuild.

use holix_cracking::sharding::ZONE;
use holix_cracking::{CrackerColumn, ShardPlan};
use holix_engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix_storage::select::{scan_stats, Predicate};
use holix_workloads::data::uniform_table;
use holix_workloads::QuerySpec;
use rand::prelude::*;

/// `col`'s values as sorted runs of 1,024 rows in shuffled order: the
/// ingest-ordered layout a rebuild's zone map prunes.
fn sorted_runs(col: &[i64], rng: &mut StdRng) -> Vec<i64> {
    let mut sorted = col.to_vec();
    sorted.sort_unstable();
    let mut runs: Vec<&[i64]> = sorted.chunks(ZONE).collect();
    for i in (1..runs.len()).rev() {
        runs.swap(i, rng.random_range(0..=i));
    }
    runs.concat()
}

/// Zones of `col` whose minimum and maximum meet `[lo, hi)`.
fn zones_meeting(col: &[i64], lo: i64, hi: i64) -> usize {
    col.chunks(ZONE)
        .filter(|z| z.iter().max().is_some_and(|&max| lo <= max))
        .filter(|z| z.iter().min().is_some_and(|&min| min < hi))
        .count()
}

/// A conjunction of `cold` (a narrow read of a shard that is not live,
/// which a count would scan) and a term on attribute 0, cracked first so
/// its estimate is exact, that qualifies fewer rows than the cold shard
/// holds but more than its scan reads. A driver is built, never scanned,
/// so the cold term is priced at its build and the live term drives: the
/// answer is exact and nothing is built.
fn conjunction_elects_the_live_term(
    e: &HolisticEngine,
    cold: &QuerySpec,
    columns: &[Vec<i64>],
    shard_rows: u64,
) {
    let live = QuerySpec {
        attr: 0,
        lo: 0,
        hi: 100_000,
    };
    let live_rows = scan_stats(&columns[0], Predicate::range(live.lo, live.hi)).count;
    assert_eq!(e.execute(&live), live_rows);
    let est = |q: &QuerySpec| e.estimate_cost(q).unwrap().est_rows;
    assert!(
        est(cold) < est(&live) && est(&live) < shard_rows,
        "{} < {} < {shard_rows}",
        est(cold),
        est(&live)
    );
    let want = (0..columns[0].len())
        .filter(|&r| (live.lo..live.hi).contains(&columns[0][r]))
        .filter(|&r| (cold.lo..cold.hi).contains(&columns[1][r]))
        .count() as u64;
    assert_eq!(e.execute_conjunction(&[*cold, live]), Some(want));
}

#[test]
fn cold_reads_are_priced_at_their_scan_until_a_build_pays() {
    // Two 384 KiB attributes in four shards under a budget of one:
    // attribute 0 (uniform) fills it, attribute 1 holds its values in
    // sorted runs, so a narrow read of it meets a zone or two. Whole runs
    // only: a shorter run would shift every zone after it across two runs.
    holix_telemetry::set_metrics_enabled(true);
    let rows = 48 * ZONE;
    let mut rng = StdRng::seed_from_u64(53);
    let mut table = uniform_table(2, rows, 1_000_000, 12);
    table[1] = sorted_runs(&table[1], &mut rng);
    let clustered = table[1].clone();
    let columns = table.clone();
    let plan = ShardPlan::from_values(&clustered, 4);
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
    cfg.point_filters = false;
    cfg.holistic.max_workers = Some(0);
    cfg.holistic.storage_budget = Some(rows * CrackerColumn::tuple_bytes(false) * 11 / 10);
    let e = HolisticEngine::new(Dataset::new(table), cfg);
    let registrations = || {
        let (a, p, o, d) = e.space().membership_counts();
        a + p + o + d
    };
    let scans = holix_telemetry::registry().counter("cracking_cold_scans_total");
    // Three estimates of `q`, which must agree and count no scan.
    let estimate = |q: &QuerySpec| {
        let before = scans.get();
        let cost = e.estimate_cost(q).expect("the holistic engine prices");
        for _ in 0..2 {
            assert_eq!(e.estimate_cost(q), Some(cost), "{q:?}");
        }
        assert_eq!(scans.get(), before, "an estimate scanned: {q:?}");
        cost.crack_values
    };
    let read = |q: &QuerySpec| {
        let want = scan_stats(&columns[q.attr], Predicate::range(q.lo, q.hi));
        assert_eq!(e.execute(q), want.count, "{q:?}");
    };
    read(&QuerySpec {
        attr: 0,
        lo: 0,
        hi: 1_000_000,
    });
    assert_eq!(registrations(), 4, "attribute 0 went in whole");

    // Shard 1 of the clustered attribute: its build reads `build` zones.
    let (lo_cut, hi_cut) = (plan.cuts()[0], plan.cuts()[1]);
    let shard_rows = clustered
        .iter()
        .filter(|&&v| lo_cut <= v && v < hi_cut)
        .count() as u64;
    let build = zones_meeting(&clustered, lo_cut, hi_cut);
    assert!(build >= 8, "the shard's build reads {build} zones");
    let narrow = |rng: &mut StdRng| {
        let lo = rng.random_range(lo_cut + 1_000..hi_cut - 3_000);
        QuerySpec {
            attr: 1,
            lo,
            hi: lo + 2_000,
        }
    };
    // Before any read of the attribute there is no zone map: the first
    // read is priced at the build of the whole attribute.
    let first = narrow(&mut rng);
    assert_eq!(estimate(&first), rows as u64);
    read(&first);
    let mut scanned = zones_meeting(&clustered, first.lo, first.hi);
    assert!(scanned < build, "the first narrow read scanned");
    // From then on each narrow read is priced at the rows of the zones it
    // scans, until the read whose zones take the scanned total to the
    // build's: that one is priced at the rebuild, and builds.
    let mut reads = 1;
    loop {
        let q = narrow(&mut rng);
        let zones = zones_meeting(&clustered, q.lo, q.hi);
        let before = registrations();
        reads += 1;
        if scanned + zones < build {
            assert_eq!(estimate(&q), (zones * ZONE) as u64, "read {reads}");
            // With the registry held, pricing does not wait for it: the
            // shard is priced at its rebuild.
            let registry = e.space().hold_registry_for_test();
            assert_eq!(
                e.estimate_cost(&q).map(|c| c.crack_values),
                Some(shard_rows)
            );
            drop(registry);
            if reads == 2 {
                conjunction_elects_the_live_term(&e, &q, &columns, shard_rows);
                assert_eq!(registrations(), before, "the cold term was built");
            }
            let before_scans = scans.get();
            read(&q);
            assert_eq!(scans.get(), before_scans + 1, "read {reads} scanned once");
            scanned += zones;
            assert_eq!(registrations(), before, "read {reads} built");
            continue;
        }
        assert_eq!(estimate(&q), shard_rows, "the break-even read {reads}");
        read(&q);
        assert_eq!(registrations(), before + 1, "the break-even read built");
        break;
    }
    assert!(reads > 2, "{reads} reads to break even");
    assert_eq!(e.sharded(1).plan(), &plan);
    e.stop();
}
