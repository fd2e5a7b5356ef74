//! Whole-workload checks at `--scale tiny`: the streams are a pure function
//! of the seed, every answer matches its oracle, every metric the manifest
//! names is reported, and the suite stays a smoke test in cost.

use holix_benchmark::report::{correct, parse_bounds};
use holix_benchmark::runner::{RunConfig, Scale, DEFAULT_SECONDS};
use holix_benchmark::workloads::{
    analytic_budget, cold_explore, service_steady, update_churn, Workload, WORKLOADS,
};
use std::time::Instant;

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        out_dir: None,
    }
}

/// Every workload's operation stream(s) for `seed`, as bytes.
fn stream_bytes(seed: u64) -> Vec<Vec<u8>> {
    let cfg = tiny(seed, false);
    let mut out = vec![
        cold_explore::generate(&cold_explore::Sizes::of(Scale::Tiny), seed).to_bytes(),
        update_churn::new(&cfg).stream.to_bytes(),
        analytic_budget::new(&cfg).stream.to_bytes(),
    ];
    let sizes = service_steady::Sizes::of(Scale::Tiny);
    out.extend((0..2).map(|c| service_steady::generate(&sizes, seed, c).to_bytes()));
    out
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    let a = stream_bytes(7);
    assert_eq!(a, stream_bytes(7));
    for (x, y) in a.iter().zip(stream_bytes(8)) {
        assert!(!x.is_empty());
        assert_ne!(*x, y, "a different seed must give different operations");
    }
}

#[test]
fn update_churn_mix_matches_its_description() {
    use holix_benchmark::ops::Kind;
    let w = update_churn::new(&tiny(3, false));
    let ops = &w.stream.ops;
    let share = |k: Kind| ops.iter().filter(|o| o.kind == k).count() as f64 / ops.len() as f64;
    // 500-insert bursts every 2000 ops lift inserts above their 20% draw.
    assert!(
        (0.30..0.50).contains(&share(Kind::Insert)),
        "{}",
        share(Kind::Insert)
    );
    assert!((0.05..0.12).contains(&share(Kind::Delete)));
    assert!((0.30..0.45).contains(&share(Kind::Range)));
    assert!((0.08..0.14).contains(&share(Kind::Points)));
    assert!((0.02..0.06).contains(&share(Kind::Snapshot)));
    assert!(ops.iter().all(|o| o.kind != Kind::Conjunction));
    // Slices must leave 200 samples beyond p95.
    let reads = ops[w.warmup_ops..]
        .iter()
        .filter(|o| o.kind.is_read())
        .count();
    assert!(reads >= 4_000, "{reads}");
}

#[test]
fn tiny_suite_answers_every_operation_correctly() {
    let t0 = Instant::now();
    for (name, _) in WORKLOADS {
        let report = holix_benchmark::workloads::run(name, &tiny(1701, false)).unwrap();
        assert_eq!(report.failed, 0, "{name}");
        assert!(correct(&report), "{name}: {report:?}");
        assert!(report.slices.len() >= 3, "{name}");
        assert!(report.slices.iter().all(|s| !s.traced));
        for m in report.end_to_end() {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}/{}", m.name);
        }
    }
    assert!(holix_benchmark::workloads::run("no_such", &tiny(1, false)).is_none());
    assert!(
        t0.elapsed().as_secs() < 30,
        "tiny suite took {:?}",
        t0.elapsed()
    );
}

#[test]
fn manifest_names_what_the_binary_reports() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    // Bounds parse, one per end-to-end metric, none above the contract's cap.
    let report = holix_benchmark::workloads::run("update_churn", &tiny(5, true)).unwrap();
    let bounds = parse_bounds(&manifest);
    let end_to_end = report.end_to_end();
    assert_eq!(
        bounds.iter().map(|b| b.name.as_str()).collect::<Vec<_>>(),
        end_to_end.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    for m in end_to_end.iter().chain(&report.per_layer) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = manifest.matches("{\"name\": \"").count();
    assert_eq!(
        listed,
        WORKLOADS.len() + end_to_end.len() + report.per_layer.len()
    );
    for (name, why) in WORKLOADS {
        assert!(manifest.contains(&format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}")));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    assert!(manifest.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    // A traced run alternates traced and untraced slices and records spans.
    assert!(report.slices.iter().any(|s| s.traced) && report.slices.iter().any(|s| !s.traced));
    assert!(report.trace_overhead_ratio() > 0.0);
}

#[test]
fn direct_workloads_split_their_stream_into_warm_up_and_block() {
    let w = analytic_budget::new(&tiny(2, false));
    let sizes = analytic_budget::Sizes::of(Scale::Tiny);
    assert_eq!(w.warmup_ops(), sizes.warmup_ops);
    assert_eq!(w.block_ops(), sizes.block_ops);
    assert_eq!(w.base_bytes(), sizes.attrs * sizes.rows * 8);
}
