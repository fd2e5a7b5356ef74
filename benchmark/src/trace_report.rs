//! The layer-separation report: per workload, each layer's share of the
//! recorded self time and the per-layer counters, then the checks that the
//! four workloads really stress different layers.

use crate::report::parse_metric_lines;
use crate::spans::{layer_self_times, read_jsonl};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

/// What one workload's traced run left behind.
pub struct Traced {
    /// `(layer, self time ns)`.
    pub layers: Vec<(&'static str, u64)>,
    /// `workload/layer.metric` → value.
    pub metrics: BTreeMap<String, f64>,
}

fn load(dir: &Path, workload: &str) -> Result<Traced, String> {
    let spans_path = dir.join(format!("{workload}.spans.jsonl"));
    let file = std::fs::File::open(&spans_path).map_err(|e| {
        format!(
            "{}: {e} (run the suite with --traced first)",
            spans_path.display()
        )
    })?;
    let spans = read_jsonl(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let layers_path = dir.join(format!("{workload}.layers.txt"));
    let text = std::fs::read_to_string(&layers_path)
        .map_err(|e| format!("{}: {e}", layers_path.display()))?;
    Ok(Traced {
        layers: layer_self_times(&spans),
        metrics: parse_metric_lines(&text),
    })
}

/// The design the workloads were built to: each violated line is returned.
pub fn check_separation(runs: &BTreeMap<&str, Traced>) -> Vec<String> {
    let metric = |w: &str, m: &str| {
        runs.get(w)
            .and_then(|t| t.metrics.get(&format!("{w}/{m}")))
            .copied()
            .unwrap_or(0.0)
    };
    let server_self = |w: &str| {
        runs.get(w)
            .and_then(|t| t.layers.iter().find(|(l, _)| *l == "server"))
            .map_or(0, |l| l.1)
    };
    let mut broken = Vec::new();
    for &w in runs.keys() {
        let (t, expect) = (server_self(w), w == "service_steady");
        if (t > 0) != expect {
            broken.push(format!(
                "server self time on {w} is {t} ns; the server is on the path of service_steady only"
            ));
        }
        let (merges, expect) = (
            metric(w, "cracking.ripple_merges_total"),
            w == "update_churn",
        );
        if (merges > 0.0) != expect {
            broken.push(format!(
                "cracking.ripple_merges_total on {w} is {merges}; only update_churn writes"
            ));
        }
    }
    let (cold, steady) = (
        metric("cold_explore", "cracking.cracks_per_query"),
        metric("service_steady", "cracking.cracks_per_query"),
    );
    if cold < 10.0 * steady || cold == 0.0 {
        broken.push(format!(
            "cracking.cracks_per_query: cold_explore {cold} is not 10x service_steady {steady}"
        ));
    }
    let pressure = metric("analytic_budget", "cracking.segment_morphs_total")
        + metric("analytic_budget", "core.evicted_indexes");
    if pressure <= 0.0 {
        broken
            .push("analytic_budget morphed and evicted nothing: the budget is not binding".into());
    }
    broken
}

/// Prints the report for the traced runs found in `dir`; `Err` when files
/// are missing or a separation check fails.
pub fn run(dir: &Path) -> Result<(), String> {
    let mut runs = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        runs.insert(workload, load(dir, workload)?);
    }
    for (workload, _) in WORKLOADS {
        let t = &runs[workload];
        let total: u64 = t.layers.iter().map(|(_, ns)| ns).sum();
        println!(
            "== {workload}: self time by layer (of {:.3} s recorded)",
            total as f64 / 1e9
        );
        for (layer, ns) in &t.layers {
            println!(
                "{workload}/{layer}.self_time_share {:.4} ratio",
                *ns as f64 / total.max(1) as f64
            );
        }
        for (key, value) in &t.metrics {
            println!("{key} {value}");
        }
    }
    let broken = check_separation(&runs);
    if broken.is_empty() {
        println!("== layer separation holds on all {} workloads", runs.len());
        Ok(())
    } else {
        Err(format!(
            "layer separation violated:\n  {}",
            broken.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(workload: &str, server_ns: u64, metrics: &[(&str, f64)]) -> Traced {
        Traced {
            layers: vec![("bench", 10), ("server", server_ns), ("engine", 100)],
            metrics: metrics
                .iter()
                .map(|(m, v)| (format!("{workload}/{m}"), *v))
                .collect(),
        }
    }

    fn designed() -> BTreeMap<&'static str, Traced> {
        BTreeMap::from([
            (
                "cold_explore",
                traced("cold_explore", 0, &[("cracking.cracks_per_query", 1.5)]),
            ),
            (
                "service_steady",
                traced("service_steady", 50, &[("cracking.cracks_per_query", 0.1)]),
            ),
            (
                "update_churn",
                traced("update_churn", 0, &[("cracking.ripple_merges_total", 9.0)]),
            ),
            (
                "analytic_budget",
                traced("analytic_budget", 0, &[("core.evicted_indexes", 4.0)]),
            ),
        ])
    }

    #[test]
    fn the_designed_shape_passes() {
        assert_eq!(check_separation(&designed()), Vec::<String>::new());
    }

    #[test]
    fn each_violation_is_reported() {
        let mut runs = designed();
        runs.insert(
            "cold_explore",
            traced("cold_explore", 7, &[("cracking.cracks_per_query", 0.5)]),
        );
        runs.insert(
            "analytic_budget",
            traced(
                "analytic_budget",
                0,
                &[("cracking.ripple_merges_total", 1.0)],
            ),
        );
        let broken = check_separation(&runs);
        assert_eq!(broken.len(), 4, "{broken:#?}");
    }
}
