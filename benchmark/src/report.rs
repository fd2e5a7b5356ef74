//! Output formats: the `workload/metric value unit` lines people read, the
//! one-line JSON result the driver reads, and the bounds in
//! `BENCHMARK.json`.

use crate::runner::{Metric, Report};
use std::collections::BTreeMap;

/// Slices must leave at least this many samples beyond `p95_us`.
pub const MIN_BEYOND_P95: usize = 200;

/// `workload/metric value unit`, plus the slice spread where there is one.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    let mut line = format!("{workload}/{} {} {}", m.name, m.value, m.unit);
    if let Some(spread) = m.spread {
        line.push_str(&format!("  (slice iqr/median {spread:.4})"));
    }
    line
}

/// Whether the run may be trusted: every answer matched its oracle and
/// every slice held enough samples for its p95.
pub fn correct(report: &Report) -> bool {
    report.failed == 0 && report.attempted > 0 && report.min_beyond_p95() >= MIN_BEYOND_P95
}

/// The result object the driver parses, on one line.
pub fn result_json(report: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(report),
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// Parses `workload/metric value ...` lines back into a map (the suite
/// reads its children's output this way).
pub fn parse_metric_lines(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let key = parts.next().filter(|k| k.contains('/'))?;
            let value = parts.next()?.parse().ok()?;
            Some((key.to_string(), value))
        })
        .collect()
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The scalar after `"key":` on a line holding one flat JSON object.
pub(crate) fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line[at..].trim_start();
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// The `end_to_end` bounds. `BENCHMARK.json` keeps one metric per line, so
/// a line scan is enough — no JSON parser in the tree, none needed.
pub fn parse_bounds(benchmark_json: &str) -> Vec<Bound> {
    benchmark_json
        .lines()
        .filter_map(|line| {
            Some(Bound {
                name: json_field(line, "name")?.to_string(),
                higher_is_better: json_field(line, "better")? == "higher",
                bound: json_field(line, "bound")?.parse().ok()?,
            })
        })
        .collect()
}

/// How much worse `second` is than `first` as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric {
            name: "p50_us",
            value: 12.625,
            unit: "us",
            spread: Some(0.0123),
        };
        let line = metric_line("cold_explore", &m);
        assert_eq!(
            line,
            "cold_explore/p50_us 12.625 us  (slice iqr/median 0.0123)"
        );
        let parsed = parse_metric_lines(&format!("noise\n{line}\n{{\"correct\": true}}\n"));
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed["cold_explore/p50_us"], 12.625);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 10,
            ..Report::default()
        };
        let json = result_json(&report, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            json,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let nan = result_json(&report, &[Metric::new("x", f64::NAN, "s")]);
        assert!(nan.contains("\"value\": 0,"));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn bounds_parse_from_one_metric_per_line() {
        let text = r#"{
  "end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.08},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}
  ],
  "per_layer": [
    {"name": "server.submit_us", "unit": "us", "better": "lower"}
  ]
}"#;
        assert_eq!(
            parse_bounds(text),
            vec![
                Bound {
                    name: "ops_per_s".into(),
                    higher_is_better: true,
                    bound: 0.08
                },
                Bound {
                    name: "setup_s".into(),
                    higher_is_better: false,
                    bound: 0.15
                },
            ]
        );
    }
}
