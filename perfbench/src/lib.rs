//! # rsmem-benchmark — end-to-end workloads for `rsmem`
//!
//! Five workloads cover what a user of `rsmem` waits for: regenerating
//! the paper's artifacts, a long-horizon design sweep, two Monte-Carlo
//! campaigns and an analysis daemon under load. Each is timed only
//! through public calls, checks its own results, and reports the
//! metrics `BENCHMARK.json` declares: end-to-end metrics from a plain
//! run, per-layer metrics from a traced one. See `README.md` for the
//! workloads, metrics and how to read a traced run.

pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;

use rsmem_obs::json::Value;
use spec::spec;
use std::collections::BTreeMap;
use workloads::Outcome;

/// One line per metric, `name value unit (n=samples)`, in declaration
/// order.
pub fn render_metrics(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    for metric in spec().metrics(trace) {
        if let Some(sample) = outcome.metrics.get(&metric.name) {
            out.push_str(&format!(
                "{} {} {} (n={})\n",
                metric.name, sample.value, metric.unit, sample.samples
            ));
        }
    }
    out
}

/// The result record a run prints as its last line:
/// `{"attempted", "correct", "failed", "metrics": {name: {"unit", "value"}}}`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: BTreeMap<String, Value> = spec()
        .metrics(trace)
        .iter()
        .filter_map(|metric| {
            let sample = outcome.metrics.get(&metric.name)?;
            Some((
                metric.name.clone(),
                Value::object(vec![
                    ("unit", Value::String(metric.unit.clone())),
                    ("value", Value::Number(sample.value)),
                ]),
            ))
        })
        .collect();
    Value::object(vec![
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("correct", Value::Bool(outcome.failed == 0)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ])
    .encode()
}
