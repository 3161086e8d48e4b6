//! Report files (`--out`) and the regression gate (`--compare`).
//!
//! A report is a canonical-JSON document, schema `rsmem-benchmark/1`,
//! holding one entry per run. `--out` appends to an existing report, so
//! repeated runs (several seeds, plain and traced) collect into one
//! file. [`compare`] gates every (workload, end-to-end metric) pair of
//! a new report against an old one with the bound `BENCHMARK.json`
//! declares, and for each regression names the per-layer metrics of
//! that workload that moved by more than their own run-to-run spread.

use crate::spec::Spec;
use crate::stats::{iqr, median};
use crate::workloads::{Options, Outcome};
use rsmem_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of a report.
pub const SCHEMA: &str = "rsmem-benchmark/1";

/// One run as a report stores it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced (per-layer metrics).
    pub trace: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The report entry of one finished run.
pub fn run_json(workload: &str, opts: &Options, outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, sample)| {
            (
                name.clone(),
                Value::object(vec![
                    ("samples", Value::Number(sample.samples as f64)),
                    ("value", Value::Number(sample.value)),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("workload", Value::String(workload.to_owned())),
        ("seed", Value::String(opts.seed.to_string())),
        ("seconds", Value::Number(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        (
            "fingerprint",
            Value::String(format!("{:016x}", outcome.fingerprint)),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

/// Appends `run` to the report at `path`, creating it if absent.
///
/// # Errors
///
/// I/O errors, or an existing file that is not a report.
pub fn append(path: &str, run: Value) -> Result<(), String> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let text = appended(existing.as_deref(), run).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// The text of report `existing` (or of a new report) with `run` added.
fn appended(existing: Option<&str>, run: Value) -> Result<String, String> {
    let mut runs = existing.map_or(Ok(Vec::new()), runs_of)?;
    runs.push(run);
    let doc = Value::object(vec![
        ("schema", Value::String(SCHEMA.to_owned())),
        ("runs", Value::Array(runs)),
    ]);
    Ok(doc.encode() + "\n")
}

fn runs_of(text: &str) -> Result<Vec<Value>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema {other:?}, expected {SCHEMA:?}")),
    }
    doc.get("runs")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| "missing \"runs\" array".to_owned())
}

/// Parses a report.
///
/// # Errors
///
/// A message naming the first schema violation.
pub fn parse(text: &str) -> Result<Vec<Run>, String> {
    runs_of(text)?
        .iter()
        .map(|run| {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without \"workload\"")?
                .to_owned();
            let trace = matches!(run.get("trace"), Some(Value::Bool(true)));
            let metrics = run
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{workload}: run without \"metrics\""))?
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Value::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("{workload}: metric {name} without a value"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Run {
                workload,
                trace,
                metrics,
            })
        })
        .collect()
}

/// A per-layer metric that moved beyond its spread.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMove {
    /// Per-layer metric name.
    pub name: String,
    /// Median of the old traced runs.
    pub old: f64,
    /// Median of the new traced runs.
    pub new: f64,
}

impl LayerMove {
    /// Relative size of the move, for ranking.
    fn size(&self) -> f64 {
        let scale = self.old.abs().max(self.new.abs());
        if scale == 0.0 {
            0.0
        } else {
            (self.new - self.old).abs() / scale
        }
    }
}

/// An end-to-end metric that worsened by more than its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload it worsened on.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Old median.
    pub old: f64,
    /// New median.
    pub new: f64,
    /// How much worse, as a share of the old median.
    pub worsening: f64,
    /// The declared bound it exceeded.
    pub bound: f64,
    /// The workload's per-layer metrics that moved, largest first.
    pub layers: Vec<LayerMove>,
}

/// Outcome of gating a new report against an old one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Pairs that worsened beyond their bound.
    pub regressions: Vec<Regression>,
    /// Pairs that could not be compared (missing from one side).
    pub notes: Vec<String>,
}

impl Comparison {
    /// True when nothing regressed.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// One line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION {} {}: {} -> {} ({:+.1}% worse, bound {:.0}%)",
                r.workload,
                r.metric,
                r.old,
                r.new,
                r.worsening * 100.0,
                r.bound * 100.0
            );
            if r.layers.is_empty() {
                let _ = writeln!(out, "  no traced layer moved beyond its spread");
            }
            for layer in &r.layers {
                let _ = writeln!(
                    out,
                    "  layer {}: {} -> {}",
                    layer.name, layer.old, layer.new
                );
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        if self.is_clean() {
            let _ = writeln!(
                out,
                "comparison clean: no end-to-end metric beyond its bound"
            );
        }
        out
    }
}

/// Values of `metric` over the runs of `workload` of one kind.
fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Gates `new` against `old`: medians per (workload, end-to-end metric)
/// against the declared bounds. For each regression, lists the
/// workload's per-layer metrics whose medians differ by more than the
/// larger of the two sides' interquartile ranges, largest move first.
pub fn compare(old: &[Run], new: &[Run], spec: &Spec) -> Comparison {
    let mut cmp = Comparison::default();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (before, after) = (
                values(old, workload, false, &metric.name),
                values(new, workload, false, &metric.name),
            );
            if before.is_empty() || after.is_empty() {
                if !(before.is_empty() && after.is_empty()) {
                    cmp.notes.push(format!(
                        "{workload} {}: only one side has runs",
                        metric.name
                    ));
                }
                continue;
            }
            let (old_median, new_median) = (median(&before), median(&after));
            let worsening = metric.worsening(old_median, new_median);
            let bound = metric.bound.unwrap_or(0.0);
            if worsening <= bound {
                continue;
            }
            let mut layers: Vec<LayerMove> = spec
                .per_layer
                .iter()
                .filter_map(|layer| {
                    let (a, b) = (
                        values(old, workload, true, &layer.name),
                        values(new, workload, true, &layer.name),
                    );
                    if a.is_empty() || b.is_empty() {
                        return None;
                    }
                    let moved = LayerMove {
                        name: layer.name.clone(),
                        old: median(&a),
                        new: median(&b),
                    };
                    ((moved.new - moved.old).abs() > iqr(&a).max(iqr(&b))).then_some(moved)
                })
                .collect();
            layers.sort_by(|x, y| y.size().total_cmp(&x.size()));
            cmp.regressions.push(Regression {
                workload: workload.clone(),
                metric: metric.name.clone(),
                old: old_median,
                new: new_median,
                worsening,
                bound,
                layers,
            });
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;
    use crate::workloads::Sample;

    /// Three plain and three traced `mission` runs with a little jitter;
    /// `slowdown` scales the uniformization self time and, with it, the
    /// sweep time.
    fn mission_runs(slowdown: f64) -> Vec<Run> {
        let mut runs = Vec::new();
        for (i, jitter) in [1.0, 1.01, 0.99].into_iter().enumerate() {
            let uniformization = 1190.0 * slowdown * jitter;
            let sweep = uniformization + 10.0;
            let plain = BTreeMap::from([
                ("setup_s".to_owned(), 0.002 * jitter),
                ("peak_rss_mb".to_owned(), 6.0),
                ("work_per_s".to_owned(), 8.0 / (sweep / 1e3)),
                ("op_p50_ms".to_owned(), sweep),
            ]);
            let mut traced: BTreeMap<String, f64> = spec()
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), 1.0 + 0.01 * i as f64))
                .collect();
            traced.insert("ctmc.uniformization.self_ms".to_owned(), uniformization);
            traced.insert("core.system.ber_curve.self_ms".to_owned(), 8.0 * jitter);
            for (trace, metrics) in [(false, plain), (true, traced)] {
                runs.push(Run {
                    workload: "mission".to_owned(),
                    trace,
                    metrics,
                });
            }
        }
        runs
    }

    #[test]
    fn self_comparison_is_clean() {
        let runs = mission_runs(1.0);
        let cmp = compare(&runs, &runs, spec());
        assert!(cmp.is_clean(), "{cmp:?}");
        assert!(cmp.render_text().contains("comparison clean"));
    }

    #[test]
    fn a_slower_uniformization_is_named_as_the_layer() {
        let cmp = compare(&mission_runs(1.0), &mission_runs(1.5), spec());
        let metrics: Vec<&str> = cmp.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["work_per_s", "op_p50_ms"], "{cmp:?}");
        for regression in &cmp.regressions {
            assert_eq!(regression.workload, "mission");
            let layers: Vec<&str> = regression.layers.iter().map(|l| l.name.as_str()).collect();
            assert_eq!(layers, ["ctmc.uniformization.self_ms"], "{regression:?}");
        }
        assert!(cmp
            .render_text()
            .contains("layer ctmc.uniformization.self_ms"));
    }

    #[test]
    fn improvements_and_moves_within_the_bound_pass() {
        assert!(compare(&mission_runs(1.0), &mission_runs(0.5), spec()).is_clean());
        assert!(compare(&mission_runs(1.0), &mission_runs(1.2), spec()).is_clean());
    }

    #[test]
    fn reports_round_trip_through_append_and_parse() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            fingerprint: 0xfeed,
            metrics: BTreeMap::from([(
                "op_p50_ms".to_owned(),
                Sample {
                    value: 1.25,
                    samples: 3,
                },
            )]),
        };
        let mut text = None;
        for trace in [false, true] {
            let opts = Options {
                seed: 7,
                seconds: 1.0,
                trace,
            };
            text = Some(appended(text.as_deref(), run_json("figures", &opts, &outcome)).unwrap());
        }
        let runs = parse(&text.unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "figures");
        assert!(!runs[0].trace && runs[1].trace);
        assert_eq!(runs[1].metrics["op_p50_ms"], 1.25);
        assert!(parse(r#"{"schema":"other","runs":[]}"#).is_err());
    }
}
