//! The benchmark's declaration, `BENCHMARK.json` at the repository root.
//!
//! The file is compiled into the binary, so the workload names, metric
//! names, units, directions and regression bounds live in one place:
//! a run emits exactly the metrics declared there, and `--compare`
//! gates with exactly the bounds declared there.

use rsmem_obs::json::{self, Value};
use std::sync::OnceLock;

/// The declaration's text.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (rates, ratios).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, unique within the declaration.
    pub name: String,
    /// Unit printed with every value.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when `new` is better).
    pub fn worsening(&self, old: f64, new: f64) -> f64 {
        let delta = match self.better {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        if old == 0.0 {
            if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            delta / old.abs()
        }
    }
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics an untraced run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses a declaration.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(key)?
                .iter()
                .map(|item| {
                    let better = match text_of(item, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better,
                        bound: item.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: array("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run reports: per-layer when traced, end-to-end
    /// otherwise.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The compiled-in declaration.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json parses"))
}
