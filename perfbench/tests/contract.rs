//! The benchmark keeps its declaration: `BENCHMARK.json` is well formed,
//! and every workload, at a tiny time budget, emits exactly the metrics
//! it declares, checks its results and reproduces them.
//!
//! Run with `cargo test --release`: the workloads are the real ones, so
//! an unoptimized build takes minutes.

use rsmem_benchmark::spec::{spec, BENCHMARK_JSON};
use rsmem_benchmark::workloads::{self, Options, Outcome, NAMES, PINNED_SEED};
use rsmem_obs::json::{self, Value};
use std::sync::Mutex;

/// Workload runs share the process-wide profiler and counters, so they
/// run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Budget small enough that a run is its set-up plus one operation.
const TINY_SECONDS: f64 = 0.01;

fn run(name: &str, trace: bool) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        seed: PINNED_SEED,
        seconds: TINY_SECONDS,
        trace,
    };
    workloads::run(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn assert_declared(name: &str, outcome: &Outcome, trace: bool) {
    let mut declared: Vec<&str> = spec()
        .metrics(trace)
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    declared.sort_unstable();
    let emitted: Vec<&str> = outcome.metrics.keys().map(String::as_str).collect();
    assert_eq!(emitted, declared, "{name} (trace {trace})");
    assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
    assert!(outcome.attempted >= 1, "{name}");
    for (metric, sample) in &outcome.metrics {
        assert!(sample.value.is_finite(), "{name} {metric}");
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declaration_is_well_formed() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();

    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        names, NAMES,
        "BENCHMARK.json and the library list the same workloads"
    );
    for w in &workloads {
        assert_eq!(w.as_object().expect("object").len(), 2);
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let end_to_end = list("end_to_end");
    let per_layer = list("per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all_names: Vec<&str> = names.clone();
    for (metrics, keys) in [(&end_to_end, 4), (&per_layer, 3)] {
        for m in metrics {
            assert_eq!(m.as_object().expect("object").len(), keys, "{m:?}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit}"
            );
            all_names.push(m.get("name").and_then(Value::as_str).expect("name"));
        }
    }
    for name in &all_names {
        assert!(is_name(name), "{name} is not [A-Za-z0-9_.-]+");
    }
    let mut unique = all_names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all_names.len(), "names are used once");

    let bounds: Vec<(&str, f64)> = spec()
        .end_to_end
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                m.bound.expect("end-to-end metrics have a bound"),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s is declared")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        assert!(*bound <= setup, "setup_s has the largest bound");
    }

    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    let paths = list("paths");
    assert_eq!(paths, [Value::String("perfbench".to_owned())]);
    let command = list("command");
    assert!(command.len() <= 32);
    for arg in &command {
        let arg = arg.as_str().expect("string");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
}

#[test]
fn every_workload_emits_its_end_to_end_metrics_and_reproduces_its_results() {
    for name in NAMES {
        let first = run(name, false);
        assert_declared(name, &first, false);
        let second = run(name, false);
        assert_eq!(first.fingerprint, second.fingerprint, "{name}");
        assert_ne!(first.fingerprint, 0, "{name}");
    }
}

#[test]
fn every_workload_emits_its_per_layer_metrics_when_traced() {
    for name in NAMES {
        let outcome = run(name, true);
        assert_declared(name, &outcome, true);
    }
}

#[test]
fn the_mission_trace_attributes_its_time_to_layers() {
    let outcome = run("mission", true);
    let value = |metric: &str| outcome.metrics[metric].value;
    assert!(value("trace.unattributed_frac") <= 0.1, "{outcome:?}");
    assert!(value("ctmc.uniformization.self_ms") > 0.0);
    assert!(value("ctmc.uniformization.terms") > 0.0);
    assert!(value("ctmc.states") > 0.0 && value("ctmc.nnz") > 0.0);
}

#[test]
fn parallel_workloads_trace_wall_time_not_thread_time() {
    // Untraced, these solve on worker threads, whose span times overlap
    // and would add up to more than wall time (a negative share). Traced,
    // they solve on the timed thread, so span times are shares of it.
    for (name, layer) in [
        ("figures", "ctmc.uniformization.self_ms"),
        ("mc_word", "sim.mc.self_ms"),
    ] {
        let outcome = run(name, true);
        let value = |metric: &str| outcome.metrics[metric].value;
        let unattributed = value("trace.unattributed_frac");
        assert!((0.0..=0.1).contains(&unattributed), "{name}: {outcome:?}");
        assert!(value(layer) > 0.0, "{name}");
    }
}

#[test]
fn the_figures_match_the_harness_fingerprints() {
    // fig5 and fig7 are pinned by `rsmem bench` as well; both pin the
    // same result bytes.
    use rsmem::experiments::ExperimentId;
    use rsmem_benchmark::workloads::FIGURE_FINGERPRINTS;
    let pinned = |id| {
        FIGURE_FINGERPRINTS
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, fp)| fp)
    };
    assert_eq!(pinned(ExperimentId::Fig5), Some(0x363c_0358_c0e2_85c2));
    assert_eq!(pinned(ExperimentId::Fig7), Some(0x67fc_6870_89d9_2bc2));
}
