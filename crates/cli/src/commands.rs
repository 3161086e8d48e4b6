//! Command implementations. Each returns the text to print, so the whole
//! CLI is unit-testable without spawning processes.

use crate::args::{parse, split_wrapped, Parsed};
use rsmem::experiments::{
    run_with, run_with_observer, ExperimentId, ExperimentOutput, ParseExperimentIdError,
};
use rsmem::scrub::{minimum_scrub_period, ScrubRecommendation};
use rsmem::units::{ErasureRate, SeuRate, Time, TimeGrid};
use rsmem::{report, CodeFamily, CodeParams, MemorySystem, Parallelism, ScrubTiming, Scrubbing};
use rsmem_obs::log::{next_trace_id, trace_scope, LogConfig};
use rsmem_obs::Progress;
use std::fmt::Write as _;
use std::sync::Mutex;

const HELP: &str = "\
rsmem — Reed–Solomon memory reliability toolkit (DATE 2005 reproduction)

USAGE:
  rsmem experiment <id> [--csv|--plot] regenerate a paper artifact
  rsmem sweep <id> [--csv|--plot]     like experiment, with progress + tracing
  rsmem profile [--] <cmd ...>        run any command under the self-profiler
  rsmem trace [--] <cmd ...>          run any command under the flight
                                      recorder; print the event timeline
  rsmem bench [flags]                 benchmark suite → BENCH_<date>.json
  rsmem bench --compare OLD NEW       gate a new report against a baseline
  rsmem ber [flags]                   analytic BER(t) curve
  rsmem metrics [flags]               reliability, MTTF, expected uptime
  rsmem simulate [flags]              Monte-Carlo campaign of the real system
  rsmem array [flags]                 whole-memory simulation with MBUs
  rsmem advise [flags]                slowest scrub period meeting a BER target
  rsmem complexity                    Section-6 decoder comparison
  rsmem compare [flags]               head-to-head BER + complexity across
                                      code families (RS / RM / interleaved RS)
  rsmem stress [flags]                differential stress/fault-injection run
  rsmem serve [flags]                 run the analysis daemon (rsmem-service)
  rsmem top [flags]                   live metrics dashboard: follow a running
                                      server's `/v1/stream/metrics`, or wrap a
                                      command and watch its counters move
  rsmem check-jsonl                   validate stdin as canonical JSON-lines
  rsmem list                          list experiment ids
  rsmem help                          this message

LOGGING (any command):
  RSMEM_LOG=FMT[:LEVEL[:TARGETS]]     structured events on stderr
  --log-format json|text|off          override RSMEM_LOG format
  --log-level error|warn|info|debug|trace
                                      override level (default: debug)

EXPERIMENT IDS: fig5 fig6 fig7 fig8 fig9 fig10 complexity

SYSTEM FLAGS (ber/simulate/advise/array):
  --duplex               duplex arrangement (default: simplex)
  --code SPEC            code: N,K,M (RS), rm:R or irs:N,K,M,D
                         (default: 18,16,8)
  --seu RATE             SEU rate per bit per day (default: 0)
  --erasure RATE         permanent-fault rate per symbol per day (default: 0)
  --tsc SECONDS          scrub period; omitted = no scrubbing

COMMAND FLAGS:
  --hours H | --months M  horizon (default: 48 hours)
  --points N              grid points for `ber` (default: 25)
  --csv                   CSV output for `experiment`/`ber`
  --trials N              Monte-Carlo trials (default: 1000; 200 for
                          `array`)
  --seed S                RNG seed, decimal or 0x-hex (default: 42)
  --days D                per-trial storage days for `simulate`/`array`
                          (default: 2)
  --target-ber B          BER target for `advise` (default: 1e-6)
  --words N               array size for `array` (default: 32)
  --mbu B                 bits flipped per SEU for `array` (default: 1)
  --interleave D          interleaving depth for `array` (default: 1)
  --threads N             worker threads for `experiment`/`simulate`/
                          `array` (default: all cores; results do not
                          depend on N)

COMPARE FLAGS:
  --families F1,F2,...    families to compare: rs, rm, irs
                          (default: rs,rm,irs)
  --quick                 CI smoke mode: 5 grid points
  --csv                   emit the BER matrix as CSV
  (also honours --duplex, --seu [default 1.7e-5], --erasure, --tsc,
   --hours/--months and --points)

STRESS FLAGS:
  --seed S                corpus seed, decimal or 0x-hex (default: 0xDA7E)
  --budget N|small|full   random decode cases; arbiter/exhaustive/x-val
                          budgets scale from it (default: full = 100000;
                          small = 2000 for CI smoke)

PROFILE FLAGS:
  --profile-json          emit the call tree as canonical JSON (suppresses
                          the wrapped command's own output)

TRACE FLAGS:
  --trace-json            emit the `rsmem-trace/1` canonical-JSON document
                          (suppresses the wrapped command's own output)

BENCH FLAGS:
  --quick                 CI smoke mode: fewer iterations, fig5+fig7 only
  --out PATH              report path (default: BENCH_<date>.json)
  --warn-timing           with --compare: timing regressions warn instead
                          of failing (fingerprint mismatches still fail)

SERVE FLAGS:
  --addr HOST:PORT        bind address (default: 127.0.0.1:7373; port 0 = ephemeral)
  --threads N             worker threads (default: all cores)
  --cache-cap N           result-cache capacity in entries (default: 128)
  --backlog N             queued connections before shedding 503 (default: 64)
  --sample-interval-ms MS time-series sampling interval (default: 1000)

TOP FLAGS:
  --url HOST:PORT         follow `GET /v1/stream/metrics` on a running
                          rsmem-service (http:// prefix optional)
  --interval MS           sampling/refresh interval (default: 1000)
  --frames N              stop after N frames (default: 0 = run until the
                          stream ends or the wrapped command exits)
  --raw                   emit raw `rsmem-metrics/1` JSON frames instead of
                          the rendered dashboard
";

/// Dispatches a raw argv to a command, returning printable output.
///
/// # Errors
///
/// A human-readable message for unknown commands, malformed flags or
/// underlying library errors.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let parsed = parse(argv)?;
    apply_log_flags(&parsed)?;
    match parsed.positional.first().map(String::as_str) {
        None | Some("help") => Ok(HELP.to_owned()),
        Some("list") => Ok(ExperimentId::ALL
            .iter()
            .map(|id| format!("{id}\n"))
            .collect()),
        Some("experiment") => cmd_experiment(&parsed),
        Some("sweep") => cmd_sweep(&parsed),
        Some("check-jsonl") => check_jsonl(std::io::stdin().lock()),
        Some("ber") => cmd_ber(&parsed),
        Some("metrics") => cmd_metrics(&parsed),
        Some("simulate") => cmd_simulate(&parsed),
        Some("array") => cmd_array(&parsed),
        Some("advise") => cmd_advise(&parsed),
        Some("complexity") => {
            let rows = rsmem::complexity::section6_comparison();
            Ok(report::render_complexity(&rows))
        }
        Some("compare") => cmd_compare(&parsed),
        Some("stress") => cmd_stress(&parsed),
        Some("serve") => cmd_serve(&parsed),
        Some("top") => crate::top::cmd_top(argv, &parsed),
        Some("profile") => cmd_profile(argv, &parsed),
        Some("trace") => cmd_trace(argv, &parsed),
        Some("bench") => cmd_bench(&parsed),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn experiment_id(name: &str) -> Result<ExperimentId, String> {
    name.parse()
        .map_err(|e: ParseExperimentIdError| e.to_string())
}

/// `--threads N` → a [`Parallelism`]; absent = all available cores.
fn parallelism_from(parsed: &Parsed) -> Result<Parallelism, String> {
    match parsed.value("--threads") {
        None => Ok(Parallelism::Auto),
        Some(_) => Ok(Parallelism::threads(parsed.usize_flag("--threads", 0)?)),
    }
}

/// Applies `--log-format`/`--log-level` on top of whatever `RSMEM_LOG`
/// configured in `main` (flags win; absent flags leave the env config
/// untouched).
fn apply_log_flags(parsed: &Parsed) -> Result<(), String> {
    if parsed.value("--log-format").is_none() && parsed.value("--log-level").is_none() {
        return Ok(());
    }
    let format = parsed.value("--log-format").unwrap_or("text");
    let spec = match parsed.value("--log-level") {
        Some(level) => format!("{format}:{level}"),
        None => format.to_owned(),
    };
    rsmem_obs::log::init(LogConfig::parse(&spec)?);
    Ok(())
}

/// Renders an experiment's output honouring `--csv`/`--plot` (shared by
/// `experiment` and `sweep`).
fn render_experiment(parsed: &Parsed, output: &ExperimentOutput) -> String {
    match (output.figure(), output.table()) {
        (Some(fig), _) if parsed.has("--csv") => report::figure_to_csv(fig),
        (Some(fig), _) if parsed.has("--plot") => {
            rsmem::plot::ascii_plot(fig, &rsmem::plot::PlotOptions::default())
        }
        (Some(fig), _) => report::render_figure(fig),
        (_, Some(rows)) => report::render_complexity(rows),
        _ => unreachable!("experiment output is figure or table"),
    }
}

fn cmd_experiment(parsed: &Parsed) -> Result<String, String> {
    let name = parsed
        .positional
        .get(1)
        .ok_or("experiment requires an id (see `rsmem list`)")?;
    let id = experiment_id(name)?;
    let par = parallelism_from(parsed)?;
    let output = run_with(id, &par).map_err(|e| e.to_string())?;
    Ok(render_experiment(parsed, &output))
}

/// Like `experiment`, but the whole run happens under a fresh trace ID
/// with a timed span and rate-limited progress reporting — the solver
/// spans inherit the trace ID through the worker pool, so
/// `RSMEM_LOG=json rsmem sweep fig7` yields a correlatable JSON-lines
/// record of everything one figure cost.
fn cmd_sweep(parsed: &Parsed) -> Result<String, String> {
    let name = parsed
        .positional
        .get(1)
        .ok_or("sweep requires an experiment id (see `rsmem list`)")?;
    let id = experiment_id(name)?;
    let par = parallelism_from(parsed)?;
    let _trace = trace_scope(next_trace_id());
    let mut span = rsmem_obs::span("cli.sweep", "sweep");
    if span.active() {
        span.record("experiment", id.to_string());
    }
    // The observer is called from whichever worker finishes a curve, so
    // the rate-limited reporter sits behind a mutex; the tuple keeps the
    // last-seen counts for the final 100% line.
    let progress = Mutex::new((Progress::new("cli.sweep", "sweep"), 0u64, 0u64));
    let output = run_with_observer(id, &par, &|done, total| {
        let mut guard = progress.lock().expect("progress lock");
        guard.1 = done as u64;
        guard.2 = total as u64;
        let (done, total) = (guard.1, guard.2);
        guard.0.tick(done, total, &[]);
    })
    .map_err(|e| e.to_string())?;
    let (mut reporter, done, total) = progress.into_inner().expect("progress lock");
    reporter.finish(done, total, &[]);
    span.record("curves", done);
    Ok(render_experiment(parsed, &output))
}

/// Validates a JSON-lines stream: every line must parse under the strict
/// shared codec *and* already be in canonical encoding (so
/// `RSMEM_LOG=json` output round-trips byte-identically). Factored over
/// `BufRead` so tests can drive it from a buffer.
fn check_jsonl(reader: impl std::io::BufRead) -> Result<String, String> {
    let mut lines = 0usize;
    for (index, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", index + 1))?;
        let value =
            rsmem_obs::json::parse(&line).map_err(|e| format!("line {}: {e}", index + 1))?;
        let canonical = value.encode();
        if canonical != line {
            return Err(format!(
                "line {}: parseable but not canonical\n  input:     {line}\n  canonical: {canonical}",
                index + 1
            ));
        }
        lines += 1;
    }
    Ok(format!("{lines} lines: strict canonical JSON\n"))
}

fn system_from(parsed: &Parsed) -> Result<MemorySystem, String> {
    let code = parsed.code_flag()?;
    let mut system = if parsed.has("--duplex") {
        MemorySystem::duplex(code)
    } else {
        MemorySystem::simplex(code)
    };
    system = system
        .with_seu_rate(SeuRate::per_bit_day(parsed.f64_flag("--seu", 0.0)?))
        .with_erasure_rate(ErasureRate::per_symbol_day(
            parsed.f64_flag("--erasure", 0.0)?,
        ));
    if parsed.value("--tsc").is_some() {
        let tsc = parsed.f64_flag("--tsc", 0.0)?;
        system = system.with_scrubbing(Scrubbing::every_seconds(tsc));
    }
    Ok(system)
}

fn horizon_from(parsed: &Parsed) -> Result<Time, String> {
    if parsed.value("--months").is_some() {
        Ok(Time::from_months(parsed.f64_flag("--months", 24.0)?))
    } else {
        Ok(Time::from_hours(parsed.f64_flag("--hours", 48.0)?))
    }
}

fn cmd_ber(parsed: &Parsed) -> Result<String, String> {
    let system = system_from(parsed)?;
    let horizon = horizon_from(parsed)?;
    let points = parsed.usize_flag("--points", 25)?.max(2);
    let grid = TimeGrid::linspace(Time::zero(), horizon, points);
    let curve = system.ber_curve(grid.points()).map_err(|e| e.to_string())?;

    let mut out = String::new();
    if parsed.has("--csv") {
        let _ = writeln!(out, "hours,fail_probability,ber");
        for (t, (p, b)) in grid
            .points()
            .iter()
            .zip(curve.fail_probability.iter().zip(&curve.ber))
        {
            let _ = writeln!(out, "{},{p:e},{b:e}", t.as_hours());
        }
    } else {
        let _ = writeln!(out, "{:>12} {:>14} {:>14}", "hours", "P_fail", "BER");
        for (t, (p, b)) in grid
            .points()
            .iter()
            .zip(curve.fail_probability.iter().zip(&curve.ber))
        {
            let _ = writeln!(out, "{:>12.3} {p:>14.4e} {b:>14.4e}", t.as_hours());
        }
    }
    Ok(out)
}

fn cmd_metrics(parsed: &Parsed) -> Result<String, String> {
    let system = system_from(parsed)?;
    let horizon = horizon_from(parsed)?;
    let mut out = String::new();
    let r = system.reliability(horizon).map_err(|e| e.to_string())?;
    let uptime = system.expected_uptime(horizon).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "horizon:          {horizon}");
    let _ = writeln!(out, "reliability R(t): {r:.9}");
    let _ = writeln!(out, "expected uptime:  {uptime}");
    match system.mttf() {
        Ok(mttf) => {
            let _ = writeln!(out, "MTTF:             {mttf}");
        }
        Err(_) => {
            let _ = writeln!(out, "MTTF:             unbounded (no failure reachable)");
        }
    }
    Ok(out)
}

fn cmd_array(parsed: &Parsed) -> Result<String, String> {
    let code = parsed.code_flag()?;
    let (n, k, m) = (code.n(), code.k(), code.m());
    let words = parsed.usize_flag("--words", 32)?;
    let mbu = parsed.usize_flag("--mbu", 1)? as u32;
    let depth = parsed.usize_flag("--interleave", 1)?;
    let trials = parsed.usize_flag("--trials", 200)?;
    let seed = parsed.u64_flag("--seed", 42)?;
    let config = rsmem::array::ArrayConfig {
        base: rsmem::SimConfig {
            n,
            k,
            m,
            family: code.family(),
            depth: u8::try_from(code.depth()).map_err(|_| "interleave depth too large")?,
            seu_per_bit_day: parsed.f64_flag("--seu", 0.0)?,
            erasure_per_symbol_day: parsed.f64_flag("--erasure", 0.0)?,
            scrub: parsed
                .value("--tsc")
                .map(|_| -> Result<_, String> {
                    let tsc = parsed.f64_flag("--tsc", 0.0)?;
                    Ok((tsc / 86_400.0, rsmem::ScrubTiming::Periodic))
                })
                .transpose()?,
            store_days: parsed.f64_flag("--days", 2.0)?,
        },
        words,
        mbu_width_bits: mbu,
        interleave_depth: depth,
    };
    let threads = parallelism_from(parsed)?.worker_count(trials);
    let report =
        rsmem::array::run_array_threaded(&config, parsed.has("--duplex"), trials, seed, threads)
            .map_err(|e| e.to_string())?;
    Ok(render_array(&report))
}

/// The one-line summary `rsmem array` prints.
fn render_array(report: &rsmem::array::ArrayReport) -> String {
    format!(
        "{} trials × {} words: {} failed words ({} silent); \
         fraction {:.4e} (95% CI [{:.4e}, {:.4e}]), BER ≈ {:.4e}\n",
        report.trials,
        report.words,
        report.failed_words,
        report.silent_words,
        report.word_failure_fraction,
        report.wilson_95.0,
        report.wilson_95.1,
        report.ber_estimate
    )
}

fn cmd_simulate(parsed: &Parsed) -> Result<String, String> {
    let system = system_from(parsed)?;
    let days = parsed.f64_flag("--days", 2.0)?;
    let trials = parsed.usize_flag("--trials", 1000)?;
    let seed = parsed.u64_flag("--seed", 42)?;
    let par = parallelism_from(parsed)?;
    // Under `rsmem trace` the MC shards freeze silent-corruption and
    // arbiter-reject exemplars; the wrapping timeline renders them, so
    // the summary itself stays byte-identical for equal (seed, trials)
    // regardless of recorder state or thread count.
    let report = system
        .monte_carlo_with(
            Time::from_days(days),
            trials,
            seed,
            ScrubTiming::Periodic,
            &par,
        )
        .map_err(|e| e.to_string())?;
    Ok(format!("{report}\n"))
}

/// Parses `--budget N|small|full`: named tiers for scripts and CI
/// (`small` = 2 000 for smoke runs, `full` = the 100 000 default) or an
/// explicit case count.
fn stress_budget(parsed: &Parsed) -> Result<usize, String> {
    match parsed.value("--budget") {
        None | Some("full") => Ok(100_000),
        Some("small") => Ok(2_000),
        Some(_) => parsed.usize_flag("--budget", 100_000),
    }
}

/// Renders every exemplar the flight recorder froze during a run, as a
/// ready-to-paste block appended to a failing command's output.
fn render_captured_exemplars() -> String {
    let snapshot = rsmem_obs::recorder::snapshot();
    if snapshot.exemplars.is_empty() {
        return String::new();
    }
    let mut out = String::from("\ncaptured failure exemplars:\n");
    for exemplar in &snapshot.exemplars {
        out.push_str(&rsmem_obs::recorder::render_exemplar_text(exemplar));
    }
    out
}

fn cmd_stress(parsed: &Parsed) -> Result<String, String> {
    let seed = parsed.u64_flag("--seed", 0xDA7E)?;
    let budget = stress_budget(parsed)?;
    let config = rsmem_stress::StressConfig::with_budget(seed, budget);
    // One trace ID for the whole run ties the per-suite spans and the
    // solver spans of the x-val stage together.
    let _trace = trace_scope(next_trace_id());
    // Capture failure exemplars even outside `rsmem trace`, so a
    // divergence always comes with its forensics attached. Snapshots
    // here never reset — a wrapping `rsmem trace` sees the same events.
    let recording = rsmem_obs::recorder::enable_scoped();
    let report = rsmem_stress::run(&config);
    drop(recording);
    let text = report.to_string();
    if report.is_clean() {
        Ok(text)
    } else {
        // Divergences are a hard failure: print the full report (with
        // the minimized repros and the recorder's frozen exemplars)
        // through the error channel so scripts and CI fail loudly.
        Err(format!(
            "{text}{}\nstress: {} divergence(s) found",
            render_captured_exemplars(),
            report.divergence_count()
        ))
    }
}

fn cmd_serve(parsed: &Parsed) -> Result<String, String> {
    let config = rsmem_service::ServiceConfig {
        addr: parsed
            .value("--addr")
            .unwrap_or("127.0.0.1:7373")
            .to_owned(),
        workers: parsed.usize_flag("--threads", 0)?,
        cache_capacity: parsed.usize_flag("--cache-cap", 128)?,
        backlog: parsed.usize_flag("--backlog", 64)?,
        sample_interval_ms: parsed.u64_flag("--sample-interval-ms", 1_000)?,
    };
    let server = rsmem_service::Server::bind(config).map_err(|e| e.to_string())?;
    // Announce on stderr before blocking so scripts can scrape the port.
    eprintln!("rsmem-service listening on {}", server.local_addr());
    server.run();
    Ok("server stopped\n".to_owned())
}

/// `rsmem profile [--] <cmd ...>` — re-dispatches the wrapped command with
/// the hierarchical profiler enabled, then reports where the wall time
/// went. `--profile-json` swaps the text tree (appended after the
/// wrapped command's output) for the canonical-JSON document alone.
fn cmd_profile(argv: &[String], parsed: &Parsed) -> Result<String, String> {
    let inner = split_wrapped(argv, "profile", &["--profile-json"], &[])?;
    let was_enabled = rsmem_obs::profile::is_enabled();
    rsmem_obs::profile::set_enabled(true);
    rsmem_obs::profile::reset();
    let started = std::time::Instant::now();
    let result = dispatch(&inner);
    let wall_us = (started.elapsed().as_secs_f64() * 1e6) as u64;
    let snapshot = rsmem_obs::profile::snapshot_and_reset();
    rsmem_obs::profile::set_enabled(was_enabled);
    let inner_output = result?;
    if parsed.has("--profile-json") {
        let mut doc = snapshot.to_json();
        if let rsmem_obs::json::Value::Object(map) = &mut doc {
            map.insert(
                "wall_us".to_owned(),
                rsmem_obs::json::Value::Number(wall_us as f64),
            );
        }
        Ok(format!("{}\n", doc.encode()))
    } else {
        let attributed = snapshot.root_total_us();
        let percent = if wall_us > 0 {
            attributed as f64 / wall_us as f64 * 100.0
        } else {
            100.0
        };
        let mut out = inner_output;
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "--- profile: {wall_us}µs wall, {percent:.1}% attributed ---"
        );
        out.push_str(&snapshot.render_text());
        Ok(out)
    }
}

/// `rsmem trace [--] <cmd ...>` — re-dispatches the wrapped command with
/// the flight recorder enabled, then replays the ring as a
/// trace-id-grouped timeline with the frozen failure exemplars attached.
/// `--trace-json` swaps the text tree (appended after the wrapped
/// command's output) for the canonical-JSON `rsmem-trace/1` document
/// alone. When the wrapped command fails, the timeline is appended to
/// its error so the forensics still surface.
fn cmd_trace(argv: &[String], parsed: &Parsed) -> Result<String, String> {
    let inner = split_wrapped(argv, "trace", &["--trace-json"], &[])?;
    let recording = rsmem_obs::recorder::enable_scoped();
    // Start from a fresh epoch so the timeline covers this run alone.
    let _ = rsmem_obs::recorder::snapshot_and_reset();
    let result = dispatch(&inner);
    let snapshot = rsmem_obs::recorder::snapshot_and_reset();
    drop(recording);
    let rendered = if parsed.has("--trace-json") {
        format!("{}\n", rsmem_obs::recorder::to_json(&snapshot).encode())
    } else {
        rsmem_obs::recorder::render_text(&snapshot)
    };
    match result {
        Ok(inner_output) => {
            if parsed.has("--trace-json") {
                Ok(rendered)
            } else {
                let mut out = inner_output;
                if !out.is_empty() && !out.ends_with('\n') {
                    out.push('\n');
                }
                out.push_str(&rendered);
                Ok(out)
            }
        }
        Err(e) => Err(format!("{e}\n{rendered}")),
    }
}

/// Reads and schema-validates a `BENCH_<date>.json` report.
fn load_bench_report(path: &str) -> Result<rsmem_bench::harness::BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = rsmem_obs::json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    rsmem_bench::harness::BenchReport::from_json(&value).map_err(|e| format!("{path}: {e}"))
}

/// `rsmem bench` — runs the continuous benchmark suite and writes the
/// canonical report; `rsmem bench --compare OLD NEW` gates NEW against
/// OLD and fails (nonzero exit) on hard violations or — unless
/// `--warn-timing` — statistically significant slowdowns.
fn cmd_bench(parsed: &Parsed) -> Result<String, String> {
    use rsmem_bench::harness;
    if let Some(old_path) = parsed.value("--compare") {
        let new_path = parsed
            .positional
            .get(1)
            .ok_or("bench --compare OLD NEW: the new report path is missing")?;
        let old = load_bench_report(old_path)?;
        let new = load_bench_report(new_path)?;
        let comparison = harness::compare(&old, &new);
        let text = comparison.render_text();
        let timing_is_fatal =
            !comparison.timing_regressions.is_empty() && !parsed.has("--warn-timing");
        if comparison.hard_failures.is_empty() && !timing_is_fatal {
            Ok(text)
        } else {
            Err(text)
        }
    } else {
        let quick = parsed.has("--quick");
        let report = harness::run_suite(quick)?;
        let path = parsed
            .value("--out")
            .map(ToOwned::to_owned)
            .unwrap_or_else(|| format!("BENCH_{}.json", harness::today_utc()));
        std::fs::write(&path, format!("{}\n", report.to_json().encode()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        Ok(format!("{}wrote {path}\n", report.render_text()))
    }
}

fn cmd_advise(parsed: &Parsed) -> Result<String, String> {
    let system = system_from(parsed)?;
    let horizon = horizon_from(parsed)?;
    let target = parsed.f64_flag("--target-ber", 1e-6)?;
    let rec = minimum_scrub_period(&system, target, horizon, Time::from_seconds(10.0))
        .map_err(|e| e.to_string())?;
    Ok(match rec {
        ScrubRecommendation::NotNeeded => {
            format!("target BER {target:e} met without scrubbing\n")
        }
        ScrubRecommendation::Period {
            period,
            achieved_ber,
        } => format!(
            "scrub every {:.0} s ({}) → BER {achieved_ber:.3e} ≤ {target:e}\n",
            period.as_seconds(),
            period
        ),
        ScrubRecommendation::Unachievable { best_ber } => format!(
            "unachievable: even 10 s scrubbing gives BER {best_ber:.3e} > {target:e} \
             (scrubbing cannot repair permanent faults)\n"
        ),
    })
}

/// Parses `--families rs,rm,irs` into a deduplicated, order-preserving
/// family list.
fn parse_families(spec: &str) -> Result<Vec<CodeFamily>, String> {
    let mut families = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let family: CodeFamily = part
            .parse()
            .map_err(|_| format!("--families: unknown family {part:?} (expected rs, rm or irs)"))?;
        if !families.contains(&family) {
            families.push(family);
        }
    }
    if families.is_empty() {
        return Err("--families requires at least one of rs, rm, irs".to_owned());
    }
    Ok(families)
}

/// The representative geometry each family fields in `rsmem compare`.
///
/// All three sit in the same ~16-symbol-payload class so the BER axis
/// compares protection strategies, not word sizes: the paper's
/// RS(18,16) over GF(2^8), the majority-logic RM(1,5) (32 bits, 6 data)
/// and a depth-2 interleaving of RS(18,16) for burst resilience.
fn compare_family_params(family: CodeFamily) -> CodeParams {
    match family {
        CodeFamily::Rs => CodeParams::rs18_16(),
        CodeFamily::Rm => CodeParams::rm1(5).expect("RM(1,5) is a valid code"),
        CodeFamily::Irs => {
            CodeParams::interleaved(18, 16, 8, 2).expect("IRS(18,16)x2 is a valid code")
        }
    }
}

/// `rsmem compare` — the head-to-head code-family study: one
/// representative geometry per family under identical fault rates and
/// scrubbing, reporting BER(t) side by side plus the Section-6-schema
/// decoder complexity rows. `--quick` shrinks the time grid for CI
/// smoke runs; `--csv` emits the BER matrix alone.
fn cmd_compare(parsed: &Parsed) -> Result<String, String> {
    let families = parse_families(parsed.value("--families").unwrap_or("rs,rm,irs"))?;
    // Default to the paper's worst-case SEU environment so the curves
    // separate; `--seu 0` still yields the all-zero baseline.
    let seu = parsed.f64_flag("--seu", 1.7e-5)?;
    let erasure = parsed.f64_flag("--erasure", 0.0)?;
    let default_points = if parsed.has("--quick") { 5 } else { 25 };
    let points = parsed.usize_flag("--points", default_points)?.max(2);
    let horizon = horizon_from(parsed)?;
    let grid = TimeGrid::linspace(Time::zero(), horizon, points);

    let mut curves = Vec::with_capacity(families.len());
    let mut rows = Vec::with_capacity(families.len());
    for &family in &families {
        let params = compare_family_params(family);
        let mut system = if parsed.has("--duplex") {
            MemorySystem::duplex(params)
        } else {
            MemorySystem::simplex(params)
        };
        system = system
            .with_seu_rate(SeuRate::per_bit_day(seu))
            .with_erasure_rate(ErasureRate::per_symbol_day(erasure));
        if parsed.value("--tsc").is_some() {
            let tsc = parsed.f64_flag("--tsc", 0.0)?;
            system = system.with_scrubbing(Scrubbing::every_seconds(tsc));
        }
        let curve = system.ber_curve(grid.points()).map_err(|e| e.to_string())?;
        rows.push(
            rsmem::codes::build(params)
                .map_err(|e| e.to_string())?
                .complexity_model(),
        );
        curves.push((family, params, curve));
    }

    let mut out = String::new();
    if parsed.has("--csv") {
        let _ = write!(out, "hours");
        for (family, _, _) in &curves {
            let _ = write!(out, ",ber_{family}");
        }
        out.push('\n');
        for (i, t) in grid.points().iter().enumerate() {
            let _ = write!(out, "{}", t.as_hours());
            for (_, _, curve) in &curves {
                let _ = write!(out, ",{:e}", curve.ber[i]);
            }
            out.push('\n');
        }
        return Ok(out);
    }

    let _ = writeln!(
        out,
        "code-family comparison — {}, SEU {seu:e}/bit/day, erasure {erasure:e}/symbol/day, {}",
        if parsed.has("--duplex") {
            "duplex"
        } else {
            "simplex"
        },
        match parsed.value("--tsc") {
            Some(tsc) => format!("scrub every {tsc} s"),
            None => "no scrubbing".to_owned(),
        }
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<8} {:<26} {:>4} {:>4} {:>3} {:>7}",
        "family", "code", "n", "k", "m", "budget"
    );
    for (family, params, _) in &curves {
        let _ = writeln!(
            out,
            "{:<8} {:<26} {:>4} {:>4} {:>3} {:>7}",
            family.to_string(),
            params.to_string(),
            params.n(),
            params.k(),
            params.m(),
            params.capability().budget
        );
    }
    out.push('\n');
    let _ = write!(out, "{:>12}", "hours");
    for (family, _, _) in &curves {
        let _ = write!(out, " {:>14}", format!("BER {family}"));
    }
    out.push('\n');
    for (i, t) in grid.points().iter().enumerate() {
        let _ = write!(out, "{:>12.3}", t.as_hours());
        for (_, _, curve) in &curves {
            let _ = write!(out, " {:>14.4e}", curve.ber[i]);
        }
        out.push('\n');
    }
    out.push('\n');
    let _ = writeln!(out, "decoder complexity (Section-6 schema):");
    out.push_str(&report::render_complexity(&rows));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(parts: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = parts.iter().map(ToString::to_string).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_and_list() {
        assert!(run_cli(&[]).unwrap().contains("USAGE"));
        assert!(run_cli(&["help"]).unwrap().contains("rsmem"));
        let list = run_cli(&["list"]).unwrap();
        assert!(list.contains("fig9") && list.contains("complexity"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_cli(&["frobnicate"]).is_err());
    }

    #[test]
    fn array_duplex_runs_the_duplex_campaign() {
        let flags = [
            "--seu",
            "1e-2",
            "--erasure",
            "1e-3",
            "--tsc",
            "900",
            "--trials",
            "50",
            "--seed",
            "3",
        ];
        let simplex = run_cli(&[&["array"], &flags[..]].concat()).unwrap();
        let duplex = run_cli(&[&["array", "--duplex"], &flags[..]].concat()).unwrap();
        let config = rsmem::array::ArrayConfig {
            base: rsmem::SimConfig {
                seu_per_bit_day: 1e-2,
                erasure_per_symbol_day: 1e-3,
                scrub: Some((900.0 / 86_400.0, rsmem::ScrubTiming::Periodic)),
                ..rsmem::SimConfig::rs18_16_baseline()
            },
            words: 32,
            mbu_width_bits: 1,
            interleave_depth: 1,
        };
        let expected = rsmem::array::run_duplex_array(&config, 50, 3).unwrap();
        assert_eq!(duplex, render_array(&expected));
        assert_ne!(duplex, simplex);
    }

    #[test]
    fn array_runs_the_configured_code_family() {
        let flags = [
            "--seu", "1e-2", "--trials", "20", "--words", "8", "--seed", "3",
        ];
        let array = |code: &str| run_cli(&[&["array", "--code", code], &flags[..]].concat());
        let rm = array("rm:5").unwrap();
        assert!(rm.contains("20 trials × 8 words"), "{rm}");
        // IRS(18,16) at depth 2 has the geometry of RS(36,32), but its
        // own decoder.
        assert_ne!(array("irs:18,16,8,2").unwrap(), array("36,32,8").unwrap());
    }

    #[test]
    fn stress_small_budget_runs_clean() {
        let out = run_cli(&["stress", "--seed", "0xDA7E", "--budget", "500"]).unwrap();
        assert!(out.contains("stress run"), "{out}");
        assert!(out.contains("divergences:   none"), "{out}");
    }

    #[test]
    fn compare_default_covers_all_three_families() {
        let out = run_cli(&["compare", "--quick"]).unwrap();
        assert!(out.contains("RS(18,16)"), "{out}");
        assert!(out.contains("RM(1,5)"), "{out}");
        assert!(out.contains("IRS(18,16)x2"), "{out}");
        assert!(out.contains("decode cycles"), "{out}");
        assert!(out.contains("BER rs"), "{out}");
    }

    #[test]
    fn compare_subset_csv_has_one_column_per_family() {
        let csv = run_cli(&["compare", "--quick", "--csv", "--families", "rs,rm"]).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "hours,ber_rs,ber_rm");
        // --quick pins 5 grid points; header + 5 rows.
        assert_eq!(csv.lines().count(), 6, "{csv}");
    }

    #[test]
    fn compare_rejects_unknown_families() {
        assert!(run_cli(&["compare", "--families", "bogus"]).is_err());
        assert!(run_cli(&["compare", "--families", ","]).is_err());
    }

    #[test]
    fn experiment_complexity_table() {
        let out = run_cli(&["experiment", "complexity"]).unwrap();
        assert!(out.contains("308"));
    }

    #[test]
    fn sweep_matches_experiment_output() {
        let sweep = run_cli(&["sweep", "fig5", "--csv", "--threads", "2"]).unwrap();
        let experiment = run_cli(&["experiment", "fig5", "--csv"]).unwrap();
        assert_eq!(sweep, experiment);
        assert!(run_cli(&["sweep"]).is_err());
        assert!(run_cli(&["sweep", "fig99"]).is_err());
    }

    #[test]
    fn check_jsonl_accepts_canonical_and_rejects_everything_else() {
        use std::io::Cursor;
        // Canonical encoding sorts object keys, so these are fixed points.
        let good = "{\"a\":1,\"b\":[true,null]}\n{\"level\":\"debug\",\"ts_us\":12}\n";
        let out = check_jsonl(Cursor::new(good)).unwrap();
        assert_eq!(out, "2 lines: strict canonical JSON\n");
        assert_eq!(
            check_jsonl(Cursor::new("")).unwrap(),
            "0 lines: strict canonical JSON\n"
        );
        // Parse failure carries the line number.
        let err = check_jsonl(Cursor::new("{\"a\":1}\n{nope\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Valid JSON that is not in canonical encoding is rejected too.
        let err = check_jsonl(Cursor::new("{ \"a\" : 1 }\n")).unwrap_err();
        assert!(err.contains("not canonical"), "{err}");
        // A blank line is not a JSON value.
        assert!(check_jsonl(Cursor::new("{\"a\":1}\n\n{\"b\":2}\n")).is_err());
    }

    #[test]
    fn log_flags_are_validated() {
        assert!(run_cli(&["list", "--log-format", "yaml"]).is_err());
        assert!(run_cli(&["list", "--log-format", "json", "--log-level", "loud"]).is_err());
        // `off` is a valid format spec meaning "disable".
        assert!(run_cli(&["list", "--log-format", "off"]).is_ok());
    }

    #[test]
    fn experiment_plot_renders_ascii_chart() {
        let out = run_cli(&["experiment", "fig7", "--plot"]).unwrap();
        assert!(out.contains("legend:"), "{out}");
        assert!(out.contains('*'));
    }

    #[test]
    fn experiment_requires_valid_id() {
        assert!(run_cli(&["experiment"]).is_err());
        assert!(run_cli(&["experiment", "fig99"]).is_err());
    }

    #[test]
    fn ber_plain_and_csv() {
        let plain = run_cli(&[
            "ber", "--duplex", "--seu", "1.7e-5", "--hours", "48", "--points", "5",
        ])
        .unwrap();
        assert!(plain.contains("BER"));
        assert_eq!(plain.lines().count(), 6); // header + 5 points
        let csv = run_cli(&["ber", "--seu", "1.7e-5", "--points", "3", "--csv"]).unwrap();
        assert!(csv.starts_with("hours,fail_probability,ber"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn ber_honors_code_flag() {
        let out = run_cli(&[
            "ber",
            "--code",
            "36,16,8",
            "--erasure",
            "1e-6",
            "--months",
            "24",
            "--points",
            "3",
        ])
        .unwrap();
        assert!(out.contains("e-"));
        assert!(run_cli(&["ber", "--code", "1,2"]).is_err());
        assert!(run_cli(&["ber", "--code", "16,18,8"]).is_err()); // k > n
    }

    #[test]
    fn simulate_reports_trials() {
        let out = run_cli(&[
            "simulate", "--seu", "1e-2", "--trials", "50", "--seed", "7", "--days", "1",
        ])
        .unwrap();
        assert!(out.contains("50 trials"));
    }

    #[test]
    fn threads_flag_does_not_change_results() {
        let serial = run_cli(&["experiment", "fig5", "--csv", "--threads", "1"]).unwrap();
        let parallel = run_cli(&["experiment", "fig5", "--csv", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel);
        let sim_serial = run_cli(&[
            "simulate",
            "--seu",
            "1e-2",
            "--trials",
            "300",
            "--seed",
            "7",
            "--days",
            "1",
            "--threads",
            "1",
        ])
        .unwrap();
        let sim_parallel = run_cli(&[
            "simulate",
            "--seu",
            "1e-2",
            "--trials",
            "300",
            "--seed",
            "7",
            "--days",
            "1",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(sim_serial, sim_parallel);
    }

    #[test]
    fn array_threads_flag_does_not_change_results() {
        let array = |threads: &str| {
            run_cli(&[
                "array",
                "--duplex",
                "--seu",
                "2e-2",
                "--erasure",
                "5e-3",
                "--mbu",
                "2",
                "--words",
                "16",
                "--trials",
                "9",
                "--seed",
                "5",
                "--threads",
                threads,
            ])
            .unwrap()
        };
        let serial = array("1");
        assert!(!serial.contains(" 0 failed words"), "{serial}");
        assert_eq!(serial, array("4"));
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        assert!(run_cli(&["simulate", "--threads", "many"]).is_err());
    }

    #[test]
    fn advise_recovers_paper_guidance() {
        let out = run_cli(&[
            "advise",
            "--duplex",
            "--seu",
            "1.7e-5",
            "--target-ber",
            "1e-6",
            "--hours",
            "48",
        ])
        .unwrap();
        assert!(out.contains("scrub every"), "{out}");
    }

    #[test]
    fn metrics_command_reports_all_quantities() {
        let out = run_cli(&["metrics", "--duplex", "--seu", "1e-4", "--hours", "48"]).unwrap();
        assert!(out.contains("reliability"));
        assert!(out.contains("MTTF"));
        assert!(out.contains("uptime"));
        // A fault-free system has unbounded MTTF.
        let free = run_cli(&["metrics"]).unwrap();
        assert!(free.contains("unbounded"), "{free}");
    }

    #[test]
    fn array_command_runs_mbu_campaign() {
        let out = run_cli(&[
            "array",
            "--seu",
            "1e-3",
            "--mbu",
            "4",
            "--interleave",
            "4",
            "--words",
            "8",
            "--trials",
            "10",
            "--days",
            "1",
        ])
        .unwrap();
        assert!(out.contains("10 trials × 8 words"), "{out}");
        // Bad interleave depth (does not divide words) is a typed error.
        assert!(run_cli(&["array", "--interleave", "3", "--words", "8"]).is_err());
    }

    #[test]
    fn serve_rejects_unbindable_addresses() {
        assert!(run_cli(&["serve", "--addr", "not-an-address"]).is_err());
        assert!(run_cli(&["serve", "--cache-cap", "lots"]).is_err());
    }

    /// `rsmem trace` and `rsmem profile` each start a fresh epoch of a
    /// process-wide recorder, which drops what a concurrent wrapped run
    /// in this process has recorded so far, so the tests that wrap a
    /// command take turns.
    fn wrapper_turn() -> std::sync::MutexGuard<'static, ()> {
        static WRAPPERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        WRAPPERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn trace_requires_a_wrappable_command() {
        let _turn = wrapper_turn();
        assert!(run_cli(&["trace"]).is_err());
        assert!(run_cli(&["trace", "--"]).is_err());
        assert!(run_cli(&["trace", "trace", "list"]).is_err());
        // Errors of the wrapped command surface, with the timeline
        // appended for forensics.
        let err = run_cli(&["trace", "frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.contains("flight recorder:"), "{err}");
    }

    #[test]
    fn trace_stress_captures_miscorrection_exemplars() {
        let _turn = wrapper_turn();
        // The stress lattice legally miscorrects beyond-bound cases;
        // forensics mode must freeze them with their repro attached.
        let out = run_cli(&["trace", "--", "stress", "--budget", "small"]).unwrap();
        assert!(out.contains("stress run"), "{out}");
        assert!(out.contains("flight recorder: epoch"), "{out}");
        assert!(out.contains("miscorrection"), "{out}");
        assert!(
            out.contains("#[test]"),
            "ready-to-paste repro missing:\n{out}"
        );

        // The JSON form is the canonical `rsmem-trace/1` document and
        // carries the same exemplar forensics.
        let json_out =
            run_cli(&["trace", "--trace-json", "--", "stress", "--budget", "500"]).unwrap();
        let doc = rsmem_obs::json::parse(json_out.trim()).expect("canonical JSON");
        assert_eq!(
            doc.get("schema").and_then(rsmem_obs::json::Value::as_str),
            Some("rsmem-trace/1")
        );
        let exemplars = match doc.get("exemplars") {
            Some(rsmem_obs::json::Value::Array(list)) => list,
            other => panic!("exemplars array missing: {other:?}"),
        };
        assert!(
            exemplars.iter().any(|e| {
                e.get("kind").and_then(rsmem_obs::json::Value::as_str) == Some("miscorrection")
            }),
            "{json_out}"
        );
        assert!(json_out.contains("\"events\":"), "{json_out}");
    }

    #[test]
    fn profile_requires_a_wrappable_command() {
        let _turn = wrapper_turn();
        assert!(run_cli(&["profile"]).is_err());
        assert!(run_cli(&["profile", "--profile-json"]).is_err());
        assert!(run_cli(&["profile", "profile", "list"]).is_err());
        // Errors of the wrapped command surface unchanged.
        assert!(run_cli(&["profile", "frobnicate"]).is_err());
    }

    #[test]
    fn profile_fig7_attributes_at_least_90_percent_of_wall_time() {
        let _turn = wrapper_turn();
        // Acceptance criterion: the profiler must account for ≥90% of a
        // fig7 regeneration's wall time through named spans.
        let out = run_cli(&["profile", "sweep", "fig7", "--profile-json"]).unwrap();
        let doc = rsmem_obs::json::parse(out.trim()).expect("canonical JSON");
        assert_eq!(
            doc.get("schema").and_then(rsmem_obs::json::Value::as_str),
            Some("rsmem-profile/1")
        );
        let wall = doc
            .get("wall_us")
            .and_then(rsmem_obs::json::Value::as_f64)
            .expect("wall_us present");
        let spans = match doc.get("spans") {
            Some(rsmem_obs::json::Value::Array(spans)) => spans,
            other => panic!("spans array missing: {other:?}"),
        };
        let attributed: f64 = spans
            .iter()
            .map(|s| {
                s.get("total_us")
                    .and_then(rsmem_obs::json::Value::as_f64)
                    .unwrap_or(0.0)
            })
            .sum();
        assert!(
            attributed >= 0.9 * wall,
            "attributed {attributed}µs of {wall}µs wall"
        );
        // The call tree names the figure and its per-curve children.
        assert!(out.contains("\"name\":\"fig7\""), "{out}");
        assert!(out.contains("\"name\":\"scrub_curve\""), "{out}");
    }

    #[test]
    fn profile_text_report_follows_wrapped_output() {
        let _turn = wrapper_turn();
        let out = run_cli(&["profile", "experiment", "fig5", "--csv"]).unwrap();
        let plain = run_cli(&["experiment", "fig5", "--csv"]).unwrap();
        assert!(out.starts_with(&plain), "wrapped output preserved");
        assert!(out.contains("--- profile:"), "{out}");
        assert!(out.contains("core.experiments.fig5"), "{out}");
    }

    /// Every wrapper hands the argv after a bare `--` to the wrapped
    /// command untouched: the wrapped output is the plain command's,
    /// followed by the wrapper's own report.
    #[test]
    fn wrappers_run_the_wrapped_command_after_a_double_dash() {
        let _turn = wrapper_turn();
        let ber = [
            "ber", "--duplex", "--seu", "1e-3", "--hours", "48", "--points", "3",
        ];
        let plain = run_cli(&ber).unwrap();
        assert!(plain.contains("6.4080e-2"), "{plain}");
        let wrapped = |wrapper: &[&'static str]| [wrapper, &["--"], &ber].concat();

        let profiled = run_cli(&wrapped(&["profile"])).unwrap();
        let footer = profiled.strip_prefix(&plain).expect(&profiled);
        assert!(footer.starts_with("--- profile:"), "{profiled}");

        let traced = run_cli(&wrapped(&["trace"])).unwrap();
        let footer = traced.strip_prefix(&plain).expect(&traced);
        assert!(footer.starts_with("flight recorder:"), "{traced}");

        let argv: Vec<String> = wrapped(&["top", "--frames", "1"])
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut frames = 0;
        let topped = crate::top::run_top(&argv, &parse(&argv).unwrap(), &mut |_| frames += 1);
        assert_eq!(topped.unwrap(), plain);
        assert!(frames >= 1);
    }

    fn sample_bench_report() -> rsmem_bench::harness::BenchReport {
        use rsmem_bench::harness::{BenchReport, BenchResult};
        let bench = |name: &str, base: f64| BenchResult {
            name: name.to_owned(),
            times_us: vec![base * 1.1, base, base * 1.05],
            min_us: base,
            median_us: base * 1.05,
            mad_us: base * 0.01,
            fingerprint: 0xFEED_F00D,
            symbols: 0,
        };
        BenchReport {
            mode: "quick".to_owned(),
            build_version: "0.1.0".to_owned(),
            build_git_hash: "cafebabe".to_owned(),
            benches: vec![bench("fig5", 900.0), bench("fig7", 1_200.0)],
        }
    }

    fn write_bench_report(
        tag: &str,
        report: &rsmem_bench::harness::BenchReport,
    ) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rsmem-cli-bench-{}-{tag}.json", std::process::id()));
        std::fs::write(&path, format!("{}\n", report.to_json().encode())).unwrap();
        path
    }

    #[test]
    fn bench_compare_passes_self_and_flags_2x_slowdown() {
        // Acceptance criterion: self-comparison exits cleanly; a 2x
        // slowdown injected into fig7 is flagged with nonzero exit.
        let old = sample_bench_report();
        let old_path = write_bench_report("self-old", &old);
        let ok = run_cli(&[
            "bench",
            "--compare",
            old_path.to_str().unwrap(),
            old_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(ok.contains("comparison clean"), "{ok}");

        let mut slow = old.clone();
        let fig7 = slow.benches.iter_mut().find(|b| b.name == "fig7").unwrap();
        for t in &mut fig7.times_us {
            *t *= 2.0;
        }
        fig7.min_us *= 2.0;
        fig7.median_us *= 2.0;
        let slow_path = write_bench_report("self-slow", &slow);
        let err = run_cli(&[
            "bench",
            "--compare",
            old_path.to_str().unwrap(),
            slow_path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("fig7"), "{err}");
        assert!(!err.contains("fig5"), "{err}");

        // --warn-timing downgrades the slowdown to a warning (exit 0)…
        let warned = run_cli(&[
            "bench",
            "--compare",
            old_path.to_str().unwrap(),
            slow_path.to_str().unwrap(),
            "--warn-timing",
        ])
        .unwrap();
        assert!(warned.contains("REGRESSION"), "{warned}");

        // …but never rescues a determinism violation.
        let mut wrong = old.clone();
        wrong.benches[0].fingerprint ^= 1;
        let wrong_path = write_bench_report("self-wrong", &wrong);
        let err = run_cli(&[
            "bench",
            "--compare",
            old_path.to_str().unwrap(),
            wrong_path.to_str().unwrap(),
            "--warn-timing",
        ])
        .unwrap_err();
        assert!(err.contains("HARD FAIL"), "{err}");

        for p in [old_path, slow_path, wrong_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn bench_compare_reports_bad_inputs() {
        assert!(run_cli(&["bench", "--compare", "/nonexistent.json"]).is_err());
        let old = sample_bench_report();
        let old_path = write_bench_report("bad-inputs", &old);
        // Missing NEW positional.
        let err = run_cli(&["bench", "--compare", old_path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("new report path"), "{err}");
        let _ = std::fs::remove_file(old_path);
    }

    #[test]
    fn advise_reports_unachievable_for_permanent_faults() {
        let out = run_cli(&[
            "advise",
            "--erasure",
            "1e-2",
            "--target-ber",
            "1e-12",
            "--hours",
            "720",
        ])
        .unwrap();
        assert!(out.contains("unachievable"), "{out}");
    }
}
