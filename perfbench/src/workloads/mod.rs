//! The five workloads and the runner that times them.
//!
//! Every workload is timed only from outside the program, through its
//! public calls. A run runs operations until its time budget is spent,
//! checking every result. An untraced run spends the budget in `WINDOWS`
//! windows, sets the workload up afresh before each, and reports the
//! quickest window and the median set-up. A traced run sets up once and
//! splits the budget: the first half runs untraced, the second half runs with the span profiler on and reads
//! the program's counters around it, so the per-layer numbers and the
//! tracing overhead come from one process. Both halves of a traced run
//! solve on the timed thread ([`Parallelism::Serial`]): span times of
//! worker threads overlap, so only serial spans add up to wall time.

mod ctmc;
mod mc;
mod serve;

pub use ctmc::FIGURE_FINGERPRINTS;

use crate::spec::spec;
use crate::stats::{median, Reservoir};
use rsmem::Parallelism;
use rsmem_obs::profile::{SnapNode, Snapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = ["figures", "mission", "mc_word", "mc_array", "serve"];

/// The seed whose results are pinned (`--seed` default).
pub const PINNED_SEED: u64 = 1;

/// Failure messages kept per run; the count is always exact.
pub(super) const MAX_FAILURE_MESSAGES: usize = 5;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Time budget of the measured operations, in seconds; the set-ups
    /// between untraced windows count against it.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The value, in the unit `BENCHMARK.json` declares.
    pub value: f64,
    /// Operations (or set-ups) the value summarises.
    pub samples: usize,
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose result failed its check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Fingerprint of the workload's first operation (for `figures` and
    /// `serve`, of results that do not depend on the seed).
    pub fingerprint: u64,
    /// Every declared metric of the run's kind, by name.
    pub metrics: BTreeMap<String, Sample>,
}

/// A workload as the runner sees it.
trait Workload {
    /// Builds the inputs and warms the program up. Called before every
    /// window; each call redoes the whole set-up.
    fn setup(&mut self) -> Result<(), String>;

    /// Releases what `setup` started; untimed, called between set-ups.
    fn teardown(&mut self) {}

    /// Runs operations until `budget` is spent (at least one). When
    /// `traced`, also times the layers the program has no span for.
    fn run(&mut self, budget: Duration, traced: bool) -> Phase;

    /// Fingerprint of the first operation's results.
    fn fingerprint(&self) -> u64;
}

/// What one timed phase observed.
#[derive(Debug)]
struct Phase {
    started: Instant,
    budget: Duration,
    /// Operations completed.
    ops: u64,
    /// A sample of their latencies, and the sum of all of them.
    latencies_ms: Reservoir<f64>,
    latency_sum_ms: f64,
    work: f64,
    failed: u64,
    failures: Vec<String>,
    wall_s: f64,
    /// Layer totals the benchmark timed or counted itself, reported per
    /// operation.
    layer_totals: BTreeMap<&'static str, f64>,
    /// Layer values already in their reported form.
    layer_values: BTreeMap<&'static str, f64>,
}

impl Phase {
    fn new(budget: Duration) -> Phase {
        Phase {
            started: Instant::now(),
            budget,
            ops: 0,
            latencies_ms: Reservoir::new(0),
            latency_sum_ms: 0.0,
            work: 0.0,
            failed: 0,
            failures: Vec::new(),
            wall_s: 0.0,
            layer_totals: BTreeMap::new(),
            layer_values: BTreeMap::new(),
        }
    }

    /// True until the budget is spent; always true before the first
    /// operation.
    fn more(&self) -> bool {
        self.ops == 0 || self.started.elapsed() < self.budget
    }

    /// Times one operation.
    fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = op();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.ops += 1;
        self.latencies_ms.push(ms);
        self.latency_sum_ms += ms;
        result
    }

    /// Books a checked operation: its units of work, or why it failed.
    fn record(&mut self, checked: Result<f64, String>) {
        match checked {
            Ok(work) => self.work += work,
            Err(message) => self.fail(message),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    fn add(&mut self, layer: &'static str, amount: f64) {
        *self.layer_totals.entry(layer).or_insert(0.0) += amount;
    }

    fn finish(mut self) -> Phase {
        self.wall_s = self.started.elapsed().as_secs_f64();
        self
    }
}

/// Keeps the first operation's fingerprint in `kept` and, at
/// [`PINNED_SEED`], checks it against its pinned value.
fn pin_first(
    what: &str,
    seed: u64,
    index: u64,
    fingerprint: u64,
    pinned: u64,
    kept: &mut u64,
) -> Result<(), String> {
    if index != 0 {
        return Ok(());
    }
    *kept = fingerprint;
    if seed == PINNED_SEED && fingerprint != pinned {
        return Err(format!(
            "{what}: fingerprint {fingerprint:016x}, pinned {pinned:016x}"
        ));
    }
    Ok(())
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, a set-up that cannot complete (for
/// example a port that cannot be bound), or peak memory that cannot be
/// read. Wrong results are not errors: they count as failed operations.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let parallelism = if opts.trace {
        Parallelism::Serial
    } else {
        Parallelism::Auto
    };
    let mut workload: Box<dyn Workload> = match name {
        "figures" => Box::new(ctmc::Figures::new(opts.seed, parallelism)),
        "mission" => Box::new(ctmc::Mission::new(opts.seed)),
        "mc_word" => Box::new(mc::McWord::new(opts.seed, parallelism)),
        "mc_array" => Box::new(mc::McArray::new(opts.seed)),
        "serve" => Box::new(serve::Serve::new(opts.seed)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {} or all)",
                NAMES.join(", ")
            ))
        }
    };
    let mut setup_s = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut phases = Vec::new();
    let metrics = if opts.trace {
        set_up(workload.as_mut(), &mut setup_s)?;
        let plain = workload.run(budget / 2, false);
        let profiling = rsmem_obs::profile::is_enabled();
        rsmem_obs::profile::set_enabled(true);
        rsmem_obs::profile::reset();
        let before = Counters::read();
        let traced = workload.run(budget / 2, true);
        let profile = rsmem_obs::profile::snapshot();
        let after = Counters::read();
        rsmem_obs::profile::set_enabled(profiling);
        let metrics = per_layer(&plain, &traced, &profile, &before, &after);
        phases.extend([plain, traced]);
        metrics
    } else {
        let started = Instant::now();
        let mut windows = Vec::new();
        while windows.is_empty() || started.elapsed() < budget {
            set_up(workload.as_mut(), &mut setup_s)?;
            let mut phase = workload.run(budget / WINDOWS, false);
            windows.push(Window {
                p50_ms: median(phase.latencies_ms.items()),
                per_s: phase.work / phase.wall_s,
                ops: phase.ops as usize,
            });
            // Only the summary is kept, so the benchmark's own memory is
            // that of one window whatever the run length.
            phase.latencies_ms = Reservoir::new(0);
            phases.push(phase);
        }
        end_to_end(&windows, &setup_s)?
    };
    let declared: Vec<&str> = spec()
        .metrics(opts.trace)
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected = declared.clone();
    expected.sort_unstable();
    if emitted != expected {
        return Err(format!(
            "workload {name} emitted {emitted:?}, BENCHMARK.json declares {declared:?}"
        ));
    }
    Ok(Outcome {
        attempted: phases.iter().map(|p| p.ops).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        failures: phases.iter().flat_map(|p| p.failures.clone()).collect(),
        fingerprint: workload.fingerprint(),
        metrics,
    })
}

/// Sets `workload` up afresh, tearing down its previous set-up, and
/// books how long that took.
fn set_up(workload: &mut dyn Workload, setup_s: &mut Vec<f64>) -> Result<(), String> {
    if !setup_s.is_empty() {
        workload.teardown();
    }
    let started = Instant::now();
    workload.setup()?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(())
}

/// Windows an untraced run is split into.
///
/// On the shared 2-vCPU host the benchmark was sized on, the machine's
/// speed changes from one second to the next: back-to-back 1-second
/// `serve` runs read a median latency from 91 to 151 µs, with most near
/// 100 µs. A whole run's median moves with the share of slow seconds in
/// it, so ten 10-second runs spread by up to 35%. The quickest window of
/// a run is close to the host's quiet floor, which is what a change to
/// the program moves; `rsmem bench` takes the minimum of its runs for the
/// same reason. The set-ups are spread over the run, one before each
/// window, so their median covers the run as well rather than the
/// fraction of a second a burst of set-ups would take.
const WINDOWS: u32 = 10;

/// What one untraced window contributes to the end-to-end metrics.
struct Window {
    p50_ms: f64,
    per_s: f64,
    ops: usize,
}

/// The end-to-end metrics: latency and throughput of the quickest
/// window, each with that window's operation count, set-up time and
/// peak memory.
fn end_to_end(windows: &[Window], setup_s: &[f64]) -> Result<BTreeMap<String, Sample>, String> {
    let best = |key: fn(&Window) -> f64| {
        windows
            .iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .expect("a run has at least one window")
    };
    let quickest = best(|w| w.p50_ms);
    let fastest = best(|w| -w.per_s);
    let sample = |value, samples| Sample { value, samples };
    Ok(BTreeMap::from([
        ("setup_s".to_owned(), sample(median(setup_s), setup_s.len())),
        ("peak_rss_mb".to_owned(), sample(peak_rss_mb()?, 1)),
        ("work_per_s".to_owned(), sample(fastest.per_s, fastest.ops)),
        (
            "op_p50_ms".to_owned(),
            sample(quickest.p50_ms, quickest.ops),
        ),
    ]))
}

/// Layers the benchmark times or counts itself, reported per operation.
const BENCH_TOTALS: [&str; 3] = ["ctmc.explore_ms", "ctmc.states", "ctmc.nnz"];

/// Layers measured on the client side of `serve`, reported as measured.
const CLIENT_VALUES: [&str; 6] = [
    "service.hit_p50_us",
    "service.miss_p50_us",
    "service.invalid_p50_us",
    "service.p99_us",
    "service.cache.hit_ratio",
    "service.shed",
];

/// Span times and counter deltas of the traced phase, per operation.
fn per_layer(
    plain: &Phase,
    traced: &Phase,
    profile: &Snapshot,
    before: &Counters,
    after: &Counters,
) -> BTreeMap<String, Sample> {
    let ops = traced.ops.max(1) as f64;
    let span = |target, name, total| span_ms(profile, target, name, total) / ops;
    let delta = |field: fn(&Counters) -> f64| (field(after) - field(before)) / ops;
    // The bulk plane books its clean words on the scalar decode counters
    // too; they are taken out so `code.decode.*` counts scalar decodes.
    let scalar = |field: fn(&Counters) -> f64| delta(field) - delta(|c| c.bulk_clean);
    let decoded = scalar(|c| c.decode_outcomes);
    let mut values = vec![
        (
            "core.experiments.self_ms",
            span("core.experiments", None, false),
        ),
        (
            "core.system.ber_curve.self_ms",
            span("core.system", Some("ber_curve"), false),
        ),
        (
            "ctmc.uniformization.self_ms",
            span("ctmc.uniformization", None, false),
        ),
        (
            "code.bulk.syndromes.self_ms",
            span("code.bulk", Some("syndromes"), false),
        ),
        (
            "code.bulk.decode_batch.self_ms",
            span("code.bulk", Some("decode_batch"), false),
        ),
        ("sim.mc.self_ms", span("sim.mc", None, false)),
        ("service.http.self_ms", span("service.http", None, false)),
        (
            "service.analyze.solve.total_ms",
            span("service.analyze", Some("solve"), true),
        ),
        ("ctmc.uniformization.terms", delta(|c| c.terms)),
        ("code.bulk.words", delta(|c| c.bulk_words)),
        ("code.decode.words", scalar(|c| c.decode_words)),
        (
            "code.decode.clean_frac",
            if decoded > 0.0 {
                scalar(|c| c.decode_clean) / decoded
            } else {
                0.0
            },
        ),
        ("sim.arbiter.decisions", delta(|c| c.decisions)),
        (
            "trace.overhead_frac",
            median(traced.latencies_ms.items()) / median(plain.latencies_ms.items()) - 1.0,
        ),
        // Self times of every span against the operations they ran in:
        // both sums are per operation (on `serve`, per request). Spans
        // that overlap on worker threads add up to more than wall time;
        // the share is not clamped, so that shows as a negative value.
        (
            "trace.unattributed_frac",
            1.0 - self_total_ms(profile) / traced.latency_sum_ms,
        ),
    ];
    for name in BENCH_TOTALS {
        values.push((
            name,
            traced.layer_totals.get(name).copied().unwrap_or(0.0) / ops,
        ));
    }
    for name in CLIENT_VALUES {
        values.push((name, traced.layer_values.get(name).copied().unwrap_or(0.0)));
    }
    let samples = traced.ops as usize;
    values
        .into_iter()
        .map(|(name, value)| (name.to_owned(), Sample { value, samples }))
        .collect()
}

/// Summed self (or total) time of the spans with `target` and, when
/// given, `name`, in ms.
fn span_ms(profile: &Snapshot, target: &str, name: Option<&str>, total: bool) -> f64 {
    fn walk(node: &SnapNode, target: &str, name: Option<&str>, total: bool) -> u64 {
        let own = if node.target == target && name.is_none_or(|n| n == node.name) {
            if total {
                node.total_us
            } else {
                node.self_us
            }
        } else {
            0
        };
        own + node
            .children
            .iter()
            .map(|c| walk(c, target, name, total))
            .sum::<u64>()
    }
    profile
        .roots
        .iter()
        .map(|r| walk(r, target, name, total))
        .sum::<u64>() as f64
        / 1e3
}

/// Summed self time of every span, in ms.
fn self_total_ms(profile: &Snapshot) -> f64 {
    fn walk(node: &SnapNode) -> u64 {
        node.self_us + node.children.iter().map(walk).sum::<u64>()
    }
    profile.roots.iter().map(walk).sum::<u64>() as f64 / 1e3
}

/// The program's own counters, read from its global registry.
#[derive(Debug, Default)]
struct Counters {
    terms: f64,
    bulk_words: f64,
    bulk_clean: f64,
    decode_words: f64,
    decode_clean: f64,
    decode_outcomes: f64,
    decisions: f64,
}

impl Counters {
    fn read() -> Counters {
        let registry = rsmem_obs::global();
        let count = |name: &str, key: &str, value: &str| {
            registry
                .find_counter(name, &[(key, value)])
                .map_or(0.0, |c| c.get() as f64)
        };
        let sum = |name: &str, key: &str, values: &[&str]| -> f64 {
            values.iter().map(|v| count(name, key, v)).sum()
        };
        Counters {
            terms: registry
                .find_histogram("rsmem_solver_uniformization_terms", &[])
                .map_or(0.0, |h| h.sum()),
            bulk_words: sum("rsmem_bulk_words_total", "path", &["clean", "escalated"]),
            bulk_clean: count("rsmem_bulk_words_total", "path", "clean"),
            decode_words: sum(
                "rsmem_solver_decode_total",
                "backend",
                &["sugiyama", "berlekamp-massey"],
            ),
            decode_clean: count("rsmem_solver_decode_outcomes_total", "outcome", "clean"),
            decode_outcomes: sum(
                "rsmem_solver_decode_outcomes_total",
                "outcome",
                &["clean", "corrected", "failure"],
            ),
            decisions: sum(
                "rsmem_arbiter_decisions_total",
                "decision",
                &[
                    "no_flags",
                    "equal_flagged",
                    "unflagged_wins",
                    "single_survivor",
                    "no_output",
                ],
            ),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak memory: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak memory: no VmHWM line in /proc/self/status".to_owned())
}
