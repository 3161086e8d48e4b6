//! # rsmem-service — the analysis daemon
//!
//! A long-running HTTP service over the `rsmem` toolkit, built entirely
//! on `std` (the workspace builds offline): hand-rolled HTTP/1.1
//! (`http`), a small canonical JSON codec ([`json`]), a bounded LRU
//! result cache with single-flight deduplication (`cache`), and a
//! plain-text metrics registry (`metrics`).
//!
//! ## Endpoints
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /v1/analyze` | JSON config → BER/unreliability curves (cached, deduplicated) |
//! | `GET /v1/experiments/{id}` | a regenerated paper figure/table, JSON or CSV (`?format=` / `Accept`) |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus-style counters, gauges, histograms (`?exemplars=1` annotates histogram buckets with trace IDs) |
//! | `GET /v1/stream/metrics` | newline-delimited `rsmem-metrics/1` frames, chunked transfer encoding (`?interval_ms=`, `?frames=`) |
//! | `GET /debug/metrics/history` | the time-series sampler's ring as one `rsmem-metrics/1` document |
//! | `GET /debug/flightrecorder` | flight-recorder timeline + failure exemplars (`?reset=1` starts a new epoch) |
//!
//! A background sampler thread snapshots the service's aggregate
//! series once per `sample_interval_ms` into a fixed ring
//! ([`rsmem_obs::timeseries`]) and evaluates the default SLO rules
//! ([`rsmem_obs::watchdog`]) after each frame; breaches increment
//! `rsmem_slo_breaches_total{rule}` and freeze flight-recorder
//! exemplars.
//!
//! ## Thread model
//!
//! One acceptor thread plus a fixed pool of worker threads connected by
//! a bounded channel. When the channel is full the acceptor answers
//! `503` immediately instead of queueing unboundedly — the service sheds
//! load rather than building invisible latency. [`Server::shutdown`]
//! stops the acceptor, lets workers drain queued and in-flight requests,
//! and joins every thread before returning.
//!
//! ```no_run
//! use rsmem_service::{Server, ServiceConfig};
//!
//! let server = Server::bind(ServiceConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..Default::default()
//! })?;
//! println!("listening on {}", server.local_addr());
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod cache;
mod http;
pub mod json;
mod metrics;

use analyze::AnalyzeRequest;
use cache::{Outcome, SingleFlightCache};
use http::{ReadError, Request, Response};
use json::Value;
use metrics::Metrics;
use rsmem::experiments::{run_with, ExperimentId, ExperimentOutput, Figure};
use rsmem::{report, Parallelism};
use rsmem_obs::log::{format_trace_id, next_trace_id, parse_trace_id, trace_scope};
use rsmem_obs::timeseries::{track_solver_defaults, Sampler, DEFAULT_CAPACITY};
use rsmem_obs::watchdog::{solver_slo_rules, RuleKind, SloRule, Watchdog};
use rsmem_obs::Level;
use std::io::{BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7373` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Completed-result cache capacity (entries).
    pub cache_capacity: usize,
    /// Accepted connections that may wait for a worker before the
    /// acceptor starts shedding with `503`.
    pub backlog: usize,
    /// Interval of the background time-series sampler, in milliseconds
    /// (clamped to ≥ 10).
    pub sample_interval_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7373".into(),
            workers: 0,
            cache_capacity: 128,
            backlog: 64,
            sample_interval_ms: 1_000,
        }
    }
}

/// Shared state every worker sees.
struct Ctx {
    cache: Arc<SingleFlightCache<Arc<Vec<u8>>>>,
    metrics: Metrics,
    sampler: Sampler,
    watchdog: Watchdog,
    /// Shared with the acceptor so long-lived streaming responses can
    /// notice shutdown and terminate their stream cleanly.
    shutting_down: Arc<AtomicBool>,
}

/// A running service; dropping it does **not** stop the threads — call
/// [`Server::shutdown`] (or [`Server::run`] to block until another actor
/// shuts the process down).
pub struct Server {
    local_addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    sampler_thread: JoinHandle<()>,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the listener and spawns the acceptor + worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the address.
    pub fn bind(config: ServiceConfig) -> std::io::Result<Server> {
        // Solver-level series (uniformization, decode, Monte-Carlo,
        // arbiter) live in the obs global registry; register them up
        // front so `/metrics` exposes every family from the first
        // scrape, not only after the first cache miss.
        rsmem::register_solver_metrics();
        // The daemon keeps the hierarchical profiler on: span
        // aggregation is a mutex-guarded counter update per span, and
        // it powers `GET /debug/profile` + the summary series in
        // `/metrics` without any restart-with-a-flag dance.
        rsmem_obs::profile::set_enabled(true);
        // Likewise the flight recorder: fixed-capacity per-thread rings
        // and an O(1) reservoir, so a service incident can always be
        // reconstructed from `GET /debug/flightrecorder`.
        rsmem_obs::recorder::set_enabled(true);
        install_panic_forensics();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let worker_count = if config.workers == 0 {
            thread::available_parallelism().map_or(2, usize::from)
        } else {
            config.workers
        };

        let shutting_down = Arc::new(AtomicBool::new(false));
        let cache = Arc::new(SingleFlightCache::new(config.cache_capacity));
        let metrics = Metrics::new();
        let sampler = build_sampler(&config, &metrics, &cache);
        let ctx = Arc::new(Ctx {
            cache,
            metrics,
            sampler,
            watchdog: Watchdog::new(default_slo_rules()),
            shutting_down: Arc::clone(&shutting_down),
        });

        // Backlog of 0 means rendezvous: a connection is only accepted
        // into the pool if a worker is free right now.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.backlog);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..worker_count.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&ctx);
                thread::Builder::new()
                    .name(format!("rsmem-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shutting_down = Arc::clone(&shutting_down);
            let ctx = Arc::clone(&ctx);
            thread::Builder::new()
                .name("rsmem-acceptor".into())
                .spawn(move || accept_loop(&listener, &tx, &shutting_down, &ctx))
                .expect("spawn acceptor")
        };

        let sampler_thread = {
            let ctx = Arc::clone(&ctx);
            thread::Builder::new()
                .name("rsmem-sampler".into())
                .spawn(move || sampler_loop(&ctx))
                .expect("spawn sampler")
        };

        Ok(Server {
            local_addr,
            shutting_down,
            acceptor,
            workers,
            sampler_thread,
            ctx,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests by `(endpoint, status)` — exposed for tests and the
    /// in-process client example.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.ctx)
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join every thread. Responses for requests that were
    /// already accepted are written in full.
    pub fn shutdown(self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking `accept`.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.acceptor.join();
        // The acceptor dropped the sender; workers drain the channel and
        // exit on the disconnect.
        for worker in self.workers {
            let _ = worker.join();
        }
        // The sampler thread polls the shutdown flag between samples.
        let _ = self.sampler_thread.join();
    }

    /// Blocks until the acceptor stops (i.e. forever, for a daemon that
    /// is terminated by signal), then drains workers.
    pub fn run(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.sampler_thread.join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shutting_down: &AtomicBool,
    ctx: &Ctx,
) {
    for stream in listener.incoming() {
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                ctx.metrics.record_shed();
                shed(stream);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` here disconnects the workers once the queue drains.
}

/// Builds the service's time-series sampler: the aggregate HTTP series
/// (request/error counters, whole-service latency histogram), cache
/// hit/miss readings, and the solver-level defaults (decode failures,
/// MC silent corruptions/trials, arbiter mismatches). Enabled from the
/// start — one frame per `sample_interval_ms` is a handful of atomic
/// loads.
fn build_sampler(
    config: &ServiceConfig,
    metrics: &Metrics,
    cache: &Arc<SingleFlightCache<Arc<Vec<u8>>>>,
) -> Sampler {
    let sampler = Sampler::new(
        DEFAULT_CAPACITY,
        Duration::from_millis(config.sample_interval_ms.max(10)),
    );
    sampler.track_counter("requests", metrics.sampled_requests());
    sampler.track_counter("errors_5xx", metrics.sampled_errors());
    sampler.track_histogram("request_duration_us", metrics.sampled_latency());
    let hits = Arc::clone(cache);
    sampler.track_fn("cache_hits", move || hits.stats().hits as f64);
    let misses = Arc::clone(cache);
    sampler.track_fn("cache_misses", move || misses.stats().misses as f64);
    track_solver_defaults(&sampler);
    sampler.set_enabled(true);
    sampler
}

/// The service's default SLO rules — the serving rules, then the
/// solver rules — evaluated by the sampler thread, counted in
/// `rsmem_slo_breaches_total{rule}`.
fn default_slo_rules() -> Vec<SloRule> {
    let mut rules = vec![
        SloRule {
            name: "latency_p99",
            kind: RuleKind::QuantileAbove {
                series: "request_duration_us",
                q: 0.99,
            },
            window: 5,
            threshold: 100_000.0, // 100 ms, in µs
        },
        SloRule {
            name: "error_rate",
            kind: RuleKind::RateAbove {
                series: "errors_5xx",
            },
            window: 5,
            threshold: 1.0, // 5xx responses per second
        },
        SloRule {
            name: "cache_hit_ratio",
            kind: RuleKind::HitRatioBelow {
                hits: "cache_hits",
                misses: "cache_misses",
            },
            window: 10,
            threshold: 0.1,
        },
    ];
    rules.extend(solver_slo_rules());
    rules
}

/// The background sampling thread: one registry snapshot per interval,
/// SLO evaluation after each new frame, shutdown checked at ≤ 250 ms
/// granularity so `Server::shutdown` never waits a full interval.
fn sampler_loop(ctx: &Ctx) {
    loop {
        if ctx.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if ctx.sampler.maybe_sample() {
            ctx.watchdog.evaluate(&ctx.sampler);
        }
        let pause = (ctx.sampler.interval() / 4).min(Duration::from_millis(250));
        thread::sleep(pause.max(Duration::from_millis(1)));
    }
}

/// Answers `503 Service Unavailable` on the acceptor thread — cheap
/// enough not to stall accepting, and honest about overload.
fn shed(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut stream = stream;
    let body = error_body("overloaded: request backlog is full, retry later");
    let _ = Response::json(503, body)
        .with_header("Retry-After", "1")
        .write_to(&mut stream);
    // Closing with unread request bytes in the socket buffer makes the
    // kernel send RST, which can discard the queued 503 before the
    // client reads it. Signal end-of-response, then drain what the
    // client already sent so the close is graceful.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, ctx: &Ctx) {
    loop {
        let stream = match rx.lock().expect("worker queue lock").recv() {
            Ok(stream) => stream,
            Err(_) => return, // acceptor gone and queue drained
        };
        handle_connection(stream, ctx);
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _inflight = ctx.metrics.inflight_guard();
    let mut reader = BufReader::new(stream);

    let started = Instant::now();
    let (endpoint, response) = match http::read_request(&mut reader) {
        Ok(request) => {
            // A client-supplied `X-Rsmem-Trace-Id` stitches the caller's
            // trace to every span/event this request produces (through
            // the cache, into the solvers); otherwise mint a fresh ID.
            let trace = request
                .header("x-rsmem-trace-id")
                .and_then(parse_trace_id)
                .unwrap_or_else(next_trace_id);
            let _trace = trace_scope(trace);
            if request.method == "GET" && request.path == "/v1/stream/metrics" {
                // Streaming responses bypass the one-shot Response shape:
                // the handler owns the socket and writes chunked frames
                // until the client leaves, the frame budget is spent, or
                // the server shuts down.
                let status = stream_metrics(reader.into_inner(), ctx, &request, trace);
                ctx.metrics
                    .record_request("stream_metrics", status, started.elapsed());
                return;
            }
            let mut span = rsmem_obs::span("service.http", "request");
            span.record("method", request.method.as_str());
            span.record("path", request.path.as_str());
            let (endpoint, response) = route(&request, ctx);
            span.record("endpoint", endpoint);
            span.record("status", u64::from(response.status));
            (
                endpoint,
                response.with_header("X-Rsmem-Trace-Id", &format_trace_id(trace)),
            )
        }
        Err(ReadError::Closed) => return, // shutdown wake-up or port scan
        Err(ReadError::Bad(message)) => ("other", Response::json(400, error_body(&message))),
        Err(ReadError::Io(_)) => return, // peer vanished mid-request
    };

    ctx.metrics
        .record_request(endpoint, response.status, started.elapsed());
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

/// `{"error": message}`, encoded.
fn error_body(message: &str) -> String {
    Value::object(vec![("error", Value::String(message.into()))]).encode()
}

/// Dispatches a parsed request; returns the endpoint label for metrics
/// and the response.
fn route(request: &Request, ctx: &Ctx) -> (&'static str, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/analyze") => ("analyze", handle_analyze(request, ctx)),
        ("GET", path) if path.starts_with("/v1/experiments/") => {
            ("experiment", handle_experiment(request, ctx))
        }
        ("GET", "/healthz") => (
            "healthz",
            Response::json(
                200,
                Value::object(vec![("status", Value::String("ok".into()))]).encode(),
            ),
        ),
        ("GET", "/metrics") => {
            let exemplars = matches!(request.query_param("exemplars"), Some("1" | "true"));
            (
                "metrics",
                Response::text(200, render_metrics_opts(ctx, exemplars)),
            )
        }
        ("GET", "/debug/profile" | "/debug/flightrecorder") => handle_debug_snapshot(request),
        ("GET", "/debug/metrics/history") => ("metrics_history", handle_metrics_history(ctx)),
        ("GET", "/v1/analyze")
        | (
            "POST",
            "/healthz"
            | "/metrics"
            | "/debug/profile"
            | "/debug/flightrecorder"
            | "/debug/metrics/history"
            | "/v1/stream/metrics",
        ) => (
            "other",
            Response::json(405, error_body("method not allowed for this route")),
        ),
        _ => ("other", Response::json(404, error_body("no such route"))),
    }
}

fn render_metrics(ctx: &Ctx) -> String {
    render_metrics_opts(ctx, false)
}

fn render_metrics_opts(ctx: &Ctx, exemplars: bool) -> String {
    let (stats, len, capacity) = (ctx.cache.stats(), ctx.cache.len(), ctx.cache.capacity());
    let mut text = if exemplars {
        ctx.metrics.render_with_exemplars(stats, len, capacity)
    } else {
        ctx.metrics.render(stats, len, capacity)
    };
    // Solver-level series (rsmem_solver_*, rsmem_arbiter_*) follow the
    // HTTP series in the same exposition.
    let registry = rsmem_obs::global();
    text.push_str(&if exemplars {
        registry.render_with_exemplars()
    } else {
        registry.render()
    });
    // Profiler summary series (rsmem_profile_span_us) aggregated per
    // span name across tree positions.
    text.push_str(&rsmem_obs::profile::snapshot().render_prometheus());
    text
}

/// `GET /debug/metrics/history` — the sampler's whole ring as one
/// canonical `rsmem-metrics/1` document, plus the active SLO breaches.
fn handle_metrics_history(ctx: &Ctx) -> Response {
    let doc = ctx.watchdog.annotate(ctx.sampler.history_json());
    Response::json(200, doc.encode())
}

/// `GET /v1/stream/metrics` — newline-delimited `rsmem-metrics/1`
/// frames over chunked transfer encoding, one per `?interval_ms=`
/// (default: the sampler's interval, min 10 ms), until `?frames=N`
/// frames have been written (`0`, the default, streams until the client
/// hangs up or the server shuts down). Each write forces a fresh sample
/// and a watchdog pass, so a streaming client observes breaches at its
/// own cadence. Returns the status to record.
fn stream_metrics(mut stream: TcpStream, ctx: &Ctx, request: &Request, trace: u64) -> u16 {
    let interval = request
        .query_param("interval_ms")
        .and_then(|raw| raw.parse::<u64>().ok())
        .map_or_else(|| ctx.sampler.interval(), Duration::from_millis)
        .max(Duration::from_millis(10));
    let frames: u64 = request
        .query_param("frames")
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(0);
    let headers = vec![("X-Rsmem-Trace-Id".to_owned(), format_trace_id(trace))];
    if http::write_chunked_head(&mut stream, 200, "application/x-ndjson", &headers).is_err() {
        return 200; // client left before the head: nothing to do
    }
    let mut written = 0u64;
    while let Some(frame) = ctx.watchdog.frame(&ctx.sampler) {
        let mut line = frame.encode();
        line.push('\n');
        if http::write_chunk(&mut stream, line.as_bytes()).is_err() {
            return 200; // client hung up mid-stream: normal termination
        }
        written += 1;
        if frames != 0 && written >= frames {
            break;
        }
        // Sleep in short slices so shutdown is observed promptly.
        let mut remaining = interval;
        while !remaining.is_zero() {
            if ctx.shutting_down.load(Ordering::SeqCst) {
                let _ = http::finish_chunked(&mut stream);
                return 200;
            }
            let slice = remaining.min(Duration::from_millis(50));
            thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
    let _ = http::finish_chunked(&mut stream);
    200
}

/// `GET /debug/profile` (the aggregated call tree) and
/// `GET /debug/flightrecorder` (the recorder's event rings and frozen
/// failure exemplars, as the `rsmem-trace/1` document), in canonical
/// JSON. `?reset=1` (or `true`) snapshots **and** starts a new epoch,
/// so periodic scrapers get disjoint epochs; the profiler's node tree
/// survives resets, keeping in-flight span exits attributable.
fn handle_debug_snapshot(request: &Request) -> (&'static str, Response) {
    let reset = matches!(request.query_param("reset"), Some("1" | "true"));
    let (endpoint, doc) = if request.path == "/debug/profile" {
        let take = if reset {
            rsmem_obs::profile::snapshot_and_reset
        } else {
            rsmem_obs::profile::snapshot
        };
        ("profile", take().to_json())
    } else {
        let take = if reset {
            rsmem_obs::recorder::snapshot_and_reset
        } else {
            rsmem_obs::recorder::snapshot
        };
        ("flightrecorder", rsmem_obs::recorder::to_json(&take()))
    };
    (endpoint, Response::json(200, doc.encode()))
}

/// Installs a process-wide panic hook (once) that freezes a `panic`
/// exemplar and dumps the recorder's recent history to stderr before
/// the default hook runs — a crashing worker leaves its forensics
/// behind even if the process dies.
fn install_panic_forensics() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if rsmem_obs::recorder::enabled() {
                let detail = info.to_string();
                rsmem_obs::recorder::record_exemplar_with("panic", || {
                    rsmem_obs::recorder::Exemplar {
                        detail: detail.clone(),
                        ..Default::default()
                    }
                });
                eprintln!("rsmem-service: panic captured by flight recorder: {detail}");
                eprint!(
                    "{}",
                    rsmem_obs::recorder::render_text(&rsmem_obs::recorder::snapshot())
                );
            }
            previous(info);
        }));
    });
}

fn handle_analyze(request: &Request, ctx: &Ctx) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::json(400, error_body("body must be UTF-8 JSON")),
    };
    let parsed = match json::parse(body) {
        Ok(value) => value,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    let analyze = match AnalyzeRequest::from_json(&parsed) {
        Ok(analyze) => analyze,
        Err(message) => return Response::json(400, error_body(&message)),
    };

    let key = analyze.cache_key();
    let (result, outcome) = ctx.cache.get_or_compute(&key, || {
        let mut span = rsmem_obs::span("service.analyze", "solve");
        if span.active() {
            span.record("config_id", analyze.config_id());
        }
        let result = analyze.solve().map(|v| Arc::new(v.encode().into_bytes()));
        span.record("ok", result.is_ok());
        result
    });
    rsmem_obs::event(Level::Debug, "service.cache", "analyze_lookup")
        .field("outcome", cache_header(outcome))
        .emit();
    match result {
        Ok(bytes) => Response::json(200, bytes.as_slice().to_vec())
            .with_header("X-Cache", cache_header(outcome))
            .with_header("X-Config-Id", &analyze.config_id()),
        // Solver failures on a validated config are server-side errors.
        Err(message) => Response::json(500, error_body(&message)),
    }
}

fn cache_header(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Hit => "hit",
        Outcome::Miss => "miss",
        Outcome::Shared => "shared",
    }
}

/// Output format of the experiment endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Csv,
}

/// Content negotiation: explicit `?format=` wins, then the `Accept`
/// header; default JSON.
fn negotiate_format(request: &Request) -> Result<Format, String> {
    if let Some(format) = request.query_param("format") {
        return match format {
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format {other:?} (expected json or csv)")),
        };
    }
    match request.header("accept") {
        Some(accept) if accept.contains("text/csv") => Ok(Format::Csv),
        _ => Ok(Format::Json),
    }
}

fn handle_experiment(request: &Request, ctx: &Ctx) -> Response {
    let name = request
        .path
        .strip_prefix("/v1/experiments/")
        .expect("routed by prefix");
    let id: ExperimentId = match name.parse() {
        Ok(id) => id,
        Err(e) => return Response::json(404, error_body(&e.to_string())),
    };
    let format = match negotiate_format(request) {
        Ok(format) => format,
        Err(message) => return Response::json(400, error_body(&message)),
    };

    // Rendered bytes are cached per (experiment, format); a JSON and a
    // CSV request each solve at most once.
    let key = format!("experiment/{id}/{format:?}");
    let (result, outcome) = ctx.cache.get_or_compute(&key, || {
        let output = run_with(id, &Parallelism::Serial).map_err(|e| e.to_string())?;
        let bytes = match (&output, format) {
            (ExperimentOutput::Figure(figure), Format::Json) => {
                figure_to_json(figure).encode().into_bytes()
            }
            (ExperimentOutput::Figure(figure), Format::Csv) => {
                report::figure_to_csv(figure).into_bytes()
            }
            (ExperimentOutput::Table(rows), Format::Json) => Value::object(vec![
                ("id", Value::String(id.to_string())),
                (
                    "rows",
                    Value::Array(
                        rows.iter()
                            .map(|r| {
                                Value::object(vec![
                                    ("label", Value::String(r.label.clone())),
                                    ("n", Value::Number(r.n as f64)),
                                    ("k", Value::Number(r.k as f64)),
                                    ("decode_cycles", Value::Number(r.decode_cycles as f64)),
                                    ("area_units", Value::Number(r.area_units as f64)),
                                    (
                                        "redundant_symbols",
                                        Value::Number(r.redundant_symbols as f64),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
            .encode()
            .into_bytes(),
            (ExperimentOutput::Table(rows), Format::Csv) => {
                report::complexity_to_csv(rows).into_bytes()
            }
        };
        Ok(Arc::new(bytes))
    });

    match result {
        Ok(bytes) => {
            let body = bytes.as_slice().to_vec();
            let response = match format {
                Format::Json => Response::json(200, body),
                Format::Csv => Response::csv(200, body),
            };
            response.with_header("X-Cache", cache_header(outcome))
        }
        Err(message) => Response::json(500, error_body(&message)),
    }
}

/// Encodes a figure as the API's JSON shape.
fn figure_to_json(figure: &Figure) -> Value {
    Value::object(vec![
        ("id", Value::String(figure.id.to_string())),
        ("title", Value::String(figure.title.clone())),
        ("x_label", Value::String(figure.x_label.clone())),
        ("y_label", Value::String(figure.y_label.clone())),
        (
            "series",
            Value::Array(
                figure
                    .series
                    .iter()
                    .map(|series| {
                        Value::object(vec![
                            ("label", Value::String(series.label.clone())),
                            (
                                "points",
                                Value::Array(
                                    series
                                        .points
                                        .iter()
                                        .map(|&(x, y)| Value::numbers(&[x, y]))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.split('?').next().unwrap().into(),
            query: path
                .split_once('?')
                .map(|(_, q)| {
                    q.split('&')
                        .filter_map(|p| p.split_once('='))
                        .map(|(k, v)| (k.to_owned(), v.to_owned()))
                        .collect()
                })
                .unwrap_or_default(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn test_ctx() -> Ctx {
        let cache = Arc::new(SingleFlightCache::new(8));
        let metrics = Metrics::new();
        let sampler = build_sampler(&ServiceConfig::default(), &metrics, &cache);
        Ctx {
            cache,
            metrics,
            sampler,
            watchdog: Watchdog::new(default_slo_rules()),
            shutting_down: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn router_statuses() {
        let ctx = test_ctx();
        assert_eq!(route(&get("/healthz"), &ctx).1.status, 200);
        assert_eq!(route(&get("/metrics"), &ctx).1.status, 200);
        assert_eq!(route(&get("/nope"), &ctx).1.status, 404);
        assert_eq!(route(&get("/v1/analyze"), &ctx).1.status, 405);
        assert_eq!(route(&get("/v1/experiments/fig99"), &ctx).1.status, 404);
        let mut post = get("/v1/analyze");
        post.method = "POST".into();
        post.body = b"{not json".to_vec();
        assert_eq!(route(&post, &ctx).1.status, 400);
    }

    #[test]
    fn metrics_history_returns_a_frames_document() {
        let ctx = test_ctx();
        ctx.sampler.sample_now();
        ctx.sampler.sample_now();
        let (endpoint, response) = route(&get("/debug/metrics/history"), &ctx);
        assert_eq!(endpoint, "metrics_history");
        assert_eq!(response.status, 200);
        let doc = json::parse(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("rsmem-metrics/1")
        );
        assert_eq!(
            doc.get("frames").and_then(Value::as_array).unwrap().len(),
            2
        );
        assert!(doc.get("breaches").and_then(Value::as_array).is_some());
        // The aggregate series the sampler tracks are present per frame.
        let frame = &doc.get("frames").and_then(Value::as_array).unwrap()[0];
        assert!(frame.get("scalars").unwrap().get("requests").is_some());
        assert!(frame
            .get("quantiles")
            .unwrap()
            .get("request_duration_us")
            .is_some());
    }

    #[test]
    fn metrics_exemplars_flag_is_opt_in() {
        let ctx = test_ctx();
        // An observation under a live trace gives the request-duration
        // histogram an exemplar to render.
        let _trace = trace_scope(0x5EED);
        ctx.metrics
            .record_request("analyze", 200, Duration::from_micros(300));
        let (_, plain) = route(&get("/metrics"), &ctx);
        let (_, annotated) = route(&get("/metrics?exemplars=1"), &ctx);
        let plain = String::from_utf8(plain.body).unwrap();
        let annotated = String::from_utf8(annotated.body).unwrap();
        assert!(!plain.contains("# {trace_id="), "{plain}");
        assert!(
            annotated.contains("# {trace_id=\"0000000000005eed\"}"),
            "{annotated}"
        );
    }

    #[test]
    fn format_negotiation() {
        assert_eq!(
            negotiate_format(&get("/x?format=csv")).unwrap(),
            Format::Csv
        );
        assert_eq!(
            negotiate_format(&get("/x?format=json")).unwrap(),
            Format::Json
        );
        assert!(negotiate_format(&get("/x?format=xml")).is_err());
        let mut r = get("/x");
        r.headers.push(("accept".into(), "text/csv".into()));
        assert_eq!(negotiate_format(&r).unwrap(), Format::Csv);
        assert_eq!(negotiate_format(&get("/x")).unwrap(), Format::Json);
        // Explicit query parameter beats the Accept header.
        let mut r = get("/x?format=json");
        r.headers.push(("accept".into(), "text/csv".into()));
        assert_eq!(negotiate_format(&r).unwrap(), Format::Json);
    }

    #[test]
    fn experiment_complexity_table_renders_both_formats() {
        let ctx = test_ctx();
        let (_, json_response) = route(&get("/v1/experiments/complexity"), &ctx);
        assert_eq!(json_response.status, 200);
        let body = String::from_utf8(json_response.body).unwrap();
        assert!(body.contains("\"rows\""), "{body}");
        let (_, csv_response) = route(&get("/v1/experiments/complexity?format=csv"), &ctx);
        assert_eq!(csv_response.status, 200);
        assert_eq!(csv_response.content_type, "text/csv; charset=utf-8");
        assert!(String::from_utf8(csv_response.body)
            .unwrap()
            .starts_with("arrangement,"));
    }
}
