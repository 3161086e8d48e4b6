//! End-to-end tests of the analysis daemon: boot on an ephemeral
//! loopback port, exercise every endpoint over real sockets, and verify
//! the caching/single-flight/shedding/shutdown behaviour the service
//! exists to provide.

use rsmem::units::{SeuRate, Time, TimeGrid};
use rsmem::{CodeParams, MemorySystem, Scrubbing};
use rsmem_service::{Server, ServiceConfig};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(config: ServiceConfig) -> Server {
    Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral server")
}

/// One request over a fresh connection; returns (status, headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .expect("header/body separator");
    (status, head, payload)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, "GET", path, "", "")
}

fn post_analyze(addr: SocketAddr, body: &str) -> (u16, String, String) {
    request(addr, "POST", "/v1/analyze", "", body)
}

fn metric(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics_text}"))
}

/// Pulls `"name":[...]` arrays of numbers out of the response JSON
/// without a JSON dependency in the test: the encoder emits arrays of
/// plain numbers with no nested brackets.
fn number_array(body: &str, name: &str) -> Vec<f64> {
    let marker = format!("\"{name}\":[");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("{name} in {body}"))
        + marker.len();
    let end = start + body[start..].find(']').expect("closing bracket");
    body[start..end]
        .split(',')
        .map(|x| x.parse().expect("number"))
        .collect()
}

#[test]
fn healthz_and_unknown_routes() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    let (status, _, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));
    let (status, _, _) = get(addr, "/v1/analyze"); // wrong method
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn analyze_matches_direct_library_call() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    let (status, _, body) = post_analyze(
        addr,
        r#"{"system": "duplex", "seu_per_bit_day": 1.7e-5, "scrub_period_s": 900, "points": 9}"#,
    );
    assert_eq!(status, 200, "{body}");

    let system = MemorySystem::duplex(CodeParams::rs18_16())
        .with_seu_rate(SeuRate::per_bit_day(1.7e-5))
        .with_scrubbing(Scrubbing::every_seconds(900.0));
    let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 9);
    let direct = system.ber_curve(grid.points()).expect("direct solve");

    let ber = number_array(&body, "ber");
    let fail = number_array(&body, "fail_probability");
    let times = number_array(&body, "times_hours");
    assert_eq!(ber.len(), 9);
    for i in 0..9 {
        assert!((times[i] - grid.points()[i].as_hours()).abs() < 1e-12);
        assert!(
            (ber[i] - direct.ber[i]).abs() <= 1e-12 * direct.ber[i].abs().max(1.0),
            "ber[{i}]: served {} vs direct {}",
            ber[i],
            direct.ber[i]
        );
        assert!(
            (fail[i] - direct.fail_probability[i]).abs()
                <= 1e-12 * direct.fail_probability[i].abs().max(1.0)
        );
    }
    server.shutdown();
}

#[test]
fn repeated_request_is_a_byte_identical_cache_hit() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    let body = r#"{"seu_per_bit_day": 3.6e-6, "points": 7}"#;

    let (status, head1, body1) = post_analyze(addr, body);
    assert_eq!(status, 200);
    assert!(head1.contains("X-Cache: miss"), "{head1}");

    // Same analysis spelled differently: key order and code spelling
    // differ, canonicalization must still find the cached entry.
    let respelled =
        r#"{"points": 7, "code": "18,16,8", "system": "simplex", "seu_per_bit_day": 0.0000036}"#;
    let (status, head2, body2) = post_analyze(addr, respelled);
    assert_eq!(status, 200);
    assert!(head2.contains("X-Cache: hit"), "{head2}");
    assert_eq!(body1, body2, "cached response must be byte-identical");

    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "rsmem_cache_misses_total"), 1);
    assert_eq!(metric(&metrics, "rsmem_cache_hits_total"), 1);
    assert_eq!(
        metric(
            &metrics,
            "rsmem_requests_total{endpoint=\"analyze\",status=\"200\"}"
        ),
        2
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_solve_exactly_once() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    // A deliberately heavy config so the first solve is still in flight
    // when the other requests land on the daemon.
    let body = Arc::new(
        r#"{"system": "duplex", "seu_per_bit_day": 1.7e-5, "scrub_period_s": 900, "points": 2001}"#
            .to_owned(),
    );

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || post_analyze(addr, &body))
        })
        .collect();
    let mut bodies = Vec::new();
    for handle in handles {
        let (status, _, response_body) = handle.join().expect("request thread");
        assert_eq!(status, 200);
        bodies.push(response_body);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "all four responses identical"
    );

    let (_, _, metrics) = get(addr, "/metrics");
    // Exactly one solve: one miss computed the result; the others were
    // deduplicated in flight (shared) or — if they arrived after
    // completion — served from the cache (hits). Either way: one solve.
    assert_eq!(metric(&metrics, "rsmem_cache_misses_total"), 1);
    assert_eq!(
        metric(&metrics, "rsmem_cache_hits_total")
            + metric(&metrics, "rsmem_cache_singleflight_shared_total"),
        3
    );
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_structured_400s() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    for (payload, needle) in [
        ("{not json", "invalid JSON"),
        ("[1,2,3]", "object"),
        (r#"{"system": "triplex"}"#, "triplex"),
        (r#"{"code": "16,18,8"}"#, "code"),
        (r#"{"seu_per_bit_day": -2}"#, "rate"),
        (r#"{"unknown_knob": 1}"#, "unknown field"),
    ] {
        let (status, _, body) = post_analyze(addr, payload);
        assert_eq!(status, 400, "{payload} -> {body}");
        assert!(body.starts_with("{\"error\":"), "{body}");
        assert!(
            body.to_lowercase().contains(&needle.to_lowercase()),
            "{payload}: {body} should mention {needle}"
        );
    }
    // Invalid requests must not pollute the cache or count as misses.
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "rsmem_cache_misses_total"), 0);
    assert_eq!(
        metric(
            &metrics,
            "rsmem_requests_total{endpoint=\"analyze\",status=\"400\"}"
        ),
        6
    );
    server.shutdown();
}

#[test]
fn experiment_endpoint_negotiates_json_and_csv() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();

    let (status, head, body) = get(addr, "/v1/experiments/fig7");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    assert!(body.contains("\"id\":\"fig7\""));
    assert!(body.contains("\"series\""));

    // ?format=csv and Accept: text/csv must both serve the exact bytes
    // the library's own CSV renderer produces.
    let (status, head, csv_body) = get(addr, "/v1/experiments/fig7?format=csv");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/csv"));
    let expected = match rsmem::experiments::run(rsmem::experiments::ExperimentId::Fig7).unwrap() {
        rsmem::experiments::ExperimentOutput::Figure(fig) => rsmem::report::figure_to_csv(&fig),
        rsmem::experiments::ExperimentOutput::Table(_) => unreachable!("fig7 is a figure"),
    };
    assert_eq!(csv_body, expected);

    let (status, head, accept_body) = request(
        addr,
        "GET",
        "/v1/experiments/fig7",
        "Accept: text/csv\r\n",
        "",
    );
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/csv"));
    assert_eq!(accept_body, csv_body);

    // The repeated CSV fetch was a cache hit.
    assert!(head.contains("X-Cache: hit"), "{head}");

    let (status, _, table) = get(addr, "/v1/experiments/complexity");
    assert_eq!(status, 200);
    assert!(table.contains("\"rows\""));

    let (status, _, body) = get(addr, "/v1/experiments/fig99");
    assert_eq!(status, 404);
    assert!(body.contains("fig99"));

    let (status, _, _) = get(addr, "/v1/experiments/fig5?format=xml");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn backlog_overflow_sheds_with_503() {
    // One worker, zero queue slots: a connection is only accepted if the
    // worker is free. Occupy the worker with a half-sent request, then
    // any further connection must be shed immediately.
    let server = boot(ServiceConfig {
        workers: 1,
        backlog: 0,
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();

    // Wait until the single worker has taken the holder: it marks the
    // request in flight before it starts reading it. A holder that
    // arrives before the worker first waits for work is shed like any
    // other connection; connect a new one then.
    let deadline = Instant::now() + Duration::from_secs(5);
    let holder = 'taken: loop {
        let shed = metric(&server.metrics_text(), "rsmem_connections_shed_total");
        let mut holder = TcpStream::connect(addr).expect("connect holder");
        if holder.write_all(b"POST /v1/analyze HTTP/1.1\r\n").is_err() {
            continue; // shed and already closed
        }
        loop {
            let text = server.metrics_text();
            if metric(&text, "rsmem_requests_inflight") == 1 {
                break 'taken holder;
            }
            if metric(&text, "rsmem_connections_shed_total") > shed {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the worker never took the holder"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    let (status, head, body) = get(addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After"), "{head}");
    assert!(body.contains("overloaded"));

    // Release the worker and verify the daemon recovers. With a single
    // rendezvous worker a request can still land in the instant between
    // one connection closing and the worker re-entering its queue, so
    // honour the 503's Retry-After contract instead of racing it.
    drop(holder);
    let metrics = retry_until_200(addr, "/metrics");
    assert!(metric(&metrics, "rsmem_connections_shed_total") >= 1);
    server.shutdown();
}

/// Retries a GET through transient 503 sheds (up to ~2 s).
fn retry_until_200(addr: SocketAddr, path: &str) -> String {
    for _ in 0..20 {
        let (status, _, body) = get(addr, path);
        if status == 200 {
            return body;
        }
        assert_eq!(status, 503, "only shedding is transient: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("{path} still shedding after retries")
}

#[test]
fn shutdown_drains_inflight_requests() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    // A heavy request that is still solving when shutdown begins.
    let worker = std::thread::spawn(move || {
        post_analyze(
            addr,
            r#"{"system": "duplex", "seu_per_bit_day": 1.7e-5, "scrub_period_s": 900, "points": 1501}"#,
        )
    });
    // Give the request time to be accepted and start solving.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();

    // The in-flight response was written in full before the workers
    // exited — shutdown() has already joined every thread at this point.
    let (status, _, body) = worker.join().expect("request thread");
    assert_eq!(status, 200, "{body}");
    let ber = number_array(&body, "ber");
    assert_eq!(ber.len(), 1501, "response body complete");

    // And the port is actually closed now.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TCP connect can still succeed briefly on some stacks; a
            // request must at least never be answered.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
        }
    );
}

#[test]
fn trace_id_flows_from_header_through_solve_into_events_and_metrics() {
    use rsmem_obs::log::{self, LogConfig, LogFormat, Sink};
    use rsmem_obs::Level;

    // Capture structured events in a buffer; filter by trace ID below so
    // concurrently running tests (which mint their own IDs) cannot
    // interfere with the assertions.
    let buffer = Arc::new(std::sync::Mutex::new(Vec::new()));
    log::set_sink(Sink::Buffer(Arc::clone(&buffer)));
    log::init(Some(LogConfig {
        format: LogFormat::Json,
        level: Level::Debug,
        targets: vec!["service.".into(), "ctmc.".into()],
    }));

    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();
    let (status, head, _) = request(
        addr,
        "POST",
        "/v1/analyze",
        "X-Rsmem-Trace-Id: 00000000deadbeef\r\n",
        r#"{"seu_per_bit_day": 2.5e-6, "points": 5}"#,
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("X-Rsmem-Trace-Id: 00000000deadbeef"),
        "response must echo the caller's trace ID: {head}"
    );

    // Stop logging before reading the buffer so other tests stop
    // appending to it mid-assertion.
    log::init(None);
    log::set_sink(Sink::Stderr);

    let text = String::from_utf8(buffer.lock().unwrap().clone()).expect("UTF-8 JSON lines");
    for line in text.lines() {
        rsmem_obs::json::parse(line).unwrap_or_else(|e| panic!("unparseable event {line:?}: {e}"));
    }
    let traced: Vec<&str> = text
        .lines()
        .filter(|line| line.contains("\"trace_id\":\"00000000deadbeef\""))
        .collect();
    // The request span, the cache-lookup event, the solve span, and the
    // uniformization spans the solve produced all carry the caller's ID
    // — including across the cache boundary into the CTMC solver.
    for name in ["request", "analyze_lookup", "solve", "transient_grid"] {
        assert!(
            traced
                .iter()
                .any(|line| line.contains(&format!("\"name\":\"{name}\""))),
            "no {name:?} event with the caller's trace ID in:\n{text}"
        );
    }

    // The cache-miss solve also published solver-level series that the
    // service's /metrics renders next to its HTTP series. The families
    // are pinned exactly: a new series needs a line here.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metric(&metrics, "rsmem_solver_uniformization_solves_total") >= 1,
        "{metrics}"
    );
    let families: BTreeSet<&str> = metrics
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .collect();
    let expected: BTreeSet<&str> = [
        "rsmem_arbiter_decisions_total counter",
        "rsmem_build_info gauge",
        "rsmem_bulk_words_total counter",
        "rsmem_cache_capacity gauge",
        "rsmem_cache_entries gauge",
        "rsmem_cache_evictions_total counter",
        "rsmem_cache_hits_total counter",
        "rsmem_cache_misses_total counter",
        "rsmem_cache_singleflight_shared_total counter",
        "rsmem_connections_shed_total counter",
        "rsmem_decode_outcomes_total counter",
        "rsmem_profile_span_us summary",
        "rsmem_request_duration_us histogram",
        "rsmem_requests_inflight gauge",
        "rsmem_requests_total counter",
        "rsmem_slo_breaches_total counter",
        "rsmem_solver_decode_outcomes_total counter",
        "rsmem_solver_decode_total counter",
        "rsmem_solver_mc_outcomes_total counter",
        "rsmem_solver_mc_shards_total counter",
        "rsmem_solver_mc_trials_total counter",
        "rsmem_solver_uniformization_solves_total counter",
        "rsmem_solver_uniformization_terms histogram",
        "rsmem_uptime_seconds gauge",
    ]
    .into_iter()
    .collect();
    assert_eq!(families, expected, "{metrics}");
    server.shutdown();
}

#[test]
fn cache_evictions_are_counted_and_bounded() {
    let server = boot(ServiceConfig {
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let addr = server.local_addr();
    for points in [5, 6, 7, 8] {
        let (status, _, _) = post_analyze(addr, &format!("{{\"points\": {points}}}"));
        assert_eq!(status, 200);
    }
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "rsmem_cache_entries"), 2);
    assert_eq!(metric(&metrics, "rsmem_cache_evictions_total"), 2);
    assert_eq!(metric(&metrics, "rsmem_cache_capacity"), 2);
    server.shutdown();
}

#[test]
fn debug_profile_exposes_call_tree_and_reset_epochs() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();

    // A cache-miss solve populates the profiler: the request span plus
    // nested solver spans (ber_curve under the HTTP request).
    let (status, _, _) = post_analyze(
        addr,
        r#"{"system": "duplex", "seu_per_bit_day": 1.7e-5, "scrub_period_s": 900, "points": 7}"#,
    );
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/debug/profile");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"rsmem-profile/1\""), "{body}");
    assert!(body.contains("\"bounds_us\""), "{body}");
    assert!(
        body.contains("\"name\":\"request\"") && body.contains("\"target\":\"service.http\""),
        "request span missing in:\n{body}"
    );
    assert!(
        body.contains("\"name\":\"ber_curve\""),
        "solver span missing in:\n{body}"
    );

    // The same aggregation shows up in /metrics as summary series.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("# TYPE rsmem_profile_span_us summary"),
        "{metrics}"
    );
    assert!(
        metrics.contains("rsmem_profile_span_us_count{name=\"request\",target=\"service.http\"}"),
        "{metrics}"
    );
    // The build-info gauge identifies the build under measurement.
    assert!(
        metrics.contains("# TYPE rsmem_build_info gauge"),
        "{metrics}"
    );

    // ?reset=1 snapshots and zeroes; the tree survives (same nodes,
    // fresh epoch), so a later scrape still parses and carries the
    // request node with a small count. Profiling state is process-wide
    // and other tests run concurrently, so only assert monotone-safe
    // facts: the reset response itself still holds the pre-reset data.
    let (status, _, body) = get(addr, "/debug/profile?reset=1");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"request\""), "{body}");
    let (status, _, body) = get(addr, "/debug/profile");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"rsmem-profile/1\""), "{body}");

    // Wrong method is a 405, like the other fixed routes.
    let (status, _, _) = request(addr, "POST", "/debug/profile", "", "");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn debug_flightrecorder_replays_request_timeline() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();

    // Any handled request writes span records into the recorder rings
    // (Server::bind enables the flight recorder for the process).
    let (status, _, _) = post_analyze(addr, r#"{"points": 4}"#);
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/debug/flightrecorder");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"rsmem-trace/1\""), "{body}");
    assert!(body.contains("\"events\":"), "{body}");
    assert!(
        body.contains("\"target\":\"service.http\"") && body.contains("\"name\":\"request\""),
        "request span events missing in:\n{body}"
    );
    // Request events carry their trace id so the timeline groups per
    // request, matching the `trace_id` echoed in logs and headers.
    assert!(body.contains("\"trace_id\":\""), "{body}");

    // ?reset=1 mirrors /debug/profile: the response still holds the
    // pre-reset data and a later scrape starts a fresh epoch. Recorder
    // state is process-wide and other tests run concurrently, so only
    // assert monotone-safe facts.
    let (status, _, body) = get(addr, "/debug/flightrecorder?reset=1");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"rsmem-trace/1\""), "{body}");
    let (status, _, body) = get(addr, "/debug/flightrecorder");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":"), "{body}");

    // Wrong method is a 405, like the other fixed routes.
    let (status, _, _) = request(addr, "POST", "/debug/flightrecorder", "", "");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn debug_flightrecorder_serves_failure_exemplars() {
    let server = boot(ServiceConfig::default());
    let addr = server.local_addr();

    // An in-process stress run stands in for decode incidents inside
    // the service host: beyond-bound lattice cases legally miscorrect,
    // so the (process-wide, bind-enabled) recorder freezes exemplars.
    let report = rsmem_stress::run(&rsmem_stress::StressConfig::with_budget(0xDA7E, 500));
    assert!(report.is_clean(), "stress run diverged: {report:?}");

    let (status, _, body) = get(addr, "/debug/flightrecorder");
    assert_eq!(status, 200);
    assert!(body.contains("\"exemplars\":"), "{body}");
    assert!(
        body.contains("\"kind\":\"miscorrection\""),
        "miscorrection exemplar missing in:\n{body}"
    );
    // The exemplar is a full repro: code params, the injected word,
    // its syndromes, both back-ends' verdicts and a pastable test.
    for field in ["\"code\":", "\"word\":", "\"syndromes\":", "\"repro\":"] {
        assert!(body.contains(field), "{field} missing in:\n{body}");
    }
    server.shutdown();
}
