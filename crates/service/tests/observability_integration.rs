//! End-to-end tests of the observability surface: the time-series
//! sampler behind `GET /debug/metrics/history`, the chunked
//! `GET /v1/stream/metrics` endpoint, and the SLO watchdog's full
//! breach pipeline (rule trips → counter increments → flight-recorder
//! exemplar freezes).
//!
//! These live in their own test binary (process) because they lean on
//! process-wide state — the obs global registry and the flight
//! recorder — that the main integration suite resets concurrently.

use rsmem_service::{Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn boot(sample_interval_ms: u64) -> Server {
    Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        sample_interval_ms,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral server")
}

/// One request over a fresh connection; returns (status, head, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
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

/// Reassembles a `Transfer-Encoding: chunked` body.
fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((len_line, tail)) = rest.split_once("\r\n") {
        let len = usize::from_str_radix(len_line.trim(), 16).unwrap_or(0);
        if len == 0 || tail.len() < len {
            break;
        }
        out.push_str(&tail[..len]);
        rest = tail[len..].strip_prefix("\r\n").unwrap_or(&tail[len..]);
    }
    out
}

#[test]
fn stream_metrics_delivers_bounded_ndjson_frames() {
    let server = boot(1_000);
    let addr = server.local_addr();

    let (status, head, body) = get(addr, "/v1/stream/metrics?interval_ms=20&frames=3");
    assert_eq!(status, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(
        head.contains("Content-Type: application/x-ndjson"),
        "{head}"
    );
    assert!(head.contains("X-Rsmem-Trace-Id: "), "{head}");
    assert!(!head.contains("Content-Length"), "{head}");

    let frames: Vec<_> = dechunk(&body).lines().map(str::to_owned).collect();
    assert_eq!(frames.len(), 3, "{body}");
    let mut last_seq = 0.0;
    for line in &frames {
        let frame = rsmem_obs::json::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(
            frame.get("schema").and_then(|v| v.as_str()),
            Some("rsmem-metrics/1")
        );
        assert!(frame.get("breaches").and_then(|v| v.as_array()).is_some());
        assert!(frame
            .get("scalars")
            .and_then(|s| s.get("requests"))
            .is_some());
        assert!(frame
            .get("quantiles")
            .and_then(|q| q.get("request_duration_us"))
            .and_then(|h| h.get("p99"))
            .is_some());
        let seq = frame.get("seq").and_then(|v| v.as_f64()).expect("seq");
        assert!(seq > last_seq, "frame sequence must increase: {body}");
        last_seq = seq;
    }

    // The streamed request was recorded under its own endpoint label.
    // The worker records it after the last chunk is on the wire, so
    // the client can ask before it has: poll until it shows.
    let series = "rsmem_requests_total{endpoint=\"stream_metrics\",status=\"200\"} 1";
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, metrics) = get(addr, "/metrics");
        if metrics.contains(series) {
            break;
        }
        assert!(Instant::now() < deadline, "{metrics}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Frames after the first carry rates derived from their predecessor.
    let last = rsmem_obs::json::parse(frames.last().unwrap()).unwrap();
    assert!(last.get("rates").and_then(|r| r.get("requests")).is_some());
    server.shutdown();
}

#[test]
fn metrics_history_accumulates_sampler_frames() {
    let server = boot(10);
    let addr = server.local_addr();
    // Let the background sampler thread take a few frames on its own.
    std::thread::sleep(Duration::from_millis(120));

    let (status, _, body) = get(addr, "/debug/metrics/history");
    assert_eq!(status, 200);
    let doc = rsmem_obs::json::parse(&body).expect("history JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("rsmem-metrics/1")
    );
    let frames = doc
        .get("frames")
        .and_then(|v| v.as_array())
        .expect("frames");
    assert!(
        frames.len() >= 2,
        "background sampler should have recorded frames: {body}"
    );
    assert!(doc.get("breaches").and_then(|v| v.as_array()).is_some());
    server.shutdown();
}

/// The acceptance path for the watchdog: a decode-failure burst trips
/// the `decode_failure_rate` SLO rule, increments
/// `rsmem_slo_breaches_total{rule="decode_failure_rate"}`, and freezes
/// a flight-recorder exemplar describing the breach.
#[test]
fn decode_failure_burst_trips_slo_rule_and_captures_exemplar() {
    let server = boot(10);
    let addr = server.local_addr();
    // Give the sampler a baseline frame or two before the burst.
    std::thread::sleep(Duration::from_millis(50));

    // Inject the burst where real decode failures land: the solver-level
    // outcome counter in the obs global registry, which the sampler's
    // `decode_failures` series sums over the code families.
    rsmem_obs::metrics::global()
        .counter(
            "rsmem_decode_outcomes_total",
            &[("family", "rs"), ("outcome", "failure")],
        )
        .add(10_000);

    // The sampler thread frames every ~10 ms and evaluates the watchdog
    // after each frame; poll until the breach shows up in /metrics.
    let mut breached = 0u64;
    for _ in 0..100 {
        let (_, _, metrics) = get(addr, "/metrics");
        breached = metrics
            .lines()
            .find(|l| l.starts_with("rsmem_slo_breaches_total{rule=\"decode_failure_rate\"}"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if breached >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(breached >= 1, "decode-failure burst never tripped the rule");

    // The breach froze a flight-recorder exemplar naming the rule.
    let (status, _, body) = get(addr, "/debug/flightrecorder");
    assert_eq!(status, 200);
    assert!(body.contains("\"kind\":\"slo-breach\""), "{body}");
    assert!(body.contains("decode_failure_rate"), "{body}");

    // And the breach was visible as an active alert in at least the
    // history document's shape (the rule may already have recovered by
    // now, so only assert the field exists).
    let (_, _, history) = get(addr, "/debug/metrics/history");
    let doc = rsmem_obs::json::parse(&history).expect("history JSON");
    assert!(doc.get("breaches").and_then(|v| v.as_array()).is_some());
    server.shutdown();
}
