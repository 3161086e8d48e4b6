//! `rsmem top` — a live text dashboard over the `rsmem-metrics/1`
//! time-series frames.
//!
//! Two modes share one renderer:
//!
//! * **Remote** (`--url HOST:PORT`): follow a running daemon's chunked
//!   `GET /v1/stream/metrics` endpoint and render each newline-delimited
//!   frame as it arrives.
//! * **Wrapped** (`rsmem top [--interval MS] -- <cmd ...>`): run any
//!   other command on a worker thread while the process-global sampler
//!   frames the solver counters at the chosen interval, with the solver
//!   SLO rules evaluated per frame; the wrapped command's own output is
//!   appended once it finishes.
//!
//! Frames go through an `emit` callback so tests can capture the live
//! stream without a terminal; the binary's callback prints and flushes.

use crate::args::{split_wrapped, Parsed};
use rsmem_obs::json::Value;
use rsmem_obs::timeseries;
use rsmem_obs::watchdog::{solver_slo_rules, Watchdog};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Entry point from the dispatcher: renders frames straight to stdout
/// (flushed per frame, so the dashboard is live even through a pipe).
pub fn cmd_top(argv: &[String], parsed: &Parsed) -> Result<String, String> {
    let mut stdout = std::io::stdout();
    run_top(argv, parsed, &mut |frame| {
        let _ = writeln!(stdout, "{frame}");
        let _ = stdout.flush();
    })
}

/// The testable seam behind [`cmd_top`]: every rendered frame is handed
/// to `emit`; the returned string is printed after the stream ends (the
/// wrapped command's output, or a stream summary).
pub fn run_top(
    argv: &[String],
    parsed: &Parsed,
    emit: &mut dyn FnMut(&str),
) -> Result<String, String> {
    let interval_ms = parsed.u64_flag("--interval", 1_000)?.max(10);
    let frames = parsed.u64_flag("--frames", 0)?;
    let raw = parsed.has("--raw");
    let Some(url) = parsed.value("--url") else {
        let inner = split_wrapped(argv, "top", &["--raw"], &["--interval", "--frames"])?;
        return run_wrapped(&inner, interval_ms, frames, raw, emit);
    };
    // Any positional besides `top` itself names a command to wrap.
    if parsed.positional.len() > 1 {
        return Err("top --url follows a remote stream and cannot also wrap a command".to_owned());
    }
    let delivered = follow_stream(url, interval_ms, frames, raw, emit)?;
    if raw {
        // Keep stdout pure JSON-lines so the stream pipes into
        // `rsmem check-jsonl` and friends.
        Ok(String::new())
    } else {
        Ok(format!("top: stream ended after {delivered} frame(s)\n"))
    }
}

/// Splits `--url` into the address handed to `TcpStream::connect`: the
/// scheme prefix and any trailing path are presentation, not transport.
fn stream_addr(url: &str) -> Result<&str, String> {
    let addr = url.strip_prefix("http://").unwrap_or(url);
    let addr = addr.split('/').next().unwrap_or(addr);
    if addr
        .rsplit(':')
        .next()
        .is_some_and(|p| p.parse::<u16>().is_ok())
    {
        Ok(addr)
    } else {
        Err(format!(
            "--url {url:?}: expected HOST:PORT (http:// prefix optional)"
        ))
    }
}

/// Follows `GET /v1/stream/metrics` on a running daemon, emitting one
/// rendered (or `--raw` JSON) frame per newline-delimited chunk. Returns
/// the number of frames delivered once the server closes the stream.
fn follow_stream(
    url: &str,
    interval_ms: u64,
    frames: u64,
    raw: bool,
    emit: &mut dyn FnMut(&str),
) -> Result<u64, String> {
    let addr = stream_addr(url)?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let request = format!(
        "GET /v1/stream/metrics?interval_ms={interval_ms}&frames={frames} HTTP/1.1\r\n\
         Host: {addr}\r\nConnection: close\r\n\r\n"
    );
    (&stream)
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending request to {addr}: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading response from {addr}: {e}"))?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("{addr}: unexpected response {}", line.trim()));
    }
    let mut chunked = false;
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading headers from {addr}: {e}"))?;
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        if header.eq_ignore_ascii_case("transfer-encoding: chunked") {
            chunked = true;
        }
    }
    if !chunked {
        return Err(format!(
            "{addr}: /v1/stream/metrics did not stream a chunked body"
        ));
    }

    // Chunk payloads are whole `frame\n` lines, but reassemble anyway so
    // a proxy that re-frames the stream cannot split a frame in half.
    let mut pending = String::new();
    let mut delivered = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break; // connection closed
        }
        let len = match usize::from_str_radix(line.trim(), 16) {
            Ok(len) => len,
            Err(_) => return Err(format!("{addr}: malformed chunk header {line:?}")),
        };
        if len == 0 {
            break; // terminating chunk
        }
        let mut chunk = vec![0u8; len + 2]; // payload + trailing CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("reading stream from {addr}: {e}"))?;
        pending.push_str(
            std::str::from_utf8(&chunk[..len])
                .map_err(|_| format!("{addr}: stream chunk is not UTF-8"))?,
        );
        while let Some(end) = pending.find('\n') {
            let frame: String = pending.drain(..=end).collect();
            emit_frame(frame.trim_end(), raw, emit)?;
            delivered += 1;
        }
    }
    Ok(delivered)
}

/// Runs the wrapped command on a worker thread while the process-global
/// sampler frames the solver counters; one final frame lands after the
/// command ends so even sub-interval runs render at least once.
fn run_wrapped(
    inner: &[String],
    interval_ms: u64,
    frames: u64,
    raw: bool,
    emit: &mut dyn FnMut(&str),
) -> Result<String, String> {
    let sampler = timeseries::global();
    timeseries::track_solver_defaults(sampler);
    sampler.set_interval(Duration::from_millis(interval_ms));
    sampler.clear();
    let was_enabled = sampler.enabled();
    sampler.set_enabled(true);
    let watchdog = Watchdog::new(solver_slo_rules());

    let argv: Vec<String> = inner.to_vec();
    let worker = std::thread::Builder::new()
        .name("rsmem-top-inner".to_owned())
        .spawn(move || crate::commands::dispatch(&argv))
        .map_err(|e| format!("spawning wrapped command: {e}"))?;

    // Emits one frame; returns how many were delivered (0 or 1).
    let frame_once = |emit: &mut dyn FnMut(&str)| -> u64 {
        let Some(frame) = watchdog.frame(sampler) else {
            return 0;
        };
        emit(&if raw {
            frame.encode()
        } else {
            render_frame(&frame)
        });
        1
    };
    let mut delivered = 0u64;
    while !worker.is_finished() && (frames == 0 || delivered < frames) {
        // Sleep in short slices so a fast wrapped command is not held
        // hostage by a long dashboard interval.
        let mut slept = 0u64;
        while slept < interval_ms && !worker.is_finished() {
            let slice = (interval_ms - slept).min(25);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
        delivered += frame_once(emit);
    }
    if frames == 0 || delivered < frames {
        frame_once(emit);
    }
    sampler.set_enabled(was_enabled);
    worker
        .join()
        .map_err(|_| "wrapped command panicked".to_owned())?
}

/// Renders one frame (remote or local) through the shared dashboard.
fn emit_frame(line: &str, raw: bool, emit: &mut dyn FnMut(&str)) -> Result<(), String> {
    if raw {
        emit(line);
        return Ok(());
    }
    let frame = rsmem_obs::json::parse(line).map_err(|e| format!("malformed stream frame: {e}"))?;
    emit(&render_frame(&frame));
    Ok(())
}

/// Formats a value that is usually an integer count without a fraction,
/// but keeps two decimals for genuinely fractional gauges.
fn fmt_count(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// The text dashboard for one `rsmem-metrics/1` frame: scalars with
/// their windowed rates, histogram quantiles, and active SLO breaches.
fn render_frame(frame: &Value) -> String {
    let seq = frame.get("seq").and_then(Value::as_f64).unwrap_or(0.0);
    let ts_s = frame.get("ts_us").and_then(Value::as_f64).unwrap_or(0.0) / 1e6;
    let breaches: Vec<&str> = frame
        .get("breaches")
        .and_then(Value::as_array)
        .map(|list| list.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    let mut out = String::new();
    let _ = write!(out, "── frame {seq:.0} ── t+{ts_s:.1}s ── slo: ");
    if breaches.is_empty() {
        out.push_str("ok");
    } else {
        let _ = write!(out, "BREACH [{}]", breaches.join(", "));
    }
    out.push('\n');
    if let Some(scalars) = frame.get("scalars").and_then(Value::as_object) {
        let rates = frame.get("rates");
        for (name, value) in scalars {
            let v = value.as_f64().unwrap_or(0.0);
            let rate = rates.and_then(|r| r.get(name)).and_then(Value::as_f64);
            match rate {
                Some(rate) => {
                    let _ = writeln!(out, "  {name:<24} {:>14} {rate:>10.2}/s", fmt_count(v));
                }
                None => {
                    let _ = writeln!(out, "  {name:<24} {:>14}", fmt_count(v));
                }
            }
        }
    }
    if let Some(quantiles) = frame.get("quantiles").and_then(Value::as_object) {
        for (name, q) in quantiles {
            let pick = |key: &str| q.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {name:<24} n={:<8} p50={:<10} p90={:<10} p99={}",
                fmt_count(pick("count")),
                fmt_count(pick("p50")),
                fmt_count(pick("p90")),
                fmt_count(pick("p99")),
            );
        }
    }
    // Trim the trailing newline: the emitter owns line separation.
    while out.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(parts: &[&str], emit: &mut dyn FnMut(&str)) -> Result<String, String> {
        let argv: Vec<String> = parts.iter().map(ToString::to_string).collect();
        let parsed = parse(&argv).unwrap();
        run_top(&argv, &parsed, emit)
    }

    #[test]
    fn top_requires_a_source() {
        let mut sink = |_: &str| {};
        assert!(run(&["top"], &mut sink).is_err());
        assert!(run(&["top", "--"], &mut sink).is_err());
        assert!(run(&["top", "top", "list"], &mut sink).is_err());
        assert!(run(&["top", "--url", "127.0.0.1:1", "--", "list"], &mut sink).is_err());
        assert!(run(&["top", "--url", "not-an-address"], &mut sink).is_err());
    }

    #[test]
    fn stream_addr_strips_scheme_and_path() {
        assert_eq!(
            stream_addr("http://127.0.0.1:7373").unwrap(),
            "127.0.0.1:7373"
        );
        assert_eq!(stream_addr("http://h:1/v1/stream/metrics").unwrap(), "h:1");
        assert_eq!(stream_addr("localhost:80").unwrap(), "localhost:80");
        assert!(stream_addr("no-port").is_err());
    }

    #[test]
    fn wrapped_argv_strips_only_tops_flags() {
        // (wrapper, own boolean flags, own value flags, argv, inner argv)
        let top: (&str, &[&str], &[&str]) = ("top", &["--raw"], &["--interval", "--frames"]);
        let profile: (&str, &[&str], &[&str]) = ("profile", &["--profile-json"], &[]);
        let trace: (&str, &[&str], &[&str]) = ("trace", &["--trace-json"], &[]);
        let cases: [(_, &[&str], &[&str]); 7] = [
            (
                top,
                &["top", "--interval", "50", "--raw", "--", "stress", "--raw"],
                &["stress", "--raw"],
            ),
            (
                top,
                &["top", "sweep", "fig7", "--csv"],
                &["sweep", "fig7", "--csv"],
            ),
            (
                profile,
                &["profile", "sweep", "fig7", "--profile-json"],
                &["sweep", "fig7"],
            ),
            (
                profile,
                &["profile", "--", "ber", "--duplex", "--seu", "1e-3"],
                &["ber", "--duplex", "--seu", "1e-3"],
            ),
            (
                profile,
                &["profile", "--profile-json", "--", "list", "--profile-json"],
                &["list", "--profile-json"],
            ),
            (
                trace,
                &["trace", "--trace-json", "--", "stress", "--budget", "small"],
                &["stress", "--budget", "small"],
            ),
            (
                trace,
                &["trace", "--", "top", "--", "list", "--trace-json"],
                &["top", "--", "list", "--trace-json"],
            ),
        ];
        for ((wrapper, bools, values), argv, inner) in cases {
            let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
            assert_eq!(
                split_wrapped(&argv, wrapper, bools, values).unwrap(),
                inner,
                "{argv:?}"
            );
        }
    }

    #[test]
    fn render_frame_shows_rates_quantiles_and_breaches() {
        let frame = rsmem_obs::json::parse(
            "{\"breaches\":[\"decode_failure_rate\"],\"quantiles\":{\"lat\":{\"count\":4,\
             \"p50\":10,\"p90\":20,\"p99\":30,\"sum\":60}},\"rates\":{\"requests\":2.5},\
             \"scalars\":{\"inflight\":3,\"requests\":10},\"schema\":\"rsmem-metrics/1\",\
             \"seq\":7,\"ts_us\":1500000}",
        )
        .unwrap();
        let text = render_frame(&frame);
        assert!(text.contains("frame 7"), "{text}");
        assert!(text.contains("t+1.5s"), "{text}");
        assert!(text.contains("BREACH [decode_failure_rate]"), "{text}");
        assert!(text.contains("requests"), "{text}");
        assert!(text.contains("2.50/s"), "{text}");
        assert!(text.contains("p99=30"), "{text}");
        // The gauge has no rate column.
        let inflight = text.lines().find(|l| l.contains("inflight")).unwrap();
        assert!(!inflight.contains("/s"), "{text}");
    }

    /// Acceptance criterion: `rsmem top` renders live frames streamed
    /// from a loopback `rsmem serve`.
    #[test]
    fn top_follows_a_loopback_server_stream() {
        let server = rsmem_service::Server::bind(rsmem_service::ServiceConfig {
            addr: "127.0.0.1:0".into(),
            sample_interval_ms: 50,
            ..rsmem_service::ServiceConfig::default()
        })
        .expect("bind ephemeral server");
        let url = format!("http://{}", server.local_addr());

        let mut frames: Vec<String> = Vec::new();
        let summary = run(
            &["top", "--url", &url, "--interval", "20", "--frames", "2"],
            &mut |f| frames.push(f.to_owned()),
        )
        .unwrap();
        assert!(summary.contains("2 frame(s)"), "{summary}");
        assert_eq!(frames.len(), 2, "{frames:?}");
        for frame in &frames {
            assert!(frame.contains("── frame"), "{frame}");
            assert!(frame.contains("slo:"), "{frame}");
            assert!(frame.contains("requests"), "{frame}");
            assert!(frame.contains("request_duration_us"), "{frame}");
        }

        // --raw swaps the dashboard for the canonical JSON frames.
        let mut raw: Vec<String> = Vec::new();
        run(
            &[
                "top",
                "--url",
                &url,
                "--interval",
                "20",
                "--frames",
                "1",
                "--raw",
            ],
            &mut |f| raw.push(f.to_owned()),
        )
        .unwrap();
        assert_eq!(raw.len(), 1, "{raw:?}");
        let doc = rsmem_obs::json::parse(&raw[0]).expect("canonical frame");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("rsmem-metrics/1")
        );
        assert!(doc.get("breaches").and_then(Value::as_array).is_some());
        server.shutdown();
    }

    #[test]
    fn top_wraps_a_command_and_appends_its_output() {
        let mut frames: Vec<String> = Vec::new();
        let out = run(
            &[
                "top",
                "--interval",
                "20",
                "--",
                "simulate",
                "--seu",
                "1e-2",
                "--trials",
                "200",
                "--seed",
                "7",
                "--days",
                "1",
            ],
            &mut |f| frames.push(f.to_owned()),
        )
        .unwrap();
        // The wrapped command's own output survives, after the stream.
        assert!(out.contains("200 trials"), "{out}");
        // At least the post-completion frame rendered, with the solver
        // series the global sampler tracks by default.
        assert!(!frames.is_empty());
        let last = frames.last().unwrap();
        assert!(last.contains("decode_failures"), "{last}");
        assert!(last.contains("mc_trials"), "{last}");
    }
}
