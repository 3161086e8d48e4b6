//! Structured events and timed spans with trace IDs.
//!
//! The pipeline has one fast gate: a relaxed atomic holding the maximum
//! enabled level, `0` when logging is off. [`event`] and [`span`] check
//! it before touching anything else, so an instrumented hot path with
//! logging disabled pays one atomic load and performs **zero heap
//! allocations** (proven by the crate's `alloc_count` test).
//!
//! An enabled record is rendered as a single line — canonical JSON (see
//! [`crate::json`]) or human-readable text — and written to the sink in
//! one locked write, so concurrent emitters never interleave bytes.
//!
//! ## Configuration
//!
//! `RSMEM_LOG` (or an explicit [`init`]) selects `format[:level[:targets]]`:
//!
//! ```text
//! RSMEM_LOG=json              # JSON-lines, everything up to debug
//! RSMEM_LOG=text:info         # human-readable, info and up
//! RSMEM_LOG=json:debug:ctmc   # only targets starting with "ctmc"
//! RSMEM_LOG=off               # explicit off (same as unset)
//! ```
//!
//! ## Trace IDs
//!
//! A trace ID is a non-zero `u64` carried in a thread-local.
//! [`trace_scope`] sets it for the current scope (restoring the previous
//! value on drop), and the workspace's thread pools capture + re-establish
//! it inside their workers, so every event a request causes — across the
//! HTTP worker, the sweep fan-out, the Monte-Carlo shards — carries the
//! same `trace_id`.

use crate::json::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// A failure the process cannot hide.
    Error = 1,
    /// Something suspicious but survivable.
    Warn = 2,
    /// High-level lifecycle events (one per request / campaign).
    Info = 3,
    /// Per-solve diagnostics (one per grid solve / decode campaign).
    Debug = 4,
    /// Very chatty internals.
    Trace = 5,
}

impl Level {
    /// The lowercase name used in rendered records and `RSMEM_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses the names printed by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// How enabled records are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// One human-readable line per record.
    Text,
    /// One canonical-JSON object per line (see [`crate::json`]).
    Json,
}

/// A complete logging configuration; `None` in [`init`] means off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Output rendering.
    pub format: LogFormat,
    /// Maximum enabled level.
    pub level: Level,
    /// Target prefixes to keep; empty keeps everything.
    pub targets: Vec<String>,
}

impl LogConfig {
    /// Parses an `RSMEM_LOG`-style spec: `format[:level[:targets]]`.
    ///
    /// `""`, `"off"` and `"0"` mean logging off (`Ok(None)`). The level
    /// defaults to `debug`; targets are comma-separated prefixes.
    ///
    /// # Errors
    ///
    /// A message naming the unknown format or level.
    pub fn parse(spec: &str) -> Result<Option<LogConfig>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "0" {
            return Ok(None);
        }
        let mut parts = spec.splitn(3, ':');
        let format = match parts.next().unwrap_or_default() {
            "json" => LogFormat::Json,
            "text" => LogFormat::Text,
            other => return Err(format!("unknown log format {other:?} (json, text or off)")),
        };
        let level = match parts.next() {
            None | Some("") => Level::Debug,
            Some(name) => Level::parse(name)
                .ok_or_else(|| format!("unknown log level {name:?} (error..trace)"))?,
        };
        let targets = parts
            .next()
            .map(|t| {
                t.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default();
        Ok(Some(LogConfig {
            format,
            level,
            targets,
        }))
    }
}

/// Where rendered lines go.
#[derive(Debug, Clone)]
pub enum Sink {
    /// The process's standard error (the default).
    Stderr,
    /// An in-memory buffer — for tests asserting on emitted records.
    Buffer(Arc<Mutex<Vec<u8>>>),
}

/// `0` = off; otherwise the numeric value of the max enabled [`Level`].
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// The active format + target filter (level lives in [`MAX_LEVEL`]).
static CONFIG: Mutex<Option<LogConfig>> = Mutex::new(None);

/// The active output sink.
static SINK: Mutex<Sink> = Mutex::new(Sink::Stderr);

/// Applies a configuration (or switches logging off with `None`).
/// May be called again to reconfigure — the CLI's `--log-format` flag
/// overrides the environment this way.
pub fn init(config: Option<LogConfig>) {
    let level = config.as_ref().map_or(0, |c| c.level as u8);
    *CONFIG.lock().expect("log config lock") = config;
    MAX_LEVEL.store(level, Ordering::Relaxed);
}

/// Configures logging from the `RSMEM_LOG` environment variable. An
/// unset variable leaves the current configuration untouched.
///
/// # Errors
///
/// The [`LogConfig::parse`] message for a malformed spec (logging is
/// left unchanged so a typo never silences a run unexpectedly).
pub fn init_from_env() -> Result<(), String> {
    match std::env::var("RSMEM_LOG") {
        Ok(spec) => {
            init(LogConfig::parse(&spec)?);
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// Redirects rendered lines (tests use [`Sink::Buffer`]).
pub fn set_sink(sink: Sink) {
    *SINK.lock().expect("log sink lock") = sink;
}

/// True when any logging configuration is active.
pub(crate) fn is_configured() -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) != 0
}

/// True when records at `level` for `target` would be emitted. The
/// disabled path is one relaxed atomic load.
pub fn enabled(level: Level, target: &str) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if level as u8 > max {
        return false;
    }
    let config = CONFIG.lock().expect("log config lock");
    match config.as_ref() {
        None => false,
        Some(c) => c.targets.is_empty() || c.targets.iter().any(|t| target.starts_with(t.as_str())),
    }
}

/// One typed field value of an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text (converted only when the record is enabled).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Shared payload of events and spans.
struct Record {
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

/// A structured event under construction; a no-op shell when its level
/// is disabled (no allocations happen through the builder then).
pub struct Event(Option<Record>);

/// Starts an event. Returns a disabled shell (free to build and emit)
/// unless `level`/`target` pass the active filter.
pub fn event(level: Level, target: &'static str, name: &'static str) -> Event {
    if enabled(level, target) {
        Event(Some(Record {
            level,
            target,
            name,
            fields: Vec::new(),
        }))
    } else {
        Event(None)
    }
}

impl Event {
    /// Attaches a field. The value conversion runs only when the event
    /// is enabled, so passing `&str` to a disabled event allocates
    /// nothing.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(record) = &mut self.0 {
            record.fields.push((key, value.into()));
        }
        self
    }

    /// Renders and writes the event (one line, one locked write).
    pub fn emit(self) {
        if let Some(record) = self.0 {
            write_record(&record, None);
        }
    }
}

/// A timed span: emits one record on drop carrying `elapsed_us`.
pub struct Span(Option<SpanData>);

struct SpanData {
    record: Record,
    start: Instant,
    /// True when the span passes the *logging* filter (it will emit a
    /// record on drop). A span can exist for the profiler alone.
    log: bool,
    /// Open profiler frame, when profiling is enabled.
    prof: Option<crate::profile::Frame>,
    /// True when the flight recorder captured the open and must see the
    /// close.
    rec: bool,
}

/// Starts a [`Level::Debug`] span (the level solver instrumentation
/// uses: one record per solve, not per iteration).
pub fn span(target: &'static str, name: &'static str) -> Span {
    span_at(Level::Debug, target, name)
}

/// Starts a span at an explicit level. Every span doubles as a
/// [`crate::profile`] probe and a [`crate::recorder`] event pair: if
/// profiling or recording is enabled the span is timed even when
/// logging would drop it. With all three systems off the cost is three
/// relaxed atomic loads and zero allocations.
pub fn span_at(level: Level, target: &'static str, name: &'static str) -> Span {
    let log = enabled(level, target);
    let prof = crate::profile::enter(target, name);
    let rec = crate::recorder::enabled();
    if log || prof.is_some() || rec {
        if rec {
            crate::recorder::record_span_open(target, name);
        }
        Span(Some(SpanData {
            record: Record {
                level,
                target,
                name,
                fields: Vec::new(),
            },
            start: Instant::now(),
            log,
            prof,
            rec,
        }))
    } else {
        Span(None)
    }
}

impl Span {
    /// True when the span will emit a log record — callers use this to
    /// skip expensive field computation (e.g. a `format!`) when
    /// disabled. A profile-only span reports `false`: the profiler
    /// never reads fields, so computing them would be wasted work.
    pub fn active(&self) -> bool {
        self.0.as_ref().is_some_and(|d| d.log)
    }

    /// Attaches a field; a no-op (with no conversion) unless the span
    /// will emit a log record.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(data) = &mut self.0 {
            if data.log {
                data.record.fields.push((key, value.into()));
            }
        }
    }

    /// Monotonic time since the span started, `None` when disabled.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0
            .as_ref()
            .map(|d| u64::try_from(d.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(data) = self.0.take() {
            let elapsed = data.start.elapsed();
            if let Some(frame) = data.prof {
                crate::profile::exit(frame, elapsed);
            }
            if data.rec {
                crate::recorder::record_span_close(data.record.target, data.record.name, elapsed);
            }
            if data.log {
                let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                write_record(&data.record, Some(us));
            }
        }
    }
}

// ---------------------------------------------------------------- trace IDs

thread_local! {
    /// The current trace ID; `0` means none.
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace ID active on this thread, if any.
pub fn current_trace_id() -> Option<u64> {
    let id = TRACE.with(Cell::get);
    (id != 0).then_some(id)
}

/// Restores the previous trace ID when dropped.
pub struct TraceGuard {
    previous: u64,
}

/// Sets the current thread's trace ID for the guard's lifetime.
/// Thread pools call this inside each worker with the ID captured from
/// the spawning thread, so a request's spans stay attributable across
/// fan-out.
pub fn trace_scope(id: u64) -> TraceGuard {
    let previous = TRACE.with(|t| t.replace(id));
    TraceGuard { previous }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE.with(|t| t.set(self.previous));
    }
}

/// A fresh, non-zero trace ID: wall-clock entropy mixed with a process
/// counter through SplitMix64, so concurrent generators cannot collide.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = nanos ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z | 1 // never zero
}

/// Renders a trace ID the way records carry it: 16 lowercase hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a header-supplied trace ID: 1–16 hex digits, non-zero.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

// ----------------------------------------------------------------- emission

/// Monotonic origin for the `ts_us` field.
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds since process start — the timestamp base shared by log
/// records and flight-recorder records, so the two streams line up.
pub(crate) fn ts_now_us() -> u64 {
    u64::try_from(process_start().elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn write_record(record: &Record, elapsed_us: Option<u64>) {
    let format = match CONFIG.lock().expect("log config lock").as_ref() {
        Some(c) => c.format,
        None => return, // reconfigured to off between creation and emit
    };
    let ts_us = u64::try_from(process_start().elapsed().as_micros()).unwrap_or(u64::MAX);
    let trace = current_trace_id();
    let line = match format {
        LogFormat::Json => render_json(record, elapsed_us, trace, ts_us),
        LogFormat::Text => render_text(record, elapsed_us, trace, ts_us),
    };
    let sink = SINK.lock().expect("log sink lock");
    match &*sink {
        Sink::Stderr => {
            let stderr = std::io::stderr();
            let mut handle = stderr.lock();
            let _ = handle.write_all(line.as_bytes());
        }
        Sink::Buffer(buffer) => {
            buffer
                .lock()
                .expect("log buffer lock")
                .extend_from_slice(line.as_bytes());
        }
    }
}

fn field_to_json(value: &FieldValue) -> Value {
    match value {
        FieldValue::U64(v) => Value::Number(*v as f64),
        FieldValue::I64(v) => Value::Number(*v as f64),
        FieldValue::F64(v) => Value::Number(*v),
        FieldValue::Bool(v) => Value::Bool(*v),
        FieldValue::Str(v) => Value::String(v.clone()),
    }
}

fn render_json(record: &Record, elapsed_us: Option<u64>, trace: Option<u64>, ts_us: u64) -> String {
    let mut map = BTreeMap::new();
    map.insert("ts_us".to_owned(), Value::Number(ts_us as f64));
    map.insert(
        "level".to_owned(),
        Value::String(record.level.as_str().to_owned()),
    );
    map.insert("target".to_owned(), Value::String(record.target.to_owned()));
    map.insert("name".to_owned(), Value::String(record.name.to_owned()));
    if let Some(id) = trace {
        map.insert("trace_id".to_owned(), Value::String(format_trace_id(id)));
    }
    if let Some(us) = elapsed_us {
        map.insert("elapsed_us".to_owned(), Value::Number(us as f64));
    }
    if !record.fields.is_empty() {
        let fields: BTreeMap<String, Value> = record
            .fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), field_to_json(v)))
            .collect();
        map.insert("fields".to_owned(), Value::Object(fields));
    }
    let mut line = Value::Object(map).encode();
    line.push('\n');
    line
}

/// Appends a field value with newlines and control characters escaped,
/// preserving the text sink's one-event-per-line invariant even for
/// adversarial strings (the JSON sink gets this for free from the
/// canonical codec's string escaping).
fn push_escaped_text(line: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(line, "\\u{{{:04x}}}", c as u32);
            }
            c => line.push(c),
        }
    }
}

fn render_text(record: &Record, elapsed_us: Option<u64>, trace: Option<u64>, ts_us: u64) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "[{:>11.6}] {:<5} {} {}",
        ts_us as f64 / 1e6,
        record.level.as_str(),
        record.target,
        record.name
    );
    for (key, value) in &record.fields {
        let _ = match value {
            FieldValue::U64(v) => write!(line, " {key}={v}"),
            FieldValue::I64(v) => write!(line, " {key}={v}"),
            FieldValue::F64(v) => write!(line, " {key}={v}"),
            FieldValue::Bool(v) => write!(line, " {key}={v}"),
            FieldValue::Str(v) => {
                let _ = write!(line, " {key}=");
                push_escaped_text(&mut line, v);
                Ok(())
            }
        };
    }
    if let Some(us) = elapsed_us {
        let _ = write!(line, " elapsed_us={us}");
    }
    if let Some(id) = trace {
        let _ = write!(line, " trace={}", format_trace_id(id));
    }
    line.push('\n');
    line
}

/// Serializes unit tests (across this crate's modules) that touch the
/// global logging or profiling state.
#[cfg(test)]
pub(crate) fn test_env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Serializes tests that touch the global logging configuration.
    fn config_lock() -> std::sync::MutexGuard<'static, ()> {
        test_env_lock()
    }

    fn capture() -> Arc<Mutex<Vec<u8>>> {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        set_sink(Sink::Buffer(Arc::clone(&buffer)));
        buffer
    }

    fn drain(buffer: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(std::mem::take(&mut *buffer.lock().unwrap())).unwrap()
    }

    fn reset() {
        init(None);
        set_sink(Sink::Stderr);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(LogConfig::parse("off").unwrap(), None);
        assert_eq!(LogConfig::parse("").unwrap(), None);
        let c = LogConfig::parse("json").unwrap().unwrap();
        assert_eq!(c.format, LogFormat::Json);
        assert_eq!(c.level, Level::Debug);
        assert!(c.targets.is_empty());
        let c = LogConfig::parse("text:info:ctmc,sim").unwrap().unwrap();
        assert_eq!(c.format, LogFormat::Text);
        assert_eq!(c.level, Level::Info);
        assert_eq!(c.targets, vec!["ctmc".to_owned(), "sim".to_owned()]);
        assert!(LogConfig::parse("xml").is_err());
        assert!(LogConfig::parse("json:loud").is_err());
    }

    #[test]
    fn disabled_by_default_and_level_filtered() {
        let _guard = config_lock();
        reset();
        assert!(!enabled(Level::Error, "x"));
        init(LogConfig::parse("json:info").unwrap());
        assert!(enabled(Level::Info, "x"));
        assert!(!enabled(Level::Debug, "x"));
        reset();
    }

    #[test]
    fn target_prefix_filter() {
        let _guard = config_lock();
        init(LogConfig::parse("json:debug:ctmc,service.cache").unwrap());
        assert!(enabled(Level::Debug, "ctmc.uniformization"));
        assert!(enabled(Level::Debug, "service.cache"));
        assert!(!enabled(Level::Debug, "service.request"));
        reset();
    }

    #[test]
    fn json_events_are_canonical_and_carry_fields() {
        let _guard = config_lock();
        init(LogConfig::parse("json").unwrap());
        let buffer = capture();
        event(Level::Info, "test.target", "hello")
            .field("count", 3u64)
            .field("ratio", 0.5f64)
            .field("label", "x y")
            .emit();
        let out = drain(&buffer);
        reset();
        let line = out.trim_end();
        let value = json::parse(line).expect("valid JSON");
        assert_eq!(value.encode(), line, "canonical");
        assert_eq!(value.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(value.get("name").unwrap().as_str(), Some("hello"));
        let fields = value.get("fields").unwrap();
        assert_eq!(fields.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(fields.get("label").unwrap().as_str(), Some("x y"));
        assert!(value.get("trace_id").is_none(), "no trace set");
    }

    #[test]
    fn spans_emit_elapsed_and_trace() {
        let _guard = config_lock();
        init(LogConfig::parse("json").unwrap());
        let buffer = capture();
        {
            let _trace = trace_scope(0xDEAD_BEEF);
            let mut s = span("test.span", "work");
            assert!(s.active());
            s.record("items", 7u64);
            assert!(s.elapsed_us().is_some());
        }
        let out = drain(&buffer);
        reset();
        let value = json::parse(out.trim_end()).unwrap();
        assert_eq!(
            value.get("trace_id").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        assert!(value.get("elapsed_us").unwrap().as_f64().is_some());
        assert_eq!(
            value.get("fields").unwrap().get("items").unwrap().as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn text_format_renders_one_line() {
        let _guard = config_lock();
        init(LogConfig::parse("text:info").unwrap());
        let buffer = capture();
        event(Level::Info, "test.text", "ping")
            .field("n", 1u64)
            .emit();
        let out = drain(&buffer);
        reset();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("info"), "{out}");
        assert!(out.contains("test.text ping n=1"), "{out}");
    }

    #[test]
    fn text_format_escapes_control_characters() {
        // Mirrors the JSON sink's label-escaping tests: adversarial
        // field values must not break the one-event-per-line invariant.
        let _guard = config_lock();
        init(LogConfig::parse("text:info").unwrap());
        let buffer = capture();
        event(Level::Info, "test.text", "adversarial")
            .field("msg", "a\nfake=line\r\tend")
            .field("nul", "x\u{0}y")
            .field("slash", "a\\b")
            .emit();
        let out = drain(&buffer);
        reset();
        assert_eq!(out.lines().count(), 1, "must stay one line: {out:?}");
        assert!(out.contains("msg=a\\nfake=line\\r\\tend"), "{out}");
        assert!(out.contains("nul=x\\u{0000}y"), "{out}");
        assert!(out.contains("slash=a\\\\b"), "{out}");
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        assert_eq!(current_trace_id(), None);
        {
            let _a = trace_scope(1);
            assert_eq!(current_trace_id(), Some(1));
            {
                let _b = trace_scope(2);
                assert_eq!(current_trace_id(), Some(2));
            }
            assert_eq!(current_trace_id(), Some(1));
        }
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn trace_id_parse_and_format_roundtrip() {
        assert_eq!(parse_trace_id("00000000deadbeef"), Some(0xDEAD_BEEF));
        assert_eq!(parse_trace_id("ff"), Some(0xFF));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("11112222333344445"), None); // 17 digits
        let id = next_trace_id();
        assert_ne!(id, 0);
        assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
    }

    #[test]
    fn fresh_trace_ids_do_not_collide() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }
}
