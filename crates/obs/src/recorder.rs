//! Always-on flight recorder: per-thread ring buffers of compact binary
//! event records, plus a reservoir-sampled failure-exemplar channel.
//!
//! The aggregates of [`crate::metrics`] and [`crate::profile`] answer
//! *how often* and *how long*; this module answers *which one*. Every
//! span open/close, decode outcome and arbiter decision is written as a
//! fixed-size binary record into a **lock-free per-thread ring**, so
//! when something rare goes wrong — a beyond-bound miscorrection, an
//! arbiter incident, a panic — the recent event history is still there
//! to be replayed (`rsmem trace …`, service `GET /debug/flightrecorder`).
//!
//! ## Record rings
//!
//! Each thread owns a fixed-capacity ring of [`AtomicU64`] slots. The
//! writer (always the owning thread) stamps every record with a
//! wraparound-safe sequence number using a seqlock protocol — stamp
//! odd while writing, even when complete, [`std::sync::atomic::fence`]s
//! on both sides — so a snapshot taken from another thread mid-wrap
//! either sees a record whole or skips it; it can never observe a torn
//! mix of two records. Rings register themselves in a global list on
//! first use and outlive their thread, so a worker's history survives
//! for post-mortem inspection.
//!
//! The disabled path (the default) is **two relaxed atomic loads and
//! zero heap allocations** — the same contract the log and profile
//! gates prove in the crate's `alloc_count` test.
//!
//! ## Failure exemplars
//!
//! When a decode fails, a differential oracle catches a miscorrection,
//! an arbiter rejects malformed input, or a panic unwinds, callers
//! offer an [`Exemplar`] — code parameters, trace id, the exact
//! error/erasure pattern, syndromes, the back-ends' verdicts and a
//! ready-to-paste reproduction. Exemplars are **reservoir-sampled per
//! kind** (eight of each), so the steady-state cost of the
//! millionth detected failure is O(1) — bump a counter, draw one
//! pseudo-random number, usually build nothing — while rare kinds
//! (miscorrections, panics) can never be crowded out by common ones.
//! The reservoir RNG is a [`SplitMix64`-style] stream seeded by
//! [`set_reservoir_seed`], so a pinned seed makes the kept sample a
//! deterministic function of the offered sequence.
//!
//! ## Epochs
//!
//! [`snapshot_and_reset`] atomically captures everything and starts a
//! new epoch: ring floors advance to the current heads and the
//! reservoirs restart (re-seeded), mirroring `/debug/profile?reset=1`.
//! Records written by in-flight spans during the swap land in the next
//! epoch — never in both.
//!
//! [`SplitMix64`-style]: https://prng.di.unimi.it/splitmix64.c

use crate::json::Value;
use crate::log::{current_trace_id, format_trace_id};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Schema tag of the JSON dump.
pub const SCHEMA: &str = "rsmem-trace/1";

/// Records each per-thread ring holds before overwriting the oldest.
const RING_CAPACITY: usize = 512;

/// Reservoir capacity per exemplar kind.
const EXEMPLARS_PER_KIND: usize = 8;

/// Payload words per record (kind/ids pack, timestamp, trace, a, b).
const WORDS: usize = 5;

/// Slot stride: one stamp word plus the payload.
const STRIDE: usize = WORDS + 1;

/// Default reservoir seed (overridable via [`set_reservoir_seed`]).
const DEFAULT_RESERVOIR_SEED: u64 = 0x5EED_F11E_7D0C_0DE5;

/// What a ring record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum RecordKind {
    /// A span was opened (`a`/`b` unused).
    SpanOpen = 1,
    /// A span closed; `a` carries `elapsed_us`.
    SpanClose = 2,
    /// A decode finished; `a` encodes the outcome, `b` a detail count.
    Decode = 3,
    /// An arbiter decision; `a` encodes the branch taken.
    Arbiter = 4,
    /// An exemplar was frozen; `a` carries its capture sequence.
    Exemplar = 5,
}

impl RecordKind {
    /// Stable lowercase name used in rendered output.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::SpanOpen => "span_open",
            RecordKind::SpanClose => "span_close",
            RecordKind::Decode => "decode",
            RecordKind::Arbiter => "arbiter",
            RecordKind::Exemplar => "exemplar",
        }
    }

    fn from_u8(v: u8) -> Option<RecordKind> {
        match v {
            1 => Some(RecordKind::SpanOpen),
            2 => Some(RecordKind::SpanClose),
            3 => Some(RecordKind::Decode),
            4 => Some(RecordKind::Arbiter),
            5 => Some(RecordKind::Exemplar),
            _ => None,
        }
    }
}

// ------------------------------------------------------------------- gate

/// The manual gate — `false` means every hook returns immediately
/// (unless a [`enable_scoped`] guard is alive).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Live [`enable_scoped`] guards; recording is on while any exist.
static SCOPES: AtomicU64 = AtomicU64::new(0);

/// Current epoch; bumped by [`snapshot_and_reset`].
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Turns the recorder on or off. Off (the default) restores the
/// two-relaxed-load, zero-allocation path; recorded history is kept
/// until the next reset.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when events are currently being recorded. Two relaxed loads.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || SCOPES.load(Ordering::Relaxed) > 0
}

/// Keeps the recorder on while alive; see [`enable_scoped`].
#[must_use = "recording stops when the guard drops"]
#[derive(Debug)]
pub struct RecorderGuard(());

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Enables recording for the guard's lifetime, reference-counted so
/// overlapping scopes (a traced stress run, concurrently dispatched
/// commands in one process) keep recording until the *last* scope ends.
/// Independent of [`set_enabled`]: a permanently enabled recorder (the
/// service) stays on after every guard is gone.
pub fn enable_scoped() -> RecorderGuard {
    SCOPES.fetch_add(1, Ordering::Relaxed);
    RecorderGuard(())
}

/// The current epoch number.
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------- interning

/// Global table resolving interned string ids back to the strings.
/// Targets and names are `&'static str`, so the table only ever grows
/// by distinct call sites (a few dozen across the workspace).
static STRINGS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread intern cache keyed by the `&'static str` data pointer,
    /// so the global lock is taken once per (thread, string) — the hot
    /// path is a thread-local hash probe.
    static INTERN_CACHE: std::cell::RefCell<HashMap<(usize, usize), u16>> =
        std::cell::RefCell::new(HashMap::new());
}

fn intern(s: &'static str) -> u16 {
    let key = (s.as_ptr() as usize, s.len());
    INTERN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&id) = cache.get(&key) {
            return id;
        }
        let mut table = STRINGS.lock().unwrap_or_else(|e| e.into_inner());
        let id = match table.iter().position(|&t| t == s) {
            Some(i) => u16::try_from(i).unwrap_or(u16::MAX),
            None => {
                let i = table.len();
                if i >= usize::from(u16::MAX) {
                    // Table full: fold everything else onto the last id.
                    u16::MAX - 1
                } else {
                    table.push(s);
                    u16::try_from(i).expect("bounded above")
                }
            }
        };
        drop(table);
        cache.insert(key, id);
        id
    })
}

fn resolve_strings() -> Vec<String> {
    STRINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
}

// -------------------------------------------------------------------- rings

/// One thread's ring. The owning thread is the only writer; snapshots
/// read concurrently through the per-slot seqlock stamps.
struct Ring {
    /// Stable id assigned at registration (reported as `thread`).
    thread: u32,
    /// Next sequence number to write (also the count of records ever
    /// written to this ring). Stored *after* the record completes.
    head: AtomicU64,
    /// Sequences below this are excluded from snapshots (epoch reset).
    floor: AtomicU64,
    /// `RING_CAPACITY` slots of `STRIDE` words each. Word 0 is the
    /// stamp: `0` = never written, `2·seq+1` = seq in progress,
    /// `2·seq+2` = seq complete.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(thread: u32) -> Ring {
        Ring {
            thread,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: (0..RING_CAPACITY * STRIDE)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Writes one record. Caller must be the owning thread.
    fn write(&self, kind: RecordKind, target: u16, name: u16, a: u64, b: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let base = (seq as usize % RING_CAPACITY) * STRIDE;
        let packed = u64::from(kind as u8) | (u64::from(target) << 16) | (u64::from(name) << 32);
        // Seqlock write: odd stamp, fence, payload, fence, even stamp.
        self.slots[base].store(2 * seq + 1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.slots[base + 1].store(packed, Ordering::Relaxed);
        self.slots[base + 2].store(crate::log::ts_now_us(), Ordering::Relaxed);
        self.slots[base + 3].store(current_trace_id().unwrap_or(0), Ordering::Relaxed);
        self.slots[base + 4].store(a, Ordering::Relaxed);
        self.slots[base + 5].store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.slots[base].store(2 * seq + 2, Ordering::Relaxed);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Copies every complete, in-epoch record. Records being overwritten
    /// during the copy fail the stamp re-check and are skipped.
    fn collect(&self, out: &mut Vec<SnapshotEvent>) -> u64 {
        let floor = self.floor.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        for slot in 0..RING_CAPACITY {
            let base = slot * STRIDE;
            let s1 = self.slots[base].load(Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // empty or mid-write
            }
            let payload: [u64; WORDS] =
                std::array::from_fn(|w| self.slots[base + 1 + w].load(Ordering::Relaxed));
            fence(Ordering::SeqCst);
            let s2 = self.slots[base].load(Ordering::Relaxed);
            if s2 != s1 {
                continue; // overwritten mid-copy
            }
            let seq = (s1 - 2) / 2;
            if seq < floor {
                continue; // previous epoch
            }
            let Some(kind) = RecordKind::from_u8((payload[0] & 0xFF) as u8) else {
                continue;
            };
            out.push(SnapshotEvent {
                thread: self.thread,
                seq,
                kind,
                target: ((payload[0] >> 16) & 0xFFFF) as u16,
                name: ((payload[0] >> 32) & 0xFFFF) as u16,
                ts_us: payload[1],
                trace_id: payload[2],
                a: payload[3],
                b: payload[4],
            })
        }
        // Overwritten-before-snapshot records are gone for good.
        (head.saturating_sub(floor)).saturating_sub(RING_CAPACITY as u64)
    }
}

fn rings() -> MutexGuard<'static, Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// This thread's ring, registered on first record.
    static MY_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut all = rings();
            let ring = Arc::new(Ring::new(u32::try_from(all.len()).unwrap_or(u32::MAX)));
            all.push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

// -------------------------------------------------------------------- hooks

/// Records a span opening. No-op (one relaxed load) when disabled.
pub(crate) fn record_span_open(target: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    let (t, n) = (intern(target), intern(name));
    with_ring(|r| r.write(RecordKind::SpanOpen, t, n, 0, 0));
}

/// Records a span closing with its measured wall time.
pub(crate) fn record_span_close(target: &'static str, name: &'static str, elapsed_us: u64) {
    if !enabled() {
        return;
    }
    let (t, n) = (intern(target), intern(name));
    with_ring(|r| r.write(RecordKind::SpanClose, t, n, elapsed_us, 0));
}

/// Records a decode outcome or arbiter decision (`kind` must be
/// [`RecordKind::Decode`] or [`RecordKind::Arbiter`]); `a`/`b` carry
/// kind-specific codes documented at the call sites.
pub fn record_event(kind: RecordKind, target: &'static str, name: &'static str, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let (t, n) = (intern(target), intern(name));
    with_ring(|r| r.write(kind, t, n, a, b));
}

// ---------------------------------------------------------------- exemplars

/// A frozen failure sample: everything needed to reproduce one rare
/// event offline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exemplar {
    /// Stable kind slug: `"decode-failure"`, `"miscorrection"`,
    /// `"arbiter-reject"`, `"mc-silent-corruption"`, `"panic"`, …
    pub kind: &'static str,
    /// Code parameters in spec form (e.g. `"rs:18,16,8"`), empty when
    /// not applicable.
    pub code: String,
    /// Trace id active at capture; `0` = none.
    pub trace_id: u64,
    /// The received word — the exact error pattern, when applicable.
    pub word: Vec<u32>,
    /// Declared erasure positions.
    pub erasures: Vec<u32>,
    /// Syndromes of the received word.
    pub syndromes: Vec<u32>,
    /// Per-back-end verdicts (e.g. `"sugiyama: Failure(KeyEquation)"`).
    pub verdicts: Vec<String>,
    /// Free-text detail line.
    pub detail: String,
    /// A ready-to-paste reproduction (may be empty).
    pub repro: String,
    /// Capture sequence (how many exemplars of this kind were offered
    /// before this one, this epoch).
    pub seq: u64,
}

struct Reservoir {
    seen: u64,
    slots: Vec<Exemplar>,
}

struct Exemplars {
    rng: u64,
    by_kind: BTreeMap<&'static str, Reservoir>,
    seed: u64,
}

fn exemplars() -> MutexGuard<'static, Exemplars> {
    static STORE: OnceLock<Mutex<Exemplars>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            Mutex::new(Exemplars {
                rng: DEFAULT_RESERVOIR_SEED,
                by_kind: BTreeMap::new(),
                seed: DEFAULT_RESERVOIR_SEED,
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Re-seeds the reservoir RNG (and restarts its stream). With a pinned
/// seed the kept sample is a deterministic function of the sequence of
/// offers — the stress harness relies on this for reproducible runs.
pub fn set_reservoir_seed(seed: u64) {
    let mut store = exemplars();
    store.seed = seed;
    store.rng = seed;
}

/// Offers an exemplar of `kind`. The builder runs **only when the
/// reservoir accepts** — the steady-state rejected path is a counter
/// bump and one RNG draw, no allocation beyond the lock. Returns true
/// when the exemplar was kept.
pub fn record_exemplar_with(kind: &'static str, build: impl FnOnce() -> Exemplar) -> bool {
    if !enabled() {
        return false;
    }
    let mut store = exemplars();
    let mut rng = store.rng;
    let reservoir = store.by_kind.entry(kind).or_insert_with(|| Reservoir {
        seen: 0,
        slots: Vec::new(),
    });
    let seq = reservoir.seen;
    reservoir.seen += 1;
    let slot = if reservoir.slots.len() < EXEMPLARS_PER_KIND {
        reservoir.slots.push(Exemplar::default());
        Some(reservoir.slots.len() - 1)
    } else {
        // Vitter's algorithm R: replace a uniform slot with probability
        // capacity/seen, keeping every offer equally likely to survive.
        let j = (splitmix(&mut rng) % reservoir.seen) as usize;
        (j < EXEMPLARS_PER_KIND).then_some(j)
    };
    let kept = slot.is_some();
    if let Some(j) = slot {
        let mut exemplar = build();
        exemplar.kind = kind;
        exemplar.seq = seq;
        if exemplar.trace_id == 0 {
            exemplar.trace_id = current_trace_id().unwrap_or(0);
        }
        reservoir.slots[j] = exemplar;
    }
    store.rng = rng;
    drop(store);
    if kept {
        record_event(RecordKind::Exemplar, "recorder", kind, seq, 0);
    }
    kept
}

// ----------------------------------------------------------------- snapshot

/// One decoded ring record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEvent {
    /// Ring id of the writing thread.
    pub thread: u32,
    /// Per-ring wraparound-safe sequence number.
    pub seq: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// Interned target id — index into [`Snapshot::strings`].
    pub target: u16,
    /// Interned name id — index into [`Snapshot::strings`].
    pub name: u16,
    /// Microseconds since process start.
    pub ts_us: u64,
    /// Trace id active when the record was written; `0` = none.
    pub trace_id: u64,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

/// A consistent capture of the recorder's state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Epoch the events belong to.
    pub epoch: u64,
    /// Whether recording was enabled at capture time.
    pub enabled: bool,
    /// Interned-string table; `SnapshotEvent::target`/`name` index it.
    pub strings: Vec<String>,
    /// All readable records, ordered by (ts_us, thread, seq).
    pub events: Vec<SnapshotEvent>,
    /// Records overwritten before they could be captured.
    pub dropped: u64,
    /// Rings (≈ threads) that recorded at least once.
    pub threads: usize,
    /// The sampled failure exemplars, grouped by kind then capture order.
    pub exemplars: Vec<Exemplar>,
    /// Total exemplars offered this epoch (kept + rejected), by kind.
    pub exemplars_seen: Vec<(String, u64)>,
}

impl Snapshot {
    /// Resolves an interned id against the snapshot's string table.
    pub fn string(&self, id: u16) -> &str {
        self.strings
            .get(usize::from(id))
            .map_or("<unknown>", String::as_str)
    }
}

fn capture(reset: bool) -> Snapshot {
    // Lock order: rings, then exemplars; both held across the floor
    // swap so the epoch boundary is atomic (like profile's snapshot).
    let all = rings();
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in all.iter() {
        dropped += ring.collect(&mut events);
        if reset {
            ring.floor
                .store(ring.head.load(Ordering::Acquire), Ordering::Relaxed);
        }
    }
    let threads = all.len();
    events.sort_by_key(|e| (e.ts_us, e.thread, e.seq));
    let mut store = exemplars();
    let mut kept = Vec::new();
    let mut seen = Vec::new();
    for (kind, reservoir) in &store.by_kind {
        let mut slots = reservoir.slots.clone();
        slots.sort_by_key(|e| e.seq);
        kept.extend(slots);
        seen.push(((*kind).to_owned(), reservoir.seen));
    }
    if reset {
        store.by_kind.clear();
        let seed = store.seed;
        store.rng = seed;
    }
    drop(store);
    let epoch = if reset {
        EPOCH.fetch_add(1, Ordering::Relaxed)
    } else {
        EPOCH.load(Ordering::Relaxed)
    };
    drop(all);
    Snapshot {
        epoch,
        enabled: enabled(),
        strings: resolve_strings(),
        events,
        dropped,
        threads,
        exemplars: kept,
        exemplars_seen: seen,
    }
}

/// Captures the current epoch without disturbing it.
pub fn snapshot() -> Snapshot {
    capture(false)
}

/// Atomically captures everything and starts a fresh epoch: ring floors
/// advance past every captured record and the exemplar reservoirs
/// restart from their seed. The `?reset=1` semantics of
/// `GET /debug/flightrecorder`, matching `/debug/profile`.
pub fn snapshot_and_reset() -> Snapshot {
    capture(true)
}

// ---------------------------------------------------------------- rendering

fn exemplar_to_json(e: &Exemplar) -> Value {
    let mut map = BTreeMap::new();
    map.insert("kind".to_owned(), Value::String(e.kind.to_owned()));
    map.insert("seq".to_owned(), Value::Number(e.seq as f64));
    if !e.code.is_empty() {
        map.insert("code".to_owned(), Value::String(e.code.clone()));
    }
    if e.trace_id != 0 {
        map.insert(
            "trace_id".to_owned(),
            Value::String(format_trace_id(e.trace_id)),
        );
    }
    let nums = |xs: &[u32]| Value::Array(xs.iter().map(|&v| Value::Number(f64::from(v))).collect());
    if !e.word.is_empty() {
        map.insert("word".to_owned(), nums(&e.word));
    }
    if !e.erasures.is_empty() {
        map.insert("erasures".to_owned(), nums(&e.erasures));
    }
    if !e.syndromes.is_empty() {
        map.insert("syndromes".to_owned(), nums(&e.syndromes));
    }
    if !e.verdicts.is_empty() {
        map.insert(
            "verdicts".to_owned(),
            Value::Array(
                e.verdicts
                    .iter()
                    .map(|v| Value::String(v.clone()))
                    .collect(),
            ),
        );
    }
    if !e.detail.is_empty() {
        map.insert("detail".to_owned(), Value::String(e.detail.clone()));
    }
    if !e.repro.is_empty() {
        map.insert("repro".to_owned(), Value::String(e.repro.clone()));
    }
    Value::Object(map)
}

/// Canonical-JSON document (schema [`SCHEMA`]); the encoded form is a
/// parse→encode fixed point like every other workspace JSON artifact.
pub fn to_json(snapshot: &Snapshot) -> Value {
    let mut map = BTreeMap::new();
    map.insert("schema".to_owned(), Value::String(SCHEMA.to_owned()));
    map.insert("epoch".to_owned(), Value::Number(snapshot.epoch as f64));
    map.insert("enabled".to_owned(), Value::Bool(snapshot.enabled));
    map.insert("dropped".to_owned(), Value::Number(snapshot.dropped as f64));
    map.insert("threads".to_owned(), Value::Number(snapshot.threads as f64));
    map.insert(
        "events".to_owned(),
        Value::Array(
            snapshot
                .events
                .iter()
                .map(|e| {
                    let mut ev = BTreeMap::new();
                    ev.insert("thread".to_owned(), Value::Number(f64::from(e.thread)));
                    ev.insert("seq".to_owned(), Value::Number(e.seq as f64));
                    ev.insert("kind".to_owned(), Value::String(e.kind.as_str().to_owned()));
                    ev.insert(
                        "target".to_owned(),
                        Value::String(snapshot.string(e.target).to_owned()),
                    );
                    ev.insert(
                        "name".to_owned(),
                        Value::String(snapshot.string(e.name).to_owned()),
                    );
                    ev.insert("ts_us".to_owned(), Value::Number(e.ts_us as f64));
                    if e.trace_id != 0 {
                        ev.insert(
                            "trace_id".to_owned(),
                            Value::String(format_trace_id(e.trace_id)),
                        );
                    }
                    ev.insert("a".to_owned(), Value::Number(e.a as f64));
                    ev.insert("b".to_owned(), Value::Number(e.b as f64));
                    Value::Object(ev)
                })
                .collect(),
        ),
    );
    map.insert(
        "exemplars".to_owned(),
        Value::Array(snapshot.exemplars.iter().map(exemplar_to_json).collect()),
    );
    map.insert(
        "exemplars_seen".to_owned(),
        Value::Object(
            snapshot
                .exemplars_seen
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                .collect(),
        ),
    );
    Value::Object(map)
}

/// Renders one exemplar as indented text (shared by the timeline and
/// the stress/sim divergence reports).
pub fn render_exemplar_text(e: &Exemplar) -> String {
    let mut out = String::new();
    let _ = write!(out, "[{}]", e.kind);
    if !e.code.is_empty() {
        let _ = write!(out, " {}", e.code);
    }
    if e.trace_id != 0 {
        let _ = write!(out, " trace={}", format_trace_id(e.trace_id));
    }
    if !e.detail.is_empty() {
        let _ = write!(out, " — {}", e.detail);
    }
    let _ = writeln!(out);
    if !e.word.is_empty() {
        let _ = writeln!(out, "  word:      {:?}", e.word);
    }
    if !e.erasures.is_empty() {
        let _ = writeln!(out, "  erasures:  {:?}", e.erasures);
    }
    if !e.syndromes.is_empty() {
        let _ = writeln!(out, "  syndromes: {:?}", e.syndromes);
    }
    for verdict in &e.verdicts {
        let _ = writeln!(out, "  verdict:   {verdict}");
    }
    if !e.repro.is_empty() {
        let _ = writeln!(out, "  reproduction (paste as a unit test):");
        for line in e.repro.lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out
}

/// Renders the snapshot as a trace-id-grouped timeline: one block per
/// trace (untraced events last), span open/close pairs indented as a
/// tree, exemplars appended.
pub fn render_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: epoch {}, {} event(s) on {} thread(s), {} dropped, {} exemplar(s)",
        snapshot.epoch,
        snapshot.events.len(),
        snapshot.threads,
        snapshot.dropped,
        snapshot.exemplars.len()
    );
    // Group by trace id, preserving first-appearance order; 0 (no
    // trace) sorts last.
    let mut traces: Vec<u64> = Vec::new();
    for e in &snapshot.events {
        if !traces.contains(&e.trace_id) {
            traces.push(e.trace_id);
        }
    }
    if let Some(pos) = traces.iter().position(|&t| t == 0) {
        traces.remove(pos);
        traces.push(0);
    }
    for trace in traces {
        let events: Vec<&SnapshotEvent> = snapshot
            .events
            .iter()
            .filter(|e| e.trace_id == trace)
            .collect();
        if trace == 0 {
            let _ = writeln!(out, "untraced ({} event(s))", events.len());
        } else {
            let _ = writeln!(
                out,
                "trace {} ({} event(s))",
                format_trace_id(trace),
                events.len()
            );
        }
        // Span nesting depth per thread within this trace.
        let mut depth: HashMap<u32, usize> = HashMap::new();
        for e in &events {
            let d = depth.entry(e.thread).or_insert(0);
            if e.kind == RecordKind::SpanClose {
                *d = d.saturating_sub(1);
            }
            let indent = "  ".repeat(*d + 1);
            let _ = write!(
                out,
                "{indent}[t{} +{}µs] {} {} {}",
                e.thread,
                e.ts_us,
                e.kind.as_str(),
                snapshot.string(e.target),
                snapshot.string(e.name)
            );
            match e.kind {
                RecordKind::SpanOpen => {
                    *d += 1;
                }
                RecordKind::SpanClose => {
                    let _ = write!(out, " ({}µs)", e.a);
                }
                _ => {
                    let _ = write!(out, " a={} b={}", e.a, e.b);
                }
            }
            let _ = writeln!(out);
        }
    }
    if !snapshot.exemplars.is_empty() {
        let _ = writeln!(out, "exemplars:");
        for e in &snapshot.exemplars {
            for line in render_exemplar_text(e).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::log::trace_scope;

    /// Serializes tests that touch the global recorder state (shares
    /// the log/profile test lock: spans feed all three systems).
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::log::test_env_lock()
    }

    fn fresh() {
        set_enabled(true);
        set_reservoir_seed(DEFAULT_RESERVOIR_SEED);
        let _ = snapshot_and_reset();
    }

    #[test]
    fn scoped_enables_are_reference_counted() {
        let _guard = env_lock();
        fresh();
        set_enabled(false);
        assert!(!enabled());
        let outer = enable_scoped();
        let inner = enable_scoped();
        assert!(enabled());
        drop(outer);
        assert!(enabled(), "recording must survive until the last scope");
        drop(inner);
        assert!(!enabled());
        // Scopes stack on top of a manual enable without clearing it.
        set_enabled(true);
        drop(enable_scoped());
        assert!(enabled());
        set_enabled(false);
    }

    #[test]
    fn disabled_hooks_record_nothing() {
        let _guard = env_lock();
        fresh();
        set_enabled(false);
        record_span_open("t", "n");
        record_event(RecordKind::Decode, "t", "n", 1, 2);
        assert!(!record_exemplar_with("decode-failure", Exemplar::default));
        let snap = snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.exemplars.is_empty());
        assert!(!snap.enabled);
    }

    #[test]
    fn records_round_trip_with_trace_ids() {
        let _guard = env_lock();
        fresh();
        {
            let _t = trace_scope(0xAB);
            record_span_open("code.decode", "word");
            record_event(RecordKind::Decode, "code.decode", "word", 2, 1);
            record_span_close("code.decode", "word", 17);
        }
        record_event(RecordKind::Arbiter, "sim.arbiter", "combine", 3, 0);
        let snap = snapshot_and_reset();
        set_enabled(false);
        let ours: Vec<&SnapshotEvent> = snap
            .events
            .iter()
            .filter(|e| {
                snap.string(e.target).starts_with("code.decode")
                    || snap.string(e.target).starts_with("sim.arbiter")
            })
            .collect();
        assert_eq!(ours.len(), 4);
        assert_eq!(ours[0].kind, RecordKind::SpanOpen);
        assert_eq!(ours[0].trace_id, 0xAB);
        assert_eq!(ours[2].kind, RecordKind::SpanClose);
        assert_eq!(ours[2].a, 17);
        assert_eq!(ours[3].trace_id, 0);
        // Sequence numbers strictly increase per thread.
        assert!(ours
            .windows(2)
            .all(|w| w[0].seq < w[1].seq || w[0].thread != w[1].thread));
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let _guard = env_lock();
        fresh();
        let extra = 40u64;
        for i in 0..(RING_CAPACITY as u64 + extra) {
            record_event(RecordKind::Decode, "wrap.test", "spin", i, !i);
        }
        let snap = snapshot_and_reset();
        set_enabled(false);
        let ours: Vec<&SnapshotEvent> = snap
            .events
            .iter()
            .filter(|e| snap.string(e.target) == "wrap.test")
            .collect();
        assert_eq!(ours.len(), RING_CAPACITY);
        // Oldest `extra` records were overwritten; the newest survive.
        assert_eq!(ours.first().unwrap().a, extra);
        assert_eq!(ours.last().unwrap().a, RING_CAPACITY as u64 + extra - 1);
        assert!(snap.dropped >= extra);
    }

    #[test]
    fn snapshot_during_wrap_sees_no_torn_records() {
        let _guard = env_lock();
        fresh();
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    // Invariant under test: b is always !a.
                    record_event(RecordKind::Decode, "tear.test", "spin", i, !i);
                    i += 1;
                }
            });
            for _ in 0..200 {
                let snap = snapshot();
                for e in snap
                    .events
                    .iter()
                    .filter(|e| snap.string(e.target) == "tear.test")
                {
                    assert_eq!(e.b, !e.a, "torn record at seq {}", e.seq);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        set_enabled(false);
        let _ = snapshot_and_reset();
    }

    #[test]
    fn reset_starts_a_new_epoch() {
        let _guard = env_lock();
        fresh();
        record_event(RecordKind::Decode, "epoch.test", "one", 1, 0);
        let first = snapshot_and_reset();
        let count = |s: &Snapshot| {
            s.events
                .iter()
                .filter(|e| s.string(e.target) == "epoch.test")
                .count()
        };
        assert_eq!(count(&first), 1);
        let second = snapshot();
        assert_eq!(count(&second), 0, "floor must exclude captured records");
        assert!(second.epoch > first.epoch);
        record_event(RecordKind::Decode, "epoch.test", "two", 2, 0);
        let third = snapshot();
        assert_eq!(count(&third), 1);
        set_enabled(false);
        let _ = snapshot_and_reset();
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic_under_a_pinned_seed() {
        let _guard = env_lock();
        let run = || {
            set_enabled(true);
            set_reservoir_seed(0xDA7E);
            let _ = snapshot_and_reset();
            for i in 0..500u32 {
                record_exemplar_with("miscorrection", || Exemplar {
                    detail: format!("case {i}"),
                    ..Exemplar::default()
                });
            }
            let snap = snapshot();
            set_enabled(false);
            let _ = snapshot_and_reset();
            snap
        };
        let a = run();
        let b = run();
        let kept: Vec<&str> = a.exemplars.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(a.exemplars.len(), EXEMPLARS_PER_KIND);
        assert_eq!(
            kept,
            b.exemplars
                .iter()
                .map(|e| e.detail.as_str())
                .collect::<Vec<_>>(),
            "pinned seed must make the sample deterministic"
        );
        // The sample is not just the first EXEMPLARS_PER_KIND offers.
        assert!(a
            .exemplars
            .iter()
            .any(|e| e.seq >= EXEMPLARS_PER_KIND as u64));
        assert_eq!(a.exemplars_seen, vec![("miscorrection".to_owned(), 500)]);
    }

    #[test]
    fn rare_kinds_survive_common_ones() {
        let _guard = env_lock();
        fresh();
        for _ in 0..10_000u32 {
            record_exemplar_with("decode-failure", Exemplar::default);
        }
        record_exemplar_with("panic", || Exemplar {
            detail: "the one panic".to_owned(),
            ..Exemplar::default()
        });
        let snap = snapshot_and_reset();
        set_enabled(false);
        assert!(
            snap.exemplars
                .iter()
                .any(|e| e.kind == "panic" && e.detail == "the one panic"),
            "per-kind reservoirs must keep rare kinds"
        );
        assert_eq!(
            snap.exemplars
                .iter()
                .filter(|e| e.kind == "decode-failure")
                .count(),
            EXEMPLARS_PER_KIND
        );
    }

    #[test]
    fn json_dump_is_canonical_and_carries_exemplar_forensics() {
        let _guard = env_lock();
        fresh();
        {
            let _t = trace_scope(0xC0FFEE);
            record_span_open("json.test", "work");
            record_exemplar_with("miscorrection", || Exemplar {
                code: "rs:15,9,4".to_owned(),
                word: vec![1, 2, 3],
                erasures: vec![7],
                syndromes: vec![9, 0],
                verdicts: vec!["sugiyama: Corrected(wrong)".to_owned()],
                detail: "beyond-bound".to_owned(),
                repro: "#[test]\nfn x() {}".to_owned(),
                ..Exemplar::default()
            });
            record_span_close("json.test", "work", 5);
        }
        let snap = snapshot_and_reset();
        set_enabled(false);
        let encoded = to_json(&snap).encode();
        let parsed = json::parse(&encoded).expect("valid JSON");
        assert_eq!(parsed.encode(), encoded, "parse→encode fixed point");
        assert!(encoded.contains("\"schema\":\"rsmem-trace/1\""));
        assert!(encoded.contains("\"kind\":\"miscorrection\""));
        assert!(encoded.contains("\"code\":\"rs:15,9,4\""));
        assert!(encoded.contains("\"syndromes\":[9,0]"));
        assert!(encoded.contains("\"trace_id\":\"0000000000c0ffee\""));
        let text = render_text(&snap);
        assert!(text.contains("trace 0000000000c0ffee"), "{text}");
        assert!(text.contains("exemplars:"), "{text}");
        assert!(text.contains("syndromes: [9, 0]"), "{text}");
    }

    #[test]
    fn text_timeline_nests_spans_under_their_trace() {
        let _guard = env_lock();
        fresh();
        {
            let _t = trace_scope(0x77);
            record_span_open("outer.target", "outer");
            record_span_open("inner.target", "inner");
            record_span_close("inner.target", "inner", 1);
            record_span_close("outer.target", "outer", 2);
        }
        let snap = snapshot_and_reset();
        set_enabled(false);
        let text = render_text(&snap);
        let outer_open = text
            .lines()
            .find(|l| l.contains("span_open outer.target"))
            .unwrap();
        let inner_open = text
            .lines()
            .find(|l| l.contains("span_open inner.target"))
            .unwrap();
        let outer_indent = outer_open.len() - outer_open.trim_start().len();
        let inner_indent = inner_open.len() - inner_open.trim_start().len();
        assert!(inner_indent > outer_indent, "{text}");
    }
}
