//! Hierarchical self-profiler aggregating the span stream.
//!
//! Every [`crate::log::span`] is also a profiler probe: when profiling
//! is enabled (independently of logging), span entry/exit updates a
//! global call tree keyed by `(parent, target, name)` — call count,
//! total wall time and a fixed-bound latency histogram per node. Self
//! time is derived at snapshot time as `total − Σ children.total`
//! (clamped at zero: children running on parallel workers can overlap,
//! so the sum may legitimately exceed the serial parent's wall time).
//!
//! The disabled path is one relaxed atomic load and **zero heap
//! allocations** — the same contract the event pipeline proves in the
//! crate's `alloc_count` test.
//!
//! ## Thread awareness
//!
//! The "current node" lives in a thread-local, exactly like trace IDs.
//! Worker pools (`rsmem::Parallelism::map`, `run_sharded`) capture
//! [`current_node`] on the spawning thread and re-establish it inside
//! each worker with [`attach_scope`], so spans opened on workers attach
//! under the span that spawned them instead of dangling at the root.
//!
//! ## Snapshot / reset
//!
//! [`snapshot`] clones the aggregated tree (text, canonical-JSON and
//! Prometheus-summary renders); [`reset`] zeroes the statistics but
//! keeps the node tree and index intact so node IDs held by in-flight
//! spans (e.g. a request racing a `/debug/profile?reset=1`) stay valid.

use crate::json::Value;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Upper bounds (µs, inclusive) of the latency histogram buckets; one
/// implicit `+Inf` bucket follows. Spans here range from a single
/// `decode` (~µs) to a whole figure regeneration (~s).
const BOUNDS_US: [u64; 8] = [
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Bucket count: one per bound plus the `+Inf` overflow bucket.
const BUCKETS: usize = BOUNDS_US.len() + 1;

/// The single fast gate — `false` means [`enter`] returns immediately.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One aggregated call-tree node.
struct Node {
    target: &'static str,
    name: &'static str,
    children: Vec<u32>,
    count: u64,
    total_us: u64,
    hist: [u64; BUCKETS],
}

impl Node {
    fn new(target: &'static str, name: &'static str) -> Node {
        Node {
            target,
            name,
            children: Vec::new(),
            count: 0,
            total_us: 0,
            hist: [0; BUCKETS],
        }
    }
}

/// The aggregated call tree. Node `0` is a synthetic root that never
/// accumulates stats; real spans hang off it.
struct Tree {
    nodes: Vec<Node>,
    index: HashMap<(u32, &'static str, &'static str), u32>,
}

impl Tree {
    fn intern(&mut self, parent: u32, target: &'static str, name: &'static str) -> u32 {
        if let Some(&id) = self.index.get(&(parent, target, name)) {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("profile tree node overflow");
        self.nodes.push(Node::new(target, name));
        self.nodes[parent as usize].children.push(id);
        self.index.insert((parent, target, name), id);
        id
    }
}

fn lock_tree() -> MutexGuard<'static, Tree> {
    use std::sync::OnceLock;
    static TREE: OnceLock<Mutex<Tree>> = OnceLock::new();
    TREE.get_or_init(|| {
        Mutex::new(Tree {
            nodes: vec![Node::new("", "root")],
            index: HashMap::new(),
        })
    })
    .lock()
    .unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The node id spans opened on this thread attach under; `0` = root.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Turns the profiler on or off. Off (the default) restores the
/// zero-cost path; the accumulated tree is kept until [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when spans are currently being aggregated.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open profiler frame; returned by [`enter`], closed by [`exit`].
#[derive(Clone, Copy)]
pub(crate) struct Frame {
    node: u32,
    prev: u32,
}

/// Registers span entry. Returns `None` (after exactly one relaxed
/// atomic load, no allocation) when profiling is off.
pub(crate) fn enter(target: &'static str, name: &'static str) -> Option<Frame> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let prev = CURRENT.with(Cell::get);
    let node = lock_tree().intern(prev, target, name);
    CURRENT.with(|c| c.set(node));
    Some(Frame { node, prev })
}

/// Registers span exit with its measured wall time.
pub(crate) fn exit(frame: Frame, elapsed_us: u64) {
    CURRENT.with(|c| c.set(frame.prev));
    let mut tree = lock_tree();
    let node = &mut tree.nodes[frame.node as usize];
    node.count += 1;
    node.total_us = node.total_us.saturating_add(elapsed_us);
    let bucket = BOUNDS_US
        .iter()
        .position(|&b| elapsed_us <= b)
        .unwrap_or(BUCKETS - 1);
    node.hist[bucket] += 1;
}

/// The profiler node active on this thread (the attachment point for
/// new spans). Worker pools capture this before spawning.
pub fn current_node() -> u32 {
    CURRENT.with(Cell::get)
}

/// Restores the previous current node when dropped.
pub struct NodeGuard {
    previous: u32,
}

/// Sets this thread's current profiler node for the guard's lifetime.
/// Thread pools call this inside each worker with the node captured via
/// [`current_node`] on the spawning thread, so worker spans nest under
/// the span that fanned them out.
pub fn attach_scope(node: u32) -> NodeGuard {
    let previous = CURRENT.with(|c| c.replace(node));
    NodeGuard { previous }
}

impl Drop for NodeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Zeroes all statistics. The node tree and index survive, so node IDs
/// held by spans still in flight remain valid and their exits land in
/// the (freshly zeroed) same nodes.
pub fn reset() {
    let mut tree = lock_tree();
    for node in &mut tree.nodes {
        node.count = 0;
        node.total_us = 0;
        node.hist = [0; BUCKETS];
    }
}

/// One node of a [`Snapshot`]: aggregated stats plus derived self time.
#[derive(Debug, Clone)]
pub struct SnapNode {
    /// Span target (module-ish dotted path).
    pub target: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Completed calls.
    pub count: u64,
    /// Summed wall time of completed calls, µs.
    pub total_us: u64,
    /// `total_us − Σ children.total_us`, clamped at zero (parallel
    /// children overlap, so the sum can exceed a serial parent).
    pub self_us: u64,
    /// Latency histogram; `hist[i]` counts calls with
    /// `elapsed ≤ BOUNDS_US[i]` (last bucket = `+Inf`).
    pub hist: [u64; BUCKETS],
    /// Child nodes, sorted by `total_us` descending.
    pub children: Vec<SnapNode>,
}

/// An immutable copy of the aggregated call tree.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Top-level spans (children of the synthetic root), sorted by
    /// `total_us` descending.
    pub roots: Vec<SnapNode>,
}

fn build_snapshot(tree: &Tree) -> Snapshot {
    fn build(tree: &Tree, id: u32) -> SnapNode {
        let node = &tree.nodes[id as usize];
        let mut children: Vec<SnapNode> = node.children.iter().map(|&c| build(tree, c)).collect();
        children.sort_by_key(|c| std::cmp::Reverse(c.total_us));
        let child_total: u64 = children.iter().map(|c| c.total_us).sum();
        SnapNode {
            target: node.target,
            name: node.name,
            count: node.count,
            total_us: node.total_us,
            self_us: node.total_us.saturating_sub(child_total),
            hist: node.hist,
            children,
        }
    }
    let mut roots: Vec<SnapNode> = tree.nodes[0]
        .children
        .clone()
        .into_iter()
        .map(|c| build(tree, c))
        .collect();
    roots.sort_by_key(|r| std::cmp::Reverse(r.total_us));
    Snapshot { roots }
}

/// Clones the current aggregated tree. Nodes with zero completed calls
/// (and no active descendants) are kept — they show interned-but-reset
/// call sites, which is harmless and keeps IDs stable.
pub fn snapshot() -> Snapshot {
    build_snapshot(&lock_tree())
}

/// [`snapshot`] followed by [`reset`] under one lock acquisition — the
/// `/debug/profile?reset=1` semantics: no window where a span exit is
/// counted in neither the snapshot nor the fresh epoch.
pub fn snapshot_and_reset() -> Snapshot {
    let mut tree = lock_tree();
    let snap = build_snapshot(&tree);
    for node in &mut tree.nodes {
        node.count = 0;
        node.total_us = 0;
        node.hist = [0; BUCKETS];
    }
    snap
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

impl Snapshot {
    /// Summed wall time of the top-level spans, µs — the denominator
    /// for "how much of the run is attributed to named spans".
    pub fn root_total_us(&self) -> u64 {
        self.roots.iter().map(|r| r.total_us).sum()
    }

    /// True when no span has completed since the last reset.
    pub fn is_empty(&self) -> bool {
        fn any_count(n: &SnapNode) -> bool {
            n.count > 0 || n.children.iter().any(any_count)
        }
        !self.roots.iter().any(any_count)
    }

    /// Human-readable call-tree report, one node per line, children
    /// indented and sorted by total time descending.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} root span(s), {} attributed",
            self.roots.len(),
            fmt_us(self.root_total_us())
        );
        fn emit(out: &mut String, node: &SnapNode, depth: usize) {
            let indent = "  ".repeat(depth);
            let _ = writeln!(
                out,
                "{indent}{}.{}  calls={} total={} self={}",
                node.target,
                node.name,
                node.count,
                fmt_us(node.total_us),
                fmt_us(node.self_us)
            );
            for child in &node.children {
                emit(out, child, depth + 1);
            }
        }
        for root in &self.roots {
            emit(&mut out, root, 1);
        }
        out
    }

    /// Canonical-JSON document (schema `rsmem-profile/1`); the encoded
    /// form is a parse→encode fixed point like every obs JSON artifact.
    pub fn to_json(&self) -> Value {
        fn node_json(node: &SnapNode) -> Value {
            let mut map = BTreeMap::new();
            map.insert("target".to_owned(), Value::String(node.target.to_owned()));
            map.insert("name".to_owned(), Value::String(node.name.to_owned()));
            map.insert("count".to_owned(), Value::Number(node.count as f64));
            map.insert("total_us".to_owned(), Value::Number(node.total_us as f64));
            map.insert("self_us".to_owned(), Value::Number(node.self_us as f64));
            map.insert(
                "hist".to_owned(),
                Value::Array(node.hist.iter().map(|&c| Value::Number(c as f64)).collect()),
            );
            map.insert(
                "children".to_owned(),
                Value::Array(node.children.iter().map(node_json).collect()),
            );
            Value::Object(map)
        }
        let mut map = BTreeMap::new();
        map.insert(
            "schema".to_owned(),
            Value::String("rsmem-profile/1".to_owned()),
        );
        map.insert(
            "bounds_us".to_owned(),
            Value::Array(BOUNDS_US.iter().map(|&b| Value::Number(b as f64)).collect()),
        );
        map.insert(
            "spans".to_owned(),
            Value::Array(self.roots.iter().map(node_json).collect()),
        );
        Value::Object(map)
    }

    /// Prometheus summary series aggregated per `(target, name)` across
    /// all tree positions — suitable for appending to a `/metrics` body.
    pub fn render_prometheus(&self) -> String {
        let mut agg: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
        fn walk(node: &SnapNode, agg: &mut BTreeMap<(&'static str, &'static str), (u64, u64)>) {
            let entry = agg.entry((node.target, node.name)).or_insert((0, 0));
            entry.0 += node.count;
            entry.1 = entry.1.saturating_add(node.total_us);
            for child in &node.children {
                walk(child, agg);
            }
        }
        for root in &self.roots {
            walk(root, &mut agg);
        }
        let mut out = String::new();
        if agg.is_empty() {
            return out;
        }
        out.push_str("# HELP rsmem_profile_span_us Aggregated span wall time by name.\n");
        out.push_str("# TYPE rsmem_profile_span_us summary\n");
        for ((target, name), (count, total)) in &agg {
            let t = crate::metrics::escape_label_value(target);
            let n = crate::metrics::escape_label_value(name);
            let _ = writeln!(
                out,
                "rsmem_profile_span_us_sum{{name=\"{n}\",target=\"{t}\"}} {total}"
            );
            let _ = writeln!(
                out,
                "rsmem_profile_span_us_count{{name=\"{n}\",target=\"{t}\"}} {count}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::log::{span, Level};

    /// Serializes tests that touch the global profiler (and logging)
    /// state.
    fn profile_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::log::test_env_lock()
    }

    fn clean() {
        set_enabled(false);
        reset();
    }

    fn find<'a>(nodes: &'a [SnapNode], name: &str) -> Option<&'a SnapNode> {
        nodes.iter().find(|n| n.name == name)
    }

    #[test]
    fn disabled_enter_returns_none() {
        let _guard = profile_lock();
        clean();
        assert!(enter("t", "n").is_none());
        assert!(!is_enabled());
    }

    #[test]
    fn spans_build_a_tree_with_counts_and_self_time() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _outer = span("test.profile", "outer");
            for _ in 0..3 {
                let _inner = span("test.profile", "inner");
            }
        }
        let snap = snapshot_and_reset();
        clean();
        let outer = find(&snap.roots, "outer").expect("outer root");
        assert_eq!(outer.count, 1);
        let inner = find(&outer.children, "inner").expect("inner child");
        assert_eq!(inner.count, 3);
        assert_eq!(inner.hist.iter().sum::<u64>(), 3);
        assert!(outer.total_us >= inner.total_us);
        assert_eq!(outer.self_us, outer.total_us - inner.total_us);
    }

    #[test]
    fn same_name_under_different_parents_gets_distinct_nodes() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _a = span("test.profile", "parent_a");
            let _w = span("test.profile", "work");
        }
        {
            let _b = span("test.profile", "parent_b");
            let _w = span("test.profile", "work");
        }
        let snap = snapshot_and_reset();
        clean();
        let a = find(&snap.roots, "parent_a").unwrap();
        let b = find(&snap.roots, "parent_b").unwrap();
        assert_eq!(find(&a.children, "work").unwrap().count, 1);
        assert_eq!(find(&b.children, "work").unwrap().count, 1);
    }

    #[test]
    fn attach_scope_nests_worker_spans_under_captured_node() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _outer = span("test.profile", "spawn_site");
            let node = current_node();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _scope = attach_scope(node);
                    let _w = span("test.profile", "worker_task");
                });
            });
        }
        let snap = snapshot_and_reset();
        clean();
        let outer = find(&snap.roots, "spawn_site").expect("spawn_site root");
        assert!(
            find(&outer.children, "worker_task").is_some(),
            "worker span must nest under the captured node, tree: {:?}",
            snap.roots
        );
        assert!(find(&snap.roots, "worker_task").is_none());
    }

    #[test]
    fn reset_keeps_tree_and_zeroes_stats() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _s = span("test.profile", "epoch_one");
        }
        // Hold a frame across the reset: its exit must still land.
        let frame = enter("test.profile", "in_flight").expect("enabled");
        reset();
        exit(frame, 42);
        let snap = snapshot_and_reset();
        clean();
        let epoch = find(&snap.roots, "epoch_one").expect("node survives reset");
        assert_eq!(epoch.count, 0, "stats zeroed");
        let inflight = find(&snap.roots, "in_flight").expect("in-flight node");
        assert_eq!(inflight.count, 1);
        assert_eq!(inflight.total_us, 42);
    }

    #[test]
    fn snapshot_json_is_canonical_fixed_point() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _s = span("test.profile", "json_case");
            let _c = span("test.profile", "child");
        }
        let snap = snapshot_and_reset();
        clean();
        let encoded = snap.to_json().encode();
        let reparsed = json::parse(&encoded).expect("valid JSON");
        assert_eq!(reparsed.encode(), encoded, "parse→encode fixed point");
        assert!(encoded.contains("\"schema\":\"rsmem-profile/1\""));
        assert!(encoded.contains("\"bounds_us\""));
    }

    #[test]
    fn prometheus_render_merges_positions_by_name() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        {
            let _a = span("test.profile", "prom_parent");
            let _w = span("test.profile", "prom_work");
        }
        {
            let _w = span("test.profile", "prom_work");
        }
        let snap = snapshot_and_reset();
        clean();
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE rsmem_profile_span_us summary"));
        assert!(text
            .contains("rsmem_profile_span_us_count{name=\"prom_work\",target=\"test.profile\"} 2"));
    }

    #[test]
    fn histogram_buckets_by_elapsed() {
        let _guard = profile_lock();
        clean();
        set_enabled(true);
        let f = enter("test.profile", "hist_case").unwrap();
        exit(f, 5); // ≤ 10µs bucket
        let f = enter("test.profile", "hist_case").unwrap();
        exit(f, 50_000); // ≤ 100ms bucket
        let f = enter("test.profile", "hist_case").unwrap();
        exit(f, u64::MAX); // +Inf bucket
        let snap = snapshot_and_reset();
        clean();
        let node = find(&snap.roots, "hist_case").unwrap();
        assert_eq!(node.hist[0], 1);
        assert_eq!(node.hist[4], 1);
        assert_eq!(node.hist[BUCKETS - 1], 1);
    }

    #[test]
    fn profile_only_span_does_not_log() {
        let _guard = profile_lock();
        clean();
        // Logging stays off; profiling on. The span must aggregate but
        // report inactive (so callers skip expensive field computation).
        set_enabled(true);
        {
            let mut s = crate::log::span_at(Level::Debug, "test.profile", "quiet");
            assert!(!s.active(), "profile-only span is not a log emitter");
            s.record("ignored", 1u64);
        }
        let snap = snapshot_and_reset();
        clean();
        assert_eq!(find(&snap.roots, "quiet").unwrap().count, 1);
    }
}
