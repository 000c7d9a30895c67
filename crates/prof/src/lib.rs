//! `bm-prof`: wall-clock self-profiler for the simulator process.
//!
//! Every other observability layer in the workspace (telemetry spans,
//! metrics, SLO/blame) measures *simulated* time. This crate measures
//! where *host* time goes while the event loop runs: scoped timers
//! keyed by a hierarchical path (event kind → stage handler → scheme
//! effect) accumulating count/total-ns/max-ns per key, allocation
//! count/bytes attributed to the active scope (via [`alloc`]), and the
//! run's dispatch wall time and retired-event count (for an
//! events-per-second figure). [`report`] renders the result as a
//! folded stack (flamegraph.pl-compatible), a stable-schema JSON
//! report, or a top-k text table.
//!
//! # Determinism
//!
//! The profiler only ever *reads* the monotonic clock; nothing it
//! observes feeds back into scheduling, event ordering, or any model
//! state. A run with the profiler enabled therefore produces
//! byte-identical figures to a run without it — the property
//! `bmstore_cli prof --smoke` gates on. This crate (together with
//! `crates/bench`) is the sanctioned audit point for bm-lint's R1
//! wall-clock rule: everything else in the workspace reaches the host
//! clock through these two crates or not at all.
//!
//! # Cost model
//!
//! Reading the clock costs ~20 ns, which is the same order as a whole
//! simulator event, so timing every scope boundary of every event
//! would roughly double the run. Instead the profiler times every
//! `timing_stride`-th event dispatch at full scope resolution (scope
//! *counts* and allocation attribution stay exact on every event) and
//! scales the sampled nanoseconds to the exactly-measured run total at
//! export time, so the per-key ns in a report still sum to the
//! measured dispatch wall time. `max_ns` is the observed per-occurrence
//! maximum among timed dispatches and is reported unscaled.

#![deny(unsafe_code)]

pub mod alloc;
pub mod report;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// Every `DEFAULT_TIMING_STRIDE`-th event dispatch is timed at full
/// scope resolution; the rest only bump counts and allocation tallies.
pub const DEFAULT_TIMING_STRIDE: u64 = 8;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// The single sanctioned wall-clock read for harness code that must
/// measure host time (e.g. the profiler's own overhead test) without
/// spelling `Instant::now()` outside the R1-exempt crates.
pub fn monotonic_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const NONE: u32 = u32::MAX;
const ROOT: u32 = 0;

#[derive(Debug, Clone)]
struct Node {
    seg: &'static str,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    count: u64,
    timed_count: u64,
    self_ns: u64,
    total_ns: u64,
    max_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// Clock reading at the current entry, in a timed dispatch. A node
    /// is on the open path at most once (a path names one node), so
    /// the node itself holds it.
    enter_ns: u64,
}

impl Node {
    fn new(seg: &'static str, parent: u32) -> Node {
        Node {
            seg,
            parent,
            first_child: NONE,
            next_sibling: NONE,
            count: 0,
            timed_count: 0,
            self_ns: 0,
            total_ns: 0,
            max_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            enter_ns: 0,
        }
    }
}

/// Aggregated statistics for one scope path, scaled for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStat {
    /// Scope path segments, outermost first.
    pub path: Vec<String>,
    /// Times the scope was entered (exact; counted on every event).
    pub count: u64,
    /// Times the scope was entered during a timed dispatch.
    pub timed_count: u64,
    /// Self nanoseconds, scaled so all scopes sum to `total_run_ns`.
    pub self_ns: u64,
    /// Inclusive nanoseconds (self + children), same scaling.
    pub total_ns: u64,
    /// Largest single inclusive occurrence among timed dispatches (raw).
    pub max_ns: u64,
    /// Allocation events while this scope was innermost (exact).
    pub allocs: u64,
    /// Bytes requested while this scope was innermost (exact).
    pub alloc_bytes: u64,
}

impl ScopeStat {
    /// The folded-stack key: escaped segments joined with `;`.
    pub fn key(&self) -> String {
        let segs: Vec<String> = self.path.iter().map(|s| report::escape_seg(s)).collect();
        segs.join(";")
    }
}

/// An immutable end-of-run view of the profile, ready for [`report`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Total measured dispatch wall time (`run_begin` → `run_end`),
    /// summed over runs.
    pub total_run_ns: u64,
    /// Raw self-ns observed inside timed dispatches (pre-scaling).
    pub timed_self_ns: u64,
    /// The stride used: 1 = every dispatch timed.
    pub timing_stride: u64,
    /// Events retired by the scheduler, summed over runs.
    pub events: u64,
    /// Scope statistics in deterministic (path-sorted) order.
    pub scopes: Vec<ScopeStat>,
}

/// The profiler: an interned scope tree plus the run totals.
///
/// Scope boundaries are driven through [`ProfHandle`]; the tree lives
/// behind `Rc<RefCell<…>>` so guards can own a handle without tying
/// borrows to the world.
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<Node>,
    /// The innermost open scope; `ROOT` between dispatches.
    cursor: u32,
    timed: bool,
    dispatch_ix: u64,
    stride: u64,
    last_ns: u64,
    /// Whether this thread counted allocations at `run_begin`; if not,
    /// boundaries skip the allocation counters.
    count_allocs: bool,
    last_allocs: u64,
    last_bytes: u64,
    run_begin_ns: u64,
    total_run_ns: u64,
    events: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A profiler with the default stride.
    pub fn new() -> Profiler {
        Profiler::with_params(DEFAULT_TIMING_STRIDE)
    }

    /// A profiler timing every `stride`-th dispatch (min 1).
    pub fn with_params(stride: u64) -> Profiler {
        Profiler {
            nodes: vec![Node::new("run", NONE)],
            cursor: ROOT,
            timed: false,
            dispatch_ix: 0,
            stride: stride.max(1),
            last_ns: 0,
            count_allocs: false,
            last_allocs: 0,
            last_bytes: 0,
            run_begin_ns: 0,
            total_run_ns: 0,
            events: 0,
        }
    }

    /// Attribute allocation counters accumulated since the previous
    /// boundary to the currently-innermost scope. Cheap when nothing
    /// was allocated: one thread-local read.
    fn flush_allocs(&mut self) {
        if !self.count_allocs {
            return;
        }
        let events = alloc::events();
        if events == self.last_allocs {
            return;
        }
        let bytes = alloc::bytes();
        let node = &mut self.nodes[self.cursor as usize];
        node.allocs += events - self.last_allocs;
        node.alloc_bytes += bytes - self.last_bytes;
        self.last_allocs = events;
        self.last_bytes = bytes;
    }

    /// The child of `parent` named `seg`, interned on first use.
    /// Segments match by address and length, not content: a comparison
    /// of two integers per sibling instead of a string compare. Equal
    /// text at two addresses interns as two nodes, which
    /// [`Profiler::snapshot`] reports as one path.
    fn intern_child(&mut self, parent: u32, seg: &'static str) -> u32 {
        let nodes = self.nodes.as_slice();
        let mut cur = nodes[parent as usize].first_child;
        let mut prev = NONE;
        while cur != NONE {
            let n = &nodes[cur as usize];
            if std::ptr::eq(n.seg, seg) {
                return cur;
            }
            prev = cur;
            cur = n.next_sibling;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::new(seg, parent));
        if prev == NONE {
            self.nodes[parent as usize].first_child = id;
        } else {
            self.nodes[prev as usize].next_sibling = id;
        }
        id
    }

    /// Enters a scope. A depth-0 enter marks the start of one event
    /// dispatch and decides whether this dispatch is timed.
    pub fn enter(&mut self, seg: &'static str) {
        self.flush_allocs();
        if self.cursor == ROOT {
            self.timed = self.dispatch_ix.is_multiple_of(self.stride);
            self.dispatch_ix += 1;
            if self.timed {
                // The gap since the previous boundary is scheduler-pop
                // and untimed-dispatch time; it is deliberately left
                // unattributed (export scaling spreads it).
                self.last_ns = monotonic_ns();
            }
        } else if self.timed {
            let now = monotonic_ns();
            self.nodes[self.cursor as usize].self_ns += now - self.last_ns;
            self.last_ns = now;
        }
        let child = self.intern_child(self.cursor, seg);
        let node = &mut self.nodes[child as usize];
        node.count += 1;
        node.enter_ns = self.last_ns;
        self.cursor = child;
    }

    /// Exits the innermost scope. Unbalanced exits are ignored.
    pub fn exit(&mut self) {
        if self.cursor == ROOT {
            return;
        }
        self.flush_allocs();
        let node = &mut self.nodes[self.cursor as usize];
        if self.timed {
            let now = monotonic_ns();
            node.self_ns += now - self.last_ns;
            self.last_ns = now;
            let inclusive = now - node.enter_ns;
            node.timed_count += 1;
            node.total_ns += inclusive;
            node.max_ns = node.max_ns.max(inclusive);
        }
        self.cursor = node.parent;
    }

    /// Marks the start of an event-loop run: stamps the run origin.
    pub fn run_begin(&mut self) {
        self.run_begin_ns = monotonic_ns();
        self.last_ns = self.run_begin_ns;
        self.count_allocs = alloc::is_armed();
        self.last_allocs = alloc::events();
        self.last_bytes = alloc::bytes();
    }

    /// Marks the end of an event-loop run that retired `events_fired`
    /// events; accumulates the measured dispatch wall time and the
    /// event count.
    pub fn run_end(&mut self, events_fired: u64) {
        self.total_run_ns += monotonic_ns() - self.run_begin_ns;
        self.events += events_fired;
    }

    /// Events-per-second over the run, from the exact totals.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_run_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.total_run_ns as f64 / 1e9)
    }

    /// Builds the deterministic end-of-run view: scopes path-sorted,
    /// one entry per path, sampled nanoseconds scaled so self-ns sums
    /// to `total_run_ns`.
    pub fn snapshot(&self) -> Snapshot {
        let mut raw: Vec<(Vec<String>, &Node)> = Vec::new();
        let mut walk: Vec<(u32, Vec<String>)> = Vec::new();
        let mut child = self.nodes[ROOT as usize].first_child;
        while child != NONE {
            walk.push((child, vec![self.nodes[child as usize].seg.to_string()]));
            child = self.nodes[child as usize].next_sibling;
        }
        while let Some((id, path)) = walk.pop() {
            let node = &self.nodes[id as usize];
            let mut c = node.first_child;
            while c != NONE {
                let mut p = path.clone();
                p.push(self.nodes[c as usize].seg.to_string());
                walk.push((c, p));
                c = self.nodes[c as usize].next_sibling;
            }
            raw.push((path, node));
        }
        let timed_self_ns: u64 = raw.iter().map(|(_, n)| n.self_ns).sum();
        let scale = if timed_self_ns > 0 {
            self.total_run_ns as f64 / timed_self_ns as f64
        } else {
            1.0
        };
        let mut scopes: Vec<ScopeStat> = raw
            .into_iter()
            .map(|(path, n)| ScopeStat {
                path,
                count: n.count,
                timed_count: n.timed_count,
                self_ns: (n.self_ns as f64 * scale).round() as u64,
                total_ns: (n.total_ns as f64 * scale).round() as u64,
                max_ns: n.max_ns,
                allocs: n.allocs,
                alloc_bytes: n.alloc_bytes,
            })
            .collect();
        scopes.sort_by(|a, b| a.path.cmp(&b.path));
        // Equal text at two addresses interned as two nodes.
        scopes.dedup_by(|dup, kept| {
            if dup.path != kept.path {
                return false;
            }
            kept.count += dup.count;
            kept.timed_count += dup.timed_count;
            kept.self_ns += dup.self_ns;
            kept.total_ns += dup.total_ns;
            kept.max_ns = kept.max_ns.max(dup.max_ns);
            kept.allocs += dup.allocs;
            kept.alloc_bytes += dup.alloc_bytes;
            true
        });
        Snapshot {
            total_run_ns: self.total_run_ns,
            timed_self_ns,
            timing_stride: self.stride,
            events: self.events,
            scopes,
        }
    }
}

/// Shared, optionally-inert handle to a [`Profiler`] — same pattern as
/// the telemetry and metrics handles: a disabled handle is a no-op at
/// every call site, so the instrumented hot path stays branch-cheap.
#[derive(Debug, Clone, Default)]
pub struct ProfHandle(Option<Rc<RefCell<Profiler>>>);

impl ProfHandle {
    /// A live handle with default parameters.
    pub fn enabled() -> ProfHandle {
        ProfHandle(Some(Rc::new(RefCell::new(Profiler::new()))))
    }

    /// A live handle around a custom-configured profiler.
    pub fn from_profiler(p: Profiler) -> ProfHandle {
        ProfHandle(Some(Rc::new(RefCell::new(p))))
    }

    /// An inert handle: every operation is a no-op.
    pub fn disabled() -> ProfHandle {
        ProfHandle(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Enters `seg`, returning a guard that exits on drop. The guard
    /// owns its own handle clone, so it borrows nothing from the
    /// caller.
    #[must_use = "the scope ends when the guard drops"]
    pub fn scope(&self, seg: &'static str) -> Scope {
        if let Some(p) = &self.0 {
            p.borrow_mut().enter(seg);
        }
        Scope {
            inner: self.0.clone(),
        }
    }

    /// Enters `seg` without a guard — for straight-line hot paths
    /// where the matching [`ProfHandle::exit`] is guaranteed by
    /// control flow. Prefer [`ProfHandle::scope`] around anything with
    /// early returns.
    pub fn enter(&self, seg: &'static str) {
        if let Some(p) = &self.0 {
            p.borrow_mut().enter(seg);
        }
    }

    /// Exits the innermost scope; see [`ProfHandle::enter`].
    pub fn exit(&self) {
        if let Some(p) = &self.0 {
            p.borrow_mut().exit();
        }
    }

    /// See [`Profiler::run_begin`].
    pub fn run_begin(&self) {
        if let Some(p) = &self.0 {
            p.borrow_mut().run_begin();
        }
    }

    /// See [`Profiler::run_end`].
    pub fn run_end(&self, events_fired: u64) {
        if let Some(p) = &self.0 {
            p.borrow_mut().run_end(events_fired);
        }
    }

    /// Runs `f` against the profiler; `None` when disabled.
    pub fn read<R>(&self, f: impl FnOnce(&Profiler) -> R) -> Option<R> {
        self.0.as_ref().map(|p| f(&p.borrow()))
    }

    /// The end-of-run view; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.read(Profiler::snapshot)
    }
}

/// RAII scope guard returned by [`ProfHandle::scope`].
#[derive(Debug)]
pub struct Scope {
    inner: Option<Rc<RefCell<Profiler>>>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(p) = &self.inner {
            p.borrow_mut().exit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = monotonic_ns();
        while monotonic_ns() - start < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ProfHandle::disabled();
        assert!(!h.is_enabled());
        h.run_begin();
        {
            let _g = h.scope("stage");
            let _h = h.scope("inner");
        }
        h.run_end(1);
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn scope_tree_interns_paths_and_counts_exactly() {
        // Stride 1: every dispatch timed.
        let h = ProfHandle::from_profiler(Profiler::with_params(1));
        h.run_begin();
        for i in 0..10u64 {
            let _stage = h.scope("stage");
            let _kind = h.scope(if i % 2 == 0 { "Doorbell" } else { "Forward" });
            let _fx = h.scope("ScheduleAt");
            spin(2_000);
        }
        h.run_end(10);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.events, 10);
        let keys: Vec<String> = snap.scopes.iter().map(ScopeStat::key).collect();
        assert_eq!(
            keys,
            vec![
                "stage".to_string(),
                "stage;Doorbell".to_string(),
                "stage;Doorbell;ScheduleAt".to_string(),
                "stage;Forward".to_string(),
                "stage;Forward;ScheduleAt".to_string(),
            ],
            "deterministic path-sorted order"
        );
        let stage = &snap.scopes[0];
        assert_eq!(stage.count, 10);
        assert_eq!(stage.timed_count, 10);
        let doorbell = &snap.scopes[1];
        assert_eq!(doorbell.count, 5);
        // Inclusive time nests: stage >= Doorbell >= Doorbell;ScheduleAt.
        assert!(stage.total_ns >= doorbell.total_ns);
        assert!(doorbell.total_ns >= snap.scopes[2].total_ns);
        assert!(doorbell.max_ns > 0);
    }

    #[test]
    fn scaled_self_ns_sums_to_total_run_ns() {
        let h = ProfHandle::from_profiler(Profiler::with_params(3));
        h.run_begin();
        for _ in 0..30u64 {
            let _stage = h.scope("stage");
            let _fx = h.scope("effect");
            spin(1_000);
        }
        h.run_end(30);
        let snap = h.snapshot().unwrap();
        assert!(snap.total_run_ns > 0);
        assert!(snap.timed_self_ns > 0);
        let sum: u64 = snap.scopes.iter().map(|s| s.self_ns).sum();
        let total = snap.total_run_ns;
        // Rounding error only: one ns per scope at most.
        let slack = snap.scopes.len() as u64 + 1;
        assert!(
            sum.abs_diff(total) <= slack,
            "scaled self-ns {sum} vs run total {total}"
        );
    }

    #[test]
    fn children_match_by_address_and_length_and_report_by_text() {
        let leak = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
        let (stage_a, stage_b) = (leak("stage"), leak("stage"));
        // `fx` and `fxy` share an address; `fy` has `fx`'s length.
        let fxy = leak("fxy");
        let (fx_a, fx_b, fy) = (&fxy[..2], leak("fx"), leak("fy"));
        assert!(!std::ptr::eq(stage_a, stage_b));
        let h = ProfHandle::from_profiler(Profiler::with_params(1));
        h.run_begin();
        for (stage, fx) in [(stage_a, fx_a), (stage_b, fx_b), (stage_a, fx_b)] {
            let _stage = h.scope(stage);
            let _fx = h.scope(fx);
        }
        // A fourth dispatch enters `fy` and `fxy` under `stage_a`,
        // beside `fx_a`.
        h.enter(stage_a);
        for seg in [fy, fxy] {
            h.enter(seg);
            h.exit();
        }
        h.exit();
        h.run_end(4);
        let snap = h.snapshot().unwrap();
        let stats: Vec<(String, u64, u64)> = snap
            .scopes
            .iter()
            .map(|s| (s.key(), s.count, s.timed_count))
            .collect();
        let want = [
            ("stage", 4),
            ("stage;fx", 3),
            ("stage;fxy", 1),
            ("stage;fy", 1),
        ];
        let want: Vec<(String, u64, u64)> =
            want.iter().map(|&(k, n)| (k.to_string(), n, n)).collect();
        assert_eq!(stats, want);
    }

    #[test]
    fn untimed_dispatches_still_count() {
        let h = ProfHandle::from_profiler(Profiler::with_params(1000));
        h.run_begin();
        for _ in 0..10u64 {
            let _g = h.scope("stage");
        }
        h.run_end(10);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.scopes[0].count, 10);
        assert_eq!(snap.scopes[0].timed_count, 1, "only dispatch 0 timed");
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let h = ProfHandle::enabled();
        h.read(|_| ()).unwrap();
        if let Some(p) = &h.0 {
            p.borrow_mut().exit();
            p.borrow_mut().enter("stage");
            p.borrow_mut().exit();
            p.borrow_mut().exit();
        }
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.scopes.len(), 1);
        assert_eq!(snap.scopes[0].count, 1);
    }
}
