//! Spans, instant events, the bounded ring collector, and Chrome
//! `trace_event` export.
//!
//! ## Model
//!
//! A [`Tracer`] is a cheap (`Arc`) handle on a collector: a bounded ring
//! of finished [`TraceEvent`]s (oldest overwritten once full, with a
//! drop counter) plus the [`Clock`] that timestamps them. A [`Span`] is
//! an RAII guard: created with a start timestamp, recorded as one
//! *complete* event when dropped — which keeps the per-thread span
//! stack balanced even when the guarded code panics, because unwinding
//! runs the drop. Instant events ([`Tracer::instant`]) record a single
//! point in time.
//!
//! Nesting is tracked in a thread-local stack of `(tracer, span)` id
//! pairs: a new span's parent is the innermost live span *of the same
//! tracer* on this thread, so two tracers interleaved on one thread
//! never cross-link.
//!
//! ## The current tracer
//!
//! Library code deep in the engine should not thread a `Tracer` through
//! every signature. Instead, a caller that owns a tracer installs it
//! for a scope ([`set_current`], also RAII), and the free functions
//! [`span`] / [`instant`] attach to it — or no-op, at the cost of one
//! thread-local read, when no tracer is installed. This keeps the core
//! crates dependency-light and makes instrumentation free for callers
//! that never trace.
//!
//! ## Export
//!
//! [`chrome_json`] renders events in the Chrome `trace_event` JSON
//! format (`{"traceEvents":[...]}`, timestamps in microseconds), the
//! lingua franca of `chrome://tracing` and Perfetto. Span ids and
//! parent links ride along in `args`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::sync::lock_recover;

/// Default ring capacity (finished events retained).
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Event kind, mirroring the Chrome `trace_event` `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span with a duration (`ph:"X"`).
    Complete,
    /// A single point in time (`ph:"i"`).
    Instant,
}

/// One finished event in the ring.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span id, unique within the tracer (instants get ids too).
    pub id: u64,
    /// Id of the enclosing span of the same tracer on the same thread.
    pub parent: Option<u64>,
    /// Static name (`"dispatch"`, `"closure.assert"`, ...).
    pub name: &'static str,
    /// Complete span or instant.
    pub phase: Phase,
    /// Start timestamp from the tracer's [`Clock`].
    pub start_ns: u64,
    /// Duration (0 for instants).
    pub dur_ns: u64,
    /// Small per-thread label (threads are numbered in first-trace
    /// order, process-wide).
    pub tid: u64,
    /// Attached key/value arguments.
    pub args: Vec<(&'static str, String)>,
}

struct Inner {
    tracer_id: u64,
    clock: Arc<dyn Clock>,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    next_span: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
}

/// A handle on one collector; clones share the ring.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost-last stack of (tracer id, span id) for live spans.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Scoped current tracer (innermost last).
    static CURRENT: RefCell<Vec<Tracer>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

impl Tracer {
    /// A fresh, enabled tracer over `clock` retaining at most
    /// `capacity` finished events.
    pub fn new(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                capacity: capacity.max(1),
                // Preallocated so steady-state recording never grows
                // the buffer under the lock.
                ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, DEFAULT_CAPACITY))),
                next_span: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                enabled: AtomicBool::new(true),
            }),
        }
    }

    /// The clock events are timestamped with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Disable (or re-enable) collection; a disabled tracer hands out
    /// no-op spans.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Is collection on?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Open a span; it records itself when dropped.
    pub fn span(&self, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span::disabled();
        }
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tracer_id = self.inner.tracer_id;
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .iter()
                .rev()
                .find(|&&(t, _)| t == tracer_id)
                .map(|&(_, sp)| sp);
            s.push((tracer_id, id));
            parent
        });
        Span {
            tracer: Some(self.clone()),
            id,
            parent,
            name,
            start_ns: self.inner.clock.now_ns(),
            args: Vec::new(),
        }
    }

    /// Record an instant event.
    pub fn instant(&self, name: &'static str) {
        self.instant_with(name, Vec::new());
    }

    /// Record an instant event with one argument.
    pub fn instant_arg(&self, name: &'static str, key: &'static str, value: impl Into<String>) {
        self.instant_with(name, vec![(key, value.into())]);
    }

    fn instant_with(&self, name: &'static str, args: Vec<(&'static str, String)>) {
        if !self.is_enabled() {
            return;
        }
        let now = self.inner.clock.now_ns();
        self.record_finished(name, Phase::Instant, now, 0, args);
    }

    /// Record a complete span whose time was measured by the caller:
    /// work that ran in several pieces (one session's share of a log
    /// scan) and so could not sit under one [`Span`] guard. `dur_ns` is
    /// the sum of the pieces, `start_ns` when the first began.
    pub fn complete(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, String)>,
    ) {
        self.record_finished(name, Phase::Complete, start_ns, dur_ns, args);
    }

    fn record_finished(
        &self,
        name: &'static str,
        phase: Phase,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, String)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tracer_id = self.inner.tracer_id;
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(t, _)| t == tracer_id)
                .map(|&(_, sp)| sp)
        });
        self.record(TraceEvent {
            id,
            parent,
            name,
            phase,
            start_ns,
            dur_ns,
            tid: current_tid(),
            args,
        });
    }

    fn record(&self, event: TraceEvent) {
        let mut ring = lock_recover(&self.inner.ring);
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock_recover(&self.inner.ring).iter().cloned().collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner.ring).len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Drop all retained events (the drop counter is kept).
    pub fn clear(&self) {
        lock_recover(&self.inner.ring).clear();
    }

    /// All retained events as Chrome trace JSON.
    pub fn export_chrome(&self) -> String {
        chrome_json(&self.snapshot())
    }
}

/// RAII span guard from [`Tracer::span`] / [`span`]; records one
/// complete event on drop (including during unwinding, which is what
/// keeps the thread-local span stack balanced under panics).
pub struct Span {
    tracer: Option<Tracer>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// A span that records nothing (disabled tracer, or no current
    /// tracer installed).
    pub fn disabled() -> Span {
        Span {
            tracer: None,
            id: 0,
            parent: None,
            name: "",
            start_ns: 0,
            args: Vec::new(),
        }
    }

    /// Attach a key/value argument (exported under `args`).
    pub fn set_arg(&mut self, key: &'static str, value: impl Into<String>) {
        if self.tracer.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        let tracer_id = tracer.inner.tracer_id;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Spans drop LIFO except when tracers interleave, so the
            // top-of-stack check almost always hits.
            if s.last() == Some(&(tracer_id, self.id)) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&e| e == (tracer_id, self.id)) {
                s.remove(pos);
            }
        });
        let end = tracer.inner.clock.now_ns();
        tracer.record(TraceEvent {
            id: self.id,
            parent: self.parent,
            name: self.name,
            phase: Phase::Complete,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: current_tid(),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Guard from [`set_current`]; uninstalls the tracer on drop.
pub struct CurrentGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Install `tracer` as this thread's current tracer for the guard's
/// lifetime (nestable; innermost wins).
pub fn set_current(tracer: &Tracer) -> CurrentGuard {
    CURRENT.with(|c| c.borrow_mut().push(tracer.clone()));
    CurrentGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// This thread's current tracer, if one is installed.
pub fn current() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Open a span on the current tracer — a no-op span when none is
/// installed. This is the form library code uses.
pub fn span(name: &'static str) -> Span {
    match current() {
        Some(t) => t.span(name),
        None => Span::disabled(),
    }
}

/// Record an instant event on the current tracer, if any.
pub fn instant(name: &'static str) {
    if let Some(t) = current() {
        t.instant(name);
    }
}

/// Record a caller-timed complete span on the current tracer, if any
/// (see [`Tracer::complete`]).
pub fn complete(name: &'static str, start_ns: u64, dur_ns: u64, args: Vec<(&'static str, String)>) {
    if let Some(t) = current() {
        t.complete(name, start_ns, dur_ns, args);
    }
}

/// Render events as Chrome `trace_event` JSON
/// (`{"traceEvents":[...]}`; `ts`/`dur` in microseconds with
/// nanosecond precision kept as fractions).
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 112);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(&mut out, e.name);
        out.push_str(",\"cat\":\"sit\",\"ph\":");
        out.push_str(match e.phase {
            Phase::Complete => "\"X\"",
            Phase::Instant => "\"i\"",
        });
        out.push_str(",\"ts\":");
        push_us(&mut out, e.start_ns);
        if e.phase == Phase::Complete {
            out.push_str(",\"dur\":");
            push_us(&mut out, e.dur_ns);
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"args\":{\"id\":");
        out.push_str(&e.id.to_string());
        if let Some(parent) = e.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        for (k, v) in &e.args {
            out.push(',');
            escape_into(&mut out, k);
            out.push(':');
            escape_into(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Nanoseconds as a microsecond decimal (`1234` → `1.234`).
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1_000).to_string());
    out.push('.');
    let frac = ns % 1_000;
    out.push((b'0' + (frac / 100) as u8) as char);
    out.push((b'0' + (frac / 10 % 10) as u8) as char);
    out.push((b'0' + (frac % 10) as u8) as char);
}

/// JSON string literal with the escapes the in-tree wire parser
/// round-trips.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn manual_tracer(cap: usize) -> (Arc<ManualClock>, Tracer) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock.clone() as Arc<dyn Clock>, cap);
        (clock, tracer)
    }

    #[test]
    fn spans_nest_and_record_durations() {
        let (clock, tracer) = manual_tracer(16);
        {
            let mut outer = tracer.span("outer");
            outer.set_arg("k", "v");
            clock.advance_ns(1_000);
            {
                let _inner = tracer.span("inner");
                clock.advance_ns(500);
            }
            clock.advance_ns(250);
        }
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        // Inner finishes (and records) first.
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.start_ns, 1_000);
        assert_eq!(inner.dur_ns, 500);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.start_ns, 0);
        assert_eq!(outer.dur_ns, 1_750);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.args, vec![("k", "v".to_string())]);
    }

    #[test]
    fn instants_attach_to_the_enclosing_span() {
        let (_clock, tracer) = manual_tracer(16);
        {
            let _s = tracer.span("request");
            tracer.instant_arg("fault", "event", "read.split@7");
        }
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Phase::Instant);
        assert_eq!(events[0].parent, Some(events[1].id));
        assert_eq!(events[0].args[0].1, "read.split@7");
    }

    #[test]
    fn ring_bounds_retention_and_counts_drops() {
        let (_clock, tracer) = manual_tracer(4);
        for _ in 0..10 {
            tracer.instant("tick");
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        tracer.clear();
        assert!(tracer.is_empty());
        assert_eq!(tracer.dropped(), 6);
    }

    #[test]
    fn span_stack_balances_across_panics() {
        let (_clock, tracer) = manual_tracer(16);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            panic!("unwind through two live spans");
        }));
        assert!(result.is_err());
        // Both spans were recorded by their unwinding drops, and the
        // thread-local stack is balanced: a fresh span sees no parent.
        assert_eq!(tracer.len(), 2);
        drop(tracer.span("after"));
        let events = tracer.snapshot();
        let after = events.iter().find(|e| e.name == "after").unwrap();
        assert_eq!(after.parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let (_clock, tracer) = manual_tracer(16);
        tracer.set_enabled(false);
        drop(tracer.span("ignored"));
        tracer.instant("ignored");
        assert!(tracer.is_empty());
        tracer.set_enabled(true);
        drop(tracer.span("kept"));
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn current_tracer_is_scoped_and_optional() {
        // No tracer installed: free-function spans are no-ops.
        drop(span("orphan"));
        instant("orphan");
        let (_clock, tracer) = manual_tracer(16);
        {
            let _guard = set_current(&tracer);
            let _s = span("attached");
        }
        drop(span("after-scope"));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "attached");
    }

    #[test]
    fn interleaved_tracers_never_cross_link() {
        let (_ca, a) = manual_tracer(16);
        let (_cb, b) = manual_tracer(16);
        {
            let _sa = a.span("a-outer");
            let _sb = b.span("b-outer");
            let _sa2 = a.span("a-inner");
        }
        let ev_a = a.snapshot();
        let a_outer = ev_a.iter().find(|e| e.name == "a-outer").unwrap();
        let a_inner = ev_a.iter().find(|e| e.name == "a-inner").unwrap();
        // a-inner's parent is a-outer, not the (innermost) b-outer.
        assert_eq!(a_inner.parent, Some(a_outer.id));
        let ev_b = b.snapshot();
        assert_eq!(ev_b.len(), 1);
        assert_eq!(ev_b[0].parent, None);
    }

    #[test]
    fn chrome_json_shape() {
        let (clock, tracer) = manual_tracer(16);
        clock.advance_ns(1_234);
        {
            let mut s = tracer.span("with \"quotes\"\n");
            s.set_arg("op", "ping");
            clock.advance_ns(2_001);
        }
        let json = tracer.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.234"));
        assert!(json.contains("\"dur\":2.001"));
        assert!(json.contains("\\\"quotes\\\"\\n"));
        assert!(json.contains("\"op\":\"ping\""));
        // Empty export is still a valid document.
        assert_eq!(chrome_json(&[]), "{\"traceEvents\":[]}");
    }
}
