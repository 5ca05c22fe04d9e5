//! Structured tracing: request-scoped spans, a flight-recorder ring buffer, and
//! Chrome-trace/summary exporters.
//!
//! Aggregate metrics (the rest of this crate) answer "how is the fleet doing?";
//! tracing answers "where did *this* request's time go?".  The design is layered on
//! the registry idioms — zero dependencies, lock-free writers, deterministic
//! exports — and obeys the same contract: tracing never changes what a run
//! produces, only what it reports.
//!
//! # Model
//!
//! * A **span** is one timed region of one request: a site name (interned to a
//!   `u32` id), a start offset and duration in monotonic nanoseconds since the
//!   process trace epoch, a small `u64` argument, and its position in a tree
//!   (`trace_id`, `span_id`, `parent_id`).
//! * Spans nest through an implicit per-thread **span stack**: [`RootSpan`] opens
//!   a request-scoped trace, [`Span`] guards opened underneath it become children
//!   of whatever is innermost, and everything is RAII — no context threading by
//!   hand.  (See the [`crate::root_span!`] and [`crate::span!`] macros.)
//! * The span stack has two readers.  Each frame holds a site id, which the
//!   wall-clock sampler in [`crate::profile`] copies from another thread, and
//!   the span id the tracer links children to.  Every guard opened while
//!   tracing or the profiler is on pushes and pops it exactly once.
//! * Completed traces are committed to the **flight recorder**: per-thread
//!   fixed-capacity ring buffers ([`RING_CAPACITY`] records each) that the owning
//!   thread writes without locks and any thread snapshots via [`recent_spans`].
//!   Memory is bounded; old records are overwritten, never reallocated.
//! * **Sampling** is deterministic: a request is traced iff
//!   `mix64(seed) % sample_every == 0`, where `seed` is a caller-supplied request
//!   ordinal — no wall-clock, no RNG, so a given corpus samples the same requests
//!   on every run and byte-determinism of anything derived from inputs survives.
//! * The **slow-request log**: when a slow threshold is configured, every root is
//!   provisionally traced and any root whose duration reaches the threshold is
//!   committed with its full subtree — even if sampling would have skipped it —
//!   and flagged [`FLAG_SLOW`].
//!
//! # Determinism and cost
//!
//! Tracing is disabled until [`configure`] turns it on; a disabled [`Span`]
//! creation is one relaxed atomic load.  Active spans cost two `Instant::now`
//! calls, a thread-local vector push and a span-stack push.  Nothing here feeds
//! back into scheduling, and exporters iterate sorted data, so exports are
//! deterministic given the same records.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Records each per-thread ring buffer holds before overwriting the oldest.
pub const RING_CAPACITY: usize = 4096;

/// Hard cap on spans buffered inside one in-flight trace (runaway-recursion guard):
/// spans opened beyond this are dropped and counted in `trace.spans.truncated`.
pub const MAX_SPANS_PER_TRACE: usize = 8192;

/// Flag bit set on a root span that was force-retained by the slow-request log.
pub const FLAG_SLOW: u16 = 1;

const WORDS: usize = 8;

/// `1/N` sampling rate: trace a root iff `mix64(seed) % N == 0` (`0` = never).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
/// Slow-request threshold in nanoseconds (`0` = no slow log).
static SLOW_NS: AtomicU64 = AtomicU64::new(0);
/// Fast-path gate bitmask ([`GATE_TRACE`] | [`GATE_PROFILE`]): the disabled
/// span path is still one relaxed load covering both consumers.
static GATES: AtomicU64 = AtomicU64::new(0);
/// Process-global span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Gate bit: tracing is configured (sampling or the slow log is on).
const GATE_TRACE: u64 = 1;
/// Gate bit: the wall-clock profiler is armed and reads the span stacks.
const GATE_PROFILE: u64 = 2;

#[inline]
fn gates() -> u64 {
    GATES.load(Ordering::Relaxed)
}

/// Configures tracing process-wide.
///
/// `sample_every` is the `1/N` sampling rate (`0` disables sampling);
/// `slow_threshold_ns` force-retains any root at least that slow (`0` disables the
/// slow log).  Tracing is active iff either is non-zero.  Also pins the trace
/// epoch, so spans recorded after configuration have non-negative offsets.
pub fn configure(sample_every: u64, slow_threshold_ns: u64) {
    epoch();
    SAMPLE_EVERY.store(sample_every, Ordering::Relaxed);
    SLOW_NS.store(slow_threshold_ns, Ordering::Relaxed);
    let on = sample_every > 0 || slow_threshold_ns > 0;
    if on {
        GATES.fetch_or(GATE_TRACE, Ordering::Relaxed);
    } else {
        GATES.fetch_and(!GATE_TRACE, Ordering::Relaxed);
    }
}

/// Opens or closes the profiler gate bit (called by [`crate::profile::arm`] /
/// [`crate::profile::disarm`]); orthogonal to [`configure`].
pub(crate) fn set_profile_gate(on: bool) {
    if on {
        epoch();
        GATES.fetch_or(GATE_PROFILE, Ordering::Relaxed);
    } else {
        GATES.fetch_and(!GATE_PROFILE, Ordering::Relaxed);
    }
}

/// The configured `1/N` sampling rate (`0` = sampling off).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// The configured slow-request threshold in nanoseconds (`0` = slow log off).
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// Whether tracing is configured on (the disabled-span fast path: one relaxed load).
#[inline]
pub fn tracing_configured() -> bool {
    gates() & GATE_TRACE != 0
}

/// Whether *any* span consumer is live — tracing configured or the profiler
/// armed.  This is the gate the [`crate::span!`] / [`crate::root_span!`]
/// macros check: still one relaxed load on the all-off fast path.
#[inline]
pub fn instrumented() -> bool {
    gates() != 0
}

/// SplitMix64 finalizer: the deterministic sampling hash.
///
/// Bijective over `u64`, so distinct seeds (request ordinals) never collide, and
/// well mixed, so `mix64(seed) % N` samples uniformly even for sequential seeds.
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the root with sampling seed `seed` is selected at the current rate.
pub fn sampled(seed: u64) -> bool {
    let every = sample_every();
    every > 0 && mix64(seed).is_multiple_of(every)
}

/// The process trace epoch: all span offsets are nanoseconds since this instant.
/// Shared with the event log and the health evaluator so every observability
/// timestamp in the process measures from the same zero.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn since_epoch_ns(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Site interning
// ---------------------------------------------------------------------------

struct SiteTable {
    by_name: BTreeMap<String, u32>,
    names: Vec<String>,
}

static SITES: Mutex<SiteTable> = Mutex::new(SiteTable {
    by_name: BTreeMap::new(),
    names: Vec::new(),
});

/// Interns `name` (a dotted site path like `"serve.request"`) to a stable `u32` id.
///
/// Call sites cache the id (the [`crate::span!`] macro does this in a `OnceLock`),
/// so the short mutex here is paid once per site, not per span.
pub fn site_id(name: &str) -> u32 {
    let mut table = SITES.lock().expect("trace site table poisoned");
    if let Some(&id) = table.by_name.get(name) {
        return id;
    }
    let id = table.names.len() as u32;
    table.names.push(name.to_string());
    table.by_name.insert(name.to_string(), id);
    id
}

/// The name interned under `id` (`"?"` if the id was never issued).
pub fn site_name(id: u32) -> String {
    let table = SITES.lock().expect("trace site table poisoned");
    table
        .names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "?".to_string())
}

// ---------------------------------------------------------------------------
// Records and the flight-recorder ring
// ---------------------------------------------------------------------------

/// One completed span, as stored in (and drained from) the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace (request) this span belongs to; deterministic for a given seed.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// The enclosing span's id (`0` for a trace root).
    pub parent_id: u64,
    /// Interned site id (resolve with [`site_name`]).
    pub site: u32,
    /// Flight-recorder lane (the committing thread's ring index).
    pub lane: u16,
    /// Flag bits ([`FLAG_SLOW`]).
    pub flags: u16,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small caller-supplied payload (batch size, request ordinal, …).
    pub arg: u64,
}

/// One thread's flight-recorder lane: a fixed ring of records stored as atomic
/// words.  Only the owning thread writes; any thread may snapshot.  Each slot
/// carries a sequence tag that is poisoned during a rewrite, so a concurrent
/// snapshot drops a torn slot instead of reporting garbage.
struct Ring {
    lane: u16,
    words: Box<[AtomicU64]>,
    head: AtomicU64,
}

impl Ring {
    fn new(lane: u16) -> Ring {
        let mut words = Vec::with_capacity(RING_CAPACITY * WORDS);
        words.resize_with(RING_CAPACITY * WORDS, || AtomicU64::new(u64::MAX));
        Ring {
            lane,
            words: words.into_boxed_slice(),
            head: AtomicU64::new(0),
        }
    }

    /// Appends one record (owning thread only).
    fn push(&self, r: &SpanRecord) {
        let seq = self.head.load(Ordering::Relaxed);
        let base = (seq as usize % RING_CAPACITY) * WORDS;
        let w = &self.words;
        // Poison the tag first so a concurrent snapshot never sees a half-written
        // slot with a plausible tag.
        w[base + 7].store(u64::MAX, Ordering::Release);
        w[base].store(r.trace_id, Ordering::Relaxed);
        w[base + 1].store(r.span_id, Ordering::Relaxed);
        w[base + 2].store(r.parent_id, Ordering::Relaxed);
        w[base + 3].store(
            r.site as u64 | ((r.lane as u64) << 32) | ((r.flags as u64) << 48),
            Ordering::Relaxed,
        );
        w[base + 4].store(r.start_ns, Ordering::Relaxed);
        w[base + 5].store(r.dur_ns, Ordering::Relaxed);
        w[base + 6].store(r.arg, Ordering::Relaxed);
        w[base + 7].store(seq, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Copies the ring's current contents (oldest first), skipping torn slots.
    fn collect(&self, out: &mut Vec<SpanRecord>) {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(RING_CAPACITY as u64);
        for k in 0..n {
            let seq = head - n + k;
            let base = (seq as usize % RING_CAPACITY) * WORDS;
            let w = &self.words;
            if w[base + 7].load(Ordering::Acquire) != seq {
                continue;
            }
            let packed = w[base + 3].load(Ordering::Relaxed);
            let record = SpanRecord {
                trace_id: w[base].load(Ordering::Relaxed),
                span_id: w[base + 1].load(Ordering::Relaxed),
                parent_id: w[base + 2].load(Ordering::Relaxed),
                site: packed as u32,
                lane: (packed >> 32) as u16,
                flags: (packed >> 48) as u16,
                start_ns: w[base + 4].load(Ordering::Relaxed),
                dur_ns: w[base + 5].load(Ordering::Relaxed),
                arg: w[base + 6].load(Ordering::Relaxed),
            };
            // Re-check the tag: if the writer lapped us mid-copy, drop the slot.
            if w[base + 7].load(Ordering::Acquire) == seq {
                out.push(record);
            }
        }
    }

    fn clear(&self) {
        for slot in 0..RING_CAPACITY {
            self.words[slot * WORDS + 7].store(u64::MAX, Ordering::Release);
        }
        self.head.store(0, Ordering::Release);
    }
}

fn recorders() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RECORDERS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RECORDERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

fn with_thread_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    THREAD_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let mut all = recorders().lock().expect("trace recorder list poisoned");
            let ring = Arc::new(Ring::new(all.len() as u16));
            all.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        f(slot.as_ref().expect("ring just installed"))
    })
}

/// Snapshots the flight recorder: every lane's current contents, merged and sorted
/// by `(start_ns, span_id)` so the view is deterministic for a given set of records.
///
/// This is a copy, not a drain — records stay in their rings until overwritten, so
/// repeated probes (the `!trace` control line) see a sliding window of recent
/// activity without stealing it from a later exporter.
pub fn recent_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    let all = recorders().lock().expect("trace recorder list poisoned");
    for ring in all.iter() {
        ring.collect(&mut out);
    }
    drop(all);
    out.sort_by_key(|r| (r.start_ns, r.span_id));
    out
}

/// Empties every lane of the flight recorder.
///
/// Writers racing this keep working (their next commit simply lands in the cleared
/// ring); intended for tests and benchmarks that need a known-empty recorder.
pub fn clear() {
    let all = recorders().lock().expect("trace recorder list poisoned");
    for ring in all.iter() {
        ring.clear();
    }
}

// ---------------------------------------------------------------------------
// The span stack: one per thread, read by the tracer and the profiler
// ---------------------------------------------------------------------------

/// Deepest nesting a span stack stores.  Deeper frames keep guards balanced
/// but store no site and record no span (counted in `trace.spans.truncated`).
pub const MAX_STACK_DEPTH: usize = 48;

/// Sentinel depth of a guard that pushed no frame.
const INERT: usize = usize::MAX;

/// One open span on a thread's stack.
struct Frame {
    /// Interned site id, read by the sampler from any thread.
    site: AtomicU32,
    /// The parent span id for this frame's children: its own trace span, or its
    /// parent's link when it records none.  Read by the owning thread only.
    link: AtomicU64,
}

/// One thread's span stack, written by that thread only.  The sequence tag is
/// odd while a push or pop is in flight; a reader that sees an odd tag, or a
/// tag change across its copy, drops the sample as torn.
pub(crate) struct SpanStack {
    seq: AtomicU64,
    depth: AtomicU64,
    frames: [Frame; MAX_STACK_DEPTH],
}

impl SpanStack {
    pub(crate) fn new() -> SpanStack {
        SpanStack {
            seq: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            frames: std::array::from_fn(|_| Frame {
                site: AtomicU32::new(0),
                link: AtomicU64::new(0),
            }),
        }
    }

    /// Open frames, stored or not (owning thread).
    fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed) as usize
    }

    /// The parent span id for a frame opening at `depth` (0 when outermost).
    fn parent_link(&self, depth: usize) -> u64 {
        match depth.checked_sub(1) {
            Some(below) if below < MAX_STACK_DEPTH => {
                self.frames[below].link.load(Ordering::Relaxed)
            }
            _ => 0,
        }
    }

    /// Pushes one frame (owning thread only).
    pub(crate) fn push(&self, site: u32, link: u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        let depth = self.depth();
        if let Some(frame) = self.frames.get(depth) {
            frame.site.store(site, Ordering::Relaxed);
            frame.link.store(link, Ordering::Relaxed);
        }
        self.depth.store(depth as u64 + 1, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Pops every frame at or above `depth` (owning thread only; a leaked inner
    /// guard cannot unbalance the stack) and returns the new innermost site.
    pub(crate) fn pop_to(&self, depth: usize) -> u32 {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        let depth = depth.min(self.depth());
        self.depth.store(depth as u64, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
        match depth.min(MAX_STACK_DEPTH).checked_sub(1) {
            Some(top) => self.frames[top].site.load(Ordering::Relaxed),
            None => crate::profile::NO_SITE,
        }
    }

    /// Copies the stored site ids, outermost first (any thread): empty for an
    /// idle thread, `None` for a read torn by a concurrent push or pop.
    pub(crate) fn sample(&self) -> Option<Vec<u32>> {
        let before = self.seq.load(Ordering::Acquire);
        let depth = self.depth.load(Ordering::Acquire) as usize;
        let path: Vec<u32> = self.frames[..depth.min(MAX_STACK_DEPTH)]
            .iter()
            .map(|frame| frame.site.load(Ordering::Relaxed))
            .collect();
        (before & 1 == 0 && self.seq.load(Ordering::Acquire) == before).then_some(path)
    }
}

/// Every live thread's span stack, for the sampler.
static STACKS: Mutex<Vec<Arc<SpanStack>>> = Mutex::new(Vec::new());

/// Samples every live thread's span stack: the non-empty stacks and the count
/// of torn reads.
pub(crate) fn sample_stacks() -> (Vec<Vec<u32>>, u64) {
    let all: Vec<Arc<SpanStack>> = STACKS.lock().expect("span stack list poisoned").clone();
    let mut stacks = Vec::new();
    let mut torn = 0u64;
    for stack in &all {
        match stack.sample() {
            None => torn += 1,
            Some(path) if !path.is_empty() => stacks.push(path),
            Some(_) => {}
        }
    }
    (stacks, torn)
}

// ---------------------------------------------------------------------------
// Active traces
// ---------------------------------------------------------------------------

struct ActiveTrace {
    trace_id: u64,
    is_sampled: bool,
    /// Every span of this trace, committed or discarded wholesale at root exit.
    /// Index 0 is the root.
    spans: Vec<SpanRecord>,
    truncated: u64,
}

impl ActiveTrace {
    /// A new trace for the root seeded by `seed`, if it is sampled or the slow
    /// log may retain it.
    fn begin(seed: u64) -> Option<ActiveTrace> {
        let is_sampled = sampled(seed);
        (is_sampled || slow_threshold_ns() > 0).then(|| ActiveTrace {
            trace_id: mix64(seed) | 1,
            is_sampled,
            spans: Vec::with_capacity(8),
            truncated: 0,
        })
    }

    /// Records a child of `parent_id` at stack `depth`: one opening now, or,
    /// given `began`, one that ran from then until now.  Returns its index,
    /// span id and start, or `None` (truncated) when too deep or the trace is
    /// full — before reading the clock.
    fn record(
        &mut self,
        site: u32,
        (parent_id, depth): (u64, usize),
        began: Option<Instant>,
        arg: u64,
    ) -> Option<(usize, u64, Instant)> {
        if depth >= MAX_STACK_DEPTH || self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.truncated += 1;
            return None;
        }
        let (started, dur_ns) = match began {
            Some(began) => (began, began.elapsed().as_nanos() as u64),
            None => (Instant::now(), 0),
        };
        let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(SpanRecord {
            trace_id: self.trace_id,
            span_id,
            parent_id,
            site,
            lane: 0,
            flags: 0,
            start_ns: since_epoch_ns(started),
            dur_ns,
            arg,
        });
        Some((self.spans.len() - 1, span_id, started))
    }
}

/// A thread's span stack (registered with the sampler on first use) and its
/// open request trace, if any.
struct ThreadSpans {
    stack: OnceCell<Arc<SpanStack>>,
    active: RefCell<Option<ActiveTrace>>,
}

impl ThreadSpans {
    fn stack(&self) -> &SpanStack {
        self.stack.get_or_init(|| {
            let stack = Arc::new(SpanStack::new());
            STACKS
                .lock()
                .expect("span stack list poisoned")
                .push(Arc::clone(&stack));
            stack
        })
    }
}

impl Drop for ThreadSpans {
    /// Unregisters an exiting thread's stack from the sampler's list.
    fn drop(&mut self) {
        if let (Some(stack), Ok(mut all)) = (self.stack.get(), STACKS.lock()) {
            all.retain(|other| !Arc::ptr_eq(other, stack));
        }
    }
}

thread_local! {
    static THREAD: ThreadSpans = const {
        ThreadSpans {
            stack: OnceCell::new(),
            active: RefCell::new(None),
        }
    };
}

struct TraceCounters {
    roots_sampled: &'static crate::Counter,
    roots_slow: &'static crate::Counter,
    roots_discarded: &'static crate::Counter,
    spans_committed: &'static crate::Counter,
    spans_truncated: &'static crate::Counter,
}

fn trace_counters() -> &'static TraceCounters {
    static COUNTERS: OnceLock<TraceCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| TraceCounters {
        roots_sampled: crate::counter("trace.roots.sampled"),
        roots_slow: crate::counter("trace.roots.slow_retained"),
        roots_discarded: crate::counter("trace.roots.discarded"),
        spans_committed: crate::counter("trace.spans.committed"),
        spans_truncated: crate::counter("trace.spans.truncated"),
    })
}

/// Pushes `site` onto this thread's span stack, returning the guard that pops
/// it.  With tracing on the frame also records a span: a child in the active
/// trace, or, for a root (`root_seed` given), the root of a new trace.
fn push_frame(site: u32, arg: u64, gates: u64, root_seed: Option<u64>) -> Span {
    THREAD
        .try_with(|thread| {
            let stack = thread.stack();
            let depth = stack.depth();
            let mut link = stack.parent_link(depth);
            let mut record = None;
            if gates & GATE_TRACE != 0 {
                let mut active = thread.active.borrow_mut();
                let mut at = (link, depth);
                if let (None, Some(seed)) = (active.as_ref(), root_seed) {
                    // A root with no trace open starts one, as its tree's depth 0.
                    *active = ActiveTrace::begin(seed);
                    at = (0, 0);
                }
                if let Some((index, span_id, started)) = active
                    .as_mut()
                    .and_then(|trace| trace.record(site, at, None, arg))
                {
                    link = span_id;
                    record = Some((index, started));
                }
            }
            stack.push(site, link);
            crate::profile::set_current_site(site);
            Span { depth, record }
        })
        .unwrap_or_else(|_| Span::inert())
}

/// An RAII guard for a span nested inside the current thread's active trace.
///
/// Created by [`Span::enter`] (usually via the [`crate::span!`] macro).  Inert —
/// a no-op shell — when neither tracing nor the profiler is on; records no
/// trace span when no trace is active on this thread, so instrumented code
/// needs no conditionals.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    /// This guard's frame on the span stack ([`INERT`] when it pushed none).
    depth: usize,
    /// The span this guard records: its index in the active trace, its start.
    record: Option<(usize, Instant)>,
}

impl Span {
    /// A span that records nothing.
    pub fn inert() -> Span {
        // No clock read: the inert guard must cost nothing beyond its construction.
        Span {
            depth: INERT,
            record: None,
        }
    }

    /// Opens a child of the innermost open span on this thread, carrying `arg`.
    ///
    /// Inert when neither tracing nor the profiler is on.  Otherwise the guard
    /// pushes a span-stack frame and, inside an active trace, records a span.
    #[inline]
    pub fn enter(site: u32, arg: u64) -> Span {
        let gates = gates();
        if gates == 0 {
            return Span::inert();
        }
        push_frame(site, arg, gates, None)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.depth == INERT {
            return;
        }
        let _ = THREAD.try_with(|thread| {
            if let Some((index, started)) = self.record {
                let mut active = thread.active.borrow_mut();
                if let Some(record) = active.as_mut().and_then(|t| t.spans.get_mut(index)) {
                    record.dur_ns = started.elapsed().as_nanos() as u64;
                }
            }
            if let Some(stack) = thread.stack.get() {
                crate::profile::set_current_site(stack.pop_to(self.depth));
            }
        });
    }
}

/// An RAII guard opening (and at drop, committing or discarding) one
/// request-scoped trace on the current thread.
///
/// Created by [`RootSpan::enter`] (usually via the [`crate::root_span!`] macro).
/// The trace is committed to the flight recorder if its seed was sampled, or —
/// whatever the sampling decision — if the root ran at least the configured slow
/// threshold (the slow-request log).  Otherwise every buffered span is discarded:
/// unsampled requests leave nothing behind but one counter increment.
#[must_use = "a root span measures until dropped; binding it to `_` drops immediately"]
pub struct RootSpan {
    /// The root's frame.  A record at index 0 means this guard opened the
    /// trace and commits it at drop; a nested root records a plain child.
    span: Span,
}

impl RootSpan {
    /// A root that records nothing.
    pub fn inert() -> RootSpan {
        RootSpan {
            span: Span::inert(),
        }
    }

    /// Opens a trace root at `site` for the request identified by `seed`.
    ///
    /// `seed` drives deterministic sampling (see [`sampled`]); `arg` is stored on
    /// the root record.  If this thread already has an active trace the "root"
    /// nests as an ordinary child span, which lets per-request roots compose with
    /// an enclosing per-connection root when batches run inline.  Like
    /// [`Span::enter`], it pushes a span-stack frame whatever the sampling.
    #[inline]
    pub fn enter(site: u32, seed: u64, arg: u64) -> RootSpan {
        let gates = gates();
        if gates == 0 {
            return RootSpan::inert();
        }
        RootSpan {
            span: push_frame(site, arg, gates, Some(seed)),
        }
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        if let Some((0, started)) = self.span.record {
            self.span.record = None;
            Self::commit(started);
        }
        // The root's frame pops when `self.span` drops.
    }
}

impl RootSpan {
    fn commit(started: Instant) {
        let Ok(Some(mut trace)) = THREAD.try_with(|thread| thread.active.borrow_mut().take())
        else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos() as u64;
        trace.spans[0].dur_ns = dur_ns;
        let slow_ns = slow_threshold_ns();
        let is_slow = slow_ns > 0 && dur_ns >= slow_ns;
        let counters = trace_counters();
        if !trace.is_sampled && !is_slow {
            counters.roots_discarded.incr();
            return;
        }
        if is_slow {
            trace.spans[0].flags |= FLAG_SLOW;
            counters.roots_slow.incr();
        }
        if trace.is_sampled {
            counters.roots_sampled.incr();
        }
        counters.spans_committed.add(trace.spans.len() as u64);
        if trace.truncated > 0 {
            counters.spans_truncated.add(trace.truncated);
        }
        with_thread_ring(|ring| {
            for record in &mut trace.spans {
                record.lane = ring.lane;
                ring.push(record);
            }
        });
    }
}

/// Records an already-measured wait as a child of the current span: a span that
/// began at `started` and ends now, without having held a guard open.
///
/// This is how cross-thread waits land in a trace — e.g. the serve layer stamps a
/// connection at enqueue time on the accept thread and records the queue wait here
/// once a worker picks it up.  No-op when the thread has no active trace.
pub fn complete_span(site: u32, started: Instant, arg: u64) {
    if !tracing_configured() {
        return;
    }
    let _ = THREAD.try_with(|thread| {
        let mut active = thread.active.borrow_mut();
        let Some(trace) = active.as_mut() else {
            return;
        };
        // The completed span sits just above the innermost open frame.
        let stack = thread.stack();
        let at = (stack.parent_link(stack.depth()), stack.depth());
        trace.record(site, at, Some(started), arg);
    });
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn push_us(ns: u64, out: &mut String) {
    // Chrome trace timestamps are microseconds; keep nanosecond precision as a
    // fixed three-decimal fraction (deterministic, no float formatting drift).
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders records as Chrome trace-event JSON: an object with a `traceEvents`
/// array of complete (`"ph":"X"`) events, loadable in `chrome://tracing` and
/// Perfetto, plus an embedded `summary` object ([`summary_json`]) that both
/// viewers ignore.
///
/// Events carry `pid` 1, `tid` = flight-recorder lane, microsecond `ts`/`dur`
/// with nanosecond fractions, and an `args` object holding the trace/span/parent
/// ids, the caller payload, and the slow-retention flag.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + 160 * records.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"summary\":");
    out.push_str(&summary_json(records));
    out.push_str(",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"args\":{{\"arg\":{},\"parent\":{},\"slow\":{},\"span\":{},\"trace\":{}}},\
             \"cat\":\"tcp\",\"dur\":",
            r.arg,
            r.parent_id,
            (r.flags & FLAG_SLOW) != 0,
            r.span_id,
            r.trace_id,
        );
        push_us(r.dur_ns, &mut out);
        out.push_str(",\"name\":");
        crate::export::json_escape(&site_name(r.site), &mut out);
        let _ = write!(out, ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":", r.lane);
        push_us(r.start_ns, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Per-site totals of a record set, as one line of sorted-key JSON:
/// `{"<site>":{"count":…,"self_ns":…,"total_ns":…},…}`.
///
/// `total_ns` sums span durations; `self_ns` subtracts each span's direct
/// children, so a site's self time is where its wall clock actually went.
pub fn summary_json(records: &[SpanRecord]) -> String {
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        index_of.insert(r.span_id, i);
    }
    let mut self_ns: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    for r in records {
        if r.parent_id == 0 {
            continue;
        }
        if let Some(&p) = index_of.get(&r.parent_id) {
            self_ns[p] = self_ns[p].saturating_sub(r.dur_ns);
        }
    }
    let mut sites: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        let entry = sites.entry(site_name(r.site)).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += self_ns[i];
        entry.2 += r.dur_ns;
    }
    let mut out = String::with_capacity(32 + 64 * sites.len());
    out.push('{');
    for (i, (site, (count, self_total, total))) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::export::json_escape(site, &mut out);
        let _ = write!(
            out,
            ":{{\"count\":{count},\"self_ns\":{self_total},\"total_ns\":{total}}}"
        );
    }
    out.push('}');
    out
}

/// Renders records as a JSON array of flat span objects (sorted keys), the shape
/// the `!trace` control line embeds: site names resolved, ids and nanosecond
/// offsets verbatim.
pub fn spans_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(16 + 128 * records.len());
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"arg\":{},\"dur_ns\":{},\"lane\":{},\"parent\":{},\"site\":",
            r.arg, r.dur_ns, r.lane, r.parent_id
        );
        crate::export::json_escape(&site_name(r.site), &mut out);
        let _ = write!(
            out,
            ",\"slow\":{},\"span\":{},\"start_ns\":{},\"trace\":{}}}",
            (r.flags & FLAG_SLOW) != 0,
            r.span_id,
            r.start_ns,
            r.trace_id
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global trace configuration.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn unconfigured_spans_are_inert() {
        let _gate = lock();
        configure(0, 0);
        clear();
        {
            let _root = RootSpan::enter(site_id("test.inert.root"), 7, 0);
            let _child = Span::enter(site_id("test.inert.child"), 0);
        }
        assert!(!recent_spans()
            .iter()
            .any(|r| site_name(r.site).starts_with("test.inert")));
    }

    #[test]
    fn sampling_is_deterministic_and_one_in_n() {
        let _gate = lock();
        configure(4, 0);
        let picked: Vec<u64> = (0..4096).filter(|&s| sampled(s)).collect();
        let again: Vec<u64> = (0..4096).filter(|&s| sampled(s)).collect();
        assert_eq!(
            picked, again,
            "sampling must be a pure function of the seed"
        );
        // ~1/4 of seeds selected, within a loose tolerance.
        assert!((700..=1400).contains(&picked.len()), "{}", picked.len());
        configure(0, 0);
    }

    #[test]
    fn nesting_parent_links_and_summary_self_time() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let root_site = site_id("test.nest.root");
        let child_site = site_id("test.nest.child");
        {
            let _root = RootSpan::enter(root_site, 42, 9);
            let _a = Span::enter(child_site, 1);
            drop(_a);
            let _b = Span::enter(child_site, 2);
        }
        let records: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == root_site || r.site == child_site)
            .collect();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.site == root_site).unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.arg, 9);
        for child in records.iter().filter(|r| r.site == child_site) {
            assert_eq!(child.parent_id, root.span_id);
            assert_eq!(child.trace_id, root.trace_id);
            assert!(child.dur_ns <= root.dur_ns);
        }
        let summary = summary_json(&records);
        assert!(summary.contains("\"test.nest.root\":{\"count\":1"));
        assert!(summary.contains("\"test.nest.child\":{\"count\":2"));
        configure(0, 0);
    }

    #[test]
    fn unsampled_roots_leave_nothing_unless_slow() {
        let _gate = lock();
        // Sampling off, slow log armed at an unreachable threshold: provisional
        // traces are buffered but discarded.
        configure(0, u64::MAX);
        clear();
        let site = site_id("test.slowgate.fast");
        {
            let _root = RootSpan::enter(site, 3, 0);
            let _child = Span::enter(site_id("test.slowgate.fast.child"), 0);
        }
        assert!(!recent_spans().iter().any(|r| r.site == site));

        // Threshold of 1 ns: everything is slow, everything is retained + flagged.
        configure(0, 1);
        let slow_site = site_id("test.slowgate.slow");
        {
            let _root = RootSpan::enter(slow_site, 3, 0);
            std::hint::black_box((0..64).sum::<u64>());
        }
        let retained: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == slow_site)
            .collect();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].flags & FLAG_SLOW, FLAG_SLOW);
        configure(0, 0);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let site = site_id("test.ring.bound");
        for i in 0..(RING_CAPACITY as u64 + 64) {
            let _root = RootSpan::enter(site, i, i);
        }
        let mine: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == site)
            .collect();
        assert!(mine.len() <= RING_CAPACITY);
        // The newest roots survive; the oldest were overwritten.
        assert!(mine.iter().any(|r| r.arg == RING_CAPACITY as u64 + 63));
        configure(0, 0);
    }

    #[test]
    fn chrome_export_shape() {
        let _gate = lock();
        let site = site_id("test.chrome.site");
        let records = [SpanRecord {
            trace_id: 11,
            span_id: 21,
            parent_id: 0,
            site,
            lane: 2,
            flags: FLAG_SLOW,
            start_ns: 1_500,
            dur_ns: 2_001,
            arg: 5,
        }];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"summary\":{"));
        assert!(json.contains("\"traceEvents\":[{\"args\":{\"arg\":5,\"parent\":0,\"slow\":true,\"span\":21,\"trace\":11}"));
        assert!(json.contains("\"cat\":\"tcp\""));
        assert!(json.contains("\"dur\":2.001"));
        assert!(json.contains("\"name\":\"test.chrome.site\""));
        assert!(json.contains("\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.500"));
        let spans = spans_json(&records);
        assert!(spans.contains("\"site\":\"test.chrome.site\""));
        assert!(spans.contains("\"slow\":true"));
    }

    #[test]
    fn profiler_gate_mirrors_spans_without_tracing() {
        let _gate = lock();
        configure(0, 0);
        clear();
        set_profile_gate(true);
        let root_site = site_id("test.mirrorgate.root");
        let child_site = site_id("test.mirrorgate.child");
        {
            let _root = RootSpan::enter(root_site, 9, 0);
            let _child = Span::enter(child_site, 0);
            crate::profile::tick();
        }
        set_profile_gate(false);
        // No trace records (tracing is off) …
        assert!(!recent_spans()
            .iter()
            .any(|r| r.site == root_site || r.site == child_site));
        // … but the wall profiler saw the stack, outermost first.
        let snap = crate::profile::snapshot();
        let (path, _) = snap
            .stacks
            .iter()
            .find(|(path, _)| path.contains(&"test.mirrorgate.child".to_string()))
            .expect("profiler sampled the span stack");
        let root_pos = path
            .iter()
            .position(|f| f == "test.mirrorgate.root")
            .expect("root frame mirrored");
        let child_pos = path
            .iter()
            .position(|f| f == "test.mirrorgate.child")
            .unwrap();
        assert!(root_pos < child_pos);
    }

    #[test]
    fn nesting_past_the_stack_depth_is_truncated_with_parent_links_intact() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let truncated = crate::counter("trace.spans.truncated");
        let before = truncated.get();
        let root_site = site_id("test.deep.root");
        let child_site = site_id("test.deep.child");
        let extra = 13;
        {
            let _root = RootSpan::enter(root_site, 11, 0);
            let mut guards: Vec<Span> = (1..MAX_STACK_DEPTH + extra)
                .map(|depth| Span::enter(child_site, depth as u64))
                .collect();
            complete_span(child_site, Instant::now(), u64::MAX);
            while let Some(guard) = guards.pop() {
                drop(guard);
            }
        }
        let records: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == root_site || r.site == child_site)
            .collect();
        // The root and one child per depth below the limit are recorded; the
        // deeper children and the completed span past them are truncated.
        assert_eq!(records.len(), MAX_STACK_DEPTH);
        assert_eq!(truncated.get() - before, extra as u64 + 1);
        let mut parent = records.iter().find(|r| r.site == root_site).unwrap();
        assert_eq!(parent.parent_id, 0);
        for depth in 1..MAX_STACK_DEPTH as u64 {
            let child = records
                .iter()
                .find(|r| r.site == child_site && r.arg == depth)
                .unwrap_or_else(|| panic!("no span at depth {depth}"));
            assert_eq!(child.parent_id, parent.span_id, "depth {depth}");
            assert_eq!(child.trace_id, parent.trace_id);
            parent = child;
        }
        configure(0, 0);
    }

    #[test]
    fn tracer_and_profiler_read_one_stack() {
        let _gate = lock();
        configure(1, 0);
        clear();
        set_profile_gate(true);
        let root_site = site_id("test.shared.root");
        let child_site = site_id("test.shared.child");
        {
            let _root = RootSpan::enter(root_site, 21, 0);
            let _child = Span::enter(child_site, 0);
            crate::profile::tick();
        }
        set_profile_gate(false);
        configure(0, 0);
        let records = recent_spans();
        let root = records.iter().find(|r| r.site == root_site).unwrap();
        let children: Vec<&SpanRecord> = records.iter().filter(|r| r.site == child_site).collect();
        assert_eq!(children.len(), 1, "one span, one record");
        assert_eq!(children[0].parent_id, root.span_id);
        let snap = crate::profile::snapshot();
        let paths: Vec<&Vec<String>> = snap
            .stacks
            .iter()
            .map(|(path, _)| path)
            .filter(|path| path.contains(&"test.shared.child".to_string()))
            .collect();
        assert_eq!(paths.len(), 1, "one span, one sampled stack");
        assert_eq!(
            paths[0],
            &vec![
                "test.shared.root".to_string(),
                "test.shared.child".to_string()
            ],
            "each frame once, outermost first"
        );
    }

    #[test]
    fn complete_span_attaches_to_the_active_trace() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let root_site = site_id("test.complete.root");
        let wait_site = site_id("test.complete.wait");
        {
            let _root = RootSpan::enter(root_site, 5, 0);
            complete_span(wait_site, Instant::now(), 77);
        }
        let records = recent_spans();
        let root = records.iter().find(|r| r.site == root_site).unwrap();
        let wait = records.iter().find(|r| r.site == wait_site).unwrap();
        assert_eq!(wait.parent_id, root.span_id);
        assert_eq!(wait.arg, 77);
        configure(0, 0);
    }
}
