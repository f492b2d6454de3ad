//! The `Recorder` value — span stacks, the bounded flight recorder,
//! and the metrics registry — and the process-wide instance the crate's
//! free functions forward to.
//!
//! A `Recorder` is plain data: its methods take the timestamp they
//! stamp, so a test builds its own and shares nothing. One process-wide
//! instance is enough for a simulation because the kernel runs exactly
//! one simulated thread at a time: recording happens in scheduler order,
//! the `std::sync::Mutex` around it is uncontended, and the resulting
//! event log is deterministic.
//!
//! The event log is a **flight recorder**: a fixed-capacity ring that
//! keeps the most recent events and a monotonic total count. Long
//! always-on runs therefore cost O(capacity) memory, and failure dumps
//! can always append the last-N events that led up to the crash.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::event::{Event, SpanId};
use crate::labels::Registry;

/// A virtual-clock source: returns `(now_ns, tid)` for the calling
/// thread. Installed once per process by the simulation kernel.
pub type Clock = fn() -> (u64, u32);

fn default_clock() -> (u64, u32) {
    (0, 0)
}

static CLOCK: OnceLock<Clock> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Events the process-wide flight recorder retains.
pub const FLIGHT_CAPACITY: usize = 65_536;

/// Install the virtual-clock source. The first installation wins;
/// subsequent calls are ignored (the kernel re-installs the same
/// function for every `Kernel`).
pub fn install_clock(clock: Clock) {
    let _ = CLOCK.set(clock);
}

fn clock_now() -> (u64, u32) {
    CLOCK.get().copied().unwrap_or(default_clock as Clock)()
}

/// `true` if recording is enabled. This is the one relaxed atomic load
/// every recording entry point pays when observability is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discard all recorded events, open-span state, metadata, and metrics.
/// Call between independent recording sessions (e.g. two runs whose
/// exports are compared byte-for-byte).
pub fn reset() {
    *recorder() = Recorder::new(FLIGHT_CAPACITY);
}

/// Statistics of one span name's closed instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DurationStat {
    /// Closed spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Shortest instance, ns.
    pub min_ns: u64,
    /// Longest instance, ns.
    pub max_ns: u64,
}

impl DurationStat {
    fn observe(&mut self, d: u64) {
        if self.count == 0 {
            self.min_ns = d;
            self.max_ns = d;
        } else {
            self.min_ns = self.min_ns.min(d);
            self.max_ns = self.max_ns.max(d);
        }
        self.count += 1;
        self.total_ns += d;
    }

    /// Fold `other` into this stat. Merging an empty stat is a no-op
    /// (its zero min does not pollute the merged minimum); merging into
    /// an empty stat copies `other`.
    pub fn merge(&mut self, other: &DurationStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A fixed-bucket histogram: bucket `i` counts values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 counts `v == 0`), i.e.
/// power-of-two buckets up to `2^63`. The bucket layout never depends on
/// the data, which keeps merged and exported output deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; index 0 is the zero bucket, index `i` covers
    /// `[2^(i-1), 2^i)`.
    pub buckets: [u64; 65],
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating at `u64::MAX`).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }
}

struct OpenSpan {
    id: SpanId,
    name: &'static str,
    t_begin_ns: u64,
}

/// The bounded event log: a ring of the most recent `capacity` events
/// plus the count of events ever pushed.
pub(crate) struct FlightRing {
    buf: VecDeque<Event>,
    capacity: usize,
    total: u64,
}

impl FlightRing {
    fn with_capacity(capacity: usize) -> FlightRing {
        FlightRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.total += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Events recorded, including those already evicted.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }
}

/// One recording session's state. Every method records unconditionally
/// at the `(t_ns, tid)` it is given; the enabled gate and the clock
/// belong to the free functions below.
pub(crate) struct Recorder {
    pub(crate) flight: FlightRing,
    /// Per-tid stack of open spans (innermost last).
    stacks: HashMap<u32, Vec<OpenSpan>>,
    next_span: SpanId,
    pub(crate) durations: BTreeMap<&'static str, DurationStat>,
    pub(crate) metrics: Registry,
    /// Run metadata stamped into exported traces (chaos seed, fault
    /// schedule, …).
    pub(crate) meta: BTreeMap<String, String>,
}

impl Recorder {
    pub(crate) fn new(flight_capacity: usize) -> Recorder {
        Recorder {
            flight: FlightRing::with_capacity(flight_capacity),
            stacks: HashMap::new(),
            next_span: 0,
            durations: BTreeMap::new(),
            metrics: Registry::default(),
            meta: BTreeMap::new(),
        }
    }

    pub(crate) fn span_begin(
        &mut self,
        (t_ns, tid): (u64, u32),
        name: &'static str,
        fields: Vec<(&'static str, String)>,
    ) -> SpanId {
        self.next_span += 1;
        let id = self.next_span;
        let stack = self.stacks.entry(tid).or_default();
        let parent = stack.last().map(|s| s.id).unwrap_or(0);
        stack.push(OpenSpan {
            id,
            name,
            t_begin_ns: t_ns,
        });
        self.flight.push(Event::SpanBegin {
            id,
            parent,
            tid,
            t_ns,
            name,
            fields,
        });
        id
    }

    pub(crate) fn span_end(&mut self, (t_ns, tid): (u64, u32), id: SpanId) {
        // Normally the span being closed is the innermost; search by id
        // to stay correct under overlapping (non-nested) guards.
        let Some(stack) = self.stacks.get_mut(&tid) else {
            return;
        };
        let Some(pos) = stack.iter().rposition(|s| s.id == id) else {
            return; // opened before a reset()
        };
        let open = stack.remove(pos);
        let d = t_ns.saturating_sub(open.t_begin_ns);
        self.durations.entry(open.name).or_default().observe(d);
        self.flight.push(Event::SpanEnd {
            id,
            tid,
            t_ns,
            name: open.name,
        });
    }

    pub(crate) fn instant(&mut self, (t_ns, tid): (u64, u32), label: &str) {
        self.flight.push(Event::Instant {
            tid,
            t_ns,
            label: label.to_string(),
        });
    }

    pub(crate) fn flight_tail(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let len = self.flight.len();
        if len == 0 {
            return String::new();
        }
        let take = n.min(len);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder (last {take} of {} events):",
            self.flight.total()
        );
        for ev in self.flight.iter().skip(len - take) {
            let _ = writeln!(out, "  {}", ev.one_line());
        }
        out
    }
}

/// The process-wide recorder every free function forwards to.
pub(crate) fn recorder() -> MutexGuard<'static, Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER
        .get_or_init(|| Mutex::new(Recorder::new(FLIGHT_CAPACITY)))
        .lock()
        .expect("a thread panicked inside the obs recorder")
}

/// Guard for an open span; records the end event on drop. Obtain via
/// [`crate::span!`] (or [`span_begin`] directly).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// `None` when recording was disabled at open.
    id: Option<SpanId>,
}

impl SpanGuard {
    /// A guard that records nothing (used when recording is disabled).
    pub fn inert() -> SpanGuard {
        SpanGuard { id: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Recording stopped while the span was open: drop silently;
        // reset() clears the dangling open-span entry.
        if let (Some(id), true) = (self.id, is_enabled()) {
            let at = clock_now();
            recorder().span_end(at, id);
        }
    }
}

/// Open a span named `name` with structured `fields`. Prefer the
/// [`crate::span!`] macro, which skips field formatting when recording
/// is disabled.
pub fn span_begin(name: &'static str, fields: Vec<(&'static str, String)>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::inert();
    }
    let at = clock_now();
    let id = recorder().span_begin(at, name, fields);
    SpanGuard { id: Some(id) }
}

/// Record a point event (the typed twin of the kernel's string trace).
pub fn instant(label: &str) {
    if is_enabled() {
        let at = clock_now();
        recorder().instant(at, label);
    }
}

/// Add `delta` to the counter `(name, labels)`. [`crate::Summary`]
/// reports each label set as its own series and their sum under `name`.
pub fn counter_add_labeled(name: &str, labels: &[(&str, &str)], delta: u64) {
    if is_enabled() {
        recorder().metrics.counter_add(name, labels, delta);
    }
}

/// Add `delta` to the unlabeled counter `name`.
pub fn counter_add(name: &str, delta: u64) {
    counter_add_labeled(name, &[], delta);
}

/// Record `value` into the fixed-bucket histogram `name`.
pub fn histogram_observe(name: &str, value: u64) {
    if is_enabled() {
        recorder().metrics.histogram_observe(name, value);
    }
}

/// Record `value` into the latency sketch `(name, labels)`.
pub fn sketch_observe_labeled(name: &str, labels: &[(&str, &str)], value: u64) {
    if is_enabled() {
        recorder().metrics.sketch_observe(name, labels, value);
    }
}

/// Record `value` into the unlabeled latency sketch `name`.
pub fn sketch_observe(name: &str, value: u64) {
    sketch_observe_labeled(name, &[], value);
}

/// Stamp a metadata key/value onto the recording (e.g. the active chaos
/// seed). Metadata is exported in the Chrome-trace `otherData` block and
/// the summary, and cleared by [`reset`]. Recorded even while recording
/// is disabled so a repro run is always self-identifying.
pub fn set_meta(key: &str, value: &str) {
    recorder().meta.insert(key.to_string(), value.to_string());
}

/// Snapshot of the current run metadata, sorted by key.
pub fn meta() -> Vec<(String, String)> {
    let rec = recorder();
    rec.meta
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Snapshot of the retained flight-recorder events, oldest first. Note
/// this is the ring **tail** — at most [`FLIGHT_CAPACITY`] events; use
/// [`events_total`] for the monotonic count.
pub fn events() -> Vec<Event> {
    recorder().flight.iter().cloned().collect()
}

/// Total number of events recorded since the last [`reset`], including
/// events already evicted from the ring.
pub fn events_total() -> u64 {
    recorder().flight.total()
}

/// The last `n` flight-recorder events rendered one per line (oldest
/// first), prefixed with a header naming how many of the total they are.
/// Used by deadlock/livelock dumps and chaos failure reports; returns an
/// empty string when nothing was recorded.
pub fn flight_tail(n: usize) -> String {
    recorder().flight_tail(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_thread() {
        let mut rec = Recorder::new(16);
        let outer = rec.span_begin((10, 1), "outer", Vec::new());
        let other = rec.span_begin((11, 2), "other-thread", Vec::new());
        let inner = rec.span_begin((12, 1), "inner", vec![("step", "3".to_string())]);
        rec.span_end((15, 1), inner);
        rec.span_end((20, 1), outer);
        rec.span_end((21, 2), other);
        let evs: Vec<&Event> = rec.flight.iter().collect();
        assert_eq!(evs.len(), 6);
        assert!(matches!(evs[1], Event::SpanBegin { parent: 0, .. }));
        match evs[2] {
            Event::SpanBegin { parent, fields, .. } => {
                assert_eq!(*parent, outer);
                assert_eq!(fields, &vec![("step", "3".to_string())]);
            }
            other => panic!("unexpected event: {other:?}"),
        }
        assert!(matches!(evs[3], Event::SpanEnd { name: "inner", .. }));
        assert!(matches!(evs[4], Event::SpanEnd { name: "outer", .. }));
        assert_eq!(rec.durations["inner"].total_ns, 3);
        assert_eq!(rec.durations["outer"].total_ns, 10);
    }

    /// Two recorders in one process share nothing: what the
    /// process-global `static` could not offer, and what lets a kernel
    /// own one.
    #[test]
    fn recorders_are_independent_values() {
        let mut a = Recorder::new(16);
        let mut b = Recorder::new(16);
        a.instant((1, 0), "only in a");
        let span = a.span_begin((2, 0), "phase", Vec::new());
        a.metrics.counter_add("bytes", &[], 42);
        a.meta.insert("run".into(), "a".into());
        b.metrics.sketch_observe("lat", &[("tenant", "t")], 7);
        // b never saw a's span: closing it there is a no-op.
        b.span_end((3, 0), span);
        assert_eq!((a.flight.total(), b.flight.total()), (2, 0));
        assert_eq!((a.metrics.entries.len(), b.metrics.entries.len()), (1, 1));
        assert_eq!(a.metrics.entries[0].name, "bytes");
        assert_eq!(b.metrics.entries[0].name, "lat");
        assert!(b.meta.is_empty() && b.durations.is_empty());
        assert!(b.flight_tail(8).is_empty());
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 7, 8] {
            h.observe(v);
        }
        assert_eq!(h.buckets[1], 1); // [1, 2)
        assert_eq!(h.buckets[2], 2); // [2, 4): 2, 3
        assert_eq!(h.buckets[3], 2); // [4, 8): 4, 7
        assert_eq!(h.buckets[4], 1); // [8, 16): 8
    }

    #[test]
    fn histogram_pow2_boundaries_and_extremes() {
        let mut h = Histogram::default();
        h.observe(0);
        assert_eq!(h.buckets[0], 1, "0 lands in the zero bucket");
        h.observe(1);
        assert_eq!(h.buckets[1], 1, "1 lands in [1,2)");
        // Exact powers of two open their own bucket: 2^k -> bucket k+1.
        for k in [1u32, 2, 10, 32, 62] {
            let mut p = Histogram::default();
            p.observe(1u64 << k);
            assert_eq!(p.buckets[k as usize + 1], 1, "2^{k}");
            // One below the power stays in the previous bucket.
            p.observe((1u64 << k) - 1);
            assert_eq!(p.buckets[k as usize], 1, "2^{k}-1");
        }
        // u64::MAX lands in the last bucket and the sum saturates
        // instead of overflowing.
        let mut m = Histogram::default();
        m.observe(u64::MAX);
        m.observe(u64::MAX);
        assert_eq!(m.buckets[64], 2);
        assert_eq!(m.sum, u64::MAX, "sum saturates at u64::MAX");
        assert_eq!((m.min, m.max, m.count), (u64::MAX, u64::MAX, 2));
    }

    #[test]
    fn duration_stat_merge_handles_empty_sides() {
        let mut a = DurationStat::default();
        let empty = DurationStat::default();
        a.merge(&empty);
        assert_eq!(a, DurationStat::default(), "empty + empty stays empty");
        let full = DurationStat {
            count: 2,
            total_ns: 30,
            min_ns: 10,
            max_ns: 20,
        };
        a.merge(&full);
        assert_eq!(a, full, "empty absorbs other verbatim");
        let mut b = DurationStat {
            count: 1,
            total_ns: 5,
            min_ns: 5,
            max_ns: 5,
        };
        b.merge(&full);
        assert_eq!(
            b,
            DurationStat {
                count: 3,
                total_ns: 35,
                min_ns: 5,
                max_ns: 20
            }
        );
        b.merge(&empty);
        assert_eq!(b.count, 3, "merging empty is a no-op");
        assert_eq!(b.min_ns, 5, "empty stat's zero min must not leak in");
    }

    /// The acceptance bound for the flight recorder: a million events at
    /// capacity 4096 hold at most 4096 in memory while the monotonic
    /// total still counts every one.
    #[test]
    fn million_events_stay_bounded_by_capacity() {
        let mut rec = Recorder::new(4096);
        const N: u64 = 1_000_000;
        for i in 0..N {
            rec.instant((i, 0), if i % 2 == 0 { "tick" } else { "tock" });
        }
        assert_eq!(rec.flight.total(), N, "every event is counted");
        assert_eq!(rec.flight.len(), 4096, "but only capacity are retained");
        // The retained window is exactly the newest 4096.
        let oldest = rec.flight.iter().next().unwrap();
        assert_eq!(oldest.t_ns(), N - 4096);
        // flight_tail renders from the same bounded window.
        let dump = rec.flight_tail(8);
        assert!(dump.starts_with("flight recorder (last 8 of 1000000 events):"));
        assert_eq!(dump.lines().count(), 9);
    }
}
