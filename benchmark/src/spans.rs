//! Benchmark-side spans: recorded from the benchmark's own files around
//! the calls into each layer, kept in memory, written at exit.
//!
//! A span carries a name (`layer.call`), its parent on the same OS
//! thread, the op it belongs to, and three clocks: host wall, the
//! calling thread's CPU, and virtual time. A layer's self time is its
//! span minus the child spans on the same thread. Aggregates cover every
//! span; individual records are kept for every driver span and, for the
//! far more numerous interposer spans, for the first ops only, so the
//! Chrome trace stays small enough to open.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::sys;

/// Interposer spans are recorded one by one only for ops below this.
const DETAIL_OPS: u64 = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// The op the single client is executing; interposer spans on other
/// threads inherit it, so the spans of one op share an identifier.
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Per-name totals over every span closed so far, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calling-thread CPU inside the spans.
    pub cpu_ns: u64,
    /// CPU minus child spans on the same thread.
    pub self_cpu_ns: u64,
    /// Virtual time across the spans.
    pub v_ns: u64,
    /// Virtual time minus child spans on the same thread.
    pub self_v_ns: u64,
}

/// One recorded span.
#[derive(Clone, Debug)]
struct Record {
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    thread: u64,
    host_start_ns: u64,
    host_ns: u64,
    cpu_ns: u64,
    v_start_ns: u64,
    v_ns: u64,
}

struct Recorder {
    epoch: Instant,
    records: Vec<Record>,
    aggs: BTreeMap<&'static str, Agg>,
    /// Host-time samples of driver spans, per name.
    samples: BTreeMap<&'static str, Vec<u64>>,
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| {
        Mutex::new(Recorder {
            epoch: Instant::now(),
            records: Vec::new(),
            aggs: BTreeMap::new(),
            samples: BTreeMap::new(),
        })
    })
}

/// The clocks a span reads at both ends: host wall is taken separately,
/// these are `[thread CPU, virtual]` ns.
type Clocks = [u64; 2];

/// The open spans of one OS thread. Pure accounting — the clocks are
/// passed in — so the self-time rule is testable without real time.
#[derive(Default)]
pub struct ThreadStack {
    open: Vec<(u64, Clocks)>,
}

impl ThreadStack {
    /// Open span `id`; returns its parent (0 = none).
    pub fn open(&mut self, id: u64) -> u64 {
        let parent = self.open.last().map_or(0, |(id, _)| *id);
        self.open.push((id, [0; 2]));
        parent
    }

    /// Close span `id`, which lasted `total`: returns its self times
    /// (total minus what its children on this thread covered) and
    /// credits `total` to the parent as covered.
    pub fn close(&mut self, id: u64, total: Clocks) -> Clocks {
        let (top, children) = self.open.pop().expect("close without open");
        debug_assert_eq!(top, id, "spans close in LIFO order on a thread");
        if let Some((_, covered)) = self.open.last_mut() {
            for (c, t) in covered.iter_mut().zip(total) {
                *c += t;
            }
        }
        [
            total[0].saturating_sub(children[0]),
            total[1].saturating_sub(children[1]),
        ]
    }
}

thread_local! {
    static STACK: RefCell<ThreadStack> = RefCell::new(ThreadStack::default());
    static THREAD_NO: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Start recording (the timed region of the traced run only).
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording; what was recorded stays.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name the op the client is about to execute.
pub fn set_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// The virtual clock, or 0 outside a simulated thread (the fleet
/// scenario is driven from the main thread).
pub fn virtual_ns() -> u64 {
    if simkernel::in_simulation() {
        simkernel::now().as_nanos()
    } else {
        0
    }
}

/// Who opened a span: the single client (every record and a host-time
/// sample are kept) or a storage interposer (aggregated; records kept
/// for the first ops only).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    Driver,
    Interposer,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    origin: Origin,
    host_start: Instant,
    clocks_start: Clocks,
}

/// Closes its span when dropped. Inert when recording is off.
pub struct Guard(Option<Open>);

fn enter(name: &'static str, origin: Origin) -> Guard {
    if !is_enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow_mut().open(id));
    Guard(Some(Open {
        id,
        parent,
        name,
        origin,
        host_start: Instant::now(),
        clocks_start: [sys::thread_cpu_ns(), virtual_ns()],
    }))
}

/// Open a driver span around one call the workload makes.
pub fn driver(name: &'static str) -> Guard {
    enter(name, Origin::Driver)
}

/// Open an interposer span around one storage-seam call.
pub fn interposer(name: &'static str) -> Guard {
    enter(name, Origin::Interposer)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let host_ns = open.host_start.elapsed().as_nanos() as u64;
        let total = [
            sys::thread_cpu_ns() - open.clocks_start[0],
            virtual_ns().saturating_sub(open.clocks_start[1]),
        ];
        let own = STACK.with(|s| s.borrow_mut().close(open.id, total));
        let op = CURRENT_OP.load(Ordering::Relaxed);
        // A poisoned recorder only loses telemetry; never panic in drop.
        let Ok(mut rec) = recorder().lock() else {
            return;
        };
        let agg = rec.aggs.entry(open.name).or_default();
        agg.cpu_ns += total[0];
        agg.self_cpu_ns += own[0];
        agg.v_ns += total[1];
        agg.self_v_ns += own[1];
        if open.origin == Origin::Driver {
            rec.samples.entry(open.name).or_default().push(host_ns);
        }
        if open.origin == Origin::Driver || op < DETAIL_OPS {
            let host_start_ns = open.host_start.duration_since(rec.epoch).as_nanos() as u64;
            rec.records.push(Record {
                id: open.id,
                parent: open.parent,
                name: open.name,
                op,
                thread: THREAD_NO.with(|t| *t),
                host_start_ns,
                host_ns,
                cpu_ns: total[0],
                v_start_ns: open.clocks_start[1],
                v_ns: total[1],
            });
        }
    }
}

/// Every aggregate, by name.
pub fn aggs() -> BTreeMap<&'static str, Agg> {
    recorder()
        .lock()
        .expect("span recorder poisoned")
        .aggs
        .clone()
}

/// The host-time samples (ns) of driver span `name`.
pub fn samples(name: &str) -> Vec<u64> {
    let rec = recorder().lock().expect("span recorder poisoned");
    rec.samples.get(name).cloned().unwrap_or_default()
}

/// The recorded spans as Chrome trace-event JSON (`ph: "X"` complete
/// events on the host clock; virtual times, CPU, op and parent ride in
/// `args`), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(meta: Vec<(String, Json)>) -> Json {
    let rec = recorder().lock().expect("span recorder poisoned");
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
    let events = rec
        .records
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::Str(r.name.to_string())),
                (
                    "cat",
                    Json::Str(r.name.split('.').next().unwrap_or("").to_string()),
                ),
                ("ph", Json::Str("X".into())),
                ("ts", us(r.host_start_ns)),
                ("dur", us(r.host_ns)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(r.thread as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(r.id as f64)),
                        ("parent", Json::Num(r.parent as f64)),
                        ("op", Json::Num(r.op as f64)),
                        ("cpu_us", us(r.cpu_ns)),
                        ("v_start_ms", ms(r.v_start_ns)),
                        ("v_end_ms", ms(r.v_start_ns + r.v_ns)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("otherData", Json::Obj(meta)),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = ThreadStack::default();
        assert_eq!(t.open(1), 0);
        assert_eq!(t.open(2), 1, "nested span names its parent");
        assert_eq!(t.open(3), 2);
        assert_eq!(t.close(3, [10, 1]), [10, 1], "a leaf is all self time");
        assert_eq!(t.close(2, [30, 4]), [20, 3]);
        assert_eq!(t.open(4), 1, "a sibling hangs off the same parent");
        assert_eq!(t.close(4, [25, 0]), [25, 0]);
        // Grandchildren are already inside the child's total: the root
        // loses its two children (30 + 25), not 30 + 25 + 10.
        assert_eq!(t.close(1, [100, 9]), [45, 5]);
    }

    #[test]
    fn spans_on_another_thread_are_not_children() {
        // The pipeline thread's span overlaps the caller's in wall time
        // but runs on its own OS thread: it neither names the caller's
        // span as parent nor shrinks its self time.
        let mut caller = ThreadStack::default();
        let mut pipeline = ThreadStack::default();
        caller.open(1);
        assert_eq!(pipeline.open(2), 0);
        assert_eq!(pipeline.close(2, [40, 40]), [40, 40]);
        assert_eq!(caller.close(1, [50, 60]), [50, 60]);
    }

    #[test]
    fn a_child_longer_than_its_parent_cannot_go_negative() {
        // Clock granularity can make a child read a tick longer.
        let mut t = ThreadStack::default();
        t.open(1);
        t.open(2);
        t.close(2, [11, 0]);
        assert_eq!(t.close(1, [10, 0]), [0, 0]);
    }

    #[test]
    fn disabled_guards_are_inert() {
        assert!(!is_enabled());
        let before = NEXT_ID.load(Ordering::Relaxed);
        drop(driver("core.boot"));
        drop(interposer("snapstore.sink.write"));
        assert_eq!(NEXT_ID.load(Ordering::Relaxed), before);
    }
}
