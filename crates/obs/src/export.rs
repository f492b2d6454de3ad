//! Exporters: Chrome trace-event JSON and the phase-breakdown summary.
//!
//! Both exports are pure functions of the recorder state, which is
//! itself a deterministic function of the simulation — so identical runs
//! yield byte-identical output. Each builds one [`Json`] value (sorted
//! keys; timestamps stay integral nanoseconds split into microsecond
//! ticks, no float formatting) for the one writer to lay out. Labeled
//! metrics are exported in sorted rendered-key order (`name{k=v}`),
//! independent of interning order, so summaries diff byte-for-byte
//! across identical runs.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use crate::event::Event;
use crate::json::Json;
use crate::labels::{render_key, LabeledMetric, MetricValue};
use crate::recorder::{recorder, DurationStat, Histogram, Recorder};
use crate::sketch::LatencySketch;

/// Canonical order for the paper's stacked-bar phase charts (Fig 9/10):
/// the snapshot path, then the restart/relocation operations.
const PHASE_ORDER: [&str; 9] = [
    "snapify.pause",
    "snapify.capture",
    "snapify.transfer",
    "snapify.resume",
    "snapify.wait",
    "snapify.restore",
    "snapify.swapout",
    "snapify.swapin",
    "snapify.migrate",
];

/// Nanoseconds as (possibly fractional) microseconds, the unit the
/// Chrome trace-event format expects for `ts`.
fn micros(ns: u64) -> Json {
    match (ns / 1000, ns % 1000) {
        (us, 0) => Json::from(us),
        (us, frac) => Json::Number(format!("{us}.{frac:03}")),
    }
}

/// Export the recorded events as Chrome trace-event JSON (the
/// `traceEvents` object form), loadable in Perfetto or
/// `chrome://tracing`. Span begin/end become `B`/`E` events; instants
/// become `i` events scoped to their thread. Run metadata
/// ([`crate::set_meta`] — e.g. the chaos seed and fault schedule) is
/// stamped into the `otherData` block so exported traces are
/// self-identifying. Only the flight-recorder tail is exported (the
/// ring is bounded), built under the recorder lock.
pub fn chrome_trace() -> Json {
    chrome_trace_of(&recorder())
}

fn chrome_trace_of(rec: &Recorder) -> Json {
    // A wrapped ring can start with the end of a span whose begin was
    // evicted, which Perfetto flags as unmatched; a begin without its
    // end is a span still open, which the format allows.
    let mut begun = HashSet::new();
    let events = rec.flight.iter().filter_map(|ev| {
        let (name, ph, args) = match ev {
            Event::SpanBegin {
                id,
                parent,
                name,
                fields,
                ..
            } => {
                begun.insert(*id);
                let ids = [("span", Json::from(*id)), ("parent", Json::from(*parent))];
                let fields = fields.iter().map(|(k, v)| (*k, Json::from(v.as_str())));
                (*name, "B", Some(ids.into_iter().chain(fields).collect()))
            }
            Event::SpanEnd { id, name, .. } if begun.contains(id) => (*name, "E", None),
            Event::SpanEnd { .. } => return None,
            Event::Instant { label, .. } => (label.as_str(), "i", None),
        };
        let mut event = vec![("name", Json::from(name)), ("ph", ph.into())];
        if ph == "i" {
            event.push(("s", "t".into()));
        }
        event.extend([
            ("pid", 1.into()),
            ("tid", ev.tid().into()),
            ("ts", micros(ev.t_ns())),
        ]);
        event.extend(args.map(|args| ("args", args)));
        Some(event.into_iter().collect())
    });
    let meta = rec.meta.iter().map(|(k, v)| (k, Json::from(v.as_str())));
    Json::from_iter([
        ("traceEvents", Json::Array(events.collect())),
        ("otherData", meta.collect()),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// An aggregated view of the recording: per-phase durations plus the
/// metrics registry. Obtain via [`Summary::capture`].
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Closed-span duration statistics per span name.
    pub durations: BTreeMap<String, DurationStat>,
    /// Counter totals: each name's sum over all of its label sets (the
    /// unlabeled series included).
    pub counters: BTreeMap<String, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Every series that carries labels, plus the unlabeled sketches,
    /// sorted by rendered key.
    pub labeled: Vec<LabeledMetric>,
    /// Run metadata (chaos seed, fault schedule, …).
    pub meta: BTreeMap<String, String>,
}

impl Summary {
    /// Snapshot the process-wide recorder.
    pub fn capture() -> Summary {
        Summary::of(&recorder())
    }

    /// The three metric sections are views of the one registry; sorting
    /// `labeled` by rendered key makes the capture (and everything
    /// exported from it) independent of interning order.
    fn of(rec: &Recorder) -> Summary {
        let mut s = Summary {
            durations: rec
                .durations
                .iter()
                .map(|(name, stat)| (name.to_string(), *stat))
                .collect(),
            meta: rec.meta.clone(),
            ..Summary::default()
        };
        for e in &rec.metrics.entries {
            match &e.value {
                MetricValue::Counter(c) => *s.counters.entry(e.name.clone()).or_insert(0) += c,
                MetricValue::Histogram(h) if e.labels.is_empty() => {
                    s.histograms.insert(e.name.clone(), h.as_ref().clone());
                }
                _ => {}
            }
            if !e.labels.is_empty() || matches!(e.value, MetricValue::Sketch(_)) {
                s.labeled.push(e.clone());
            }
        }
        s.labeled.sort_by_cached_key(|m| (m.key(), m.value.kind()));
        s
    }

    /// The paper-figure phase rows (canonical order, only phases that
    /// actually occurred): `(phase, stat)`.
    fn phase_breakdown(&self) -> Vec<(&str, DurationStat)> {
        PHASE_ORDER
            .iter()
            .filter_map(|p| self.durations.get(*p).map(|s| (*p, *s)))
            .collect()
    }

    /// Labeled metrics grouped by their `tenant` label: for each tenant
    /// (sorted), the metrics carrying that tenant label, keyed by their
    /// rendered key **without** the tenant pair (sorted). Metrics with
    /// no `tenant` label are absent.
    fn tenant_breakdown(&self) -> BTreeMap<String, Vec<(String, &LabeledMetric)>> {
        let mut out: BTreeMap<String, Vec<(String, &LabeledMetric)>> = BTreeMap::new();
        for m in &self.labeled {
            if let Some(tenant) = m.label("tenant") {
                out.entry(tenant.to_string())
                    .or_default()
                    .push((render_key(&m.name, &m.labels, Some("tenant")), m));
            }
        }
        // `labeled` is sorted by full key; re-sort each group by the
        // tenant-stripped key so groups are internally stable too.
        for group in out.values_mut() {
            group.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    /// Convenience: the latency sketch for `(name, tenant)`, if
    /// recorded. Matches any entry with that name whose `tenant` label
    /// equals `tenant`.
    pub fn tenant_sketch(&self, name: &str, tenant: &str) -> Option<&LatencySketch> {
        self.labeled.iter().find_map(|m| match &m.value {
            MetricValue::Sketch(s) if m.name == name && m.label("tenant") == Some(tenant) => {
                Some(s.as_ref())
            }
            _ => None,
        })
    }
}

fn ms(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// Only the non-empty buckets, as `[index, count]` pairs: compact, and
/// still a fixed function of the data.
fn histogram(h: &Histogram) -> Json {
    let buckets = h.buckets.iter().enumerate().filter(|(_, c)| **c > 0);
    let buckets = buckets.map(|(i, c)| Json::Array(vec![i.into(), (*c).into()]));
    let stats = [h.count, h.sum, h.min, h.max].map(Json::from);
    let stats = ["count", "sum", "min", "max"].into_iter().zip(stats);
    let buckets = ("buckets", Json::Array(buckets.collect()));
    stats.chain([buckets]).collect()
}

fn metric(v: &MetricValue) -> Json {
    let (kind, value) = match v {
        MetricValue::Counter(c) => ("counter", vec![("value", Json::from(*c))]),
        MetricValue::Histogram(h) => ("histogram", vec![("value", histogram(h))]),
        MetricValue::Sketch(s) => {
            let keys = ["count", "sum", "min", "max", "p50", "p99", "p999"];
            let stats = [s.count(), s.sum(), s.min(), s.max()];
            let stats = stats.into_iter().chain([s.p50(), s.p99(), s.p999()]);
            let stats = keys.into_iter().zip(stats.map(Json::from));
            ("sketch", stats.collect())
        }
    };
    let kind = ("type", Json::from(kind));
    [kind].into_iter().chain(value).collect()
}

fn duration(st: &DurationStat) -> Json {
    let keys = ["count", "total", "min", "max"];
    let stats = [st.count, st.total_ns, st.min_ns, st.max_ns];
    keys.into_iter().zip(stats).collect()
}

/// Export the summary as deterministic JSON: phase breakdown, all span
/// durations, counter totals, histograms, labeled metrics, the
/// per-tenant breakdown, and run metadata — every map in sorted key
/// order.
pub fn summary_json() -> Json {
    json_of(&Summary::capture())
}

fn json_of(s: &Summary) -> Json {
    let phases = s
        .phase_breakdown()
        .into_iter()
        .map(|(p, st)| (p, duration(&st)));
    let durations = s.durations.iter().map(|(k, st)| (k, duration(st)));
    let histograms = s.histograms.iter().map(|(k, h)| (k, histogram(h)));
    let labeled = s.labeled.iter().map(|m| (m.key(), metric(&m.value)));
    let tenants = s.tenant_breakdown().into_iter().map(|(tenant, metrics)| {
        let metrics = metrics.iter().map(|(key, m)| (key, metric(&m.value)));
        (tenant, metrics.collect::<Json>())
    });
    let sections: [(&str, Json); 7] = [
        ("phase_breakdown_ns", phases.collect()),
        ("durations_ns", durations.collect()),
        (
            "counters",
            s.counters.iter().map(|(k, v)| (k, *v)).collect(),
        ),
        ("histograms", histograms.collect()),
        ("labeled", labeled.collect()),
        ("tenant_breakdown", tenants.collect()),
        (
            "meta",
            s.meta.iter().map(|(k, v)| (k, v.as_str())).collect(),
        ),
    ];
    Json::from_iter(sections)
}

/// Export the summary as a plain-text report: the paper-style stacked
/// phase breakdown first, then every span name, then the metrics
/// registry (totals, labeled, and the per-tenant rollup).
pub fn summary_text() -> String {
    text_of(&Summary::capture())
}

fn text_of(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str("== snapify phase breakdown (virtual time, ms) ==\n");
    let phases = s.phase_breakdown();
    if phases.is_empty() {
        out.push_str("  (no phases recorded)\n");
    }
    for (name, st) in &phases {
        let _ = writeln!(
            out,
            "  {name:<20} count {:>4}  total {:>14}  min {:>14}  max {:>14}",
            st.count,
            ms(st.total_ns),
            ms(st.min_ns),
            ms(st.max_ns)
        );
    }
    out.push_str("\n== span durations (virtual time, ms) ==\n");
    for (name, st) in &s.durations {
        let _ = writeln!(
            out,
            "  {name:<32} count {:>4}  total {:>14}  min {:>14}  max {:>14}",
            st.count,
            ms(st.total_ns),
            ms(st.min_ns),
            ms(st.max_ns)
        );
    }
    out.push_str("\n== counters ==\n");
    for (name, v) in &s.counters {
        let _ = writeln!(out, "  {name:<40} {v}");
    }
    out.push_str("\n== histograms (power-of-two buckets) ==\n");
    for (name, h) in &s.histograms {
        let _ = writeln!(
            out,
            "  {name:<40} count {:>8}  sum {:>16}  min {:>12}  max {:>12}",
            h.count, h.sum, h.min, h.max
        );
        for (idx, c) in h.buckets.iter().enumerate() {
            if *c > 0 {
                let lo: u128 = if idx == 0 { 0 } else { 1u128 << (idx - 1) };
                let hi: u128 = if idx == 0 { 1 } else { 1u128 << idx };
                let _ = writeln!(out, "    [{lo:>16}, {hi:>16})  {c}");
            }
        }
    }
    if !s.labeled.is_empty() {
        out.push_str("\n== labeled metrics ==\n");
        for m in &s.labeled {
            match &m.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "  {:<56} {c}", m.key());
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {:<56} count {:>8}  sum {:>16}  min {:>12}  max {:>12}",
                        m.key(),
                        h.count,
                        h.sum,
                        h.min,
                        h.max
                    );
                }
                MetricValue::Sketch(sk) => {
                    let _ = writeln!(
                        out,
                        "  {:<56} count {:>8}  p50 {:>12}  p99 {:>12}  p999 {:>12}",
                        m.key(),
                        sk.count(),
                        sk.p50(),
                        sk.p99(),
                        sk.p999()
                    );
                }
            }
        }
    }
    let breakdown = s.tenant_breakdown();
    if !breakdown.is_empty() {
        out.push_str("\n== tenant breakdown ==\n");
        for (tenant, metrics) in &breakdown {
            let _ = writeln!(out, "  tenant {tenant}:");
            for (key, m) in metrics {
                match &m.value {
                    MetricValue::Counter(c) => {
                        let _ = writeln!(out, "    {key:<52} {c}");
                    }
                    MetricValue::Histogram(h) => {
                        let _ =
                            writeln!(out, "    {key:<52} count {:>8}  sum {:>16}", h.count, h.sum);
                    }
                    MetricValue::Sketch(sk) => {
                        let _ = writeln!(
                            out,
                            "    {key:<52} p50 {:>12}  p99 {:>12}  p999 {:>12}",
                            sk.p50(),
                            sk.p99(),
                            sk.p999()
                        );
                    }
                }
            }
        }
    }
    if !s.meta.is_empty() {
        out.push_str("\n== run metadata ==\n");
        for (k, v) in &s.meta {
            let _ = writeln!(out, "  {k:<40} {v}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{chrome_trace_of, json_of, text_of, Summary};
    use crate::json::Json;
    use crate::labels::Registry;
    use crate::recorder::Recorder;

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn keys(value: &Json) -> Vec<&str> {
        match value {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    /// Each exported event's `ph`, in order.
    fn phases(trace: &Json) -> Vec<&str> {
        let Json::Array(events) = &trace["traceEvents"] else {
            panic!("no event array")
        };
        let ph = events.iter().map(|event| match &event["ph"] {
            Json::Str(ph) => ph.as_str(),
            other => panic!("ph {other}"),
        });
        ph.collect()
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let mut rec = Recorder::new(64);
        let a = rec.span_begin((1_000, 1), "snapify.pause", vec![("device", "0".into())]);
        let b = rec.span_begin((1_500, 1), "drain", Vec::new());
        rec.span_end((2_000, 1), b);
        rec.span_end((2_250, 1), a);
        rec.instant((3_000, 1), "checkpoint done");
        rec.meta.insert("chaos.seed".into(), "7".into());
        let trace = chrome_trace_of(&rec);
        assert_eq!(trace.render(), chrome_trace_of(&rec).render());
        assert_eq!(
            keys(&trace),
            ["traceEvents", "otherData", "displayTimeUnit"]
        );
        assert_eq!(phases(&trace), ["B", "B", "E", "E", "i"]);
        let Json::Array(events) = &trace["traceEvents"] else {
            panic!("no event array")
        };
        let begin = r#"{"name": "snapify.pause", "ph": "B", "pid": 1, "tid": 1, "ts": 1,
                        "args": {"span": 1, "parent": 0, "device": "0"}}"#;
        assert_eq!(events[0], parse(begin));
        let end = r#"{"name": "snapify.pause", "ph": "E", "pid": 1, "tid": 1, "ts": 2.250}"#;
        assert_eq!(events[3], parse(end));
        let instant = r#"{"name": "checkpoint done", "ph": "i", "s": "t", "pid": 1, "tid": 1,
                          "ts": 3}"#;
        assert_eq!(events[4], parse(instant));
        assert_eq!(trace["otherData"], parse(r#"{"chaos.seed": "7"}"#));
    }

    #[test]
    fn a_wrapped_ring_exports_no_end_without_its_begin() {
        let mut rec = Recorder::new(2);
        let evicted = rec.span_begin((0, 1), "evicted", Vec::new());
        rec.instant((1, 1), "one");
        rec.instant((2, 1), "two");
        rec.span_end((3, 1), evicted);
        // The ring holds `two` and the end of a span whose begin is gone.
        assert_eq!(phases(&chrome_trace_of(&rec)), ["i"]);
        // A begin whose end has not happened is a span still open.
        rec.span_begin((4, 1), "open", Vec::new());
        assert_eq!(phases(&chrome_trace_of(&rec)), ["B"]);
    }

    #[test]
    fn summary_reports_phases_and_metrics() {
        let mut rec = Recorder::new(64);
        let a = rec.span_begin((0, 0), "snapify.resume", Vec::new());
        rec.span_end((5, 0), a);
        let b = rec.span_begin((5, 0), "snapify.pause", Vec::new());
        rec.span_end((9, 0), b);
        rec.metrics.counter_add("io.nfs.rpc_ops", &[], 7);
        rec.metrics.histogram_observe("blcr.region_bytes", 4096);
        let s = Summary::of(&rec);
        let text = text_of(&s);
        assert!(text.contains("snapify.pause"));
        assert!(text.contains("io.nfs.rpc_ops"));
        let json = json_of(&s);
        assert_eq!(json["counters"]["io.nfs.rpc_ops"], Json::from(7));
        let region = r#"{"count": 1, "sum": 4096, "min": 4096, "max": 4096, "buckets": [[13,1]]}"#;
        assert_eq!(json["histograms"]["blcr.region_bytes"], parse(region));
        // Canonical phase order, not recording order.
        let phases = ["snapify.pause", "snapify.resume"];
        assert_eq!(keys(&json["phase_breakdown_ns"]), phases);
        let pause = r#"{"count": 1, "total": 4, "min": 4, "max": 4}"#;
        assert_eq!(json["durations_ns"]["snapify.pause"], parse(pause));
    }

    /// `counters[name]` is a view: the sum of `name{…}` over every label
    /// set, the unlabeled series included — so a name only ever recorded
    /// with labels still has its total.
    #[test]
    fn counter_totals_are_the_sum_over_label_sets() {
        let mut rec = Recorder::new(1);
        let m = &mut rec.metrics;
        m.counter_add("x", &[("node", "mic0")], 10);
        m.counter_add("x", &[("node", "mic1")], 5);
        m.counter_add("x", &[("node", "mic0"), ("op", "w")], 2);
        m.counter_add("x", &[], 100);
        m.counter_add("only.labeled", &[("tenant", "a")], 3);
        m.counter_add("only.labeled", &[("tenant", "b")], 4);
        m.counter_add("plain", &[], 9);
        m.sketch_observe("x", &[], 1); // another kind: no part of the total
        let s = Summary::of(&rec);
        assert_eq!(s.counters["x"], 117);
        assert_eq!(s.counters["only.labeled"], 7);
        assert_eq!(s.counters["plain"], 9);
        assert_eq!(s.counters.len(), 3);
        // The labeled view keeps each series; unlabeled counters are
        // only their total.
        let labeled = [
            "only.labeled{tenant=a}",
            "only.labeled{tenant=b}",
            "x",
            "x{node=mic0,op=w}",
            "x{node=mic0}",
            "x{node=mic1}",
        ];
        let json = json_of(&s);
        assert_eq!(keys(&json["labeled"]), labeled);
        assert_eq!(json["counters"]["only.labeled"], Json::from(7));
    }

    #[test]
    fn labeled_metrics_and_tenant_breakdown_export() {
        let mut rec = Recorder::new(1);
        // Intern deliberately out of sorted order.
        let m = &mut rec.metrics;
        m.counter_add("swap.bytes", &[("tenant", "b"), ("op", "out")], 100);
        m.counter_add("swap.bytes", &[("tenant", "a"), ("op", "out")], 7);
        m.sketch_observe("swap.swapin_ns", &[("tenant", "a")], 1000);
        m.sketch_observe("swap.swapin_ns", &[("tenant", "a")], 2000);
        m.counter_add("node.bytes", &[("node", "mic0")], 9);
        let s = Summary::of(&rec);
        let json = json_of(&s);
        let counter = parse(r#"{"type": "counter", "value": 7}"#);
        assert_eq!(json["labeled"]["swap.bytes{op=out,tenant=a}"], counter);
        // Tenants sorted; their groups strip the tenant label from inner
        // keys, and a metric without one stays out.
        let tenants = &json["tenant_breakdown"];
        assert_eq!(keys(tenants), ["a", "b"]);
        assert_eq!(
            keys(&tenants["a"]),
            ["swap.bytes{op=out}", "swap.swapin_ns"]
        );
        assert_eq!(keys(&tenants["b"]), ["swap.bytes{op=out}"]);
        assert_eq!(tenants["a"]["swap.bytes{op=out}"], counter);
        let sketch = r#"{"type": "sketch", "count": 2, "sum": 3000, "min": 1000, "max": 2000,
                         "p50": 1007, "p99": 2000, "p999": 2000}"#;
        assert_eq!(tenants["a"]["swap.swapin_ns"], parse(sketch));
        let sk = s.tenant_sketch("swap.swapin_ns", "a").unwrap();
        assert_eq!(sk.count(), 2);
        assert!(s.tenant_sketch("swap.swapin_ns", "b").is_none());
    }

    /// Same observations, interned in opposite orders.
    fn run(flip: bool) -> Recorder {
        let mut steps: [fn(&mut Registry); 5] = [
            |m| m.counter_add("m", &[("tenant", "z")], 1),
            |m| m.counter_add("m", &[("tenant", "a")], 2),
            |m| m.counter_add("plain", &[], 3),
            |m| m.histogram_observe("h", 17),
            |m| m.sketch_observe("lat", &[("tenant", "a"), ("op", "in")], 40),
        ];
        if flip {
            steps.reverse();
        }
        let mut rec = Recorder::new(8);
        for step in steps {
            step(&mut rec.metrics);
        }
        let id = rec.span_begin((0, 0), "snapify.pause", vec![("quote", "\"\\\n".into())]);
        rec.span_end((3, 0), id);
        rec.instant((1_234_567, 2), "tab\there");
        rec.meta.insert("run".into(), "x".into());
        rec
    }

    #[test]
    fn identical_runs_serialize_identically() {
        let export = |rec: &Recorder| {
            let s = Summary::of(rec);
            (json_of(&s).render(), text_of(&s))
        };
        assert_eq!(
            export(&run(false)),
            export(&run(true)),
            "exports depend on interning order"
        );
    }

    /// Both exports are the one writer's output: read back and written
    /// again, the text is unchanged.
    #[test]
    fn exports_read_back_verbatim() {
        let rec = run(false);
        for text in [
            chrome_trace_of(&rec).render(),
            json_of(&Summary::of(&rec)).render(),
        ] {
            assert_eq!(parse(&text).render(), text);
        }
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(super::micros(1_234_567), Json::Number("1234.567".into()));
        assert_eq!(super::micros(5_000), Json::from(5));
    }
}
