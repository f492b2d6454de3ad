//! Exporters: Chrome trace-event JSON and the phase-breakdown summary.
//!
//! Both exports are pure functions of the recorder state, which is
//! itself a deterministic function of the simulation — so identical runs
//! yield byte-identical output. All JSON is hand-emitted (sorted keys,
//! fixed formatting); no serialization library, no float formatting
//! surprises (timestamps stay integral nanoseconds split manually into
//! microsecond ticks). Labeled metrics are exported in sorted
//! rendered-key order (`name{k=v}`), independent of interning order, so
//! summaries diff byte-for-byte across identical runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Event;
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

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds rendered as (possibly fractional) microseconds, the unit
/// the Chrome trace-event format expects for `ts`.
fn micros(ns: u64, out: &mut String) {
    let frac = ns % 1000;
    if frac == 0 {
        let _ = write!(out, "{}", ns / 1000);
    } else {
        let _ = write!(out, "{}.{:03}", ns / 1000, frac);
    }
}

/// Export the recorded events as Chrome trace-event JSON (the
/// `traceEvents` object form), loadable in Perfetto or
/// `chrome://tracing`. Span begin/end become `B`/`E` events; instants
/// become `i` events scoped to their thread. Run metadata
/// ([`crate::set_meta`] — e.g. the chaos seed and fault schedule) is
/// stamped into the `otherData` block so exported traces are
/// self-identifying. Only the flight-recorder tail is exported (the
/// ring is bounded); iteration happens under the recorder lock without
/// cloning the buffer.
pub fn chrome_trace() -> String {
    chrome_trace_of(&recorder())
}

fn chrome_trace_of(rec: &Recorder) -> String {
    let mut out = String::with_capacity(64 + rec.flight.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in rec.flight.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        match ev {
            Event::SpanBegin {
                id,
                parent,
                tid,
                t_ns,
                name,
                fields,
            } => {
                out.push_str("\"name\":\"");
                json_escape(name, &mut out);
                let _ = write!(out, "\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":");
                micros(*t_ns, &mut out);
                let _ = write!(out, ",\"args\":{{\"span\":{id},\"parent\":{parent}");
                for (k, v) in fields {
                    out.push_str(",\"");
                    json_escape(k, &mut out);
                    out.push_str("\":\"");
                    json_escape(v, &mut out);
                    out.push('"');
                }
                out.push_str("}}");
            }
            Event::SpanEnd {
                tid, t_ns, name, ..
            } => {
                out.push_str("\"name\":\"");
                json_escape(name, &mut out);
                let _ = write!(out, "\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":");
                micros(*t_ns, &mut out);
                out.push('}');
            }
            Event::Instant { tid, t_ns, label } => {
                out.push_str("\"name\":\"");
                json_escape(label, &mut out);
                let _ = write!(
                    out,
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":"
                );
                micros(*t_ns, &mut out);
                out.push('}');
            }
        }
    }
    out.push_str("\n],\"otherData\":{");
    for (i, (k, v)) in rec.meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape(k, &mut out);
        out.push_str("\":\"");
        json_escape(v, &mut out);
        out.push('"');
    }
    out.push_str("},\"displayTimeUnit\":\"ms\"}\n");
    out
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
    pub fn phase_breakdown(&self) -> Vec<(&str, DurationStat)> {
        PHASE_ORDER
            .iter()
            .filter_map(|p| self.durations.get(*p).map(|s| (*p, *s)))
            .collect()
    }

    /// Labeled metrics grouped by their `tenant` label: for each tenant
    /// (sorted), the metrics carrying that tenant label, keyed by their
    /// rendered key **without** the tenant pair (sorted). Metrics with
    /// no `tenant` label are absent.
    pub fn tenant_breakdown(&self) -> BTreeMap<String, Vec<(String, &LabeledMetric)>> {
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

fn write_histogram_json(h: &Histogram, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
        h.count, h.sum, h.min, h.max
    );
    // Emit only non-empty buckets as [index, count] pairs to stay
    // compact while remaining a fixed function of the data.
    let mut first = true;
    for (idx, c) in h.buckets.iter().enumerate() {
        if *c > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{idx},{c}]");
        }
    }
    out.push_str("]}");
}

fn write_metric_value_json(v: &MetricValue, out: &mut String) {
    match v {
        MetricValue::Counter(c) => {
            let _ = write!(out, "{{\"type\": \"counter\", \"value\": {c}}}");
        }
        MetricValue::Histogram(h) => {
            out.push_str("{\"type\": \"histogram\", \"value\": ");
            write_histogram_json(h, out);
            out.push('}');
        }
        MetricValue::Sketch(s) => {
            let _ = write!(
                out,
                "{{\"type\": \"sketch\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                s.count(),
                s.sum(),
                s.min(),
                s.max(),
                s.p50(),
                s.p99(),
                s.p999()
            );
        }
    }
}

/// Export the summary as deterministic JSON: phase breakdown, all span
/// durations, counter totals, histograms, labeled metrics, the
/// per-tenant breakdown, and run metadata — every map in sorted key
/// order.
pub fn summary_json() -> String {
    json_of(&Summary::capture())
}

fn json_of(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"phase_breakdown_ns\": {");
    let phases = s.phase_breakdown();
    for (i, (name, st)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{name}\": {{\"count\": {}, \"total\": {}, \"min\": {}, \"max\": {}}}",
            st.count, st.total_ns, st.min_ns, st.max_ns
        );
    }
    out.push_str(if phases.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"durations_ns\": {");
    for (i, (name, st)) in s.durations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(name, &mut out);
        let _ = write!(
            out,
            "\": {{\"count\": {}, \"total\": {}, \"min\": {}, \"max\": {}}}",
            st.count, st.total_ns, st.min_ns, st.max_ns
        );
    }
    out.push_str(if s.durations.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"counters\": {");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(name, &mut out);
        let _ = write!(out, "\": {v}");
    }
    out.push_str(if s.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in s.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(name, &mut out);
        out.push_str("\": ");
        write_histogram_json(h, &mut out);
    }
    out.push_str(if s.histograms.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"labeled\": {");
    for (i, m) in s.labeled.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(&m.key(), &mut out);
        out.push_str("\": ");
        write_metric_value_json(&m.value, &mut out);
    }
    out.push_str(if s.labeled.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"tenant_breakdown\": {");
    let breakdown = s.tenant_breakdown();
    for (i, (tenant, metrics)) in breakdown.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(tenant, &mut out);
        out.push_str("\": {");
        for (j, (key, m)) in metrics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n      \"");
            json_escape(key, &mut out);
            out.push_str("\": ");
            write_metric_value_json(&m.value, &mut out);
        }
        out.push_str("\n    }");
    }
    out.push_str(if breakdown.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in s.meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        json_escape(k, &mut out);
        out.push_str("\": \"");
        json_escape(v, &mut out);
        out.push('"');
    }
    out.push_str(if s.meta.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
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
    use crate::labels::Registry;
    use crate::recorder::Recorder;

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let mut rec = Recorder::new(64);
        let a = rec.span_begin((1_000, 1), "snapify.pause", vec![("device", "0".into())]);
        let b = rec.span_begin((1_500, 1), "drain", Vec::new());
        rec.span_end((2_000, 1), b);
        rec.span_end((2_250, 1), a);
        rec.instant((3_000, 1), "checkpoint done");
        rec.meta.insert("chaos.seed".into(), "7".into());
        let t1 = chrome_trace_of(&rec);
        assert_eq!(t1, chrome_trace_of(&rec));
        assert!(t1.starts_with("{\"traceEvents\":["));
        assert!(
            t1.contains("\"name\":\"snapify.pause\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1,")
        );
        assert!(t1.contains("\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2.250}"));
        assert!(t1.contains("\"ph\":\"i\""));
        assert!(t1.contains("\"otherData\":{\"chaos.seed\":\"7\"}"));
        // Balanced B/E.
        assert_eq!(t1.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(t1.matches("\"ph\":\"E\"").count(), 2);
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
        assert!(json.contains("\"io.nfs.rpc_ops\": 7"));
        assert!(json.contains("\"blcr.region_bytes\""));
        // Canonical phase order, not recording order: pause before
        // resume in the breakdown section.
        let pause = json.find("\"snapify.pause\"").unwrap();
        let resume = json.find("\"snapify.resume\"").unwrap();
        assert!(pause < resume);
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
        let keys: Vec<String> = s.labeled.iter().map(|m| m.key()).collect();
        assert_eq!(
            keys,
            [
                "only.labeled{tenant=a}",
                "only.labeled{tenant=b}",
                "x",
                "x{node=mic0,op=w}",
                "x{node=mic0}",
                "x{node=mic1}",
            ]
        );
        let json = json_of(&s);
        assert!(json.contains("\"only.labeled\": 7"));
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
        assert!(
            json.contains("\"swap.bytes{op=out,tenant=a}\": {\"type\": \"counter\", \"value\": 7}")
        );
        assert!(json.contains("\"tenant_breakdown\""));
        // Tenant groups strip the tenant label from inner keys.
        let a = json.find("\"a\": {").expect("tenant a group");
        let b = json.find("\"b\": {").expect("tenant b group");
        assert!(a < b, "tenants sorted");
        assert!(json.contains("\"swap.bytes{op=out}\""));
        assert!(json.contains("\"p99\": 2000"));
        // Unlabeled-by-tenant metric stays out of the breakdown.
        let breakdown_at = json.find("\"tenant_breakdown\"").unwrap();
        assert!(!json[breakdown_at..].contains("node.bytes"));
        let sk = s.tenant_sketch("swap.swapin_ns", "a").unwrap();
        assert_eq!(sk.count(), 2);
        assert!(s.tenant_sketch("swap.swapin_ns", "b").is_none());
    }

    #[test]
    fn identical_runs_serialize_identically() {
        // Same observations, interned in opposite orders.
        let run = |flip: bool| {
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
            let id = rec.span_begin((0, 0), "snapify.pause", Vec::new());
            rec.span_end((3, 0), id);
            rec.meta.insert("run".into(), "x".into());
            let s = Summary::of(&rec);
            (json_of(&s), text_of(&s))
        };
        assert_eq!(run(false), run(true), "exports depend on interning order");
    }

    #[test]
    fn micros_formatting() {
        let mut s = String::new();
        super::micros(1_234_567, &mut s);
        assert_eq!(s, "1234.567");
        s.clear();
        super::micros(5_000, &mut s);
        assert_eq!(s, "5");
    }
}
