//! The metrics registry: counters, power-of-two histograms, and latency
//! sketches keyed by `(kind, name, label set)`. An unlabeled metric is
//! simply the empty label set, so there is one store and one recording
//! path for every metric in the crate.
//!
//! Label sets are **interned**: the first observation of a given
//! `(kind, name, labels)` combination allocates one registry entry;
//! every later observation hashes the borrowed name/labels in place
//! (labels are canonicalized by sorting keys on a stack-allocated index
//! array) and finds the entry without allocating.
//!
//! Export is deterministic: entries are rendered as `name{k=v,k2=v2}`
//! with label keys sorted, and [`crate::Summary`] emits them in sorted
//! rendered-key order regardless of interning order.

use crate::recorder::Histogram;
use crate::sketch::LatencySketch;
use std::collections::HashMap;

/// The value of one metric series.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Power-of-two histogram.
    Histogram(Box<Histogram>),
    /// Bounded-error percentile sketch (boxed: a sketch's bucket array
    /// is ~15 KiB, far larger than the other variants).
    Sketch(Box<LatencySketch>),
}

/// Which [`MetricValue`] variant a series holds. The discriminant is the
/// kind's byte in the identity hash and its rank in export order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Kind {
    Counter,
    Histogram,
    Sketch,
}

impl Kind {
    fn zero(self) -> MetricValue {
        match self {
            Kind::Counter => MetricValue::Counter(0),
            Kind::Histogram => MetricValue::Histogram(Box::default()),
            Kind::Sketch => MetricValue::Sketch(Box::new(LatencySketch::new())),
        }
    }
}

impl MetricValue {
    pub(crate) fn kind(&self) -> Kind {
        match self {
            MetricValue::Counter(_) => Kind::Counter,
            MetricValue::Histogram(_) => Kind::Histogram,
            MetricValue::Sketch(_) => Kind::Sketch,
        }
    }
}

/// One metric series: name, sorted label pairs (none for an unlabeled
/// metric), and its value. The registry stores these and a
/// [`crate::Summary`] hands out copies.
#[derive(Clone, Debug, PartialEq)]
pub struct LabeledMetric {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: MetricValue,
}

impl LabeledMetric {
    /// The canonical export key, `name{k=v,k2=v2}`.
    pub fn key(&self) -> String {
        render_key(&self.name, &self.labels, None)
    }

    /// The label's value, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The intern table + storage; one per `Recorder`.
#[derive(Default)]
pub(crate) struct Registry {
    /// FNV hash of `(kind, name, sorted labels)` → candidate ids.
    by_hash: HashMap<u64, Vec<u32>>,
    pub(crate) entries: Vec<LabeledMetric>,
}

/// Label sets are short static lists at every call site; the bound lets
/// the hit path sort them on the stack.
const MAX_LABELS: usize = 8;

/// FNV-1a over the canonical identity of a metric. `order` maps
/// position → index into `labels` in sorted-key order.
fn identity_hash(kind: Kind, name: &str, labels: &[(&str, &str)], order: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    mix(&[kind as u8]);
    mix(name.as_bytes());
    mix(&[0x1f]);
    for &i in order {
        let (k, v) = labels[i];
        mix(k.as_bytes());
        mix(&[0x1e]);
        mix(v.as_bytes());
        mix(&[0x1f]);
    }
    h
}

impl Registry {
    /// The series `(kind, name, labels)`, created empty on first sight.
    /// Allocation-free on the hit path.
    fn intern(&mut self, kind: Kind, name: &str, labels: &[(&str, &str)]) -> &mut MetricValue {
        assert!(labels.len() <= MAX_LABELS, "metric {name}: too many labels");
        let mut order = [0usize; MAX_LABELS];
        let order = &mut order[..labels.len()];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        order.sort_by_key(|&i| labels[i].0);
        let h = identity_hash(kind, name, labels, order);
        let hit = self.by_hash.get(&h).and_then(|ids| {
            ids.iter().copied().find(|&id| {
                let e = &self.entries[id as usize];
                e.value.kind() == kind
                    && e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(order.iter())
                        .all(|(stored, &i)| stored.0 == labels[i].0 && stored.1 == labels[i].1)
            })
        });
        let id = hit.unwrap_or_else(|| {
            let id = self.entries.len() as u32;
            self.entries.push(LabeledMetric {
                name: name.to_string(),
                labels: order
                    .iter()
                    .map(|&i| (labels[i].0.to_string(), labels[i].1.to_string()))
                    .collect(),
                value: kind.zero(),
            });
            self.by_hash.entry(h).or_default().push(id);
            id
        });
        &mut self.entries[id as usize].value
    }

    pub(crate) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let MetricValue::Counter(c) = self.intern(Kind::Counter, name, labels) {
            *c += delta;
        }
    }

    pub(crate) fn histogram_observe(&mut self, name: &str, value: u64) {
        if let MetricValue::Histogram(h) = self.intern(Kind::Histogram, name, &[]) {
            h.observe(value);
        }
    }

    pub(crate) fn sketch_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        if let MetricValue::Sketch(s) = self.intern(Kind::Sketch, name, labels) {
            s.observe(value);
        }
    }
}

/// Render the canonical export key: `name{k=v,k2=v2}` (label keys
/// sorted; `name` alone when the label set is empty). When `skip` is
/// given, that label is omitted from the rendering (used by the
/// per-tenant breakdown, which groups by the skipped label instead).
pub(crate) fn render_key(name: &str, labels: &[(String, String)], skip: Option<&str>) -> String {
    let kept: Vec<&(String, String)> = labels
        .iter()
        .filter(|(k, _)| Some(k.as_str()) != skip)
        .collect();
    if kept.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * kept.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in kept.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_order_insensitive() {
        let mut reg = Registry::default();
        reg.counter_add("swap.bytes", &[("tenant", "a"), ("device", "0")], 5);
        reg.counter_add("swap.bytes", &[("device", "0"), ("tenant", "a")], 7);
        reg.counter_add("swap.bytes", &[("device", "1"), ("tenant", "a")], 1);
        assert_eq!(reg.entries.len(), 2, "label order must not mint a series");
        assert_eq!(reg.entries[0].value, MetricValue::Counter(12));
        assert_eq!(reg.entries[0].labels[0].0, "device", "stored sorted by key");
    }

    #[test]
    fn kinds_and_label_sets_with_the_same_name_are_distinct() {
        let mut reg = Registry::default();
        reg.counter_add("m", &[], 1);
        reg.counter_add("m", &[("op", "x")], 1);
        reg.histogram_observe("m", 1);
        reg.sketch_observe("m", &[], 1);
        reg.sketch_observe("m", &[("op", "x")], 1);
        assert_eq!(reg.entries.len(), 5);
    }

    #[test]
    fn render_key_formats_and_skips() {
        let labels = vec![
            ("device".to_string(), "0".to_string()),
            ("tenant".to_string(), "a".to_string()),
        ];
        assert_eq!(render_key("m", &labels, None), "m{device=0,tenant=a}");
        assert_eq!(render_key("m", &labels, Some("tenant")), "m{device=0}");
        assert_eq!(render_key("m", &[], None), "m");
    }
}
