//! SLO specifications and the windowed monitor that evaluates them in
//! virtual time.
//!
//! An [`SloSpec`] names a latency metric, a quantile, a threshold, and
//! a window — e.g. `swapin.p99 < 40ms over 1s`. The [`SloMonitor`]
//! keeps one bounded-error [`LatencySketch`] per `(tenant, window)`;
//! when virtual time crosses a window boundary the closed window's
//! quantile is compared to the threshold and a typed [`SloBreach`]
//! (with an integer burn rate) is recorded for breaching tenants.
//! Everything runs on the virtual clock, so the same simulation always
//! yields the same breach list.

use std::collections::BTreeMap;

use crate::recorder::{counter_add_labeled, instant, is_enabled};
use crate::sketch::LatencySketch;

/// A parsed SLO: `<metric>.p<quantile> < <threshold> over <window>`.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Metric name the SLO constrains (e.g. `swapin`).
    pub metric: String,
    /// Quantile in `(0, 1]` (0.99 for `p99`).
    pub quantile: f64,
    /// Latency threshold, ns.
    pub threshold_ns: u64,
    /// Evaluation window, ns of virtual time.
    pub window_ns: u64,
}

/// Parse a duration like `40ms`, `1s`, `250us`, `900ns` into ns.
fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(format!("duration `{s}` needs a ns/us/ms/s suffix"));
    };
    let v: u64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration value `{num}`"))?;
    Ok(v.saturating_mul(mult))
}

impl SloSpec {
    /// Build a spec directly.
    pub fn new(metric: &str, quantile: f64, threshold_ns: u64, window_ns: u64) -> SloSpec {
        SloSpec {
            metric: metric.to_string(),
            quantile,
            threshold_ns,
            window_ns: window_ns.max(1),
        }
    }

    /// Parse the canonical text form, e.g. `swapin.p99 < 40ms over 1s`.
    /// Supported quantile suffixes: `p50`, `p90`, `p95`, `p99`, `p999`.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let (lhs, rest) = s
            .split_once('<')
            .ok_or_else(|| format!("SLO `{s}` must contain `<`"))?;
        let (threshold, window) = rest
            .split_once(" over ")
            .ok_or_else(|| format!("SLO `{s}` must contain ` over <window>`"))?;
        let lhs = lhs.trim();
        let (metric, q) = lhs
            .rsplit_once(".p")
            .ok_or_else(|| format!("SLO metric `{lhs}` must end in .p50/.p99/.p999"))?;
        let quantile = match q {
            "50" => 0.50,
            "90" => 0.90,
            "95" => 0.95,
            "99" => 0.99,
            "999" => 0.999,
            other => return Err(format!("unsupported quantile p{other}")),
        };
        Ok(SloSpec {
            metric: metric.trim().to_string(),
            quantile,
            threshold_ns: parse_duration_ns(threshold)?,
            window_ns: parse_duration_ns(window)?.max(1),
        })
    }

    /// Render back to the canonical text form.
    pub fn render(&self) -> String {
        let q = if (self.quantile - 0.999).abs() < 1e-9 {
            "999".to_string()
        } else {
            format!("{:.0}", self.quantile * 100.0)
        };
        format!(
            "{}.p{} < {}ns over {}ns",
            self.metric, q, self.threshold_ns, self.window_ns
        )
    }
}

/// One SLO violation: a closed window whose quantile exceeded the
/// threshold for one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct SloBreach {
    /// Tenant whose window breached.
    pub tenant: String,
    /// Metric name from the spec.
    pub metric: String,
    /// Quantile from the spec.
    pub quantile: f64,
    /// Window start, virtual ns.
    pub window_start_ns: u64,
    /// Window end (exclusive), virtual ns.
    pub window_end_ns: u64,
    /// The quantile observed over the window, ns.
    pub observed_ns: u64,
    /// The spec threshold, ns.
    pub threshold_ns: u64,
    /// `observed / threshold` in thousandths (1000 = exactly at the
    /// threshold; 2500 = 2.5× over). Integer so exports and assertions
    /// stay deterministic.
    pub burn_rate_milli: u64,
    /// Observations in the window.
    pub samples: u64,
}

impl SloBreach {
    /// One-line human-readable form (used in chaos failure reports).
    pub fn render(&self) -> String {
        format!(
            "tenant={} {} observed={}ns threshold={}ns burn={}.{:03}x window=[{}ns,{}ns) samples={}",
            self.tenant,
            self.metric,
            self.observed_ns,
            self.threshold_ns,
            self.burn_rate_milli / 1000,
            self.burn_rate_milli % 1000,
            self.window_start_ns,
            self.window_end_ns,
            self.samples,
        )
    }
}

/// A per-tenant window being accumulated.
struct TenantWindow {
    start_ns: u64,
    sketch: LatencySketch,
}

/// Evaluates one [`SloSpec`] over per-tenant windows of virtual time.
///
/// Feed it `(tenant, now, latency)` observations from the hot path;
/// call [`SloMonitor::flush`] at end of run to close the final partial
/// windows. Breach evaluation happens lazily when an observation (or
/// flush) crosses a window boundary, so the monitor costs one sketch
/// update per observation.
pub struct SloMonitor {
    spec: SloSpec,
    windows: BTreeMap<String, TenantWindow>,
    breaches: Vec<SloBreach>,
}

impl SloMonitor {
    /// New monitor for `spec`.
    pub fn new(spec: SloSpec) -> SloMonitor {
        SloMonitor {
            spec,
            windows: BTreeMap::new(),
            breaches: Vec::new(),
        }
    }

    /// The spec under evaluation.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    fn window_start(&self, now_ns: u64) -> u64 {
        now_ns - now_ns % self.spec.window_ns
    }

    fn evaluate(spec: &SloSpec, breaches: &mut Vec<SloBreach>, tenant: &str, w: &TenantWindow) {
        if w.sketch.count() == 0 {
            return;
        }
        let observed = w.sketch.quantile(spec.quantile);
        if observed <= spec.threshold_ns {
            return;
        }
        let burn = (observed as u128 * 1000 / spec.threshold_ns.max(1) as u128) as u64;
        let breach = SloBreach {
            tenant: tenant.to_string(),
            metric: spec.metric.clone(),
            quantile: spec.quantile,
            window_start_ns: w.start_ns,
            window_end_ns: w.start_ns + spec.window_ns,
            observed_ns: observed,
            threshold_ns: spec.threshold_ns,
            burn_rate_milli: burn,
            samples: w.sketch.count(),
        };
        if is_enabled() {
            counter_add_labeled("slo.breaches", &[("tenant", tenant)], 1);
            instant(&format!("slo.breach {}", breach.render()));
        }
        breaches.push(breach);
    }

    /// Record one latency observation for `tenant` at virtual time
    /// `now_ns`. Closes (and evaluates) the tenant's previous window if
    /// `now_ns` has moved past it.
    pub fn observe(&mut self, tenant: &str, now_ns: u64, latency_ns: u64) {
        let start = self.window_start(now_ns);
        let spec = &self.spec;
        if let Some(w) = self.windows.get_mut(tenant) {
            if start > w.start_ns {
                Self::evaluate(spec, &mut self.breaches, tenant, w);
                w.start_ns = start;
                w.sketch.clear();
            }
            w.sketch.observe(latency_ns);
        } else {
            let mut sketch = LatencySketch::new();
            sketch.observe(latency_ns);
            self.windows.insert(
                tenant.to_string(),
                TenantWindow {
                    start_ns: start,
                    sketch,
                },
            );
        }
    }

    /// Close and evaluate every open window (end of run). The monitor
    /// can keep observing afterwards; subsequent observations open
    /// fresh windows.
    pub fn flush(&mut self) {
        let spec = self.spec.clone();
        for (tenant, w) in self.windows.iter_mut() {
            Self::evaluate(&spec, &mut self.breaches, tenant, w);
            w.sketch.clear();
        }
    }

    /// All breaches recorded so far, in evaluation order.
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_errors() {
        let s = SloSpec::parse("swapin.p99 < 40ms over 1s").unwrap();
        assert_eq!(s.metric, "swapin");
        assert_eq!(s.quantile, 0.99);
        assert_eq!(s.threshold_ns, 40_000_000);
        assert_eq!(s.window_ns, 1_000_000_000);
        let s = SloSpec::parse("a.b.p999 < 250us over 10ms").unwrap();
        assert_eq!(s.metric, "a.b");
        assert_eq!(s.quantile, 0.999);
        assert_eq!(s.threshold_ns, 250_000);
        assert!(SloSpec::parse("no-comparison").is_err());
        assert!(SloSpec::parse("m.p42 < 1ms over 1s").is_err());
        assert!(SloSpec::parse("m.p99 < 1parsec over 1s").is_err());
    }

    #[test]
    fn breach_fires_only_when_quantile_exceeds_threshold() {
        let mut m = SloMonitor::new(SloSpec::new("swapin", 0.99, 1000, 1_000_000));
        // Window 0: all observations under threshold.
        for i in 0..100 {
            m.observe("a", i * 100, 500);
        }
        // Window 1: tail over threshold.
        for i in 0..100 {
            let lat = if i >= 90 { 5000 } else { 500 };
            m.observe("a", 1_000_000 + i * 100, lat);
        }
        m.flush();
        assert_eq!(m.breaches().len(), 1);
        let b = &m.breaches()[0];
        assert_eq!(b.tenant, "a");
        assert_eq!(b.window_start_ns, 1_000_000);
        assert!(b.observed_ns > 1000);
        assert!(b.burn_rate_milli > 1000, "burn {}", b.burn_rate_milli);
        assert_eq!(b.samples, 100);
    }

    #[test]
    fn tenants_are_windowed_independently() {
        let mut m = SloMonitor::new(SloSpec::new("swapin", 0.50, 1000, 1_000_000));
        m.observe("fast", 10, 100);
        m.observe("slow", 10, 9000);
        m.flush();
        let tenants: Vec<&str> = m.breaches().iter().map(|b| b.tenant.as_str()).collect();
        assert_eq!(tenants, vec!["slow"]);
    }

    #[test]
    fn flush_is_idempotent_per_window() {
        let mut m = SloMonitor::new(SloSpec::new("m", 0.50, 10, 1000));
        m.observe("t", 5, 100);
        m.flush();
        m.flush(); // window already cleared: no double-count
        assert_eq!(m.breaches().len(), 1);
    }
}
