//! # snapify-obs — deterministic virtual-time tracing and metrics
//!
//! The observability layer of the Snapify reproduction. Everything the
//! paper measures is phase-level timing — pause/capture/resume overheads
//! (Fig 9/10), restore/swap/migrate breakdowns, snapshot I/O cost per
//! backend (Table 3) — so this crate records:
//!
//! * **structured spans** ([`span!`]) — typed begin/end events stamped
//!   with the *virtual* clock, nested parent/child per simulated thread;
//! * one **metrics registry** — counters, fixed-bucket
//!   (power-of-two) histograms and bounded-error percentile sketches
//!   ([`LatencySketch`]) keyed by `(name, labels)` with interned label
//!   sets; an unlabeled metric is the empty label set, and a counter's
//!   total is the sum over its label sets ([`Summary`]);
//! * a **bounded flight recorder** — the event log is a fixed-capacity
//!   ring ([`FLIGHT_CAPACITY`] events) so always-on runs cost
//!   O(capacity) memory and failure dumps carry the last-N events;
//! * an **SLO monitor** ([`SloMonitor`]) — windowed per-tenant quantile
//!   checks in virtual time, emitting typed [`SloBreach`] records;
//! * **exporters** — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) and a plain-text / JSON summary reproducing the
//!   paper's stacked-bar phase breakdowns and per-backend I/O tables;
//! * one **JSON value** ([`Json`]) — the workspace's one JSON writer and
//!   reader, which the exporters and every `BENCH_*.json` record use.
//!
//! ## Determinism
//!
//! All timestamps come from an installed [`Clock`] (the simulation
//! kernel installs `simkernel::now()`), events are appended in scheduler
//! order, and every export iterates in sorted key order — so two
//! identical simulation runs export **byte-identical** traces and
//! summaries. No wall-clock time or randomness is ever consulted.
//!
//! ## Cost when disabled
//!
//! Recording is disabled by default. Every recording entry point checks
//! one relaxed atomic load and returns; the [`span!`] macro does not even
//! format its fields unless recording is enabled.
//!
//! This crate is re-exported as `simkernel::obs`, which is how the rest
//! of the workspace uses it.

#![warn(missing_docs, unreachable_pub)]

mod event;
mod export;
mod json;
mod labels;
mod recorder;
mod sketch;
mod slo;

pub use event::{Event, SpanId};
pub use export::{chrome_trace, summary_json, summary_text, Summary};
pub use json::{Json, ParseError};
pub use labels::{LabeledMetric, MetricValue};
pub use recorder::{
    counter_add, counter_add_labeled, disable, enable, events, events_total, flight_tail,
    histogram_observe, install_clock, instant, is_enabled, meta, reset, set_meta, sketch_observe,
    sketch_observe_labeled, span_begin, Clock, DurationStat, Histogram, SpanGuard, FLIGHT_CAPACITY,
};
pub use sketch::LatencySketch;
pub use slo::{SloBreach, SloMonitor, SloSpec};

/// Open a span: records a typed begin event now and the matching end
/// event when the returned guard is dropped, both stamped with the
/// virtual clock and nested under the calling simulated thread's
/// innermost open span.
///
/// ```
/// use snapify_obs as obs;
/// obs::enable();
/// {
///     let _g = obs::span!("snapify.pause", device = 0, pid = 42);
///     // ... phase body ...
/// } // end recorded here
/// obs::disable();
/// ```
///
/// When recording is disabled the macro returns an inert guard without
/// evaluating or formatting any field expression.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_begin($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::span_begin(
                $name,
                vec![$((stringify!($key), format!("{}", $val))),+],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    };
}
