//! The typed event model: what the string labels of the simulation
//! kernel's scheduling trace grow up into.

/// Identifier of a span, unique within one recording session. `0` is
/// reserved for "no span" (used as the parent of top-level spans).
pub type SpanId = u64;

/// A typed observability event, stamped with virtual time.
///
/// Events are recorded in scheduler order, which under the simulation
/// kernel's single-token discipline is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanBegin {
        /// This span's id.
        id: SpanId,
        /// Innermost span already open on the same simulated thread, or
        /// `0` for a top-level span.
        parent: SpanId,
        /// Simulated thread that opened the span.
        tid: u32,
        /// Virtual time of the open, in nanoseconds.
        t_ns: u64,
        /// Phase name (e.g. `"snapify.pause"`).
        name: &'static str,
        /// Structured fields attached at open.
        fields: Vec<(&'static str, String)>,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the span being closed.
        id: SpanId,
        /// Simulated thread that closed the span.
        tid: u32,
        /// Virtual time of the close, in nanoseconds.
        t_ns: u64,
        /// Phase name, repeated for self-contained consumption.
        name: &'static str,
    },
    /// A point event (the typed form of the kernel's string trace
    /// labels).
    Instant {
        /// Simulated thread the event concerns.
        tid: u32,
        /// Virtual time, in nanoseconds.
        t_ns: u64,
        /// Event label.
        label: String,
    },
}

impl Event {
    /// Virtual timestamp of the event, in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match self {
            Event::SpanBegin { t_ns, .. }
            | Event::SpanEnd { t_ns, .. }
            | Event::Instant { t_ns, .. } => *t_ns,
        }
    }

    /// Simulated thread the event concerns.
    pub fn tid(&self) -> u32 {
        match self {
            Event::SpanBegin { tid, .. }
            | Event::SpanEnd { tid, .. }
            | Event::Instant { tid, .. } => *tid,
        }
    }

    /// Render the event as one human-readable line:
    /// `t=<ns> tid=<tid> <kind> <name> [fields]`. Used by the flight
    /// recorder's dump tail.
    pub(crate) fn one_line(&self) -> String {
        use std::fmt::Write as _;
        match self {
            Event::SpanBegin {
                id,
                parent,
                tid,
                t_ns,
                name,
                fields,
            } => {
                let mut s = format!("t={t_ns} tid={tid} B {name} span={id} parent={parent}");
                for (k, v) in fields {
                    let _ = write!(s, " {k}={v}");
                }
                s
            }
            Event::SpanEnd {
                id,
                tid,
                t_ns,
                name,
            } => {
                format!("t={t_ns} tid={tid} E {name} span={id}")
            }
            Event::Instant { tid, t_ns, label } => {
                format!("t={t_ns} tid={tid} i {label}")
            }
        }
    }
}
