//! The deterministic fault-injection plane (`simchaos`).
//!
//! Real Xeon Phi deployments fail in mundane ways the paper's protocol
//! must survive: PCIe transfers are replayed after CRC errors, the host
//! disk fills mid-snapshot, NFS mounts stall, a card runs out of
//! physical memory at the worst moment. This module makes those events
//! *schedulable*: a [`FaultSchedule`] is a declarative list of
//! `(virtual time, target, fault)` entries injected at world boot, and
//! every component of the platform consults the shared [`FaultPlane`]
//! at its operation sites.
//!
//! Two properties make this a reproducibility tool rather than a fuzzer:
//!
//! * **Determinism.** Faults fire on the *first matching operation at or
//!   after* their virtual time. Since the simulation is a deterministic
//!   function of its inputs, `(program, schedule, scheduler seed)`
//!   always produces the same run — a failing chaos case replays
//!   exactly from its one-line repro.
//! * **Replayability.** [`FaultSchedule`] round-trips through a compact
//!   text form (see [`FaultSchedule::parse`]) designed to be pasted into
//!   an environment variable (`SIMCHAOS_FAULTS=…`).
//!
//! Every injection is counted through `snapify-obs`
//! (`chaos.injected{fault}`), so a run's fault activity is visible in the
//! metrics dump even when everything is survived silently.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use simkernel::obs;
use simkernel::{SimDuration, SimTime};

use crate::node::NodeId;

/// What kind of fault to inject. Kinds are target-specific: a kind
/// scheduled against a target that cannot exhibit it (e.g. [`Oom`] on a
/// bus) is ignored by the component that consumes it.
///
/// [`Oom`]: FaultKind::Oom
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// PCIe CRC error: the transfer is replayed once at link level
    /// (survived transparently, at 2× the transfer cost).
    BusError,
    /// Latency spike: the next transfer on the link stalls this long
    /// before starting.
    BusDelay(SimDuration),
    /// The next file-system write fails with [`crate::FsError::DiskFull`].
    DiskFull,
    /// The next file-system write persists only half its bytes and
    /// fails with [`crate::FsError::ShortWrite`].
    ShortWrite,
    /// The next memory-pool allocation spuriously fails.
    Oom,
    /// The next NFS round-trip stalls this long, then times out.
    NfsTimeout(SimDuration),
    /// The scp stream's connection resets mid-transfer.
    ConnReset,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BusError => write!(f, "buserr"),
            FaultKind::BusDelay(d) => write!(f, "busdelay={}", d.as_nanos() / 1_000),
            FaultKind::DiskFull => write!(f, "diskfull"),
            FaultKind::ShortWrite => write!(f, "shortwrite"),
            FaultKind::Oom => write!(f, "oom"),
            FaultKind::NfsTimeout(d) => write!(f, "nfstimeout={}", d.as_nanos() / 1_000),
            FaultKind::ConnReset => write!(f, "connreset"),
        }
    }
}

/// A count of microseconds; one whose nanoseconds overflow the clock is
/// as bad as one that is not a number.
fn parse_us(s: &str) -> Option<SimDuration> {
    let n: u64 = s.parse().ok()?;
    n.checked_mul(1_000).map(SimDuration::from_nanos)
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        let (name, arg) = match s.split_once('=') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let arg_us = |what: &str| -> Result<SimDuration, String> {
            let a = arg.ok_or_else(|| format!("{what} needs '=<microseconds>'"))?;
            parse_us(a).ok_or_else(|| format!("bad duration '{a}'"))
        };
        match name {
            "buserr" => Ok(FaultKind::BusError),
            "busdelay" => Ok(FaultKind::BusDelay(arg_us("busdelay")?)),
            "diskfull" => Ok(FaultKind::DiskFull),
            "shortwrite" => Ok(FaultKind::ShortWrite),
            "oom" => Ok(FaultKind::Oom),
            "nfstimeout" => Ok(FaultKind::NfsTimeout(arg_us("nfstimeout")?)),
            "connreset" => Ok(FaultKind::ConnReset),
            other => Err(format!("unknown fault kind '{other}'")),
        }
    }

    /// Short label for per-kind observability counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BusError => "buserr",
            FaultKind::BusDelay(_) => "busdelay",
            FaultKind::DiskFull => "diskfull",
            FaultKind::ShortWrite => "shortwrite",
            FaultKind::Oom => "oom",
            FaultKind::NfsTimeout(_) => "nfstimeout",
            FaultKind::ConnReset => "connreset",
        }
    }
}

/// Which component a fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The PCIe link of coprocessor `index`.
    Bus(usize),
    /// The file system of a node.
    Fs(NodeId),
    /// The memory pool of a node.
    Mem(NodeId),
    /// The NFS transport (any mount).
    Nfs,
    /// The scp transport (any stream).
    Scp,
    /// The cluster network interface of fleet node `index` (chunk-pool
    /// transfers and control traffic to/from that node).
    Net(usize),
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Bus(i) => write!(f, "bus{i}"),
            FaultTarget::Fs(n) => write!(f, "fs.{n}"),
            FaultTarget::Mem(n) => write!(f, "mem.{n}"),
            FaultTarget::Nfs => write!(f, "nfs"),
            FaultTarget::Scp => write!(f, "scp"),
            FaultTarget::Net(i) => write!(f, "net{i}"),
        }
    }
}

impl FaultTarget {
    fn parse(s: &str) -> Result<FaultTarget, String> {
        let node = |n: &str| -> Result<NodeId, String> {
            if n == "host" {
                Ok(NodeId::HOST)
            } else if let Some(i) = n.strip_prefix("mic") {
                // Node ids are `u16` with the host at 0.
                let i: u16 = i.parse().map_err(|_| format!("bad node '{n}'"))?;
                let id = i.checked_add(1).ok_or_else(|| format!("bad node '{n}'"))?;
                Ok(NodeId(id))
            } else {
                Err(format!("bad node '{n}' (expected 'host' or 'mic<i>')"))
            }
        };
        if let Some(i) = s.strip_prefix("bus") {
            let i: usize = i.parse().map_err(|_| format!("bad bus index in '{s}'"))?;
            Ok(FaultTarget::Bus(i))
        } else if let Some(n) = s.strip_prefix("fs.") {
            Ok(FaultTarget::Fs(node(n)?))
        } else if let Some(n) = s.strip_prefix("mem.") {
            Ok(FaultTarget::Mem(node(n)?))
        } else if s == "nfs" {
            Ok(FaultTarget::Nfs)
        } else if s == "scp" {
            Ok(FaultTarget::Scp)
        } else if let Some(i) = s.strip_prefix("net") {
            let i: usize = i.parse().map_err(|_| format!("bad net index in '{s}'"))?;
            Ok(FaultTarget::Net(i))
        } else {
            Err(format!("unknown fault target '{s}'"))
        }
    }
}

/// One scheduled fault: fires on the first operation against `target`
/// at or after virtual time `at`. One-shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// Earliest virtual time at which this fault may fire.
    pub at: SimTime,
    /// The component it strikes.
    pub target: FaultTarget,
    /// What happens.
    pub fault: FaultKind,
}

impl fmt::Display for FaultEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}",
            self.at.as_nanos() / 1_000,
            self.target,
            self.fault
        )
    }
}

/// A declarative list of faults to inject into a world.
///
/// The text form is `<at_us>:<target>:<kind>` entries joined with `;`,
/// e.g. `1500:bus0:buserr;20000:fs.mic0:diskfull;30000:nfs:nfstimeout=500`.
/// `Display` and [`FaultSchedule::parse`] round-trip, which is the
/// replay contract: a failing chaos run prints its schedule in this
/// form and `SIMCHAOS_FAULTS=<that string>` reproduces it exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The scheduled faults (order is irrelevant; firing order is
    /// decided by operation order at runtime).
    pub entries: Vec<FaultEntry>,
}

impl FaultSchedule {
    /// The empty schedule (no faults).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Add an entry (builder-style).
    pub fn with(mut self, at: SimTime, target: FaultTarget, fault: FaultKind) -> FaultSchedule {
        self.entries.push(FaultEntry { at, target, fault });
        self
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse the text form produced by `Display` (empty string = empty
    /// schedule).
    pub fn parse(s: &str) -> Result<FaultSchedule, String> {
        let mut entries = Vec::new();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let mut it = part.splitn(3, ':');
            let (t, tg, k) = match (it.next(), it.next(), it.next()) {
                (Some(t), Some(tg), Some(k)) => (t, tg, k),
                _ => return Err(format!("bad fault entry '{part}' (want at:target:kind)")),
            };
            let at = parse_us(t).ok_or_else(|| format!("bad fault time '{t}' in '{part}'"))?;
            entries.push(FaultEntry {
                at: SimTime::ZERO + at,
                target: FaultTarget::parse(tg)?,
                fault: FaultKind::parse(k)?,
            });
        }
        Ok(FaultSchedule { entries })
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

struct PlaneInner {
    schedule: FaultSchedule,
    /// Which entries have fired (indices into `schedule.entries`).
    fired: Mutex<Vec<bool>>,
}

/// The shared, queryable fault plane of one world. Cheap to clone.
///
/// Components are wired to the plane at construction (see
/// `PhiServer::new_with_faults`) and call [`FaultPlane::take`] at their
/// operation sites; an empty plane costs one branch per query.
#[derive(Clone)]
pub struct FaultPlane {
    inner: Arc<PlaneInner>,
}

impl FaultPlane {
    /// Build a plane from a schedule.
    pub fn new(schedule: FaultSchedule) -> FaultPlane {
        let n = schedule.entries.len();
        FaultPlane {
            inner: Arc::new(PlaneInner {
                schedule,
                fired: Mutex::new(vec![false; n]),
            }),
        }
    }

    /// An empty plane (injects nothing).
    pub fn none() -> FaultPlane {
        FaultPlane::new(FaultSchedule::none())
    }

    /// Whether this plane has no scheduled faults at all.
    pub fn is_empty(&self) -> bool {
        self.inner.schedule.is_empty()
    }

    /// The schedule this plane was built from.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.inner.schedule
    }

    /// Consume the first unfired fault aimed at `target` whose time has
    /// come (entry time ≤ current virtual time). Returns `None` outside
    /// a simulation, when the plane is empty, or when nothing is due.
    /// Each injection bumps the `chaos.injected{fault=<kind>}` counter.
    pub fn take(&self, target: FaultTarget) -> Option<FaultKind> {
        if self.inner.schedule.is_empty() || !simkernel::in_simulation() {
            return None;
        }
        let now = simkernel::now();
        let mut fired = self.inner.fired.lock().unwrap();
        for (i, e) in self.inner.schedule.entries.iter().enumerate() {
            if !fired[i] && e.target == target && e.at <= now {
                fired[i] = true;
                obs::counter_add_labeled("chaos.injected", &[("fault", e.fault.label())], 1);
                return Some(e.fault);
            }
        }
        None
    }

    /// Number of faults that have fired so far.
    pub fn fired_count(&self) -> usize {
        self.inner
            .fired
            .lock()
            .unwrap()
            .iter()
            .filter(|f| **f)
            .count()
    }
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlane")
            .field("schedule", &self.inner.schedule.to_string())
            .field("fired", &self.fired_count())
            .finish()
    }
}

/// A lazily-attached fault hookup: components embed one of these and
/// the world wires it once at boot. Querying an unwired hookup is free.
pub(crate) struct FaultHook {
    slot: OnceLock<(FaultPlane, FaultTarget)>,
}

impl FaultHook {
    pub(crate) fn new() -> FaultHook {
        FaultHook {
            slot: OnceLock::new(),
        }
    }

    pub(crate) fn attach(&self, plane: &FaultPlane, target: FaultTarget) {
        // Re-attachment is ignored (first wiring wins): worlds are wired
        // exactly once at boot.
        let _ = self.slot.set((plane.clone(), target));
    }

    pub(crate) fn take(&self) -> Option<FaultKind> {
        let (plane, target) = self.slot.get()?;
        plane.take(*target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::{ms, us};
    use simkernel::Kernel;

    #[test]
    fn schedule_text_roundtrip() {
        let s = FaultSchedule::none()
            .with(
                SimTime::ZERO + ms(1) + us(500),
                FaultTarget::Bus(0),
                FaultKind::BusError,
            )
            .with(
                SimTime::ZERO + ms(20),
                FaultTarget::Fs(NodeId::device(0)),
                FaultKind::DiskFull,
            )
            .with(
                SimTime::ZERO + ms(30),
                FaultTarget::Nfs,
                FaultKind::NfsTimeout(us(500)),
            )
            .with(
                SimTime::ZERO,
                FaultTarget::Mem(NodeId::HOST),
                FaultKind::Oom,
            )
            .with(
                SimTime::ZERO + us(7),
                FaultTarget::Scp,
                FaultKind::ConnReset,
            )
            .with(
                SimTime::ZERO + us(9),
                FaultTarget::Bus(1),
                FaultKind::BusDelay(ms(2)),
            )
            .with(
                SimTime::ZERO + us(11),
                FaultTarget::Net(3),
                FaultKind::ConnReset,
            );
        let text = s.to_string();
        assert_eq!(
            text,
            "1500:bus0:buserr;20000:fs.mic0:diskfull;30000:nfs:nfstimeout=500;0:mem.host:oom;7:scp:connreset;9:bus1:busdelay=2000;11:net3:connreset"
        );
        assert_eq!(FaultSchedule::parse(&text).unwrap(), s);
        assert_eq!(FaultSchedule::parse("").unwrap(), FaultSchedule::none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSchedule::parse("nonsense").is_err());
        assert!(FaultSchedule::parse("12:bus0:frobnicate").is_err());
        assert!(FaultSchedule::parse("12:frob:oom").is_err());
        assert!(FaultSchedule::parse("x:bus0:buserr").is_err());
        assert!(
            FaultSchedule::parse("5:nfs:nfstimeout").is_err(),
            "missing duration arg"
        );
    }

    use proptest::prelude::*;

    fn entry() -> impl Strategy<Value = FaultEntry> {
        // Whole microseconds: the text form's resolution.
        let micros = || (0u64..(u64::MAX / 1_000)).prop_map(us);
        let node = (0u16..u16::MAX).prop_map(NodeId);
        let target = (0u64..6, any::<u16>(), node).prop_map(|(kind, i, node)| match kind {
            0 => FaultTarget::Bus(i as usize),
            1 => FaultTarget::Fs(node),
            2 => FaultTarget::Mem(node),
            3 => FaultTarget::Nfs,
            4 => FaultTarget::Scp,
            _ => FaultTarget::Net(i as usize),
        });
        let fault = (0u64..7, micros()).prop_map(|(kind, d)| match kind {
            0 => FaultKind::BusError,
            1 => FaultKind::BusDelay(d),
            2 => FaultKind::DiskFull,
            3 => FaultKind::ShortWrite,
            4 => FaultKind::Oom,
            5 => FaultKind::NfsTimeout(d),
            _ => FaultKind::ConnReset,
        });
        (micros(), target, fault).prop_map(|(at, target, fault)| FaultEntry {
            at: SimTime::ZERO + at,
            target,
            fault,
        })
    }

    proptest! {
        #[test]
        fn schedule_text_round_trips(entries in prop::collection::vec(entry(), 0..6)) {
            let s = FaultSchedule { entries };
            prop_assert_eq!(FaultSchedule::parse(&s.to_string()), Ok(s));
        }

        #[test]
        fn parse_never_panics(
            noise in prop::collection::vec(any::<u8>(), 0..48),
            numbers in prop::collection::vec(prop_oneof![0u64..70_000, any::<u64>()], 3),
            shape in 0usize..6,
        ) {
            // Raw noise dies early; a well-formed entry around hostile
            // numbers reaches the time, index and duration arithmetic.
            let noise = String::from_utf8_lossy(&noise).into_owned();
            let (a, b, c) = (numbers[0], numbers[1], numbers[2]);
            let shaped = match shape {
                0 => format!("{a}:bus{b}:busdelay={c}"),
                1 => format!("{a}:fs.mic{b}:nfstimeout={c}"),
                2 => format!("{a}:mem.mic{b}:oom"),
                3 => format!("{a}:net{b}:connreset;{noise}"),
                4 => format!("{a}:{noise}:{c}"),
                _ => format!("{noise};{a}:nfs:{noise}={c}"),
            };
            for text in [noise, shaped] {
                if let Ok(s) = FaultSchedule::parse(&text) {
                    // Whatever parses prints back to something that
                    // parses to the same schedule.
                    prop_assert_eq!(FaultSchedule::parse(&s.to_string()), Ok(s));
                }
            }
        }
    }

    #[test]
    fn faults_fire_once_at_or_after_their_time() {
        Kernel::run_root(|| {
            let plane = FaultPlane::new(
                FaultSchedule::none()
                    .with(
                        SimTime::ZERO + ms(5),
                        FaultTarget::Nfs,
                        FaultKind::NfsTimeout(ms(1)),
                    )
                    .with(SimTime::ZERO, FaultTarget::Scp, FaultKind::ConnReset),
            );
            // Not yet due.
            assert_eq!(plane.take(FaultTarget::Nfs), None);
            // Due immediately; fires exactly once.
            assert_eq!(plane.take(FaultTarget::Scp), Some(FaultKind::ConnReset));
            assert_eq!(plane.take(FaultTarget::Scp), None);
            simkernel::sleep(ms(5));
            // Other targets never see it.
            assert_eq!(plane.take(FaultTarget::Bus(0)), None);
            assert_eq!(
                plane.take(FaultTarget::Nfs),
                Some(FaultKind::NfsTimeout(ms(1)))
            );
            assert_eq!(plane.fired_count(), 2);
        });
    }

    #[test]
    fn empty_plane_is_inert() {
        Kernel::run_root(|| {
            let plane = FaultPlane::none();
            assert!(plane.is_empty());
            assert_eq!(plane.take(FaultTarget::Nfs), None);
        });
    }
}
