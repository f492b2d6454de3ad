//! The hand-off probe: what one thread hand-off costs on this host,
//! right now.
//!
//! On a shared VM the cost of parking one OS thread and waking another
//! drifts by ±15% over minutes and spikes for seconds, and the
//! simulator — one OS thread per simulated thread, exactly one running —
//! is made of such hand-offs: run to run, wall time follows the probe
//! (correlation 0.6–0.9) while an arithmetic loop barely moves. The
//! probe plays the kernel's own pattern (`Mutex<bool>` + `Condvar`, one
//! slot per thread) between two threads on the pinned CPU and reports
//! ns per round trip. Workloads take a probe point between repetitions;
//! the run's median point is the host's level, and host times are
//! reported scaled to [`REFERENCE_NS`]. The probe is the benchmark's
//! own code, so it is the same on both sides of any comparison.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The hand-off cost host times are scaled to, ns per round trip —
/// about what this host measures when its neighbours are quiet.
pub const REFERENCE_NS: f64 = 2000.0;

/// Round trips per probe point (about 20 ms).
const ROUND_TRIPS: u32 = 10_000;

struct Slot {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            granted: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn grant(&self) {
        *self.granted.lock().expect("probe slot poisoned") = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut granted = self.granted.lock().expect("probe slot poisoned");
        while !*granted {
            granted = self.cv.wait(granted).expect("probe slot poisoned");
        }
        *granted = false;
    }
}

struct Shared {
    ping: Slot,
    pong: Slot,
    stop: AtomicBool,
}

/// Two threads handing a token back and forth; collects probe points.
pub struct Probe {
    shared: Arc<Shared>,
    partner: Option<JoinHandle<()>>,
    points_ns: Vec<f64>,
}

impl Probe {
    /// Spawn the partner thread (it inherits the caller's CPU pinning).
    pub fn start() -> Probe {
        let shared = Arc::new(Shared {
            ping: Slot::new(),
            pong: Slot::new(),
            stop: AtomicBool::new(false),
        });
        let partner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                shared.ping.wait();
                // SeqCst: pairs with the store in `drop`, which happens
                // before the final grant that wakes this thread.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                shared.pong.grant();
            })
        };
        Probe {
            shared,
            partner: Some(partner),
            points_ns: Vec::new(),
        }
    }

    /// Take one probe point.
    pub fn point(&mut self) {
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.shared.ping.grant();
            self.shared.pong.wait();
        }
        self.points_ns
            .push(start.elapsed().as_nanos() as f64 / f64::from(ROUND_TRIPS));
    }

    /// The points taken so far, ns per round trip.
    pub fn points_ns(&self) -> &[f64] {
        &self.points_ns
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the partner without panicking if it died holding a lock.
        if let Ok(mut granted) = self.shared.ping.granted.lock() {
            *granted = true;
        }
        self.shared.ping.cv.notify_one();
        if let Some(partner) = self.partner.take() {
            let _ = partner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_points_are_positive_and_the_partner_is_joined() {
        let mut probe = Probe::start();
        probe.point();
        probe.point();
        assert_eq!(probe.points_ns().len(), 2);
        assert!(probe.points_ns().iter().all(|ns| *ns > 0.0));
        drop(probe); // must not hang: joins the partner
    }
}
