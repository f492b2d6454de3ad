//! COI runtime configuration.

use simkernel::time::{secs, us};
use simkernel::SimDuration;

/// Configuration of the COI runtime, including the Snapify extension
/// switches.
#[derive(Clone, Debug)]
pub struct CoiConfig {
    /// Enable the Snapify modifications to COI: drain locks around every
    /// SCIF use site, blocking pipeline sends, daemon snapshot services.
    /// With this off, COI behaves like stock MPSS — offload apps run, but
    /// pause/capture are unavailable. Fig 9 measures exactly this toggle.
    pub snapify_hooks: bool,
    /// Virtual-time cost of one Snapify hook crossing (lock acquire +
    /// release + the synchronization a formerly-asynchronous send now
    /// performs). Charged only when `snapify_hooks` is on.
    pub hook_cost: SimDuration,
    /// Poll interval used by drain waits and the daemon monitor thread.
    pub poll_interval: SimDuration,
    /// Watchdog deadline for one stage of an in-flight Snapify request.
    /// Generous on purpose: transient chaos-plane faults absorbed by
    /// the transport retry policies merely slow a stage down and must
    /// not trip the watchdog. `SimDuration::ZERO` disables it.
    pub watchdog_timeout: SimDuration,
    /// Deadline extensions (each doubling the window) the watchdog
    /// grants before it surfaces the stuck request as a typed failure
    /// reply instead of hanging the requester forever.
    pub watchdog_retries: u32,
}

impl Default for CoiConfig {
    fn default() -> CoiConfig {
        CoiConfig {
            snapify_hooks: true,
            hook_cost: us(7),
            poll_interval: us(200),
            watchdog_timeout: secs(300),
            watchdog_retries: 2,
        }
    }
}

impl CoiConfig {
    /// Stock MPSS: no Snapify support (the Fig 9 baseline).
    pub fn stock() -> CoiConfig {
        CoiConfig {
            snapify_hooks: false,
            ..CoiConfig::default()
        }
    }

    /// Charge one hook crossing if the hooks are enabled.
    pub fn charge_hook(&self) {
        if let Some(cost) = self.hook_charge() {
            simkernel::sleep(cost);
        }
    }

    /// What one hook crossing costs, if it costs anything.
    pub(crate) fn hook_charge(&self) -> Option<SimDuration> {
        (self.snapify_hooks && self.hook_cost > SimDuration::ZERO).then_some(self.hook_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{now, Kernel};

    #[test]
    fn stock_disables_hooks() {
        assert!(!CoiConfig::stock().snapify_hooks);
        assert!(CoiConfig::default().snapify_hooks);
    }

    #[test]
    fn hook_charge_only_when_enabled() {
        Kernel::run_root(|| {
            let stock = CoiConfig::stock();
            let t0 = now();
            stock.charge_hook();
            assert_eq!(now(), t0);
            let snap = CoiConfig::default();
            snap.charge_hook();
            assert_eq!(now() - t0, snap.hook_cost);
        });
    }
}
