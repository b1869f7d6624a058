//! Cross-machine port annotation for QoS pressure signals.
//!
//! The pressure bit (§ QoS backpressure: completions carry a
//! "queue is hot" flag that drives AIMD window shrinking in UserLib)
//! normally rides inside completions and never crosses a machine
//! boundary by itself. In fleet runs, machines additionally publish
//! *aggregated* pressure/fairness summaries to the control plane on
//! this port so a fleet-wide report can be assembled; the summaries are
//! timer-driven (per pressure epoch), never input-triggered.

use bypassd_hw::ports::PCIE_RTT;
use bypassd_sim::{Nanos, Port};

/// Machine publishes a pressure/fairness summary to the control plane.
pub const PRESSURE: Port = Port::new("qos.pressure", PCIE_RTT);

const _: () = assert!(PRESSURE.lookahead.0 >= 1);

/// Floor for the pressure-summary epoch in fleet runs. Matches the
/// arbiter's `active_grace` default: sampling tenant activity faster
/// than the activity window itself just reports the same state twice.
pub const PRESSURE_EPOCH_FLOOR: Nanos = Nanos(20_000);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosConfig;

    #[test]
    fn epoch_floor_matches_active_grace_default() {
        assert_eq!(PRESSURE_EPOCH_FLOOR, QosConfig::default().active_grace);
    }
}
