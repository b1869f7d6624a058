//! Cross-machine port annotations for the memory/IOMMU layer.
//!
//! In a fleet run, control-plane events that target a machine's
//! address-translation state — ATS invalidations / IOMMU shootdowns
//! after an `fmap` revocation (§3.6) — cross machine boundaries over
//! these ports. The delay is the modeled PCIe round trip: an
//! invalidation issued by the control plane cannot reach a device
//! faster than the link delivers it.

use bypassd_sim::{Nanos, Port};

/// The modeled PCIe round trip between host and device/IOMMU. This is
/// the single source for [`crate::IommuTiming`]'s default `pcie_rtt`
/// and for every cross-machine port delay, so a fleet hop can never
/// take less time than the timing model says the link needs.
pub const PCIE_RTT: Nanos = Nanos(345);

/// ATS invalidation / IOMMU shootdown delivery to a remote machine.
pub const SHOOTDOWN: Port = Port::new("iommu.shootdown", PCIE_RTT);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IommuTiming;

    #[test]
    fn shootdown_lookahead_matches_timing_model() {
        assert_eq!(SHOOTDOWN.lookahead, IommuTiming::default().pcie_rtt);
    }
}
