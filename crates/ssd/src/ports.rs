//! Cross-machine port annotations for the NVMe data path.
//!
//! In a fleet run the two data-path links that cross machine
//! boundaries are the *doorbell* (a remote machine ringing a submission
//! queue on this device) and the *completion post* (this device posting
//! a completion back to the submitter's machine). Both traverse the
//! PCIe link, so both take the modeled round trip as their delay — the
//! same constant the IOMMU timing model uses
//! ([`bypassd_hw::ports::PCIE_RTT`]).

use bypassd_hw::ports::PCIE_RTT;
use bypassd_sim::Port;

/// Remote machine rings a submission-queue doorbell on this device.
pub const DOORBELL: Port = Port::new("nvme.doorbell", PCIE_RTT);

/// Device posts a completion back to the submitting machine.
pub const COMPLETION: Port = Port::new("nvme.completion", PCIE_RTT);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_path_ports_share_the_link_lookahead() {
        assert_eq!(DOORBELL.lookahead, PCIE_RTT);
        assert_eq!(COMPLETION.lookahead, PCIE_RTT);
    }
}
