//! Cross-machine port annotations.
//!
//! A [`Port`] names one kind of link along which a message crosses from
//! one simulated machine to another, together with its *lookahead*:
//! the modeled delay between the instant the sender acts and the
//! instant the receiver can observe the message. For BypassD every such
//! link is the modeled PCIe round trip (~345 ns), since doorbells,
//! completion posts and ATS shootdowns all traverse it.
//!
//! Hardware crates export their links as `Port` constants (see
//! `bypassd_ssd::ports`, `bypassd_hw::ports`, `bypassd_qos::ports`), and
//! the fleet harness (`bypassd::fleet`) takes every hop's delay from
//! them, so the link timing comes from the same model the devices use.

use crate::time::Nanos;

/// A named cross-machine link with its propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Stable human-readable name (diagnostics, topology dumps).
    pub name: &'static str,
    /// Virtual-time delay from send decision to delivery. Must be at
    /// least 1 ns: no message crosses a physical link instantly.
    pub lookahead: Nanos,
}

impl Port {
    /// Creates a port; `lookahead` must be >= 1 ns.
    pub const fn new(name: &'static str, lookahead: Nanos) -> Self {
        assert!(
            lookahead.0 >= 1,
            "cross-machine ports need positive lookahead"
        );
        Port { name, lookahead }
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(+{})", self.name, self.lookahead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_display_shows_lookahead() {
        let p = Port::new("doorbell", Nanos(345));
        assert_eq!(p.lookahead, Nanos(345));
        assert_eq!(format!("{p}"), "doorbell(+345ns)");
    }
}
