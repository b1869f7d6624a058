//! NVMe queue pairs: submission/completion bookkeeping.
//!
//! A queue pair is created through the driver and — the BypassD change —
//! bound to the owning process's PASID (§3.3), which the device attaches
//! to every ATS translation request issued for commands on that queue.
//! Kernel-owned queues have no PASID and may only carry LBA commands.
//!
//! The device completes a command inside its submission, so the CQ is
//! one binary min-heap of posted completions keyed `(ready_at, cid)`:
//! polling pops ready entries off its top, O(log n) each. A slot is
//! held exactly while its completion waits in the heap, so the heap's
//! length is the queue's occupancy. A completion the fault plane drops
//! is never posted and holds no slot (the host's timeout abort).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bypassd_hw::iommu::TranslateError;
use bypassd_hw::types::Pasid;
use bypassd_sim::time::Nanos;

/// Identifies a queue pair on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

/// NVMe completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// VBA translation failed — surfaced to UserLib, which re-`fmap()`s
    /// and falls back to the kernel interface (§3.6).
    TranslationFault(TranslateError),
    /// LBA range exceeds the namespace.
    LbaOutOfRange,
    /// Command malformed (e.g. VBA command on a kernel queue).
    InvalidField,
    /// An offload chain aborted: either the program executed
    /// [`Op::Fail`](bypassd_offload::Op::Fail) with this code, or the
    /// engine raised a reserved trap (`0xFF00..` — out-of-bounds load,
    /// step budget, hop budget).
    ChainFault(u16),
    /// Transient media error injected by the fault plane. Retryable: the
    /// kernel maps it to `EIO` after UserLib's bounded retry gives up.
    MediaError,
}

impl NvmeStatus {
    /// True on success.
    pub fn is_ok(self) -> bool {
        self == NvmeStatus::Success
    }
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Command identifier this completes.
    pub cid: u16,
    /// Outcome.
    pub status: NvmeStatus,
    /// Virtual time at which the completion is visible to the host.
    pub ready_at: Nanos,
    /// Congestion signal (QoS backpressure): the command was delayed by
    /// rate limiting or fair-share pacing, or the queue pair is running
    /// near its depth limit. Always false with QoS disabled. UserLib
    /// reacts by shrinking its effective queue depth (§5.1 pipeline).
    pub pressure: bool,
}

/// Device-side queue pair state.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// PASID bound at creation (None for kernel queues).
    pub pasid: Option<Pasid>,
    /// Maximum outstanding commands.
    pub depth: usize,
    /// Posted completions not yet reaped: the CQ, earliest first. An
    /// entry is a completion's fields in reap order,
    /// `(ready_at, cid, status, pressure)`.
    cq: BinaryHeap<Reverse<(Nanos, u16, NvmeStatus, bool)>>,
    next_cid: u16,
}

impl QueuePair {
    pub(crate) fn new(pasid: Option<Pasid>, depth: usize) -> Self {
        QueuePair {
            pasid,
            depth,
            cq: BinaryHeap::new(),
            next_cid: 0,
        }
    }

    /// Commands whose completion waits in the CQ.
    pub(crate) fn inflight(&self) -> usize {
        self.cq.len()
    }

    /// Takes the next command id, or `None` when every slot is held. The
    /// slot itself is held only once the completion is posted.
    pub(crate) fn claim(&mut self) -> Option<u16> {
        if self.inflight() >= self.depth {
            return None;
        }
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        Some(cid)
    }

    /// Posts a completion to the CQ.
    pub(crate) fn post(&mut self, c: Completion) {
        self.cq
            .push(Reverse((c.ready_at, c.cid, c.status, c.pressure)));
    }

    /// Reaps up to `max` completions visible at `now` into `out`,
    /// earliest first (ties broken by cid); returns how many were
    /// appended.
    pub(crate) fn pop_ready(&mut self, now: Nanos, max: usize, out: &mut Vec<Completion>) -> usize {
        let start = out.len();
        while out.len() - start < max {
            match self.cq.peek() {
                Some(&Reverse((ready_at, cid, status, pressure))) if ready_at <= now => {
                    out.push(Completion {
                        cid,
                        status,
                        ready_at,
                        pressure,
                    });
                }
                _ => break,
            }
            self.cq.pop();
        }
        out.len() - start
    }

    /// Earliest pending completion time, if any.
    pub(crate) fn next_ready_time(&self) -> Option<Nanos> {
        self.cq.peek().map(|Reverse(c)| c.0)
    }

    /// Drops every pending completion. Used when resetting device timing
    /// between runs.
    pub(crate) fn drop_pending(&mut self) {
        self.cq.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(cid: u16, at: u64) -> Completion {
        Completion {
            cid,
            status: NvmeStatus::Success,
            ready_at: Nanos(at),
            pressure: false,
        }
    }

    /// Claims a cid and posts its completion, ready at `at`.
    fn submit(q: &mut QueuePair, at: u64) -> u16 {
        let cid = q.claim().unwrap();
        q.post(ok(cid, at));
        cid
    }

    fn reap(q: &mut QueuePair, now: u64, max: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        assert_eq!(q.pop_ready(Nanos(now), max, &mut out), out.len());
        out
    }

    #[test]
    fn claim_respects_depth() {
        let mut q = QueuePair::new(None, 2);
        submit(&mut q, 10);
        submit(&mut q, 10);
        assert!(
            q.claim().is_none(),
            "depth-2 queue accepted a third command"
        );
    }

    #[test]
    fn reap_only_when_ready() {
        let mut q = QueuePair::new(None, 4);
        submit(&mut q, 100);
        assert!(reap(&mut q, 50, 4).is_empty());
        let got = reap(&mut q, 100, 4);
        assert!(got[0].status.is_ok());
        assert_eq!(q.inflight(), 0);
    }

    #[test]
    fn reap_frees_slot() {
        let mut q = QueuePair::new(None, 1);
        submit(&mut q, 10);
        assert!(q.claim().is_none());
        assert_eq!(reap(&mut q, 10, 1).len(), 1);
        assert!(q.claim().is_some());
    }

    #[test]
    fn reap_ready_orders_by_time() {
        let mut q = QueuePair::new(None, 8);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        let c = q.claim().unwrap();
        q.post(ok(b, 5));
        q.post(ok(a, 20));
        q.post(ok(c, 10));
        let got = reap(&mut q, 15, 8);
        assert_eq!(got.iter().map(|x| x.cid).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(q.inflight(), 1);
        assert_eq!(q.next_ready_time(), Some(Nanos(20)));
    }

    #[test]
    fn reap_ready_orders_out_of_order_submissions() {
        // Completions posted in arbitrary ready_at order must reap
        // strictly (ready_at, cid)-ordered, across multiple partial polls,
        // with equal-time ties broken by cid.
        let mut q = QueuePair::new(None, 16);
        let cids: Vec<u16> = (0..10).map(|_| q.claim().unwrap()).collect();
        let times = [70u64, 10, 40, 40, 90, 20, 40, 60, 30, 50];
        // Post in a scrambled order relative to both cid and time.
        for &i in &[4usize, 0, 7, 2, 9, 5, 1, 8, 3, 6] {
            q.post(ok(cids[i], times[i]));
        }
        let mut got = Vec::new();
        // Partial reaps with an advancing clock, 3 at a time.
        for now in [35u64, 55, 100] {
            got.extend(reap(&mut q, now, 3));
        }
        got.extend(reap(&mut q, 100, 16));
        let keys: Vec<(u64, u16)> = got.iter().map(|c| (c.ready_at.as_nanos(), c.cid)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "reap order must be (ready_at, cid)");
        assert_eq!(got.len(), 10);
        // The three equal-time completions surface in cid order.
        let at40: Vec<u16> = got
            .iter()
            .filter(|c| c.ready_at == Nanos(40))
            .map(|c| c.cid)
            .collect();
        assert_eq!(at40, vec![cids[2], cids[3], cids[6]]);
        assert_eq!(q.inflight(), 0);
    }

    #[test]
    fn cid_reuse_after_wrap_does_not_confuse_heap() {
        let mut q = QueuePair::new(None, usize::MAX);
        q.next_cid = u16::MAX;
        let a = submit(&mut q, 10);
        assert_eq!(a, u16::MAX);
        assert_eq!(reap(&mut q, 10, 8)[0].cid, a);
        // Wrap all the way around so cid 65535 is claimed again, then
        // cid 0 at the same ready time.
        q.next_cid = u16::MAX;
        assert_eq!(submit(&mut q, 50), a);
        assert_eq!(submit(&mut q, 50), 0);
        assert!(reap(&mut q, 30, 8).is_empty());
        assert_eq!(q.next_ready_time(), Some(Nanos(50)));
        let got = reap(&mut q, 50, 8);
        assert_eq!(got.iter().map(|c| c.cid).collect::<Vec<_>>(), vec![0, a]);
        assert!(got.iter().all(|c| c.ready_at == Nanos(50)));
    }

    #[test]
    fn drop_pending_clears_everything() {
        let mut q = QueuePair::new(None, 8);
        submit(&mut q, 10);
        submit(&mut q, 20);
        q.drop_pending();
        assert_eq!(q.next_ready_time(), None);
        assert!(reap(&mut q, 100, 8).is_empty());
        assert_eq!(q.inflight(), 0);
    }

    #[test]
    fn cid_wraps() {
        let mut q = QueuePair::new(None, usize::MAX);
        q.next_cid = u16::MAX;
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        assert_eq!(a, u16::MAX);
        assert_eq!(b, 0);
    }
}
