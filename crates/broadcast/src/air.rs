//! What a client listens to.
//!
//! In the air-indexing model (Imielinski, Viswanathan & Badrinath, "Data
//! on air", IEEE TKDE 1997) and in the paper's client model (§3.1, §5.2),
//! the air is a slot clock: a client tuned in at some instant either
//! **receives** the slot in front of it, costing tuning time, or
//! **dozes** through slots, costing only latency. [`Air`] is exactly
//! that and nothing more, so every client listens through one interface
//! whatever carries the slots: the simulated
//! [`BroadcastChannel`](crate::BroadcastChannel), or the same channel
//! under a fault plan ([`FaultyChannel`](crate::FaultyChannel)). What an
//! injector did to the slots is not something a receiver can know, so
//! the trait has no telemetry.

use crate::packet::Packet;

/// Outcome of listening to one packet.
#[derive(Debug, Clone)]
pub enum Received<'a> {
    /// The packet arrived intact.
    Packet(&'a Packet),
    /// Nothing usable arrived (erasure — channel noise or a wiped
    /// correlated-loss window).
    Lost,
    /// A frame arrived but its link-layer CRC failed: the contents
    /// (including the header pointer) are detectably garbage. Clients
    /// must treat this exactly like [`Received::Lost`] — the §6.2
    /// recovery paths re-fetch the slot in a later cycle — and never
    /// decode the payload.
    Corrupted,
}

impl<'a> Received<'a> {
    /// The packet, if it arrived intact. `Lost` and `Corrupted` both map
    /// to `None`, so every recovery path that retries missing slots
    /// transparently covers detected corruption too.
    pub fn ok(self) -> Option<&'a Packet> {
        match self {
            Received::Packet(p) => Some(p),
            Received::Lost | Received::Corrupted => None,
        }
    }
}

/// A tuned-in session on a repeating broadcast cycle, as its client sees
/// it: a clock that advances one packet per slot, received or slept.
pub trait Air {
    /// Listens to the packet at the current offset and advances the
    /// clock one slot.
    fn receive(&mut self) -> Received<'_>;

    /// Sleeps through `packets` slots without listening.
    fn sleep(&mut self, packets: u64);

    /// Current offset within the cycle.
    fn offset(&self) -> usize;

    /// Packets in one cycle.
    fn cycle_len(&self) -> usize;

    /// Packets elapsed since tune-in (access latency so far).
    fn elapsed(&self) -> u64;

    /// Packets received so far (tuning time so far).
    fn tuned(&self) -> u64;

    /// Packets slept through so far.
    fn slept(&self) -> u64 {
        self.elapsed() - self.tuned()
    }

    /// Sleeps forward until the cycle offset equals `offset` (zero sleep
    /// if already there; a full cycle is never slept needlessly). The
    /// delta is computed under the schedule the client observes now; a
    /// server restart during the sleep shifts the schedule under it —
    /// the truncated-cycle fault clients must recover from.
    fn sleep_to_offset(&mut self, offset: usize) {
        let len = self.cycle_len();
        let delta = (offset % len + len - self.offset()) % len;
        self.sleep(delta as u64);
    }
}
