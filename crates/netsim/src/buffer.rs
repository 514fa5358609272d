//! Shared-buffer admission for a switch.
//!
//! All egress queues of a switch draw from one shared byte pool (22 MB on
//! the paper's DC switches, 128 MB on DCI switches). Data packets that
//! would overflow the pool are dropped and counted; control packets are
//! always admitted (they are tiny and ride a protected class, as in real
//! deployments).
//!
//! PFC-enabled switches additionally reserve dedicated per-ingress
//! *headroom* out of the pool (see [`crate::pfc`]). The reservation is
//! carved off the shared capacity up front: the dynamic threshold and
//! the overflow check both operate on `shared_capacity = capacity -
//! headroom_reserved` and `shared_used = used - headroom_used`, so the
//! shared pool can fill completely while the reserved bytes stay
//! available to absorb the in-flight tail of a paused upstream.
//! Headroom admissions are guaranteed (the caller checks the per-port
//! cap first), which is what makes PFC lossless by construction.

/// Shared packet buffer of one switch.
#[derive(Clone, Debug)]
pub struct SharedBuffer {
    capacity: u64,
    used: u64,
    /// Bytes carved out of `capacity` as dedicated PFC headroom (summed
    /// over all ingress ports).
    headroom_reserved: u64,
    /// Subset of `used` currently charged to headroom.
    headroom_used: u64,
    /// Data packets dropped due to overflow.
    pub dropped_packets: u64,
    /// High-water mark of occupancy.
    pub peak_used: u64,
}

impl SharedBuffer {
    pub fn new(capacity: u64) -> Self {
        SharedBuffer {
            capacity,
            used: 0,
            headroom_reserved: 0,
            headroom_used: 0,
            dropped_packets: 0,
            peak_used: 0,
        }
    }

    /// Carve `bytes` of dedicated headroom out of the shared pool
    /// (called once per PFC-enabled ingress port at topology build).
    pub fn reserve_headroom(&mut self, bytes: u64) {
        self.headroom_reserved += bytes;
    }

    /// Try to admit `bytes` into the shared pool. Returns false (and
    /// counts a drop) when the shared partition would overflow and the
    /// packet is droppable.
    pub fn admit(&mut self, bytes: u64, droppable: bool) -> bool {
        if droppable && self.shared_used() + bytes > self.shared_capacity() {
            self.dropped_packets += 1;
            return false;
        }
        self.used += bytes;
        self.peak_used = self.peak_used.max(self.used);
        true
    }

    /// Admit `bytes` against the headroom reservation. Admission is
    /// unconditional: the caller has already checked the per-port cap,
    /// and the reservation guarantees the pool has room.
    pub fn admit_headroom(&mut self, bytes: u64) {
        self.used += bytes;
        self.headroom_used += bytes;
        debug_assert!(
            self.headroom_used <= self.headroom_reserved,
            "headroom charge exceeds the reservation"
        );
        self.peak_used = self.peak_used.max(self.used);
    }

    /// Release `bytes` back to the pool when a packet departs.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(self.used >= bytes, "buffer release underflow");
        self.used = self.used.saturating_sub(bytes);
    }

    /// Return `bytes` of a departing packet to the headroom ledger
    /// (call alongside [`Self::release`] for the headroom-charged part).
    pub fn release_headroom(&mut self, bytes: u64) {
        debug_assert!(self.headroom_used >= bytes, "headroom release underflow");
        self.headroom_used = self.headroom_used.saturating_sub(bytes);
    }

    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Capacity of the shared (non-headroom) partition.
    #[inline]
    pub fn shared_capacity(&self) -> u64 {
        self.capacity.saturating_sub(self.headroom_reserved)
    }

    /// Occupancy charged against the shared partition.
    #[inline]
    pub fn shared_used(&self) -> u64 {
        self.used - self.headroom_used
    }

    /// Total headroom carved out of the pool.
    #[inline]
    pub fn headroom_reserved(&self) -> u64 {
        self.headroom_reserved
    }

    /// Occupancy currently charged to headroom.
    #[inline]
    pub fn headroom_used(&self) -> u64 {
        self.headroom_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_full() {
        let mut b = SharedBuffer::new(1000);
        assert!(b.admit(600, true));
        assert!(b.admit(400, true));
        assert_eq!(b.used(), 1000);
        assert!(!b.admit(1, true));
        assert_eq!(b.dropped_packets, 1);
    }

    #[test]
    fn control_always_admitted() {
        let mut b = SharedBuffer::new(100);
        assert!(b.admit(100, true));
        assert!(b.admit(64, false), "non-droppable always admitted");
        assert_eq!(b.used(), 164);
        assert_eq!(b.dropped_packets, 0);
    }

    #[test]
    fn release_restores_space() {
        let mut b = SharedBuffer::new(1000);
        b.admit(1000, true);
        assert!(!b.admit(500, true));
        b.release(600);
        assert!(b.admit(500, true));
        assert_eq!(b.used(), 900);
    }

    #[test]
    fn peak_tracking() {
        let mut b = SharedBuffer::new(1000);
        b.admit(700, true);
        b.release(700);
        b.admit(300, true);
        assert_eq!(b.peak_used, 700);
    }

    #[test]
    fn headroom_carves_the_shared_pool() {
        let mut b = SharedBuffer::new(1000);
        b.reserve_headroom(300);
        assert_eq!(b.shared_capacity(), 700);
        assert_eq!(b.capacity(), 1000, "total capacity unchanged");
        // Droppable traffic only sees the shared partition.
        assert!(b.admit(700, true));
        assert!(!b.admit(1, true), "shared partition is full");
        assert_eq!(b.dropped_packets, 1);
        // The reservation is still there for headroom charges.
        b.admit_headroom(300);
        assert_eq!(b.used(), 1000);
        assert_eq!(b.headroom_used(), 300);
        assert_eq!(b.shared_used(), 700);
        // Draining headroom frees the reservation, not the shared pool.
        b.release(300);
        b.release_headroom(300);
        assert_eq!(b.headroom_used(), 0);
        assert!(!b.admit(1, true), "shared partition still full");
        b.release(100);
        assert!(b.admit(1, true));
    }

    #[test]
    fn zero_reservation_is_identical_to_legacy() {
        let mut a = SharedBuffer::new(1000);
        let mut b = SharedBuffer::new(1000);
        b.reserve_headroom(0);
        for n in [600, 400, 1] {
            assert_eq!(a.admit(n, true), b.admit(n, true));
        }
        assert_eq!(a.shared_capacity(), a.capacity());
        assert_eq!(a.shared_used(), a.used());
        assert_eq!(a.used(), b.used());
        assert_eq!(a.dropped_packets, b.dropped_packets);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::{SimRng, Xoshiro256StarStar};

    /// Occupancy never exceeds capacity for droppable traffic and never
    /// underflows, no matter the operation sequence (seeded-loop
    /// property test: 64 random traces of up to 200 ops each).
    #[test]
    fn occupancy_bounded() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0FF);
        for _ in 0..64 {
            let n_ops = rng.gen_range(1..200);
            let mut b = SharedBuffer::new(10_000);
            let mut admitted: Vec<u64> = Vec::new();
            for _ in 0..n_ops {
                let is_admit = rng.next_u64() & 1 == 0;
                let n = rng.gen_range(1..2_000);
                if is_admit {
                    if b.admit(n, true) {
                        admitted.push(n);
                    }
                } else if let Some(n) = admitted.pop() {
                    b.release(n);
                }
                assert!(b.used() <= b.capacity());
            }
        }
    }
}
