//! The discrete-event core: event kinds and a deterministic scheduler.
//!
//! The scheduler is a hierarchical timing wheel (6 levels × 64 slots over
//! the picosecond clock, with an overflow heap for events beyond the
//! wheel's horizon). Every pending event sits in one node of a recycled
//! arena and each wheel slot is a list threaded through it, so the
//! queue's storage follows the number of pending events. It preserves
//! the exact total order of the original `BinaryHeap` implementation —
//! (time, insertion sequence) — so golden replays stay bit-identical; see
//! DESIGN.md §"Engine performance".

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::packet::Packet;
use crate::types::{FlowId, LinkId, NodeId};
use crate::units::Time;

/// Everything that can happen in the simulation.
///
/// Packets ride boxed so the queue node stays small (40 B): moving a full
/// `Packet` (with its inline `IntStack`) in and out of the queue on every
/// schedule/pop dominated the hot path. The box itself is recycled
/// through `Simulator`'s packet pool, so steady-state scheduling still
/// does no allocation.
#[derive(Clone, Debug)]
pub enum Event {
    /// A flow's first byte becomes available at its sender.
    FlowStart(FlowId),
    /// The last bit of a packet arrives at the far end of `link`.
    Arrival { link: LinkId, packet: Box<Packet> },
    /// `link` finishes serializing its current packet and may start the
    /// next one.
    TxComplete { link: LinkId },
    /// A host's pacing timer: some flow may now be allowed to send.
    HostWake { node: NodeId },
    /// A DCI per-flow-queue pacing timer for the given egress link.
    PfqWake { link: LinkId },
    /// A per-flow timer owned by a congestion-control module at `node`.
    CcTimer { node: NodeId, flow: FlowId },
    /// A retransmission timeout check for `flow` at its sender.
    RtoCheck { node: NodeId, flow: FlowId },
    /// Periodic measurement sampling.
    MonitorTick,
    /// A PFC pause/resume frame takes effect at the receiving end of
    /// `link` (pause frames bypass queues; only propagation delay applies).
    PfcUpdate { link: LinkId, paused: bool },
    /// A scheduled fault transition: `link` goes down (`down = true`) or
    /// comes back up. Packets serialized while down are black-holed.
    LinkFault { link: LinkId, down: bool },
    /// A scheduled node-level fault transition: a host or switch
    /// crashes (`down = true`) or restarts. A down host black-holes
    /// everything addressed to it and emits nothing; a down switch
    /// additionally drains (drops) its buffered packets at crash time.
    NodeFault { node: NodeId, down: bool },
}

/// One arena node: a pending event with its `(at, seq)` key, or a free
/// node (`event: None`). `next` links the node into its wheel slot's list
/// or into the free list.
struct Node {
    at: Time,
    seq: u64,
    next: u32,
    event: Option<Event>,
}

/// A pending event's key and arena index, as kept in the ready run and
/// the overflow heap. Ordering the tuple orders by `(at, seq)`: keys are
/// unique, so the index never decides.
type Entry = (Time, u64, u32);

/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// log2 of the wheel tick in picoseconds. One tick = 2^14 ps ≈ 16.4 ns,
/// a fraction of a single-packet serialization time at 100 Gbps, so the
/// ready run sorted at each drained tick holds a handful of events.
const BASE_SHIFT: u32 = 14;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels. Total span: 2^(6·6) ticks = 2^50 ps ≈ 19 minutes of
/// simulated time; anything further out waits in the overflow heap.
const LEVELS: usize = 6;
/// Bits of tick covered by the wheel; ticks differing from the cursor
/// above this bit live in the overflow heap until their block arrives.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Floor of the explicit tie-break keys used by
/// [`EventQueue::schedule_with_seq`]. Ordinary insertion sequences count
/// up from zero and can never plausibly reach 2^62, so content-derived
/// keys above this base always sort after same-instant ordinary events
/// and never collide with them.
pub const BOUNDARY_SEQ_BASE: u64 = 1 << 62;

/// The deterministic tie-break key for a boundary arrival: a function of
/// the carrying link and that link's per-packet wire sequence, identical
/// at every shard count. Link ids fit 20 bits with room to spare on any
/// fabric we build; wire sequences get the low 40 bits (a trillion
/// packets per link before wrap).
#[inline]
pub fn boundary_seq(link: LinkId, wire_seq: u64) -> u64 {
    debug_assert!(wire_seq < (1 << 40), "per-link wire sequence overflow");
    BOUNDARY_SEQ_BASE | ((link.0 as u64) << 40) | wire_seq
}

/// Deterministic event queue: hierarchical timing wheel + overflow heap
/// over one node arena.
///
/// Invariants (with `tick = at >> BASE_SHIFT`):
/// * Every pending event is in exactly one live node of `nodes`, named by
///   exactly one of: a wheel slot list, a `ready` entry, an `overflow`
///   entry. Free nodes form the `free` list, so `nodes.len()` never
///   exceeds the peak number of pending events.
/// * `ready` holds every pending event with `tick == ready_tick`, sorted
///   by `(at, seq)` descending (the next event is last); events scheduled
///   later into the current tick are inserted in place.
/// * The wheel holds events with `tick > ready_tick` whose tick shares the
///   cursor's top block (`tick >> WHEEL_BITS == elapsed >> WHEEL_BITS`);
///   `occupied` bitmaps mirror slot occupancy exactly.
/// * `overflow` holds everything beyond the wheel horizon.
/// * The cursor `elapsed` never passes an occupied slot without draining
///   it, so slot indices never wrap within a level: at level `l` every
///   live event shares the cursor's bits above `6·(l+1)` and sits at a
///   slot index ≥ the cursor's.
pub struct EventQueue {
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Head node of each wheel slot's list, `LEVELS × SLOTS`.
    heads: [u32; LEVELS * SLOTS],
    occupied: [u64; LEVELS],
    /// Current wheel tick: every event with an earlier tick has been
    /// drained into `ready` (and possibly popped).
    elapsed: u64,
    /// Events of the tick currently being dispatched, latest first.
    ready: Vec<Entry>,
    /// The tick whose events `ready` is (or was last) serving.
    ready_tick: Option<u64>,
    /// Events beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Also the count of events ever scheduled (seq values are dense).
    next_seq: u64,
    /// Events scheduled with an explicit out-of-band sequence key (see
    /// [`EventQueue::schedule_with_seq`]); counted separately so
    /// [`EventQueue::scheduled_total`] stays exact.
    extra_scheduled: u64,
    len: usize,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick_of(at: Time) -> u64 {
    at >> BASE_SHIFT
}

/// The wheel level for an event `tick` given the cursor: the level of the
/// highest bit block where they differ. `LEVELS` or more means overflow.
#[inline]
fn level_for(elapsed: u64, tick: u64) -> usize {
    let differing = elapsed ^ tick;
    if differing == 0 {
        return 0;
    }
    ((63 - differing.leading_zeros()) / SLOT_BITS) as usize
}

impl EventQueue {
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            elapsed: 0,
            ready: Vec::new(),
            ready_tick: None,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            extra_scheduled: 0,
            len: 0,
            peak_len: 0,
        }
    }

    /// Pre-reserve room for `pending` simultaneously pending events in
    /// the node arena, the ready run and the overflow heap, so a workload
    /// that never has more than `pending` events pending never grows the
    /// queue mid-run. Used by allocation-budget tests; a no-op for
    /// capacity already reserved.
    pub fn prewarm(&mut self, pending: usize) {
        self.nodes.reserve(pending.saturating_sub(self.nodes.len()));
        self.ready.reserve(pending.saturating_sub(self.ready.len()));
        self.overflow
            .reserve(pending.saturating_sub(self.overflow.len()));
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_scheduled(at, seq, event);
    }

    /// Schedule `event` at `at` with an explicit, content-derived tie-break
    /// key instead of a fresh insertion sequence. Used for cross-shard
    /// boundary arrivals, whose same-instant order must be a function of
    /// the packet (link id + per-link wire sequence), not of which shard
    /// happened to schedule first. Keys must be ≥ [`BOUNDARY_SEQ_BASE`] so
    /// they never collide with (and always sort after) ordinary
    /// insertion sequences at the same instant.
    pub fn schedule_with_seq(&mut self, at: Time, seq: u64, event: Event) {
        debug_assert!(
            seq >= BOUNDARY_SEQ_BASE,
            "explicit seq keys live above BOUNDARY_SEQ_BASE"
        );
        self.extra_scheduled += 1;
        self.push_scheduled(at, seq, event);
    }

    fn push_scheduled(&mut self, at: Time, seq: u64, event: Event) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        let idx = self.alloc(Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        });
        let tick = tick_of(at);
        // Events landing in the tick currently being dispatched (or
        // earlier — the sim never does that, but the contract allows it)
        // join the ready run at their `(at, seq)` rank.
        if self.ready_tick.is_some_and(|rt| tick <= rt) {
            let pos = self.ready.partition_point(|&(a, s, _)| (a, s) > (at, seq));
            self.ready.insert(pos, (at, seq, idx));
            return;
        }
        debug_assert!(tick >= self.elapsed, "scheduling into a drained tick");
        self.insert_wheel(idx, tick);
    }

    /// Store `node` in a recycled free node, or a new one when none is
    /// free, and return its index.
    fn alloc(&mut self, node: Node) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            return idx;
        }
        let idx = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("more pending events than the arena can index");
        self.nodes.push(node);
        idx
    }

    /// Link node `idx` (whose event is at `tick`) into its wheel slot, or
    /// into the overflow heap beyond the horizon.
    fn insert_wheel(&mut self, idx: u32, tick: u64) {
        let level = level_for(self.elapsed, tick);
        let node = &mut self.nodes[idx as usize];
        if level >= LEVELS {
            self.overflow.push(Reverse((node.at, node.seq, idx)));
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let head = &mut self.heads[level * SLOTS + slot];
        node.next = *head;
        *head = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// First occupied (level, slot) at or after the cursor, lowest level
    /// first. Lower levels always hold earlier ticks (they share a longer
    /// prefix with the cursor), so this finds the slot of the minimum
    /// pending tick.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cur = (self.elapsed >> (SLOT_BITS * level as u32)) & SLOT_MASK;
            let masked = self.occupied[level] & (!0u64 << cur);
            if masked != 0 {
                return Some((level, masked.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Ensure `ready` holds the earliest pending tick's events (if any
    /// events are pending at all).
    fn advance(&mut self) {
        while self.ready.is_empty() {
            // Pull overflow events whose top block has arrived into the
            // wheel. The overflow heap is (at, seq)-ordered, so events of
            // the current block drain before any later block's.
            while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
                let tick = tick_of(at);
                if tick >> WHEEL_BITS != self.elapsed >> WHEEL_BITS {
                    break;
                }
                self.overflow.pop();
                self.insert_wheel(idx, tick);
            }
            match self.next_occupied() {
                Some((0, slot)) => {
                    // The minimum tick: sort its list into the ready run.
                    self.occupied[0] &= !(1 << slot);
                    let tick = (self.elapsed & !SLOT_MASK) | slot as u64;
                    self.elapsed = tick;
                    self.ready_tick = Some(tick);
                    let mut i = std::mem::replace(&mut self.heads[slot], NIL);
                    while i != NIL {
                        let node = &self.nodes[i as usize];
                        debug_assert_eq!(tick_of(node.at), tick);
                        self.ready.push((node.at, node.seq, i));
                        i = node.next;
                    }
                    // Keys are unique, so the unstable sort is deterministic.
                    self.ready.sort_unstable_by(|a, b| b.cmp(a));
                }
                Some((level, slot)) => {
                    // Cascade: move the cursor to the slot's first tick and
                    // relink its nodes one level (or more) down.
                    self.occupied[level] &= !(1 << slot);
                    let shift = SLOT_BITS * level as u32;
                    self.elapsed = (((self.elapsed >> (shift + SLOT_BITS)) << SLOT_BITS)
                        | slot as u64)
                        << shift;
                    let mut i = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
                    while i != NIL {
                        let node = &self.nodes[i as usize];
                        let (next, tick) = (node.next, tick_of(node.at));
                        self.insert_wheel(i, tick);
                        i = next;
                    }
                }
                None => {
                    // Wheel empty: jump the cursor to the overflow's block.
                    let Some(&Reverse((at, _, _))) = self.overflow.peek() else {
                        return;
                    };
                    self.elapsed = (tick_of(at) >> WHEEL_BITS) << WHEEL_BITS;
                }
            }
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.advance();
        let (at, _, idx) = self.ready.pop()?;
        self.len -= 1;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("a ready entry names a live node");
        node.next = self.free;
        self.free = idx;
        Some((at, event))
    }

    /// Time of the earliest pending event. Takes `&mut self` because it
    /// may advance the wheel cursor to stage that event (the total order
    /// the queue exposes is unchanged by staging).
    pub fn peek_time(&mut self) -> Option<Time> {
        self.advance();
        self.ready.last().map(|&(at, _, _)| at)
    }

    /// Total events ever scheduled. Sequence numbers are allocated densely
    /// per schedule, so the statistic cannot drift from the tie-break seq;
    /// explicit-key schedules are counted separately.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq + self.extra_scheduled
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visit every pending event (the live arena nodes) in no particular
    /// order. The auditor's drain-time census uses this to find in-flight
    /// `Arrival` packets.
    #[cfg(feature = "audit")]
    pub fn for_each_pending(&self, mut f: impl FnMut(Time, &Event)) {
        for node in &self.nodes {
            if let Some(event) = &node.event {
                f(node.at, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick() -> Event {
        Event::MonitorTick
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, tick());
        q.schedule(10, tick());
        q.schedule(20, tick());
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, Event::FlowStart(FlowId(0)));
        q.schedule(5, Event::FlowStart(FlowId(1)));
        q.schedule(5, Event::FlowStart(FlowId(2)));
        for expect in 0..3u32 {
            match q.pop().unwrap().1 {
                Event::FlowStart(f) => assert_eq!(f, FlowId(expect)),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(42, tick());
        q.schedule(7, tick());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop().unwrap().0, 7);
        assert_eq!(q.peek_time(), Some(42));
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i, tick());
        }
        assert_eq!(q.scheduled_total(), 10);
        assert_eq!(q.len(), 10);
        q.pop();
        assert_eq!(q.scheduled_total(), 10, "popping does not change the total");
        assert_eq!(q.len(), 9);
    }

    #[test]
    fn tracks_peak_depth() {
        let mut q = EventQueue::new();
        q.schedule(1, tick());
        q.schedule(2, tick());
        q.schedule(3, tick());
        q.pop();
        q.pop();
        q.schedule(4, tick());
        assert_eq!(q.peak_len(), 3, "peak was three pending events");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn same_tick_reschedule_pops_in_order() {
        // An event scheduled *while* its tick is being dispatched (the
        // common "wake me now" pattern) must still pop before later ticks
        // and after earlier same-tick events.
        let mut q = EventQueue::new();
        q.schedule(100, Event::FlowStart(FlowId(0)));
        q.schedule(1 << 20, Event::FlowStart(FlowId(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 100);
        // Same wheel tick as 100 (both < one tick), scheduled mid-dispatch.
        q.schedule(150, Event::FlowStart(FlowId(2)));
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, 150);
        assert!(matches!(ev, Event::FlowStart(FlowId(2))));
        assert_eq!(q.pop().unwrap().0, 1 << 20);
    }

    #[test]
    fn explicit_seq_sorts_after_ordinary_events_and_by_key() {
        // Boundary arrivals at the same instant must pop after ordinary
        // same-instant events (their keys sit above BOUNDARY_SEQ_BASE)
        // and among themselves in key order, regardless of scheduling
        // order.
        let mut q = EventQueue::new();
        q.schedule_with_seq(5, boundary_seq(LinkId(3), 1), Event::FlowStart(FlowId(3)));
        q.schedule_with_seq(5, boundary_seq(LinkId(3), 0), Event::FlowStart(FlowId(2)));
        q.schedule(5, Event::FlowStart(FlowId(0)));
        q.schedule(5, Event::FlowStart(FlowId(1)));
        q.schedule_with_seq(5, boundary_seq(LinkId(9), 0), Event::FlowStart(FlowId(4)));
        for expect in 0..5u32 {
            match q.pop().unwrap().1 {
                Event::FlowStart(f) => assert_eq!(f, FlowId(expect)),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(q.scheduled_total(), 5, "explicit-seq schedules counted");
    }

    #[test]
    fn far_future_overflow_roundtrip() {
        // Beyond the wheel horizon (2^50 ps) and back.
        let mut q = EventQueue::new();
        let far = 1u64 << 60;
        q.schedule(far + 5, Event::FlowStart(FlowId(1)));
        q.schedule(far + 5, Event::FlowStart(FlowId(2)));
        q.schedule(3, Event::FlowStart(FlowId(0)));
        assert_eq!(q.pop().unwrap().0, 3);
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, far + 5);
        assert!(matches!(ev, Event::FlowStart(FlowId(1))));
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, far + 5);
        assert!(matches!(ev, Event::FlowStart(FlowId(2))));
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 3);
    }

    /// Entries the queue keeps allocated: arena nodes, ready-run and
    /// overflow-heap capacity.
    fn retained(q: &EventQueue) -> usize {
        q.nodes.capacity() + q.ready.capacity() + q.overflow.capacity()
    }

    #[test]
    fn storage_follows_peak_pending_events() {
        // A burst of BURST events at one tick ahead of the cursor, popped
        // before the next burst, steps the cursor through every level-0
        // slot and, at each 64-tick crossing, through a level-1 slot (and
        // a level-2 slot at each 4096-tick crossing). Level-1 and level-2
        // strides then land bursts directly in those levels' slots. A
        // queue whose slots each kept their own high-water storage would
        // retain about one burst per slot visited; this one must retain
        // at most the arena and the ready run, each the peak rounded up
        // to its `Vec`'s next doubling.
        const BURST: u64 = 24;
        let level1 = SLOTS as u64;
        let level2 = level1 * level1;
        let strides = std::iter::repeat_n(1, SLOTS * SLOTS)
            .chain(std::iter::repeat_n(level1, SLOTS))
            .chain((1..=8).map(|k| k * level2));
        let mut q = EventQueue::new();
        let mut now: Time = 0;
        for stride in strides {
            let at = ((tick_of(now) + stride) << BASE_SHIFT) + stride % 7;
            for i in 0..BURST {
                q.schedule(at + i, tick());
            }
            for _ in 0..BURST {
                now = q.pop().expect("burst pending").0;
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), BURST as usize);
        let bound = 2 * q.peak_len().next_power_of_two();
        assert!(
            retained(&q) <= bound,
            "queue retains {} entries for a peak of {} pending events (bound {bound})",
            retained(&q),
            q.peak_len()
        );
    }
}

#[cfg(test)]
mod proptests {
    use std::cmp::Ordering;

    use super::*;
    use crate::rng::{SimRng, Xoshiro256StarStar};

    /// Whatever order events are scheduled in, they pop in
    /// non-decreasing time order, and same-time events pop in
    /// scheduling order (seeded-loop property test).
    #[test]
    fn total_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xE7E27);
        for _ in 0..64 {
            let n = rng.gen_range(1..200) as usize;
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, Event::FlowStart(FlowId(i as u32)));
            }
            let mut last: Option<(Time, u32)> = None;
            while let Some((t, ev)) = q.pop() {
                let id = match ev {
                    Event::FlowStart(f) => f.0,
                    _ => unreachable!(),
                };
                if let Some((lt, lid)) = last {
                    assert!(t >= lt);
                    if t == lt {
                        assert!(id > lid, "same-time events must pop in insertion order");
                    }
                }
                last = Some((t, id));
            }
        }
    }

    /// A scheduled event. Ordering: time, then insertion sequence — two events
    /// at the same instant always fire in the order they were scheduled, which
    /// makes runs bit-for-bit reproducible.
    #[derive(Clone, Debug)]
    struct Scheduled {
        at: Time,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Scheduled {}
    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Reference implementation: the original `BinaryHeap` scheduler, kept
    /// verbatim as the ordering oracle for the timing wheel.
    struct HeapOracle {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn schedule(&mut self, at: Time, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }
        fn schedule_with_seq(&mut self, at: Time, seq: u64, event: Event) {
            self.heap.push(Scheduled { at, seq, event });
        }
        fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }
    }

    fn id_of(ev: &Event) -> u32 {
        match ev {
            Event::FlowStart(f) => f.0,
            _ => unreachable!("oracle test only schedules FlowStart"),
        }
    }

    /// Links whose wire sequences the boundary keys are drawn from.
    const BOUNDARY_LINKS: usize = 4;

    /// The queue under test and the oracle, fed the same schedules and
    /// popped in lockstep. Events carry their schedule index as a
    /// `FlowId`, so a pop compares (time, identity).
    struct Lockstep {
        wheel: EventQueue,
        oracle: HeapOracle,
        next_id: u32,
        /// Next wire sequence per link, so boundary keys are unique as
        /// the engine's are.
        wire: [u64; BOUNDARY_LINKS],
        pending: usize,
    }

    impl Lockstep {
        fn new() -> Self {
            Self {
                wheel: EventQueue::new(),
                oracle: HeapOracle::new(),
                next_id: 0,
                wire: [0; BOUNDARY_LINKS],
                pending: 0,
            }
        }

        fn schedule(&mut self, at: Time, seq: Option<u64>) {
            let ev = Event::FlowStart(FlowId(self.next_id));
            match seq {
                Some(seq) => {
                    self.wheel.schedule_with_seq(at, seq, ev.clone());
                    self.oracle.schedule_with_seq(at, seq, ev);
                }
                None => {
                    self.wheel.schedule(at, ev.clone());
                    self.oracle.schedule(at, ev);
                }
            }
            self.next_id += 1;
            self.pending += 1;
        }

        /// Schedule `n` events at the instant `at`. One burst in three
        /// carries boundary keys from random links, scheduled in
        /// descending key order (the reverse of their pop order), and
        /// half of those are followed by an ordinary event at the same
        /// instant, which pops before them although scheduled after.
        fn burst(&mut self, rng: &mut Xoshiro256StarStar, at: Time, n: u64) {
            if rng.gen_range(0..3) != 0 {
                for _ in 0..n {
                    self.schedule(at, None);
                }
                return;
            }
            let mut keys: Vec<u64> = (0..n)
                .map(|_| {
                    let link = rng.gen_range(0..BOUNDARY_LINKS as u64) as usize;
                    self.wire[link] += 1;
                    boundary_seq(LinkId(link as u32), self.wire[link])
                })
                .collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            for seq in keys {
                self.schedule(at, Some(seq));
            }
            if rng.gen_range(0..2) == 0 {
                self.schedule(at, None);
            }
        }

        /// Pop one event from each queue and check they agree.
        fn pop(&mut self, round: usize) -> Time {
            let a = self.wheel.pop().expect("wheel has pending events");
            let b = self.oracle.pop().expect("oracle has pending events");
            assert_eq!(
                (a.0, id_of(&a.1)),
                (b.0, id_of(&b.1)),
                "round {round}: wheel and heap diverged with {} pending",
                self.pending
            );
            self.pending -= 1;
            a.0
        }

        /// Drain both queues completely, in lockstep.
        fn drain(&mut self, round: usize) {
            while self.pending > 0 {
                self.pop(round);
            }
            assert!(
                self.wheel.pop().is_none(),
                "round {round}: wheel has extra events"
            );
            assert!(
                self.oracle.pop().is_none(),
                "round {round}: oracle has extra events"
            );
            assert_eq!(self.wheel.scheduled_total(), self.next_id as u64);
        }
    }

    /// Seeded-loop equivalence against the old heap order.
    /// Random schedule/pop interleavings — same-time bursts, boundary
    /// keys, mid-dispatch re-schedules, and far-future overflow times —
    /// must pop the identical (time, event) sequence from both
    /// implementations.
    #[test]
    fn matches_binary_heap_oracle() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0DD5EED);
        for round in 0..48 {
            let mut pair = Lockstep::new();
            // `now` tracks the last popped time so we only ever schedule
            // into the present or future, like the simulator does.
            let mut now: Time = 0;
            for _ in 0..2_000 {
                if pair.pending > 0 && rng.gen_range(0..100) < 45 {
                    now = pair.pop(round);
                } else {
                    // Mix of horizons: same-instant bursts, sub-tick
                    // offsets, near future, and far-future overflow.
                    let at = match rng.gen_range(0..10) {
                        0 => now,
                        1 | 2 => now + rng.gen_range(0..1 << BASE_SHIFT),
                        3..=6 => now + rng.gen_range(0..1 << 24),
                        7 | 8 => now + rng.gen_range(0..1 << 40),
                        _ => now + HORIZON + rng.gen_range(0..1 << 40),
                    };
                    let n = 1 + rng.gen_range(0..4);
                    pair.burst(&mut rng, at, n);
                }
            }
            pair.drain(round);
        }
    }

    /// The wheel horizon in picoseconds: ticks differing from the cursor
    /// above this bound live in the overflow heap.
    const HORIZON: u64 = 1 << (BASE_SHIFT + WHEEL_BITS);

    /// The 2^50 ps overflow boundary, deterministically.
    /// Events straddling the horizon — just inside the wheel, exactly at
    /// the boundary block, and beyond — plus same-tick bursts at each
    /// position must pop in exact (time, insertion-seq) order.
    #[test]
    fn overflow_boundary_exact_order() {
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::new();
        let mut id = 0u32;
        // Around the boundary: the last tick inside the wheel, the first
        // tick of the next block (overflow), deep overflow, and a
        // sub-tick pair on each side of the exact horizon time.
        let times = [
            HORIZON - (1 << BASE_SHIFT), // last wheel tick
            HORIZON - 1,                 // same tick, later instant
            HORIZON,                     // first overflow tick
            HORIZON + 1,                 // same overflow tick
            HORIZON + (1 << BASE_SHIFT), // next overflow tick
            3 * HORIZON + 17,            // a block the cursor must jump to
            5,                           // near present, scheduled last
        ];
        for &at in &times {
            // Same-tick burst: three events at the identical instant must
            // preserve insertion order across the wheel/overflow split.
            for _ in 0..3 {
                q.schedule(at, Event::FlowStart(FlowId(id)));
                oracle.schedule(at, Event::FlowStart(FlowId(id)));
                id += 1;
            }
        }
        let mut last: Option<(Time, u32)> = None;
        while let Some((t, ev)) = q.pop() {
            let (to, evo) = oracle.pop().expect("oracle in lockstep");
            assert_eq!((t, id_of(&ev)), (to, id_of(&evo)));
            if let Some((lt, lid)) = last {
                assert!(t > lt || (t == lt && id_of(&ev) > lid));
            }
            last = Some((t, id_of(&ev)));
        }
        assert!(oracle.pop().is_none());
        assert_eq!(q.scheduled_total(), 21);
    }

    /// Seeded-loop property test hammering the overflow boundary from a
    /// *moving* cursor. Times are clustered within a few ticks of
    /// `now + HORIZON` (so each schedule lands randomly on either side of
    /// the wheel horizon as the cursor advances), mixed with same-tick
    /// and boundary-key bursts and near-present events; the pop sequence
    /// must match the binary-heap oracle exactly.
    #[test]
    fn overflow_boundary_total_order_under_churn() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0B0B_B0A2D);
        for round in 0..32 {
            let mut pair = Lockstep::new();
            let mut now: Time = 0;
            for _ in 0..1_500 {
                if pair.pending > 0 && rng.gen_range(0..100) < 40 {
                    now = pair.pop(round);
                } else {
                    // ±2 ticks around the horizon measured from `now`,
                    // sub-tick offsets included, so events land just
                    // inside the wheel, exactly at, or just past it.
                    let tick_jitter = rng.gen_range(0..5) as i64 - 2;
                    let sub = rng.gen_range(0..1 << BASE_SHIFT);
                    let base = now + HORIZON;
                    let at = if rng.gen_range(0..8) == 0 {
                        now + rng.gen_range(0..1 << 20) // near present
                    } else {
                        base.wrapping_add_signed(tick_jitter * (1 << BASE_SHIFT)) + sub
                    };
                    let n = 1 + rng.gen_range(0..3);
                    pair.burst(&mut rng, at, n);
                }
            }
            pair.drain(round);
        }
    }
}
