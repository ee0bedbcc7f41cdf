//! A stable, timestamped event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(time, sequence)`. The sequence
//! number makes ordering *stable*: two events scheduled for the same instant
//! pop in the order they were pushed, which keeps simulations deterministic
//! regardless of heap internals.
//!
//! The queue sits on the simulation's hottest path (every frame, timer and
//! sample passes through it), so it does no hashing: the heap key is a
//! single packed `u128` compare, and since sequence numbers are issued
//! densely and in order, the set of live (not popped, not cancelled)
//! events is a bitset indexed by sequence offset. The bitset drops its
//! leading words as they empty, so it spans the live sequence numbers,
//! not the whole run. Cancellation clears a bit; the cancelled entry is
//! dropped lazily when it reaches the heap head.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::Hasher;

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Handles are unique per [`EventQueue`] instance and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(pub(crate) u64);

/// One-multiply hasher for dense integer keys (the medium's hot maps).
/// SplitMix64-style finalization: fast, and sequential keys spread across
/// the whole output range (std's SipHash costs ~10× as much per lookup for
/// zero benefit against non-adversarial keys).
#[derive(Debug, Default, Clone)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for derived Hash impls over odd-sized fields; fold
        // bytes in.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 31);
    }
}

/// Live sequence numbers as a bitset: bit `seq % 64` of word
/// `seq / 64 - base`. Sequence numbers arrive in increasing order, so
/// words are only appended; leading words are dropped once they hold no
/// live bit.
#[derive(Debug, Default)]
struct LiveSet {
    words: VecDeque<u64>,
    /// Word index (`seq / 64`) of `words[0]`.
    base: u64,
    len: usize,
}

impl LiveSet {
    /// Adds `seq`, which must exceed every sequence number added before.
    fn insert(&mut self, seq: u64) {
        if self.words.is_empty() {
            self.base = seq / 64;
        }
        let idx = (seq / 64 - self.base) as usize;
        if idx >= self.words.len() {
            self.words.resize(idx + 1, 0);
        }
        self.words[idx] |= 1 << (seq % 64);
        self.len += 1;
    }

    /// The word holding `seq`'s bit, if it is in range, and that bit.
    fn word(&mut self, seq: u64) -> Option<(&mut u64, u64)> {
        let idx = usize::try_from((seq / 64).checked_sub(self.base)?).ok()?;
        Some((self.words.get_mut(idx)?, 1 << (seq % 64)))
    }

    fn contains(&mut self, seq: u64) -> bool {
        self.word(seq).is_some_and(|(word, bit)| *word & bit != 0)
    }

    /// Removes `seq`; `false` if it was not live.
    fn remove(&mut self, seq: u64) -> bool {
        match self.word(seq) {
            Some((word, bit)) if *word & bit != 0 => *word &= !bit,
            _ => return false,
        }
        self.len -= 1;
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 1;
        }
        true
    }
}

struct Entry<E> {
    /// `(time << 64) | seq` — one `u128` compare orders by time with FIFO
    /// tie-break, replacing the two-branch lexicographic compare.
    key: u128,
    event: E,
}

/// The queue key of the event numbered `seq` at `time`: time in the high
/// half, so keys order by time with ties in scheduling order.
#[inline]
pub(crate) fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_micros()) << 64) | u128::from(seq)
}

#[inline]
pub(crate) fn unpack_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[inline]
pub(crate) fn unpack_seq(key: u128) -> u64 {
    key as u64
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic priority queue of timestamped events.
///
/// # Example
///
/// ```
/// use bicord_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), 'b');
/// q.push(SimTime::from_millis(1), 'a');
/// let h = q.push(SimTime::from_millis(3), 'c');
/// q.cancel(h);
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), 'b')));
/// assert_eq!(q.pop(), None); // 'c' was cancelled
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Sequence numbers of events that are scheduled and not yet popped or
    /// cancelled. Cancelled entries are dropped lazily at the heap head.
    live: LiveSet,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            live: LiveSet::default(),
        }
    }

    /// Pre-sizes for at least `additional` further events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at `time` and returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: pack(time, seq),
            event,
        });
        self.live.insert(seq);
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been popped or cancelled.
    /// Cancelled events are dropped lazily when they reach the queue head.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.live.remove(handle.0)
    }

    /// Removes and returns the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.live.remove(unpack_seq(entry.key)) {
                return Some((unpack_time(entry.key), entry.event));
            }
        }
        None
    }

    /// The timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the head so the peeked value is live.
        while let Some(entry) = self.heap.peek() {
            if self.live.contains(unpack_seq(entry.key)) {
                return Some(unpack_time(entry.key));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (non-cancelled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.live.len
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live.len == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live.len)
            .field("heap_size", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_micros(1), "a");
        let h2 = q.push(SimTime::from_micros(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        assert!(!q.cancel(h2), "cancel after pop reports false");
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h = q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_micros(1), "cancelled");
        q.push(SimTime::from_micros(9), "live");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.pop().unwrap().1, "live");
    }

    #[test]
    fn peek_time_empty_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn with_capacity_and_reserve_preserve_behaviour() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..32 {
            q.push(SimTime::from_micros(100 - i), i);
        }
        q.reserve(1_000);
        assert_eq!(q.len(), 32);
        assert_eq!(q.pop().unwrap().1, 31, "latest push had earliest time");
    }

    #[test]
    fn packed_key_roundtrips_extremes() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "max");
        q.push(SimTime::ZERO, "zero");
        q.push(SimTime::from_micros(u64::MAX - 1), "almost");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "zero")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_micros(u64::MAX - 1), "almost"))
        );
        assert_eq!(q.pop(), Some((SimTime::MAX, "max")));
    }

    #[test]
    fn cancel_below_the_advanced_base_is_false() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..200)
            .map(|i| q.push(SimTime::from_micros(i), i))
            .collect();
        for _ in 0..130 {
            q.pop();
        }
        assert!(q.live.base >= 2, "two fully popped words were dropped");
        assert!(!q.cancel(handles[0]));
        assert!(!q.cancel(handles[127]));
        assert!(q.cancel(handles[130]));
        assert_eq!(q.len(), 69);
    }

    #[test]
    fn bitset_stays_within_the_live_sequence_span() {
        // Steady state of a large pending backlog: each pop is followed by
        // a push far in the future, so the live span is always 10k.
        const PENDING: u64 = 10_000;
        let mut q = EventQueue::with_capacity(PENDING as usize + 1);
        for i in 0..PENDING {
            q.push(SimTime::from_micros(i * 7), i);
        }
        for next in PENDING..PENDING + 50_000 {
            let (time, _) = q.pop().expect("queue is never drained");
            q.push(time + crate::SimDuration::from_micros(70_000), next);
        }
        assert_eq!(q.len(), PENDING as usize);
        let span_words = (PENDING as usize).div_ceil(64) + 1;
        assert!(
            q.live.words.len() <= span_words,
            "{} words for a {PENDING}-event span",
            q.live.words.len()
        );
    }

    /// One step of the model-based test below.
    #[derive(Debug, Clone)]
    enum Op {
        /// Pushes an event this many microseconds after the last pop, as
        /// a simulation would, so old sequence words drain and the
        /// bitset's base advances.
        Push(u64),
        /// Cancels the `n % issued`-th handle issued so far: live,
        /// popped or already cancelled, depending on the history.
        CancelIssued(usize),
        /// Cancels a handle this queue never issued.
        CancelUnissued(u64),
        Pop,
        PeekTime,
        Len,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0u64..1_000_000).prop_map(|(kind, n)| match kind {
            // Few distinct instants, so equal timestamps are common.
            0..=3 => Op::Push(n % 8),
            4 | 5 => Op::CancelIssued(n as usize),
            6 => Op::CancelUnissued(n % 1_000),
            7 | 8 => Op::Pop,
            9 => Op::PeekTime,
            _ => Op::Len,
        })
    }

    proptest! {
        #[test]
        fn matches_a_sorted_vec_model(ops in proptest::collection::vec(op(), 1..1000)) {
            let mut q = EventQueue::new();
            // Live `(time, seq)` pairs; the minimum pops next.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut issued: Vec<EventHandle> = Vec::new();
            let mut now = 0;
            for op in ops {
                match op {
                    Op::Push(delay) => {
                        let t = now + delay;
                        let h = q.push(SimTime::from_micros(t), issued.len() as u64);
                        model.push((t, h.0));
                        issued.push(h);
                    }
                    Op::CancelIssued(n) => {
                        if issued.is_empty() {
                            continue;
                        }
                        let h = issued[n % issued.len()];
                        let pos = model.iter().position(|&(_, seq)| seq == h.0);
                        if let Some(pos) = pos {
                            model.remove(pos);
                        }
                        prop_assert_eq!(q.cancel(h), pos.is_some());
                    }
                    Op::CancelUnissued(n) => {
                        prop_assert!(!q.cancel(EventHandle(issued.len() as u64 + n)));
                    }
                    Op::Pop => {
                        model.sort_unstable();
                        let expected = (!model.is_empty()).then(|| model.remove(0));
                        now = expected.map_or(now, |(t, _)| t);
                        prop_assert_eq!(
                            q.pop(),
                            expected.map(|(t, seq)| (SimTime::from_micros(t), seq))
                        );
                    }
                    Op::PeekTime => {
                        let expected = model.iter().min().map(|&(t, _)| SimTime::from_micros(t));
                        prop_assert_eq!(q.peek_time(), expected);
                    }
                    Op::Len => {
                        prop_assert_eq!(q.len(), model.len());
                        prop_assert_eq!(q.is_empty(), model.is_empty());
                    }
                }
            }
        }

        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt, "time order violated");
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO tie-break violated");
                    }
                }
                prop_assert_eq!(SimTime::from_micros(times[idx]), t);
                last = Some((t, idx));
            }
        }

        #[test]
        fn cancelled_events_never_pop(
            times in proptest::collection::vec(0u64..1000, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let mut q = EventQueue::new();
            let handles: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.push(SimTime::from_micros(t), i))
                .collect();
            let mut expected: Vec<usize> = Vec::new();
            for (i, h) in handles.iter().enumerate() {
                if cancel_mask[i % cancel_mask.len()] {
                    q.cancel(*h);
                } else {
                    expected.push(i);
                }
            }
            let mut popped: Vec<usize> = Vec::new();
            while let Some((_, idx)) = q.pop() {
                popped.push(idx);
            }
            popped.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(popped, expected);
        }
    }
}
