//! Simulated time and the discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Add;

/// Simulated time in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Microsecond count.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

/// A deterministic discrete-event queue: events fire in `(time, seq)`
/// order, where `seq` is the insertion sequence number — ties are broken
/// by insertion order, making runs reproducible.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
}

/// Wrapper that exempts the payload from ordering.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.heap.push(Reverse((time, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((t, _, EventBox(e)))| (t, e))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "b");
        q.push(SimTime(5), "c");
        q.push(SimTime(1), "a");
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        assert_eq!(q.pop(), Some((SimTime(5), "b")));
        assert_eq!(q.pop(), Some((SimTime(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_micros(10) + 5;
        assert_eq!(t.micros(), 15);
        assert_eq!(t.to_string(), "15µs");
        assert!(SimTime::ZERO < t);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
