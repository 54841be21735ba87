//! [`Ring`]: the one bounded drop-oldest buffer behind every obs ring
//! (journal, trace ledger, hub journal tail, span-tree store, and
//! metric-store series).
//!
//! The ring only keeps count; it never records a metric itself. Each
//! caller bumps its own drop counter when [`Ring::push`] reports an
//! eviction, because `counter!` caches one handle per call site: a
//! shared call site inside the ring would record every ring under
//! whichever name reached it first on that thread.

use std::collections::VecDeque;

/// A bounded FIFO that evicts its oldest item when full, counting
/// evictions and tracking its highest fill level. A ring of capacity
/// 0 keeps nothing and counts nothing.
#[derive(Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
    high_water: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` items (allocates lazily).
    pub fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            cap,
            dropped: 0,
            high_water: 0,
        }
    }

    /// Appends `item`, evicting the oldest item first when full.
    /// Returns `true` when an item was evicted.
    #[inline]
    pub fn push(&mut self, item: T) -> bool {
        if self.cap == 0 {
            return false;
        }
        let evicted = self.buf.len() >= self.cap;
        if evicted {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        self.high_water = self.high_water.max(self.buf.len());
        evicted
    }

    /// The most items the ring holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items evicted by [`Ring::push`] since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Highest fill level reached since creation. Equal to the
    /// capacity once anything has been dropped.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Buffered items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Buffered items, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    /// Mutable buffered items, oldest first.
    pub fn iter_mut(&mut self) -> std::collections::vec_deque::IterMut<'_, T> {
        self.buf.iter_mut()
    }

    /// Removes every buffered item, oldest first. `dropped` and
    /// `high_water` keep their lifetime values.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, T> {
        self.buf.drain(..)
    }

    /// Changes the capacity, evicting the oldest items when shrinking.
    /// Resizing is configuration, not pressure, so nothing is counted
    /// as dropped.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        let excess = self.buf.len().saturating_sub(cap);
        self.buf.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_oldest_and_keeps_count() {
        let mut r = Ring::new(3);
        let evicted: Vec<bool> = (0..5).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [false, false, false, true, true]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!((r.len(), r.dropped(), r.high_water()), (3, 2, 3));
        for x in r.iter_mut() {
            *x *= 10;
        }
        assert_eq!(r.drain().collect::<Vec<_>>(), [20, 30, 40]);
        assert!(r.is_empty());
        assert_eq!(
            (r.dropped(), r.high_water()),
            (2, 3),
            "lifetime counts survive a drain"
        );

        let mut none = Ring::new(0);
        assert!(!none.push(1));
        assert_eq!((none.len(), none.dropped(), none.high_water()), (0, 0, 0));

        let mut r = Ring::new(4);
        (0..4).for_each(|i| {
            r.push(i);
        });
        r.set_capacity(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3]);
        assert_eq!(r.dropped(), 0, "a shrink is not counted as a drop");
        assert!(r.push(4));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [3, 4]);
    }
}
