//! [`Ring`]: the one bounded drop-oldest buffer behind every obs ring
//! (journal, trace ledger, hub journal tail and metric-store series).
//!
//! The ring's capacity counts *records*. Most rings hold one record
//! per slot ([`One`]); the trace ledger holds one slot per recorded
//! day, a `Vec` of that day's records ([`Chunk`]), so a day is written
//! once and handed out again without a copy. Eviction drops the oldest
//! records either way, trimming the oldest chunk when only part of it
//! has to go.
//!
//! The ring only keeps count; it never records a metric itself. Each
//! caller bumps its own drop counter when [`Ring::push`] reports an
//! eviction, because `counter!` caches one handle per call site: a
//! shared call site inside the ring would record every ring under
//! whichever name reached it first on that thread.

use std::collections::VecDeque;
use std::marker::PhantomData;

/// How many records one ring slot holds, and how to drop the oldest of
/// them.
pub trait Weight<T> {
    /// Records in `slot`.
    fn of(slot: &T) -> usize;
    /// Drops the oldest `n` records of `slot`; `n < Self::of(slot)`.
    fn trim_front(slot: &mut T, n: usize);
}

/// One record per slot (the default).
#[derive(Debug)]
pub enum One {}

impl<T> Weight<T> for One {
    #[inline]
    fn of(_: &T) -> usize {
        1
    }

    /// Never has anything to do: `n` is always 0 for a one-record slot.
    #[inline]
    fn trim_front(_: &mut T, _: usize) {}
}

/// One slot per batch of records written together, oldest first.
#[derive(Debug)]
pub enum Chunk {}

impl<R> Weight<Vec<R>> for Chunk {
    #[inline]
    fn of(slot: &Vec<R>) -> usize {
        slot.len()
    }

    fn trim_front(slot: &mut Vec<R>, n: usize) {
        slot.drain(..n);
    }
}

/// A bounded FIFO that evicts its oldest records when full, counting
/// evictions and tracking its highest fill level. A ring of capacity
/// 0 keeps nothing and counts nothing.
#[derive(Debug)]
pub struct Ring<T, W: Weight<T> = One> {
    buf: VecDeque<T>,
    cap: usize,
    /// Records buffered: the sum of the slots' weights.
    len: usize,
    dropped: u64,
    high_water: usize,
    /// High-water mark last returned by [`Ring::high_water_rise`].
    published: usize,
    weight: PhantomData<W>,
}

impl<T, W: Weight<T>> Ring<T, W> {
    /// An empty ring holding at most `cap` records (allocates lazily).
    pub fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            cap,
            len: 0,
            dropped: 0,
            high_water: 0,
            published: 0,
            weight: PhantomData,
        }
    }

    /// Appends `slot`, first evicting the oldest records it has no room
    /// for. A slot larger than the whole ring keeps only its newest
    /// records; an empty slot is not stored. Returns the records
    /// evicted, counting any cut from `slot` itself.
    #[inline]
    pub fn push(&mut self, mut slot: T) -> u64 {
        let w = W::of(&slot);
        if self.cap == 0 || w == 0 {
            return 0;
        }
        let cut = w.saturating_sub(self.cap);
        if cut > 0 {
            W::trim_front(&mut slot, cut);
        }
        let w = w - cut;
        let evicted = cut as u64 + self.evict_to(self.cap - w);
        self.dropped += evicted;
        self.len += w;
        self.buf.push_back(slot);
        self.high_water = self.high_water.max(self.len);
        evicted
    }

    /// Drops the oldest records until at most `keep` remain; returns
    /// how many went.
    fn evict_to(&mut self, keep: usize) -> u64 {
        let mut evicted = 0;
        while self.len > keep {
            let excess = self.len - keep;
            let Some(front) = self.buf.front_mut() else {
                break;
            };
            let w = W::of(front);
            let n = if w <= excess {
                self.buf.pop_front();
                w
            } else {
                W::trim_front(front, excess);
                excess
            };
            self.len -= n;
            evicted += n as u64;
        }
        evicted
    }

    /// The most records the ring holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records evicted by [`Ring::push`] since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Highest fill level, in records, reached since creation. Equal
    /// to the capacity once anything has been dropped.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The high-water mark when it has risen since this last returned
    /// one, so a caller publishing it as a gauge takes the gauge lock
    /// only when there is something new to say.
    pub fn high_water_rise(&mut self) -> Option<usize> {
        (self.high_water > self.published).then(|| {
            self.published = self.high_water;
            self.high_water
        })
    }

    /// Buffered records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffered slots, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    /// The newest slot.
    pub fn back_mut(&mut self) -> Option<&mut T> {
        self.buf.back_mut()
    }

    /// Removes every buffered slot, oldest first. `dropped` and
    /// `high_water` keep their lifetime values.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, T> {
        self.len = 0;
        self.buf.drain(..)
    }

    /// Changes the capacity, evicting the oldest records when
    /// shrinking. Resizing is configuration, not pressure, so nothing
    /// is counted as dropped.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        self.evict_to(cap);
    }
}

impl<R> Ring<Vec<R>, Chunk> {
    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.buf.iter().flatten()
    }

    /// Removes every buffered record, oldest first. A lone chunk is
    /// handed over as it is; several are joined into one `Vec`.
    pub fn drain_records(&mut self) -> Vec<R> {
        if self.buf.len() == 1 {
            self.len = 0;
            return self.buf.pop_front().unwrap_or_default();
        }
        let mut out = Vec::with_capacity(self.len);
        for chunk in self.drain() {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_oldest_and_keeps_count() {
        let mut r: Ring<i32> = Ring::new(3);
        let evicted: Vec<u64> = (0..5).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [0, 0, 0, 1, 1]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!((r.len(), r.dropped(), r.high_water()), (3, 2, 3));
        if let Some(x) = r.back_mut() {
            *x *= 10;
        }
        assert_eq!(r.drain().collect::<Vec<_>>(), [2, 3, 40]);
        assert!(r.is_empty());
        assert_eq!(
            (r.dropped(), r.high_water()),
            (2, 3),
            "lifetime counts survive a drain"
        );

        let mut none: Ring<i32> = Ring::new(0);
        assert_eq!(none.push(1), 0);
        assert_eq!((none.len(), none.dropped(), none.high_water()), (0, 0, 0));

        let mut r: Ring<i32> = Ring::new(4);
        (0..4).for_each(|i| {
            r.push(i);
        });
        r.set_capacity(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3]);
        assert_eq!(r.dropped(), 0, "a shrink is not counted as a drop");
        assert_eq!(r.push(4), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn chunks_count_records_and_trim_the_oldest() {
        let mut r: Ring<Vec<u32>, Chunk> = Ring::new(5);
        assert_eq!(r.push(vec![0, 1]), 0);
        assert_eq!(r.push(vec![]), 0, "an empty chunk is not stored");
        assert_eq!(r.push(vec![2, 3]), 0);
        assert_eq!((r.len(), r.iter().count()), (4, 2));
        // Two records too many: the oldest chunk goes whole, nothing
        // else is touched.
        assert_eq!(r.push(vec![4, 5, 6]), 2);
        assert_eq!(r.records().copied().collect::<Vec<_>>(), [2, 3, 4, 5, 6]);
        // One too many: the oldest chunk is trimmed, not dropped.
        assert_eq!(r.push(vec![7]), 1);
        assert_eq!(r.records().copied().collect::<Vec<_>>(), [3, 4, 5, 6, 7]);
        assert_eq!((r.len(), r.dropped(), r.high_water()), (5, 3, 5));
        // A chunk larger than the ring keeps only its newest records.
        assert_eq!(r.push((10..17).collect()), 7);
        assert_eq!(
            r.records().copied().collect::<Vec<_>>(),
            [12, 13, 14, 15, 16]
        );
        assert_eq!((r.len(), r.dropped()), (5, 10));
        r.set_capacity(3);
        assert_eq!(r.drain_records(), [14, 15, 16]);
        assert_eq!((r.len(), r.dropped()), (0, 10));

        // One buffered chunk is handed over without a copy.
        let day = vec![1u32, 2, 3];
        let at = day.as_ptr();
        r.push(day);
        let out = r.drain_records();
        assert_eq!((out.as_ptr(), out.len(), r.len()), (at, 3, 0));
        r.push(vec![1]);
        r.push(vec![2, 3]);
        assert_eq!(r.drain_records(), [1, 2, 3]);
        assert!(r.is_empty() && r.drain_records().is_empty());
    }

    #[test]
    fn high_water_rises_are_reported_once() {
        let mut r: Ring<i32> = Ring::new(3);
        assert_eq!(r.high_water_rise(), None);
        r.push(0);
        r.push(1);
        assert_eq!(r.high_water_rise(), Some(2));
        assert_eq!(r.high_water_rise(), None);
        r.drain();
        r.push(2);
        assert_eq!(r.high_water_rise(), None, "refilling to 1 is no rise");
        (0..5).for_each(|i| {
            r.push(i);
        });
        assert_eq!(r.high_water_rise(), Some(3));
    }
}
