//! A 4-ary min-heap keyed by `u64` priorities.
//!
//! Dijkstra dominates both server-side precomputation (thousands of full
//! searches) and the simulated client CPU time, so the priority queue is
//! worth owning: a 4-ary heap halves the tree height versus a binary heap
//! and keeps sift-down children on one cache line. The heap is *lazy* —
//! Dijkstra pushes duplicates instead of decreasing keys and skips stale
//! pops — which benchmarks faster than an indexed heap on sparse road
//! graphs.

/// Entry pairing a priority with an opaque payload (usually a node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapEntry<T> {
    /// Sort key (smaller pops first).
    pub key: u64,
    /// Payload.
    pub item: T,
}

/// A 4-ary min-heap.
#[derive(Debug, Clone)]
pub struct MinHeap<T> {
    slots: Vec<HeapEntry<T>>,
}

impl<T: Copy> Default for MinHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> MinHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Creates an empty heap with capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
        }
    }

    /// Number of entries (including stale duplicates).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no entries are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries the heap can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Removes all entries, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Smallest key currently queued.
    #[inline]
    pub fn peek_key(&self) -> Option<u64> {
        self.slots.first().map(|e| e.key)
    }

    /// Pushes an entry.
    #[inline]
    pub fn push(&mut self, key: u64, item: T) {
        self.slots.push(HeapEntry { key, item });
        self.sift_up(self.slots.len() - 1);
    }

    /// Pops the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<HeapEntry<T>> {
        let len = self.slots.len();
        match len {
            0 => None,
            1 => self.slots.pop(),
            _ => {
                let last = self.slots.pop().expect("len > 1");
                let top = self.slots[0];
                self.sift_down(0, last);
                Some(top)
            }
        }
    }

    // Both sifts move a hole instead of swapping: entries on the way
    // shift one level and the moving entry is written once, at the slot
    // the swap version would have left it in (same comparisons, same
    // final layout, so the pop sequence is unchanged).

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let moving = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if moving.key < self.slots[parent].key {
                self.slots[i] = self.slots[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.slots[i] = moving;
    }

    /// Sifts `moving` down from the hole at `i`.
    #[inline]
    fn sift_down(&mut self, mut i: usize, moving: HeapEntry<T>) {
        let len = self.slots.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + 4).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.slots[c].key < self.slots[best].key {
                    best = c;
                }
            }
            if self.slots[best].key < moving.key {
                self.slots[i] = self.slots[best];
                i = best;
            } else {
                break;
            }
        }
        self.slots[i] = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_key_order() {
        let mut h = MinHeap::new();
        for &k in &[5u64, 3, 9, 1, 7] {
            h.push(k, k as u32);
        }
        let mut keys = Vec::new();
        while let Some(e) = h.pop() {
            keys.push(e.key);
        }
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut h: MinHeap<u32> = MinHeap::new();
        assert!(h.pop().is_none());
        assert!(h.is_empty());
        assert_eq!(h.peek_key(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut h = MinHeap::new();
        h.push(2, 0u32);
        h.push(2, 1u32);
        h.push(1, 2u32);
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop().unwrap().item, 2);
        let mut rest: Vec<u32> = [h.pop().unwrap().item, h.pop().unwrap().item].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut h = MinHeap::new();
        h.push(10, 0u32);
        h.push(4, 1u32);
        assert_eq!(h.peek_key(), Some(4));
        assert_eq!(h.pop().unwrap().key, 4);
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut h = MinHeap::new();
        for k in 0..100u64 {
            h.push(k, k as u32);
        }
        h.clear();
        assert!(h.is_empty());
        h.push(1, 1);
        assert_eq!(h.pop().unwrap().key, 1);
    }

    #[test]
    fn randomized_against_sorted_reference() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..50 {
            let n = rng.gen_range(1..200);
            let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            let mut h = MinHeap::new();
            for (i, &k) in keys.iter().enumerate() {
                h.push(k, i as u32);
            }
            let mut popped = Vec::new();
            while let Some(e) = h.pop() {
                popped.push(e.key);
            }
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(popped, expect);
        }
    }

    #[test]
    fn interleaved_push_pop() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = MinHeap::new();
        let mut reference = std::collections::BinaryHeap::new();
        for _ in 0..2000 {
            if rng.gen_bool(0.6) || reference.is_empty() {
                let k = rng.gen_range(0..10_000u64);
                h.push(k, 0u8);
                reference.push(std::cmp::Reverse(k));
            } else {
                assert_eq!(h.pop().unwrap().key, reference.pop().unwrap().0);
            }
        }
    }
}
