//! An O(1) bounded LRU set over `u64` keys, and the recency list it is
//! built on.
//!
//! [`LruSet`] backs the TLB's fully-associative entry set and the 3C
//! classifier's exhaustive reference path (its fully-associative
//! capacity model when the fast path is off). The classifier's fast path
//! keeps the same model in a direct-indexed
//! [`LineTable`](crate::linetable::LineTable) over the same
//! [`RecencyList`].

use crate::linehash::LineHashState;
use std::collections::HashMap;

/// The "no slot" link value; slots are therefore below `u32::MAX`.
const NIL: u32 = u32::MAX;

/// How many recency positions [`LruSet::touch`] scans (pointer-chasing
/// from the MRU end) before falling back to the hash index, in fast
/// mode. Loop traces interleave a handful of arrays, so the line just
/// referenced is almost always within the first few positions.
const FRONT_SCAN: u32 = 6;

/// A most- to least-recently-used order over keys held in slots
/// `0..len()`.
///
/// Stored structure-of-arrays: `keys`, `prev`, and `next` are parallel
/// flat arrays indexed by slot, so a scan from the MRU end chases `next`
/// while comparing `keys`, touching two dense arrays instead of
/// striding over 16-byte nodes. Beyond that short scan, finding a key's
/// slot is the owner's job.
#[derive(Clone, Debug)]
pub(crate) struct RecencyList {
    keys: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
}

impl RecencyList {
    /// An empty list with room for `capacity` slots before growing.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        RecencyList {
            keys: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The slot holding `key` among the `depth` most-recently-used
    /// slots, found by chasing `next` from the MRU end.
    #[inline]
    pub(crate) fn find_near_front(&self, key: u64, depth: u32) -> Option<u32> {
        let mut slot = self.head;
        for _ in 0..depth {
            if slot == NIL {
                return None;
            }
            if self.keys[slot as usize] == key {
                return Some(slot);
            }
            slot = self.next[slot as usize];
        }
        None
    }

    /// Puts `key` in a new slot at the MRU end and returns the slot.
    pub(crate) fn push(&mut self, key: u64) -> u32 {
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        self.prev.push(NIL);
        self.next.push(NIL);
        self.push_front(slot);
        slot
    }

    /// Replaces the least-recently-used key with `key` and makes its
    /// slot most-recently used. Returns the slot and the replaced key.
    ///
    /// The list must not be empty.
    #[inline]
    pub(crate) fn recycle_lru(&mut self, key: u64) -> (u32, u64) {
        let slot = self.tail;
        let old = std::mem::replace(&mut self.keys[slot as usize], key);
        self.move_to_front(slot);
        (slot, old)
    }

    /// Makes `slot` the most-recently-used.
    #[inline]
    pub(crate) fn move_to_front(&mut self, slot: u32) {
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// The keys from least- to most-recently used.
    pub(crate) fn lru_to_mru(&self) -> impl Iterator<Item = u64> + '_ {
        let mut slot = self.tail;
        std::iter::from_fn(move || {
            (slot != NIL).then(|| {
                let key = self.keys[slot as usize];
                slot = self.prev[slot as usize];
                key
            })
        })
    }

    fn unlink(&mut self, slot: u32) {
        let prev = self.prev[slot as usize];
        let next = self.next[slot as usize];
        if prev != NIL {
            self.next[prev as usize] = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }
}

/// A fixed-capacity set of `u64` keys with least-recently-used eviction,
/// O(1) per operation: a [`RecencyList`] plus a hash index from key to
/// slot.
///
/// # Examples
///
/// ```ignore
/// let mut lru = LruSet::new(2);
/// assert!(!lru.touch(1)); // miss, inserted
/// assert!(!lru.touch(2)); // miss, inserted
/// assert!(lru.touch(1));  // hit
/// assert!(!lru.touch(3)); // miss, evicts 2
/// assert!(!lru.touch(2)); // miss again
/// ```
#[derive(Clone, Debug)]
pub(crate) struct LruSet {
    list: RecencyList,
    index: HashMap<u64, u32, LineHashState>,
    capacity: usize,
    fast: bool,
}

impl LruSet {
    /// Creates a set holding at most `capacity` keys, with the fast
    /// lookup path enabled.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above `u32::MAX` (slots are
    /// `u32` indices, and `u32::MAX` itself is the list terminator).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be nonzero");
        assert!(
            capacity as u64 <= u64::from(NIL),
            "LRU capacity {capacity} exceeds the limit of {NIL} keys"
        );
        let prealloc = capacity.min(1 << 20);
        LruSet {
            list: RecencyList::with_capacity(prealloc),
            index: HashMap::with_capacity_and_hasher(prealloc, LineHashState::for_fast(true)),
            capacity,
            fast: true,
        }
    }

    /// Switches the fast lookup path (front-of-list scan + one-multiply
    /// hashing) on or off. Hit/miss/eviction behaviour is identical in
    /// both modes; the slow mode is the exhaustive SipHash reference.
    pub(crate) fn set_fast(&mut self, fast: bool) {
        if self.fast == fast {
            return;
        }
        self.fast = fast;
        // Bucket positions depend on the hash function: rebuild.
        let mut index =
            HashMap::with_capacity_and_hasher(self.index.capacity(), LineHashState::for_fast(fast));
        index.extend(self.index.drain());
        self.index = index;
    }

    /// Number of keys currently resident. (Test-only helper.)
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// References `key`: returns `true` on hit. On miss the key is
    /// inserted, evicting the least-recently-used key if full. Either
    /// way `key` becomes most-recently-used.
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        if self.fast {
            // A key near the MRU end is found with no hashing at all —
            // and at position 0 the touch is a structural no-op.
            if let Some(slot) = self.list.find_near_front(key, FRONT_SCAN) {
                self.list.move_to_front(slot);
                return true;
            }
        }
        if let Some(&slot) = self.index.get(&key) {
            self.list.move_to_front(slot);
            return true;
        }
        let slot = if self.list.len() == self.capacity {
            let (slot, evicted) = self.list.recycle_lru(key);
            self.index.remove(&evicted);
            slot
        } else {
            self.list.push(key)
        };
        self.index.insert(key, slot);
        false
    }

    /// The resident keys from least- to most-recently used.
    pub(crate) fn lru_to_mru(&self) -> impl Iterator<Item = u64> + '_ {
        self.list.lru_to_mru()
    }

    /// Returns `true` if `key` is resident, without updating recency.
    /// (Test-only helper.)
    #[allow(dead_code)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_evict() {
        let mut lru = LruSet::new(2);
        assert!(!lru.touch(1));
        assert!(!lru.touch(2));
        assert!(lru.touch(1)); // 1 now MRU, 2 LRU
        assert!(!lru.touch(3)); // evicts 2
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
        assert!(lru.contains(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruSet::new(1);
        assert!(!lru.touch(7));
        assert!(lru.touch(7));
        assert!(!lru.touch(8));
        assert!(!lru.touch(7));
    }

    #[test]
    fn sequential_stream_larger_than_capacity_never_hits() {
        let mut lru = LruSet::new(4);
        for round in 0..3 {
            for key in 0..8u64 {
                assert!(!lru.touch(key), "round {round} key {key} unexpectedly hit");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut lru = LruSet::new(8);
        for key in 0..8u64 {
            lru.touch(key);
        }
        for _ in 0..10 {
            for key in 0..8u64 {
                assert!(lru.touch(key));
            }
        }
    }

    /// Drives an [`LruSet`] against a naive O(n) oracle. `toggle_every`
    /// switches the fast path on/off periodically when nonzero.
    fn check_against_oracle(initial_fast: bool, toggle_every: usize) {
        use std::collections::VecDeque;
        let mut oracle: VecDeque<u64> = VecDeque::new();
        let capacity = 16;
        let mut lru = LruSet::new(capacity);
        lru.set_fast(initial_fast);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..10_000usize {
            if toggle_every > 0 && step.is_multiple_of(toggle_every) {
                let fast = lru.fast;
                lru.set_fast(!fast);
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 40;
            let oracle_hit = if let Some(pos) = oracle.iter().position(|&k| k == key) {
                oracle.remove(pos);
                oracle.push_front(key);
                true
            } else {
                if oracle.len() == capacity {
                    oracle.pop_back();
                }
                oracle.push_front(key);
                false
            };
            assert_eq!(lru.touch(key), oracle_hit, "step {step}");
        }
    }

    #[test]
    fn matches_naive_model_on_random_stream() {
        check_against_oracle(true, 0);
    }

    #[test]
    fn slow_mode_matches_naive_model() {
        check_against_oracle(false, 0);
    }

    #[test]
    fn toggling_fast_mode_mid_stream_preserves_contents() {
        // The index rebuild on toggle must carry every resident key.
        check_against_oracle(true, 97);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds the limit")]
    fn capacity_colliding_with_the_list_terminator_panics() {
        let _ = LruSet::new(u32::MAX as usize + 1);
    }
}
