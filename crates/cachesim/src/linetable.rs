//! Direct-indexed per-line state: the 3C classifier's fast path.
//!
//! One `u32` per line answers both of the classifier's questions — was
//! this line ever referenced, and is it resident in the
//! fully-associative (FA) capacity model — with a single load:
//!
//! * `0` — never referenced;
//! * `1` — seen, but not resident in the FA model;
//! * `s + 2` — resident in FA recency slot `s`.
//!
//! The states live in 256-line pages (1 KiB), allocated on first touch
//! and found through a page map fronted by a one-entry last-page cache.
//! Streams walk lines in runs (loop nests, object scans), so nearly
//! every lookup hits the cached page and hashes nothing. Small pages
//! keep scattered footprints cheap: serving scatters 32 KiB objects
//! (256 lines of 128 bytes) over a 128 GiB span, so each object gets a
//! page of its own, and 4096-line pages measured ~5× the serving
//! benchmark's peak RSS.
//!
//! The FA recency order is a [`RecencyList`], as in
//! [`LruSet`](crate::lru::LruSet) but with the line states in place of
//! its hash index: each slot also records its line's page, so evicting
//! the LRU line rewrites that line's state to "seen" with no lookup at
//! all.

use crate::linehash::LineHashState;
use crate::lru::RecencyList;
use crate::MissClass;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 8;
const PAGE_LINES: usize = 1 << PAGE_SHIFT;
const UNSEEN: u32 = 0;
const SEEN: u32 = 1;
/// State of a line resident in slot 0; slot `s` is stored as `s + FIRST_SLOT`.
const FIRST_SLOT: u32 = 2;

/// Largest FA capacity (in lines) the state encoding can hold: slots
/// `0..=u32::MAX - FIRST_SLOT` must all map to distinct states (which
/// also keeps every slot below the list terminator).
pub(crate) const MAX_CAPACITY: u64 = (u32::MAX - FIRST_SLOT) as u64 + 1;

/// Seen-set plus fully-associative LRU model of one cache level's
/// reference stream, indexed directly by line.
#[derive(Clone, Debug)]
pub(crate) struct LineTable {
    /// Page number (`line >> PAGE_SHIFT`) → page index in `states`.
    pages: HashMap<u64, u32, LineHashState>,
    /// `PAGE_LINES` states per allocated page, in allocation order.
    states: Vec<u32>,
    /// The page number last looked up (`u64::MAX`, which no line's page
    /// can be, until the first lookup) and its offset in `states`.
    last_page: u64,
    last_base: usize,
    /// FA recency order; a slot's key is its line.
    list: RecencyList,
    /// Page index of each slot's line.
    slot_page: Vec<u32>,
    capacity: usize,
}

impl LineTable {
    /// Creates an empty table whose FA model holds `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_CAPACITY`].
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "classifier capacity must be nonzero");
        assert!(
            capacity as u64 <= MAX_CAPACITY,
            "classifier capacity {capacity} lines exceeds the line table's limit of \
             {MAX_CAPACITY} lines"
        );
        LineTable {
            pages: HashMap::with_hasher(LineHashState::for_fast(true)),
            states: Vec::new(),
            last_page: u64::MAX,
            last_base: 0,
            list: RecencyList::with_capacity(0),
            slot_page: Vec::new(),
            capacity,
        }
    }

    /// References `line`: it becomes most-recently-used in the FA
    /// model, evicting the least-recently-used line if the model is
    /// full. Returns the class a miss on `line` has, judged from the
    /// state before the reference: compulsory if the line was never
    /// referenced, conflict if the FA model holds it, else capacity.
    #[inline]
    pub(crate) fn touch(&mut self, line: u64) -> MissClass {
        let at = self.state_index(line);
        let state = self.states[at];
        if state >= FIRST_SLOT {
            self.list.move_to_front(state - FIRST_SLOT);
            return MissClass::Conflict;
        }
        let page = (at >> PAGE_SHIFT) as u32;
        let slot = if self.list.len() == self.capacity {
            let (slot, evicted) = self.list.recycle_lru(line);
            let page_of_evicted = std::mem::replace(&mut self.slot_page[slot as usize], page);
            self.states[Self::index_in(page_of_evicted, evicted)] = SEEN;
            slot
        } else {
            self.slot_page.push(page);
            self.list.push(line)
        };
        self.states[at] = slot + FIRST_SLOT;
        if state == UNSEEN {
            MissClass::Compulsory
        } else {
            MissClass::Capacity
        }
    }

    /// Marks `line` as referenced without entering it into the FA
    /// model (for rebuilding a table from another representation).
    pub(crate) fn mark_seen(&mut self, line: u64) {
        let at = self.state_index(line);
        if self.states[at] == UNSEEN {
            self.states[at] = SEEN;
        }
    }

    /// Every line ever referenced, in no particular order.
    pub(crate) fn seen_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().flat_map(move |(&page, &index)| {
            let base = Self::index_in(index, 0);
            self.states[base..base + PAGE_LINES]
                .iter()
                .enumerate()
                .filter(|&(_, &state)| state != UNSEEN)
                .map(move |(offset, _)| (page << PAGE_SHIFT) | offset as u64)
        })
    }

    /// The FA model's lines from least- to most-recently used.
    pub(crate) fn resident_lru_to_mru(&self) -> impl Iterator<Item = u64> + '_ {
        self.list.lru_to_mru()
    }

    /// Offset in `states` of `line`'s state, allocating its page on
    /// first touch.
    #[inline]
    fn state_index(&mut self, line: u64) -> usize {
        let page = line >> PAGE_SHIFT;
        if page != self.last_page {
            self.last_base = self.page_base(page);
            self.last_page = page;
        }
        self.last_base | (line as usize & (PAGE_LINES - 1))
    }

    /// Offset in `states` of `page`'s first line, allocating the page
    /// if it is new. Out of line: the inlined lookup stays small, and
    /// streams reach this only when they change pages.
    #[inline(never)]
    fn page_base(&mut self, page: u64) -> usize {
        let allocated = self.pages.len();
        let states = &mut self.states;
        let index = *self.pages.entry(page).or_insert_with(|| {
            let index = u32::try_from(allocated).expect("line table page count exceeds u32");
            states.resize(states.len() + PAGE_LINES, UNSEEN);
            index
        });
        Self::index_in(index, 0)
    }

    /// Offset in `states` of `line` on page `index` (the line's page).
    #[inline]
    fn index_in(index: u32, line: u64) -> usize {
        ((index as usize) << PAGE_SHIFT) | (line as usize & (PAGE_LINES - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// Drives a table against a naive seen-set plus O(n) LRU list.
    fn check_against_naive(capacity: usize, lines: impl Iterator<Item = u64>) {
        let mut table = LineTable::new(capacity);
        let mut seen = HashSet::new();
        let mut lru: VecDeque<u64> = VecDeque::new();
        for (step, line) in lines.enumerate() {
            let expected = if let Some(pos) = lru.iter().position(|&l| l == line) {
                lru.remove(pos);
                MissClass::Conflict
            } else {
                if lru.len() == capacity {
                    lru.pop_back();
                }
                if seen.insert(line) {
                    MissClass::Compulsory
                } else {
                    MissClass::Capacity
                }
            };
            lru.push_front(line);
            assert_eq!(table.touch(line), expected, "step {step} line {line:#x}");
        }
        let resident: Vec<u64> = table.resident_lru_to_mru().collect();
        assert!(resident.iter().eq(lru.iter().rev()));
        let mut all: Vec<u64> = table.seen_lines().collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = seen.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    fn xorshift(mut state: u64) -> impl Iterator<Item = u64> {
        std::iter::from_fn(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Some(state)
        })
    }

    #[test]
    fn matches_naive_model_within_one_page() {
        check_against_naive(16, xorshift(0x2545_f491).map(|x| x % 40).take(10_000));
    }

    #[test]
    fn matches_naive_model_across_pages_and_at_the_top_of_the_line_space() {
        // Lines straddle page boundaries, hop between far-apart pages,
        // and reach u64::MAX (whose page number is not the sentinel).
        let lines = xorshift(99).take(20_000).map(|x| {
            let near = x % 600;
            match x >> 62 {
                0 => near,
                1 => u64::MAX - near,
                2 => (1 << 40) + PAGE_LINES as u64 - 300 + near,
                _ => near.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        });
        check_against_naive(64, lines);
    }

    #[test]
    fn capacity_one() {
        check_against_naive(1, [7, 7, 8, 7, 8, 8, 300, 7].into_iter());
    }

    #[test]
    fn mark_seen_makes_a_line_capacity_not_compulsory() {
        let mut table = LineTable::new(4);
        table.mark_seen(5);
        assert_eq!(table.touch(5), MissClass::Capacity);
        table.mark_seen(5); // resident: stays resident
        assert_eq!(table.touch(5), MissClass::Conflict);
    }

    #[test]
    #[should_panic(expected = "exceeds the line table's limit")]
    fn oversized_capacity_panics() {
        let _ = LineTable::new(MAX_CAPACITY as usize + 1);
    }
}
