//! Build-once static interval trees for SWORD's offline race analysis.
//!
//! The offline phase summarizes each thread's memory accesses within one
//! barrier interval into an *augmented interval tree* (§III-B of the
//! paper): a node holds a strided interval — base address, stride, count,
//! access size — plus the access metadata (R/W, program counter, mutex
//! set, atomicity), so a contiguous or strided sweep over an array costs
//! one node instead of one node per access. Race detection then compares
//! the trees of concurrent threads: coarse `[begin, end)` overlap is found
//! with the tree's `max_end` augmentation, and candidates are confirmed
//! with the exact strided-overlap constraint solve from [`sword_solver`].
//!
//! The paper grows each tree incrementally as a red-black tree. Analysis
//! never inserts into a tree after its interval is folded and never
//! removes from one, so this crate stages the nodes in a flat vector and
//! lays them out once, sorted by begin address, as an implicitly balanced
//! tree ([`IntervalTree::bulk_load`]). The in-order sequence is the one
//! the red-black tree yields (equal begins keep insertion order).
//!
//! Complexity matches the paper's §III-B analysis: building a tree from
//! `N` accesses is `O(N log N)` (the fold is `O(N)`, the sort of `M`
//! staged nodes `O(M log M)`); comparing two trees with `M` nodes is
//! `O(M log M)`; summarization makes `M ≤ N` (often `M ≪ N`).
//!
//! # Example
//!
//! ```
//! use sword_itree::{count_exact_overlaps, SummarizingBuilder};
//!
//! // Two threads sweep adjacent halves of an array; merge keys model
//! // (source line, is_write).
//! let mut t0: SummarizingBuilder<(&str, bool), ()> = SummarizingBuilder::new();
//! let mut t1 = SummarizingBuilder::new();
//! for i in 0..500u64 {
//!     t0.insert_with(("w", true), 0x1000 + i * 8, 8, || ());
//! }
//! for i in 499..1000u64 {
//!     t1.insert_with(("r", false), 0x1000 + i * 8, 8, || ());
//! }
//! let a = t0.finish();
//! let b = t1.finish();
//!
//! // 500 accesses each, one strided node each…
//! assert_eq!((a.len(), b.len()), (1, 1));
//! // …and exactly the boundary element overlaps.
//! assert_eq!(count_exact_overlaps(&a, &b), 1);
//! ```

#![forbid(unsafe_code)]

mod hash;
mod tree;

pub use hash::{FxBuildHasher, FxHasher};
pub use sword_solver::{strided_overlap, Fingerprint, StridedInterval};
use tree::Node;
pub use tree::{IntervalTree, NodeRef};

use std::collections::HashMap;
use std::hash::Hash;

/// Outcome of a [`SummarizingBuilder::insert_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The access extended an existing node (array sweep continuing).
    Extended,
    /// The access repeated the previous one exactly; nothing changed.
    Duplicate,
    /// A fresh node was staged.
    New,
}

impl MergeOutcome {
    /// `true` unless a fresh node was created.
    pub fn merged(&self) -> bool {
        !matches!(self, MergeOutcome::New)
    }
}

/// How many recent progressions per merge key the builder tracks. Two
/// slots handle the common "interleaved progressions from one source
/// line" pattern (e.g. `d = a[i] - a[j]` in an i/j double loop), which a
/// single-slot cache degrades to one node per access on.
const MERGE_HISTORY: usize = 2;

/// Largest base→second-element gap accepted when starting a stride
/// hypothesis. Gaps beyond this (e.g. two unrelated operands on the same
/// source line) must not seed a progression, or one wrong guess poisons
/// the node for every later access.
const MAX_STRIDE_BYTES: u64 = 4096;

#[derive(Clone, Copy, Debug)]
struct MergeSlot {
    /// Index of the progression's node in the staging vector.
    node: u32,
    /// Authoritative interval of this progression. The staged node lags
    /// behind while a run is open, so the per-access hot path touches
    /// only the ring: extension decisions read and write this copy, and
    /// the accumulated extent is written to the staged node when the slot
    /// retires.
    iv: StridedInterval,
    /// A second element observed after a single access, held back until a
    /// third access confirms the stride (or the slot is retired, at which
    /// point it is materialized as its own node).
    pending: Option<u64>,
}

/// Builds an [`IntervalTree`] from a stream of accesses, summarizing
/// consecutive same-provenance accesses into strided intervals.
///
/// `K` is the merge key — in SWORD it is (program counter, R/W, access
/// size, mutex set, atomicity): only accesses that are equivalent for race
/// reporting may share a node. The builder keeps the most recent
/// progressions per key and extends one when the next access continues
/// its (confirmed) arithmetic progression, which is exactly the shape
/// instrumented array loops emit.
#[derive(Clone, Debug)]
pub struct SummarizingBuilder<K: Hash + Eq + Clone, V> {
    /// Nodes in creation order; laid out as a tree by
    /// [`finish`](Self::finish).
    staged: Vec<Node<V>>,
    /// Most-recent-first rings of live progressions, one per distinct
    /// key, indexed by [`SummarizingBuilder::index`].
    rings: Vec<[Option<MergeSlot>; MERGE_HISTORY]>,
    /// Key → ring index. Hashed with [`FxBuildHasher`]: the key is a few
    /// machine words hashed once per recorded access, where SipHash's
    /// setup cost dominates the lookup.
    index: HashMap<K, u32, FxBuildHasher>,
    /// Direct-mapped one-way cache in front of `index`, indexed by the
    /// key hash's high bits — the per-access fast path. An instrumented
    /// loop body cycles through a handful of source lines (a 5-operand
    /// stencil touches 5 keys per iteration), so almost every access
    /// resolves here with one compare instead of a map probe.
    memo: Vec<Option<(K, u32)>>,
    accesses: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SummarizingBuilder<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Entries in the [`SummarizingBuilder::memo`] direct map. Sized for the
/// working set of distinct source lines a compiled loop nest touches
/// between barriers; collisions just fall back to the map probe.
const KEY_CACHE_WAYS: usize = 64;

impl<K: Hash + Eq + Clone, V: Clone> SummarizingBuilder<K, V> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SummarizingBuilder {
            staged: Vec::new(),
            rings: Vec::new(),
            index: HashMap::default(),
            memo: vec![None; KEY_CACHE_WAYS],
            accesses: 0,
        }
    }

    /// Number of raw accesses inserted (the paper's `N`).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Number of tree nodes (the paper's `M ≤ N`). Pending second
    /// elements are not counted until confirmed or flushed.
    pub fn node_count(&self) -> usize {
        self.staged.len()
    }

    /// The ring index for `key`, creating an empty ring for a fresh key.
    /// Resolves through the direct-mapped key cache before probing the
    /// map.
    #[inline]
    fn ring_of(&mut self, key: &K) -> u32 {
        // The Fx multiply concentrates entropy in the high bits; the low
        // bits of a product are too regular to index with.
        let h = std::hash::BuildHasher::hash_one(&FxBuildHasher, key);
        let mi = (h >> 58) as usize & (KEY_CACHE_WAYS - 1);
        if let Some((k, ri)) = &self.memo[mi] {
            if k == key {
                return *ri;
            }
        }
        let ri = match self.index.get(key) {
            Some(&ri) => ri,
            None => {
                let ri = self.rings.len() as u32;
                self.rings.push([None; MERGE_HISTORY]);
                self.index.insert(key.clone(), ri);
                ri
            }
        };
        self.memo[mi] = Some((key.clone(), ri));
        ri
    }

    /// Inserts one access of `size` bytes at `addr` with merge key `key`.
    /// `value` is stored only when a new node is created (merged accesses
    /// share the representative's value).
    pub fn insert_with(
        &mut self,
        key: K,
        addr: u64,
        size: u64,
        value: impl FnOnce() -> V,
    ) -> MergeOutcome {
        self.accesses += 1;
        let ri = self.ring_of(&key) as usize;
        for i in 0..MERGE_HISTORY {
            let Some(slot) = self.rings[ri][i] else { continue };
            if slot.iv.size != size {
                continue;
            }
            let outcome = match_slot(&slot.iv, slot.pending, addr);
            let ring = &mut self.rings[ri];
            let result = match outcome {
                SlotMatch::None => continue,
                SlotMatch::Covered | SlotMatch::PendingRepeat => MergeOutcome::Duplicate,
                SlotMatch::Extend(extended) => {
                    ring[i] = Some(MergeSlot { node: slot.node, iv: extended, pending: None });
                    MergeOutcome::Extended
                }
                SlotMatch::Pend => {
                    ring[i] = Some(MergeSlot { pending: Some(addr), ..slot });
                    MergeOutcome::Extended
                }
            };
            // Promote the hit to the front of the ring. Swaps rather than
            // `rotate_right`: the generic slice rotate is not reliably
            // inlined, and an out-of-line call here costs ~5% of the fold
            // on sweep-heavy intervals.
            for j in (0..i).rev() {
                self.rings[ri].swap(j, j + 1);
            }
            return result;
        }
        self.start_progression(ri, addr, size, value());
        MergeOutcome::New
    }

    /// Stages a fresh single-access node at `addr` as the newest
    /// progression of ring `ri`, retiring the ring's oldest. Kept out of
    /// line so the extension fast path in
    /// [`insert_with`](Self::insert_with) stays small.
    fn start_progression(&mut self, ri: usize, addr: u64, size: u64, value: V) {
        let iv = StridedInterval::single(addr, size);
        let pos = self.staged.len();
        let node = u32::try_from(pos).expect("interval tree node capacity exceeded");
        self.staged.push(Node::staged(iv, value, pos));
        let ring = &mut self.rings[ri];
        let retired = ring[MERGE_HISTORY - 1];
        ring.rotate_right(1);
        ring[0] = Some(MergeSlot { node, iv, pending: None });
        if let Some(slot) = retired {
            self.retire(slot);
        }
    }

    /// Flushes a slot leaving the ring: writes its accumulated extent to
    /// the staged node in place, and gives an unconfirmed second element
    /// its own single node (it still represents a real access, sharing
    /// the representative's value).
    fn retire(&mut self, slot: MergeSlot) {
        let staged = &mut self.staged[slot.node as usize];
        staged.interval = slot.iv;
        if let Some(p) = slot.pending {
            let value = staged.value.clone();
            let pos = self.staged.len();
            self.staged.push(Node::staged(StridedInterval::single(p, slot.iv.size), value, pos));
        }
    }

    /// Finishes the build, flushing open progressions and unconfirmed
    /// pendings, and lays the staged nodes out as a tree.
    pub fn finish(mut self) -> IntervalTree<V> {
        let rings = std::mem::take(&mut self.rings);
        for ring in rings {
            for slot in ring.into_iter().flatten() {
                self.retire(slot);
            }
        }
        IntervalTree::from_staged(self.staged)
    }
}

enum SlotMatch {
    /// Not this progression.
    None,
    /// Already covered by the interval: nothing to do.
    Covered,
    /// Grow the interval to this shape.
    Extend(StridedInterval),
    /// Hold `addr` as the unconfirmed second element.
    Pend,
    /// Repeats the currently pending element.
    PendingRepeat,
}

fn match_slot(iv: &StridedInterval, pending: Option<u64>, addr: u64) -> SlotMatch {
    // 1. Already covered (loop-invariant operand, repeated sweep).
    if addr >= iv.base
        && addr <= iv.base + iv.stride * iv.count
        && (iv.count == 0 && addr == iv.base
            || iv.stride > 0 && (addr - iv.base).is_multiple_of(iv.stride))
    {
        return SlotMatch::Covered;
    }
    if iv.count >= 1 {
        // 2. The next element of a confirmed progression.
        if addr == iv.base + iv.stride * (iv.count + 1) {
            return SlotMatch::Extend(StridedInterval::new(
                iv.base,
                iv.stride,
                iv.count + 1,
                iv.size,
            ));
        }
        return SlotMatch::None;
    }
    match pending {
        Some(p) => {
            if addr == p {
                return SlotMatch::PendingRepeat;
            }
            // 3. Third element confirming the stride hypothesis
            //    (base, p, addr in arithmetic progression).
            if addr > p && addr - p == p - iv.base {
                return SlotMatch::Extend(StridedInterval::new(iv.base, p - iv.base, 2, iv.size));
            }
            SlotMatch::None
        }
        None => {
            // 4. A plausible second element starts a stride hypothesis.
            if addr > iv.base && addr - iv.base <= MAX_STRIDE_BYTES {
                SlotMatch::Pend
            } else {
                SlotMatch::None
            }
        }
    }
}

/// Visits every pair of intervals — one from each tree — whose coarse
/// `[begin, end)` ranges overlap. This is the tree-vs-tree comparison of
/// the paper's offline algorithm: each node of `a` performs an augmented
/// search in `b`. The caller applies the exact strided/mutex/atomic race
/// conditions to each candidate pair.
pub fn for_each_candidate_pair<VA, VB, F>(a: &IntervalTree<VA>, b: &IntervalTree<VB>, mut f: F)
where
    F: FnMut(&StridedInterval, &VA, &StridedInterval, &VB),
{
    for (_, ia, va) in a.iter() {
        b.for_each_range_overlap(ia.begin(), ia.end(), |_, ib, vb| {
            f(ia, va, ib, vb);
        });
    }
}

/// Like [`for_each_candidate_pair`], but hands the caller each node's
/// cached stride-class [`Fingerprint`] so the congruence pre-screen can run
/// during the walk without recomputing `base % stride` per pair.
pub fn for_each_candidate_pair_fp<VA, VB, F>(a: &IntervalTree<VA>, b: &IntervalTree<VB>, mut f: F)
where
    F: FnMut(&StridedInterval, Fingerprint, &VA, &StridedInterval, Fingerprint, &VB),
{
    for (ha, ia, va) in a.iter() {
        let fa = a.fingerprint(ha);
        b.for_each_range_overlap(ia.begin(), ia.end(), |hb, ib, vb| {
            f(ia, fa, va, ib, b.fingerprint(hb), vb);
        });
    }
}

/// Convenience: counts candidate pairs that also pass the exact
/// strided-overlap constraint check.
pub fn count_exact_overlaps<VA, VB>(a: &IntervalTree<VA>, b: &IntervalTree<VB>) -> usize {
    let mut n = 0;
    for_each_candidate_pair(a, b, |ia, _, ib, _| {
        if strided_overlap(ia, ib) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(base: u64, stride: u64, count: u64, size: u64) -> StridedInterval {
        StridedInterval::new(base, stride, count, size)
    }

    #[test]
    fn bulk_load_and_query_basic() {
        let t = IntervalTree::bulk_load(vec![
            (iv(10, 0, 0, 4), "a"),
            (iv(20, 0, 0, 4), "b"),
            (iv(5, 0, 0, 20), "c"), // covers [5,25)
        ]);
        t.assert_invariants();
        let hits = t.range_overlaps(12, 13);
        let names: Vec<_> = hits.iter().map(|&h| *t.value(h)).collect();
        assert_eq!(names, vec!["c", "a"]); // in-order by begin
        assert!(t.range_overlaps(25, 30).is_empty());
        assert_eq!(t.range_overlaps(0, 100).len(), 3);
        assert_eq!(t.bounds(), Some((5, 25)));
    }

    #[test]
    fn overlap_query_is_half_open() {
        let t = IntervalTree::bulk_load(vec![(iv(10, 0, 0, 4), ())]); // [10,14)
        assert!(t.range_overlaps(14, 20).is_empty(), "touching at end is no overlap");
        assert!(t.range_overlaps(0, 10).is_empty(), "touching at begin is no overlap");
        assert_eq!(t.range_overlaps(13, 14).len(), 1);
        assert_eq!(t.range_overlaps(10, 11).len(), 1);
    }

    #[test]
    fn large_tree_is_balanced() {
        let t = IntervalTree::bulk_load((0..4096u64).map(|i| (iv(i * 8, 0, 0, 8), i)).collect());
        t.assert_invariants();
        assert_eq!(t.height(), 13, "⌈log₂(4097)⌉");
    }

    #[test]
    fn ascending_and_descending_input() {
        for descending in [false, true] {
            let t = IntervalTree::bulk_load(
                (0..1000u64)
                    .map(|i| {
                        let k = if descending { 999 - i } else { i };
                        (iv(k * 4, 0, 0, 4), ())
                    })
                    .collect(),
            );
            t.assert_invariants();
            assert_eq!(t.len(), 1000);
            let all: Vec<u64> = t.iter().map(|(_, iv, _)| iv.begin()).collect();
            assert_eq!(all, (0..1000u64).map(|k| k * 4).collect::<Vec<_>>());
        }
    }

    #[test]
    fn arena_is_exactly_sized() {
        let t = IntervalTree::bulk_load((0..100u64).rev().map(|i| (iv(i, 0, 0, 1), i)).collect());
        assert_eq!(t.arena_bytes(), 100 * std::mem::size_of::<tree::Node<u64>>());
    }

    #[test]
    fn builder_summarizes_array_sweep() {
        // Thread writes a[0..1000] of 8 bytes from one PC: 1000 accesses →
        // 1 node.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..1000u64 {
            b.insert_with(7, 0x1000 + i * 8, 8, || ());
        }
        assert_eq!(b.access_count(), 1000);
        assert_eq!(b.node_count(), 1);
        let t = b.finish();
        let (_, ivl, _) = t.iter().next().unwrap();
        assert_eq!(*ivl, iv(0x1000, 8, 999, 8));
    }

    #[test]
    fn builder_handles_strided_sweep() {
        // Every 4th element: stride 32.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..100u64 {
            b.insert_with(1, i * 32, 8, || ());
        }
        assert_eq!(b.node_count(), 1);
        let t = b.finish();
        assert_eq!(*t.iter().next().unwrap().1, iv(0, 32, 99, 8));
    }

    #[test]
    fn builder_splits_on_key_change() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 0, 8, || ());
        b.insert_with(2, 8, 8, || ()); // different PC: no merge
        b.insert_with(1, 8, 8, || ()); // extends node for key 1
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_splits_on_stride_break() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        assert_eq!(b.insert_with(1, 0, 8, || ()), MergeOutcome::New);
        assert_eq!(b.insert_with(1, 8, 8, || ()), MergeOutcome::Extended);
        assert_eq!(b.insert_with(1, 16, 8, || ()), MergeOutcome::Extended);
        // Jump breaks the progression.
        assert_eq!(b.insert_with(1, 100, 8, || ()), MergeOutcome::New);
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_duplicate_access() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 40, 8, || ());
        assert_eq!(b.insert_with(1, 40, 8, || ()), MergeOutcome::Duplicate);
        b.insert_with(1, 48, 8, || ());
        assert_eq!(b.insert_with(1, 48, 8, || ()), MergeOutcome::Duplicate);
        assert_eq!(b.node_count(), 1);
    }

    #[test]
    fn builder_backward_access_starts_new_node() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 100, 8, || ());
        assert_eq!(b.insert_with(1, 50, 8, || ()), MergeOutcome::New);
        assert_eq!(b.node_count(), 2);
        // Staged in creation order, laid out in begin order.
        let begins: Vec<u64> = b.finish().iter().map(|(_, iv, _)| iv.begin()).collect();
        assert_eq!(begins, vec![50, 100]);
    }

    #[test]
    fn builder_revisit_of_covered_element_is_duplicate() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..10u64 {
            b.insert_with(1, i * 8, 8, || ());
        }
        // Re-reading an element already inside the progression adds
        // nothing.
        assert_eq!(b.insert_with(1, 24, 8, || ()), MergeOutcome::Duplicate);
        // Off-stride revisit does not merge.
        assert_eq!(b.insert_with(1, 25, 8, || ()), MergeOutcome::New);
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_interleaved_progressions_share_key() {
        // The c_md pattern: one source line alternates a loop-invariant
        // operand with a sweeping one. The two-slot history keeps both
        // progressions live: 2 nodes, not ~2·n.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for j in 0..100u64 {
            b.insert_with(7, 0x5000, 8, || ()); // invariant a[i]
            b.insert_with(7, 0x8000 + j * 8, 8, || ()); // sweeping a[j]
        }
        assert_eq!(b.node_count(), 2, "two interleaved progressions, two nodes");
    }

    #[test]
    fn builder_unconfirmed_pending_becomes_its_own_node() {
        // A second element with no third to confirm the stride is flushed
        // as a single node sharing the representative's value, staged
        // after every node created before the flush.
        let mut b: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
        b.insert_with(1, 0, 8, || 10);
        b.insert_with(1, 8, 8, || 11); // pends
        b.insert_with(2, 8, 8, || 20);
        let t = b.finish();
        t.assert_invariants();
        let nodes: Vec<_> = t.iter().map(|(_, iv, v)| (*iv, *v)).collect();
        assert_eq!(nodes, vec![(iv(0, 0, 0, 8), 10), (iv(8, 0, 0, 8), 20), (iv(8, 0, 0, 8), 10)]);
    }

    #[test]
    fn paper_interval_tree_example() {
        // §III-B example: `a[i] = a[i-1]`, 1000 ints, 2 threads with static
        // halves. Thread 0 writes a[1..500] reads a[0..499]; thread 1
        // writes a[500..1000] reads a[499..999]. The write of a[499] by T0
        // and read of a[499] by T1 overlap.
        let base = 0x100u64;
        let elt = 4u64;
        let mut t0: SummarizingBuilder<(u32, bool), ()> = SummarizingBuilder::new();
        for i in 1..500u64 {
            t0.insert_with((1, true), base + i * elt, elt, || ()); // write a[i]
            t0.insert_with((1, false), base + (i - 1) * elt, elt, || ()); // read a[i-1]
        }
        let mut t1: SummarizingBuilder<(u32, bool), ()> = SummarizingBuilder::new();
        for i in 500..1000u64 {
            t1.insert_with((1, true), base + i * elt, elt, || ());
            t1.insert_with((1, false), base + (i - 1) * elt, elt, || ());
        }
        assert_eq!(t0.node_count(), 2);
        assert_eq!(t1.node_count(), 2);
        let a = t0.finish();
        let b = t1.finish();
        // Candidates: T0.writes [a1..a500) vs T1.reads [a499..a999).
        assert_eq!(count_exact_overlaps(&a, &b), 1);
    }

    #[test]
    fn candidate_pairs_require_exact_check() {
        // Figure 4: interleaved stride-8 size-4 accesses. Range overlap
        // yields a candidate, exact check rejects it.
        let a = IntervalTree::bulk_load(vec![(iv(10, 8, 4, 4), ())]);
        let b = IntervalTree::bulk_load(vec![(iv(14, 8, 4, 4), ())]);
        let mut candidates = 0;
        for_each_candidate_pair(&a, &b, |_, _, _, _| candidates += 1);
        assert_eq!(candidates, 1);
        assert_eq!(count_exact_overlaps(&a, &b), 0);
    }

    #[test]
    fn empty_tree_queries() {
        let t: IntervalTree<()> = IntervalTree::new();
        assert!(t.is_empty());
        assert!(t.range_overlaps(0, u64::MAX).is_empty());
        assert_eq!(t.bounds(), None);
        t.assert_invariants();
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn duplicate_begin_addresses_keep_input_order() {
        let t = IntervalTree::bulk_load(
            (0..10).map(|i| (iv(100 + 50 * (i % 2), 0, 0, 4), i)).rev().collect(),
        );
        t.assert_invariants();
        assert_eq!(t.range_overlaps(100, 101).len(), 5);
        let order: Vec<u64> = t.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(order, vec![8, 6, 4, 2, 0, 9, 7, 5, 3, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_iv() -> impl Strategy<Value = StridedInterval> {
        (0u64..500, 0u64..20, 0u64..10, 1u64..9)
            .prop_map(|(b, st, c, sz)| StridedInterval::new(b, st, c, sz))
    }

    /// Bulk-loads `ivs` with each interval's input position as its value.
    fn tree_of(ivs: &[StridedInterval]) -> IntervalTree<usize> {
        IntervalTree::bulk_load(ivs.iter().enumerate().map(|(i, iv)| (*iv, i)).collect())
    }

    /// Input positions stably sorted by begin: the in-order sequence.
    fn begin_order(ivs: &[StridedInterval]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..ivs.len()).collect();
        order.sort_by_key(|&i| ivs[i].begin());
        order
    }

    proptest! {
        #[test]
        fn iter_is_the_stable_sort_by_begin(ivs in prop::collection::vec(arb_iv(), 0..200)) {
            let t = tree_of(&ivs);
            let got: Vec<usize> = t.iter().map(|(_, _, &i)| i).collect();
            prop_assert_eq!(got, begin_order(&ivs));
            for (h, iv, &i) in t.iter() {
                prop_assert_eq!(*iv, ivs[i]);
                prop_assert_eq!(*t.interval(h), ivs[i]);
                prop_assert_eq!(t.fingerprint(h), Fingerprint::of(&ivs[i]));
            }
        }

        #[test]
        fn invariants_hold_after_bulk_load(ivs in prop::collection::vec(arb_iv(), 0..300)) {
            let t = tree_of(&ivs);
            t.assert_invariants();
            prop_assert_eq!(t.len(), ivs.len());
            let log2_ceil = (usize::BITS - ivs.len().leading_zeros()) as usize;
            prop_assert!(t.height() <= log2_ceil);
        }

        #[test]
        fn range_query_matches_bruteforce(
            ivs in prop::collection::vec(arb_iv(), 0..100),
            lo in 0u64..600, width in 0u64..100,
        ) {
            let hi = lo + width;
            let t = tree_of(&ivs);
            let mut got = Vec::new();
            t.for_each_range_overlap(lo, hi, |_, _, &i| got.push(i));
            // Brute force, reported in the tree's (stable begin) order.
            let expect: Vec<usize> = begin_order(&ivs)
                .into_iter()
                .filter(|&i| ivs[i].begin() < hi && lo < ivs[i].end())
                .collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn candidate_pair_sequence_matches_nested_loop(
            a in prop::collection::vec(arb_iv(), 0..60),
            b in prop::collection::vec(arb_iv(), 0..60),
        ) {
            let (ta, tb) = (tree_of(&a), tree_of(&b));
            let mut got = Vec::new();
            for_each_candidate_pair_fp(&ta, &tb, |ia, fa, &va, ib, fb, &vb| {
                assert_eq!((*ia, fa), (a[va], Fingerprint::of(&a[va])));
                assert_eq!((*ib, fb), (b[vb], Fingerprint::of(&b[vb])));
                got.push((va, vb));
            });
            let mut expect = Vec::new();
            for i in begin_order(&a) {
                for j in begin_order(&b) {
                    if a[i].begin() < b[j].end() && b[j].begin() < a[i].end() {
                        expect.push((i, j));
                    }
                }
            }
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn builder_never_loses_accesses(
            // stream of (key, start, step-kind) runs
            runs in prop::collection::vec((0u32..4, 0u64..200, 1u64..16, 1u64..20), 1..20),
        ) {
            let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
            let mut oracle: Vec<(u64, u64)> = Vec::new(); // (addr, size)
            for (key, start, stride, n) in runs {
                for i in 0..n {
                    let addr = start + i * stride;
                    b.insert_with(key, addr, 4, || ());
                    oracle.push((addr, 4));
                }
            }
            let t = b.finish();
            t.assert_invariants();
            // Every oracle access address is covered by some tree interval.
            for (addr, size) in oracle {
                for byte in addr..addr + size {
                    let covered = t.range_overlaps(byte, byte + 1).iter().any(|&h| {
                        t.interval(h).contains(byte)
                    });
                    prop_assert!(covered, "byte {} not covered", byte);
                }
            }
        }

        #[test]
        fn builder_summarization_is_sound(
            start in 0u64..100, stride in 1u64..32, n in 1u64..200,
        ) {
            // A pure arithmetic progression collapses to one node once the
            // stride is confirmed (n ≥ 3); shorter runs flush to at most
            // two singles. Every generated address stays covered.
            let mut b: SummarizingBuilder<(), ()> = SummarizingBuilder::new();
            for i in 0..n {
                b.insert_with((), start + i * stride, 4, || ());
            }
            let t = b.finish();
            if n >= 3 {
                prop_assert_eq!(t.len(), 1);
                let (_, iv, _) = t.iter().next().unwrap();
                prop_assert_eq!(iv.len(), n);
            } else {
                prop_assert!(t.len() as u64 <= n);
            }
            for i in 0..n {
                let addr = start + i * stride;
                let covered = t
                    .range_overlaps(addr, addr + 1)
                    .iter()
                    .any(|&h| t.interval(h).contains(addr));
                prop_assert!(covered, "element {} uncovered", i);
            }
        }
    }
}
