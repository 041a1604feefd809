//! The build-once static interval tree.
//!
//! Nodes live in one flat arena sorted by begin address. The tree shape
//! is implicit: the root of any index range `[lo, hi)` is its midpoint,
//! its children are the roots of the two halves. The tree is therefore
//! perfectly balanced (height `⌈log₂(n+1)⌉`) and carries no links,
//! colors or rotations. Each node is augmented with the maximum interval
//! end of its implicit subtree, computed bottom-up once at build time, so
//! overlap queries prune whole subtrees as in the CLRS "interval tree"
//! (§14.3) the paper cites for its offline phase.

use sword_solver::{Fingerprint, StridedInterval};

#[derive(Clone, Debug)]
pub(crate) struct Node<V> {
    pub interval: StridedInterval,
    pub value: V,
    /// Largest interval end in the node's implicit subtree.
    pub max_end: u64,
    /// Packed stride-class fingerprint of `interval` (see
    /// [`Fingerprint::pack`]), so the candidate walk can run the
    /// congruence pre-screen without re-dividing. Packed to 32 bits so it
    /// rides in the node's padding — growing the node measurably slows
    /// the walk on big trees.
    pub fp: u32,
}

/// A static interval tree mapping [`StridedInterval`]s to values, built
/// once by [`IntervalTree::bulk_load`] and then only queried.
///
/// Duplicate begin addresses are allowed and keep their input order, so
/// the tree is a multimap over intervals.
#[derive(Clone, Debug)]
pub struct IntervalTree<V> {
    /// Nodes in ascending begin order (stable for equal begins).
    nodes: Vec<Node<V>>,
}

/// Handle to a node in an [`IntervalTree`]: its position in begin order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeRef(pub(crate) u32);

impl NodeRef {
    /// The node's position in begin order, in `0..len()`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Midpoint of `[lo, hi)`: the implicit root of that index range.
#[inline]
fn mid(lo: usize, hi: usize) -> usize {
    lo + (hi - lo) / 2
}

impl<V> IntervalTree<V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        IntervalTree { nodes: Vec::new() }
    }

    /// Builds a tree from `entries` in any order. Entries are sorted by
    /// begin address; equal begins keep their order in `entries`, which
    /// is the order [`iter`](Self::iter) and the overlap queries report
    /// them in. `O(n log n)`.
    pub fn bulk_load(entries: Vec<(StridedInterval, V)>) -> Self {
        Self::from_staged(
            entries
                .into_iter()
                .enumerate()
                .map(|(pos, (interval, value))| Node::staged(interval, value, pos))
                .collect(),
        )
    }

    /// Lays out nodes made by [`Node::staged`] as a tree, in place: sorts
    /// them by (begin, staging position), so equal begins keep staging
    /// order, then fills in each node's `max_end` and fingerprint. The
    /// sort is the in-place unstable one — the position tiebreak makes it
    /// stable without a scratch buffer — and is skipped for input already
    /// in begin order (one sweep, or a single node).
    pub(crate) fn from_staged(mut nodes: Vec<Node<V>>) -> Self {
        assert!(u32::try_from(nodes.len()).is_ok(), "interval tree node capacity exceeded");
        if !nodes.windows(2).all(|w| w[0].interval.begin() <= w[1].interval.begin()) {
            nodes.sort_unstable_by_key(|n| (n.interval.begin(), n.max_end));
        }
        nodes.shrink_to_fit();
        let mut tree = IntervalTree { nodes };
        let n = tree.nodes.len();
        tree.layout(0, n);
        tree
    }

    /// Sets the fingerprint and `max_end` of every node of the implicit
    /// subtree over `[lo, hi)` and returns the subtree's maximum end (0
    /// when empty).
    fn layout(&mut self, lo: usize, hi: usize) -> u64 {
        if lo >= hi {
            return 0;
        }
        let m = mid(lo, hi);
        let below = self.layout(lo, m).max(self.layout(m + 1, hi));
        let node = &mut self.nodes[m];
        node.fp = Fingerprint::of(&node.interval).pack();
        node.max_end = node.interval.end().max(below);
        node.max_end
    }

    /// Number of intervals stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no intervals are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes held by the node arena — used by the memory accounting that
    /// feeds the paper's overhead tables.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
    }

    /// The interval stored at `handle`.
    #[inline]
    pub fn interval(&self, handle: NodeRef) -> &StridedInterval {
        &self.nodes[handle.0 as usize].interval
    }

    /// The value stored at `handle`.
    #[inline]
    pub fn value(&self, handle: NodeRef) -> &V {
        &self.nodes[handle.0 as usize].value
    }

    /// The stride-class fingerprint cached for the interval at `handle`.
    #[inline]
    pub fn fingerprint(&self, handle: NodeRef) -> Fingerprint {
        let node = &self.nodes[handle.0 as usize];
        Fingerprint::unpack(node.fp, &node.interval)
    }

    /// The bounding box of all stored intervals: the smallest begin and the
    /// largest end, or `None` for an empty tree. O(1).
    pub fn bounds(&self) -> Option<(u64, u64)> {
        let first = self.nodes.first()?;
        Some((first.interval.begin(), self.nodes[mid(0, self.nodes.len())].max_end))
    }

    /// Iterates all nodes in ascending begin-address order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeRef, &StridedInterval, &V)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeRef(i as u32), &n.interval, &n.value))
    }

    /// Visits, in begin order, every stored interval whose `[begin, end)`
    /// range overlaps `[lo, hi)`, using the `max_end` augmentation to
    /// prune subtrees.
    pub fn for_each_range_overlap<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) {
        self.overlap_rec(0, self.nodes.len(), lo, hi, &mut f);
    }

    fn overlap_rec<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        first: usize,
        last: usize,
        lo: u64,
        hi: u64,
        f: &mut F,
    ) {
        if first >= last {
            return;
        }
        let m = mid(first, last);
        let node = &self.nodes[m];
        // Nothing in this subtree ends after lo: prune.
        if node.max_end <= lo {
            return;
        }
        self.overlap_rec(first, m, lo, hi, f);
        let iv = &node.interval;
        // Keys right of here all have begin ≥ this begin; if this begin is
        // already ≥ hi, no right descendant can overlap.
        if iv.begin() < hi {
            if lo < iv.end() {
                f(NodeRef(m as u32), iv, &node.value);
            }
            self.overlap_rec(m + 1, last, lo, hi, f);
        }
    }

    /// Returns handles of all stored intervals overlapping `[lo, hi)`.
    pub fn range_overlaps(&self, lo: u64, hi: u64) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.for_each_range_overlap(lo, hi, |h, _, _| out.push(h));
        out
    }

    // ---- invariant checking (test support) -------------------------------

    /// Verifies BST order, the `max_end` augmentation, the cached
    /// fingerprints and the balance bound; panics with a description on
    /// violation. Exposed (not `cfg(test)`) so integration and property
    /// tests in dependent crates can call it.
    pub fn assert_invariants(&self) {
        for (i, w) in self.nodes.windows(2).enumerate() {
            assert!(w[0].interval.begin() <= w[1].interval.begin(), "BST order at {i}");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            assert_eq!(node.fp, Fingerprint::of(&node.interval).pack(), "fingerprint stale at {i}");
        }
        self.check_max(0, self.nodes.len());
        let bound = (usize::BITS - self.nodes.len().leading_zeros()) as usize;
        assert!(self.height() <= bound, "height {} exceeds ⌈log₂(n+1)⌉ = {bound}", self.height());
    }

    fn check_max(&self, lo: usize, hi: usize) -> u64 {
        if lo >= hi {
            return 0;
        }
        let m = mid(lo, hi);
        let expect =
            self.nodes[m].interval.end().max(self.check_max(lo, m)).max(self.check_max(m + 1, hi));
        assert_eq!(self.nodes[m].max_end, expect, "max_end augmentation stale at {m}");
        expect
    }

    /// Height of the implicit tree (test support).
    pub fn height(&self) -> usize {
        fn rec(lo: usize, hi: usize) -> usize {
            if lo >= hi {
                0
            } else {
                let m = mid(lo, hi);
                1 + rec(lo, m).max(rec(m + 1, hi))
            }
        }
        rec(0, self.nodes.len())
    }
}

impl<V> Node<V> {
    /// A node awaiting [`IntervalTree::from_staged`], `pos`-th in staging
    /// order. Until layout, `max_end` holds `pos` and `fp` is unset.
    pub(crate) fn staged(interval: StridedInterval, value: V, pos: usize) -> Self {
        Node { interval, value, max_end: pos as u64, fp: 0 }
    }
}
