//! Streaming construction of per-interval summary trees.
//!
//! An interval's events are pulled out of the log through a
//! [`LogSource`] — the zero-copy mapped image by default, the buffered
//! streaming reader as fallback — decoded in place, and folded into a
//! [`SummarizingBuilder`]: consecutive same-provenance accesses collapse
//! into strided interval-tree nodes, mutex acquire/release events maintain
//! the held-lock set attached to each node. Only an event torn across a
//! source-slice boundary is ever copied (into a small carry buffer);
//! everything else decodes straight off the source's borrowed bytes.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::time::Instant;

use sword_itree::{IntervalTree, SummarizingBuilder};
use sword_metrics::MemGauge;
use sword_trace::{
    AccessKind, Event, EventDecoder, ImageCache, LogSource, MappedLog, MutexId, PcId, ReadMode,
    SessionDir, SourceStats, StreamSource, ThreadId,
};

use crate::intervals::Interval;
use crate::pipeline::WorkerStats;

/// Default streaming chunk: 64 KiB of encoded events at a time.
pub const DEFAULT_CHUNK_BYTES: usize = 64 << 10;

/// Metadata attached to every tree node: enough to apply the race
/// conditions and report source locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessMeta {
    /// Read/write/atomic classification.
    pub kind: AccessKind,
    /// Interned source location.
    pub pc: PcId,
    /// Index into the owning [`BiTree::mutex_sets`].
    pub mset: u32,
}

/// The summarized accesses of one (thread, barrier interval).
#[derive(Debug)]
pub struct BiTree {
    /// Owning thread.
    pub tid: ThreadId,
    /// Strided intervals with access metadata.
    pub tree: IntervalTree<AccessMeta>,
    /// Interned held-mutex sets (sorted, deduplicated).
    pub mutex_sets: Vec<Vec<MutexId>>,
    /// Raw access events folded in (the paper's `N`).
    pub accesses: u64,
    /// Encoded bytes consumed.
    pub bytes_read: u64,
}

impl BiTree {
    /// Nodes in the summary tree (the paper's `M ≤ N`).
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Heap footprint of this summary tree, charged to the analyzer's
    /// memory gauge while the tree is held (the Figure 6–8 offline-memory
    /// rows): the tree's node arena, exactly as allocated, plus the
    /// interned mutex sets.
    pub fn approx_bytes(&self) -> u64 {
        let sets: usize = self
            .mutex_sets
            .iter()
            .map(|s| std::mem::size_of::<Vec<MutexId>>() + s.len() * std::mem::size_of::<MutexId>())
            .sum();
        (self.tree.arena_bytes() + sets) as u64
    }

    /// `true` when the two metadata records can race access-wise: at
    /// least one write, not both atomic, and disjoint mutex sets.
    pub fn can_race(&self, mine: &AccessMeta, other_tree: &BiTree, theirs: &AccessMeta) -> bool {
        if !mine.kind.is_write() && !theirs.kind.is_write() {
            return false;
        }
        if mine.kind.is_atomic() && theirs.kind.is_atomic() {
            return false;
        }
        sets_disjoint(
            &self.mutex_sets[mine.mset as usize],
            &other_tree.mutex_sets[theirs.mset as usize],
        )
    }
}

fn sets_disjoint(a: &[MutexId], b: &[MutexId]) -> bool {
    // Both sorted; merge scan.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// How many bytes of the next slice a torn-event carry tops itself up
/// with per attempt. Any single encoded event fits well within this.
const CARRY_TOP_UP: usize = 64;

/// The fold state: everything an event mutates while a tree is built.
struct Fold {
    builder: SummarizingBuilder<(PcId, u8, u8, u32), AccessMeta>,
    held: Vec<MutexId>,
    mutex_sets: Vec<Vec<MutexId>>,
    current_mset: u32,
    accesses: u64,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            builder: SummarizingBuilder::new(),
            held: Vec::new(),
            mutex_sets: vec![Vec::new()],
            current_mset: 0,
            accesses: 0,
        }
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::Access(a) => {
                self.accesses += 1;
                let meta = AccessMeta { kind: a.kind, pc: a.pc, mset: self.current_mset };
                self.builder.insert_with(
                    (a.pc, a.kind.code(), a.size, self.current_mset),
                    a.addr,
                    a.size as u64,
                    || meta,
                );
            }
            Event::MutexAcquire(m) => {
                if let Err(at) = self.held.binary_search(&m) {
                    self.held.insert(at, m);
                }
                self.current_mset = intern_set(&mut self.mutex_sets, &self.held);
            }
            Event::MutexRelease(m) => {
                if let Ok(at) = self.held.binary_search(&m) {
                    self.held.remove(at);
                }
                self.current_mset = intern_set(&mut self.mutex_sets, &self.held);
            }
        }
    }
}

/// Decodes every complete event in `buf` into `fold`, returning how many
/// bytes were consumed. A partial event at the tail is left unconsumed
/// when `more` bytes are coming; with `more == false` it is a corrupt
/// stream.
fn decode_events(
    decoder: &mut EventDecoder,
    buf: &[u8],
    fold: &mut Fold,
    more: bool,
    tid: ThreadId,
) -> io::Result<usize> {
    let mut pos = 0usize;
    while pos < buf.len() {
        let mark = pos;
        match decoder.decode(buf, &mut pos) {
            Ok(event) => fold.apply(event),
            Err(_) if more => {
                // Partial event at the slice boundary: leave the tail for
                // the next slice. The decoder consumed nothing usable
                // past `mark`.
                return Ok(mark);
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt event stream in tid {tid}: {e}"),
                ));
            }
        }
    }
    Ok(pos)
}

/// Builds the summary tree for one barrier interval by streaming
/// `[data_begin, data_begin + size)` out of `source`. Events decode
/// directly from the source's borrowed slices; `chunk_bytes` caps the
/// slice size on buffering sources.
pub fn build_tree(
    source: &mut dyn LogSource,
    tid: ThreadId,
    data_begin: u64,
    size: u64,
    chunk_bytes: usize,
) -> io::Result<BiTree> {
    let mut fold = Fold::new();
    let mut decoder = EventDecoder::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut seen = 0u64;

    source.read_range_with(data_begin, size, chunk_bytes, &mut |slice| {
        seen += slice.len() as u64;
        let more_slices = seen < size;
        let mut s = slice;
        // Complete any event torn across the previous slice boundary:
        // top the carry up in small steps until it decodes through.
        while !carry.is_empty() && !s.is_empty() {
            let take = s.len().min(CARRY_TOP_UP);
            carry.extend_from_slice(&s[..take]);
            s = &s[take..];
            let consumed =
                decode_events(&mut decoder, &carry, &mut fold, more_slices || !s.is_empty(), tid)?;
            carry.drain(..consumed);
        }
        if !carry.is_empty() {
            return Ok(()); // slice exhausted mid-event; next slice completes it
        }
        // The fast path: decode straight off the borrowed slice.
        let consumed = decode_events(&mut decoder, s, &mut fold, more_slices, tid)?;
        carry.extend_from_slice(&s[consumed..]);
        Ok(())
    })?;

    if !carry.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trailing partial event in tid {tid}"),
        ));
    }

    let Fold { builder, mutex_sets, accesses, .. } = fold;
    Ok(BiTree { tid, tree: builder.finish(), mutex_sets, accesses, bytes_read: size })
}

fn intern_set(sets: &mut Vec<Vec<MutexId>>, held: &[MutexId]) -> u32 {
    // Linear scan: programs hold a handful of distinct lock sets per
    // interval.
    for (i, s) in sets.iter().enumerate() {
        if s.as_slice() == held {
            return i as u32;
        }
    }
    sets.push(held.to_vec());
    (sets.len() - 1) as u32
}

/// Per-worker pool of open log sources. Mapped sources are random-access
/// and opened once per thread; buffered sources stream forward and are
/// reopened on a backward request.
#[derive(Default)]
pub struct ReaderPool {
    mode: ReadMode,
    stats: SourceStats,
    /// Shared file images: pools cloned from one cache (all the workers
    /// of one analysis) load each log once between them.
    images: ImageCache,
    sources: std::collections::HashMap<ThreadId, Box<dyn LogSource + Send>>,
}

impl std::fmt::Debug for ReaderPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReaderPool")
            .field("mode", &self.mode)
            .field("open", &self.sources.len())
            .finish()
    }
}

impl ReaderPool {
    /// An empty pool in the default (mapped) read mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool with an explicit read mode, reporting source
    /// activity into `stats` and sharing file images through `images`.
    pub fn with_mode(mode: ReadMode, stats: SourceStats, images: ImageCache) -> Self {
        ReaderPool { mode, stats, images, sources: std::collections::HashMap::new() }
    }

    /// Builds the tree for one interval, reusing or (re)opening the
    /// thread's log source as needed.
    pub fn build(
        &mut self,
        dir: &SessionDir,
        tid: ThreadId,
        data_begin: u64,
        size: u64,
        chunk_bytes: usize,
    ) -> io::Result<BiTree> {
        let reopen = match self.sources.get(&tid) {
            Some(s) => s.position() > data_begin,
            None => true,
        };
        if reopen {
            let path = dir.thread_log(tid);
            let source: Box<dyn LogSource + Send> = match self.mode {
                ReadMode::Mapped => {
                    Box::new(MappedLog::open_cached(&path, self.stats.clone(), &self.images)?)
                }
                ReadMode::Buffered => {
                    Box::new(StreamSource::new(BufReader::new(File::open(&path)?)))
                }
            };
            self.sources.insert(tid, source);
        }
        let source = self.sources.get_mut(&tid).expect("just inserted");
        build_tree(source.as_mut(), tid, data_begin, size, chunk_bytes)
    }
}

/// Default node budget of a [`TreeCache`] (matches a few thousand typical
/// intervals without rebuilds while staying bounded).
pub(crate) const TREE_CACHE_NODES: usize = 64 * 1024;

/// Bounded LRU cache of interval trees keyed by `(tid, data_begin)` —
/// the analysis core's tree store, shared by the batch workers (one per
/// worker) and the live analyzer. Intervals compared by many tasks are
/// built once per cache instead of once per task, while the node budget
/// keeps the per-thread memory bound.
pub(crate) struct TreeCache {
    entries: HashMap<(ThreadId, u64), CacheEntry>,
    clock: u64,
    nodes_held: usize,
    node_budget: usize,
    /// Cached tree bytes, charged on insert and credited on eviction or
    /// drop, so the analyzer's memory gauge covers every held tree.
    mem: MemGauge,
}

struct CacheEntry {
    last_use: u64,
    tree: BiTree,
}

impl TreeCache {
    pub(crate) fn new(node_budget: usize, mem: MemGauge) -> Self {
        TreeCache { entries: HashMap::new(), clock: 0, nodes_held: 0, node_budget, mem }
    }

    /// Builds and caches the tree for `member` unless already present.
    ///
    /// With `charge_hits`, a cache hit still charges the tree's build
    /// counters (trees built, nodes, events, bytes) to `stats`: the batch
    /// path's statistics then count *logical* tree requests, independent
    /// of scheduling and cache geometry — the same contract
    /// `solver_calls` keeps under the verdict memo. Only the measured
    /// build time shrinks. The live path passes `false` and keeps
    /// counting actual builds (its documented contract).
    pub(crate) fn ensure(
        &mut self,
        dir: &SessionDir,
        member: &Interval,
        chunk_bytes: usize,
        pool: &mut ReaderPool,
        stats: &mut WorkerStats,
        charge_hits: bool,
    ) -> io::Result<()> {
        let key = (member.tid, member.meta.data_begin);
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_use = self.clock;
            if charge_hits {
                stats.trees_built += 1;
                stats.nodes += e.tree.node_count() as u64;
                stats.events += e.tree.accesses;
                stats.bytes_read += e.tree.bytes_read;
            }
            return Ok(());
        }
        let t0 = Instant::now();
        let tree =
            pool.build(dir, member.tid, member.meta.data_begin, member.meta.size, chunk_bytes)?;
        stats.build_secs += t0.elapsed().as_secs_f64();
        stats.trees_built += 1;
        stats.nodes += tree.node_count() as u64;
        stats.events += tree.accesses;
        stats.bytes_read += tree.bytes_read;
        self.insert(key, tree);
        Ok(())
    }

    /// `true` when the tree keyed `key` is cached.
    pub(crate) fn contains(&self, key: &(ThreadId, u64)) -> bool {
        self.entries.contains_key(key)
    }

    /// Caches a tree built elsewhere (by another worker, for this one),
    /// charging its bytes to the memory gauge. Charges no build counters:
    /// the [`TreeCache::ensure`] that follows hits and charges them.
    pub(crate) fn insert(&mut self, key: (ThreadId, u64), tree: BiTree) {
        self.clock += 1;
        self.nodes_held += tree.node_count();
        self.mem.alloc(tree.approx_bytes());
        let prev = self.entries.insert(key, CacheEntry { last_use: self.clock, tree });
        debug_assert!(prev.is_none(), "a cached tree is never rebuilt");
    }

    /// Evicts least-recently-used trees until the node budget holds,
    /// never touching the pinned keys (the task currently compared).
    pub(crate) fn evict(&mut self, pinned: &[(ThreadId, u64)]) {
        while self.nodes_held > self.node_budget && self.entries.len() > pinned.len() {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| !pinned.contains(k))
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(e) = self.entries.remove(&key) {
                self.nodes_held -= e.tree.node_count();
                self.mem.free(e.tree.approx_bytes());
            }
        }
    }

    pub(crate) fn get(&self, key: &(ThreadId, u64)) -> Option<&BiTree> {
        self.entries.get(key).map(|e| &e.tree)
    }
}

impl Drop for TreeCache {
    /// Credits every still-cached tree back to the memory gauge, so the
    /// gauge's live value returns to zero once an analysis (and its
    /// per-worker caches) finishes while its peak keeps the measured
    /// tree memory.
    fn drop(&mut self) {
        for e in self.entries.values() {
            self.mem.free(e.tree.approx_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_trace::{EventEncoder, MemAccess};

    fn encode(events: &[Event]) -> Vec<u8> {
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        for e in events {
            enc.encode(e, &mut buf);
        }
        buf
    }

    fn tree_from(events: &[Event], chunk: usize) -> BiTree {
        let bytes = encode(events);
        // Wrap in a log (single frame).
        let mut w = sword_trace::LogWriter::new(Vec::new());
        w.write_block(&bytes).unwrap();
        let log = w.into_inner();
        // Build through both source kinds and require identical trees;
        // return the mapped one.
        let mut streamed = StreamSource::new(&log[..]);
        let s = build_tree(&mut streamed, 0, 0, bytes.len() as u64, chunk).unwrap();
        let mut mapped = MappedLog::from_bytes(log, SourceStats::new());
        let m = build_tree(&mut mapped, 0, 0, bytes.len() as u64, chunk).unwrap();
        assert_eq!(m.accesses, s.accesses, "mapped vs streamed accesses");
        assert_eq!(m.node_count(), s.node_count(), "mapped vs streamed nodes");
        assert_eq!(m.mutex_sets, s.mutex_sets, "mapped vs streamed mutex sets");
        let mi: Vec<_> = m.tree.iter().map(|(_, iv, meta)| (*iv, *meta)).collect();
        let si: Vec<_> = s.tree.iter().map(|(_, iv, meta)| (*iv, *meta)).collect();
        assert_eq!(mi, si, "mapped vs streamed intervals");
        m
    }

    fn acc(addr: u64, kind: AccessKind, pc: PcId) -> Event {
        Event::Access(MemAccess::new(addr, 8, kind, pc))
    }

    #[test]
    fn empty_interval() {
        let t = tree_from(&[], 64);
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.accesses, 0);
    }

    #[test]
    fn array_sweep_summarizes() {
        let events: Vec<Event> =
            (0..1000).map(|i| acc(0x1000 + i * 8, AccessKind::Write, 7)).collect();
        let t = tree_from(&events, 128);
        assert_eq!(t.accesses, 1000);
        assert_eq!(t.node_count(), 1, "one strided node");
        let (_, iv, meta) = t.tree.iter().next().unwrap();
        assert_eq!(iv.begin(), 0x1000);
        assert_eq!(iv.len(), 1000);
        assert_eq!(meta.pc, 7);
        assert_eq!(meta.kind, AccessKind::Write);
    }

    #[test]
    fn tiny_chunks_equal_big_chunks() {
        let events: Vec<Event> = (0..200)
            .flat_map(|i| {
                [
                    acc(0x1000 + i * 8, AccessKind::Read, 1),
                    acc(0x9000 + i * 16, AccessKind::Write, 2),
                ]
            })
            .collect();
        let small = tree_from(&events, 3); // force partial events at edges
        let big = tree_from(&events, 1 << 20);
        assert_eq!(small.accesses, big.accesses);
        assert_eq!(small.node_count(), big.node_count());
        let a: Vec<_> = small.tree.iter().map(|(_, iv, m)| (*iv, *m)).collect();
        let b: Vec<_> = big.tree.iter().map(|(_, iv, m)| (*iv, *m)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mutex_sets_attach_to_accesses() {
        let events = vec![
            acc(0x10, AccessKind::Write, 1), // no locks
            Event::MutexAcquire(5),
            acc(0x20, AccessKind::Write, 2), // {5}
            Event::MutexAcquire(3),
            acc(0x30, AccessKind::Write, 3), // {3,5}
            Event::MutexRelease(5),
            acc(0x40, AccessKind::Write, 4), // {3}
            Event::MutexRelease(3),
            acc(0x50, AccessKind::Write, 5), // {}
        ];
        let t = tree_from(&events, 1 << 20);
        assert_eq!(t.node_count(), 5);
        let by_pc: std::collections::HashMap<PcId, u32> =
            t.tree.iter().map(|(_, _, m)| (m.pc, m.mset)).collect();
        assert_eq!(t.mutex_sets[by_pc[&1] as usize], Vec::<MutexId>::new());
        assert_eq!(t.mutex_sets[by_pc[&2] as usize], vec![5]);
        assert_eq!(t.mutex_sets[by_pc[&3] as usize], vec![3, 5]);
        assert_eq!(t.mutex_sets[by_pc[&4] as usize], vec![3]);
        assert_eq!(t.mutex_sets[by_pc[&5] as usize], Vec::<MutexId>::new());
        // Empty set re-interned to the same id.
        assert_eq!(by_pc[&1], by_pc[&5]);
    }

    #[test]
    fn can_race_conditions() {
        let t = tree_from(
            &[
                acc(0x10, AccessKind::Read, 1),
                acc(0x20, AccessKind::Write, 2),
                acc(0x30, AccessKind::AtomicWrite, 3),
                Event::MutexAcquire(9),
                acc(0x40, AccessKind::Write, 4),
            ],
            64,
        );
        let meta_of = |pc: PcId| -> AccessMeta {
            t.tree.iter().find(|(_, _, m)| m.pc == pc).map(|(_, _, m)| *m).unwrap()
        };
        let read = meta_of(1);
        let write = meta_of(2);
        let awrite = meta_of(3);
        let locked_write = meta_of(4);
        assert!(!t.can_race(&read, &t, &read), "read-read never races");
        assert!(t.can_race(&read, &t, &write));
        assert!(t.can_race(&write, &t, &write));
        assert!(!t.can_race(&awrite, &t, &awrite), "atomic-atomic never races");
        assert!(t.can_race(&awrite, &t, &read), "atomic vs plain still races");
        assert!(t.can_race(&write, &t, &locked_write), "disjoint lock sets race");
        assert!(!t.can_race(&locked_write, &t, &locked_write), "common lock protects");
    }

    #[test]
    fn interval_slicing_from_shared_log() {
        // Two intervals back to back in one log; build each from its
        // range.
        let ev1: Vec<Event> = (0..50).map(|i| acc(i * 8, AccessKind::Write, 1)).collect();
        let ev2: Vec<Event> = (0..30).map(|i| acc(0x8000 + i * 4, AccessKind::Read, 2)).collect();
        let mut enc = EventEncoder::new();
        let mut b1 = Vec::new();
        for e in &ev1 {
            enc.encode(e, &mut b1);
        }
        enc.reset();
        let mut b2 = Vec::new();
        for e in &ev2 {
            enc.encode(e, &mut b2);
        }
        let mut w = sword_trace::LogWriter::new(Vec::new());
        w.write_block(&b1).unwrap();
        w.write_block(&b2).unwrap();
        let log = w.into_inner();

        for mapped in [false, true] {
            let mut source: Box<dyn LogSource + '_> = if mapped {
                Box::new(MappedLog::from_bytes(log.clone(), SourceStats::new()))
            } else {
                Box::new(StreamSource::new(&log[..]))
            };
            let t1 = build_tree(source.as_mut(), 0, 0, b1.len() as u64, 16).unwrap();
            let t2 = build_tree(source.as_mut(), 0, b1.len() as u64, b2.len() as u64, 16).unwrap();
            assert_eq!(t1.accesses, 50);
            assert_eq!(t2.accesses, 30);
            assert_eq!(t1.node_count(), 1);
            assert_eq!(t2.node_count(), 1);
            assert_eq!(t2.tree.iter().next().unwrap().1.begin(), 0x8000);
        }
    }

    #[test]
    fn sets_disjoint_logic() {
        assert!(sets_disjoint(&[], &[]));
        assert!(sets_disjoint(&[1, 3], &[2, 4]));
        assert!(!sets_disjoint(&[1, 3], &[3, 4]));
        assert!(sets_disjoint(&[], &[1]));
    }
}
