//! Per-thread collection state: the bounded event buffer and the
//! barrier-interval bookkeeping behind each thread's meta-data file.

use sword_obs::ThreadJournal;
use sword_ompsim::ThreadContext;
use sword_trace::{Event, EventEncoder, MetaRecord};

/// The paper's tuned buffer capacity: 25,000 events (§III-A, chosen to
/// keep the buffer within L3).
pub const PAPER_BUFFER_EVENTS: usize = 25_000;

/// Upper bound on one encoded event (tag + size varint + two full
/// varints), used to size the byte buffer once up front so the hot path
/// never reallocates.
pub(crate) const MAX_EVENT_BYTES: usize = 24;

/// A barrier interval currently being collected.
#[derive(Clone, Debug)]
pub(crate) struct OpenInterval {
    pub pid: u64,
    pub ppid: Option<u64>,
    pub bid: u32,
    pub offset: u64,
    pub span: u64,
    pub level: u32,
    pub data_begin: u64,
}

/// One thread's collection state. Owned by the collector, driven by
/// callbacks arriving on that thread.
pub(crate) struct ThreadLog {
    buffer: Vec<u8>,
    buffer_events: usize,
    capacity_events: usize,
    encoder: EventEncoder,
    /// Uncompressed log bytes already handed to the writer.
    flushed: u64,
    open: Option<OpenInterval>,
    pub meta: Vec<MetaRecord>,
    pub events_total: u64,
    pub flushes: u64,
    /// Observability recorder for this app thread (`--obs` runs only).
    /// Records only at flush boundaries, never per event.
    pub obs: Option<ThreadJournal>,
}

impl ThreadLog {
    /// A log that owns its own buffer (tests and pool-less callers).
    #[cfg(test)]
    pub fn new(capacity_events: usize) -> Self {
        assert!(capacity_events > 0);
        Self::with_buffer(capacity_events, Vec::with_capacity(capacity_events * MAX_EVENT_BYTES))
    }

    /// A log filling `initial` (a pool buffer); subsequent buffers arrive
    /// via [`ThreadLog::swap_buffer`].
    pub fn with_buffer(capacity_events: usize, initial: Vec<u8>) -> Self {
        assert!(capacity_events > 0);
        ThreadLog {
            buffer: initial,
            buffer_events: 0,
            capacity_events,
            encoder: EventEncoder::new(),
            flushed: 0,
            open: None,
            meta: Vec::new(),
            events_total: 0,
            flushes: 0,
            obs: None,
        }
    }

    /// Uncompressed log offset of the next byte to be written.
    pub fn offset(&self) -> u64 {
        self.flushed + self.buffer.len() as u64
    }

    /// Capacity of the byte buffer (the pool owns bounded-memory
    /// accounting now; this remains for tests).
    #[cfg(test)]
    pub fn buffer_capacity_bytes(&self) -> usize {
        self.buffer.capacity()
    }

    /// Opens a new barrier interval described by the thread context.
    /// Resets the encoder so the interval's byte range decodes standalone.
    pub fn open_interval(&mut self, ctx: &ThreadContext<'_>) {
        debug_assert!(self.open.is_none(), "interval already open");
        let pair = ctx.label.last().expect("worker label has a pair");
        self.open = Some(OpenInterval {
            pid: ctx.region,
            ppid: ctx.parent_region,
            bid: ctx.bid,
            offset: pair.offset,
            span: pair.span,
            level: ctx.level,
            data_begin: self.offset(),
        });
        self.encoder.reset();
    }

    /// Closes the open interval, emitting its Table-I row.
    pub fn close_interval(&mut self) {
        let open = self.open.take().expect("no interval open");
        let end = self.offset();
        self.meta.push(MetaRecord {
            pid: open.pid,
            ppid: open.ppid,
            bid: open.bid,
            offset: open.offset,
            span: open.span,
            level: open.level,
            data_begin: open.data_begin,
            size: end - open.data_begin,
        });
    }

    /// `true` when an interval is being collected.
    pub fn interval_open(&self) -> bool {
        self.open.is_some()
    }

    /// Appends one event; returns `true` when the buffer reached capacity
    /// (the caller acquires a drained pool buffer and calls
    /// [`ThreadLog::swap_buffer`]).
    #[must_use = "a full buffer must be swapped out and shipped"]
    pub fn push(&mut self, event: &Event) -> bool {
        self.encoder.encode(event, &mut self.buffer);
        self.buffer_events += 1;
        self.events_total += 1;
        self.buffer_events >= self.capacity_events
    }

    /// Double-buffer handoff: installs the drained `fresh` buffer and
    /// returns the filled one for shipping.
    pub fn swap_buffer(&mut self, fresh: Vec<u8>) -> Vec<u8> {
        debug_assert!(fresh.is_empty(), "swap target must be drained");
        self.flushed += self.buffer.len() as u64;
        self.buffer_events = 0;
        self.flushes += 1;
        std::mem::replace(&mut self.buffer, fresh)
    }

    /// Gives up the (drained) pool buffer for good, leaving an empty
    /// non-allocating `Vec`; `None` when the log holds none. For a log
    /// that will record no more events (a finished task's).
    pub fn release_buffer(&mut self) -> Option<Vec<u8>> {
        debug_assert!(self.buffer.is_empty(), "drain before releasing the buffer");
        (self.buffer.capacity() > 0).then(|| std::mem::take(&mut self.buffer))
    }

    /// Takes the current buffer contents for the final flush (empty →
    /// `None`). The replacement is an empty non-allocating `Vec`: drains
    /// happen once, at end of run, after which the log only serves
    /// metadata reads.
    pub fn drain(&mut self) -> Option<Vec<u8>> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(self.swap_buffer(Vec::new()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_trace::{AccessKind, MemAccess};

    fn access(addr: u64) -> Event {
        Event::Access(MemAccess::new(addr, 8, AccessKind::Write, 1))
    }

    #[test]
    fn buffer_flushes_at_capacity() {
        let mut log = ThreadLog::new(10);
        for i in 0..9 {
            assert!(!log.push(&access(i * 8)));
        }
        assert!(log.push(&access(72)), "10th event fills the buffer");
        let fresh = Vec::with_capacity(log.buffer_capacity_bytes());
        let flushed = log.swap_buffer(fresh);
        assert!(!flushed.is_empty());
        assert_eq!(log.flushes, 1);
        assert_eq!(log.events_total, 10);
        assert_eq!(log.offset(), flushed.len() as u64);
        // Buffer restarts empty after the swap.
        assert!(log.drain().is_none());
    }

    #[test]
    fn drain_returns_partial_buffer() {
        let mut log = ThreadLog::new(100);
        assert!(!log.push(&access(0)));
        assert!(!log.push(&access(8)));
        let bytes = log.drain().unwrap();
        assert!(!bytes.is_empty());
        assert!(log.drain().is_none());
        assert_eq!(log.offset(), bytes.len() as u64);
    }

    #[test]
    fn offsets_continue_across_flushes() {
        let mut log = ThreadLog::new(4);
        let cap = log.buffer_capacity_bytes();
        let mut total = 0u64;
        for i in 0..10 {
            if log.push(&access(i)) {
                let b = log.swap_buffer(Vec::with_capacity(cap));
                total += b.len() as u64;
                assert_eq!(log.offset(), total);
            }
        }
        if let Some(b) = log.drain() {
            total += b.len() as u64;
        }
        assert_eq!(log.offset(), total);
    }

    #[test]
    fn capacity_is_stable_across_swaps() {
        let mut log = ThreadLog::new(5);
        let before = log.buffer_capacity_bytes();
        // Two buffers rotating, exactly as the pool drives double
        // buffering: swap in the spare, drain the filled one, repeat.
        let mut spare = Vec::with_capacity(before);
        for i in 0..25 {
            if log.push(&access(i)) {
                let mut filled = log.swap_buffer(std::mem::take(&mut spare));
                filled.clear();
                spare = filled;
            }
        }
        assert_eq!(log.buffer_capacity_bytes(), before, "bounded memory");
        assert_eq!(log.flushes, 5);
    }
}
