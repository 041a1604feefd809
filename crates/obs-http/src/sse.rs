//! Server-sent-events streaming of journal events.
//!
//! Each `/events` client gets its own bounded [`JournalTap`]; events are
//! forwarded at journal-drain time, so the stream rides the same
//! periodic pass that persists `obs.jsonl` and never touches recording
//! hot paths. Two layers of shedding keep slow clients from growing
//! memory: the tap drops (and counts) events when its channel fills,
//! and a client whose socket stalls past the write timeout is
//! disconnected outright.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sword_obs::journal::JournalTap;
use sword_obs::{Counter, Layer};

/// How long to wait for the next event before emitting a keep-alive
/// comment (also the shutdown-flag polling cadence).
const KEEPALIVE: Duration = Duration::from_millis(500);

/// Per-client stream parameters.
pub struct SseClient {
    /// The subscribed tap.
    pub tap: JournalTap,
    /// Only forward events from these layers; empty means all.
    pub layers: Vec<Layer>,
    /// Close the stream after this many events (0 = unlimited). Lets
    /// tests and one-shot `curl` invocations terminate cleanly.
    pub limit: u64,
    /// Events shed because a tap channel filled (shared exporter
    /// counter).
    pub dropped_events: Counter,
}

/// Streams journal events to one client until the limit is reached, the
/// client hangs up, or the server shuts down. Returns bytes written.
pub fn stream_events(
    stream: &mut TcpStream,
    client: SseClient,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<usize> {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    crate::http::write_stream_head(stream)?;
    let mut written = 0usize;
    let mut sent = 0u64;
    let mut reported_drops = 0u64;
    while !shutdown.load(Ordering::Relaxed) {
        let Some(event) = client.tap.recv_timeout(KEEPALIVE) else {
            // Keep-alive comment: detects dead clients between events.
            stream.write_all(b": keepalive\n\n")?;
            stream.flush()?;
            written += 13;
            continue;
        };
        if !client.layers.is_empty() && !client.layers.contains(&event.layer) {
            continue;
        }
        let drops = client.tap.dropped();
        if drops > reported_drops {
            client.dropped_events.add(drops - reported_drops);
            reported_drops = drops;
        }
        let frame = format!("event: journal\ndata: {}\n\n", event.to_json_line());
        stream.write_all(frame.as_bytes())?;
        stream.flush()?;
        written += frame.len();
        sent += 1;
        if client.limit > 0 && sent >= client.limit {
            break;
        }
    }
    Ok(written)
}
