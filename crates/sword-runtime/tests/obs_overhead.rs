//! Observability must not break the bounded-overhead claim: a collector
//! run with full instrumentation (journal + registry sources + periodic
//! snapshots) must stay within 5% of the uninstrumented run's event
//! throughput on the bench workload — and so must a run that additionally
//! serves the embedded telemetry exporter to a live scraper. The 5% bound
//! is checked in an optimized build; an unoptimized one pairs fewer
//! rounds and checks a coarse 20%.
//!
//! The margin holds by construction — the journal records only at flush
//! boundaries (once per `buffer_events` events), registry sources are
//! read-on-demand closures, and the exporter reads snapshots outside the
//! recording hot path — so this test pins the design.
//!
//! Methodology: each of `ROUNDS` rounds collects every leg once, back to
//! back, rotating which leg goes first so no leg always inherits
//! another's warm caches. A collection is `EVENTS_PER_THREAD` events per
//! thread (~20 ms optimized, about one scrape interval). The assertion takes the *median* of the per-round
//! throughput ratios over many rounds: machine noise moves adjacent runs
//! together, and one lucky or unlucky round cannot decide it. With every
//! leg uninstrumented, this estimator reads within ±2% of parity on a
//! 2-core VM, where a single round's ratio spreads over ±10%.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sword_obs::Obs;
use sword_obs_http::{http_get, ServerConfig, TelemetryHandles, TelemetryServer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig};

const THREADS: usize = 4;
const EVENTS_PER_THREAD: u64 = 250_000;
/// Paired rounds; each collects every leg once. An unoptimized build
/// collects ~8x slower, so it pairs fewer rounds.
const ROUNDS: usize = if cfg!(debug_assertions) { 15 } else { 61 };

/// Pause between scrapes. Aggressive next to a stock Prometheus
/// interval (seconds), yet periodic: on a single-core runner one scrape
/// round costs ~600µs of stolen collector time (client and server share
/// the core with the run), so the cadence — not the exporter's own work
/// — sets the floor the 5% bound is checked against.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(25);

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No observability attached.
    Plain,
    /// Journal + registry wired in.
    Obs,
    /// Observability plus the HTTP exporter, scraped during the run.
    ObsScraped,
}

/// Events collected and seconds taken by one collection in `mode` into
/// the fresh session directory `root/tag`, removed again afterwards.
fn collect(mode: Mode, root: &Path, tag: &str) -> (u64, f64) {
    let dir = root.join(tag);
    let mut config = SwordConfig::new(&dir).buffer_events(2048);
    let obs = (mode != Mode::Plain).then(Obs::new);
    if let Some(obs) = &obs {
        config = config.with_obs(obs.clone());
    }
    let server = (mode == Mode::ObsScraped).then(|| {
        TelemetryServer::start(
            ServerConfig::bind("127.0.0.1:0"),
            TelemetryHandles::new(obs.clone().expect("scraped implies obs")),
        )
        .expect("exporter")
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().map(|srv| {
        let addr = srv.local_addr().to_string();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut hits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if http_get(&addr, "/metrics", Duration::from_millis(500)).is_ok() {
                    hits += 1;
                }
                // Periodic, like a real scrape loop; a busy loop would
                // measure core stealing on small CI runners instead.
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            hits
        })
    });
    let total = EVENTS_PER_THREAD * THREADS as u64;
    let start = Instant::now();
    let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(total, 0);
        sim.run(|ctx| {
            ctx.parallel(THREADS, |w| {
                w.for_static(0..total, |i| {
                    w.write(&a, i, i);
                });
            });
        });
    })
    .expect("collection succeeds");
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        assert!(h.join().expect("scraper thread") > 0, "scraper never reached the exporter");
    }
    if let Some(srv) = server {
        srv.shutdown();
    }
    assert_eq!(stats.events, total);
    std::fs::remove_dir_all(&dir).ok();
    (stats.events, secs)
}

#[test]
fn obs_overhead_within_five_percent() {
    let root = std::env::temp_dir().join(format!("sword-obs-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Warm up allocators, code paths, and the filesystem cache.
    collect(Mode::Plain, &root, "warm");
    collect(Mode::Obs, &root, "warm-obs");
    collect(Mode::ObsScraped, &root, "warm-scraped");
    const LEGS: [Mode; 3] = [Mode::Plain, Mode::Obs, Mode::ObsScraped];
    let mut obs_ratios = Vec::with_capacity(ROUNDS);
    let mut scraped_ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut rate = [0.0f64; 3];
        for k in 0..LEGS.len() {
            let l = (round + k) % LEGS.len();
            let (events, secs) = collect(LEGS[l], &root, &format!("r{round}-{l}"));
            rate[l] = events as f64 / secs;
        }
        obs_ratios.push(rate[1] / rate[0]);
        scraped_ratios.push(rate[2] / rate[0]);
    }
    std::fs::remove_dir_all(&root).ok();
    // The 5% bound is the optimized build's (CI runs this test with
    // `--release`). Unoptimized collections read 0.92-1.03 over 15 rounds
    // on a 2-core VM, so a debug build only checks a coarse 20%.
    let floor = if cfg!(debug_assertions) { 0.80 } else { 0.95 };
    for (what, ratios) in
        [("instrumented", &mut obs_ratios), ("scraped-exporter", &mut scraped_ratios)]
    {
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ROUNDS / 2];
        eprintln!("{what}: median throughput ratio {median:.3} over {ROUNDS} rounds");
        assert!(
            median >= floor,
            "{what} throughput fell {:.1}% below uninstrumented in the median round, \
             more than {:.0}% (sorted ratios {ratios:?})",
            (1.0 - median) * 100.0,
            (1.0 - floor) * 100.0
        );
    }
}
