//! Per-site attribution must stay in the compare stage's noise floor:
//! attaching a [`SiteTable`] to the offline analysis adds one hit count
//! per candidate pair and one dense-Vec credit per compared tree node,
//! in an otherwise lock-free worker accumulator, and this test pins that
//! at <5% of compare-stage time in optimized builds (CI runs it under
//! `--release`; see ci.yml). Debug codegen doesn't inline the
//! accumulator, so unoptimized builds only get a coarse did-not-regress
//! bound.
//!
//! Methodology: each of `ROUNDS` rounds measures both configurations
//! back to back, alternating which goes first so neither side always
//! inherits the other's warm caches, and each side of a round sums
//! `REPS` analyses so one leg outlasts scheduler and frequency noise. The
//! assertion takes the *median* of the per-round ratios: machine noise
//! moves both sides of a round together, and the median of many paired
//! rounds estimates the true overhead instead of rewarding one lucky
//! round.

use std::path::PathBuf;

use sword::obs::SiteTable;
use sword::offline::{analyze, AnalysisConfig};
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;

const THREADS: usize = 4;
const SITES: u32 = 96;
const INTERVALS: u64 = 4;
/// Paired rounds; each measures both legs, in alternating order.
const ROUNDS: usize = 15;
/// Analyses summed into one leg, so a leg outlasts scheduler and
/// frequency noise instead of lasting a few milliseconds.
const REPS: usize = 6;

/// Collects a compare-heavy session: in every barrier interval each
/// thread sweeps the whole shared buffer tid-strided once per site, so
/// each tree holds `SITES` summarized strided nodes over the same
/// address range and the compare stage walks `SITES x SITES` candidate
/// pairs (all reaching the solver, none racing — tid-disjoint strides)
/// per concurrent tree pair.
fn collect(dir: &PathBuf) {
    const SWEEP: u64 = 8;
    let _ = std::fs::remove_dir_all(dir);
    run_collected(SwordConfig::new(dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(SWEEP * THREADS as u64, 0);
        let pcs: Vec<_> = (0..SITES).map(|s| sim.intern_site("attribution.rs", s + 1)).collect();
        sim.run(|ctx| {
            ctx.parallel(THREADS, |w| {
                let tid = w.team_index();
                for _ in 0..INTERVALS {
                    for &pc in &pcs {
                        for k in 0..SWEEP {
                            w.write_pc(&a, k * THREADS as u64 + tid, 1, pc);
                        }
                    }
                    w.barrier();
                }
            });
        });
    })
    .expect("collection succeeds");
}

/// Compare-stage busy seconds of one sequential analysis.
fn compare_secs(session: &SessionDir, attribute: bool) -> f64 {
    let mut config = AnalysisConfig::sequential();
    if attribute {
        config = config.with_site_attribution(SiteTable::new());
    }
    let result = analyze(session, &config).expect("analysis succeeds");
    assert!(result.stats.candidate_pairs > 10_000, "compare stage must have real work");
    result.stages.get("compare").expect("compare stage recorded").busy_secs
}

#[test]
fn site_attribution_overhead_within_five_percent() {
    let dir = std::env::temp_dir().join(format!("sword-site-overhead-{}", std::process::id()));
    collect(&dir);
    let session = SessionDir::new(&dir);

    // Warm the page cache and code paths.
    compare_secs(&session, false);
    compare_secs(&session, true);

    let leg = |attribute: bool| -> f64 {
        (0..REPS).map(|_| compare_secs(&session, attribute)).sum::<f64>()
    };
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (plain, attr) = if round % 2 == 0 {
            let plain = leg(false);
            (plain, leg(true))
        } else {
            let attr = leg(true);
            (leg(false), attr)
        };
        ratios.push(attr / plain);
    }
    std::fs::remove_dir_all(&dir).ok();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    let margin = if cfg!(debug_assertions) { 1.30 } else { 1.05 };
    assert!(
        median <= margin,
        "per-site attribution overhead {:.1}% exceeds {:.0}% of compare-stage \
         time in the median round (sorted ratios {ratios:?})",
        (median - 1.0) * 100.0,
        (margin - 1.0) * 100.0
    );
}
