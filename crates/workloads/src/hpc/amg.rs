//! AMG2013 analog: an algebraic-multigrid-style V-cycle solver.
//!
//! AMG2013 is the paper's memory-stress benchmark (Figures 7d/8, Table
//! IV): its footprint scales with the n³ input grid, ARCHER's shadow
//! memory scales with the footprint and dies at 40³, and its one large
//! solve region (~400 LoC) contains **14** racy source-line pairs of
//! which ARCHER only ever reports **4** — the other ten are read-write
//! races whose records fall out of the four shadow cells (§II eviction).
//!
//! The analog reproduces each ingredient:
//!
//! * **Footprint** — four per-point state arrays hold [`POINT_ELEMS`]
//!   f64 values per grid point, allocated as *phantom* tracked buffers
//!   (declared n³-proportional virtual size over a bounded physical
//!   backing) and touched in full by the setup pass, so shadow-based
//!   tools pay footprint-proportional memory exactly as they do on the
//!   real code. [`amg_baseline_bytes`] gives the declared footprint per
//!   size for node-placement models.
//! * **Numerics** — a real geometric-multigrid V-cycle (damped-Jacobi
//!   smoothing, full-weighting-ish restriction, injection prolongation)
//!   on the n³ Poisson problem, race-free.
//! * **The 14 races** — a "solve statistics" region carrying two
//!   unprotected counters (2 line pairs each: the 4 races ARCHER sees)
//!   and ten result cells whose producing writes are evicted from the
//!   shadow word by byte-disjoint neighbour reads before the racing
//!   consumer reads arrive (the 10 races only SWORD sees).

use std::sync::Arc;

use sword_ompsim::{Ctx, OmpSim, Sequencer, TrackedBuf};

use crate::drb::turns;
use crate::{RunConfig, Suite, Workload, WorkloadSpec};

/// Problem sizes used by the paper: grid edge lengths 10, 20, 30, 40.
pub const AMG_SIZES: [u64; 4] = [10, 20, 30, 40];

/// Modeled per-point refined state: elements per array per grid point.
pub const POINT_ELEMS: u64 = 8;

/// Number of per-point state arrays.
const ARRAYS: u64 = 4;

/// Physical backing cap for the phantom arrays.
const REAL_BACKING: usize = 1 << 15;

/// Declared (virtual) footprint of the AMG analog at grid size `n` —
/// `4 arrays × 8 f64/point × n³`, i.e. 256·n³ bytes (16 MB at n = 40).
pub fn amg_baseline_bytes(n: u64) -> u64 {
    ARRAYS * POINT_ELEMS * 8 * n * n * n
}

/// The AMG workload: a fixed grid for the named sizes of the paper's
/// sweeps, or the grid given by [`RunConfig::size`] (default 10).
pub struct Amg {
    spec: WorkloadSpec,
    grid: Option<u64>,
}

impl Workload for Amg {
    fn spec(&self) -> WorkloadSpec {
        self.spec.clone()
    }

    fn execute(&self, sim: &OmpSim, cfg: &RunConfig) {
        run_amg(sim, cfg, self.grid.unwrap_or(cfg.size_or(10)));
    }

    fn takes_size(&self) -> bool {
        self.grid.is_none()
    }
}

/// Builds the AMG workload at grid size `n`: `AMG2013_<n>` with that
/// grid fixed for `n` in [`AMG_SIZES`], otherwise `AMG2013`, sized by
/// [`RunConfig::size`].
pub fn amg_workload(n: u64) -> Amg {
    let (name, grid) = match n {
        10 => ("AMG2013_10", Some(10)),
        20 => ("AMG2013_20", Some(20)),
        30 => ("AMG2013_30", Some(30)),
        40 => ("AMG2013_40", Some(40)),
        _ => ("AMG2013", None),
    };
    Amg {
        spec: WorkloadSpec {
            name,
            suite: Suite::Hpc,
            documented_races: 4,
            sword_races: 14,
            archer_races: Some(4),
            notes: "multigrid V-cycle; footprint ∝ n³; 4 counter races \
                    visible to HB tools + 10 eviction-hidden read-write \
                    races in the large solve region",
        },
        grid,
    }
}

/// Damped-Jacobi smoothing sweeps of `u` for the 1D-chained 3D Poisson
/// stencil at a given level. Barriered per sweep: race-free.
fn smooth(
    w: &Ctx<'_>,
    len: u64,
    stride: u64,
    u: &TrackedBuf<f64>,
    f: &TrackedBuf<f64>,
    scratch: &TrackedBuf<f64>,
    sweeps: u32,
) {
    for _ in 0..sweeps {
        w.for_static(1..len - 1, |i| {
            let left = w.read(u, (i - 1) * stride);
            let right = w.read(u, (i + 1) * stride);
            let fi = w.read(f, i * stride);
            w.write(scratch, i * stride, 0.3 * w.read(u, i * stride) + 0.35 * (left + right + fi));
        });
        w.for_static(1..len - 1, |i| {
            let s = w.read(scratch, i * stride);
            w.write(u, i * stride, s);
        });
    }
}

/// Runs setup + V-cycles + the racy statistics region; returns the final
/// fine-grid residual sum (validated in tests).
pub fn run_amg(sim: &OmpSim, cfg: &RunConfig, n: u64) -> f64 {
    let points = n * n * n;
    let decl = points * POINT_ELEMS;
    let threads = cfg.threads.max(6); // the statistics region needs 6 roles
                                      // Per-point refined state: declared n³-proportional, bounded backing.
    let u = sim.alloc_phantom::<f64>(decl, REAL_BACKING.min(decl as usize), 0.0);
    let f = sim.alloc_phantom::<f64>(decl, REAL_BACKING.min(decl as usize), 0.0);
    let r = sim.alloc_phantom::<f64>(decl, REAL_BACKING.min(decl as usize), 0.0);
    let aux = sim.alloc_phantom::<f64>(decl, REAL_BACKING.min(decl as usize), 0.0);

    // Coarse hierarchy (real, small): level k has len_k points in the
    // 1D-chained representation; per level: (len, u, f, residual).
    type Level = (u64, TrackedBuf<f64>, TrackedBuf<f64>, TrackedBuf<f64>);
    let mut levels: Vec<Level> = Vec::new();
    let mut len = points.clamp(8, 1 << 14);
    while len >= 8 {
        levels.push((
            len,
            sim.alloc::<f64>(len, 0.0),
            sim.alloc::<f64>(len, 0.0),
            sim.alloc::<f64>(len, 0.0),
        ));
        len /= 2;
    }

    // Racy statistics state (see module docs).
    let counter_a = sim.alloc::<f64>(1, 0.0);
    let counter_b = sim.alloc::<f64>(1, 0.0);
    let cells: Vec<TrackedBuf<u32>> = (0..10).map(|_| sim.alloc::<u32>(2, 0)).collect();

    let seq_a = Arc::new(Sequencer::new());
    let seq_b = Arc::new(Sequencer::new());
    let seq_g = Arc::new(Sequencer::new());

    sim.run(|ctx| {
        // Setup: touch the full declared footprint, as AMG's setup phase
        // touches all of its grids — this is what grows shadow memory.
        ctx.parallel(threads, |w| {
            for (arr, init) in [(&u, 0.0f64), (&f, 1.0), (&r, 0.0), (&aux, 0.0)] {
                w.for_static(0..decl, |i| {
                    w.write(arr, i, init + (i % 17) as f64 * 1e-3);
                });
            }
        });

        // Two V-cycles on the hierarchy.
        ctx.parallel(threads, |w| {
            for _cycle in 0..2 {
                // Fine level lives in the phantom arrays at point stride.
                smooth(w, levels[0].0, POINT_ELEMS, &u, &f, &aux, 2);
                // Residual on the fine level → restrict into level 1.
                w.for_static(1..levels[0].0 - 1, |i| {
                    let ui = w.read(&u, i * POINT_ELEMS);
                    let left = w.read(&u, (i - 1) * POINT_ELEMS);
                    let right = w.read(&u, (i + 1) * POINT_ELEMS);
                    let fi = w.read(&f, i * POINT_ELEMS);
                    w.write(&r, i * POINT_ELEMS, fi - (2.0 * ui - left - right));
                });
                // Down-sweep.
                for lvl in 1..levels.len() {
                    let clen = levels[lvl].0;
                    let flen = levels[lvl - 1].0;
                    let fine_stride = if lvl == 1 { POINT_ELEMS } else { 1 };
                    let fine_r: &TrackedBuf<f64> = if lvl == 1 { &r } else { &levels[lvl - 1].3 };
                    let cu = &levels[lvl].1;
                    let cf = &levels[lvl].2;
                    let cr = &levels[lvl].3;
                    w.for_static(0..clen, |i| {
                        let v = w.read(fine_r, (2 * i).min(flen - 1) * fine_stride);
                        w.write(cf, i, 0.5 * v);
                        w.write(cu, i, 0.0);
                    });
                    smooth(w, clen, 1, cu, cf, cr, 2);
                    // Coarse residual for the next level.
                    w.for_static(1..clen - 1, |i| {
                        let ui = w.read(cu, i);
                        let left = w.read(cu, i - 1);
                        let right = w.read(cu, i + 1);
                        let fi = w.read(cf, i);
                        w.write(cr, i, fi - (2.0 * ui - left - right));
                    });
                }
                // Up-sweep: inject corrections back to the fine level.
                for lvl in (1..levels.len()).rev() {
                    let (clen, cu, ..) = &levels[lvl];
                    if lvl == 1 {
                        w.for_static(0..*clen, |i| {
                            let c = w.read(cu, i);
                            let fi = 2 * i;
                            if fi < levels[0].0 {
                                let cur = w.read(&u, fi * POINT_ELEMS);
                                w.write(&u, fi * POINT_ELEMS, cur + 0.5 * c);
                            }
                        });
                    } else {
                        let (flen, fu, ..) = &levels[lvl - 1];
                        w.for_static(0..*clen, |i| {
                            let c = w.read(cu, i);
                            let fi = 2 * i;
                            if fi < *flen {
                                let cur = w.read(fu, fi);
                                w.write(fu, fi, cur + 0.5 * c);
                            }
                        });
                    }
                }
                smooth(w, levels[0].0, POINT_ELEMS, &u, &f, &aux, 1);
            }
        });

        // The large "solve statistics" region: 14 racy source pairs.
        ctx.parallel(threads, |w| {
            let t = w.team_index();
            let last = w.team_size() - 1;
            // Races 1–4: two unprotected accumulation counters, each a
            // (read, write) + (write, write) pair. Pinned turns make
            // both pairs visible to the happens-before baseline too.
            turns(&seq_a, w, 1, |_| {
                let v = w.read(&counter_a, 0);
                w.write(&counter_a, 0, v + 1.0);
            });
            turns(&seq_b, w, 1, |_| {
                let v = w.read(&counter_b, 0);
                w.write(&counter_b, 0, v + 1.0);
            });
            // Races 5–14: ten per-phase result cells. The producer writes
            // each; four byte-disjoint neighbour reads then recycle every
            // shadow cell of each result word before the consumer's
            // racing read arrives — ARCHER has nothing left to compare
            // against, SWORD logs every access. Ten distinct source
            // pairs, written out explicitly like the ~400-line region
            // they model.
            if t == 0 {
                seq_g.turn(0, || {
                    w.write(&cells[0], 0, 1);
                    w.write(&cells[1], 0, 2);
                    w.write(&cells[2], 0, 3);
                    w.write(&cells[3], 0, 4);
                    w.write(&cells[4], 0, 5);
                    w.write(&cells[5], 0, 6);
                    w.write(&cells[6], 0, 7);
                    w.write(&cells[7], 0, 8);
                    w.write(&cells[8], 0, 9);
                    w.write(&cells[9], 0, 10);
                });
            } else if t < last {
                // Neighbour traffic in the same words (cells[k][1]).
                seq_g.turn(t, || {
                    for c in &cells {
                        let _ = w.read(c, 1);
                    }
                });
            } else {
                seq_g.turn(last, || {
                    let _ = w.read(&cells[0], 0);
                    let _ = w.read(&cells[1], 0);
                    let _ = w.read(&cells[2], 0);
                    let _ = w.read(&cells[3], 0);
                    let _ = w.read(&cells[4], 0);
                    let _ = w.read(&cells[5], 0);
                    let _ = w.read(&cells[6], 0);
                    let _ = w.read(&cells[7], 0);
                    let _ = w.read(&cells[8], 0);
                    let _ = w.read(&cells[9], 0);
                });
            }
            w.barrier();
        });
    });

    // Residual diagnostic over the fine level.
    let mut total = 0.0;
    for i in 1..levels[0].0 - 1 {
        total += r.get_seq(i * POINT_ELEMS).abs();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_scales_cubically() {
        assert_eq!(amg_baseline_bytes(10), 256 * 1000);
        assert_eq!(amg_baseline_bytes(40), 256 * 64_000);
        assert_eq!(amg_baseline_bytes(40) / amg_baseline_bytes(10), 64);
    }

    #[test]
    fn amg_runs_and_produces_finite_residual() {
        let sim = OmpSim::new();
        let res = run_amg(&sim, &RunConfig { threads: 6, size: 0 }, 10);
        assert!(res.is_finite());
        // Declared footprint matches the model (plus small coarse levels
        // and statistics cells).
        assert!(sim.peak_footprint() >= amg_baseline_bytes(10));
    }

    #[test]
    fn phantom_backing_is_bounded() {
        let sim = OmpSim::new();
        let _ = run_amg(&sim, &RunConfig { threads: 6, size: 0 }, 20);
        // Declared is MBs, but the real allocation stays capped: this is
        // implicitly validated by the run completing quickly; assert the
        // declared size for the record.
        assert!(sim.peak_footprint() >= amg_baseline_bytes(20));
    }
}
