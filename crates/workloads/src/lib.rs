//! Benchmark workloads for the SWORD evaluation.
//!
//! Three suites mirror §IV of the paper:
//!
//! * [`drb`] — DataRaceBench-like microbenchmarks: small kernels with
//!   documented races (or documented race-freedom), reimplemented on
//!   `ompsim` with the original kernels' names and race semantics for
//!   every benchmark the paper's prose discusses.
//! * [`ompscr`] — OmpSCR-like kernels: real small computations
//!   (Mandelbrot, molecular dynamics, quicksort, LU, …) with their
//!   documented races and, for the six benchmarks the paper names, the
//!   additional undocumented races SWORD found.
//! * [`hpc`] — mini-app analogs of the paper's CORAL/Mantevo codes:
//!   AMG2013 (algebraic multigrid), LULESH (hydro proxy with very many
//!   regions), miniFE (FE assembly + CG), HPCCG (CG with the benign
//!   shared write).
//! * [`tasking`] — DataRaceBench-style explicit-task kernels (depend
//!   chains, taskwait, taskgroup scope) plus ordered/guided schedule
//!   controls.
//!
//! Every workload is an honest computation over tracked memory: detectors
//! observe it through the ordinary tool interface, and each racy kernel's
//! schedule-sensitive behaviour is pinned with a
//! [`sword_ompsim::Sequencer`] where the paper's comparison depends on a
//! particular interleaving.

#![forbid(unsafe_code)]

pub mod drb;
pub mod hpc;
pub mod ompscr;
pub mod tasking;

use sword_ompsim::OmpSim;

pub use drb::Kernel;

/// Which suite a workload belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// DataRaceBench-like microbenchmarks.
    DataRaceBench,
    /// OmpSCR-like kernels.
    OmpScr,
    /// HPC mini-app analogs.
    Hpc,
}

/// Static description of a workload and its ground truth.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Benchmark name (kept from the original suite where applicable).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Races documented by the original benchmark's authors.
    pub documented_races: usize,
    /// Distinct racy source-line pairs SWORD is expected to report on the
    /// executed input (documented + undocumented-but-real; 0 for race-free
    /// kernels and for races the executed input does not manifest).
    pub sword_races: usize,
    /// Exact ARCHER count under the workload's pinned schedule, when the
    /// paper's comparison fixes one (`None` = only `archer ≤ sword` is
    /// guaranteed).
    pub archer_races: Option<usize>,
    /// One-line story of the kernel and its race.
    pub notes: &'static str,
}

/// Run-time parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Team size for top-level parallel regions.
    pub threads: usize,
    /// Problem-size knob; each workload documents its interpretation.
    pub size: u64,
}

impl RunConfig {
    /// A small default: 4 threads, suite-default sizes.
    pub fn small() -> Self {
        RunConfig { threads: 4, size: 0 }
    }

    /// Explicit threads with suite-default size.
    pub fn with_threads(threads: usize) -> Self {
        RunConfig { threads, size: 0 }
    }

    /// Resolves `size == 0` to a workload's default.
    pub fn size_or(&self, default: u64) -> u64 {
        if self.size == 0 {
            default
        } else {
            self.size
        }
    }
}

/// A runnable benchmark.
pub trait Workload: Sync + Send {
    /// Ground truth and metadata.
    fn spec(&self) -> WorkloadSpec;

    /// Executes the kernel under `sim` (the caller attaches the detector
    /// of interest — or none, for baseline timing).
    fn execute(&self, sim: &OmpSim, cfg: &RunConfig);

    /// `false` when the workload's input size is fixed, so a caller-given
    /// [`RunConfig::size`] would be silently ignored; front ends reject
    /// a size for such workloads.
    fn takes_size(&self) -> bool {
        true
    }
}

/// All DataRaceBench-like workloads, in suite order.
pub fn drb_workloads() -> Vec<Box<dyn Workload>> {
    drb::all()
}

/// All OmpSCR-like workloads, in suite order.
pub fn ompscr_workloads() -> Vec<Box<dyn Workload>> {
    ompscr::all()
}

/// All HPC mini-app workloads, in suite order (AMG variants excluded —
/// see [`hpc::amg_workload`] for the size-parameterized version).
pub fn hpc_workloads() -> Vec<Box<dyn Workload>> {
    hpc::all()
}

/// The tasking/scheduling kernels, in suite order.
pub fn tasking_workloads() -> Vec<Box<dyn Workload>> {
    tasking::all()
}

/// Every workload across all suites, in suite order (DRB, tasking,
/// OmpSCR, HPC).
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    let mut all = drb_workloads();
    all.extend(tasking_workloads());
    all.extend(ompscr_workloads());
    all.extend(hpc_workloads());
    all
}

/// Looks a workload up by name across all suites.
pub fn find_workload(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.spec().name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_consistent() {
        for w in all_workloads() {
            let spec = w.spec();
            assert!(!spec.name.is_empty());
            assert!(!spec.notes.is_empty(), "{} needs a story", spec.name);
            if let Some(archer) = spec.archer_races {
                assert!(archer <= spec.sword_races, "{}: archer may never exceed sword", spec.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for w in all_workloads() {
            assert!(names.insert(w.spec().name), "duplicate {}", w.spec().name);
        }
    }

    #[test]
    fn find_by_name() {
        assert!(find_workload("plusplus-orig-yes").is_some());
        assert!(find_workload("taskdependmissing-orig-yes").is_some());
        assert!(find_workload("no-such-bench").is_none());
    }
}
