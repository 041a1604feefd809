//! One untraced iteration: the untooled run, the tooled run, and the
//! analysis, timed around the public entry points and nothing else.

use std::io;
use std::path::Path;
use std::time::Instant;

use sword_obs::Obs;
use sword_offline::{analyze, AnalysisConfig, AnalysisResult};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{run_collected, SwordConfig, SwordStats};
use sword_trace::SessionDir;
use sword_workloads::Workload;

use crate::workloads::{Spec, WORKERS};

/// What one iteration measured.
#[derive(Clone, Debug)]
pub struct Sample {
    pub untooled_ns: u64,
    pub collect_ns: u64,
    pub analyze_ns: u64,
    /// On-disk bytes of the session's log files.
    pub log_bytes: u64,
    /// Peak of the analyzer's tree-memory gauge.
    pub analyze_mem_bytes: u64,
    pub stats: SwordStats,
    pub result: AnalysisResult,
}

pub fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the kernel with no tool attached; returns the wall time.
pub fn untooled(kernel: &dyn Workload, spec: &Spec) -> u64 {
    let sim = OmpSim::new();
    let t = Instant::now();
    kernel.execute(&sim, &spec.run_config());
    let ns = nanos(t);
    drop(sim);
    ns
}

/// Collects the kernel into the session at `dir`; returns the wall time
/// and the collector's statistics.
pub fn collect(
    kernel: &dyn Workload,
    spec: &Spec,
    dir: &Path,
    obs: Option<&Obs>,
) -> io::Result<(u64, SwordStats)> {
    let mut config = SwordConfig::new(dir);
    if let Some(obs) = obs {
        config = config.with_obs(obs.clone());
    }
    let cfg = spec.run_config();
    let t = Instant::now();
    let (_, stats) = run_collected(config, SimConfig::default(), |sim| kernel.execute(sim, &cfg))?;
    Ok((nanos(t), stats))
}

/// The analysis configuration every end-to-end figure uses.
pub fn analysis_config() -> AnalysisConfig {
    AnalysisConfig::default().with_workers(WORKERS)
}

/// Analyzes the session at `dir`; returns the wall time, the result and
/// the tree-memory peak.
pub fn analyze_session(
    dir: &Path,
    config: AnalysisConfig,
) -> io::Result<(u64, AnalysisResult, u64)> {
    let t = Instant::now();
    let result = analyze(&SessionDir::new(dir), &config)?;
    Ok((nanos(t), result, config.mem_gauge.peak()))
}

/// One full untraced iteration.
pub fn iteration(kernel: &dyn Workload, spec: &Spec, dir: &Path) -> io::Result<Sample> {
    let untooled_ns = untooled(kernel, spec);
    let (collect_ns, stats) = collect(kernel, spec, dir, None)?;
    let log_bytes = SessionDir::new(dir).log_bytes()?;
    let (analyze_ns, result, analyze_mem_bytes) = analyze_session(dir, analysis_config())?;
    Ok(Sample { untooled_ns, collect_ns, analyze_ns, log_bytes, analyze_mem_bytes, stats, result })
}
