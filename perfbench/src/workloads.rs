//! The three benchmark workloads and their pinned verdicts.
//!
//! Each workload is fixed by (kernel, size, threads). The expected race
//! set of each was taken once from the analysis of the unchanged code and
//! is written out here, so a verdict is checked against a list that the
//! run under test did not produce.

use std::fs::File;
use std::io::{self, BufReader};

use sword_offline::Race;
use sword_trace::{PcTable, SessionDir};
use sword_workloads::tasking::taskfan_workload;
use sword_workloads::{find_workload, RunConfig, Workload};

/// Application threads and analysis workers: both fit a 2-core host.
pub const THREADS: usize = 2;
pub const WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Name on the command line and in the results.
    pub name: &'static str,
    /// Kernel name in `sword-workloads`.
    pub kernel: &'static str,
    /// The kernel's size knob.
    pub size: u64,
    /// Races the analysis must report, as unordered pairs of source
    /// locations, each pair sorted and the list sorted.
    pub expected: &'static [(&'static str, &'static str)],
}

pub const WORKLOADS: [Spec; 3] = [
    // The per-event path: ~30 M highly compressible events, one race.
    Spec {
        name: "strided",
        kernel: "HPCCG",
        size: 56,
        expected: &[("hpc/hpccg.rs:108", "hpc/hpccg.rs:108")],
    },
    // Same layers as `strided`, but the stream barely compresses and the
    // trees stay large.
    Spec {
        name: "irregular",
        kernel: "cpp_qsomp1",
        size: 100_000,
        expected: &[
            ("ompscr.rs:383", "ompscr.rs:384"),
            ("ompscr.rs:384", "ompscr.rs:384"),
            ("ompscr.rs:51", "ompscr.rs:60"),
        ],
    },
    // The per-interval path: 768 tasks, many small intervals and groups.
    Spec {
        name: "task_fan",
        kernel: "taskfan-bench",
        size: 48,
        expected: &[("tasking.rs:261", "tasking.rs:262"), ("tasking.rs:262", "tasking.rs:262")],
    },
];

impl Spec {
    /// Looks a workload up by its benchmark name.
    pub fn find(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The kernel to execute.
    pub fn kernel(&self) -> Box<dyn Workload> {
        if self.kernel == "taskfan-bench" {
            taskfan_workload()
        } else {
            find_workload(self.kernel).expect("every pinned kernel exists in sword-workloads")
        }
    }

    /// The kernel's run parameters.
    pub fn run_config(&self) -> RunConfig {
        RunConfig { threads: THREADS, size: self.size }
    }
}

/// A source location with its path cut to what follows the crate's
/// `src/`: the compiler records where the sources were built from, and
/// the key must not depend on that.
fn source_key(location: String) -> String {
    match location.rfind("src/") {
        Some(i) => location[i + 4..].to_string(),
        None => location,
    }
}

/// The race keys of `races` as sorted source-location pairs.
pub fn race_keys(races: &[Race], pcs: &PcTable) -> Vec<(String, String)> {
    let mut keys: Vec<(String, String)> = races
        .iter()
        .map(|r| {
            let a = source_key(pcs.display(r.key.pc_lo));
            let b = source_key(pcs.display(r.key.pc_hi));
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    keys.sort();
    keys
}

/// Reads the session's source-location table.
pub fn read_pcs(dir: &SessionDir) -> io::Result<PcTable> {
    PcTable::read_from(BufReader::new(File::open(dir.pcs_path())?))
}

/// `Ok(())` when `found` is exactly `expected` (count and keys), else a
/// description of the difference.
pub fn check_verdict(found: &[(String, String)], expected: &[(&str, &str)]) -> Result<(), String> {
    let same = found.len() == expected.len()
        && found.iter().zip(expected).all(|((fa, fb), (ea, eb))| fa == ea && fb == eb);
    if same {
        Ok(())
    } else {
        Err(format!(
            "expected {} race(s) {expected:?}, found {} {found:?}",
            expected.len(),
            found.len()
        ))
    }
}

/// Verdict errors of one analysis (0 or 1): the mismatch, if any, is
/// reported on stderr.
pub fn judge(spec: &Spec, found: &[(String, String)], what: &str) -> u64 {
    match check_verdict(found, spec.expected) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("{}: {what}: verdict mismatch: {msg}", spec.name);
            1
        }
    }
}

/// Operations attempted and failed over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Verdict mismatches plus operations an I/O error cut short.
    pub verdict_errors: u64,
    /// Conservation laws that did not hold.
    pub check_mismatches: u64,
}

impl Tally {
    /// Records one operation with its verdict errors and conservation
    /// mismatches; any of either fails it.
    pub fn record(&mut self, verdict_errors: u64, check_mismatches: u64) {
        self.attempted += 1;
        self.verdict_errors += verdict_errors;
        self.check_mismatches += check_mismatches;
        if verdict_errors + check_mismatches > 0 {
            self.failed += 1;
        }
    }

    /// Records one operation an I/O error stopped: it has no verdict.
    pub fn record_error(&mut self, spec: &Spec, err: &io::Error) {
        eprintln!("{}: operation failed: {err}", spec.name);
        self.record(1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(keys: &[(&str, &str)]) -> Vec<(String, String)> {
        keys.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
    }

    #[test]
    fn source_keys_drop_the_build_path() {
        let key = |s: &str| source_key(s.to_string());
        assert_eq!(key("/a/b/crates/workloads/src/hpc/hpccg.rs:47"), "hpc/hpccg.rs:47");
        assert_eq!(key("crates/workloads/src/tasking.rs:261"), "tasking.rs:261");
        assert_eq!(key("drb.rs:3"), "drb.rs:3");
    }

    #[test]
    fn names_are_unique_and_found() {
        for spec in WORKLOADS {
            assert_eq!(Spec::find(spec.name).map(|s| s.kernel), Some(spec.kernel));
        }
        assert!(Spec::find("amg").is_none());
    }

    #[test]
    fn pinned_sets_are_sorted_pairs_with_expected_counts() {
        let counts: Vec<usize> = WORKLOADS.iter().map(|s| s.expected.len()).collect();
        assert_eq!(counts, [1, 3, 2]);
        for spec in WORKLOADS {
            assert!(spec.expected.iter().all(|(a, b)| a <= b), "{}", spec.name);
            assert!(spec.expected.windows(2).all(|w| w[0] < w[1]), "{}", spec.name);
        }
    }

    #[test]
    fn exact_set_passes() {
        for spec in WORKLOADS {
            assert_eq!(check_verdict(&owned(spec.expected), spec.expected), Ok(()));
        }
    }

    #[test]
    fn tampered_expected_set_is_a_failure() {
        let found = owned(WORKLOADS[1].expected);
        // A location changed.
        let mut moved = WORKLOADS[1].expected.to_vec();
        moved[0].1 = "ompscr.rs:385";
        assert!(check_verdict(&found, &moved).is_err());
        // A race missing from the pinned set.
        assert!(check_verdict(&found, &WORKLOADS[1].expected[..2]).is_err());
        // An extra race in the pinned set.
        let mut extra = WORKLOADS[1].expected.to_vec();
        extra.push(("ompscr.rs:400", "ompscr.rs:401"));
        assert!(check_verdict(&found, &extra).is_err());
        // Another workload's set.
        assert!(check_verdict(&found, WORKLOADS[2].expected).is_err());
    }

    #[test]
    fn tampered_set_is_counted_as_a_failed_operation() {
        let spec = WORKLOADS[2];
        let found = owned(spec.expected);
        let mut tally = Tally::default();
        tally.record(judge(&spec, &found, "pinned"), 0);
        assert_eq!(tally, Tally { attempted: 1, ..Tally::default() });

        let tampered = Spec { expected: &spec.expected[..1], ..spec };
        tally.record(judge(&tampered, &found, "tampered"), 0);
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.verdict_errors, 1);
    }

    #[test]
    fn io_errors_and_check_mismatches_fail_operations() {
        let mut tally = Tally::default();
        tally.record_error(&WORKLOADS[0], &io::Error::other("gone"));
        tally.record(0, 2);
        assert_eq!(
            tally,
            Tally { attempted: 2, failed: 2, verdict_errors: 1, check_mismatches: 2 }
        );
    }
}
