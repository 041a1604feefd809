//! The run+analyze benchmark.
//!
//! One workload per invocation: each timed iteration runs the kernel
//! untooled, collects it with `run_collected`, analyzes the session with
//! `analyze` at two workers, and checks the verdict against a pinned race
//! set. `--trace 0` reports the end-to-end figures; `--trace 1` runs the
//! traced pass of `layers` and reports per-layer figures. The last line
//! of standard output is one JSON object with the results.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload strided --seed 1 --seconds 40 --trace 0
//! ```

mod e2e;
mod layers;
mod stats;
mod workloads;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sword_obs::json::Value;
use sword_trace::SessionDir;

use crate::e2e::nanos;
use crate::layers::{Layer, TracedSample, Tracer};
use crate::stats::{median_signed, percentile, ratio, tail_percentile};
use crate::workloads::{judge, race_keys, read_pcs, Spec, Tally};

/// Where sessions and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <strided|irregular|task_fan> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Spec::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => {
                    seconds = number()?;
                    if !(1..=600).contains(&seconds) {
                        return Err(format!("--seconds must be 1..=600, got {seconds}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// Samples of one reported metric, one per iteration, in integer units;
/// the reported value is their median divided by `div`.
struct Series {
    name: &'static str,
    unit: &'static str,
    div: f64,
    samples: Vec<i64>,
}

impl Series {
    fn new(name: &'static str, unit: &'static str, div: f64) -> Series {
        Series { name, unit, div, samples: Vec::new() }
    }

    fn push(&mut self, v: u64) {
        self.samples.push(i64::try_from(v).unwrap_or(i64::MAX));
    }

    fn value(&self) -> Option<f64> {
        median_signed(&mut self.samples.clone()).map(|m| m as f64 / self.div)
    }

    /// One human-readable line: median, the tail percentile when there
    /// are enough samples for one, and the sample count.
    fn line(&self) -> String {
        let Some(v) = self.value() else { return format!("{:<28} (no samples)", self.name) };
        let mut text = format!(
            "{:<28} {:>16.6} {:<6} median of {}",
            self.name,
            v,
            self.unit,
            self.samples.len()
        );
        if let Some(p) = tail_percentile(self.samples.len()) {
            let mut u: Vec<u64> = self.samples.iter().map(|&s| s.max(0) as u64).collect();
            if let Some(q) = percentile(&mut u, p) {
                let _ = std::fmt::Write::write_fmt(
                    &mut text,
                    format_args!(", p{p} {:.6}", q as f64 / self.div),
                );
            }
        }
        text
    }
}

fn or_zero(v: Option<u64>) -> u64 {
    v.unwrap_or(0)
}

/// Session directories of one run, each used once. Deleting a session
/// just before the next collection creates its files makes those creates
/// wait on the file system's journal, which on a shared disk costs a
/// varying multiple of the collection itself (`task_fan` writes ~1500
/// files per session); so sessions are only removed when the run ends,
/// and the removal is committed before the process exits.
struct Sessions {
    root: PathBuf,
    used: u64,
}

impl Sessions {
    fn next(&mut self) -> PathBuf {
        self.used += 1;
        self.root.join(self.used.to_string())
    }
}

/// Checks the verdict of an untraced iteration and that the collector's
/// compressed bytes are the bytes on disk; records the operation.
fn judge_sample(tally: &mut Tally, spec: &Spec, dir: &Path, s: &e2e::Sample) -> io::Result<()> {
    let found = race_keys(&s.result.races, &read_pcs(&SessionDir::new(dir))?);
    let verdict = judge(spec, &found, "analyze");
    let mismatch = u64::from(s.stats.compressed_bytes != s.log_bytes);
    if mismatch > 0 {
        eprintln!(
            "{}: collector compressed bytes {} != on-disk log bytes {}",
            spec.name, s.stats.compressed_bytes, s.log_bytes
        );
    }
    tally.record(verdict, mismatch);
    Ok(())
}

/// Runs one untraced iteration and records it; `None` when it failed
/// before producing a sample.
fn untraced(
    tally: &mut Tally,
    spec: &Spec,
    kernel: &dyn sword_workloads::Workload,
    sessions: &mut Sessions,
) -> Option<e2e::Sample> {
    let dir = sessions.next();
    match e2e::iteration(kernel, spec, &dir)
        .and_then(|s| judge_sample(tally, spec, &dir, &s).map(|()| s))
    {
        Ok(s) => Some(s),
        Err(e) => {
            tally.record_error(spec, &e);
            None
        }
    }
}

fn end_to_end(args: &Args, sessions: &mut Sessions, tally: &mut Tally) -> Vec<Series> {
    let spec = &args.workload;
    let mut setup = Series::new("setup_s", "s", 1e9);
    let mut kernel = None;
    for _ in 0..SETUPS {
        // A set-up is everything before the first timed iteration: the
        // kernel is built and one cold iteration runs from an empty
        // session directory.
        let dir = sessions.next();
        let t = Instant::now();
        let k = spec.kernel();
        let s = e2e::iteration(k.as_ref(), spec, &dir);
        setup.push(nanos(t));
        match s.and_then(|s| judge_sample(tally, spec, &dir, &s)) {
            Ok(()) => {}
            Err(e) => tally.record_error(spec, &e),
        }
        kernel = Some(k);
    }
    let kernel = kernel.expect("SETUPS > 0");

    let mut collect = Series::new("collect_s", "s", 1e9);
    let mut analyze = Series::new("analyze_s", "s", 1e9);
    let mut run_analyze = Series::new("run_analyze_s", "s", 1e9);
    let mut slowdown = Series::new("slowdown", "x", 1e6);
    let mut log_bytes = Series::new("log_bytes", "B", 1.0);
    let mut tool_mem = Series::new("tool_mem_bytes", "B", 1.0);
    let mut analyze_mem = Series::new("analyze_mem_bytes", "B", 1.0);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tries = 0;
    while start.elapsed() < budget || (collect.samples.is_empty() && tries < 3) {
        tries += 1;
        let Some(s) = untraced(tally, spec, kernel.as_ref(), sessions) else { continue };
        collect.push(s.collect_ns);
        analyze.push(s.analyze_ns);
        run_analyze.push(s.collect_ns + s.analyze_ns);
        slowdown.push(or_zero(ratio(s.collect_ns, s.untooled_ns)));
        log_bytes.push(s.log_bytes);
        tool_mem.push(s.stats.tool_memory_bytes);
        analyze_mem.push(s.analyze_mem_bytes);
    }
    vec![collect, analyze, run_analyze, slowdown, log_bytes, tool_mem, analyze_mem, setup]
}

/// Per-layer figures of one traced iteration, in the order reported.
fn layer_samples(tr: &Tracer, t: &TracedSample) -> Vec<(&'static str, &'static str, f64, i64)> {
    let tot = tr.totals(t.iteration);
    let at = |l: Layer| tot[l.index()];
    let c = &t.counts;
    let s = |ns: u64| ns as i64;
    let r = |a: u64, b: u64| or_zero(ratio(a, b)) as i64;
    let attributed: u64 =
        [Layer::Structure, Layer::Map, Layer::TreeBuild, Layer::Compare, Layer::Solve]
            .iter()
            .map(|&l| at(l).self_ns)
            .sum();
    vec![
        ("app.untooled_s", "s", 1e9, s(at(Layer::App).total_ns)),
        ("collect.events", "count", 1.0, s(c.collect_events)),
        ("collect.ns_per_event", "ns", 1e6, r(at(Layer::Collect).total_ns, c.collect_events)),
        ("collect.flushes", "count", 1.0, s(c.collect_flushes)),
        ("collect.stall_ms", "ms", 1e6, s(c.collect_stall_ns)),
        ("encode.ns_per_event", "ns", 1e6, r(at(Layer::Encode).self_ns, c.decoded_events)),
        ("compress.mb_per_s", "MB/s", 1e3, r(c.decompressed_bytes, at(Layer::Compress).self_ns)),
        ("compress.ratio", "x", 1e6, r(c.decompressed_bytes, c.recompressed_bytes)),
        (
            "decompress.mb_per_s",
            "MB/s",
            1e3,
            r(c.decompressed_bytes, at(Layer::Decompress).self_ns),
        ),
        ("decode.ns_per_event", "ns", 1e6, r(at(Layer::Decode).self_ns, c.decoded_events)),
        ("decode.events", "count", 1.0, s(c.decoded_events)),
        ("log.self_s", "s", 1e9, s(at(Layer::Log).self_ns)),
        ("load.s", "s", 1e9, s(at(Layer::Load).self_ns)),
        ("load.intervals", "count", 1.0, s(c.intervals)),
        ("structure.s", "s", 1e9, s(at(Layer::Structure).self_ns)),
        ("structure.groups", "count", 1.0, s(c.groups)),
        ("tree_build.map_s", "s", 1e9, s(at(Layer::Map).self_ns)),
        ("tree_build.s", "s", 1e9, s(at(Layer::TreeBuild).self_ns)),
        ("tree_build.ns_per_event", "ns", 1e6, r(at(Layer::TreeBuild).self_ns, c.tree_events)),
        ("tree_build.nodes", "count", 1.0, s(c.tree_nodes)),
        ("tree_build.events_per_node", "events/node", 1e6, r(c.tree_events, c.tree_nodes)),
        ("compare.s", "s", 1e9, s(at(Layer::Compare).self_ns)),
        ("compare.tree_pairs", "count", 1.0, s(c.tree_pairs)),
        ("compare.candidate_pairs", "count", 1.0, s(c.candidate_pairs)),
        ("solve.s", "s", 1e9, s(at(Layer::Solve).self_ns)),
        ("solve.calls", "count", 1.0, s(c.solve_calls)),
        ("solve.ns_per_call", "ns", 1e6, r(at(Layer::Solve).self_ns, c.solve_calls)),
        (
            "analyze.unattributed_s",
            "s",
            1e9,
            s(at(Layer::AnalyzeOneWorker).total_ns) - s(attributed),
        ),
        ("obs.collect_s", "s", 1e9, s(at(Layer::ObsCollect).total_ns)),
        ("obs.analyze_s", "s", 1e9, s(at(Layer::ObsAnalyze).total_ns)),
        ("check.raw_bytes", "B", 1.0, s(c.raw_bytes)),
        ("check.decompressed_bytes", "B", 1.0, s(c.decompressed_bytes)),
        ("check.reencoded_bytes", "B", 1.0, s(c.reencoded_bytes)),
        ("check.compressed_bytes", "B", 1.0, s(c.compressed_bytes)),
        ("check.disk_log_bytes", "B", 1.0, s(c.disk_log_bytes)),
    ]
}

fn traced(args: &Args, sessions: &mut Sessions, tally: &mut Tally, spans: &Path) -> Vec<Series> {
    let spec = &args.workload;
    let kernel = spec.kernel();
    // Warm-up, untimed.
    let _ = untraced(tally, spec, kernel.as_ref(), sessions);

    let mut tr = Tracer::new();
    let mut plain = Series::new("trace.untraced_run_analyze_s", "s", 1e9);
    let mut with_spans = Series::new("trace.traced_run_analyze_s", "s", 1e9);
    let mut per_layer: Vec<Series> = Vec::new();
    let mut last = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tries = 0;
    while start.elapsed() < budget || (with_spans.samples.is_empty() && tries < 3) {
        tries += 1;
        // Untraced and traced iterations alternate, so the difference of
        // their run+analyze medians is the tracing overhead.
        if let Some(s) = untraced(tally, spec, kernel.as_ref(), sessions) {
            plain.push(s.collect_ns + s.analyze_ns);
        }
        let t = match layers::traced_iteration(
            &mut tr,
            kernel.as_ref(),
            spec,
            &sessions.next(),
            &sessions.next(),
        ) {
            Ok(t) => t,
            Err(e) => {
                tally.record_error(spec, &e);
                continue;
            }
        };
        let broken: Vec<_> = t.counts.checks().into_iter().filter(|k| k.left != k.right).collect();
        for k in &broken {
            eprintln!(
                "{}: conservation check failed: {}: {} != {}",
                spec.name, k.law, k.left, k.right
            );
        }
        tally.record(t.verdict_errors, broken.len() as u64);
        with_spans.push(t.run_analyze_ns);
        for (i, (name, unit, div, v)) in layer_samples(&tr, &t).into_iter().enumerate() {
            if per_layer.len() <= i {
                per_layer.push(Series::new(name, unit, div));
            }
            per_layer[i].samples.push(v);
        }
        last = Some(t);
    }

    if let Some(t) = &last {
        println!("self time by layer, traced iteration {}:", t.iteration);
        println!(
            "{:<12} {:>8} {:>12} {:>12} {:>14}",
            "layer", "calls", "total_s", "self_s", "count"
        );
        for (l, tot) in Layer::ALL.iter().zip(tr.totals(t.iteration)) {
            println!(
                "{:<12} {:>8} {:>12.6} {:>12.6} {:>14}",
                l.name(),
                tot.calls,
                tot.total_ns as f64 / 1e9,
                tot.self_ns as f64 / 1e9,
                tot.count
            );
        }
        for k in t.counts.checks() {
            let verdict = if k.left == k.right { "equal" } else { "MISMATCH" };
            println!("check {:<48} {} {} {verdict}", k.law, k.left, k.right);
        }
    }
    if let Err(e) = tr.write_tsv(spans) {
        eprintln!("{}: writing {}: {e}", spec.name, spans.display());
    }

    let mut overhead = Series::new("trace.overhead_s", "s", 1e9);
    if let (Some(a), Some(b)) =
        (median_signed(&mut with_spans.samples.clone()), median_signed(&mut plain.samples.clone()))
    {
        overhead.samples.push(a - b);
    }
    per_layer.push(with_spans);
    per_layer.push(plain);
    per_layer.push(overhead);
    per_layer
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when no metric could be measured.
fn run(args: &Args) -> io::Result<bool> {
    let out = PathBuf::from(OUT_DIR);
    fs::create_dir_all(&out)?;
    let spec = &args.workload;
    let mut sessions =
        Sessions { root: out.join(format!("sessions-{}", std::process::id())), used: 0 };
    let spans = out.join(format!("spans-{}.tsv", spec.name));
    println!(
        "workload {} = {} size {} on {} threads, {} analysis workers; seed {} (the kernels are fixed, so it does not change them)",
        spec.name,
        spec.kernel,
        spec.size,
        workloads::THREADS,
        workloads::WORKERS,
        args.seed
    );
    let mut tally = Tally::default();
    let series = if args.trace {
        traced(args, &mut sessions, &mut tally, &spans)
    } else {
        end_to_end(args, &mut sessions, &mut tally)
    };
    if sessions.root.exists() {
        fs::remove_dir_all(&sessions.root)?;
        // Commit the removal before exiting, so its cost lands here and
        // not in the next run's first collections.
        fs::File::open(&out)?.sync_all()?;
    }

    for s in &series {
        println!("{}", s.line());
    }
    println!("{:<28} {:>16} {:<6}", "verdict_errors", tally.verdict_errors, "count");
    println!("{:<28} {:>16} {:<6}", "check_mismatches", tally.check_mismatches, "count");

    let mut metrics = Vec::new();
    for s in &series {
        let Some(v) = s.value() else {
            eprintln!("perfbench: {} has no samples", s.name);
            return Ok(false);
        };
        let m = Value::Obj(vec![("value".into(), v.into()), ("unit".into(), s.unit.into())]);
        metrics.push((s.name.to_string(), m));
    }
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), tally.attempted.into()),
        ("failed".into(), tally.failed.into()),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            parse(&["--workload", "task_fan", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!(a, Args { workload: WORKLOADS[2], seed: 7, seconds: 12, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "amg"]).is_err());
        assert!(parse(&["--workload", "strided", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "strided", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "strided", "--seed"]).is_err());
        assert!(parse(&["--workload", "strided", "--bogus", "1"]).is_err());
    }

    #[test]
    fn series_reports_median_over_div() {
        let mut s = Series::new("x", "s", 1e9);
        for v in [3_000_000_000u64, 1_000_000_000, 2_000_000_000] {
            s.push(v);
        }
        assert_eq!(s.value(), Some(2.0));
        assert_eq!(Series::new("y", "s", 1.0).value(), None);
    }
}
