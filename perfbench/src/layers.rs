//! The traced run: the same work as an untraced iteration, plus a pass
//! that calls each layer's public functions one by one, with a span
//! around every call.
//!
//! Spans live in memory ([`Tracer`]) and are written out when the
//! benchmark ends. Nothing inside the library is instrumented: each span
//! wraps a call from this file into a layer, so a layer's self time is
//! its span's duration minus the time of the spans it opened.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use sword_compress::{encode_frame_into, Compressor, FrameReader};
use sword_itree::for_each_candidate_pair_fp;
use sword_obs::Obs;
use sword_offline::build::{build_tree, BiTree, DEFAULT_CHUNK_BYTES};
use sword_offline::intervals::{
    build_structure_with, dep_ordered, intervals_concurrent, Interval, Task,
};
use sword_offline::{analyze_loaded, AnalysisConfig, LoadedSession, VerdictCache};
use sword_solver::{solve_tiered, StridedInterval};
use sword_trace::{Event, EventDecoder, EventEncoder, MappedLog, SessionDir, SourceStats};
use sword_workloads::Workload;

use crate::e2e::{self, nanos};
use crate::workloads::{judge, race_keys, read_pcs, Spec};

/// The layers a span can stand for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One traced iteration (the root of every other span).
    Iteration,
    /// The untooled application run.
    App,
    /// `run_collected`.
    Collect,
    /// `analyze` at the benchmark's worker count.
    Analyze,
    /// One thread's log, read back frame by frame.
    Log,
    Decompress,
    Compress,
    Decode,
    Encode,
    Load,
    Structure,
    /// Opening one thread's log as a `MappedLog`.
    Map,
    TreeBuild,
    Compare,
    Solve,
    /// `analyze_loaded` at one worker: the sum the layers above should
    /// account for.
    AnalyzeOneWorker,
    ObsCollect,
    ObsAnalyze,
}

impl Layer {
    pub const ALL: [Layer; 18] = [
        Layer::Iteration,
        Layer::App,
        Layer::Collect,
        Layer::Analyze,
        Layer::Log,
        Layer::Decompress,
        Layer::Compress,
        Layer::Decode,
        Layer::Encode,
        Layer::Load,
        Layer::Structure,
        Layer::Map,
        Layer::TreeBuild,
        Layer::Compare,
        Layer::Solve,
        Layer::AnalyzeOneWorker,
        Layer::ObsCollect,
        Layer::ObsAnalyze,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Iteration => "iteration",
            Layer::App => "app",
            Layer::Collect => "collect",
            Layer::Analyze => "analyze",
            Layer::Log => "log",
            Layer::Decompress => "decompress",
            Layer::Compress => "compress",
            Layer::Decode => "decode",
            Layer::Encode => "encode",
            Layer::Load => "load",
            Layer::Structure => "structure",
            Layer::Map => "map",
            Layer::TreeBuild => "tree_build",
            Layer::Compare => "compare",
            Layer::Solve => "solve",
            Layer::AnalyzeOneWorker => "analyze_1w",
            Layer::ObsCollect => "obs.collect",
            Layer::ObsAnalyze => "obs.analyze",
        }
    }

    /// Position in [`Layer::ALL`] and in [`Tracer::totals`].
    pub fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("every layer is in ALL")
    }
}

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: Option<SpanId>,
    iteration: u32,
    start_ns: u64,
    end_ns: u64,
    /// Work counted at the span's end boundary (events, bytes, pairs...).
    count: u64,
}

/// Per-layer sums over one iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    iteration: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), iteration: 0 }
    }

    fn now_ns(&self) -> u64 {
        nanos(self.epoch)
    }

    /// Opens a span of `layer` under `parent`.
    pub fn begin(&mut self, layer: Layer, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            iteration: self.iteration,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    /// Closes `id`, recording `count` units of work.
    pub fn end(&mut self, id: SpanId, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Starts the next iteration; returns its id.
    pub fn next_iteration(&mut self) -> u32 {
        self.iteration += 1;
        self.iteration
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0 as usize];
        s.end_ns - s.start_ns
    }

    /// Per-layer calls, total time, self time and counts of `iteration`.
    /// A span's self time is its duration minus its children's.
    pub fn totals(&self, iteration: u32) -> [Totals; Layer::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [Totals::default(); Layer::ALL.len()];
        for (s, children) in self.spans.iter().zip(&child_ns) {
            if s.iteration != iteration {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let t = &mut out[s.layer.index()];
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*children);
            t.count += s.count;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("span\tparent\titeration\tlayer\tstart_ns\tend_ns\tcount\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.0.to_string());
            let _ = writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.iteration,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.count
            );
        }
        fs::write(path, text)
    }
}

/// Counts the traced pass reads off the layers, for the conservation
/// checks and the per-layer ratios.
#[derive(Debug, Default)]
pub struct PassCounts {
    pub collect_events: u64,
    pub collect_flushes: u64,
    pub collect_stall_ns: u64,
    pub raw_bytes: u64,
    pub compressed_bytes: u64,
    pub disk_log_bytes: u64,
    pub decompressed_bytes: u64,
    pub recompressed_bytes: u64,
    pub reencoded_bytes: u64,
    pub decoded_events: u64,
    pub tree_events: u64,
    pub tree_nodes: u64,
    pub intervals: u64,
    pub groups: u64,
    pub tree_pairs: u64,
    pub candidate_pairs: u64,
    pub solve_calls: u64,
    /// The same three counts as `analyze_loaded` reports them; its
    /// solver calls plus the pairs its pre-screen rejected must equal the
    /// pairs this pass solves.
    pub analysis_tree_pairs: u64,
    pub analysis_candidate_pairs: u64,
    pub analysis_solves: u64,
}

/// One conservation law between two layers' counts.
#[derive(Debug)]
pub struct Check {
    pub law: &'static str,
    pub left: u64,
    pub right: u64,
}

impl PassCounts {
    /// Every law the traced pass checks; each must hold with equality.
    pub fn checks(&self) -> Vec<Check> {
        vec![
            Check {
                law: "collect.events = decode.events",
                left: self.collect_events,
                right: self.decoded_events,
            },
            Check {
                law: "collector raw bytes = decompressed bytes",
                left: self.raw_bytes,
                right: self.decompressed_bytes,
            },
            Check {
                law: "collector compressed bytes = on-disk log bytes",
                left: self.compressed_bytes,
                right: self.disk_log_bytes,
            },
            Check {
                law: "re-encoded bytes = decompressed bytes",
                left: self.reencoded_bytes,
                right: self.decompressed_bytes,
            },
            Check {
                law: "compare.tree_pairs = analysis tree pairs",
                left: self.tree_pairs,
                right: self.analysis_tree_pairs,
            },
            Check {
                law: "compare.candidate_pairs = analysis candidates",
                left: self.candidate_pairs,
                right: self.analysis_candidate_pairs,
            },
            Check {
                law: "solve.calls = analysis solves + prescreened",
                left: self.solve_calls,
                right: self.analysis_solves,
            },
        ]
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads every thread log back frame by frame: decompress, re-compress,
/// decode (resetting the decoder at each interval start, as the writer
/// reset its encoder) and re-encode, each call in its own span.
fn log_pass(
    tr: &mut Tracer,
    root: SpanId,
    loaded: &LoadedSession,
    counts: &mut PassCounts,
) -> io::Result<()> {
    let mut compressor = Compressor::new();
    let (mut raw, mut frame, mut events, mut resets, mut reencoded) =
        (Vec::new(), Vec::new(), Vec::<Event>::new(), Vec::new(), Vec::new());
    for (tid, rows) in &loaded.threads {
        let span = tr.begin(Layer::Log, Some(root));
        let image = fs::read(loaded.dir.thread_log(*tid))?;
        let mut starts: Vec<u64> = rows.iter().map(|r| r.data_begin).collect();
        starts.sort_unstable();
        starts.dedup();
        let mut reader = FrameReader::new(&image[..]);
        let (mut decoder, mut encoder) = (EventDecoder::new(), EventEncoder::new());
        let (mut offset, mut next, mut frames) = (0u64, 0usize, 0u64);
        loop {
            raw.clear();
            let s = tr.begin(Layer::Decompress, Some(span));
            let got = reader.read_frame(&mut raw)?;
            tr.end(s, raw.len() as u64);
            if got.is_none() {
                break;
            }
            frames += 1;

            frame.clear();
            let s = tr.begin(Layer::Compress, Some(span));
            let n = encode_frame_into(&mut compressor, &raw, &mut frame);
            tr.end(s, n as u64);

            events.clear();
            resets.clear();
            let s = tr.begin(Layer::Decode, Some(span));
            let mut pos = 0usize;
            while pos < raw.len() {
                let at = offset + pos as u64;
                while next < starts.len() && starts[next] <= at {
                    if starts[next] < at {
                        return Err(invalid(format!(
                            "tid {tid}: interval starts inside an event at {}",
                            starts[next]
                        )));
                    }
                    decoder.reset();
                    resets.push(events.len());
                    next += 1;
                }
                let event = decoder
                    .decode(&raw, &mut pos)
                    .map_err(|e| invalid(format!("tid {tid}: undecodable event at {at}: {e}")))?;
                events.push(event);
            }
            tr.end(s, events.len() as u64);

            reencoded.clear();
            let s = tr.begin(Layer::Encode, Some(span));
            let mut r = 0usize;
            for (i, event) in events.iter().enumerate() {
                if resets.get(r) == Some(&i) {
                    encoder.reset();
                    r += 1;
                }
                encoder.encode(event, &mut reencoded);
            }
            tr.end(s, events.len() as u64);

            if reencoded == raw {
                counts.reencoded_bytes += reencoded.len() as u64;
            }
            counts.decompressed_bytes += raw.len() as u64;
            counts.recompressed_bytes += n as u64;
            counts.decoded_events += events.len() as u64;
            offset += raw.len() as u64;
        }
        tr.end(span, frames);
    }
    Ok(())
}

/// The interval pairs the analysis compares for `task`: pairs of
/// non-empty members on different threads, concurrent by label and not
/// ordered by task dependences.
fn task_pairs<'s>(
    loaded: &LoadedSession,
    groups: &'s [sword_offline::intervals::Group],
    task: &Task,
    out: &mut Vec<(&'s Interval, &'s Interval)>,
) {
    out.clear();
    match *task {
        Task::Intra { group } => {
            let m: Vec<&Interval> =
                groups[group].members.iter().filter(|m| m.meta.size > 0).collect();
            for i in 0..m.len() {
                for j in i + 1..m.len() {
                    if m[i].tid != m[j].tid {
                        out.push((m[i], m[j]));
                    }
                }
            }
        }
        Task::Cross { a, b, all_concurrent } => {
            let sized = |g: usize| groups[g].members.iter().filter(|m| m.meta.size > 0);
            for ma in sized(a) {
                for mb in sized(b) {
                    if (all_concurrent || intervals_concurrent(ma, mb))
                        && ma.tid != mb.tid
                        && !dep_ordered(&loaded.regions, ma, mb)
                    {
                        out.push((ma, mb));
                    }
                }
            }
        }
    }
}

/// Builds every interval's tree, then walks every compared tree pair and
/// solves the candidates that can race.
fn analysis_pass(
    tr: &mut Tracer,
    root: SpanId,
    loaded: &LoadedSession,
    counts: &mut PassCounts,
) -> io::Result<()> {
    let s = tr.begin(Layer::Structure, Some(root));
    let structure = build_structure_with(loaded, &VerdictCache::new(true))?;
    counts.groups = structure.groups.len() as u64;
    tr.end(s, counts.groups);

    let mut trees: HashMap<(u32, u64), BiTree> = HashMap::new();
    for (tid, rows) in &loaded.threads {
        let s = tr.begin(Layer::Map, Some(root));
        let mut log = MappedLog::open(&loaded.dir.thread_log(*tid), SourceStats::new())?;
        tr.end(s, log.raw_len());
        for row in rows.iter().filter(|r| r.size > 0) {
            let s = tr.begin(Layer::TreeBuild, Some(root));
            let tree = build_tree(&mut log, *tid, row.data_begin, row.size, DEFAULT_CHUNK_BYTES)?;
            tr.end(s, tree.accesses);
            counts.tree_events += tree.accesses;
            counts.tree_nodes += tree.node_count() as u64;
            trees.insert((*tid, row.data_begin), tree);
        }
    }

    let mut pairs = Vec::new();
    let mut survivors: Vec<(StridedInterval, StridedInterval)> = Vec::new();
    for task in &structure.tasks {
        task_pairs(loaded, &structure.groups, task, &mut pairs);
        for (ma, mb) in &pairs {
            let (Some(ta), Some(tb)) = (
                trees.get(&(ma.tid, ma.meta.data_begin)),
                trees.get(&(mb.tid, mb.meta.data_begin)),
            ) else {
                return Err(invalid(format!("no tree for tid {} or {}", ma.tid, mb.tid)));
            };
            if ta.node_count() == 0 || tb.node_count() == 0 {
                continue;
            }
            let s = tr.begin(Layer::Compare, Some(root));
            survivors.clear();
            let mut candidates = 0u64;
            for_each_candidate_pair_fp(&ta.tree, &tb.tree, |ia, _, va, ib, _, vb| {
                candidates += 1;
                if ta.can_race(va, tb, vb) {
                    survivors.push((*ia, *ib));
                }
            });
            let v = tr.begin(Layer::Solve, Some(s));
            let mut overlaps = 0u64;
            for (ia, ib) in &survivors {
                overlaps += u64::from(solve_tiered(ia, ib, true).0.is_some());
            }
            std::hint::black_box(overlaps);
            tr.end(v, survivors.len() as u64);
            tr.end(s, candidates);
            counts.tree_pairs += 1;
            counts.candidate_pairs += candidates;
            counts.solve_calls += survivors.len() as u64;
        }
    }
    Ok(())
}

/// What one traced iteration produced.
pub struct TracedSample {
    pub iteration: u32,
    pub counts: PassCounts,
    /// Span time of the `collect` and `analyze` calls: the traced
    /// counterpart of the untraced `run_analyze_s`.
    pub run_analyze_ns: u64,
    /// Verdict mismatches among the iteration's three analyses.
    pub verdict_errors: u64,
}

/// Verdict errors of one analysis run (0 or 1).
fn verdict_error(
    spec: &Spec,
    dir: &SessionDir,
    races: &[sword_offline::Race],
    what: &str,
) -> io::Result<u64> {
    Ok(judge(spec, &race_keys(races, &read_pcs(dir)?), what))
}

/// One traced iteration: `dir` holds the session every layer reads back,
/// `obs_dir` the one collected with an `Obs` attached.
pub fn traced_iteration(
    tr: &mut Tracer,
    kernel: &dyn Workload,
    spec: &Spec,
    dir: &Path,
    obs_dir: &Path,
) -> io::Result<TracedSample> {
    let iteration = tr.next_iteration();
    let session = SessionDir::new(dir);
    let root = tr.begin(Layer::Iteration, None);
    let mut counts = PassCounts::default();
    let mut verdict_errors = 0;

    let s = tr.begin(Layer::App, Some(root));
    e2e::untooled(kernel, spec);
    tr.end(s, 0);

    let s = tr.begin(Layer::Collect, Some(root));
    let (_, stats) = e2e::collect(kernel, spec, dir, None)?;
    tr.end(s, stats.events);
    let mut run_analyze_ns = tr.duration_ns(s);
    counts.collect_events = stats.events;
    counts.collect_flushes = stats.flushes;
    counts.collect_stall_ns = stats.flush.stall_nanos;
    counts.raw_bytes = stats.raw_bytes;
    counts.compressed_bytes = stats.compressed_bytes;
    counts.disk_log_bytes = session.log_bytes()?;

    let s = tr.begin(Layer::Analyze, Some(root));
    let (_, result, _) = e2e::analyze_session(dir, e2e::analysis_config())?;
    tr.end(s, result.race_count() as u64);
    run_analyze_ns += tr.duration_ns(s);
    verdict_errors += verdict_error(spec, &session, &result.races, "analyze")?;

    let s = tr.begin(Layer::Load, Some(root));
    let loaded = LoadedSession::load(&session)?;
    counts.intervals = loaded.interval_count() as u64;
    tr.end(s, counts.intervals);

    log_pass(tr, root, &loaded, &mut counts)?;
    analysis_pass(tr, root, &loaded, &mut counts)?;

    let s = tr.begin(Layer::AnalyzeOneWorker, Some(root));
    let one = analyze_loaded(&loaded, &AnalysisConfig::default().with_workers(1))?;
    tr.end(s, one.race_count() as u64);
    counts.analysis_tree_pairs = one.stats.tree_pairs;
    counts.analysis_candidate_pairs = one.stats.candidate_pairs;
    counts.analysis_solves = one.stats.solver_calls + one.stats.prescreened_pairs;
    verdict_errors += verdict_error(spec, &session, &one.races, "analyze_loaded at 1 worker")?;

    let obs = Obs::new();
    let s = tr.begin(Layer::ObsCollect, Some(root));
    let (_, obs_stats) = e2e::collect(kernel, spec, obs_dir, Some(&obs))?;
    tr.end(s, obs_stats.events);
    let s = tr.begin(Layer::ObsAnalyze, Some(root));
    let (_, obs_result, _) = e2e::analyze_session(obs_dir, e2e::analysis_config().with_obs(obs))?;
    tr.end(s, obs_result.race_count() as u64);
    let obs_session = SessionDir::new(obs_dir);
    verdict_errors += verdict_error(spec, &obs_session, &obs_result.races, "analyze with obs")?;

    tr.end(root, 0);
    Ok(TracedSample { iteration, counts, run_analyze_ns, verdict_errors })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_other_iterations() {
        let mut tr = Tracer::new();
        let it = tr.next_iteration();
        let root = tr.begin(Layer::Iteration, None);
        let c = tr.begin(Layer::Compare, Some(root));
        let v = tr.begin(Layer::Solve, Some(c));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(v, 5);
        tr.end(c, 9);
        tr.end(root, 0);
        tr.next_iteration();
        let other = tr.begin(Layer::Compare, None);
        tr.end(other, 100);

        let t = tr.totals(it);
        let (root_t, cmp, solve) =
            (t[Layer::Iteration.index()], t[Layer::Compare.index()], t[Layer::Solve.index()]);
        assert_eq!((cmp.calls, cmp.count, solve.calls, solve.count), (1, 9, 1, 5));
        assert!(solve.total_ns >= 2_000_000);
        assert_eq!(solve.self_ns, solve.total_ns);
        assert_eq!(cmp.self_ns, cmp.total_ns - solve.total_ns);
        assert_eq!(root_t.self_ns, root_t.total_ns - cmp.total_ns);
    }

    #[test]
    fn checks_report_each_law() {
        let mut c = PassCounts {
            collect_events: 10,
            decoded_events: 10,
            raw_bytes: 30,
            decompressed_bytes: 30,
            reencoded_bytes: 30,
            compressed_bytes: 7,
            disk_log_bytes: 7,
            tree_pairs: 4,
            analysis_tree_pairs: 4,
            solve_calls: 5,
            analysis_solves: 5,
            ..PassCounts::default()
        };
        let broken = |c: &PassCounts| -> Vec<&'static str> {
            c.checks().into_iter().filter(|k| k.left != k.right).map(|k| k.law).collect()
        };
        assert!(broken(&c).is_empty());
        c.decoded_events = 9;
        c.analysis_solves = 6;
        assert_eq!(
            broken(&c),
            ["collect.events = decode.events", "solve.calls = analysis solves + prescreened"]
        );
    }
}
