//! Cross-crate integration: the collected session is a faithful,
//! deterministic record of the execution, and the analyzer consumes
//! exactly what the collector produced.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

use sword::offline::{analyze, AnalysisConfig, LoadedSession};
use sword::ompsim::{OmpSim, SimConfig};
use sword::runtime::{run_collected, SwordConfig, SwordStats};
use sword::trace::{read_meta, Event, EventDecoder, LogReader, SessionDir};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-integ-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn collect_program(dir: &PathBuf) -> SwordStats {
    let (_, stats) = run_collected(SwordConfig::new(dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<f64>(300, 0.0);
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.for_static(0..300, |i| {
                    w.write(&a, i, i as f64);
                });
                w.critical("c", || {
                    let v = w.read(&c, 0);
                    w.write(&c, 0, v + 1);
                });
                w.barrier();
                w.for_static_nowait(0..300, |i| {
                    let _ = w.read(&a, i);
                });
            });
        });
    })
    .expect("collection");
    stats
}

#[test]
fn every_logged_event_is_decodable_and_counted() {
    let dir = tmp("decode-all");
    let stats = collect_program(&dir);
    let session = SessionDir::new(&dir);
    let mut decoded_total = 0u64;
    for tid in session.thread_ids().unwrap() {
        let rows =
            read_meta(BufReader::new(fs::File::open(session.thread_meta(tid)).unwrap())).unwrap();
        let mut reader = LogReader::new(fs::File::open(session.thread_log(tid)).unwrap());
        for row in &rows {
            let mut bytes = Vec::new();
            reader.read_range(row.data_begin, row.size, &mut bytes).unwrap();
            let events = EventDecoder::new().decode_all(&bytes).unwrap();
            decoded_total += events.len() as u64;
            // Mutex events must be balanced inside each interval.
            let mut depth = 0i64;
            for e in &events {
                match e {
                    Event::MutexAcquire(_) => depth += 1,
                    Event::MutexRelease(_) => depth -= 1,
                    Event::Access(_) => {}
                }
                assert!(depth >= 0, "release before acquire in interval");
            }
            assert_eq!(depth, 0, "unbalanced mutex events in an interval");
        }
    }
    assert_eq!(decoded_total, stats.events, "collector and logs agree on event count");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn collection_is_deterministic_per_thread() {
    // The same pinned program collected twice produces byte-identical
    // per-thread logs and metadata (modulo nothing: static scheduling and
    // virtual addresses are deterministic).
    let d1 = tmp("det-1");
    let d2 = tmp("det-2");
    collect_program(&d1);
    collect_program(&d2);
    let s1 = SessionDir::new(&d1);
    let s2 = SessionDir::new(&d2);
    assert_eq!(s1.thread_ids().unwrap(), s2.thread_ids().unwrap());
    for tid in s1.thread_ids().unwrap() {
        let meta1 = fs::read(s1.thread_meta(tid)).unwrap();
        let meta2 = fs::read(s2.thread_meta(tid)).unwrap();
        assert_eq!(meta1, meta2, "meta files differ for tid {tid}");
        let log1 = fs::read(s1.thread_log(tid)).unwrap();
        let log2 = fs::read(s2.thread_log(tid)).unwrap();
        assert_eq!(log1, log2, "log files differ for tid {tid}");
    }
    fs::remove_dir_all(&d1).unwrap();
    fs::remove_dir_all(&d2).unwrap();
}

#[test]
fn analysis_is_idempotent_and_stream_insensitive() {
    let dir = tmp("idem");
    collect_program(&dir);
    let session = SessionDir::new(&dir);
    let r1 = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    let r2 = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    let r3 = analyze(&session, &AnalysisConfig::sequential().with_chunk_bytes(11)).unwrap();
    let keys =
        |r: &sword::offline::AnalysisResult| -> Vec<_> { r.races.iter().map(|x| x.key).collect() };
    assert_eq!(keys(&r1), keys(&r2));
    assert_eq!(keys(&r1), keys(&r3));
    assert_eq!(r1.stats.events, r3.stats.events);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn offline_label_reconstruction_matches_runtime_labels() {
    // A tool records every worker's live label; the analyzer's
    // fork-label · [offset, span] reconstruction must reproduce them
    // exactly, barrier bumps included.
    use std::sync::{Arc, Mutex};
    use sword::ompsim::{ThreadContext, Tool};
    use sword::osl::Label;

    #[derive(Default)]
    struct LabelSpy {
        labels: Mutex<Vec<(u32, u64, u32, Label)>>, // (tid, region, bid, label)
    }
    impl Tool for LabelSpy {
        fn thread_begin(&self, ctx: &ThreadContext<'_>) {
            self.labels.lock().unwrap().push((ctx.tid, ctx.region, ctx.bid, ctx.label.clone()));
        }
        fn barrier_end(&self, ctx: &ThreadContext<'_>) {
            self.labels.lock().unwrap().push((ctx.tid, ctx.region, ctx.bid, ctx.label.clone()));
        }
    }

    // Run the SAME deterministic program twice: once spied, once
    // collected. Static scheduling makes the structures identical.
    let program = |sim: &OmpSim| {
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.write(&a, w.team_index(), 1);
                w.barrier();
                w.parallel(2, |inner| {
                    inner.write(&a, 8 + inner.team_index(), 1);
                });
                w.barrier();
                w.write(&a, 16 + w.team_index(), 1);
            });
        });
    };

    let spy = Arc::new(LabelSpy::default());
    let sim = OmpSim::with_tool(spy.clone());
    program(&sim);

    let dir = tmp("labels");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| program(sim)).unwrap();
    let loaded = LoadedSession::load(&SessionDir::new(&dir)).unwrap();

    // Region ids of concurrent sibling regions may be assigned in either
    // order across runs; the (bid, label) pair is the schedule-invariant
    // identity of a barrier interval.
    let mut live: Vec<(u32, String)> = spy
        .labels
        .lock()
        .unwrap()
        .iter()
        .map(|(_, _, bid, label)| (*bid, format!("{label}")))
        .collect();
    live.sort();
    live.dedup();

    let mut reconstructed: Vec<(u32, String)> = Vec::new();
    for (_, rows) in &loaded.threads {
        for row in rows {
            let label = sword::offline::intervals::full_label(&loaded, row).unwrap();
            reconstructed.push((row.bid, format!("{label}")));
        }
    }
    reconstructed.sort();
    reconstructed.dedup();

    assert_eq!(live, reconstructed, "offline labels must equal runtime labels");
    fs::remove_dir_all(&dir).unwrap();
}

// --- The build board: idle workers build trees for running tasks. ---

/// Collects a named workload at 2 threads into a fresh session.
fn collect_workload(tag: &str, name: &str, size: u64) -> PathBuf {
    use sword::workloads::{find_workload, RunConfig};
    let dir = tmp(tag);
    let kernel = find_workload(name).expect("workload exists");
    let cfg = RunConfig { threads: 2, size };
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| kernel.execute(sim, &cfg))
        .expect("collection");
    dir
}

/// Everything an analysis reports that must not depend on the worker
/// count: the races with their full `explain` evidence, the logical
/// counters, and the tree-memory peak.
fn worker_invariant_view(dir: &PathBuf, workers: usize) -> (Vec<String>, [u64; 7], u64) {
    use sword::offline::render_explain;
    use sword::trace::PcTable;
    let session = SessionDir::new(dir);
    let config = AnalysisConfig::default().with_workers(workers);
    let result = analyze(&session, &config).expect("analysis succeeds");
    let pcs =
        PcTable::read_from(BufReader::new(fs::File::open(session.pcs_path()).unwrap())).unwrap();
    let explained = (0..result.races.len())
        .map(|id| render_explain(&result, &pcs, id).expect("race id in range"))
        .collect();
    let s = &result.stats;
    let counters = [
        s.trees_built,
        s.nodes,
        s.events,
        s.tree_pairs,
        s.candidate_pairs,
        s.solver_calls + s.prescreened_pairs,
        s.races,
    ];
    (explained, counters, config.mem_gauge.peak())
}

#[test]
fn worker_count_never_changes_results_with_the_build_board() {
    // One task holding both large trees (the second is built by an idle
    // worker), and a session of many small tasks.
    for (tag, name, size) in [("board-one", "cpp_qsomp1", 10_000), ("board-many", "HPCCG", 10)] {
        let dir = collect_workload(tag, name, size);
        let (explained, counters, peak) = worker_invariant_view(&dir, 1);
        assert!(!explained.is_empty(), "{name}: the workload races");
        for workers in [2, 4, 8] {
            let (e, c, p) = worker_invariant_view(&dir, workers);
            assert_eq!(e, explained, "{name}: evidence at {workers} workers");
            assert_eq!(c, counters, "{name}: counters at {workers} workers");
            // One task holds every tree, so the peak is that task's trees
            // whatever the pool size; helper-built trees are charged once,
            // by the requester. With many tasks each worker's own tree
            // cache holds trees, so there the peak follows the pool size.
            if name == "cpp_qsomp1" {
                assert_eq!(p, peak, "{name}: tree-memory peak at {workers} workers");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The requester posts its second tree and then spends one whole tree
/// build (~0.7 s unoptimized, ~90 ms optimized, at this size) before it
/// would claim that job itself, while the other worker only has to start
/// and find the deques empty to be waiting on the board. The board's own
/// unit tests (`pipeline::tests`) show the claim without any timing.
#[test]
fn an_idle_worker_builds_a_running_tasks_tree() {
    use sword::obs::Obs;
    let dir = collect_workload("board-help", "cpp_qsomp1", 30_000);
    let obs = Obs::new();
    let config = AnalysisConfig::default().with_workers(2).with_obs(obs.clone());
    analyze(&SessionDir::new(&dir), &config).expect("analysis succeeds");
    let events = obs.journal.drain();
    let builds: Vec<_> = events.iter().filter(|e| e.name == "help-build").collect();
    assert_eq!(builds.len(), 1, "the one task posted one tree, and a helper built it");
    let build = builds[0];
    let arg = |k: &str| build.args.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
    assert!(arg("nodes") > 1000.0, "{build:?}");
    let requester = format!("oa-worker-{}", arg("for_worker"));
    assert!(build.thread.starts_with("oa-worker-") && *build.thread != *requester, "{build:?}");
    let (start, end) = (build.t_us, build.t_us + build.dur_us.unwrap());
    let tasks_on = |lane: &str| -> Vec<(u64, u64)> {
        events
            .iter()
            .filter(|e| e.name == "task" && &*e.thread == lane)
            .map(|e| (e.t_us, e.t_us + e.dur_us.unwrap()))
            .collect()
    };
    // The helper ran no task while it built (it had run out of tasks),
    // and the requester's task spans the whole build.
    assert!(
        tasks_on(&build.thread).iter().all(|&(s, e)| e <= start || s >= end),
        "helper was idle: {:?} vs build {start}..{end}",
        tasks_on(&build.thread)
    );
    assert!(
        tasks_on(&requester).iter().any(|&(s, e)| s <= start && e >= end),
        "requester waited: {:?} vs build {start}..{end}",
        tasks_on(&requester)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_helper_build_is_a_clean_error_not_a_hang() {
    use std::sync::mpsc;
    use std::time::Duration;
    let dir = collect_workload("board-corrupt", "cpp_qsomp1", 10_000);
    let session = SessionDir::new(&dir);
    // Corrupting either thread's log makes one of the task's two tree
    // builds fail: the one the task's worker keeps, or the one it posts.
    for tid in session.thread_ids().unwrap() {
        let copy = tmp(&format!("board-corrupt-{tid}"));
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let log = SessionDir::new(&copy).thread_log(tid);
        let mut bytes = fs::read(&log).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid..mid + 64].fill(0xff);
        fs::write(&log, bytes).unwrap();

        let errors: Vec<(std::io::ErrorKind, String)> = [1, 4]
            .into_iter()
            .map(|workers| {
                let (tx, rx) = mpsc::channel();
                let session = SessionDir::new(&copy);
                std::thread::spawn(move || {
                    let _ = tx
                        .send(analyze(&session, &AnalysisConfig::default().with_workers(workers)));
                });
                let result = rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|_| panic!("analysis at {workers} workers hung"));
                let e = result.expect_err("a corrupt log fails the analysis");
                (e.kind(), e.to_string())
            })
            .collect();
        assert_eq!(errors[0].0, std::io::ErrorKind::InvalidData, "{:?}", errors[0]);
        assert_eq!(errors[1], errors[0], "thread {tid}: 4 workers vs 1");
        fs::remove_dir_all(&copy).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}
