//! The staged streaming pipeline behind [`crate::analyze_loaded`].
//!
//! The offline phase runs as explicit stages:
//!
//! ```text
//! discover ─ load-meta ─ build-structure ─┐            (caller, timed)
//!                                         ▼
//!                  pair-schedule ──(per-worker deques)──► workers ◄──► build board
//!                  (filter + sort + deal)  + stealing    tree-build    (posted trees;
//!                                                        compare        idle workers
//!                                         ┌──(result channel)──┘        build them too)
//!                                         ▼
//!                                    dedup-report
//!                                 (streaming reducer)
//! ```
//!
//! The scheduler filters tasks to the focus regions, sorts them by file
//! position so each worker's reader pool streams forward, and deals
//! contiguous chunks into one deque per worker. Workers drain their own
//! deque front-to-back (preserving the position ordering) and steal a
//! batch from the back of a victim's deque when they run dry, so the
//! pool stays saturated even when task costs are skewed. Results stream
//! through a bounded channel into a reducer that merges each task's race
//! set the moment it arrives instead of waiting for a global barrier.
//!
//! Tasks are indivisible, so a worker that finds every deque empty would
//! idle while a large task builds its trees one after another. The build
//! board closes that gap: a task missing two or more trees posts all but
//! the first, builds the first itself, and then builds board jobs (its
//! own first, then another task's) until its trees are in. A worker out
//! of tasks drops its tree cache and builds board jobs until no worker
//! runs tasks. A helper's tree goes back to the requesting worker's
//! cache, which charges it to the memory gauge and the logical counters
//! exactly as if it had built the tree itself.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use crossbeam::channel::{bounded, Sender, TrySendError};
use sword_metrics::{DurationHist, StageTable};
use sword_obs::{Counter, FlowPhase, Histogram, Obs, SiteCounters, ThreadJournal};
use sword_trace::{SessionDir, ThreadId};

use crate::analyze::{journal_stage, AnalysisConfig};
use crate::build::{BiTree, ReaderPool, TreeCache};
use crate::intervals::{dep_ordered, intervals_concurrent, Group, Interval, Structure, Task};
use crate::load::LoadedSession;
use crate::race::{check_pair, CompareCtx, RaceSet};
use crate::verdicts::VerdictCache;

/// Most tasks a worker grabs from a victim's deque in one steal.
const STEAL_BATCH: usize = 16;

/// Per-worker counters, accumulated across tasks and merged by the
/// reducer.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorkerStats {
    pub trees_built: u64,
    pub nodes: u64,
    pub events: u64,
    pub bytes_read: u64,
    pub tree_pairs: u64,
    pub candidates: u64,
    pub solver_calls: u64,
    /// Candidate pairs retired by the fingerprint prescreen before they
    /// reached the solver (`solver_calls + prescreened` is invariant
    /// across funnel configurations).
    pub prescreened: u64,
    pub max_task_secs: f64,
    /// Fixed-footprint histogram of per-task durations.
    pub task_hist: DurationHist,
    /// Wall time inside tree construction (the tree-build stage).
    pub build_secs: f64,
    /// Wall time inside tree comparison (the compare stage).
    pub compare_secs: f64,
}

impl WorkerStats {
    pub(crate) fn merge(&mut self, other: &WorkerStats) {
        self.trees_built += other.trees_built;
        self.nodes += other.nodes;
        self.events += other.events;
        self.bytes_read += other.bytes_read;
        self.tree_pairs += other.tree_pairs;
        self.candidates += other.candidates;
        self.solver_calls += other.solver_calls;
        self.prescreened += other.prescreened;
        if other.max_task_secs > self.max_task_secs {
            self.max_task_secs = other.max_task_secs;
        }
        self.task_hist.merge(&other.task_hist);
        self.build_secs += other.build_secs;
        self.compare_secs += other.compare_secs;
    }
}

/// What one comparison task produced.
struct TaskOutcome {
    races: RaceSet,
    stats: WorkerStats,
    secs: f64,
    /// Causal-flow id minted by the worker's task span, so the reducer's
    /// merge instant continues the scheduler → worker → reducer chain.
    flow: Option<u64>,
}

/// Causal-tracing handles for the analyzer pipeline: the task-deque wait
/// histogram, the live task-queue depth, and the result-channel
/// backpressure counter. Present exactly when `--obs` is on.
struct PipelineObs {
    obs: Obs,
    task_wait_us: Histogram,
    queue_depth: Arc<AtomicU64>,
    backpressure: Counter,
}

impl PipelineObs {
    fn new(obs: &Obs, scheduled: u64) -> PipelineObs {
        let queue_depth = Arc::new(AtomicU64::new(scheduled));
        let d = Arc::clone(&queue_depth);
        obs.registry.source(
            "sword_task_queue_depth",
            "comparison tasks still waiting in the worker deques",
            move || d.load(Ordering::Relaxed) as f64,
        );
        PipelineObs {
            obs: obs.clone(),
            task_wait_us: obs.registry.histogram(
                "sword_task_queue_wait_us",
                "schedule-to-dequeue wait of a comparison task",
            ),
            queue_depth,
            backpressure: obs.registry.counter(
                "sword_result_backpressure_total",
                "worker sends that blocked on a full result channel",
            ),
        }
    }

    /// Notes one task leaving the deques: settles the depth gauge and
    /// records its wait since the scheduler dealt the deques.
    fn note_dequeue(&self, dealt_us: u64) {
        // Saturating: a stolen task can be counted on a slightly stale
        // depth; never underflow.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
        self.task_wait_us.record(self.obs.journal.now_us().saturating_sub(dealt_us));
    }
}

/// Sends a worker's result, counting result-channel backpressure: a full
/// channel means the reducer is the bottleneck, so the blocked send is
/// tallied before falling back to the blocking path.
fn send_outcome(
    tx: &Sender<io::Result<TaskOutcome>>,
    obs: Option<&PipelineObs>,
    msg: io::Result<TaskOutcome>,
) -> bool {
    let msg = match obs {
        Some(p) => match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(msg)) => {
                p.backpressure.inc();
                msg
            }
        },
        None => msg,
    };
    tx.send(msg).is_ok()
}

/// Cache key of one interval's tree.
type TreeKey = (ThreadId, u64);

fn tree_key(member: &Interval) -> TreeKey {
    (member.tid, member.meta.data_begin)
}

/// A tree build posted to the [`BuildBoard`]: one interval, and where
/// its result goes.
struct BuildJob {
    /// The worker whose task needs the tree.
    owner: usize,
    /// Position of the tree in the owner's list of missing trees.
    slot: usize,
    tid: ThreadId,
    data_begin: u64,
    size: u64,
    reply: mpsc::Sender<(usize, io::Result<BiTree>)>,
}

struct BoardState {
    jobs: VecDeque<BuildJob>,
    /// Workers still running comparison tasks. Only they post jobs, so
    /// once it reaches zero no job will ever arrive again.
    running: usize,
    /// Idle workers asleep in [`BuildBoard::wait_pop`].
    sleeping: usize,
}

/// The shared build board: tree builds a running task posted for any
/// worker to claim. Each job is claimed by exactly one pop, so no tree is
/// built twice, and a worker only blocks on its replies once the board is
/// empty, i.e. once every job it posted is claimed by a worker that is
/// building it.
struct BuildBoard {
    state: Mutex<BoardState>,
    wake: Condvar,
}

impl BuildBoard {
    fn new(workers: usize) -> BuildBoard {
        BuildBoard {
            state: Mutex::new(BoardState { jobs: VecDeque::new(), running: workers, sleeping: 0 }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BoardState> {
        self.state.lock().expect("build board lock")
    }

    /// Posts jobs and wakes one sleeping idle worker per job (waking all
    /// of them would have most find the board empty again; while every
    /// worker still runs tasks, nobody sleeps and nothing is signalled).
    fn post(&self, jobs: impl IntoIterator<Item = BuildJob>) {
        let wakes = {
            let mut state = self.lock();
            let before = state.jobs.len();
            state.jobs.extend(jobs);
            (state.jobs.len() - before).min(state.sleeping)
        };
        for _ in 0..wakes {
            self.wake.notify_one();
        }
    }

    /// Pops a job for a worker waiting on its own trees: the oldest of
    /// its own jobs first, so a worker's reader pool keeps streaming its
    /// own file positions, else the oldest job of any worker.
    fn try_pop(&self, wi: usize) -> Option<BuildJob> {
        let mut state = self.lock();
        let at = state.jobs.iter().position(|j| j.owner == wi).unwrap_or(0);
        state.jobs.remove(at)
    }

    /// Takes back the owner's unclaimed jobs (after one of its builds
    /// failed, so nobody builds trees its task no longer waits for).
    fn withdraw(&self, owner: usize) {
        self.lock().jobs.retain(|j| j.owner != owner);
    }

    /// Pops a job for an idle worker, sleeping while the board is empty
    /// and some worker still runs tasks; `None` once neither holds.
    fn wait_pop(&self) -> Option<BuildJob> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.running == 0 {
                return None;
            }
            state.sleeping += 1;
            state = self.wake.wait(state).expect("build board lock");
            state.sleeping -= 1;
        }
    }
}

/// Counts a worker out of the running set when dropped — after its last
/// task, or while unwinding from a panic, so idle workers never wait on
/// a worker that is gone.
struct Running<'a>(&'a BuildBoard);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        if state.running == 0 {
            self.0.wake.notify_all();
        }
    }
}

/// A worker's tree-building side: its reader pool (sharing the analysis'
/// image cache, so no log is loaded twice), the build board, and its
/// journal lane.
struct Builder<'a> {
    wi: usize,
    dir: &'a SessionDir,
    chunk_bytes: usize,
    board: &'a BuildBoard,
    pool: ReaderPool,
    journal: Option<ThreadJournal>,
}

impl Builder<'_> {
    /// Builds one interval's tree, adding the build time to `build_secs`.
    fn build(
        &mut self,
        tid: ThreadId,
        data_begin: u64,
        size: u64,
        build_secs: &mut f64,
    ) -> io::Result<BiTree> {
        let t0 = Instant::now();
        let tree = self.pool.build(self.dir, tid, data_begin, size, self.chunk_bytes);
        *build_secs += t0.elapsed().as_secs_f64();
        tree
    }

    /// Builds a job claimed off the board and replies. A build for
    /// another worker gets a `help-build` span on this worker's lane.
    fn run_job(&mut self, job: BuildJob, build_secs: &mut f64) {
        let s0 = self.journal.as_ref().map(|j| j.now_us());
        let tree = self.build(job.tid, job.data_begin, job.size, build_secs);
        if let (Some(j), Some(s0), true) = (&self.journal, s0, job.owner != self.wi) {
            let nodes = tree.as_ref().map_or(0, |t| t.node_count());
            j.span_closed(
                "help-build",
                s0,
                j.now_us().saturating_sub(s0),
                vec![("nodes".into(), nodes as f64), ("for_worker".into(), job.owner as f64)],
            );
        }
        // The owner stops listening after one of its builds fails.
        let _ = job.reply.send((job.slot, tree));
    }

    /// Builds a task's missing trees into `trees`: every tree but the
    /// first goes on the board, this worker builds the first, then keeps
    /// claiming board jobs (its own first, then any worker's) while any of
    /// its trees is still out, and blocks on the replies only once the
    /// board is empty.
    fn build_missing(
        &mut self,
        missing: &[&Interval],
        trees: &mut TreeCache,
        stats: &mut WorkerStats,
    ) -> io::Result<()> {
        let (tx, rx) = mpsc::channel();
        self.board.post(missing.iter().enumerate().skip(1).map(|(slot, m)| BuildJob {
            owner: self.wi,
            slot,
            tid: m.tid,
            data_begin: m.meta.data_begin,
            size: m.meta.size,
            reply: tx.clone(),
        }));
        drop(tx);
        let mut built: Vec<Option<BiTree>> = missing.iter().map(|_| None).collect();
        let collected = self.collect(missing[0], &rx, &mut built, &mut stats.build_secs);
        if collected.is_err() {
            self.board.withdraw(self.wi);
        }
        collected?;
        for (m, tree) in missing.iter().zip(built) {
            trees.insert(tree_key(m), tree.expect("every slot is filled"));
        }
        Ok(())
    }

    fn collect(
        &mut self,
        first: &Interval,
        rx: &mpsc::Receiver<(usize, io::Result<BiTree>)>,
        built: &mut [Option<BiTree>],
        build_secs: &mut f64,
    ) -> io::Result<()> {
        built[0] =
            Some(self.build(first.tid, first.meta.data_begin, first.meta.size, build_secs)?);
        let mut outstanding = built.len() - 1;
        while outstanding > 0 {
            let (slot, tree) = match rx.try_recv() {
                Ok(reply) => reply,
                Err(_) => match self.board.try_pop(self.wi) {
                    Some(job) => {
                        self.run_job(job, build_secs);
                        continue;
                    }
                    None => rx.recv().map_err(|_| {
                        io::Error::other("a tree build posted to the build board was dropped")
                    })?,
                },
            };
            built[slot] = Some(tree?);
            outstanding -= 1;
        }
        Ok(())
    }

    /// An idle worker's loop: builds board jobs until no worker runs
    /// tasks any more. Returns the time spent building.
    fn help(&mut self) -> f64 {
        let mut build_secs = 0.0;
        while let Some(job) = self.board.wait_pop() {
            self.run_job(job, &mut build_secs);
        }
        build_secs
    }
}

/// Pops the next task for worker `wi`: its own deque's front first, and
/// when that runs dry, a batch stolen from the back of the first
/// non-empty victim (back-stealing leaves the victim the file positions
/// it was already streaming toward). Tasks are only ever dealt before
/// the workers start, so an all-empty sweep means the pool is drained.
fn next_task(deques: &[Mutex<VecDeque<Task>>], wi: usize) -> Option<Task> {
    if let Some(t) = deques[wi].lock().expect("task deque lock").pop_front() {
        return Some(t);
    }
    let n = deques.len();
    for off in 1..n {
        let vi = (wi + off) % n;
        let mut stolen: VecDeque<Task> = VecDeque::new();
        {
            let mut victim = deques[vi].lock().expect("task deque lock");
            let grab = victim.len().div_ceil(2).min(STEAL_BATCH);
            for _ in 0..grab {
                let t = victim.pop_back().expect("grab bounded by len");
                stolen.push_front(t);
            }
        }
        if let Some(first) = stolen.pop_front() {
            if !stolen.is_empty() {
                deques[wi].lock().expect("task deque lock").extend(stolen);
            }
            return Some(first);
        }
    }
    None
}

/// Runs the scheduler → workers → reducer stages over a reconstructed
/// structure and returns the merged race set and counters, recording
/// per-stage wall time and throughput into `stages`.
pub(crate) fn run(
    session: &LoadedSession,
    structure: &Structure,
    config: &AnalysisConfig,
    cache: &VerdictCache,
    stages: &mut StageTable,
) -> io::Result<(RaceSet, WorkerStats, u64)> {
    let workers = config.workers.max(1);

    // Stage: pair-schedule. Filters tasks to the focus regions, orders
    // them by file position (group positions are computed once up front,
    // not re-derived inside the sort comparator), and deals contiguous
    // chunks into per-worker deques.
    let sched_journal = config.journal_for("oa-scheduler");
    let sched_s0 = sched_journal.as_ref().map(|j| j.now_us());
    let sched_t0 = Instant::now();
    let in_focus = |group: usize| -> bool {
        match &config.focus_regions {
            None => true,
            Some(focus) => focus.contains(&structure.groups[group].pid),
        }
    };
    let group_pos: Vec<u64> = structure
        .groups
        .iter()
        .map(|g| g.members.iter().map(|m| m.meta.data_begin).min().unwrap_or(0))
        .collect();
    let mut tasks: Vec<Task> = structure
        .tasks
        .iter()
        .filter(|t| match t {
            Task::Intra { group } => in_focus(*group),
            Task::Cross { a, b, .. } => in_focus(*a) && in_focus(*b),
        })
        .cloned()
        .collect();
    tasks.sort_by_key(|t| match t {
        Task::Intra { group } => group_pos[*group],
        Task::Cross { a, b, .. } => group_pos[*a].min(group_pos[*b]),
    });
    let scheduled = tasks.len() as u64;
    let deques: Vec<Mutex<VecDeque<Task>>> = {
        let chunk = tasks.len().div_ceil(workers).max(1);
        let mut dealt = tasks.into_iter();
        (0..workers).map(|_| Mutex::new(dealt.by_ref().take(chunk).collect())).collect()
    };
    let schedule_secs = sched_t0.elapsed().as_secs_f64();
    journal_stage(&sched_journal, "pair-schedule", sched_s0, ("tasks", scheduled as f64));
    let pipe_obs = config.obs.as_ref().map(|o| PipelineObs::new(o, scheduled));
    // All tasks are dealt at one moment; each task's deque wait is
    // measured from here.
    let dealt_us = pipe_obs.as_ref().map(|p| p.obs.journal.now_us()).unwrap_or(0);

    let (result_tx, result_rx) = bounded::<io::Result<TaskOutcome>>(2 * workers);

    let mut races = RaceSet::new();
    let mut merged = WorkerStats::default();
    let mut first_error: Option<io::Error> = None;
    let mut dedup_secs = 0.0f64;
    let mut outcomes = 0u64;

    let board = BuildBoard::new(workers);
    let mut helper_build_secs = 0.0f64;

    std::thread::scope(|s| {
        // Stage: tree-build + compare, on `workers` threads.
        let mut handles = Vec::with_capacity(workers);
        for wi in 0..workers {
            let result_tx = result_tx.clone();
            let deques = &deques;
            let board = &board;
            let pipe_obs = pipe_obs.as_ref();
            handles.push(s.spawn(move || {
                let mut builder = Builder {
                    wi,
                    dir: &session.dir,
                    chunk_bytes: config.chunk_bytes,
                    board,
                    pool: ReaderPool::with_mode(
                        config.read_mode,
                        config.source_stats.clone(),
                        config.image_cache.clone(),
                    ),
                    journal: config.journal_for(format!("oa-worker-{wi}")),
                };
                // Per-worker tree cache: intervals shared by the worker's
                // tasks are built once, not once per task. Its drop
                // credits the memory gauge.
                let mut trees = TreeCache::new(config.tree_cache_nodes, config.mem_gauge.clone());
                let solver_hist = config.solver_hist();
                // Per-worker attribution accumulator (lock-free on the
                // hot path), folded into the shared table once at exit.
                let mut site_acc = config.sites.as_ref().map(|_| SiteCounters::new());
                let running = Running(board);
                while let Some(task) = next_task(deques, wi) {
                    if let Some(p) = pipe_obs {
                        p.note_dequeue(dealt_us);
                    }
                    let s0 = builder.journal.as_ref().map(|j| j.now_us());
                    let t0 = Instant::now();
                    let mut task_races = RaceSet::new();
                    let mut local = WorkerStats::default();
                    let result = run_task(
                        session,
                        &structure.groups,
                        &task,
                        config,
                        cache,
                        &mut builder,
                        &mut trees,
                        &mut task_races,
                        &mut local,
                        solver_hist.as_ref(),
                        &mut site_acc,
                    );
                    let secs = t0.elapsed().as_secs_f64();
                    // The task span starts this outcome's causal flow;
                    // the reducer's merge instant ends it.
                    let flow = pipe_obs.map(|p| p.obs.journal.next_flow_id());
                    if let (Some(j), Some(s0)) = (&builder.journal, s0) {
                        j.span_closed_flow(
                            "task",
                            s0,
                            j.now_us().saturating_sub(s0),
                            vec![("tree_pairs".into(), local.tree_pairs as f64)],
                            flow.map(|f| (f, FlowPhase::Start)),
                        );
                    }
                    let msg = result.map(|()| TaskOutcome {
                        races: task_races,
                        stats: local,
                        secs,
                        flow,
                    });
                    if !send_outcome(&result_tx, pipe_obs, msg) {
                        break;
                    }
                }
                // Tasks are only dealt before the workers start, so this
                // worker gets no more: it releases its trees and its
                // result sender, then builds trees for the tasks still
                // running.
                drop(running);
                drop(trees);
                drop(result_tx);
                if let (Some(table), Some(acc)) = (&config.sites, site_acc.take()) {
                    table.absorb(acc);
                }
                builder.help()
            }));
        }
        drop(result_tx);

        // Stage: dedup-report. Merges every task's races as it arrives.
        let reduce_journal = config.journal_for("oa-reducer");
        let reduce_s0 = reduce_journal.as_ref().map(|j| j.now_us());
        for msg in result_rx.iter() {
            match msg {
                Ok(outcome) => {
                    let t0 = Instant::now();
                    if let (Some(j), Some(flow)) = (&reduce_journal, outcome.flow) {
                        j.instant_flow(
                            "merge",
                            vec![("task_secs".into(), outcome.secs)],
                            Some((flow, FlowPhase::End)),
                        );
                    }
                    races.merge(outcome.races);
                    merged.merge(&outcome.stats);
                    if outcome.secs > merged.max_task_secs {
                        merged.max_task_secs = outcome.secs;
                    }
                    merged.task_hist.record(outcome.secs);
                    outcomes += 1;
                    dedup_secs += t0.elapsed().as_secs_f64();
                }
                // Keep draining after an error so no worker blocks on a
                // full result channel; the scope still joins everything.
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        journal_stage(&reduce_journal, "dedup-report", reduce_s0, ("outcomes", outcomes as f64));
        for handle in handles {
            match handle.join() {
                Ok(secs) => helper_build_secs += secs,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    if let Some(e) = first_error {
        return Err(e);
    }
    stages.record("pair-schedule", schedule_secs, scheduled, 0);
    // Idle workers' builds count toward the stage's busy time; their
    // trees' counters were charged by the workers that requested them.
    merged.build_secs += helper_build_secs;
    stages.record("tree-build", merged.build_secs, merged.trees_built, merged.bytes_read);
    stages.record("compare", merged.compare_secs, merged.tree_pairs, 0);
    stages.record("dedup-report", dedup_secs, outcomes, 0);
    Ok((races, merged, scheduled))
}

/// Ensures the trees of the task's groups' non-empty members are in the
/// worker's cache, returning, per group, each such member's index and
/// cache key. When two or more trees are missing, they are built through
/// the build board so idle workers can take some of them. Every tree is
/// then requested through [`TreeCache::ensure`], whose hit path charges
/// the logical build counters, so the merged statistics are identical
/// whatever the cache geometry and whoever built the tree.
fn ensure_task_trees(
    session: &LoadedSession,
    groups: &[&Group],
    config: &AnalysisConfig,
    builder: &mut Builder,
    trees: &mut TreeCache,
    stats: &mut WorkerStats,
) -> io::Result<Vec<Vec<(usize, TreeKey)>>> {
    let mut missing: Vec<&Interval> = Vec::new();
    for m in groups.iter().flat_map(|g| &g.members) {
        let key = tree_key(m);
        if m.meta.size != 0 && !trees.contains(&key) && !missing.iter().any(|x| tree_key(x) == key)
        {
            missing.push(m);
        }
    }
    if missing.len() >= 2 {
        builder.build_missing(&missing, trees, stats)?;
    }
    groups
        .iter()
        .map(|g| {
            let mut keys = Vec::with_capacity(g.members.len());
            for (i, member) in g.members.iter().enumerate() {
                if member.meta.size == 0 {
                    continue; // empty interval: nothing to race
                }
                trees.ensure(
                    &session.dir,
                    member,
                    config.chunk_bytes,
                    &mut builder.pool,
                    stats,
                    true,
                )?;
                keys.push((i, tree_key(member)));
            }
            Ok(keys)
        })
        .collect()
}

/// Executes one comparison task against the worker's tree cache: the
/// task's trees are ensured (built on miss, reused on hit), the cache is
/// trimmed to budget with the task's keys pinned, and every qualifying
/// pair is compared out of the cache.
#[allow(clippy::too_many_arguments)]
fn run_task(
    session: &LoadedSession,
    groups: &[Group],
    task: &Task,
    config: &AnalysisConfig,
    cache: &VerdictCache,
    builder: &mut Builder,
    trees: &mut TreeCache,
    races: &mut RaceSet,
    stats: &mut WorkerStats,
    solver_hist: Option<&Histogram>,
    sites: &mut Option<SiteCounters>,
) -> io::Result<()> {
    match *task {
        Task::Intra { group } => {
            let g = &groups[group];
            let keys = ensure_task_trees(session, &[g], config, builder, trees, stats)?.remove(0);
            let pinned: Vec<_> = keys.iter().map(|(_, k)| *k).collect();
            trees.evict(&pinned);
            let t0 = Instant::now();
            for i in 0..keys.len() {
                for j in i + 1..keys.len() {
                    let (ia, ka) = keys[i];
                    let (ib, kb) = keys[j];
                    // Tasking sessions fragment a thread's log around task
                    // chains, so one (pid, bid) group can hold several
                    // same-tid fragments — program order, never a race.
                    if g.members[ia].tid == g.members[ib].tid {
                        continue;
                    }
                    let (ta, tb) =
                        (trees.get(&ka).expect("pinned"), trees.get(&kb).expect("pinned"));
                    if ta.node_count() == 0 || tb.node_count() == 0 {
                        continue;
                    }
                    stats.tree_pairs += 1;
                    let pair_stats = check_pair(
                        ta,
                        &g.members[ia],
                        tb,
                        &g.members[ib],
                        &CompareCtx {
                            solver: config.solver,
                            funnel: config.funnel,
                            cache,
                            tiers: &config.tiers,
                        },
                        races,
                        solver_hist,
                        sites.as_mut(),
                    );
                    stats.candidates += pair_stats.candidates;
                    stats.solver_calls += pair_stats.solver_calls;
                    stats.prescreened += pair_stats.prescreened;
                }
            }
            stats.compare_secs += t0.elapsed().as_secs_f64();
        }
        Task::Cross { a, b, all_concurrent } => {
            let ga = &groups[a];
            let gb = &groups[b];
            // Build in file-position order for the reader pool's sake.
            let (first, second) = if ga.members.iter().map(|m| m.meta.data_begin).min()
                <= gb.members.iter().map(|m| m.meta.data_begin).min()
            {
                (ga, gb)
            } else {
                (gb, ga)
            };
            let mut keys =
                ensure_task_trees(session, &[first, second], config, builder, trees, stats)?;
            let keys_second = keys.pop().expect("two groups");
            let keys_first = keys.pop().expect("two groups");
            let pinned: Vec<_> =
                keys_first.iter().chain(keys_second.iter()).map(|(_, k)| *k).collect();
            trees.evict(&pinned);
            let t0 = Instant::now();
            for &(ia, ka) in &keys_first {
                for &(ib, kb) in &keys_second {
                    let ma = &first.members[ia];
                    let mb = &second.members[ib];
                    if !all_concurrent && !intervals_concurrent(ma, mb) {
                        continue;
                    }
                    if ma.tid == mb.tid {
                        continue;
                    }
                    // Task dependence edges order whole task bodies; the
                    // labels alone say "concurrent" for siblings, so the
                    // `depend` partial order is layered on explicitly.
                    if dep_ordered(&session.regions, ma, mb) {
                        continue;
                    }
                    let (ta, tb) =
                        (trees.get(&ka).expect("pinned"), trees.get(&kb).expect("pinned"));
                    if ta.node_count() == 0 || tb.node_count() == 0 {
                        continue;
                    }
                    stats.tree_pairs += 1;
                    let pair_stats = check_pair(
                        ta,
                        ma,
                        tb,
                        mb,
                        &CompareCtx {
                            solver: config.solver,
                            funnel: config.funnel,
                            cache,
                            tiers: &config.tiers,
                        },
                        races,
                        solver_hist,
                        sites.as_mut(),
                    );
                    stats.candidates += pair_stats.candidates;
                    stats.solver_calls += pair_stats.solver_calls;
                    stats.prescreened += pair_stats.prescreened;
                }
            }
            stats.compare_secs += t0.elapsed().as_secs_f64();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(owner: usize, slot: usize) -> BuildJob {
        let (reply, _) = mpsc::channel();
        BuildJob { owner, slot, tid: 0, data_begin: 0, size: 0, reply }
    }

    #[test]
    fn a_sleeping_idle_worker_claims_a_posted_job() {
        let board = BuildBoard::new(2);
        std::thread::scope(|s| {
            // Worker 1 has run out of tasks: it counts itself out and
            // waits for jobs.
            let helper = s.spawn(|| {
                drop(Running(&board));
                let job = board.wait_pop().expect("worker 0 posts a job");
                let claimed = (job.owner, job.slot);
                assert!(board.wait_pop().is_none(), "no worker runs tasks any more");
                claimed
            });
            // Post only once the helper is asleep, and never pop here, so
            // the helper is the only worker that can claim the job.
            while board.lock().sleeping == 0 {
                std::thread::yield_now();
            }
            board.post([job(0, 1)]);
            drop(Running(&board));
            assert_eq!(helper.join().expect("helper thread"), (0, 1));
        });
        let state = board.lock();
        assert!(state.jobs.is_empty() && state.running == 0 && state.sleeping == 0);
    }

    #[test]
    fn a_waiting_worker_pops_its_own_jobs_first() {
        let board = BuildBoard::new(2);
        board.post([job(1, 1), job(0, 1), job(1, 2), job(0, 2)]);
        let popped: Vec<_> =
            std::iter::from_fn(|| board.try_pop(0)).map(|j| (j.owner, j.slot)).collect();
        assert_eq!(popped, [(0, 1), (0, 2), (1, 1), (1, 2)], "own jobs, then the oldest other");
        board.post([job(1, 1), job(0, 1), job(1, 2)]);
        board.withdraw(1);
        let left: Vec<_> = board.lock().jobs.iter().map(|j| (j.owner, j.slot)).collect();
        assert_eq!(left, [(0, 1)], "a withdrawal takes back only the owner's jobs");
    }

    #[test]
    fn idle_workers_leave_once_no_worker_runs_tasks() {
        let board = BuildBoard::new(3);
        std::thread::scope(|s| {
            let helpers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        drop(Running(&board));
                        let mut built = 0;
                        while board.wait_pop().is_some() {
                            built += 1;
                        }
                        built
                    })
                })
                .collect();
            board.post((0..5).map(|slot| job(0, slot)));
            drop(Running(&board));
            let built: usize = helpers.into_iter().map(|h| h.join().expect("helper")).sum();
            assert_eq!(built, 5, "every posted job is claimed exactly once");
        });
    }
}
