//! Multi-trial experiment execution: a parallel scheduler with
//! deterministic, trial-index-ordered commit.
//!
//! The paper runs 4–16 trials per configuration and reports the spread
//! (Tables 7–10); the figure sweeps run dozens of configurations. Every
//! cell of that grid is an independent pure function of
//! `(config, base_seed, trial_index)` — the [`SeedSeq`] design guarantees
//! it — so the grid is embarrassingly parallel. [`TrialScheduler`] fans
//! cells out over a `std::thread` worker pool and a **committer** reorders
//! completions back into index order, so results are bit-identical
//! regardless of thread count. `threads == 1` takes a plain serial loop
//! with no thread, channel or heap machinery at all.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::{EmptySampleError, SeedSeq, Summary};

/// The outcome of a multi-trial experiment: raw values in trial order and
/// their summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSet {
    values: Vec<f64>,
    summary: Summary,
}

impl TrialSet {
    /// Per-trial measurements, indexed by trial number.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summary statistics over the trials.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

/// How one trial attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The trial closure panicked; the payload's message is captured.
    Panic(String),
    /// The trial closure returned a typed error.
    Error(String),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// A trial that exhausted its retry budget. Committed in place of the
/// trial's value, so a sweep degrades gracefully instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Index of the failed trial.
    pub index: usize,
    /// Total attempts made (1 + retries).
    pub attempts: u32,
    /// Deterministic backoff units accumulated across the retries.
    /// Virtual units, never wall-clock — results stay bit-identical.
    pub backoff_units: u64,
    /// The last attempt's failure.
    pub kind: FailureKind,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} failed after {} attempts ({})",
            self.index, self.attempts, self.kind
        )
    }
}

/// Bounded-retry policy with a capped deterministic backoff schedule.
///
/// Backoff is accounted in *virtual units* — the schedule is recorded
/// in [`FaultStats`] and [`TrialFailure`] but no thread ever sleeps, so
/// committed results carry no wall-clock dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per trial (first run + retries). Minimum 1.
    pub max_attempts: u32,
    /// Backoff units charged for retrying after attempt 0; doubles per
    /// attempt.
    pub backoff_base: u64,
    /// Ceiling on the per-retry backoff charge.
    pub backoff_cap: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, failures are terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_cap: 0,
        }
    }

    /// Backoff units charged for retrying after `attempt` (0-based):
    /// `min(cap, base << attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_cap, |b| b.min(self.backoff_cap))
    }
}

impl Default for RetryPolicy {
    /// Three attempts, exponential 250/500/… capped at 4000 units.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 250,
            backoff_cap: 4000,
        }
    }
}

/// Scheduler-level fault accounting for one resilient run. Every field
/// is a sum of per-`(index, attempt)` events, so the totals are
/// bit-identical for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Attempts re-run after a failure (attempts beyond each trial's
    /// first).
    pub retries: u64,
    /// Worker panics caught by the engine.
    pub panics: u64,
    /// Attempts that returned a typed error.
    pub typed_failures: u64,
    /// Trials that exhausted their retry budget.
    pub failed_trials: u64,
    /// Workers respawned after a panic poisoned one. A panic always
    /// poisons its worker, so this equals `panics` by construction
    /// (the serial path re-enters the loop in place and counts the
    /// same).
    pub workers_respawned: u64,
    /// Total deterministic backoff units scheduled (virtual, never
    /// slept).
    pub backoff_units: u64,
    /// Trials this run actually drove to a terminal outcome — the
    /// scheduler's evidence of work performed. A resumed sweep counts
    /// only the remainder it computed; a fingerprint-cache hit that
    /// never enters the scheduler reports `0`.
    pub trials_computed: u64,
}

impl FaultStats {
    /// Whether the run saw no faults at all. `trials_computed` is
    /// work accounting, not a fault, so it does not participate.
    pub fn is_clean(&self) -> bool {
        let FaultStats {
            retries,
            panics,
            typed_failures,
            failed_trials,
            workers_respawned,
            backoff_units,
            trials_computed: _,
        } = *self;
        retries == 0
            && panics == 0
            && typed_failures == 0
            && failed_trials == 0
            && workers_respawned == 0
            && backoff_units == 0
    }

    /// Accumulates another run's accounting into this one — the
    /// service layer sums per-job stats into a queue-level report.
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.panics += other.panics;
        self.typed_failures += other.typed_failures;
        self.failed_trials += other.failed_trials;
        self.workers_respawned += other.workers_respawned;
        self.backoff_units += other.backoff_units;
        self.trials_computed += other.trials_computed;
    }
}

/// Per-trial progress carried across retries: the attempt number being
/// run, typed failures so far and backoff accumulated so far.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    attempt: u32,
    typed_failures: u32,
    backoff: u64,
}

/// What a worker reports to the committer: a trial's terminal outcome
/// (a value or exhausted typed retries), or a panic — after which the
/// sending worker has exited (poisoned).
struct Report<T> {
    index: usize,
    progress: Progress,
    outcome: Result<T, FailureKind>,
}

impl<T> Report<T> {
    fn poisoned(&self) -> bool {
        matches!(self.outcome, Err(FailureKind::Panic(_)))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A worker pool that evaluates independent indexed jobs and commits
/// their results **in index order**.
///
/// The execution model is the classic dispatch-loop / worker-pool /
/// ordered-commit trio:
///
/// * **dispatch** — workers claim the next unclaimed index from a shared
///   atomic counter (dynamic load balancing; a slow cell never stalls
///   the queue behind a fixed chunk boundary);
/// * **execute** — each job runs independently; results flow back over an
///   `mpsc` channel;
/// * **commit** — the calling thread holds completions in a min-heap and
///   releases them strictly in index order, so observable output is
///   bit-identical for any worker count.
///
/// # Examples
///
/// ```
/// use tapeworm_stats::trials::TrialScheduler;
///
/// let serial = TrialScheduler::serial().run(4, |i| i * i);
/// let parallel = TrialScheduler::new(8).run(4, |i| i * i);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial, vec![0, 1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialScheduler {
    threads: usize,
}

impl TrialScheduler {
    /// A scheduler over `threads` workers. `0` selects the host's
    /// available parallelism; `1` is the exact serial loop.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        TrialScheduler { threads }
    }

    /// The exact serial path: one thread, no pool.
    pub fn serial() -> Self {
        TrialScheduler { threads: 1 }
    }

    /// Number of worker threads this scheduler uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `job(0..n)` and returns the results indexed by job
    /// number. Output is identical for every thread count.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.run_committed(n, job, |_, value| out.push(value));
        out
    }

    /// Evaluates `job(0..n)`, invoking `commit(index, value)` strictly in
    /// index order (0, 1, 2, …) as results become available.
    ///
    /// The commit callback runs on the calling thread, so it may hold
    /// `&mut` state (accumulate statistics, stream table rows) without
    /// synchronization, and sees exactly the sequence the serial loop
    /// would produce.
    ///
    /// This is the resilient loop
    /// ([`run_committed_resilient_stateful`](Self::run_committed_resilient_stateful))
    /// with [`RetryPolicy::none`] and no worker state.
    ///
    /// # Panics
    ///
    /// A panicking job is re-raised on the calling thread, with the
    /// job's message, when its index comes up for commit.
    pub fn run_committed<T, F, C>(&self, n: usize, job: F, mut commit: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        self.run_committed_resilient_stateful(
            n,
            RetryPolicy::none(),
            || (),
            |(), i, _attempt| Ok::<T, String>(job(i)),
            |i, outcome| match outcome {
                Ok(value) => commit(i, value),
                Err(failure) => panic!("{failure}"),
            },
        );
    }

    /// The worker pool behind every run: evaluates `job(state, index,
    /// attempt)` for `index` in `0..n` and commits the outcomes in
    /// index order.
    ///
    /// Each worker thread calls `init()` exactly once at spawn and
    /// passes its state to every job it runs (the serial path holds one
    /// state across the whole loop). This is the hook for reusing
    /// expensive per-trial allocations — a worker's scratch buffers
    /// survive from one trial to the next instead of being rebuilt.
    /// The state must not affect job results: which worker (and hence
    /// which state instance) runs an index depends on dynamic load
    /// balancing, so bit-identical output for every thread count
    /// requires `job(&mut fresh, i, a) == job(&mut reused, i, a)`.
    ///
    /// Each attempt runs under [`catch_unwind`], so a panicking trial
    /// poisons only its worker: the committer respawns a replacement
    /// and the trial is retried under `retry`'s budget with a capped
    /// deterministic backoff schedule (virtual units — nothing sleeps,
    /// so results carry no wall-clock). A panic may leave the worker's
    /// state arbitrarily corrupted, so it is discarded with the
    /// poisoned worker — the replacement calls `init()` afresh (the
    /// serial path re-inits in place, keeping the accounting
    /// thread-count invariant). Typed errors (`Err(String)`) retry on
    /// the same worker with the same state, exactly like a healthy next
    /// trial. A trial that exhausts its budget commits a
    /// [`TrialFailure`] instead of a value — the run completes and
    /// reports instead of aborting.
    ///
    /// `commit(index, outcome)` is invoked strictly in index order on
    /// the calling thread, and both the committed sequence and the
    /// returned [`FaultStats`] are bit-identical for every thread count
    /// (every statistic is a sum over `(index, attempt)` events).
    pub fn run_committed_resilient_stateful<S, T, I, F, C>(
        &self,
        n: usize,
        retry: RetryPolicy,
        init: I,
        job: F,
        mut commit: C,
    ) -> FaultStats
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, u32) -> Result<T, String> + Sync,
        C: FnMut(usize, Result<T, TrialFailure>),
    {
        let max_attempts = retry.max_attempts.max(1);
        let mut stats = FaultStats::default();
        if n == 0 {
            return stats;
        }

        // The worker's side, shared by both paths: attempts of one
        // trial run on one state until a terminal outcome or a panic.
        // Typed errors retry in place; the worker is not poisoned.
        let attempts = |state: &mut S, index: usize, mut progress: Progress| -> Report<T> {
            loop {
                let outcome =
                    match catch_unwind(AssertUnwindSafe(|| job(state, index, progress.attempt))) {
                        Ok(Ok(v)) => Ok(v),
                        Ok(Err(msg)) => {
                            progress.typed_failures += 1;
                            Err(FailureKind::Error(msg))
                        }
                        Err(payload) => Err(FailureKind::Panic(panic_message(&*payload))),
                    };
                let retry_in_place = matches!(outcome, Err(FailureKind::Error(_)))
                    && progress.attempt + 1 < max_attempts;
                if !retry_in_place {
                    return Report {
                        index,
                        progress,
                        outcome,
                    };
                }
                progress.backoff += retry.backoff_for(progress.attempt);
                progress.attempt += 1;
            }
        };

        // The committer's side, shared by both paths: a panic poisons
        // its worker and either exhausts the trial's budget or hands
        // back the next attempt to run (`Err`). A terminal outcome is
        // accounted exactly once — per-trial retries, typed failures
        // and backoff — and returned for commit.
        let settle = |stats: &mut FaultStats,
                      report: Report<T>|
         -> Result<(usize, Result<T, TrialFailure>), (usize, Progress)> {
            let Report {
                index,
                mut progress,
                outcome,
            } = report;
            if matches!(outcome, Err(FailureKind::Panic(_))) {
                stats.panics += 1;
                stats.workers_respawned += 1;
                if progress.attempt + 1 < max_attempts {
                    progress.backoff += retry.backoff_for(progress.attempt);
                    progress.attempt += 1;
                    return Err((index, progress));
                }
            }
            stats.retries += u64::from(progress.attempt);
            stats.typed_failures += u64::from(progress.typed_failures);
            stats.backoff_units += progress.backoff;
            stats.trials_computed += 1;
            let outcome = outcome.map_err(|kind| {
                stats.failed_trials += 1;
                TrialFailure {
                    index,
                    attempts: progress.attempt + 1,
                    backoff_units: progress.backoff,
                    kind,
                }
            });
            Ok((index, outcome))
        };

        if self.threads == 1 {
            // Serial reference semantics: the lone worker runs every
            // trial in index order and commits in place. A caught panic
            // "poisons" it and it re-enters immediately with its state
            // re-initialized — counted as a respawn, so the stats (and
            // state lifecycle) are thread-count invariant.
            let mut state = init();
            for index in 0..n {
                let mut report = attempts(&mut state, index, Progress::default());
                loop {
                    if report.poisoned() {
                        state = init();
                    }
                    match settle(&mut stats, report) {
                        Ok((index, outcome)) => {
                            commit(index, outcome);
                            break;
                        }
                        Err((index, progress)) => report = attempts(&mut state, index, progress),
                    }
                }
            }
            return stats;
        }

        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        let retry_queue: Mutex<VecDeque<(usize, Progress)>> = Mutex::new(VecDeque::new());
        let (tx, rx) = mpsc::channel::<Report<T>>();
        std::thread::scope(|scope| {
            // One spawn per worker slot; also used to respawn after a
            // panic poisons a worker.
            let spawn_worker = |tx: mpsc::Sender<Report<T>>| {
                let cursor = &cursor;
                let retry_queue = &retry_queue;
                let init = &init;
                let attempts = &attempts;
                scope.spawn(move || {
                    // Fresh state per (re)spawn: a respawned worker
                    // never inherits a panicked predecessor's state.
                    let mut state = init();
                    loop {
                        // Queued retries take priority over fresh indices.
                        let work = retry_queue.lock().expect("retry queue").pop_front();
                        let (index, progress) = match work {
                            Some(w) => w,
                            None => {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    return;
                                }
                                (i, Progress::default())
                            }
                        };
                        let report = attempts(&mut state, index, progress);
                        // A panic may have corrupted this worker's
                        // state: report and exit; the committer
                        // respawns.
                        let poisoned = report.poisoned();
                        let _ = tx.send(report);
                        if poisoned {
                            return;
                        }
                    }
                });
            };
            for _ in 0..workers {
                spawn_worker(tx.clone());
            }

            // Deterministic committer: hold out-of-order completions by
            // index and release them while the next expected one is in.
            let mut pending = BTreeMap::new();
            let mut next = 0usize;
            while next < n {
                let report = rx
                    .recv()
                    .expect("a worker exited without reporting its trial");
                let poisoned = report.poisoned();
                match settle(&mut stats, report) {
                    Ok((index, outcome)) => {
                        pending.insert(index, outcome);
                    }
                    // Enqueue BEFORE spawning so the fresh worker can
                    // never miss the retry and exit.
                    Err(work) => retry_queue.lock().expect("retry queue").push_back(work),
                }
                if poisoned {
                    // Always respawn: idle workers may already have
                    // exited, and unclaimed indices could otherwise
                    // strand the committer.
                    spawn_worker(tx.clone());
                }
                while let Some(outcome) = pending.remove(&next) {
                    commit(next, outcome);
                    next += 1;
                }
            }
            drop(tx);
        });
        stats
    }

    /// Runs `n` seeded trials of `f` and folds them into a [`TrialSet`].
    ///
    /// Trial `i` always receives `base.derive("trial", i)`, so the set is
    /// reproducible in isolation and identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySampleError`] when `n == 0` — an experiment with
    /// no trials has no summary.
    pub fn run_trials<F>(&self, base: SeedSeq, n: usize, f: F) -> Result<TrialSet, EmptySampleError>
    where
        F: Fn(SeedSeq) -> f64 + Sync,
    {
        let values = self.run(n, |i| f(base.derive("trial", i as u64)));
        let summary = Summary::from_values(values.iter().copied())?;
        Ok(TrialSet { values, summary })
    }
}

/// Runs `n` trials of `f` sequentially.
///
/// Each trial receives a [`SeedSeq`] derived as `base.derive("trial", i)`,
/// so trial `i` is reproducible in isolation.
///
/// # Errors
///
/// Returns [`EmptySampleError`] when `n == 0` — an experiment with no
/// trials has no summary.
pub fn run_trials<F>(base: SeedSeq, n: usize, mut f: F) -> Result<TrialSet, EmptySampleError>
where
    F: FnMut(SeedSeq) -> f64,
{
    let values: Vec<f64> = (0..n as u64).map(|i| f(base.derive("trial", i))).collect();
    let summary = Summary::from_values(values.iter().copied())?;
    Ok(TrialSet { values, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_get_distinct_seeds() {
        let set = run_trials(SeedSeq::new(5), 8, |seed| seed.value() as f64).unwrap();
        let mut vals = set.values().to_vec();
        vals.dedup();
        assert_eq!(vals.len(), 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |seed: SeedSeq| seed.rng().gen_range(0.0..1.0);
        let a = run_trials(SeedSeq::new(3), 16, f);
        let b = run_trials(SeedSeq::new(3), 16, f);
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |seed: SeedSeq| seed.rng().gen_range(0.0..100.0);
        let seq = run_trials(SeedSeq::new(11), 13, f).unwrap();
        for threads in [2, 4, 8, 32] {
            let par = TrialScheduler::new(threads)
                .run_trials(SeedSeq::new(11), 13, f)
                .unwrap();
            assert_eq!(seq.values(), par.values(), "threads={threads}");
        }
    }

    #[test]
    fn single_thread_parallel_degrades() {
        let f = |seed: SeedSeq| seed.value() as f64;
        let seq = run_trials(SeedSeq::new(2), 5, f).unwrap();
        let par = TrialScheduler::new(1)
            .run_trials(SeedSeq::new(2), 5, f)
            .unwrap();
        assert_eq!(seq.values(), par.values());
    }

    #[test]
    fn zero_trials_is_an_error_not_a_panic() {
        assert_eq!(
            run_trials(SeedSeq::new(0), 0, |_| 0.0),
            Err(EmptySampleError)
        );
        assert_eq!(
            TrialScheduler::new(4).run_trials(SeedSeq::new(0), 0, |_| 0.0),
            Err(EmptySampleError)
        );
        assert_eq!(
            TrialScheduler::serial().run_trials(SeedSeq::new(0), 0, |_| 0.0),
            Err(EmptySampleError)
        );
    }

    #[test]
    fn summary_reflects_values() {
        let set = run_trials(SeedSeq::new(1), 4, |s| (s.value() % 7) as f64).unwrap();
        let expect = Summary::from_values(set.values().iter().copied()).unwrap();
        assert_eq!(*set.summary(), expect);
    }

    #[test]
    fn scheduler_commits_in_index_order() {
        // Stagger completions so high indices finish first; the
        // committer must still observe 0, 1, 2, ….
        let sched = TrialScheduler::new(4);
        let mut seen = Vec::new();
        sched.run_committed(
            16,
            |i| {
                std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 200) as u64));
                i * 10
            },
            |i, v| seen.push((i, v)),
        );
        let expect: Vec<(usize, usize)> = (0..16).map(|i| (i, i * 10)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scheduler_run_is_thread_count_invariant() {
        let reference = TrialScheduler::serial().run(37, |i| i as u64 * 3 + 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                TrialScheduler::new(threads).run(37, |i| i as u64 * 3 + 1),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scheduler_handles_empty_and_tiny_inputs() {
        let sched = TrialScheduler::new(8);
        assert_eq!(sched.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(sched.run(1, |i| i + 41), vec![41]);
        assert_eq!(sched.run(2, |i| i), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "job 5 exploded")]
    fn serial_run_reraises_a_job_panic() {
        TrialScheduler::new(1).run(8, |i| assert_ne!(i, 5, "job 5 exploded"));
    }

    #[test]
    #[should_panic(expected = "job 5 exploded")]
    fn parallel_run_reraises_a_job_panic() {
        TrialScheduler::new(4).run(8, |i| assert_ne!(i, 5, "job 5 exploded"));
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let sched = TrialScheduler::new(0);
        assert!(sched.threads() >= 1);
        assert_eq!(sched.run(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    /// A job that panics on given (index, attempt) pairs and errors on
    /// others; succeeds otherwise with a pure function of the index.
    fn faulty_job<'a>(
        panics: &'a [(usize, u32)],
        errors: &'a [(usize, u32)],
    ) -> impl Fn(usize, u32) -> Result<u64, String> + Sync + 'a {
        move |i, a| {
            if panics.contains(&(i, a)) {
                panic!("injected fault: trial {i} attempt {a}");
            }
            if errors.contains(&(i, a)) {
                return Err(format!("injected error: trial {i} attempt {a}"));
            }
            Ok(i as u64 * 7 + 1)
        }
    }

    fn run_resilient(
        threads: usize,
        n: usize,
        retry: RetryPolicy,
        panics: &[(usize, u32)],
        errors: &[(usize, u32)],
    ) -> (Vec<(usize, Result<u64, TrialFailure>)>, FaultStats) {
        let mut committed = Vec::new();
        let job = faulty_job(panics, errors);
        let stats = TrialScheduler::new(threads).run_committed_resilient_stateful(
            n,
            retry,
            || (),
            |(), i, a| job(i, a),
            |i, v| committed.push((i, v)),
        );
        (committed, stats)
    }

    #[test]
    fn resilient_retries_panics_and_typed_errors_to_success() {
        for threads in [1, 4] {
            let (committed, stats) = run_resilient(
                threads,
                8,
                RetryPolicy::default(),
                &[(2, 0)],
                &[(5, 0), (5, 1)],
            );
            assert_eq!(committed.len(), 8, "threads={threads}");
            for (i, v) in &committed {
                assert_eq!(v.as_ref().unwrap(), &(*i as u64 * 7 + 1));
            }
            assert_eq!(stats.panics, 1, "threads={threads}");
            assert_eq!(stats.workers_respawned, 1);
            assert_eq!(stats.typed_failures, 2);
            assert_eq!(stats.retries, 3);
            assert_eq!(stats.failed_trials, 0);
            // 250 (trial 2 attempt 0) + 250 + 500 (trial 5).
            assert_eq!(stats.backoff_units, 1000);
        }
    }

    #[test]
    fn resilient_exhausted_budget_degrades_gracefully() {
        // Trial 3 panics on every attempt; the run still completes and
        // commits a TrialFailure in order.
        for threads in [1, 3] {
            let panics: Vec<(usize, u32)> = (0..3).map(|a| (3usize, a)).collect();
            let (committed, stats) =
                run_resilient(threads, 6, RetryPolicy::default(), &panics, &[]);
            assert_eq!(committed.len(), 6, "threads={threads}");
            assert_eq!(
                committed.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..6).collect::<Vec<_>>()
            );
            let failure = committed[3].1.as_ref().unwrap_err();
            assert_eq!(failure.index, 3);
            assert_eq!(failure.attempts, 3);
            assert!(matches!(&failure.kind, FailureKind::Panic(m) if m.contains("trial 3")));
            assert_eq!(stats.failed_trials, 1);
            assert_eq!(stats.panics, 3);
            assert_eq!(stats.workers_respawned, 3);
        }
    }

    #[test]
    fn resilient_stats_and_commits_are_thread_count_invariant() {
        let panics = [(1usize, 0u32), (6, 0), (6, 1)];
        let errors = [(4usize, 0u32)];
        let (reference, ref_stats) = run_resilient(1, 12, RetryPolicy::default(), &panics, &errors);
        for threads in [2, 4, 8] {
            let (committed, stats) =
                run_resilient(threads, 12, RetryPolicy::default(), &panics, &errors);
            assert_eq!(committed, reference, "threads={threads}");
            assert_eq!(stats, ref_stats, "threads={threads}");
        }
        assert!(!ref_stats.is_clean());
    }

    #[test]
    fn resilient_without_faults_matches_run_committed() {
        for threads in [1, 4] {
            let mut plain = Vec::new();
            TrialScheduler::new(threads).run_committed(9, |i| i * 2, |i, v| plain.push((i, v)));
            let mut resilient = Vec::new();
            let stats = TrialScheduler::new(threads).run_committed_resilient_stateful(
                9,
                RetryPolicy::none(),
                || (),
                |(), i, _attempt| Ok::<usize, String>(i * 2),
                |i, v| resilient.push((i, v.unwrap())),
            );
            assert_eq!(plain, resilient, "threads={threads}");
            assert!(stats.is_clean());
        }
    }

    #[test]
    fn fault_stats_count_work_and_merge() {
        let (_, stats) = run_resilient(1, 5, RetryPolicy::none(), &[], &[]);
        assert_eq!(stats.trials_computed, 5);
        assert!(stats.is_clean(), "work accounting is not a fault");
        let (_, par) = run_resilient(4, 5, RetryPolicy::none(), &[], &[]);
        assert_eq!(par.trials_computed, 5, "thread-count invariant");
        let mut total = FaultStats::default();
        total.merge(&stats);
        total.merge(&par);
        assert_eq!(total.trials_computed, 10);
        assert!(total.is_clean());
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: 100,
            backoff_cap: 350,
        };
        assert_eq!(p.backoff_for(0), 100);
        assert_eq!(p.backoff_for(1), 200);
        assert_eq!(p.backoff_for(2), 350);
        assert_eq!(p.backoff_for(63), 350);
        assert_eq!(p.backoff_for(64), 350, "shift overflow must hit the cap");
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
