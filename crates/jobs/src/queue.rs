//! The pure job-scheduler core: a channel-free, socket-free [`JobQueue`]
//! plus a [`WorkerPool`] of OS threads draining it.
//!
//! Design constraints, in the order they shaped the code:
//!
//! * **Fairness.** Jobs are admitted FIFO per *lane*: [`Lane::Express`]
//!   (cheap, latency-sensitive — `verify`) and [`Lane::Batch`] (open-ended
//!   — attacks, hard SAT instances). When the pool has more than one
//!   worker, worker 0 serves the express lane **only**, so a
//!   one-second verify never queues behind an hour-long attack no matter
//!   how many batch jobs are in flight. The remaining workers drain
//!   express first, then batch. A single-worker pool degrades to
//!   express-before-batch priority.
//! * **Cancellation.** Every job owns a stop flag
//!   (`Arc<AtomicBool>`) that its work closure is handed at start, and
//!   every job kind passes it on to its solvers
//!   ([`Solver::set_stop`](cutelock_sat::Solver::set_stop)): an attack as
//!   its budget's stop flag, a `verify` to its equivalence proof, a
//!   `solve` to its one solver. So a `CANCEL` on a *running* job stops
//!   it at its solvers' next propagate/decide round. A `CANCEL` on a
//!   *queued* job retires it immediately without running it.
//! * **Isolation.** A job whose closure panics is `failed` with the panic
//!   message, and its worker goes on to the next job.
//! * **Memoization.** Every submit carries a cache key (the circuit
//!   fingerprint folded with the spec — see
//!   [`LockedCircuit::fingerprint`](cutelock_core::LockedCircuit::fingerprint));
//!   a key whose result is already cached completes the job instantly
//!   ([`JobStatus::cached`]), and a successful run populates the cache.
//!   So a job may succeed only with a result that is a function of its
//!   spec: an attack that runs out of wall-clock time fails instead.
//! * **Purity.** Nothing here touches sockets or stdio: the TCP layer in
//!   [`crate::server`] is a thin framing shim over these same methods,
//!   which is what makes the scheduler unit-testable in-process.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Admission lane of a job: which queue it waits in and which workers may
/// pick it up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Cheap, latency-sensitive work (verification); never starved behind
    /// batch jobs.
    Express,
    /// Open-ended work (attacks, hard SAT instances).
    Batch,
}

impl Lane {
    /// Wire/display name of the lane.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Lane::Express => "express",
            Lane::Batch => "batch",
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the job's closure.
    Running,
    /// Finished with a result.
    Done,
    /// Cancelled — either before it ran or mid-run via its stop flag.
    Cancelled,
    /// The closure returned an error or panicked.
    Failed,
}

impl JobState {
    /// Wire/display name of the state.
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// True when the job will never change state again.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A job's work: a closure receiving the job's stop flag (to be installed
/// into whatever long-running machinery the job drives) and returning a
/// single-line result string or a single-line error.
pub(crate) type JobWork = Box<dyn FnOnce(&Arc<AtomicBool>) -> Result<String, String> + Send>;

/// A parsed, ready-to-enqueue job request (built by [`crate::request`]).
///
/// `Debug` elides the work closure.
pub struct SubmitRequest {
    /// Human-readable label echoed in `STATUS` lines.
    pub label: String,
    /// Admission lane.
    pub lane: Lane,
    /// Result-cache key.
    pub cache_key: u64,
    /// The work itself.
    pub work: JobWork,
}

impl std::fmt::Debug for SubmitRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitRequest")
            .field("label", &self.label)
            .field("lane", &self.lane)
            .field("cache_key", &self.cache_key)
            .finish_non_exhaustive()
    }
}

/// Snapshot of one job, as reported by [`JobQueue::status`].
#[derive(Debug, Clone)]
pub(crate) struct JobStatus {
    /// The job's queue-assigned id.
    pub id: u64,
    /// Label from the submit.
    pub label: String,
    /// Admission lane.
    pub lane: Lane,
    /// Current lifecycle state.
    pub state: JobState,
    /// True when the result was served from the cache without running.
    pub cached: bool,
    /// Index of the worker that ran the job (`None` while queued, or when
    /// it never ran).
    pub ran_on: Option<usize>,
    /// Terminal result: `Ok(line)` for done, `Err(line)` for failed;
    /// `None` while pending or when cancelled.
    pub result: Option<Result<String, String>>,
}

struct Job {
    label: String,
    lane: Lane,
    state: JobState,
    cached: bool,
    stop: Arc<AtomicBool>,
    work: Option<JobWork>,
    cache_key: u64,
    result: Option<Result<String, String>>,
    ran_on: Option<usize>,
}

impl Job {
    /// This job's snapshot, under its id `id`.
    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            label: self.label.clone(),
            lane: self.lane,
            state: self.state,
            cached: self.cached,
            ran_on: self.ran_on,
            result: self.result.clone(),
        }
    }
}

#[derive(Default)]
struct QueueState {
    next_id: u64,
    jobs: HashMap<u64, Job>,
    express: VecDeque<u64>,
    batch: VecDeque<u64>,
    cache: HashMap<u64, String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when a job is enqueued or shutdown begins.
    work_ready: Condvar,
    /// Signalled when any job reaches a terminal state.
    job_done: Condvar,
}

/// The scheduler: admission queues, job table, result cache. Cheap to
/// clone (all clones share one state).
#[derive(Clone)]
pub(crate) struct JobQueue {
    shared: Arc<Shared>,
}

impl JobQueue {
    /// An empty queue with an empty cache.
    pub(crate) fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState::default()),
                work_ready: Condvar::new(),
                job_done: Condvar::new(),
            }),
        }
    }

    /// Admits a job and returns its id. If the request's cache key has a
    /// cached result, the job is born [`JobState::Done`] with
    /// [`JobStatus::cached`] set and never reaches a worker.
    pub(crate) fn submit(&self, req: SubmitRequest) -> u64 {
        let mut st = self.shared.state.lock().unwrap();
        st.next_id += 1;
        let id = st.next_id;
        let hit = st.cache.get(&req.cache_key).cloned();
        let cached = hit.is_some();
        let job = Job {
            label: req.label,
            lane: req.lane,
            state: if cached {
                JobState::Done
            } else {
                JobState::Queued
            },
            cached,
            stop: Arc::new(AtomicBool::new(false)),
            work: if cached { None } else { Some(req.work) },
            cache_key: req.cache_key,
            result: hit.map(Ok),
            ran_on: None,
        };
        st.jobs.insert(id, job);
        if cached {
            self.shared.job_done.notify_all();
        } else {
            match st.jobs[&id].lane {
                Lane::Express => st.express.push_back(id),
                Lane::Batch => st.batch.push_back(id),
            }
            self.shared.work_ready.notify_all();
        }
        id
    }

    /// Snapshot of a job, or `None` for an unknown id.
    pub(crate) fn status(&self, id: u64) -> Option<JobStatus> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.get(&id).map(|j| j.status(id))
    }

    /// Blocks until the job reaches a terminal state, then returns its
    /// snapshot (`None` for an unknown id).
    pub(crate) fn wait(&self, id: u64) -> Option<JobStatus> {
        let st = self.shared.state.lock().unwrap();
        let st = self
            .shared
            .job_done
            .wait_while(st, |st| {
                st.jobs.get(&id).is_some_and(|j| !j.state.is_terminal())
            })
            .unwrap();
        st.jobs.get(&id).map(|j| j.status(id))
    }

    /// Requests cancellation. A queued job retires immediately
    /// ([`JobState::Cancelled`]); a running job has its stop flag raised —
    /// the attack unwinds within one portfolio epoch and the worker marks
    /// it cancelled on return. Terminal jobs are left as they are.
    /// Returns the state observed *after* the request, or `None` for an
    /// unknown id.
    pub(crate) fn cancel(&self, id: u64) -> Option<JobState> {
        let mut st = self.shared.state.lock().unwrap();
        let job = st.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.work = None;
                let lane = job.lane;
                match lane {
                    Lane::Express => st.express.retain(|&q| q != id),
                    Lane::Batch => st.batch.retain(|&q| q != id),
                }
                self.shared.job_done.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                job.stop.store(true, Ordering::Relaxed);
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// Begins shutdown: queued jobs are cancelled, running jobs have their
    /// stop flags raised, workers exit once idle. Idempotent.
    pub(crate) fn shutdown(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        let mut queued: Vec<u64> = st.express.drain(..).collect();
        queued.extend(st.batch.drain(..));
        for id in queued {
            if let Some(job) = st.jobs.get_mut(&id) {
                job.state = JobState::Cancelled;
                job.work = None;
            }
        }
        for job in st.jobs.values_mut() {
            if job.state == JobState::Running {
                job.stop.store(true, Ordering::Relaxed);
            }
        }
        self.shared.work_ready.notify_all();
        self.shared.job_done.notify_all();
    }

    /// True once [`JobQueue::shutdown`] has been called.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shared.state.lock().unwrap().shutdown
    }

    /// Spawns `workers` OS threads draining this queue (at least one).
    /// Worker 0 is the express-reserved worker when `workers > 1`.
    pub(crate) fn spawn_workers(&self, workers: usize) -> WorkerPool {
        let n = workers.max(1);
        let handles = (0..n)
            .map(|i| {
                let q = self.clone();
                std::thread::Builder::new()
                    .name(format!("cutelock-job-{i}"))
                    .spawn(move || q.worker_loop(i, n))
                    .expect("spawn job worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Pops the next job this worker may run, blocking until one exists or
    /// shutdown. Returns `(id, work, stop)`.
    fn next_job(&self, worker: usize, workers: usize) -> Option<(u64, JobWork, Arc<AtomicBool>)> {
        let express_only = workers > 1 && worker == 0;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            let id = match st.express.pop_front() {
                Some(id) => Some(id),
                None if express_only => None,
                None => st.batch.pop_front(),
            };
            if let Some(id) = id {
                let job = st.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                job.ran_on = Some(worker);
                let work = job.work.take().expect("queued job has work");
                let stop = Arc::clone(&job.stop);
                return Some((id, work, stop));
            }
            st = self.shared.work_ready.wait(st).unwrap();
        }
    }

    fn worker_loop(&self, worker: usize, workers: usize) {
        while let Some((id, work, stop)) = self.next_job(worker, workers) {
            // Run outside the lock — this is the long part. A panic fails
            // the job and leaves the worker serving.
            let result = catch_unwind(AssertUnwindSafe(|| work(&stop)))
                .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&*panic))));
            let mut st = self.shared.state.lock().unwrap();
            if let Some(job) = st.jobs.get_mut(&id) {
                // Only a cancel or a shutdown raises the stop flag, and
                // only under this lock.
                if stop.load(Ordering::Relaxed) {
                    job.state = JobState::Cancelled;
                    job.result = None;
                } else {
                    job.state = if result.is_ok() {
                        JobState::Done
                    } else {
                        JobState::Failed
                    };
                    let cache_entry = result.as_ref().ok().map(|l| (job.cache_key, l.clone()));
                    job.result = Some(result);
                    if let Some((key, line)) = cache_entry {
                        st.cache.insert(key, line);
                    }
                }
            }
            self.shared.job_done.notify_all();
        }
    }
}

/// The message a job panicked with, on one line (a result is one line of
/// the protocol).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    message.replace(['\n', '\r'], " ")
}

/// Join guard for the worker threads of one [`JobQueue`].
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Waits for every worker to exit (they do so after
    /// [`JobQueue::shutdown`]).
    pub(crate) fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_core::clock::ClockHandle;
    use std::time::Duration;

    fn ok_job(cache_key: u64, label: &str, line: &str) -> SubmitRequest {
        let line = line.to_string();
        SubmitRequest {
            label: label.into(),
            lane: Lane::Batch,
            cache_key,
            work: Box::new(move |_| Ok(line)),
        }
    }

    /// A job that parks until its stop flag is raised, then reports how it
    /// exited — the scheduler-level stand-in for a cancellable attack.
    fn parked_job(cache_key: u64, label: &str, lane: Lane) -> SubmitRequest {
        SubmitRequest {
            label: label.into(),
            lane,
            cache_key,
            work: Box::new(|stop| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok("stopped".into())
            }),
        }
    }

    #[test]
    fn fifo_within_a_lane() {
        let q = JobQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let order = Arc::clone(&order);
            q.submit(SubmitRequest {
                label: format!("j{i}"),
                lane: Lane::Batch,
                cache_key: i,
                work: Box::new(move |_| {
                    order.lock().unwrap().push(i);
                    Ok(String::new())
                }),
            });
        }
        let pool = q.spawn_workers(1);
        for id in 1..=4 {
            assert_eq!(q.wait(id).unwrap().state, JobState::Done);
        }
        q.shutdown();
        pool.join();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn express_jobs_bypass_a_busy_batch_lane() {
        let q = JobQueue::new();
        // Two workers: worker 0 is express-reserved. Saturate the batch
        // capacity (worker 1) with a parked job, then submit an express
        // job — it must complete while the batch job is still running.
        let blocker = q.submit(parked_job(1, "blocker", Lane::Batch));
        let pool = q.spawn_workers(2);
        // Wait until the blocker is actually running.
        while q.status(blocker).unwrap().state != JobState::Running {
            std::thread::sleep(Duration::from_millis(1));
        }
        let fast = q.submit(SubmitRequest {
            label: "verify".into(),
            lane: Lane::Express,
            cache_key: 2,
            work: Box::new(|_| Ok("verified".into())),
        });
        let st = q.wait(fast).unwrap();
        assert_eq!(st.state, JobState::Done);
        assert_eq!(st.ran_on, Some(0), "express must run on worker 0");
        assert_eq!(
            q.status(blocker).unwrap().state,
            JobState::Running,
            "the batch job must still be running — express did not queue behind it"
        );
        q.cancel(blocker);
        assert_eq!(q.wait(blocker).unwrap().state, JobState::Cancelled);
        q.shutdown();
        pool.join();
    }

    #[test]
    fn queued_job_cancels_without_running() {
        let q = JobQueue::new();
        // No workers: the job can never start.
        let id = q.submit(ok_job(1, "never", "x"));
        assert_eq!(q.cancel(id), Some(JobState::Cancelled));
        let st = q.status(id).unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        assert!(st.result.is_none());
    }

    #[test]
    fn running_job_cancels_via_its_stop_flag() {
        let q = JobQueue::new();
        let id = q.submit(parked_job(1, "parked", Lane::Batch));
        let pool = q.spawn_workers(1);
        while q.status(id).unwrap().state != JobState::Running {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.cancel(id), Some(JobState::Running));
        let st = q.wait(id).unwrap();
        // The closure returned Ok("stopped") but the cancel request wins.
        assert_eq!(st.state, JobState::Cancelled);
        assert!(st.result.is_none());
        q.shutdown();
        pool.join();
    }

    #[test]
    fn cache_hit_completes_without_a_worker() {
        let q = JobQueue::new();
        let key = 0xfeed;
        let first = q.submit(SubmitRequest {
            label: "a".into(),
            lane: Lane::Batch,
            cache_key: key,
            work: Box::new(|_| Ok("computed".into())),
        });
        let pool = q.spawn_workers(1);
        assert_eq!(q.wait(first).unwrap().result, Some(Ok("computed".into())));
        q.shutdown();
        pool.join();
        // Workers are gone; an identical resubmit must still complete.
        // (Shutdown blocks new *work*, not cache lookups — mirrors the
        // daemon, where submits stop at the socket layer instead.)
        let second = q.submit(SubmitRequest {
            label: "a again".into(),
            lane: Lane::Batch,
            cache_key: key,
            work: Box::new(|_| panic!("must not run")),
        });
        let st = q.status(second).unwrap();
        assert_eq!(st.state, JobState::Done);
        assert!(st.cached);
        assert_eq!(st.result, Some(Ok("computed".into())));
    }

    #[test]
    fn distinct_keys_do_not_collide_and_failures_are_not_cached() {
        let q = JobQueue::new();
        let pool = q.spawn_workers(1);
        let fail = q.submit(SubmitRequest {
            label: "fails".into(),
            lane: Lane::Batch,
            cache_key: 1,
            work: Box::new(|_| Err("boom".into())),
        });
        assert_eq!(q.wait(fail).unwrap().state, JobState::Failed);
        let retry = q.submit(SubmitRequest {
            label: "retries".into(),
            lane: Lane::Batch,
            cache_key: 1,
            work: Box::new(|_| Ok("recovered".into())),
        });
        let st = q.wait(retry).unwrap();
        assert!(!st.cached, "a failure must not populate the cache");
        assert_eq!(st.result, Some(Ok("recovered".into())));
        let other = q.submit(SubmitRequest {
            label: "other key".into(),
            lane: Lane::Batch,
            cache_key: 2,
            work: Box::new(|_| Ok("different".into())),
        });
        let st = q.wait(other).unwrap();
        assert!(!st.cached, "distinct keys must not hit");
        q.shutdown();
        pool.join();
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_keeps_serving() {
        let q = JobQueue::new();
        let pool = q.spawn_workers(1);
        let panics = q.submit(SubmitRequest {
            label: "panics".into(),
            lane: Lane::Batch,
            cache_key: 1,
            work: Box::new(|_| panic!("boom")),
        });
        let after = q.submit(ok_job(2, "after", "served"));
        // Poll against a deadline, not `wait`: a worker killed by the panic
        // would leave `after` queued forever.
        let clock = ClockHandle::wall();
        let deadline = clock.now() + Duration::from_secs(10);
        while !q.status(after).unwrap().state.is_terminal() {
            assert!(clock.now() < deadline, "the panic took its worker down");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.status(after).unwrap().result, Some(Ok("served".into())));
        let st = q.status(panics).unwrap();
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.result, Some(Err("job panicked: boom".into())));
        // The failure was not cached: the same key runs again.
        let retry = q.submit(ok_job(1, "retry", "recovered"));
        let st = q.wait(retry).unwrap();
        assert!(!st.cached);
        assert_eq!(st.result, Some(Ok("recovered".into())));
        q.shutdown();
        pool.join();
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_stops_workers() {
        let q = JobQueue::new();
        let queued = q.submit(ok_job(1, "queued", "x"));
        q.shutdown();
        assert_eq!(q.status(queued).unwrap().state, JobState::Cancelled);
        // Workers spawned after shutdown exit immediately.
        let pool = q.spawn_workers(3);
        pool.join();
        assert!(q.is_shutting_down());
    }
}
