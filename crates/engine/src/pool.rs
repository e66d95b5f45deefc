//! The engine's worker pool: threads that live as long as their engine
//! and execute the jobs of every run on it.
//!
//! The thread that submits a run is its first worker: it runs one job
//! itself and hands only the rest to parked workers, so a one-job run
//! crosses no thread at all — no pool lock, no channel, no wake — and a
//! wider one spawns no thread per run. Workers are spawned on demand —
//! only when a job is queued that no idle worker will take — never up
//! front. On a 2-vCPU host an eagerly spawned pool raised the server's
//! peak RSS by 21–30 % on the hot-lock benchmark workloads (each new
//! thread claims its own malloc arena; capping glibc at one arena hid
//! most of the difference), while spawning on demand cost 5–8 %. A pool
//! therefore grows to the largest number of queued jobs ever in flight
//! at once, and keeps those workers until the engine drops.
//!
//! The pool's state is one leaf lock class, `engine.pool`: it is never
//! held while a job runs, nothing else is acquired under it, and an
//! idle worker parks on its condvar holding only that class.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// One unit of work. It runs on a worker with no lock held and returns
/// its hand-back, which the worker calls only after counting itself
/// idle again — so whoever the hand-back wakes can never observe the
/// job finished while its worker still looks busy.
type Job = Box<dyn FnOnce() -> HandBack + Send>;
type HandBack = Box<dyn FnOnce() + Send>;

/// A persistent pool of worker threads; dropping it closes the queue
/// and joins every worker.
pub(crate) struct Pool {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled once per queued job a spawn does not cover, and on
    /// close.
    ready: Condvar,
}

#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    /// Workers that will take a queued job without being spawned:
    /// parked, about to park, or just born. Kept ≥ `jobs.len()`.
    idle: usize,
    closed: bool,
    /// Every worker ever spawned, joined on drop.
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// An empty pool: no thread exists until the first job.
    pub(crate) fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new_named("engine.pool", State::default()),
                ready: Condvar::new(),
            }),
        }
    }

    /// Runs `work` as `n ≥ 1` concurrent jobs and returns their `n`
    /// results: the caller runs one job itself and queues the other
    /// `n − 1`, so a one-job run touches no pool state. A job that panics
    /// does not take its thread with it: once all `n` jobs are done, the
    /// first panic resumes on the caller.
    pub(crate) fn scatter<T, F>(&self, n: usize, work: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        if n <= 1 {
            return vec![work()];
        }
        let work = Arc::new(work);
        let (tx, rx) = mpsc::channel();
        self.submit((1..n).map(|_| {
            let (work, tx) = (Arc::clone(&work), tx.clone());
            Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(|| work()));
                Box::new(move || {
                    let _ = tx.send(result);
                }) as HandBack
            }) as Job
        }));
        drop(tx);
        let own = panic::catch_unwind(AssertUnwindSafe(|| work()));
        let mut results = Vec::with_capacity(n);
        let mut panicked = None;
        // Ends when every hand-back has sent and dropped its sender, so
        // even a panic of the caller's own job resumes only after every
        // queued job has finished.
        for result in std::iter::once(own).chain(rx.iter()) {
            match result {
                Ok(r) => results.push(r),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        results
    }

    /// Queues `jobs`, waking one idle worker per job and spawning a
    /// worker for each job no idle worker is left to take.
    fn submit(&self, jobs: impl Iterator<Item = Job>) {
        let (queued, spawn) = {
            let mut st = self.shared.state.lock();
            let before = st.jobs.len();
            st.jobs.extend(jobs);
            let queued = st.jobs.len() - before;
            let spawn = st.jobs.len().saturating_sub(st.idle);
            // A new worker counts as idle from birth until it takes a
            // job, so a concurrent submit does not spawn for it again.
            st.idle += spawn;
            (queued, spawn)
        };
        for _ in spawn..queued {
            self.shared.ready.notify_one();
        }
        if spawn == 0 {
            return;
        }
        let born: Vec<JoinHandle<()>> = (0..spawn)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name("ddlf-engine-worker".into())
                    .spawn(move || shared.work())
                    .expect("spawn an engine worker thread")
            })
            .collect();
        self.shared.state.lock().workers.extend(born);
    }

    /// Workers spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.shared.state.lock().workers.len()
    }

    /// A handle that stops upgrading once every worker has exited and
    /// the pool itself is gone.
    #[cfg(test)]
    pub(crate) fn downgrade(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Shared {
    /// A worker's life: take a job, run it unlocked, count itself idle,
    /// hand the result back, and park when the queue is empty — until
    /// the pool closes.
    fn work(&self) {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                st.idle -= 1;
                drop(st);
                let hand_back = job();
                self.state.lock().idle += 1;
                hand_back();
                st = self.state.lock();
            } else if st.closed {
                return;
            } else {
                self.ready.wait(&mut st);
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let workers = {
            let mut st = self.shared.state.lock();
            st.closed = true;
            std::mem::take(&mut st.workers)
        };
        self.shared.ready.notify_all();
        for w in workers {
            // Jobs catch their own panics, so a worker cannot have
            // died of one; there is nothing to report from a join.
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// By the time a job's hand-back runs, its worker already counts as
    /// idle, so a caller woken by the hand-back that submits again finds
    /// an idle worker instead of spawning one.
    #[test]
    fn a_worker_is_idle_before_its_hand_back_runs() {
        let pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let (shared, tx) = (Arc::clone(&pool.shared), tx.clone());
            pool.submit(std::iter::once(Box::new(move || {
                Box::new(move || {
                    let _ = tx.send(shared.state.lock().idle);
                }) as HandBack
            }) as Job));
            assert_eq!(rx.recv().expect("hand-back ran"), 1);
        }
        assert_eq!(pool.spawned(), 1);
    }

    /// The caller's own job panics while its queued job is still
    /// running: `scatter` returns only once that job has finished, and
    /// then resumes the caller's payload.
    #[test]
    fn a_callers_panic_waits_for_the_queued_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Pool::new();
        let caller = thread::current().id();
        let started = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
            pool.scatter(2, move || {
                if thread::current().id() == caller {
                    while !started.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                    panic!("caller's job failed");
                }
                started.store(true, Ordering::Release);
                thread::sleep(std::time::Duration::from_millis(50));
                finished.store(true, Ordering::Release);
            })
        }));
        assert!(
            finished.load(Ordering::Acquire),
            "scatter returned before its queued job finished"
        );
        let payload = caught.expect_err("the caller's panic must resume");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller's job failed"));
        assert_eq!(pool.spawned(), 1);
    }
}
