//! The process-wide worker pool every parallel launch runs on.
//!
//! [`run`] is the only entry point: it runs `f(item)` once per item — on the
//! calling thread plus whichever pool workers are idle — and returns the
//! results in item order once every call has finished. The pool starts
//! lazily on first use with `host_cores() − 1` named worker threads that
//! live until the process exits, so a launch pays for waking workers, never
//! for creating them (CuPBoP's runtime design: pool created once, block
//! ranges fed to it from a queue).
//!
//! **The caller participates.** A batch is a shared claim counter; the
//! caller queues invitations ("tickets") for idle workers and then claims
//! and runs items itself until none are left. Progress therefore never
//! depends on a free worker: a job may call [`run`] again (a node job
//! fanning out intra-node chunks), and any number of threads may call it
//! concurrently (parallel tests, several clusters), without deadlock — the
//! worst case is that a batch runs serially on its caller.
//!
//! It is process-wide rather than per-cluster because `SimCluster` is
//! `Clone` and short-lived clusters are common (one per served stream, one
//! per migrated program): a per-cluster pool would put the thread spawns
//! back into exactly the small-launch paths this module exists to relieve.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// Invitations waiting for an idle worker: one ticket lets one worker join
/// the batch until it is exhausted.
static TICKETS: Mutex<VecDeque<Arc<Batch>>> = Mutex::new(VecDeque::new());
static TICKET_READY: Condvar = Condvar::new();

/// Nothing in this module panics while holding a lock, so a poisoned one
/// still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the pool learned about the host when it started.
struct Host {
    cores: usize,
    /// Worker threads running: `cores − 1`, fewer if the OS refused some.
    workers: usize,
}

fn host() -> &'static Host {
    static HOST: OnceLock<Host> = OnceLock::new();
    HOST.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Never joined: workers own nothing and end with the process. A
        // thread the OS refuses to start only lowers the parallelism.
        let workers = (1..cores)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("cucc-pool-{i}"))
                    .spawn(worker)
                    .is_ok()
            })
            .count();
        Host { cores, workers }
    })
}

fn worker() {
    let mut tickets = lock(&TICKETS);
    loop {
        match tickets.pop_front() {
            Some(batch) => {
                drop(tickets);
                batch.drain();
                drop(batch);
                tickets = lock(&TICKETS);
            }
            None => {
                tickets = TICKET_READY
                    .wait(tickets)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// One [`run`] call as the workers see it.
struct Batch {
    /// The caller's per-index job with its borrow lifetime erased; see the
    /// `SAFETY` comment in [`run`] for why calling it is sound. It never
    /// unwinds.
    job: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// Next unclaimed index; `>= n` once the batch is exhausted.
    next: AtomicUsize,
    /// Calls (claimed or not) that have not returned yet.
    unfinished: AtomicUsize,
    caller: Thread,
    /// Checked twin of the lifetime erasure: set when [`run`] stops waiting,
    /// asserted clear before every call through `job`.
    #[cfg(debug_assertions)]
    caller_returned: std::sync::atomic::AtomicBool,
}

impl Batch {
    /// Claim and run indices until none are left.
    fn drain(&self) {
        loop {
            // Relaxed: a claim only has to be unique. What `job` reads was
            // published to workers by the `TICKETS` mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            #[cfg(debug_assertions)]
            assert!(
                !self.caller_returned.load(Ordering::SeqCst),
                "pool job called after its caller returned"
            );
            (self.job)(i);
            // Release, paired with the Acquire load in `FinishOnDrop::drop`:
            // the decrements form one release sequence, so a caller that
            // reads zero sees everything every job wrote.
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

/// Finishes the batch on drop — runs whatever is still unclaimed, then
/// blocks until every claimed call has returned — so [`run`] cannot leave,
/// by returning or by unwinding, while a worker may still call into its
/// frame.
struct FinishOnDrop<'a>(&'a Batch);

impl Drop for FinishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.drain();
        while self.0.unfinished.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        #[cfg(debug_assertions)]
        self.0.caller_returned.store(true, Ordering::SeqCst);
    }
}

/// Logical cores of the host (`std::thread::available_parallelism`, 1 if
/// unknown), read from the OS once per process. The pool has one worker
/// fewer than this, because the caller of [`run`] works too.
pub fn host_cores() -> usize {
    host().cores
}

/// Run `f(item)` exactly once for every item, in parallel where workers are
/// idle, and return the results in item order.
///
/// Returns only when every call has finished. If calls panic, the remaining
/// items still run; the panic of the earliest item is then re-raised on the
/// caller, and the pool stays usable.
pub fn run<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each index is claimed once, so these locks are never contended; the
    // mutexes are what lets a shared `Fn` move an item out and a result in.
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let job = |i: usize| {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let item = lock(&inputs[i]).take().expect("pool index claimed twice");
            f(item)
        }));
        *lock(&outputs[i]) = Some(result);
    };
    let job: &(dyn Fn(usize) + Sync) = &job;
    // SAFETY: this only erases the lifetime of the borrow of `job` (and,
    // through it, of `inputs`, `outputs` and `f`) so that persistent threads
    // can hold it. `Batch::drain` is the only code that calls it, and only
    // for a claimed index `i < n`; every such call is counted in
    // `unfinished` until it has returned. `FinishOnDrop` below keeps this
    // function from returning or unwinding before `unfinished` is zero, and
    // is dropped before anything `job` borrows. A ticket that outlives this
    // call can only observe `next >= n` and never touches `job` again. Debug
    // builds assert exactly that (`caller_returned`).
    let job = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
    };
    let batch = Arc::new(Batch {
        job,
        n,
        next: AtomicUsize::new(0),
        unfinished: AtomicUsize::new(n),
        caller: std::thread::current(),
        #[cfg(debug_assertions)]
        caller_returned: std::sync::atomic::AtomicBool::new(false),
    });
    {
        let _finish = FinishOnDrop(&batch);
        let invited = host().workers.min(n - 1);
        if invited > 0 {
            lock(&TICKETS).extend((0..invited).map(|_| Arc::clone(&batch)));
            for _ in 0..invited {
                TICKET_READY.notify_one();
            }
        }
    }
    let mut results = Vec::with_capacity(n);
    let mut first_panic = None;
    for slot in outputs {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(value)) => results.push(value),
            Some(Err(payload)) => {
                first_panic.get_or_insert(payload);
            }
            None => unreachable!("pool::run stopped waiting before every item completed"),
        }
    }
    match first_panic {
        Some(payload) => resume_unwind(payload),
        None => results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_item_runs_once_and_results_keep_item_order() {
        for n in [0usize, 1, 2, 1000] {
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = run((0..n).collect(), |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i * 3
            });
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "n={n}");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n={n}"
            );
        }
    }

    #[test]
    fn jobs_write_a_borrowed_buffer() {
        let mut buf = vec![0u32; 64 * 7];
        let chunks: Vec<(usize, &mut [u32])> = buf.chunks_mut(7).enumerate().collect();
        run(chunks, |(c, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (c * 7 + k) as u32;
            }
        });
        assert_eq!(buf, (0..64 * 7).collect::<Vec<u32>>());
    }

    #[test]
    fn panic_is_reraised_after_the_other_jobs_and_the_pool_survives() {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run((0..100).collect(), |i: usize| {
                if i == 37 || i == 80 {
                    panic!("job {i} failed");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the job's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 37 failed"),
            "the earliest panicking item wins"
        );
        assert_eq!(finished.load(Ordering::Relaxed), 98);
        assert_eq!(run(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn a_job_may_call_run_again() {
        let out = run((0..6u64).collect(), |i| {
            run((0..5u64).collect(), |j| i * 10 + j).iter().sum::<u64>()
        });
        assert_eq!(out, (0..6).map(|i| i * 50 + 10).collect::<Vec<u64>>());
    }

    #[test]
    fn eight_threads_share_the_pool() {
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..8u64)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        run((0..200u64).collect(), |i| t * 1000 + i)
                    })
                })
                .collect();
            for (t, h) in callers.into_iter().enumerate() {
                let want: Vec<u64> = (0..200).map(|i| t as u64 * 1000 + i).collect();
                assert_eq!(h.join().expect("caller thread"), want);
            }
        });
    }

    #[test]
    fn a_worker_runs_beside_the_caller() {
        if host().workers == 0 {
            return; // single-core host: the caller is the whole pool
        }
        // Both jobs must be inside `f` at once, so they are on two threads.
        let both_inside = Barrier::new(2);
        let names = run(vec![(), ()], |()| {
            both_inside.wait();
            std::thread::current().name().map(str::to_owned)
        });
        let on_worker =
            |n: &Option<String>| n.as_deref().is_some_and(|n| n.starts_with("cucc-pool-"));
        assert_eq!(
            names.iter().filter(|n| on_worker(n)).count(),
            1,
            "{names:?}"
        );
    }
}
