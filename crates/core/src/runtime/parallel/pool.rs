//! The ticket pool: a closed set of independent tasks across a fixed
//! number of workers, results handed over in input order.
//!
//! A [`Pool`] run numbers its tasks `0..total`. Workers claim them *in
//! that order* from one ticket counter — the task set is closed at
//! submission (tasks never spawn tasks), so the ticket alone balances it:
//! whoever is free takes the next one. The caller's thread is worker 0,
//! so a width of 1 is a plain sequential loop with no thread ever
//! spawned.
//!
//! What the batch drivers build on:
//!
//! * **Ordered delivery.** [`Pool::run_ordered`] hands each result to
//!   `deliver(index, result)` in input order, as soon as every result
//!   before it has been handed over. There is no writer thread: the
//!   worker that completes the head of the order drains the ready prefix
//!   under the pool's one lock.
//! * **Bounded run-ahead.** No worker claims ticket `i` while
//!   `i >= delivered + 2 * width`; it waits for the delivery that makes
//!   room. At most `2 * width` tickets are therefore ever claimed and
//!   undelivered — running, or completed and pending — whatever the batch
//!   length: the pooled memory bound of ARCHITECTURE invariant 13.
//!   [`Pool::run`] collects every result anyway and claims without the
//!   bound.
//! * **First-error cancellation, clean drain.** The first error — a
//!   task's or `deliver`'s — raises the cancellation flag; workers finish
//!   the task they are on (nothing is interrupted mid-document), claim
//!   nothing further, and the lowest-indexed error is returned. Tickets
//!   are claimed in order, so every task before that index ran to
//!   completion and was delivered, and nothing at or after it ever is:
//!   exactly what a sequential loop over the same inputs leaves behind.
//!   No lock is held while a task runs, so an error poisons nothing; a
//!   *panicking* task trips an unwind guard that cancels the batch and
//!   wakes waiting siblings, the scope joins, and the panic propagates to
//!   the caller instead of hanging the pool.
//!
//! The implicit join of `std::thread::scope` is the one blocking point at
//! the end of a run, and what drains in-flight work on cancellation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// An executor of a fixed width.
///
/// The pool itself is just the configuration; tickets and workers live
/// for one run (scoped threads, so tasks may borrow from the caller's
/// stack). Spawning a handful of OS threads per batch is noise next to
/// prefiltering even one document.
pub struct Pool {
    threads: usize,
    /// Most results that were pending at any moment of any run.
    pending_peak: AtomicUsize,
}

impl Pool {
    /// A pool of `threads` workers, at most the machine's available
    /// parallelism (more would only take turns on the same cores); `0`
    /// means exactly that many, and one worker always exists.
    pub fn new(threads: usize) -> Pool {
        // One worker fits any machine; asking costs a walk of the cgroup
        // files, which a sequential run should not pay.
        if threads == 1 {
            return Pool::exact(1);
        }
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool::exact(if threads == 0 { avail } else { threads.min(avail) })
    }

    /// A pool of exactly `threads` workers whatever the machine has: for
    /// tests of the scheduling contract on a small host.
    #[doc(hidden)]
    pub fn exact(threads: usize) -> Pool {
        Pool { threads: threads.max(1), pending_peak: AtomicUsize::new(0) }
    }

    /// The worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workers a run over `tasks` tasks uses: a worker that could
    /// never receive a task is neither spawned nor given state.
    pub fn width(&self, tasks: usize) -> usize {
        self.threads.min(tasks.max(1))
    }

    /// Most results that were pending (completed, not yet delivered) at
    /// any moment of this pool's runs: the deterministic twin of a memory
    /// reading, for the tests that pin the run-ahead bound.
    #[doc(hidden)]
    pub fn pending_peak(&self) -> usize {
        self.pending_peak.load(Ordering::Relaxed)
    }

    /// Run every task, returning the results in input order, or the
    /// lowest-indexed error after a clean drain (module docs).
    ///
    /// `make_worker` builds each worker's owned state once (worker ids
    /// are `0..width(tasks.len())`); `job` processes one task against that
    /// state. Tasks are independent by construction — nothing is shared
    /// between them except what `job` captures, which must therefore be
    /// `Sync`.
    pub fn run<T, R, E, Wk, MW, F>(
        &self,
        tasks: Vec<T>,
        make_worker: MW,
        job: F,
    ) -> Result<Vec<R>, (usize, E)>
    where
        T: Send,
        R: Send,
        E: Send,
        MW: Fn(usize) -> Wk + Sync,
        F: Fn(&mut Wk, T) -> Result<R, E> + Sync,
    {
        let total = tasks.len();
        let mut results = Vec::with_capacity(total);
        // Every result is held until the return: nothing to bound.
        self.drive(tasks, total, make_worker, job, |_, r| {
            results.push(r);
            Ok(())
        })?;
        Ok(results)
    }

    /// Run every task and hand each result to `deliver(index, result)` in
    /// input order with at most `2 * width` results pending (module docs).
    /// `deliver` runs on whichever worker completed the head of the
    /// order, one call at a time; its error cancels the batch like a
    /// task's. On `Err((k, _))` exactly the results `0..k` were delivered.
    pub fn run_ordered<T, R, E, Wk, MW, F, D>(
        &self,
        tasks: Vec<T>,
        make_worker: MW,
        job: F,
        deliver: D,
    ) -> Result<(), (usize, E)>
    where
        T: Send,
        R: Send,
        E: Send,
        MW: Fn(usize) -> Wk + Sync,
        F: Fn(&mut Wk, T) -> Result<R, E> + Sync,
        D: FnMut(usize, R) -> Result<(), E> + Send,
    {
        let ahead = 2 * self.width(tasks.len());
        self.drive(tasks, ahead, make_worker, job, deliver)
    }

    /// One run: tickets claimed at most `ahead` past the delivered prefix.
    fn drive<T, R, E, Wk, MW, F, D>(
        &self,
        tasks: Vec<T>,
        ahead: usize,
        make_worker: MW,
        job: F,
        deliver: D,
    ) -> Result<(), (usize, E)>
    where
        T: Send,
        R: Send,
        E: Send,
        MW: Fn(usize) -> Wk + Sync,
        F: Fn(&mut Wk, T) -> Result<R, E> + Sync,
        D: FnMut(usize, R) -> Result<(), E> + Send,
    {
        if tasks.is_empty() {
            return Ok(());
        }
        let width = self.width(tasks.len());
        crate::obs::gauge_set(crate::obs::GaugeId::PoolWorkers, width as u64);
        let shared = Shared {
            order: Mutex::new(Order {
                tasks: tasks.into_iter(),
                next: 0,
                delivered: 0,
                pending: BTreeMap::new(),
                pending_peak: 0,
                waiting: 0,
                cancel: false,
                error: None,
                deliver,
            }),
            room: Condvar::new(),
            ahead,
        };
        std::thread::scope(|scope| {
            for id in 1..width {
                let (shared, make_worker, job) = (&shared, &make_worker, &job);
                scope.spawn(move || worker_loop(id, shared, make_worker, job));
            }
            worker_loop(0, &shared, &make_worker, &job);
        });
        let order = shared.order.into_inner().expect("pool order lock");
        crate::obs::gauge_max(crate::obs::GaugeId::PoolQueueDepthPeak, order.pending_peak as u64);
        self.pending_peak.fetch_max(order.pending_peak, Ordering::Relaxed);
        order.error.map_or(Ok(()), Err)
    }
}

/// State shared by the workers of one run.
struct Shared<T, R, E, D> {
    order: Mutex<Order<T, R, E, D>>,
    /// Signalled when a delivery made room for a run-ahead waiter, and on
    /// cancellation.
    room: Condvar,
    /// Tickets may be claimed up to this far past the delivered prefix.
    ahead: usize,
}

/// Everything behind the pool's one lock.
struct Order<T, R, E, D> {
    /// The ticket counter: the tasks not yet claimed, and the index of
    /// the first of them.
    tasks: std::vec::IntoIter<T>,
    next: usize,
    /// Results `0..delivered` have been handed to `deliver`.
    delivered: usize,
    /// Completed results waiting for the ones before them.
    pending: BTreeMap<usize, R>,
    pending_peak: usize,
    /// Workers waiting for room to claim.
    waiting: usize,
    /// Raised by the first error or panic: nothing further is claimed.
    cancel: bool,
    /// The lowest-indexed error so far.
    error: Option<(usize, E)>,
    deliver: D,
}

impl<T, R, E, D: FnMut(usize, R) -> Result<(), E>> Shared<T, R, E, D> {
    fn lock(&self) -> MutexGuard<'_, Order<T, R, E, D>> {
        // Poisoned only by a panic inside `deliver`, which is propagating.
        self.order.lock().expect("pool order lock")
    }

    /// The next ticket, once it is within the run-ahead bound; `None`
    /// when the tickets are gone or the batch is cancelled.
    fn claim(&self) -> Option<(usize, T)> {
        let mut order = self.lock();
        loop {
            if order.cancel || order.tasks.len() == 0 {
                return None;
            }
            if order.next < order.delivered + self.ahead {
                let ticket = (order.next, order.tasks.next()?);
                order.next += 1;
                return Some(ticket);
            }
            // The head of the order is running on a sibling (tickets are
            // claimed in order and a claimed ticket is always run), so
            // the delivery this waits for is on its way.
            crate::obs::add(crate::obs::CounterId::PoolParks, 1);
            order.waiting += 1;
            order = self.room.wait(order).expect("pool order lock");
            order.waiting -= 1;
        }
    }

    /// Task `idx` finished: keep the lowest error, or park the result and
    /// hand over whatever prefix is now complete.
    fn complete(&self, idx: usize, res: Result<R, E>) {
        let mut order = self.lock();
        match res {
            Ok(r) => {
                order.pending.insert(idx, r);
                order.pending_peak = order.pending_peak.max(order.pending.len());
            }
            Err(e) => self.fail(&mut order, idx, e),
        }
        let before = order.delivered;
        // Nothing at or after an error's index is ever handed over.
        while order.error.as_ref().is_none_or(|(k, _)| order.delivered < *k) {
            let at = order.delivered;
            let Some(r) = order.pending.remove(&at) else { break };
            match (order.deliver)(at, r) {
                Ok(()) => order.delivered += 1,
                Err(e) => self.fail(&mut order, at, e),
            }
        }
        if order.delivered > before && order.waiting > 0 {
            crate::obs::add(crate::obs::CounterId::PoolWakes, 1);
            self.room.notify_all();
        }
    }

    fn fail(&self, order: &mut Order<T, R, E, D>, idx: usize, e: E) {
        if order.error.as_ref().is_none_or(|(k, _)| idx < *k) {
            order.error = Some((idx, e));
        }
        order.cancel = true;
        self.room.notify_all();
    }
}

fn worker_loop<T, R, E, Wk, D>(
    id: usize,
    shared: &Shared<T, R, E, D>,
    make_worker: &(impl Fn(usize) -> Wk + Sync),
    job: &(impl Fn(&mut Wk, T) -> Result<R, E> + Sync),
) where
    D: FnMut(usize, R) -> Result<(), E>,
{
    /// Armed across a task: a panicking job (or `deliver`) unwinds past
    /// its completion, so a sibling waiting for room behind it would wait
    /// forever while the scope waits to join the dead thread. The guard
    /// turns that unwind into a cancellation plus a wakeup — under the
    /// lock, so a sibling between its check and its wait cannot miss it.
    struct PanicGuard<'a, T, R, E, D> {
        shared: &'a Shared<T, R, E, D>,
        armed: bool,
    }
    impl<T, R, E, D> Drop for PanicGuard<'_, T, R, E, D> {
        fn drop(&mut self) {
            if self.armed {
                // A panic inside `deliver` poisoned the lock; the flag
                // is valid either way.
                let mut order = self.shared.order.lock().unwrap_or_else(PoisonError::into_inner);
                order.cancel = true;
                self.shared.room.notify_all();
            }
        }
    }

    let mut wk = make_worker(id);
    while let Some((idx, task)) = shared.claim() {
        let mut guard = PanicGuard { shared, armed: true };
        // Clock reads only when observability is on; the counter bumps
        // below self-gate.
        let busy = crate::obs::enabled().then(std::time::Instant::now);
        let res = job(&mut wk, task);
        if let Some(t0) = busy {
            crate::obs::add_nanos(crate::obs::CounterId::PoolBusyNanos, t0.elapsed().as_nanos());
        }
        crate::obs::add(crate::obs::CounterId::PoolTasks, 1);
        shared.complete(idx, res);
        guard.armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_input_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::exact(threads);
            assert_eq!(pool.threads(), threads);
            let tasks: Vec<u64> = (0..100).collect();
            let out: Vec<u64> =
                pool.run(tasks, |_| (), |(), t| Ok::<_, ()>(t * t)).expect("no task fails");
            assert_eq!(out, (0..100).map(|t| t * t).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Pool::new(0).threads(), avail);
        let out = Pool::new(0).run(vec![7usize], |_| (), |(), t| Ok::<_, ()>(t + 1)).unwrap();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn width_is_clamped_to_the_machine_and_to_the_tasks() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Pool::new(avail + 7).threads(), avail);
        assert_eq!(Pool::new(1).threads(), 1);
        assert_eq!(Pool::exact(avail + 7).threads(), avail + 7);
        assert_eq!(Pool::exact(8).width(3), 3);
        assert_eq!(Pool::exact(2).width(4096), 2);
        assert_eq!(Pool::exact(2).width(0), 1);
    }

    #[test]
    fn empty_batch_is_ok_and_spawns_nothing() {
        let built = AtomicUsize::new(0);
        let out: Vec<u8> = Pool::exact(4)
            .run(Vec::<u8>::new(), |_| built.fetch_add(1, Ordering::Relaxed), |_, t| Ok::<_, ()>(t))
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(built.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn worker_state_is_built_per_worker_and_reused() {
        // Each worker counts the tasks it ran; the counts must sum to the
        // task count (every task exactly once) across any distribution,
        // and no more workers are built than the run is wide.
        for threads in [1, 2, 8] {
            let (ran, built) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let out = Pool::exact(threads)
                .run(
                    (0..5u32).collect(),
                    |id| (id, built.fetch_add(1, Ordering::Relaxed)),
                    |_, t| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        Ok::<_, ()>(t)
                    },
                )
                .unwrap();
            assert_eq!(out.len(), 5);
            assert_eq!(ran.load(Ordering::Relaxed), 5, "threads={threads}");
            assert_eq!(built.load(Ordering::Relaxed), threads.min(5), "threads={threads}");
        }
    }

    #[test]
    fn first_error_cancels_and_reports_lowest_observed_index() {
        for threads in [1, 2, 8] {
            let pool = Pool::exact(threads);
            let tasks: Vec<usize> = (0..64).collect();
            let err = pool
                .run(tasks, |_| (), |(), t| if t == 13 { Err(format!("boom {t}")) } else { Ok(t) })
                .expect_err("task 13 fails");
            // Tasks after the cancellation are never claimed, never
            // reported.
            assert_eq!(err, (13, "boom 13".to_string()), "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_an_erroring_run() {
        // "Poisons nothing": the same pool (and the caller) can run again
        // right after a cancelled batch.
        let pool = Pool::exact(4);
        let _ = pool
            .run((0..8usize).collect(), |_| (), |(), t| if t % 2 == 0 { Err(t) } else { Ok(t) })
            .expect_err("half the tasks fail");
        let out = pool.run((0..8usize).collect(), |_| (), |(), t| Ok::<_, ()>(t)).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn parked_workers_exit_when_the_last_running_task_completes() {
        // The fast workers run out of tickets while task 0 is still
        // running on a sibling — it ends only after every other task has —
        // and must leave cleanly, the straggler delivering for all.
        let pool = Pool::exact(4);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let done_rx = Mutex::new(done_rx);
        let out = pool
            .run(
                (0..4u64).collect(),
                |_| done_tx.clone(),
                |tx, t| {
                    if t == 0 {
                        let rx = done_rx.lock().unwrap();
                        (1..4).for_each(|_| rx.recv().unwrap());
                    } else {
                        tx.send(()).unwrap();
                    }
                    Ok::<_, ()>(t)
                },
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn many_more_tasks_than_workers_all_complete() {
        let pool = Pool::exact(2);
        let mut next = 0u32;
        pool.run_ordered(
            (0..10_000u32).collect(),
            |_| (),
            |(), t| Ok::<_, ()>(t),
            |_, t| {
                assert_eq!(t, next);
                next += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(next, 10_000);
        let out =
            Pool::exact(3).run((0..1000u32).collect(), |_| (), |(), t| Ok::<_, ()>(t)).unwrap();
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        // The unwind guard must cancel the batch so siblings waiting for
        // room behind the dead ticket exit, the scope joins, and the panic
        // reaches the caller — this test *completing* is the point.
        for in_delivery in [false, true] {
            let res = std::panic::catch_unwind(|| {
                Pool::exact(4).run_ordered(
                    (0..64usize).collect(),
                    |_| (),
                    |(), t| {
                        if !in_delivery && t == 7 {
                            panic!("task panic");
                        }
                        Ok::<_, ()>(t)
                    },
                    |at, _| {
                        if in_delivery && at == 7 {
                            panic!("delivery panic");
                        }
                        Ok(())
                    },
                )
            });
            assert!(res.is_err(), "the panic must propagate out of the run");
        }
    }
}
