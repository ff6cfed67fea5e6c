//! The pool's scheduling contract over random task costs, through its
//! public surface: delivery order is input order, at most `2 * width`
//! results are ever pending (the deterministic twin of a peak-RSS
//! reading: ARCHITECTURE invariant 13), an error at `k` delivers exactly
//! the results before `k`, the lowest failing index wins. Widths are
//! exact (`Pool::exact`), so the contract is tested on a one-CPU host too.

use smpx_core::Pool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// `xorshift64*`: task costs that differ from run to run of the loop,
/// not from run to run of the suite.
struct Costs(u64);

impl Costs {
    fn next(&mut self, below: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % below
    }
}

/// A task of `cost` scheduler yields: long enough for siblings to
/// overtake it, with no clock involved.
fn spend(cost: u64) {
    for _ in 0..cost {
        std::thread::yield_now();
    }
}

#[test]
fn delivery_is_input_order_and_pending_stays_within_twice_the_width() {
    let mut costs = Costs(0x9E37_79B9_7F4A_7C15);
    for threads in [1usize, 2, 3, 8] {
        for round in 0..8 {
            let pool = Pool::exact(threads);
            let total = 40 + 13 * round;
            let ahead = 2 * pool.width(total);
            let tasks: Vec<(usize, u64)> = (0..total).map(|i| (i, costs.next(6))).collect();
            let delivered = AtomicUsize::new(0);
            let mut seen = Vec::new();
            pool.run_ordered(
                tasks,
                |_| (),
                |(), (i, cost)| {
                    // The claim saw `i < delivered + ahead`, and
                    // `delivered` only grows.
                    assert!(i < delivered.load(Ordering::Acquire) + ahead, "ticket {i} ran ahead");
                    spend(cost);
                    Ok::<_, ()>(i)
                },
                |at, i| {
                    assert_eq!(at, i);
                    seen.push(i);
                    delivered.store(at + 1, Ordering::Release);
                    Ok(())
                },
            )
            .expect("no task fails");
            assert_eq!(seen, (0..total).collect::<Vec<_>>(), "threads={threads}");
            assert!(
                pool.pending_peak() <= ahead,
                "threads={threads}: {} results pending, bound {ahead}",
                pool.pending_peak()
            );
        }
    }
}

#[test]
fn a_slow_head_holds_the_run_ahead_at_twice_the_width() {
    // Ticket 0 finishes only once every ticket the bound admits has
    // started: the siblings reach the bound, wait for room, and the
    // tickets past it start only after 0 has been delivered.
    let pool = Pool::exact(2);
    let ahead = 4;
    let (started_tx, started_rx) = mpsc::channel::<usize>();
    let started_rx = Mutex::new(started_rx);
    let head_delivered = AtomicBool::new(false);
    let mut order = Vec::new();
    pool.run_ordered(
        (0..12usize).collect(),
        |_| started_tx.clone(),
        |tx, i| {
            if i == 0 {
                let rx = started_rx.lock().unwrap();
                let mut ahead_of_me: Vec<usize> = (1..ahead).map(|_| rx.recv().unwrap()).collect();
                ahead_of_me.sort_unstable();
                assert_eq!(ahead_of_me, (1..ahead).collect::<Vec<_>>());
            } else {
                assert_eq!(i >= ahead, head_delivered.load(Ordering::Acquire), "ticket {i}");
                if i < ahead {
                    tx.send(i).unwrap();
                }
            }
            Ok::<_, ()>(i)
        },
        |at, i| {
            head_delivered.store(true, Ordering::Release);
            order.push((at, i));
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(order, (0..12).map(|i| (i, i)).collect::<Vec<_>>());
    // Tickets 1 and 2 completed while 0 ran; 3 had at least started.
    assert!((ahead - 1..=ahead).contains(&pool.pending_peak()), "{}", pool.pending_peak());
}

#[test]
fn an_error_at_k_delivers_exactly_the_prefix_before_k() {
    let mut costs = Costs(0xD1B5_4A32_D192_ED03);
    for threads in [1usize, 2, 3, 8] {
        for k in [0usize, 1, 7, 30, 59] {
            let tasks: Vec<(usize, u64)> = (0..60).map(|i| (i, costs.next(5))).collect();
            let mut seen = Vec::new();
            let err = Pool::exact(threads)
                .run_ordered(
                    tasks,
                    |_| (),
                    |(), (i, cost)| {
                        spend(cost);
                        // Several failing tasks: the lowest one wins,
                        // whichever is observed first.
                        if i == k || i == k + 2 || i == k + 5 {
                            Err(i)
                        } else {
                            Ok(i)
                        }
                    },
                    |at, i| {
                        assert_eq!(at, i);
                        seen.push(i);
                        Ok(())
                    },
                )
                .expect_err("task k fails");
            assert_eq!(err, (k, k), "threads={threads}");
            assert_eq!(seen, (0..k).collect::<Vec<_>>(), "threads={threads} k={k}");
        }
    }
}

#[test]
fn a_failing_delivery_cancels_like_a_failing_task() {
    for threads in [1usize, 2, 8] {
        let mut seen = Vec::new();
        let err = Pool::exact(threads)
            .run_ordered(
                (0..40usize).collect(),
                |_| (),
                |(), i| Ok(i),
                |at, i| {
                    if at == 9 {
                        return Err("sink full");
                    }
                    seen.push(i);
                    Ok(())
                },
            )
            .expect_err("delivery 9 fails");
        assert_eq!(err, (9, "sink full"), "threads={threads}");
        assert_eq!(seen, (0..9).collect::<Vec<_>>(), "threads={threads}");
    }
}
