//! The open-loop load generator: operations are due on a fixed schedule
//! whether or not the system keeps up, and each is timed from when it
//! was due, so a stall is charged to every operation queued behind it.
//! Operations fall due in bursts, so the generator wakes once a burst
//! rather than once an operation and leaves its CPU idle in between.

use std::time::{Duration, Instant};

/// How close to a due time the wall clock stops sleeping and spins.
const SPIN_NS: u64 = 150_000;

/// Time source of the generator (a fake one drives the tests).
pub trait Clock {
    /// Nanoseconds since the schedule started.
    fn now_ns(&mut self) -> u64;
    /// Returns at or after `t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

/// The wall clock, waiting by sleeping while far from the due time and
/// spinning the last [`SPIN_NS`] (a sleep overshoots by tens of
/// microseconds, which would otherwise read as the system's latency).
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one scheduled operation cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// From when it was due to when it completed.
    pub latency_ns: u64,
    /// From when it was due to when it was sent.
    pub late_ns: u64,
    /// From when it was sent to when it completed.
    pub busy_ns: u64,
}

/// When operation `k` is due: operations come in bursts of `burst`,
/// one burst every `burst * period_ns`, so the mean rate is one per
/// `period_ns`.
pub fn due_ns(k: usize, period_ns: u64, burst: usize) -> u64 {
    (k - k % burst) as u64 * period_ns
}

/// Runs `n` operations on the [`due_ns`] schedule, never sending one
/// before it is due. `op(k)` is the timed operation; `after(k)` runs
/// once `k` has completed and before `k + 1` is sent, untimed for `k`
/// but delaying every operation due meanwhile.
pub fn run<C: Clock>(
    n: usize,
    period_ns: u64,
    burst: usize,
    clock: &mut C,
    mut op: impl FnMut(usize, &mut C),
    mut after: impl FnMut(usize, &mut C),
) -> Vec<Timing> {
    let burst = burst.max(1);
    let mut timings = Vec::with_capacity(n);
    for k in 0..n {
        let due = due_ns(k, period_ns, burst);
        clock.wait_until(due);
        let sent = clock.now_ns();
        op(k, clock);
        let done = clock.now_ns();
        timings.push(Timing {
            latency_ns: done - due,
            late_ns: sent - due,
            busy_ns: done - sent,
        });
        after(k, clock);
    }
    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that moves only when told to.
    struct FakeClock(u64);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.0 = self.0.max(t_ns);
        }
    }

    #[test]
    fn on_schedule_operations_cost_their_service_time() {
        let mut clock = FakeClock(0);
        let t = run(5, 10, 1, &mut clock, |_, c| c.0 += 2, |_, _| {});
        assert!(t.iter().all(|t| *t == Timing { latency_ns: 2, late_ns: 0, busy_ns: 2 }));
        assert_eq!(clock.0, 42);
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_queued_behind_it() {
        // Due every 10 ns, 1 ns of service; after op 4 completes (at 41)
        // a 100 ns stall runs, so ops 5..=14 (due 50..140) all queue.
        let mut clock = FakeClock(0);
        let t = run(
            20,
            10,
            1,
            &mut clock,
            |_, c| c.0 += 1,
            |k, c| {
                if k == 4 {
                    c.0 += 100;
                }
            },
        );
        let stall_end = 141;
        for (k, timing) in t.iter().enumerate().skip(5) {
            let due = k as u64 * 10;
            if due < stall_end {
                // Waited out the rest of the stall, plus the ops ahead.
                assert!(timing.latency_ns > stall_end - due, "op {k}: {timing:?}");
                assert_eq!(timing.busy_ns, 1, "op {k}");
                assert_eq!(timing.late_ns, timing.latency_ns - 1, "op {k}");
            }
        }
        // Op 5 waited 91 ns for the stall; the backlog drains at 9 ns
        // per period, so op 14 is still late and op 16 is not.
        assert_eq!(t[5].latency_ns, 92);
        assert_eq!(t[14].latency_ns, 11);
        assert_eq!(t[16].latency_ns, 1);
        assert_eq!(t[4].latency_ns, 1, "the op before the stall is not charged");
    }

    #[test]
    fn a_burst_falls_due_at_once_and_queues_behind_itself() {
        // Bursts of 4 every 40 ns, 2 ns of service: within a burst each
        // op waits for the ones ahead of it; the next burst starts clean.
        let mut clock = FakeClock(0);
        let t = run(8, 10, 4, &mut clock, |_, c| c.0 += 2, |_, _| {});
        let latency: Vec<u64> = t.iter().map(|t| t.latency_ns).collect();
        assert_eq!(latency, [2, 4, 6, 8, 2, 4, 6, 8]);
        assert!(t.iter().all(|t| t.busy_ns == 2));
        assert_eq!((due_ns(3, 10, 4), due_ns(4, 10, 4), due_ns(7, 10, 1)), (0, 40, 70));
    }
}
