//! Multi-user service queues (Section VIII, "Towards Multiple Users").
//!
//! "All the service devices maintain a queue buffering the incoming
//! requests and submit them to GPU for execution in a First-Come-First-
//! Served (FCFS) manner. However, it takes no consideration of the tasks'
//! priorities … requests from the shooting game should receive higher
//! processing priorities." The paper leaves priority scheduling as future
//! work; both policies are implemented here, and the FCFS-vs-priority
//! comparison is an ablation bench.

use std::collections::VecDeque;

use gbooster_sim::time::{SimDuration, SimTime};

/// Scheduling policy of a service device's request queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served (the paper's prototype).
    Fcfs,
    /// Strict priority, FIFO within a priority class (the paper's
    /// proposed extension).
    Priority,
}

/// One queued rendering request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Issuing user/application id.
    pub user: u32,
    /// Monotonic sequence number within the user's stream.
    pub seq: u64,
    /// Arrival time at the service device.
    pub arrival: SimTime,
    /// GPU execution cost.
    pub cost: SimDuration,
    /// Priority class: 0 is most time-critical (fast-paced shooter),
    /// larger is more latency-tolerant (chess).
    pub priority: u8,
}

/// A completed request with its queueing outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub request: Request,
    /// When execution began.
    pub started: SimTime,
    /// When execution finished.
    pub finished: SimTime,
}

impl Completion {
    /// Total sojourn time (queueing + execution).
    pub fn latency(&self) -> SimDuration {
        self.finished - self.request.arrival
    }
}

/// A non-preemptive single-GPU service queue.
///
/// GPU execution is non-preemptive (Section VI-A, ref \[31\]): once a
/// request starts it runs to completion regardless of policy.
///
/// # Examples
///
/// ```
/// use gbooster_core::queue::{Policy, Request, ServiceQueue};
/// use gbooster_sim::time::{SimDuration, SimTime};
///
/// let mut q = ServiceQueue::new(Policy::Fcfs);
/// q.push(Request {
///     user: 0, seq: 0, arrival: SimTime::ZERO,
///     cost: SimDuration::from_millis(10), priority: 1,
/// });
/// let done = q.drain();
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceQueue {
    policy: Policy,
    pending: VecDeque<Request>,
    gpu_free_at: SimTime,
}

impl ServiceQueue {
    /// Creates an empty queue under `policy`.
    pub fn new(policy: Policy) -> Self {
        ServiceQueue {
            policy,
            pending: VecDeque::new(),
            gpu_free_at: SimTime::ZERO,
        }
    }

    /// Enqueues a request.
    pub fn push(&mut self, request: Request) {
        self.pending.push_back(request);
    }

    /// Queued requests not yet executed.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Selects the next request to execute at `now` under the policy,
    /// considering only requests that have arrived.
    fn select(&mut self, now: SimTime) -> Option<Request> {
        let arrived: Vec<usize> = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, r)| r.arrival <= now)
            .map(|(i, _)| i)
            .collect();
        let pick = match self.policy {
            Policy::Fcfs => arrived
                .iter()
                .copied()
                .min_by_key(|&i| (self.pending[i].arrival, i)),
            Policy::Priority => arrived
                .iter()
                .copied()
                .min_by_key(|&i| (self.pending[i].priority, self.pending[i].arrival, i)),
        }?;
        self.pending.remove(pick)
    }

    /// Executes every queued request to completion, returning the
    /// completions in execution order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            // The GPU may go idle waiting for the next arrival.
            let now = self
                .pending
                .iter()
                .map(|r| r.arrival)
                .min()
                .expect("queue non-empty")
                .max(self.gpu_free_at);
            let request = self.select(now).expect("an arrived request exists");
            let started = now.max(request.arrival);
            let finished = started + request.cost;
            self.gpu_free_at = finished;
            out.push(Completion {
                request,
                started,
                finished,
            });
        }
        out
    }

    /// Mean latency per user from a set of completions.
    pub fn mean_latency_by_user(completions: &[Completion]) -> Vec<(u32, SimDuration)> {
        let mut sums: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
        for c in completions {
            let e = sums.entry(c.request.user).or_insert((0, 0));
            e.0 += c.latency().as_micros();
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(user, (total, n))| (user, SimDuration::from_micros(total / n.max(1))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two users sharing a device: user 0 is a fast-paced shooter
    /// (priority 0), user 1 a chess app (priority 3). The device is near
    /// saturation (shooter 8 ms every 25 ms plus chess 40 ms every 45 ms),
    /// so queueing policy matters.
    fn mixed_workload() -> Vec<Request> {
        let mut reqs = Vec::new();
        for i in 0..20u64 {
            reqs.push(Request {
                user: 0,
                seq: i,
                arrival: SimTime::from_millis(i * 25),
                cost: SimDuration::from_millis(8),
                priority: 0,
            });
        }
        for i in 0..10u64 {
            reqs.push(Request {
                user: 1,
                seq: i,
                arrival: SimTime::from_millis(i * 45),
                cost: SimDuration::from_millis(40),
                priority: 3,
            });
        }
        reqs
    }

    fn run(policy: Policy) -> Vec<Completion> {
        let mut q = ServiceQueue::new(policy);
        for r in mixed_workload() {
            q.push(r);
        }
        q.drain()
    }

    fn latency_of(completions: &[Completion], user: u32) -> SimDuration {
        ServiceQueue::mean_latency_by_user(completions)
            .into_iter()
            .find(|(u, _)| *u == user)
            .map(|(_, l)| l)
            .expect("user present")
    }

    #[test]
    fn priority_cuts_shooter_latency_versus_fcfs() {
        let fcfs = run(Policy::Fcfs);
        let prio = run(Policy::Priority);
        let shooter_fcfs = latency_of(&fcfs, 0);
        let shooter_prio = latency_of(&prio, 0);
        assert!(
            shooter_prio.as_micros() * 2 <= shooter_fcfs.as_micros(),
            "priority {shooter_prio} vs fcfs {shooter_fcfs}"
        );
    }

    #[test]
    fn priority_costs_the_background_user_little() {
        let fcfs = run(Policy::Fcfs);
        let prio = run(Policy::Priority);
        let chess_fcfs = latency_of(&fcfs, 1);
        let chess_prio = latency_of(&prio, 1);
        // Chess latency may grow, but stays bounded (non-preemptive,
        // shooter requests are short).
        assert!(chess_prio.as_micros() < chess_fcfs.as_micros() * 5);
    }

    #[test]
    fn fcfs_executes_in_arrival_order() {
        let mut q = ServiceQueue::new(Policy::Fcfs);
        for r in mixed_workload() {
            q.push(r);
        }
        let done = q.drain();
        let mut last_arrival = SimTime::ZERO;
        for c in &done {
            assert!(c.request.arrival >= last_arrival || c.started >= c.request.arrival);
            last_arrival = last_arrival.max(c.request.arrival);
        }
        assert_eq!(done.len(), 30);
    }

    #[test]
    fn non_preemptive_execution_never_overlaps() {
        let done = run(Policy::Priority);
        let mut intervals: Vec<(SimTime, SimTime)> =
            done.iter().map(|c| (c.started, c.finished)).collect();
        intervals.sort();
        for pair in intervals.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "GPU executed two requests at once");
        }
    }

    #[test]
    fn gpu_idles_until_first_arrival() {
        let mut q = ServiceQueue::new(Policy::Fcfs);
        q.push(Request {
            user: 0,
            seq: 0,
            arrival: SimTime::from_millis(100),
            cost: SimDuration::from_millis(5),
            priority: 0,
        });
        let done = q.drain();
        assert_eq!(done[0].started, SimTime::from_millis(100));
    }

    #[test]
    fn empty_queue_drains_to_nothing() {
        let mut q = ServiceQueue::new(Policy::Priority);
        assert!(q.is_empty());
        assert!(q.drain().is_empty());
        assert_eq!(q.len(), 0);
    }
}
