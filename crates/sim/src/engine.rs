//! The simulator core: the future-event list, the clock, and the one event
//! loop every policy runs on.
//!
//! The crate-private `Core` owns everything the policies share: the job
//! table, arrivals and completions, the per-class population and response
//! statistics with their batch means, the busy-processor and switch time
//! averages, and the `sim.*` instrumentation. A policy is a `Discipline`, a
//! set of handlers the loop in `Core::run` calls when a job arrives or
//! completes, a quantum ends or a context switch finishes.
//! [`simulate`](crate::simulate) runs any policy on it.

use crate::quantiles::ResponseQuantiles;
use crate::stats::{BatchMeans, ClassStats, SimConfig, SimResult, TimeAverage, Welford};
use gsched_core::model::GangModel;
use gsched_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A scheduled event: fire time, tie-breaking sequence number, payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: a min-heap keyed on `(time, insertion order)`.
///
/// Ties in time fire in insertion order, which makes simulations
/// deterministic for a fixed seed.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics on a non-finite or negative time — those are always simulator
    /// bugs and hiding them corrupts statistics silently.
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(
            time.is_finite() && time >= 0.0,
            "schedule: bad event time {time}"
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let item = self.heap.pop().map(|s| (s.time, s.payload));
        if item.is_some() {
            self.popped += 1;
        }
        item
    }

    /// Number of events popped (i.e. processed) so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A monotone simulation clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// Current time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance to `t`.
    ///
    /// # Panics
    /// Panics if `t` would move time backwards (beyond round-off slack).
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t >= self.now - 1e-9,
            "clock moving backwards: {} -> {t}",
            self.now
        );
        self.now = self.now.max(t);
    }
}

/// A job in the system.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub(crate) class: usize,
    arrived: f64,
    remaining: f64,
    /// Set while running: the time service last (re)started.
    pub(crate) run_start: Option<f64>,
    /// Tags the job's completion event; a preemption bumps it, so the event
    /// of an interrupted run is recognised as stale.
    pub(crate) epoch: u64,
}

/// The simulator's events. `epoch` fields tag events a policy may cancel.
#[derive(Debug)]
pub(crate) enum Event {
    Arrival { class: usize },
    Completion { job: u64, epoch: u64 },
    QuantumEnd { epoch: u64 },
    SwitchDone { epoch: u64 },
}

/// A scheduling policy, as handlers on the shared [`Core`].
pub(crate) trait Discipline {
    /// Runs once at time 0, before the first event.
    fn start(&mut self, _core: &mut Core) {}
    /// Job `id` arrived; it is already in the job table and counted.
    fn arrived(&mut self, core: &mut Core, id: u64);
    /// Job `id` of `class` completed and has left the job table.
    fn completed(&mut self, core: &mut Core, id: u64, class: usize);
    /// A quantum-end event tagged `epoch` fired.
    fn quantum_end(&mut self, _core: &mut Core, _epoch: u64) {}
    /// A switch-done event tagged `epoch` fired.
    fn switch_done(&mut self, _core: &mut Core, _epoch: u64) {}
}

/// The state and statistics every policy shares.
pub(crate) struct Core<'a> {
    pub(crate) model: &'a GangModel,
    cfg: SimConfig,
    rng: StdRng,
    clock: SimClock,
    pub(crate) events: EventQueue<Event>,
    pub(crate) jobs: HashMap<u64, Job>,
    next_id: u64,
    /// Processors not running a job.
    pub(crate) free: usize,
    /// Full rotations of the timeplexing cycle (reported as
    /// `sim.cycles_completed`).
    pub(crate) cycles: u64,
    /// Jobs of each class in the system, waiting or running.
    in_system: Vec<usize>,
    busy_ta: TimeAverage,
    switch_ta: TimeAverage,
    batch_ta: Vec<TimeAverage>,
    batch: Vec<BatchMeans>,
    next_batch_at: f64,
    batch_len: f64,
    response: Vec<Welford>,
    response_q: Vec<ResponseQuantiles>,
    /// Arrivals, and completions of jobs that arrived, after the warmup.
    arrivals: Vec<u64>,
    completions: Vec<u64>,
    /// Pre-built metric names (`sim.class{p}.queue_len`) so the per-event
    /// queue-length probe does not allocate.
    queue_len_metric: Vec<String>,
}

impl<'a> Core<'a> {
    /// An empty machine with each class's first arrival scheduled.
    pub(crate) fn new(model: &'a GangModel, cfg: SimConfig) -> Self {
        let l = model.num_classes();
        let batch_len = (cfg.horizon - cfg.warmup) / cfg.batches.max(2) as f64;
        let mut core = Core {
            model,
            rng: StdRng::seed_from_u64(cfg.seed),
            clock: SimClock::default(),
            events: EventQueue::new(),
            jobs: HashMap::new(),
            next_id: 0,
            free: model.processors(),
            cycles: 0,
            in_system: vec![0; l],
            busy_ta: TimeAverage::default(),
            switch_ta: TimeAverage::default(),
            batch_ta: vec![TimeAverage::default(); l],
            batch: vec![BatchMeans::new(); l],
            next_batch_at: cfg.warmup + batch_len,
            batch_len,
            response: vec![Welford::default(); l],
            response_q: vec![ResponseQuantiles::new(); l],
            arrivals: vec![0; l],
            completions: vec![0; l],
            queue_len_metric: (0..l).map(obs::names::sim_queue_length).collect(),
            cfg,
        };
        for p in 0..l {
            core.batch_ta[p].start(core.cfg.warmup, 0.0);
            let dt = model.class(p).arrival.sample(&mut core.rng);
            core.events.schedule(dt, Event::Arrival { class: p });
        }
        core.busy_ta.start(0.0, 0.0);
        core.switch_ta.start(0.0, 0.0);
        core
    }

    /// Run `policy` to the horizon and assemble the statistics.
    pub(crate) fn run<D: Discipline>(mut self, policy: &mut D) -> SimResult {
        let _span = obs::span("sim.run");
        let wall_start = std::time::Instant::now();
        policy.start(&mut self);
        while let Some(t) = self.events.peek_time() {
            if t > self.cfg.horizon {
                break;
            }
            self.close_batches_until(t);
            let (t, ev) = self.events.pop().expect("peeked");
            self.clock.advance_to(t);
            match ev {
                Event::Arrival { class } => {
                    let id = self.arrive(class);
                    policy.arrived(&mut self, id);
                }
                Event::Completion { job, epoch } => {
                    if let Some(class) = self.complete(job, epoch) {
                        policy.completed(&mut self, job, class);
                    }
                }
                Event::QuantumEnd { epoch } => policy.quantum_end(&mut self, epoch),
                Event::SwitchDone { epoch } => policy.switch_done(&mut self, epoch),
            }
        }
        self.result(wall_start)
    }

    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Processors each job of class `p` occupies.
    pub(crate) fn partition(&self, p: usize) -> usize {
        self.model.class(p).partition_size
    }

    /// Draw a quantum length of class `p`.
    pub(crate) fn sample_quantum(&mut self, p: usize) -> f64 {
        self.model.class(p).quantum.sample(&mut self.rng)
    }

    /// Draw a context-switch overhead of class `p`.
    pub(crate) fn sample_overhead(&mut self, p: usize) -> f64 {
        self.model.class(p).switch_overhead.sample(&mut self.rng)
    }

    /// Start (or resume) job `id` on its partition: schedule its completion
    /// under its current epoch.
    pub(crate) fn start_job(&mut self, id: u64) {
        let now = self.now();
        let job = self.jobs.get_mut(&id).expect("job exists");
        debug_assert!(job.run_start.is_none());
        job.run_start = Some(now);
        let (class, done) = (
            job.class,
            Event::Completion {
                job: id,
                epoch: job.epoch,
            },
        );
        self.events.schedule(now + job.remaining, done);
        self.free -= self.partition(class);
        self.record_busy();
    }

    /// Stop job `id` if it runs, keeping its remaining work; its pending
    /// completion event goes stale. The caller frees its processors.
    pub(crate) fn preempt(&mut self, id: u64) {
        let now = self.now();
        let job = self.jobs.get_mut(&id).expect("job exists");
        if let Some(start) = job.run_start.take() {
            job.remaining = (job.remaining - (now - start)).max(0.0);
            job.epoch += 1;
        }
    }

    /// Return `n` processors to the free pool.
    pub(crate) fn release(&mut self, n: usize) {
        self.free += n;
        self.record_busy();
    }

    /// Record the busy-processor count (after `free` changed).
    pub(crate) fn record_busy(&mut self) {
        let busy = (self.model.processors() - self.free) as f64;
        self.busy_ta.update(self.now(), busy);
    }

    /// Record that a context switch starts (`true`) or ends (`false`).
    pub(crate) fn set_switching(&mut self, on: bool) {
        self.switch_ta
            .update(self.now(), if on { 1.0 } else { 0.0 });
    }

    /// A job of class `p` arrives: schedule the class's next arrival, draw
    /// the job's service and enter it in the job table.
    fn arrive(&mut self, p: usize) -> u64 {
        let now = self.now();
        let dt = self.model.class(p).arrival.sample(&mut self.rng);
        self.events.schedule(now + dt, Event::Arrival { class: p });
        let service = self.model.class(p).service.sample(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        let job = Job {
            class: p,
            arrived: now,
            remaining: service,
            run_start: None,
            epoch: 0,
        };
        self.jobs.insert(id, job);
        if now >= self.cfg.warmup {
            self.arrivals[p] += 1;
        }
        self.in_system[p] += 1;
        self.record_population(p);
        id
    }

    /// Take job `id` out of the system if the completion event tagged `epoch`
    /// is current (the job runs under that epoch); returns its class.
    fn complete(&mut self, id: u64, epoch: u64) -> Option<usize> {
        let valid = self
            .jobs
            .get(&id)
            .is_some_and(|j| j.run_start.is_some() && j.epoch == epoch);
        if !valid {
            return None; // stale event from a cancelled run
        }
        let job = self.jobs.remove(&id).expect("validated");
        let p = job.class;
        self.in_system[p] -= 1;
        self.record_population(p);
        if job.arrived >= self.cfg.warmup {
            let response = self.now() - job.arrived;
            self.completions[p] += 1;
            self.response[p].add(response);
            self.response_q[p].add(response);
        }
        Some(p)
    }

    fn record_population(&mut self, p: usize) {
        let (t, n) = (self.now(), self.in_system[p] as f64);
        if obs::enabled() {
            obs::observe(&self.queue_len_metric[p], n);
        }
        if t >= self.cfg.warmup {
            self.batch_ta[p].update(t, n);
        } else {
            self.batch_ta[p].start(self.cfg.warmup, n);
        }
    }

    /// Close every batch whose end lies at or before `t`.
    fn close_batches_until(&mut self, t: f64) {
        while t >= self.next_batch_at && self.next_batch_at <= self.cfg.horizon {
            let b = self.next_batch_at;
            for (ta, batch) in self.batch_ta.iter_mut().zip(&mut self.batch) {
                batch.add_batch(ta.average(b));
                let v = ta.value();
                ta.start(b, v);
            }
            self.next_batch_at += self.batch_len;
        }
    }

    fn result(self, wall_start: std::time::Instant) -> SimResult {
        let end = self.cfg.horizon;
        let measured = end - self.cfg.warmup;
        let classes = (0..self.model.num_classes())
            .map(|p| {
                // The finished batches, weighted with the partial last one.
                let full = self.batch[p].mean();
                let n = self.batch[p].count() as f64;
                let partial_start = self.cfg.warmup + n * self.batch_len;
                let mean_jobs = if partial_start < end - 1e-9 {
                    let partial = self.batch_ta[p].average(end);
                    if n > 0.0 {
                        full * ((n * self.batch_len) / measured)
                            + partial * ((end - partial_start) / measured)
                    } else {
                        partial
                    }
                } else {
                    full
                };
                ClassStats {
                    mean_jobs,
                    mean_jobs_ci95: self.batch[p].ci95_halfwidth(),
                    mean_response: self.response[p].mean(),
                    response_std: self.response[p].std_dev(),
                    arrivals: self.arrivals[p],
                    completions: self.completions[p],
                    response_quantiles: self.response_q[p].values(),
                }
            })
            .collect();
        if obs::enabled() {
            let events = self.events.popped();
            obs::counter_add(obs::names::SIM_RUNS, 1);
            obs::counter_add(obs::names::SIM_EVENTS_PROCESSED, events);
            obs::counter_add(obs::names::SIM_CYCLES_COMPLETED, self.cycles);
            obs::counter_add(obs::names::SIM_COMPLETIONS, self.completions.iter().sum());
            obs::gauge_set(obs::names::SIM_MEASURED_TIME, measured);
            let secs = wall_start.elapsed().as_secs_f64();
            if secs > 0.0 {
                obs::gauge_set(obs::names::SIM_EVENT_RATE_PER_SEC, events as f64 / secs);
            }
        }
        SimResult {
            classes,
            processor_utilization: self.busy_ta.average(end) / self.model.processors() as f64,
            switch_overhead_fraction: self.switch_ta.average(end),
            measured_time: measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop().unwrap(), (1.0, "a"));
        assert_eq!(q.pop().unwrap(), (2.0, "b"));
        assert_eq!(q.pop().unwrap(), (3.0, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::default();
        c.advance_to(1.0);
        c.advance_to(2.5);
        assert_eq!(c.now(), 2.5);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_backwards() {
        let mut c = SimClock::default();
        c.advance_to(2.0);
        c.advance_to(1.0);
    }
}
