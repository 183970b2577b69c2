//! Baseline policies from the paper's introduction.
//!
//! * [`RoundRobin`] — *pure time-sharing*: the whole machine is given to
//!   one job at a time, round-robin, with a context switch between jobs. A
//!   job of class `p` can only exploit `g(p)` of the `P` processors — the
//!   "simply allocating the total number of available processors … may
//!   underutilize a system's resources" critique.
//! * [`Fcfs`] — *pure space-sharing*: a single FCFS queue of rigid jobs run
//!   to completion on their `g(p)` processors; no preemption, no overhead,
//!   but head-of-line blocking and no interactive response for short jobs
//!   behind long ones.

use crate::engine::{Core, Discipline, Event};
use std::collections::VecDeque;

/// Pure time-sharing: the machine round-robins over *jobs*, one at a time,
/// with each job's class quantum and a switch overhead between jobs.
#[derive(Default)]
pub(crate) struct RoundRobin {
    /// Ready queue of job ids; the running job is at the front.
    ready: VecDeque<u64>,
    running: Option<u64>,
    quantum_epoch: u64,
    in_switch: bool,
}

impl RoundRobin {
    /// Run the job at the front of the ready queue for one quantum.
    fn start_front(&mut self, core: &mut Core) {
        let Some(&id) = self.ready.front() else {
            self.running = None;
            core.record_busy();
            return;
        };
        self.running = Some(id);
        self.quantum_epoch += 1;
        let epoch = self.quantum_epoch;
        let q = core.sample_quantum(core.jobs[&id].class);
        core.events
            .schedule(core.now() + q, Event::QuantumEnd { epoch });
        core.jobs.get_mut(&id).expect("front job").epoch = epoch;
        core.start_job(id);
    }

    /// Switch away from a job of `class`, paying that class's overhead.
    fn begin_switch(&mut self, core: &mut Core, class: usize) {
        self.in_switch = true;
        core.set_switching(true);
        let o = core.sample_overhead(class);
        core.events
            .schedule(core.now() + o, Event::SwitchDone { epoch: 0 });
    }
}

impl Discipline for RoundRobin {
    fn arrived(&mut self, core: &mut Core, id: u64) {
        self.ready.push_back(id);
        if self.running.is_none() && !self.in_switch {
            self.start_front(core);
        }
    }

    fn completed(&mut self, core: &mut Core, id: u64, class: usize) {
        self.ready.retain(|&x| x != id);
        self.running = None;
        core.release(core.partition(class));
        if !self.ready.is_empty() {
            self.begin_switch(core, class);
        }
    }

    fn quantum_end(&mut self, core: &mut Core, epoch: u64) {
        if self.quantum_epoch != epoch {
            return;
        }
        let Some(id) = self.running.take() else {
            return;
        };
        core.preempt(id);
        let class = core.jobs[&id].class;
        core.release(core.partition(class));
        // Rotate: preempted job to the back.
        if let Some(pos) = self.ready.iter().position(|&x| x == id) {
            self.ready.remove(pos);
        }
        self.ready.push_back(id);
        self.begin_switch(core, class);
    }

    fn switch_done(&mut self, core: &mut Core, _epoch: u64) {
        self.in_switch = false;
        core.set_switching(false);
        self.start_front(core);
    }
}

/// Pure space-sharing: one global FCFS queue, rigid jobs run to completion
/// (no preemption, no overhead, no backfilling).
#[derive(Default)]
pub(crate) struct Fcfs {
    /// Jobs waiting to start, in arrival order.
    waiting: VecDeque<u64>,
}

impl Fcfs {
    /// Start jobs from the head while they fit (no backfill: stop at the
    /// first job that does not fit).
    fn dispatch(&mut self, core: &mut Core) {
        while let Some(&id) = self.waiting.front() {
            if core.partition(core.jobs[&id].class) > core.free {
                break;
            }
            self.waiting.pop_front();
            core.start_job(id);
        }
    }
}

impl Discipline for Fcfs {
    fn arrived(&mut self, core: &mut Core, id: u64) {
        self.waiting.push_back(id);
        self.dispatch(core);
    }

    fn completed(&mut self, core: &mut Core, _id: u64, class: usize) {
        core.release(core.partition(class));
        self.dispatch(core);
    }
}

#[cfg(test)]
mod tests {
    use crate::{simulate, Policy, SimConfig};
    use gsched_core::model::{ClassParams, GangModel};
    use gsched_phase::{erlang, exponential};

    fn model(lambda: f64) -> GangModel {
        let mk = |g: usize, mu: f64| ClassParams {
            partition_size: g,
            arrival: exponential(lambda),
            service: exponential(mu),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        };
        GangModel::new(4, vec![mk(4, 1.0), mk(1, 2.0)]).unwrap()
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            horizon: 40_000.0,
            warmup: 4_000.0,
            seed,
            batches: 10,
        }
    }

    #[test]
    fn space_sharing_fcfs_mm1_special_case() {
        // Single class needing the whole machine: FCFS space sharing IS
        // M/M/1.
        let m = GangModel::new(
            4,
            vec![ClassParams {
                partition_size: 4,
                arrival: exponential(0.5),
                service: exponential(1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            }],
        )
        .unwrap();
        let r = simulate(&m, Policy::Fcfs, cfg(19));
        let got = r.classes[0].mean_jobs;
        assert!(
            (got - 1.0).abs() < 0.15,
            "FCFS sim N = {got}, M/M/1 predicts 1.0"
        );
    }

    #[test]
    fn time_sharing_conserves_jobs() {
        let m = model(0.15);
        let r = simulate(&m, Policy::RoundRobin, cfg(23));
        for c in &r.classes {
            assert!(c.arrivals > 50);
            let gap = (c.arrivals as f64 - c.completions as f64).abs();
            assert!(gap / (c.arrivals as f64) < 0.1);
        }
    }

    #[test]
    fn time_sharing_littles_law() {
        let m = model(0.15);
        let r = simulate(&m, Policy::RoundRobin, cfg(29));
        for p in 0..2 {
            assert!(r.littles_law_gap(p) < 0.12, "gap {}", r.littles_law_gap(p));
        }
    }

    #[test]
    fn space_sharing_littles_law() {
        let m = model(0.2);
        let r = simulate(&m, Policy::Fcfs, cfg(31));
        for p in 0..2 {
            assert!(r.littles_law_gap(p) < 0.12);
        }
    }

    #[test]
    fn time_sharing_wastes_processors_on_small_jobs() {
        // Class 1 jobs use 1 of 4 processors under time sharing; utilization
        // must reflect that waste relative to space sharing at equal load.
        let m = model(0.3);
        let ts = simulate(&m, Policy::RoundRobin, cfg(37));
        let ss = simulate(&m, Policy::Fcfs, cfg(37));
        assert!(
            ts.processor_utilization < ss.processor_utilization + 0.05,
            "ts {} vs ss {}",
            ts.processor_utilization,
            ss.processor_utilization
        );
    }

    #[test]
    fn deterministic_baselines() {
        let m = model(0.2);
        let a = simulate(&m, Policy::Fcfs, cfg(41));
        let b = simulate(&m, Policy::Fcfs, cfg(41));
        assert_eq!(a.classes[0].completions, b.classes[0].completions);
    }
}
