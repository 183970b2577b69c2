//! The gang-scheduling policy.
//!
//! Simulates the exact policy of the paper's §3.1: classes rotate in a
//! timeplexing cycle; during class `p`'s quantum the first `P/g(p)` jobs of
//! its FCFS queue run in parallel, a completed job's partition goes to the
//! next waiting job, and the quantum ends early when the class runs out of
//! work. Context switches cost an overhead drawn from `C_p`. All parameter
//! distributions are sampled exactly from their phase-type representations.
//!
//! With lending on ([`Policy::Lend`](crate::Policy::Lend)) it is the SP2
//! variant sketched in §6: processors left idle by the current class are
//! lent, in cycle order, to jobs of the following classes instead of idling
//! until the quantum expires. (Quantum boundaries remain system-wide; the §6
//! design relaxes that too, which would need a per-partition cycle state.)

use crate::engine::{Core, Discipline, Event};

/// The timeplexing cycle's state.
pub(crate) struct Gang {
    /// Lend idle processors to later classes (§6).
    lend: bool,
    /// FCFS order of all jobs per class (running jobs included).
    queues: Vec<Vec<u64>>,
    /// Current class in the cycle.
    current: usize,
    in_switch: bool,
    /// All queues empty: the cycle spins through zero-work switches. Rather
    /// than simulating each (unboundedly many for small overheads), the
    /// rotation is parked and resumed at the next arrival — exact for
    /// exponential overheads (memorylessness), a negligible approximation
    /// otherwise.
    idle: bool,
    quantum_epoch: u64,
    switch_epoch: u64,
    /// Zero-time switch spins at the same instant (guards pathological
    /// zero-overhead configurations).
    spin_count: usize,
    spin_time: f64,
}

impl Gang {
    pub(crate) fn new(classes: usize, lend: bool) -> Self {
        Gang {
            lend,
            queues: vec![Vec::new(); classes],
            current: 0,
            in_switch: false,
            idle: false,
            quantum_epoch: 0,
            switch_epoch: 0,
            spin_count: 0,
            spin_time: -1.0,
        }
    }

    /// Greedily start waiting jobs of class `p` (FCFS) while processors fit.
    fn assign_class(&self, core: &mut Core, p: usize) {
        let g = core.partition(p);
        for &id in &self.queues[p] {
            if core.free < g {
                break;
            }
            if core.jobs[&id].run_start.is_none() {
                core.start_job(id);
            }
        }
    }

    /// Place the current class's jobs, then lend what is left to the later
    /// classes in cycle order when lending is on.
    fn assign(&self, core: &mut Core) {
        self.assign_class(core, self.current);
        if self.lend {
            let l = self.queues.len();
            for step in 1..l {
                self.assign_class(core, (self.current + step) % l);
            }
        }
    }

    fn start_quantum(&mut self, core: &mut Core) {
        let p = self.current;
        if self.queues[p].is_empty() {
            self.begin_switch(core);
            return;
        }
        self.quantum_epoch += 1;
        let q = core.sample_quantum(p);
        let epoch = self.quantum_epoch;
        core.events
            .schedule(core.now() + q, Event::QuantumEnd { epoch });
        self.assign(core);
    }

    fn begin_switch(&mut self, core: &mut Core) {
        for &id in self.queues.iter().flatten() {
            core.preempt(id);
        }
        core.free = core.model.processors();
        core.record_busy();
        // Invalidate any outstanding quantum-end event.
        self.quantum_epoch += 1;
        self.in_switch = true;
        self.switch_epoch += 1;
        // Idle fast-path: with every queue empty the cycle would rotate
        // through zero-work switches until an arrival — park it instead.
        // Parked time is counted as idle, not switching, in the statistics.
        if self.queues.iter().all(Vec::is_empty) {
            self.idle = true;
            core.set_switching(false);
            return; // resumed by `arrived`
        }
        core.set_switching(true);
        let now = core.now();
        let mut o = core.sample_overhead(self.current);
        // Zero-time spin guard for pathological zero-overhead parameters
        // with work present (bounded by one full rotation, but be safe).
        if o == 0.0 {
            if self.spin_time == now {
                self.spin_count += 1;
            } else {
                self.spin_time = now;
                self.spin_count = 0;
            }
            if self.spin_count > 4 * self.queues.len() {
                if let Some(t) = core.events.peek_time() {
                    o = (t - now).max(0.0);
                }
            }
        }
        let epoch = self.switch_epoch;
        core.events.schedule(now + o, Event::SwitchDone { epoch });
    }
}

impl Discipline for Gang {
    fn start(&mut self, core: &mut Core) {
        self.start_quantum(core);
    }

    fn arrived(&mut self, core: &mut Core, id: u64) {
        let p = core.jobs[&id].class;
        self.queues[p].push(id);
        // Resume a parked rotation: the machine finishes the in-progress
        // context switch (fresh sample = residual for exponential overheads)
        // and the cycle continues toward the arriving class.
        if self.idle {
            self.idle = false;
            self.switch_epoch += 1;
            core.set_switching(true);
            let o = core.sample_overhead(self.current);
            let epoch = self.switch_epoch;
            core.events
                .schedule(core.now() + o, Event::SwitchDone { epoch });
            return;
        }
        // Mid-switch the job waits; outside a switch the current class has
        // work (switch-on-empty). FCFS: every earlier job of this class is
        // already running (we assign greedily), so the newcomer may start.
        let eligible = p == self.current || self.lend;
        if !self.in_switch && eligible && core.free >= core.partition(p) {
            core.start_job(id);
        }
    }

    fn completed(&mut self, core: &mut Core, id: u64, class: usize) {
        self.queues[class].retain(|&x| x != id);
        core.release(core.partition(class));
        if self.in_switch {
            return; // shouldn't happen: completions are cancelled on switch
        }
        // Hand the freed partition to the next waiting job.
        self.assign(core);
        // Switch-on-empty.
        if self.queues[self.current].is_empty() {
            self.begin_switch(core);
        }
    }

    fn quantum_end(&mut self, core: &mut Core, epoch: u64) {
        if !self.in_switch && epoch == self.quantum_epoch {
            self.begin_switch(core);
        }
    }

    fn switch_done(&mut self, core: &mut Core, epoch: u64) {
        if epoch != self.switch_epoch {
            return;
        }
        self.in_switch = false;
        core.set_switching(false);
        self.current = (self.current + 1) % self.queues.len();
        if self.current == 0 {
            core.cycles += 1;
        }
        self.start_quantum(core);
    }
}

#[cfg(test)]
mod tests {
    use crate::{simulate, Policy, SimConfig};
    use gsched_core::model::{ClassParams, GangModel};
    use gsched_phase::{erlang, exponential};

    fn model(lambda: f64, classes: usize, g: usize, p: usize) -> GangModel {
        let mk = || ClassParams {
            partition_size: g,
            arrival: exponential(lambda),
            service: exponential(1.0),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        };
        GangModel::new(p, (0..classes).map(|_| mk()).collect()).unwrap()
    }

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            horizon: 30_000.0,
            warmup: 3_000.0,
            seed,
            batches: 10,
        }
    }

    #[test]
    fn conservation_arrivals_completions() {
        let m = model(0.2, 2, 2, 4);
        let r = simulate(&m, Policy::Gang, quick_cfg(7));
        for (p, c) in r.classes.iter().enumerate() {
            assert!(c.arrivals > 100, "class {p} got {} arrivals", c.arrivals);
            // Completions within a few percent of arrivals (stable system).
            let gap = (c.arrivals as f64 - c.completions as f64).abs();
            assert!(
                gap / (c.arrivals as f64) < 0.05,
                "class {p}: {} vs {}",
                c.arrivals,
                c.completions
            );
        }
    }

    #[test]
    fn littles_law_holds() {
        let m = model(0.2, 2, 2, 4);
        let r = simulate(&m, Policy::Gang, quick_cfg(11));
        for p in 0..2 {
            let gap = r.littles_law_gap(p);
            assert!(gap < 0.1, "class {p}: Little's-law gap {gap}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = model(0.3, 2, 4, 4);
        let a = simulate(&m, Policy::Gang, quick_cfg(5));
        let b = simulate(&m, Policy::Gang, quick_cfg(5));
        for p in 0..2 {
            assert_eq!(a.classes[p].arrivals, b.classes[p].arrivals);
            assert_eq!(a.classes[p].completions, b.classes[p].completions);
            assert!((a.classes[p].mean_jobs - b.classes[p].mean_jobs).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_below_one_and_positive() {
        let m = model(0.25, 2, 2, 4);
        let r = simulate(&m, Policy::Gang, quick_cfg(3));
        assert!(r.processor_utilization > 0.05);
        assert!(r.processor_utilization < 1.0);
        assert!(r.switch_overhead_fraction > 0.0);
        assert!(r.switch_overhead_fraction < 0.5);
    }

    #[test]
    fn single_class_matches_mm1() {
        // One class owning the machine with a huge quantum: M/M/1.
        let m = GangModel::new(
            4,
            vec![ClassParams {
                partition_size: 4,
                arrival: exponential(0.5),
                service: exponential(1.0),
                quantum: exponential(1e-3),
                switch_overhead: exponential(1e4),
            }],
        )
        .unwrap();
        let r = simulate(
            &m,
            Policy::Gang,
            SimConfig {
                horizon: 300_000.0,
                warmup: 30_000.0,
                seed: 42,
                batches: 20,
            },
        );
        let want = 1.0; // rho/(1-rho) with rho = 0.5
        let got = r.classes[0].mean_jobs;
        assert!(
            (got - want).abs() < 3.0 * r.classes[0].mean_jobs_ci95.max(0.03),
            "sim N = {got} vs M/M/1 {want} (ci {})",
            r.classes[0].mean_jobs_ci95
        );
    }

    #[test]
    fn per_partition_no_worse_than_system_wide() {
        // Lending idle processors cannot hurt mean population in this
        // symmetric setting.
        let m = model(0.25, 2, 1, 4);
        let cfg = quick_cfg(9);
        let sw = simulate(&m, Policy::Gang, cfg.clone());
        let pp = simulate(&m, Policy::Lend, cfg);
        let n_sw: f64 = sw.classes.iter().map(|c| c.mean_jobs).sum();
        let n_pp: f64 = pp.classes.iter().map(|c| c.mean_jobs).sum();
        assert!(
            n_pp < n_sw * 1.1,
            "per-partition {n_pp} should not be much worse than {n_sw}"
        );
    }

    #[test]
    fn heavier_load_more_jobs() {
        let light = simulate(&model(0.1, 2, 2, 4), Policy::Gang, quick_cfg(1)).classes[0].mean_jobs;
        let heavy =
            simulate(&model(0.35, 2, 2, 4), Policy::Gang, quick_cfg(1)).classes[0].mean_jobs;
        assert!(heavy > light);
    }
}
