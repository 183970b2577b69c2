//! Canonical metric-name constants shared by recorder call sites and tests.
//!
//! Every counter/gauge/histogram name emitted by the workspace lives here
//! as a `const`, so a rename is a compile error at every call site (and in
//! every test that asserts on the metric) instead of a silently orphaned
//! dashboard. Span *names* stay inline at their call sites — they are
//! hierarchical paths assembled at runtime — but fixed metric families all
//! route through this module.
//!
//! Names use `crate.component.operation` form, matching the crate that
//! emits them. The Prometheus exposition in `gsched-service` derives its
//! family names from its own constants, not these; these are the in-process
//! (`--diag` snapshot) names.

// ---- gsched-service ----

/// Connections accepted by the solve server (counter).
pub const SERVICE_CONNECTIONS: &str = "service.connections";
/// Request frames received, valid or not (counter).
pub const SERVICE_REQUESTS: &str = "service.requests";
/// Requests answered with an error frame (counter).
pub const SERVICE_ERRORS: &str = "service.errors";
/// Result-cache hits (counter).
pub const SERVICE_CACHE_HITS: &str = "service.cache.hits";
/// Result-cache misses (counter).
pub const SERVICE_CACHE_MISSES: &str = "service.cache.misses";
/// Jobs currently queued for the worker pool (gauge).
pub const SERVICE_QUEUE_DEPTH: &str = "service.queue.depth";
/// End-to-end request latency, parse to reply, in milliseconds (histogram).
pub const SERVICE_REQUEST_LATENCY_MS: &str = "service.request.latency_ms";
/// Time a job waited in the queue before a worker picked it up, in
/// milliseconds (histogram).
pub const SERVICE_QUEUE_WAIT_MS: &str = "service.queue.wait_ms";
/// Time a worker spent solving/rendering a job, in milliseconds (histogram).
pub const SERVICE_SOLVE_MS: &str = "service.solve_ms";
/// Requests cancelled because the client hung up mid-flight (counter).
pub const SERVICE_CANCELLED_DISCONNECTS: &str = "service.cancelled_disconnects";
/// Requests shed by admission control because the queue was full (counter).
pub const SERVICE_SHED: &str = "service.shed";
/// Requests coalesced onto an already in-flight identical solve (counter).
pub const SERVICE_SINGLEFLIGHT_COALESCED: &str = "service.singleflight.coalesced";

// ---- gsched-engine ----

/// Sweep points warm-started from a chunk neighbour (counter).
pub const ENGINE_WARM_HITS: &str = "engine.warm.hits";
/// Sweep points solved cold (counter).
pub const ENGINE_WARM_MISSES: &str = "engine.warm.misses";
/// Sweep points abandoned after a cancellation fired (counter).
pub const ENGINE_SWEEP_CANCELLED_POINTS: &str = "engine.sweep.cancelled_points";
/// Warm-start hit rate of the last sweep (gauge).
pub const ENGINE_SWEEP_WARM_HIT_RATE: &str = "engine.sweep.warm_hit_rate";
/// Worker threads of the last sweep (gauge).
pub const ENGINE_SWEEP_JOBS: &str = "engine.sweep.jobs";

// ---- gsched-qbd ----

/// `R`-matrix iterations solved to convergence (counter).
pub const QBD_RMATRIX_SOLVES: &str = "qbd.rmatrix.solves";
/// Total `R`-matrix iterations across solves (counter).
pub const QBD_RMATRIX_ITERATIONS: &str = "qbd.rmatrix.iterations";
/// Iterations per individual `R` solve (histogram).
pub const QBD_RMATRIX_ITERATIONS_PER_SOLVE: &str = "qbd.rmatrix.iterations_per_solve";
/// Final `R` residual per solve (histogram).
pub const QBD_RMATRIX_RESIDUAL: &str = "qbd.rmatrix.residual";
/// Warm-started `R` solves that converged from the seed (counter).
pub const QBD_RMATRIX_WARM_HITS: &str = "qbd.rmatrix.warm_hits";
/// `R` solves that fell back to a cold start (counter).
pub const QBD_RMATRIX_WARM_MISSES: &str = "qbd.rmatrix.warm_misses";
/// Drift margin per solve (histogram).
pub const QBD_DRIFT_MARGIN: &str = "qbd.drift_margin";
/// Frozen-capacity truncations tried by `LevelTruncation::Auto` / `Fixed`
/// (counter).
pub const QBD_TRUNCATION_ATTEMPTS: &str = "qbd.truncation.attempts";
/// Truncation attempts skipped because their frozen capacity fails the
/// drift test (counter).
pub const QBD_TRUNCATION_UNSTABLE_SKIPS: &str = "qbd.truncation.unstable_skips";
/// Levels eliminated by the boundary solves; a truncation search that
/// resumes its elimination counts each level once (counter).
pub const QBD_BOUNDARY_LEVELS_ELIMINATED: &str = "qbd.boundary.levels_eliminated";
/// Boundary levels whose blocks were assembled: a process built on demand
/// counts each level once, when it is first read (counter).
pub const QBD_BOUNDARY_LEVELS_BUILT: &str = "qbd.boundary.levels_built";

// ---- gsched-core ----

/// Completed fixed-point solves (counter).
pub const CORE_SOLVER_SOLVES: &str = "core.solver.solves";
/// Fixed-point iterations across solves (counter).
pub const CORE_SOLVER_FP_ITERATIONS: &str = "core.solver.fp_iterations";
/// Anderson history resets of the fixed point across solves (counter).
pub const CORE_SOLVER_FP_RESTARTS: &str = "core.solver.fp_restarts";
/// Final fixed-point change of the last solve (gauge).
pub const CORE_SOLVER_FINAL_CHANGE: &str = "core.solver.final_change";
/// Per-class effective quantum mean at convergence (histogram).
pub const CORE_SOLVER_EFFECTIVE_QUANTUM_MEAN: &str = "core.solver.effective_quantum_mean";
/// Vacation-distribution cache hits (counter).
pub const CORE_VACATION_CACHE_HITS: &str = "core.vacation.cache_hits";
/// Vacation-distribution cache misses (counter).
pub const CORE_VACATION_CACHE_MISSES: &str = "core.vacation.cache_misses";
/// Level cap chosen for effective-quantum truncation (histogram).
pub const CORE_EFFECTIVE_LEVEL_CAP: &str = "core.effective.level_cap";
/// Probability mass beyond the truncation cap (histogram).
pub const CORE_EFFECTIVE_TRUNCATED_MASS: &str = "core.effective.truncated_mass";
/// Jobs-ahead cap of the response-time analysis (histogram).
pub const CORE_RESPONSE_AHEAD_CAP: &str = "core.response.ahead_cap";
/// Mass folded into the response-time cap (histogram).
pub const CORE_RESPONSE_FOLDED_MASS: &str = "core.response.folded_mass";

// ---- gsched-sim ----

/// Completed simulation runs (counter).
pub const SIM_RUNS: &str = "sim.runs";
/// Events popped off the simulator's queue (counter).
pub const SIM_EVENTS_PROCESSED: &str = "sim.events_processed";
/// Timeplexing cycles completed (counter).
pub const SIM_CYCLES_COMPLETED: &str = "sim.cycles_completed";
/// Jobs completed after warmup (counter).
pub const SIM_COMPLETIONS: &str = "sim.completions";
/// Simulated time covered by measurement (gauge).
pub const SIM_MEASURED_TIME: &str = "sim.measured_time";
/// Simulator event throughput (gauge).
pub const SIM_EVENT_RATE_PER_SEC: &str = "sim.event_rate_per_sec";

/// Per-class simulator queue-length histogram name (`sim.classP.queue_len`).
pub fn sim_queue_length(class: usize) -> String {
    format!("sim.class{class}.queue_len")
}

/// Every exported metric-name constant, for hygiene checks and discovery
/// tooling. A constant added above without a row here fails the
/// `all_registry_is_complete`-style tests downstream — keep them in sync.
pub const ALL: &[&str] = &[
    SERVICE_CONNECTIONS,
    SERVICE_REQUESTS,
    SERVICE_ERRORS,
    SERVICE_CACHE_HITS,
    SERVICE_CACHE_MISSES,
    SERVICE_QUEUE_DEPTH,
    SERVICE_REQUEST_LATENCY_MS,
    SERVICE_QUEUE_WAIT_MS,
    SERVICE_SOLVE_MS,
    SERVICE_CANCELLED_DISCONNECTS,
    SERVICE_SHED,
    SERVICE_SINGLEFLIGHT_COALESCED,
    ENGINE_WARM_HITS,
    ENGINE_WARM_MISSES,
    ENGINE_SWEEP_CANCELLED_POINTS,
    ENGINE_SWEEP_WARM_HIT_RATE,
    ENGINE_SWEEP_JOBS,
    QBD_RMATRIX_SOLVES,
    QBD_RMATRIX_ITERATIONS,
    QBD_RMATRIX_ITERATIONS_PER_SOLVE,
    QBD_RMATRIX_RESIDUAL,
    QBD_RMATRIX_WARM_HITS,
    QBD_RMATRIX_WARM_MISSES,
    QBD_DRIFT_MARGIN,
    QBD_TRUNCATION_ATTEMPTS,
    QBD_TRUNCATION_UNSTABLE_SKIPS,
    QBD_BOUNDARY_LEVELS_ELIMINATED,
    QBD_BOUNDARY_LEVELS_BUILT,
    CORE_SOLVER_SOLVES,
    CORE_SOLVER_FP_ITERATIONS,
    CORE_SOLVER_FP_RESTARTS,
    CORE_SOLVER_FINAL_CHANGE,
    CORE_SOLVER_EFFECTIVE_QUANTUM_MEAN,
    CORE_VACATION_CACHE_HITS,
    CORE_VACATION_CACHE_MISSES,
    CORE_EFFECTIVE_LEVEL_CAP,
    CORE_EFFECTIVE_TRUNCATED_MASS,
    CORE_RESPONSE_AHEAD_CAP,
    CORE_RESPONSE_FOLDED_MASS,
    SIM_RUNS,
    SIM_EVENTS_PROCESSED,
    SIM_CYCLES_COMPLETED,
    SIM_COMPLETIONS,
    SIM_MEASURED_TIME,
    SIM_EVENT_RATE_PER_SEC,
];

/// Crate prefixes metric names are allowed to start with.
pub const CRATE_PREFIXES: &[&str] = &["service", "engine", "qbd", "core", "sim"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_length_names_are_stable() {
        assert_eq!(sim_queue_length(0), "sim.class0.queue_len");
        assert_eq!(sim_queue_length(7), "sim.class7.queue_len");
    }

    /// True when `name` matches the documented `crate.component.operation`
    /// form: 2–4 dot-separated segments of `[a-z0-9_]`, first segment a
    /// known crate prefix.
    fn well_formed(name: &str) -> bool {
        let segments: Vec<&str> = name.split('.').collect();
        if !(2..=4).contains(&segments.len()) {
            return false;
        }
        if !CRATE_PREFIXES.contains(&segments[0]) {
            return false;
        }
        segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
    }

    #[test]
    fn all_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate metric name `{name}`");
        }
    }

    #[test]
    fn all_names_are_well_formed() {
        for name in ALL {
            assert!(
                well_formed(name),
                "metric name `{name}` violates crate.component.operation form"
            );
        }
        // Generated per-class names follow the same convention.
        assert!(well_formed(&sim_queue_length(3)));
    }

    /// `ALL` must list every `pub const NAME: &str` declared in this file —
    /// counted from the source text, so adding a constant without
    /// registering it is a test failure, not a silent omission.
    #[test]
    fn all_registry_is_complete() {
        let declared = include_str!("names.rs")
            .lines()
            .filter(|l| l.trim_start().starts_with("pub const ") && l.contains(": &str ="))
            .count();
        assert_eq!(
            declared,
            ALL.len(),
            "a `pub const ...: &str` in names.rs is missing from ALL (or vice versa)"
        );
    }

    #[test]
    fn well_formed_rejects_bad_shapes() {
        for bad in [
            "engine",               // no component
            "Engine.warm.hits",     // uppercase
            "engine..hits",         // empty segment
            "unknown.warm.hits",    // unknown crate prefix
            "engine.warm.hits.a.b", // too deep
        ] {
            assert!(!well_formed(bad), "`{bad}` should be rejected");
        }
    }
}
