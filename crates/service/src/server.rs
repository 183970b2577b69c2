//! The long-running solve server.
//!
//! A [`Server`] owns a `TcpListener`, a fixed pool of solver worker
//! threads, and a shared [`MemoryLru`] result cache. Connection threads parse
//! request frames, serve cache hits immediately, and enqueue misses for
//! the worker pool. Each worker takes one job at a time and solves,
//! renders, caches, and publishes it; a sweep job is one engine
//! [`run_sweep`] call on the worker's own thread (`jobs = 1`). All
//! threads are scoped (`crossbeam::scope`) so `run` cannot return with
//! work still borrowing the server.
//!
//! # Concurrency control
//!
//! Two mechanisms keep the server healthy under concurrent traffic:
//!
//! * **Singleflight** — cache misses for the same cache key (operation +
//!   grid flavour + scenario content hash) coalesce onto one in-flight
//!   solve: the first requester (the *leader*) enqueues the job, later
//!   identical requests join as *waiters* on the same `FlightSlot` and
//!   all share the published result. The solve is cancelled only when
//!   the **last** waiter departs; one impatient client never kills work
//!   another client is still waiting for.
//! * **Admission control** — when `queue_limit` is set, requests that
//!   would push the queue past the limit are shed with an `overloaded`
//!   error frame instead of being allowed to grow the queue without
//!   bound. Shed counts and the configured limit are reported by `stats`.
//!
//! # Lifecycle and degradation
//!
//! * **Deadlines** — each waiter enforces its own deadline while blocked
//!   on a flight; an exceeded deadline yields a `deadline_exceeded`
//!   error frame and the waiter departs (cancelling the solve only if it
//!   was the last one). A result that completes anyway is still cached
//!   for the next caller.
//! * **Client disconnects** — while a request is in flight its connection
//!   thread polls the socket; a hangup departs the flight, and the last
//!   departure cancels the token so workers stop early instead of
//!   solving for nobody.
//! * **Failures** — validation and solver errors (and even worker panics)
//!   become structured error frames; the server itself never dies with a
//!   request.
//! * **Shutdown** — a `shutdown` frame, [`Server::request_shutdown`], or
//!   SIGINT (when [`install_ctrl_c_handler`] was called) stops the accept
//!   loop, drains queued jobs, joins every thread, and returns from `run`.

use crate::cache::MemoryLru;
use crate::protocol::{parse_request, ErrorKind, Op, Request, Response, ScenarioRef, ServiceError};
use crate::render;
use crate::telemetry::{op_index, ExternalStats, Telemetry, INVALID_OP};
use gsched_core::{solve, SolverOptions};
use gsched_engine::{run_sweep, CancelToken, SweepOptions};
use gsched_obs as obs;
use gsched_scenario::{registry, Scenario};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Validated configuration for [`Server::bind`].
///
/// Construct via [`ServeConfig::builder`]; `Default` gives the same
/// values the builder starts from. Marked non-exhaustive so new knobs
/// can be added without breaking builder users.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (port `0` picks a free port).
    pub addr: String,
    /// Solver worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Default per-request deadline in milliseconds, applied when a
    /// request does not carry `deadline_ms`; `0` means no default.
    pub default_deadline_ms: u64,
    /// Shed requests once this many jobs are queued (`overloaded` error
    /// frames); `0` leaves the queue unbounded.
    pub queue_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 0,
            cache_capacity: 256,
            default_deadline_ms: 30_000,
            queue_limit: 0,
        }
    }
}

impl ServeConfig {
    /// Start from the defaults and override selectively.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`] with validation at `build` time.
///
/// Setters chain, and every misconfiguration is reported as a
/// [`ServiceError`] of kind `bad_request` — the same error shape the wire
/// protocol uses — so CLI flags and programmatic configuration fail
/// identically.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Solver worker threads; `0` uses available parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Result-cache capacity in entries; `0` disables caching.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.config.cache_capacity = entries;
        self
    }

    /// Default per-request deadline in milliseconds; `0` disables.
    pub fn default_deadline_ms(mut self, ms: u64) -> Self {
        self.config.default_deadline_ms = ms;
        self
    }

    /// Shed requests once this many jobs are queued; `0` = unbounded.
    pub fn queue_limit(mut self, limit: usize) -> Self {
        self.config.queue_limit = limit;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig, ServiceError> {
        let bad = |msg: String| ServiceError::new(ErrorKind::BadRequest, msg);
        let c = self.config;
        if c.addr.is_empty() {
            return Err(bad("listen address must not be empty".to_string()));
        }
        Ok(c)
    }
}

/// How often blocked threads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Set by the SIGINT handler; observed by every running server.
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Install a process-wide SIGINT (ctrl-c) handler that asks running
/// servers to shut down cleanly. Safe to call more than once. On
/// non-Unix platforms this is a no-op and SIGINT falls back to the
/// platform default.
pub fn install_ctrl_c_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_signum: i32) {
            SIGINT_RECEIVED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// Source of process-unique request context ids (`0` is reserved for
/// "no context"). Process-wide, not per-server, so parallel test servers
/// sharing the global recorder never collide.
static NEXT_REQUEST_CTX: AtomicU64 = AtomicU64::new(1);

/// What a flight publishes for all of its waiters.
type FlightResult = Result<Arc<String>, ServiceError>;

/// The rendezvous between one in-flight solve and every connection
/// waiting on it.
///
/// Created by the flight's leader, shared through the server's in-flight
/// map, published exactly once (by a worker, or by the leader on a shed).
struct FlightSlot {
    /// Cancels the underlying solve. Fired when the *last* waiter
    /// departs, or to bound shutdown latency — never by one waiter's
    /// deadline while others still want the result.
    cancel: CancelToken,
    /// Connections currently waiting. Only mutated under the in-flight
    /// map lock, so join/depart decisions are race-free.
    waiters: AtomicU64,
    /// Set once the outcome is published (lock-free fast check).
    done: AtomicBool,
    /// The published outcome; waiters block on `ready` until it is set.
    outcome: Mutex<Option<FlightResult>>,
    ready: Condvar,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            cancel: CancelToken::new(),
            waiters: AtomicU64::new(1),
            done: AtomicBool::new(false),
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// One queued unit of solver work (the leader's half of a flight).
struct Job {
    scenario: Scenario,
    /// The options the scenario solves under.
    solver: SolverOptions,
    op: Op,
    quick: bool,
    cache_key: u64,
    cancel: CancelToken,
    /// Request context of the flight's leader; the worker re-enters it so
    /// solver spans stay attributed to that request.
    ctx: u64,
    /// When the job entered the queue (queue-wait measurement).
    enqueued: Instant,
    reply: Arc<FlightSlot>,
}

#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    errors: AtomicU64,
    queue_depth: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
}

/// The solve server. See the module docs for the threading model.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    default_deadline_ms: u64,
    queue_limit: usize,
    cache: MemoryLru,
    queue: JobQueue,
    /// In-flight solves by cache key; the singleflight map.
    inflight: Mutex<HashMap<u64, Arc<FlightSlot>>>,
    stats: Stats,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    solver: SolverOptions,
}

impl Server {
    /// Bind the listen socket and prepare (but do not start) the server.
    pub fn bind(opts: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let workers = if opts.workers > 0 {
            opts.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        Ok(Server {
            listener,
            workers,
            default_deadline_ms: opts.default_deadline_ms,
            queue_limit: opts.queue_limit,
            cache: MemoryLru::new(opts.cache_capacity),
            queue: JobQueue::default(),
            inflight: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            telemetry: Telemetry::new(),
            shutdown: AtomicBool::new(false),
            // The same defaults `gsched solve` uses, so served results are
            // byte-identical to local solves.
            solver: SolverOptions::default(),
        })
    }

    /// The bound address (useful after binding port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Worker threads the pool will run.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Ask the server to stop: the accept loop closes, queued work drains,
    /// and [`Server::run`] returns. Callable from any thread.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGINT_RECEIVED.load(Ordering::SeqCst)
    }

    /// Serve until shutdown is requested (frame, [`Server::request_shutdown`],
    /// or SIGINT). Blocks the calling thread; workers and connection
    /// handlers run on scoped threads and are all joined before this
    /// returns.
    pub fn run(&self) -> std::io::Result<()> {
        let _span = obs::span("service.run");
        crossbeam::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|_| self.worker_loop());
            }
            loop {
                if self.shutting_down() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        obs::counter_add(obs::names::SERVICE_CONNECTIONS, 1);
                        self.telemetry.record_connection();
                        s.spawn(move |_| self.handle_connection(stream));
                    }
                    Err(e)
                        if e.kind() == IoErrorKind::WouldBlock
                            || e.kind() == IoErrorKind::TimedOut =>
                    {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    // Transient accept errors (e.g. aborted handshakes)
                    // must not kill the server.
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            self.queue.ready.notify_all();
        })
        .expect("service threads join cleanly");
        Ok(())
    }

    // ---- worker side ----

    /// Pop the next job; `None` means shutdown with an empty queue.
    fn next_job(&self) -> Option<Job> {
        let mut jobs = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutting_down() {
                return None;
            }
            let (guard, _) = self
                .queue
                .ready
                .wait_timeout(jobs, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner());
            jobs = guard;
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.next_job() {
            let depth = self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
            obs::gauge_set(obs::names::SERVICE_QUEUE_DEPTH, depth as f64);
            let queue_wait_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
            self.telemetry.record_queue_wait(queue_wait_ms);
            obs::observe(obs::names::SERVICE_QUEUE_WAIT_MS, queue_wait_ms);
            let _busy = self.telemetry.worker_busy();
            let t0 = Instant::now();
            // Re-enter the request's context so every span the work opens
            // here (service.solve, service.sweep, engine.sweep.*, core/qbd
            // internals) carries its request_id in the trace export.
            let _ctx = obs::context_enter(job.ctx);
            // A panic inside numerical code must degrade to an error
            // frame, never take the whole server down.
            let result = catch_unwind(AssertUnwindSafe(|| match job.op {
                Op::Sweep => self.process_sweep(&job),
                Op::Solve => self.process_solve(&job),
                Op::Stats | Op::Shutdown => {
                    unreachable!("control operations never reach the queue")
                }
            }))
            .unwrap_or_else(|_| {
                Err(ServiceError::new(
                    ErrorKind::Internal,
                    "worker panicked while processing the request",
                ))
            });
            let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.telemetry.record_solve(solve_ms);
            obs::observe(obs::names::SERVICE_SOLVE_MS, solve_ms);
            self.publish(job.cache_key, &job.reply, result);
        }
    }

    /// Publish a flight's outcome to every waiter and retire the flight.
    ///
    /// The map entry is removed only if it still points at this slot — a
    /// fresh flight for the same key (created after every earlier waiter
    /// departed) must not be disturbed.
    fn publish(&self, key: u64, slot: &Arc<FlightSlot>, outcome: FlightResult) {
        {
            let mut published = slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
            *published = Some(outcome);
        }
        slot.done.store(true, Ordering::SeqCst);
        slot.ready.notify_all();
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = map.get(&key) {
            if Arc::ptr_eq(entry, slot) {
                map.remove(&key);
            }
        }
    }

    /// Solve one `solve` job: the scenario's single model.
    fn process_solve(&self, job: &Job) -> Result<Arc<String>, ServiceError> {
        if job.cancel.is_cancelled() {
            return Err(cancel_error(&job.cancel));
        }
        let _span = obs::span("service.solve");
        let model = job
            .scenario
            .build_model()
            .map_err(|e| ServiceError::new(ErrorKind::InvalidScenario, e.to_string()))?;
        let sol = solve(&model, &job.solver)
            .map_err(|e| ServiceError::new(ErrorKind::SolveFailed, e.to_string()))?;
        let rendered = Arc::new(render::solution_json(&sol));
        // Cache even when the deadline has passed: the work is done and
        // the next caller should benefit.
        self.cache.insert(job.cache_key, rendered.clone());
        if job.cancel.is_cancelled() {
            return Err(cancel_error(&job.cancel));
        }
        Ok(rendered)
    }

    /// Evaluate one `sweep` job: its grid through [`run_sweep`] on this
    /// worker's thread, under the job's solver options and cancel token.
    /// Concurrency comes from the server's worker pool.
    fn process_sweep(&self, job: &Job) -> Result<Arc<String>, ServiceError> {
        if job.cancel.is_cancelled() {
            return Err(cancel_error(&job.cancel));
        }
        let _span = obs::span("service.sweep");
        let req = job
            .scenario
            .sweep_request(job.quick)
            .map_err(|e| ServiceError::new(ErrorKind::InvalidScenario, e.to_string()))?;
        let opts = SweepOptions::default()
            .with_jobs(1)
            .with_solver(job.solver.clone())
            .with_cancel(job.cancel.clone());
        let report = run_sweep(&req, &opts);
        if job.cancel.is_cancelled() {
            return Err(cancel_error(&job.cancel));
        }
        let classes = job.scenario.machine.classes.len();
        let rendered = Arc::new(format!(
            "[{}]",
            render::sweep_report_json(&job.scenario.name, &report, classes)
        ));
        self.cache.insert(job.cache_key, rendered.clone());
        Ok(rendered)
    }

    // ---- connection side ----

    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            if self.shutting_down() {
                return;
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => return, // client closed
                Ok(_) => {
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    buf.clear();
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let Some(reply) = self.handle_request(&writer, line) else {
                        return; // client vanished mid-request
                    };
                    if writer
                        .write_all(reply.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .is_err()
                    {
                        return;
                    }
                }
                // Timeout with a partial line: the bytes read so far stay
                // in `buf`; keep accumulating.
                Err(e)
                    if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }

    /// Process one request line; `None` means the client disconnected and
    /// no reply can be delivered.
    ///
    /// Allocates the request's trace context (its `request_id`), times the
    /// request end to end, and updates per-op telemetry — for every
    /// outcome, including dropped clients.
    fn handle_request(&self, stream: &TcpStream, line: &str) -> Option<String> {
        let ctx = NEXT_REQUEST_CTX.fetch_add(1, Ordering::Relaxed);
        let _ctx_guard = obs::context_enter(ctx);
        let t0 = Instant::now();
        let _span = obs::span("service.request");
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::names::SERVICE_REQUESTS, 1);
        let (op, reply) = self.dispatch(stream, line, ctx);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let errored = matches!(reply, Some(Err(_)));
        self.telemetry
            .record_request(op.map_or(INVALID_OP, op_index), latency_ms, errored);
        obs::observe(obs::names::SERVICE_REQUEST_LATENCY_MS, latency_ms);
        reply.map(|frame| frame.unwrap_or_else(|error_frame| error_frame))
    }

    /// The op dispatch behind [`Server::handle_request`]: the parsed op
    /// (`None` for a frame that did not parse) and the reply, `Ok` for a
    /// success frame and `Err` for an error frame. No reply means the
    /// client is gone.
    #[allow(clippy::type_complexity)]
    fn dispatch(
        &self,
        stream: &TcpStream,
        line: &str,
        ctx: u64,
    ) -> (Option<Op>, Option<Result<String, String>>) {
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => return (None, Some(Err(self.error_reply(None, e)))),
        };
        let id = req.id.clone();
        let reply = match req.op {
            Op::Stats => Some(Ok(Response::ok(
                id,
                Op::Stats,
                false,
                Arc::new(self.stats_json()),
            )
            .render())),
            Op::Shutdown => {
                self.request_shutdown();
                self.queue.ready.notify_all();
                Some(Ok(Response::ok(
                    id,
                    Op::Shutdown,
                    false,
                    Arc::new(r#"{"stopping":true}"#.to_string()),
                )
                .render()))
            }
            Op::Solve | Op::Sweep => self
                .serve(stream, &req, ctx)
                .map(|outcome| outcome.map_err(|e| self.error_reply(id, e))),
        };
        (Some(req.op), reply)
    }

    /// Answer a `solve` or `sweep` request from the cache, or join (or
    /// lead) its flight and wait. `None` means the client is gone.
    fn serve(
        &self,
        stream: &TcpStream,
        req: &Request,
        ctx: u64,
    ) -> Option<Result<String, ServiceError>> {
        if self.shutting_down() {
            return Some(Err(ServiceError::new(
                ErrorKind::ShuttingDown,
                "server is shutting down",
            )));
        }
        let scenario = match resolve_scenario(req.scenario.as_ref()) {
            Ok(sc) => sc,
            Err(e) => return Some(Err(e)),
        };
        let key = cache_key(req.op, req.quick, scenario.content_hash());
        if let Some(hit) = self.cache.get(key) {
            obs::counter_add(obs::names::SERVICE_CACHE_HITS, 1);
            return Some(Ok(Response::ok(req.id.clone(), req.op, true, hit).render()));
        }
        obs::counter_add(obs::names::SERVICE_CACHE_MISSES, 1);
        let outcome = self.dispatch_and_wait(stream, req, scenario, key, ctx)?;
        Some(outcome.map(|result| Response::ok(req.id.clone(), req.op, false, result).render()))
    }

    /// Join (or lead) the singleflight for `key` and wait for its result,
    /// watching for client disconnects. `None` means the client is gone.
    fn dispatch_and_wait(
        &self,
        stream: &TcpStream,
        req: &Request,
        scenario: Scenario,
        key: u64,
        ctx: u64,
    ) -> Option<FlightResult> {
        let deadline_ms = req.deadline_ms.unwrap_or(self.default_deadline_ms);
        let deadline =
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
        // Join an identical in-flight solve, or lead a new one.
        let (slot, leader) = {
            let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(existing) => {
                    existing.waiters.fetch_add(1, Ordering::SeqCst);
                    (existing.clone(), false)
                }
                None => {
                    let slot = Arc::new(FlightSlot::new());
                    map.insert(key, slot.clone());
                    (slot, true)
                }
            }
        };
        if leader {
            if let Err(e) = self.try_enqueue(req, scenario, key, &slot, ctx) {
                // Publish the shed to the slot (not just this caller) so
                // followers that raced in behind us see the same outcome.
                self.publish(key, &slot, Err(e));
            }
        } else {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            obs::counter_add(obs::names::SERVICE_SINGLEFLIGHT_COALESCED, 1);
        }
        self.wait_for_flight(stream, &slot, key, deadline)
    }

    /// Enqueue the leader's job, shedding instead when the queue is at
    /// its configured limit. Admission is decided under the queue lock so
    /// the limit is exact.
    fn try_enqueue(
        &self,
        req: &Request,
        scenario: Scenario,
        key: u64,
        slot: &Arc<FlightSlot>,
        ctx: u64,
    ) -> Result<(), ServiceError> {
        let mut jobs = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if self.queue_limit > 0 && jobs.len() >= self.queue_limit {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            obs::counter_add(obs::names::SERVICE_SHED, 1);
            return Err(ServiceError::new(
                ErrorKind::Overloaded,
                format!(
                    "queue is full ({} of {} jobs); retry later",
                    jobs.len(),
                    self.queue_limit
                ),
            ));
        }
        // Count the job before it becomes visible to workers, so their
        // decrement can never underflow the gauge.
        let depth = self.stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        obs::gauge_set(obs::names::SERVICE_QUEUE_DEPTH, depth as f64);
        jobs.push_back(Job {
            solver: scenario.solver_options(&self.solver),
            scenario,
            op: req.op,
            quick: req.quick,
            cache_key: key,
            cancel: slot.cancel.clone(),
            ctx,
            enqueued: Instant::now(),
            reply: slot.clone(),
        });
        drop(jobs);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Block on a flight until its outcome is published, this waiter's
    /// own deadline passes, or the client hangs up. Departing waiters
    /// cancel the solve only when they are the last one still interested.
    fn wait_for_flight(
        &self,
        stream: &TcpStream,
        slot: &Arc<FlightSlot>,
        key: u64,
        deadline: Option<Instant>,
    ) -> Option<FlightResult> {
        let mut outcome = slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(published) = outcome.as_ref() {
                return Some(published.clone());
            }
            let (guard, _) = slot
                .ready
                .wait_timeout(outcome, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner());
            outcome = guard;
            if outcome.is_some() {
                continue;
            }
            if client_gone(stream) {
                // Nobody is listening on this connection; leave the
                // flight (the solve continues if others still wait).
                drop(outcome);
                self.depart(key, slot);
                obs::counter_add(obs::names::SERVICE_CANCELLED_DISCONNECTS, 1);
                return None;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    drop(outcome);
                    self.depart(key, slot);
                    return Some(Err(ServiceError::new(
                        ErrorKind::DeadlineExceeded,
                        "request exceeded its deadline",
                    )));
                }
            }
            if self.shutting_down() {
                // Bound shutdown latency: abandon between points. The
                // worker still publishes (a cancelled error), so waiters
                // drain normally.
                slot.cancel.cancel();
            }
        }
    }

    /// Remove one waiter from a flight. The last waiter to leave an
    /// unfinished flight cancels the solve and retires the map entry so a
    /// later identical request starts fresh.
    fn depart(&self, key: u64, slot: &Arc<FlightSlot>) {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if slot.waiters.fetch_sub(1, Ordering::SeqCst) == 1 {
            if !slot.done.load(Ordering::SeqCst) {
                slot.cancel.cancel();
            }
            if let Some(entry) = map.get(&key) {
                if Arc::ptr_eq(entry, slot) {
                    map.remove(&key);
                }
            }
        }
    }

    fn error_reply(&self, id: Option<String>, error: ServiceError) -> String {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::names::SERVICE_ERRORS, 1);
        Response::error(id, error).render()
    }

    /// Server-owned counters the telemetry reports fold in.
    fn external_stats(&self) -> ExternalStats {
        ExternalStats {
            workers: self.workers,
            queue_depth: self.stats.queue_depth.load(Ordering::Relaxed),
            queue_limit: self.queue_limit,
            requests: self.stats.requests.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.len(),
            cache_capacity: self.cache.capacity(),
        }
    }

    /// The `stats` result document (see [`Telemetry::stats_json`]).
    fn stats_json(&self) -> String {
        self.telemetry.stats_json(&self.external_stats())
    }
}

/// Map a fired token to the right error: deadline if one was set and has
/// passed, explicit cancellation otherwise.
fn cancel_error(token: &CancelToken) -> ServiceError {
    match token.deadline() {
        Some(deadline) if Instant::now() >= deadline => {
            ServiceError::new(ErrorKind::DeadlineExceeded, "request exceeded its deadline")
        }
        _ => ServiceError::new(ErrorKind::Cancelled, "request was cancelled"),
    }
}

/// Resolve the request's scenario reference against the registry.
fn resolve_scenario(sref: Option<&ScenarioRef>) -> Result<Scenario, ServiceError> {
    match sref {
        Some(ScenarioRef::Name(name)) => registry::lookup(name).ok_or_else(|| {
            ServiceError::new(
                ErrorKind::UnknownScenario,
                format!(
                    "unknown scenario {name:?} (registry: {})",
                    registry::NAMES.join(", ")
                ),
            )
        }),
        Some(ScenarioRef::Inline(sc)) => Ok((**sc).clone()),
        // parse_request guarantees a scenario for solve/sweep.
        None => Err(ServiceError::new(ErrorKind::BadRequest, "missing scenario")),
    }
}

/// Fold the operation and grid flavour into the scenario's content hash
/// (splitmix64 finalizer, so shard selection sees well-mixed bits).
fn cache_key(op: Op, quick: bool, content_hash: u64) -> u64 {
    let tag: u64 = match (op, quick) {
        (Op::Sweep, false) => 2,
        (Op::Sweep, true) => 3,
        _ => 1, // solve has no grid; quick is irrelevant
    };
    let mut x = content_hash ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// True when the peer of `stream` has hung up (without consuming data a
/// pipelined client may already have sent).
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,  // orderly shutdown
        Ok(_) => false, // next pipelined request waiting
        Err(e) => !matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut),
    };
    // Back to blocking mode; the configured read timeout still applies.
    let _ = stream.set_nonblocking(false);
    gone
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_separates_ops_and_grids() {
        let h = 0xDEADBEEFu64;
        let solve = cache_key(Op::Solve, false, h);
        assert_eq!(solve, cache_key(Op::Solve, true, h));
        let sweep = cache_key(Op::Sweep, false, h);
        let sweep_quick = cache_key(Op::Sweep, true, h);
        assert_ne!(solve, sweep);
        assert_ne!(sweep, sweep_quick);
        assert_ne!(cache_key(Op::Solve, false, h + 1), solve);
    }

    #[test]
    fn bind_on_port_zero_reports_addr() {
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .build()
            .unwrap();
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        assert_eq!(server.worker_count(), 2);
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = ServeConfig::builder().build().unwrap();
        let defaults = ServeConfig::default();
        assert_eq!(built.addr, defaults.addr);
        assert_eq!(built.cache_capacity, defaults.cache_capacity);
        assert_eq!(built.queue_limit, defaults.queue_limit);
    }

    #[test]
    fn builder_rejects_misconfiguration_with_bad_request() {
        let err = ServeConfig::builder().addr("").build().unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest, "{}", err.message);
    }

    #[test]
    fn builder_accepts_full_configuration() {
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .workers(4)
            .cache_capacity(64)
            .default_deadline_ms(5_000)
            .queue_limit(32)
            .build()
            .unwrap();
        assert_eq!(config.workers, 4);
        assert_eq!(config.cache_capacity, 64);
        assert_eq!(config.default_deadline_ms, 5_000);
        assert_eq!(config.queue_limit, 32);
    }
}
