//! The service probe every traced run ends with: a seeded Zipf slice of
//! service traffic, sent open-loop from one process over two connections to
//! an in-process `gsched-service` server with two workers. The slice asks for
//! more distinct keys than the server caches, so it draws hits, misses,
//! evictions and, when a popular key repeats while its first solve runs,
//! coalesced duplicates. Every reply is checked against a local solve.

use crate::inputs::{self, Arrival, ServiceDoc, Traffic, SERVICE_CACHE_CAPACITY};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{ServiceLayer, Spans};
use gsched_core::SolverOptions;
use gsched_engine::{run_sweep, SweepOptions};
use gsched_scenario::Scenario;
use gsched_service::client::control_frame;
use gsched_service::render::{solution_json, sweep_report_json};
use gsched_service::{extract_result, Op, ServeConfig, Server};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server worker threads and client connections (the machine's 2 cores).
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Longest a reply may take before it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests in the probe. Under the Zipf law of [`Traffic`] this many draw
/// 40–50 distinct keys for the [`SERVICE_CACHE_CAPACITY`] cache entries, and
/// about 80% of them hit the cache.
const PROBE_REQUESTS: usize = 240;
/// Offered rate: below the 40–68 req/s two workers sustained on this mix,
/// so nothing queues for long or is shed.
const PROBE_RPS: f64 = 30.0;

/// One connection, driven by one client thread. The socket is
/// non-blocking and the thread sleeps between polls: socket read timeouts
/// only wake on scheduler ticks, which would delay sends by milliseconds.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// How often a client thread polls for replies while any are outstanding.
const REPLY_POLL: Duration = Duration::from_micros(100);

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// One complete reply line, if one has arrived.
    fn poll_line(&mut self) -> Result<Option<String>, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        let mut at = 0;
        while at < bytes.len() {
            match self.stream.write(&bytes[at..]) {
                Ok(0) => return Err("connection closed while sending".to_string()),
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(REPLY_POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }

    /// One closed-loop request (used for `stats`).
    fn request(&mut self, frame: &str) -> Result<String, String> {
        self.send(frame)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(line) = self.poll_line()? {
                return Ok(line);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("no reply".to_string())
    }
}

/// A server on a loopback port plus the client's connections to it.
struct Harness {
    server: Arc<Server>,
    thread: JoinHandle<std::io::Result<()>>,
    conns: Vec<Conn>,
}

impl Harness {
    fn start() -> Result<Harness, String> {
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .workers(WORKERS)
            .cache_capacity(SERVICE_CACHE_CAPACITY)
            .build()
            .map_err(|e| e.message)?;
        let server = Arc::new(Server::bind(&config).map_err(|e| format!("bind: {e}"))?);
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let runner = server.clone();
        let thread = std::thread::spawn(move || runner.run());
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(&addr))
            .collect::<Result<_, _>>()?;
        Ok(Harness {
            server,
            thread,
            conns,
        })
    }

    fn stats(&mut self) -> Result<Value, String> {
        let frame = self.conns[0].request(&control_frame(Op::Stats, None))?;
        let result = extract_result(&frame).ok_or("stats reply carries no result")?;
        serde_json::from_str(result).map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.server.request_shutdown();
        drop(self.conns);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    key: usize,
    sweep: bool,
    /// From the send to the reply.
    rtt_ms: f64,
    ok: bool,
    cached: bool,
    /// Hash of the (normalized) result bytes of an ok reply.
    result_hash: u64,
}

/// What the client saw over the probe.
#[derive(Debug, Default)]
struct Phase {
    samples: Vec<Sample>,
    lost: usize,
    gen_lag_max_ms: f64,
    /// First result bytes seen per `(key, sweep)`.
    first_results: BTreeMap<(usize, bool), String>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.lost += other.lost;
        self.gen_lag_max_ms = self.gen_lag_max_ms.max(other.gen_lag_max_ms);
        for (k, v) in other.first_results {
            self.first_results.entry(k).or_insert(v);
        }
    }
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A sweep result with its run-dependent fields (`jobs`, `wall_ms`) blanked;
/// a solve result unchanged.
fn normalized(result: &str, sweep: bool) -> String {
    if !sweep {
        return result.to_string();
    }
    let mut s = result.to_string();
    for field in ["\"jobs\":", "\"wall_ms\":"] {
        if let Some(at) = s.find(field) {
            let start = at + field.len();
            let end = s[start..].find(',').map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "_");
        }
    }
    s
}

/// Drive `arrivals` open-loop at `rate` requests/s over the connections,
/// request `i` on connection `i % 2`: request `i` is due at the cumulative
/// sum of gaps scaled to the rate and goes out whether or not earlier
/// replies have arrived.
fn run_phase(
    conns: &mut [Conn],
    docs: &[ServiceDoc],
    arrivals: &[Arrival],
    rate: f64,
    spans: &Spans,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let mut at = 0.0;
    let due: Vec<Instant> = arrivals
        .iter()
        .map(|a| {
            at += a.unit_gap / rate;
            start + Duration::from_secs_f64(at)
        })
        .collect();
    let n = conns.len();
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = (c..arrivals.len()).step_by(n).collect();
                let due = &due;
                scope.spawn(move || drive(conn, docs, arrivals, &mine, due, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Phase::default();
    for p in phases {
        out.absorb(p);
    }
    out
}

/// One connection's share of the probe.
fn drive(
    conn: &mut Conn,
    docs: &[ServiceDoc],
    arrivals: &[Arrival],
    mine: &[usize],
    due: &[Instant],
    spans: &Spans,
) -> Phase {
    let mut out = Phase::default();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        if next < mine.len() && due[mine[next]] <= now {
            let i = mine[next];
            out.gen_lag_max_ms = out
                .gen_lag_max_ms
                .max(now.duration_since(due[i]).as_secs_f64() * 1e3);
            if conn.send(&docs[arrivals[i].key].frame).is_err() {
                out.lost += pending.len() + mine.len() - next;
                return out;
            }
            pending.push_back((i, now));
            next += 1;
            continue;
        }
        if pending.is_empty() && next == mine.len() {
            return out;
        }
        if pending.is_empty() {
            last_progress = now;
        }
        if now.duration_since(last_progress) > REPLY_TIMEOUT {
            out.lost += pending.len() + mine.len() - next;
            return out;
        }
        let line = match conn.poll_line() {
            Ok(Some(line)) => line,
            Ok(None) => {
                let until_due = mine
                    .get(next)
                    .map(|&i| due[i].saturating_duration_since(now));
                let nap = match (pending.is_empty(), until_due) {
                    (true, Some(d)) => d,
                    (false, Some(d)) => d.min(REPLY_POLL),
                    (_, None) => REPLY_POLL,
                };
                std::thread::sleep(nap);
                continue;
            }
            Err(_) => {
                out.lost += pending.len() + mine.len() - next;
                return out;
            }
        };
        let done = Instant::now();
        last_progress = done;
        let Some((i, sent)) = pending.pop_front() else {
            continue;
        };
        let a = arrivals[i];
        let ok = line.starts_with(r#"{"status":"ok""#);
        let cached = line.contains(r#""cached":true,"result""#);
        let mut result_hash = 0;
        if ok {
            if let Some(result) = extract_result(&line) {
                let norm = normalized(result, a.sweep);
                result_hash = fnv(norm.as_bytes());
                out.first_results.entry((a.key, a.sweep)).or_insert(norm);
            }
        }
        let name = if cached {
            "service.request.hit"
        } else {
            "service.request.miss"
        };
        spans.record(spans.id(), name, None, i as u64 + 1, sent, done);
        out.samples.push(Sample {
            key: a.key,
            sweep: a.sweep,
            rtt_ms: done.duration_since(sent).as_secs_f64() * 1e3,
            ok,
            cached,
            result_hash,
        });
    }
}

/// Solve locally every `(key, sweep)` the probe asked for, on two threads,
/// and render each answer as the server renders it.
fn local_answers(
    docs: &[ServiceDoc],
    keys: &BTreeSet<(usize, bool)>,
) -> BTreeMap<(usize, bool), Result<String, String>> {
    let keys: Vec<(usize, bool)> = keys.iter().copied().collect();
    let halves: Vec<&[(usize, bool)]> = keys.chunks(keys.len().div_ceil(2).max(1)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(key, sweep)| ((key, sweep), local_answer(&docs[key].json, sweep)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    })
}

fn local_answer(json: &str, sweep: bool) -> Result<String, String> {
    let sc = Scenario::from_json(json).map_err(|e| e.to_string())?;
    let result = if sweep {
        let req = sc.sweep_request(true).map_err(|e| e.to_string())?;
        let report = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        format!(
            "[{}]",
            sweep_report_json(&sc.name, &report, sc.machine.classes.len())
        )
    } else {
        let model = sc.build_model().map_err(|e| e.to_string())?;
        let sol =
            gsched_core::solve(&model, &SolverOptions::default()).map_err(|e| e.to_string())?;
        solution_json(&sol)
    };
    Ok(normalized(&result, sweep))
}

/// Check every ok reply against a local solve of the same document: the
/// first reply per key byte for byte, the rest by hash of the same bytes.
fn verify(docs: &[ServiceDoc], phase: &Phase, out: &mut Outcome) {
    let keys: BTreeSet<(usize, bool)> = phase.first_results.keys().copied().collect();
    let local = local_answers(docs, &keys);
    for s in &phase.samples {
        if !s.ok {
            out.fail(format!("key {} ({}): error reply", s.key, op_name(s.sweep)));
            continue;
        }
        let good = match local.get(&(s.key, s.sweep)) {
            Some(Ok(l)) => {
                fnv(l.as_bytes()) == s.result_hash
                    && phase.first_results.get(&(s.key, s.sweep)) == Some(l)
            }
            _ => false,
        };
        if !good {
            out.fail(format!(
                "key {} ({}): reply differs from a local solve",
                s.key,
                op_name(s.sweep)
            ));
        }
    }
    for _ in 0..phase.lost {
        out.fail("request lost: no reply".to_string());
    }
}

fn op_name(sweep: bool) -> &'static str {
    if sweep {
        "sweep"
    } else {
        "solve"
    }
}

fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for k in path {
        match v.get(*k) {
            Some(next) => v = next,
            None => return f64::NAN,
        }
    }
    v.as_f64().unwrap_or(f64::NAN)
}

fn service_layer(stats: &Value, phase: &Phase) -> ServiceLayer {
    let hits = stat(stats, &["cache_hits"]);
    let misses = stat(stats, &["cache_misses"]);
    let hit_rtts: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.rtt_ms)
        .collect();
    ServiceLayer {
        hit_ratio: hits / (hits + misses),
        hit_rtt_p50_ms: median(&hit_rtts),
        queue_wait_p95_ms: stat(stats, &["queue_wait_ms", "p95"]),
        solve_p50_ms: stat(stats, &["solve_ms", "p50"]),
        coalesced: stat(stats, &["coalesced"]),
        shed: stat(stats, &["shed"]),
        gen_lag_max_ms: phase.gen_lag_max_ms,
    }
}

/// The probe: [`PROBE_REQUESTS`] requests of the seeded Zipf traffic at
/// [`PROBE_RPS`] against a fresh server. Lost or error replies and replies
/// that differ from a local solve count as failures in `out`.
pub fn probe(seed: u64, spans: &Spans, out: &mut Outcome) -> Result<ServiceLayer, String> {
    let docs = inputs::service_docs(seed);
    let mut traffic = Traffic::new(seed, &docs);
    let arrivals: Vec<Arrival> = (0..PROBE_REQUESTS)
        .map(|_| traffic.next_arrival())
        .collect();
    let mut h = Harness::start()?;
    let phase = run_phase(&mut h.conns, &docs, &arrivals, PROBE_RPS, spans);
    let stats = h.stats()?;
    h.stop()?;
    let layer = service_layer(&stats, &phase);
    let distinct: BTreeSet<usize> = arrivals.iter().map(|a| a.key).collect();
    out.note(format!(
        "service probe: {} requests over {} distinct keys for {SERVICE_CACHE_CAPACITY} cache entries; hit ratio {:.3}, {} coalesced, {} shed",
        arrivals.len(),
        distinct.len(),
        layer.hit_ratio,
        layer.coalesced,
        layer.shed
    ));
    out.attempted += (phase.samples.len() + phase.lost) as u64;
    verify(&docs, &phase, out);
    Ok(layer)
}
