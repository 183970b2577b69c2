//! Telemetry integration tests: the `stats` report under real concurrent
//! traffic, and the request context that links one request's spans into
//! the exported trace.

use gsched_service::client::{control_frame, frame_for_name, RequestSpec};
use gsched_service::{Client, Op, ServeConfig, Server};
use serde_json::Value;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Serializes the tests in this binary: the instrumentation recorder is
/// process-global, so one test's traffic must not land in another test's
/// snapshot.
static SERIAL: Mutex<()> = Mutex::new(());

struct TestServer {
    server: Arc<Server>,
    addr: String,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(opts: ServeConfig) -> TestServer {
        let server = Arc::new(Server::bind(&opts).expect("bind"));
        let addr = server.local_addr().expect("addr").to_string();
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            runner.run().expect("server run");
        });
        TestServer {
            server,
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// Shut down and join, so every span is recorded before reading them.
    fn stop(mut self) {
        self.server.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread");
        }
    }
}

fn test_config() -> ServeConfig {
    ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .cache_capacity(64)
        .default_deadline_ms(30_000)
        .build()
        .expect("valid test config")
}

fn stats_doc(client: &mut Client) -> Value {
    let reply = client
        .request_line(&control_frame(Op::Stats, None))
        .expect("stats reply");
    let frame: Value = serde_json::from_str(&reply).expect("stats frame parses");
    assert_eq!(frame["status"].as_str(), Some("ok"), "{reply}");
    frame["result"].clone()
}

/// Drive concurrent solve traffic with deterministic cache behaviour (each
/// thread owns one scenario, so per-thread repeats are guaranteed hits),
/// then check the stats report adds up.
#[test]
fn stats_report_adds_up_under_concurrent_traffic() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ts = TestServer::start(test_config());

    let mut handles = Vec::new();
    for name in ["fig2", "fig4"] {
        let addr = ts.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            for _ in 0..3 {
                let reply = client
                    .request_line(&frame_for_name(name, &RequestSpec::default()))
                    .expect("solve reply");
                let doc: Value = serde_json::from_str(&reply).unwrap();
                assert_eq!(doc["status"].as_str(), Some("ok"), "{reply}");
            }
        }));
    }
    for h in handles {
        h.join().expect("traffic thread");
    }

    let mut client = ts.client();
    let first = stats_doc(&mut client);
    let second = stats_doc(&mut client);

    // Two scenarios, three requests each: one miss + two hits per scenario.
    assert_eq!(first["cache_hits"].as_u64(), Some(4), "{first}");
    assert_eq!(first["cache_misses"].as_u64(), Some(2), "{first}");
    assert_eq!(first["errors"].as_u64(), Some(0), "{first}");
    // 6 solves + the stats request being answered.
    assert_eq!(first["requests"].as_u64(), Some(7), "{first}");
    let ratio = first["cache_hit_ratio"].as_f64().expect("ratio defined");
    assert!((ratio - 4.0 / 6.0).abs() < 1e-12, "ratio={ratio}");

    // Per-op breakdown: all six solves, with live percentiles.
    let solve = &first["ops"]["solve"];
    assert_eq!(solve["requests"].as_u64(), Some(6), "{first}");
    assert_eq!(solve["errors"].as_u64(), Some(0));
    assert_eq!(solve["latency_ms"]["count"].as_u64(), Some(6));
    let p50 = solve["latency_ms"]["p50"].as_f64().expect("p50 non-null");
    let p95 = solve["latency_ms"]["p95"].as_f64().expect("p95 non-null");
    let p99 = solve["latency_ms"]["p99"].as_f64().expect("p99 non-null");
    assert!(
        p50 > 0.0 && p95 >= p50 && p99 >= p95,
        "p50={p50} p95={p95} p99={p99}"
    );

    // Only the two misses reached the worker pool.
    assert_eq!(first["queue_wait_ms"]["count"].as_u64(), Some(2), "{first}");
    assert_eq!(first["solve_ms"]["count"].as_u64(), Some(2), "{first}");
    assert!(first["solve_ms"]["p50"].as_f64().expect("solve p50") > 0.0);
    assert_eq!(first["queue_depth"].as_u64(), Some(0));
    assert_eq!(first["workers"].as_u64(), Some(2));
    assert_eq!(first["workers_busy"].as_u64(), Some(0));
    // Two traffic connections plus this stats client.
    assert_eq!(first["connections"].as_u64(), Some(3));

    // Counters are monotone between polls; the sweep op stayed untouched
    // and its empty percentiles stay null (never NaN).
    assert_eq!(second["requests"].as_u64(), Some(8));
    assert!(second["uptime_ms"].as_u64() >= first["uptime_ms"].as_u64());
    // Per-op telemetry is recorded after the reply renders, so a stats
    // report never includes the request that produced it: the second poll
    // sees exactly the first one.
    assert_eq!(second["ops"]["stats"]["requests"].as_u64(), Some(1));
    assert_eq!(
        second["ops"]["sweep"]["latency_ms"]["count"].as_u64(),
        Some(0)
    );
    assert!(
        second["ops"]["sweep"]["latency_ms"]["p95"].is_null(),
        "{second}"
    );

    ts.stop();
}

/// Every span recorded while serving one request carries that request's
/// context, on the connection thread and the worker alike, and the
/// Chrome-trace export labels them with its `request_id`.
#[test]
fn request_spans_share_one_context_into_the_trace_export() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = gsched_obs::install_memory();
    let ts = TestServer::start(test_config());
    let mut client = ts.client();
    let reply = client
        .request_line(&frame_for_name("fig2", &RequestSpec::default()))
        .unwrap();
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    drop(client);
    ts.stop();
    gsched_obs::uninstall();

    // The server saw exactly one request; its connection-side span holds
    // the context the rest of its spans must share.
    let snapshot = recorder.snapshot();
    let requests: Vec<_> = snapshot
        .span_intervals
        .iter()
        .filter(|s| s.path == "service.request")
        .collect();
    assert_eq!(requests.len(), 1, "{requests:?}");
    let ctx = requests[0].ctx;
    assert_ne!(ctx, 0, "the request span carries a context");
    assert!(
        snapshot
            .span_intervals
            .iter()
            .any(|s| s.ctx == ctx && s.path.starts_with("service.solve")),
        "worker-side span tree tagged: {:?}",
        snapshot.span_intervals
    );

    let request_id = gsched_obs::context_label(ctx);
    let trace: Value = serde_json::from_str(&snapshot.to_chrome_trace()).expect("valid trace");
    let tagged: Vec<&Value> = trace["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["args"]["request_id"].as_str() == Some(request_id.as_str()))
        .collect();
    for path in ["service.request", "service.solve"] {
        assert!(
            tagged.iter().any(|e| e["args"]["path"]
                .as_str()
                .is_some_and(|p| p.starts_with(path))),
            "trace export labels {path} with {request_id}: {tagged:?}"
        );
    }
}
