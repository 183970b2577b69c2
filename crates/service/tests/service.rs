//! End-to-end tests over a real TCP socket: server in a background
//! thread, blocking client in the test, shutdown via protocol frame.

use gsched_service::client::{control_frame, frame_for_name, frame_for_scenario, RequestSpec};
use gsched_service::render::sweep_report_json;
use gsched_service::{extract_result, frame_is_ok, Client, Op, ServeConfig, Server};
use serde_json::Value;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

struct TestServer {
    server: Arc<Server>,
    addr: String,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize, cache_capacity: usize) -> TestServer {
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .workers(workers)
            .cache_capacity(cache_capacity)
            .default_deadline_ms(30_000)
            .build()
            .expect("valid test config");
        Self::start_with(config)
    }

    fn start_with(config: ServeConfig) -> TestServer {
        let server = Arc::new(Server::bind(&config).expect("bind"));
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
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread");
        }
    }
}

fn field<'v>(frame: &'v Value, name: &str) -> &'v Value {
    frame
        .get(name)
        .unwrap_or_else(|| panic!("frame has {name}"))
}

fn stats_doc(client: &mut Client) -> Value {
    let reply = client
        .request_line(&control_frame(Op::Stats, None))
        .expect("stats reply");
    let frame: Value = serde_json::from_str(&reply).expect("stats frame parses");
    assert_eq!(frame["status"].as_str(), Some("ok"), "{reply}");
    frame["result"].clone()
}

#[test]
fn repeat_request_is_served_from_cache_with_identical_bytes() {
    let ts = TestServer::start(2, 64);
    let mut client = ts.client();

    let line = frame_for_name("fig2", &RequestSpec::default());
    let first = client.request_line(&line).unwrap();
    let second = client.request_line(&line).unwrap();

    assert!(frame_is_ok(&first), "{first}");
    assert!(frame_is_ok(&second), "{second}");
    let first_doc: Value = serde_json::from_str(&first).unwrap();
    let second_doc: Value = serde_json::from_str(&second).unwrap();
    assert_eq!(field(&first_doc, "cached").as_bool(), Some(false));
    assert_eq!(field(&second_doc, "cached").as_bool(), Some(true));

    let first_result = extract_result(&first).expect("result in first frame");
    let second_result = extract_result(&second).expect("result in second frame");
    assert_eq!(first_result, second_result, "cache must replay exact bytes");
    assert!(
        first_result.starts_with(r#"{"iterations":"#),
        "{first_result}"
    );

    let stats = client
        .request_line(&control_frame(Op::Stats, None))
        .unwrap();
    let stats_doc: Value = serde_json::from_str(&stats).unwrap();
    let result = field(&stats_doc, "result");
    assert_eq!(field(result, "cache_hits").as_u64(), Some(1));
    assert_eq!(field(result, "cache_misses").as_u64(), Some(1));
    assert_eq!(field(result, "errors").as_u64(), Some(0));
    assert_eq!(field(result, "requests").as_u64(), Some(3));
    // No concurrency pressure in this test: nothing coalesced or shed.
    assert_eq!(field(result, "coalesced").as_u64(), Some(0));
    assert_eq!(field(result, "shed").as_u64(), Some(0));
}

#[test]
fn inline_scenario_hits_the_cache_entry_of_its_name() {
    let ts = TestServer::start(2, 64);
    let mut client = ts.client();

    let by_name = client
        .request_line(&frame_for_name("fig4", &RequestSpec::default()))
        .unwrap();
    assert!(frame_is_ok(&by_name), "{by_name}");

    // The same scenario sent as a full inline document — and, thanks to
    // the canonical content hash, even with its JSON keys in a different
    // order — must land on the same cache entry.
    let scenario = gsched_scenario::registry::lookup("fig4").unwrap();
    let inline_line = frame_for_scenario(&scenario, &RequestSpec::default());
    let reordered: Value = serde_json::from_str(&inline_line).unwrap();
    let inline = client
        .request_line(&serde_json::to_string(&reordered).unwrap())
        .unwrap();
    let inline_doc: Value = serde_json::from_str(&inline).unwrap();
    assert_eq!(
        field(&inline_doc, "cached").as_bool(),
        Some(true),
        "{inline}"
    );
    assert_eq!(extract_result(&by_name), extract_result(&inline));
}

#[test]
fn structured_errors_keep_the_connection_and_server_alive() {
    let ts = TestServer::start(1, 8);
    let mut client = ts.client();

    for (line, kind) in [
        ("this is not json", "bad_request"),
        (r#"{"op":"solve"}"#, "bad_request"),
        (r#"{"scenario":"no_such_scenario"}"#, "unknown_scenario"),
        (r#"{"scenario":"fig2","surprise":1}"#, "bad_request"),
        (r#"{"proto":3,"scenario":"fig2"}"#, "bad_request"),
    ] {
        let reply = client.request_line(line).unwrap();
        assert!(!frame_is_ok(&reply), "{reply}");
        let doc: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            field(field(&doc, "error"), "kind").as_str(),
            Some(kind),
            "{reply}"
        );
    }

    // The same connection still serves good requests afterwards.
    let ok = client
        .request_line(&frame_for_name("fig2", &RequestSpec::default()))
        .unwrap();
    assert!(frame_is_ok(&ok), "{ok}");
}

/// The wire speaks one protocol version: a frame without `proto` gets the
/// same v2 reply as a `"proto":2` frame, and `"proto":1` is rejected.
#[test]
fn one_protocol_version_on_the_wire() {
    let ts = TestServer::start(1, 8);
    let mut client = ts.client();

    let v2 = client
        .request_line(&frame_for_name("fig2", &RequestSpec::default()))
        .unwrap();
    assert!(
        v2.starts_with(r#"{"status":"ok","proto":2,"op":"solve","cached":false,"#),
        "v2 reply carries proto: {v2}"
    );
    let bare = client.request_line(r#"{"scenario":"fig2"}"#).unwrap();
    assert_eq!(
        bare,
        v2.replacen(r#""cached":false"#, r#""cached":true"#, 1),
        "a frame without proto is answered in v2"
    );

    let v1 = client
        .request_line(r#"{"proto":1,"id":"legacy","scenario":"fig2"}"#)
        .unwrap();
    assert_eq!(
        v1,
        r#"{"status":"error","proto":2,"error":{"kind":"bad_request","message":"unsupported proto 1 (this server speaks 2)"}}"#
    );
}

/// M identical concurrent cache misses must run exactly one engine
/// solve: the leader enqueues, the rest coalesce onto the same flight,
/// and everyone shares the published bytes.
///
/// The server's one worker is held by a distinct long sweep while the
/// burst arrives, so the flight cannot be published (turning a late
/// arrival into a cache hit instead of a coalesce) before every burst
/// request has joined it.
#[test]
fn singleflight_coalesces_identical_concurrent_misses() {
    const M: usize = 4;
    let ts = TestServer::start(1, 64);
    let mut client = ts.client();
    let blocker_addr = ts.addr.clone();
    let blocker = std::thread::spawn(move || {
        let spec = RequestSpec {
            op: Some(Op::Sweep),
            ..RequestSpec::default()
        };
        Client::connect(&blocker_addr)
            .expect("connect")
            .request_line(&frame_for_name("fig4", &spec))
            .expect("reply")
    });
    let waiting_since = std::time::Instant::now();
    while field(&stats_doc(&mut client), "workers_busy").as_u64() != Some(1) {
        assert!(
            waiting_since.elapsed().as_secs() < 30,
            "the blocking sweep never occupied the worker"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let barrier = Arc::new(Barrier::new(M));
    let mut handles = Vec::new();
    for _ in 0..M {
        let addr = ts.addr.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client
                .request_line(&frame_for_name("fig2", &RequestSpec::default()))
                .expect("reply")
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for reply in &replies {
        assert!(frame_is_ok(reply), "{reply}");
    }
    let results: Vec<&str> = replies
        .iter()
        .map(|r| extract_result(r).expect("result"))
        .collect();
    for r in &results[1..] {
        assert_eq!(*r, results[0], "all waiters share identical bytes");
    }
    let blocked = blocker.join().unwrap();
    assert!(frame_is_ok(&blocked), "{blocked}");

    let stats = stats_doc(&mut client);
    // The proof of exactly one engine solve for the burst: besides the
    // blocking sweep, one job crossed the queue and one worker solve
    // happened.
    assert_eq!(
        field(&stats, "queue_wait_ms")["count"].as_u64(),
        Some(2),
        "{stats}"
    );
    assert_eq!(
        field(&stats, "solve_ms")["count"].as_u64(),
        Some(2),
        "{stats}"
    );
    assert_eq!(field(&stats, "coalesced").as_u64(), Some((M - 1) as u64));
    assert_eq!(field(&stats, "errors").as_u64(), Some(0));
}

/// With one worker and a queue bounded at one job, a burst of distinct
/// requests must shed the overflow with `overloaded` errors while the
/// admitted requests still succeed.
#[test]
fn bounded_queue_sheds_overflow_with_overloaded_errors() {
    const BURST: usize = 6;
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .cache_capacity(64)
        .queue_limit(1)
        .build()
        .unwrap();
    let ts = TestServer::start_with(config);
    let names = ["fig2", "fig3", "fig3_heavy", "fig4", "fig5", "sp2"];
    let barrier = Arc::new(Barrier::new(BURST));
    let mut handles = Vec::new();
    for name in names.iter().take(BURST) {
        let addr = ts.addr.clone();
        let barrier = Arc::clone(&barrier);
        let name = name.to_string();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client
                .request_line(&frame_for_name(&name, &RequestSpec::default()))
                .expect("reply")
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut oks = 0usize;
    let mut sheds = 0usize;
    for reply in &replies {
        let doc: Value = serde_json::from_str(reply).unwrap();
        if frame_is_ok(reply) {
            oks += 1;
        } else {
            assert_eq!(
                field(field(&doc, "error"), "kind").as_str(),
                Some("overloaded"),
                "only shed errors expected: {reply}"
            );
            sheds += 1;
        }
    }
    assert_eq!(oks + sheds, BURST);
    assert!(oks >= 1, "at least the running job succeeds");
    assert!(sheds >= 1, "a burst past the queue limit must shed");

    let mut client = ts.client();
    let stats = stats_doc(&mut client);
    assert_eq!(field(&stats, "shed").as_u64(), Some(sheds as u64));
    assert_eq!(field(&stats, "queue_limit").as_u64(), Some(1));
}

#[test]
fn expired_deadline_returns_deadline_exceeded() {
    let ts = TestServer::start(1, 8);
    let mut client = ts.client();
    let spec = RequestSpec {
        op: Some(Op::Sweep),
        deadline_ms: Some(1),
        ..RequestSpec::default()
    };
    let reply = client.request_line(&frame_for_name("fig3", &spec)).unwrap();
    let doc: Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        field(field(&doc, "error"), "kind").as_str(),
        Some("deadline_exceeded"),
        "{reply}"
    );
}

#[test]
fn request_ids_are_echoed_and_sweeps_render_reports() {
    let ts = TestServer::start(2, 64);
    let mut client = ts.client();
    let spec = RequestSpec {
        id: Some("sweep-7".to_string()),
        op: Some(Op::Sweep),
        quick: true,
        ..RequestSpec::default()
    };
    let reply = client.request_line(&frame_for_name("fig2", &spec)).unwrap();
    assert!(frame_is_ok(&reply), "{reply}");
    let doc: Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(field(&doc, "id").as_str(), Some("sweep-7"));
    assert_eq!(field(&doc, "op").as_str(), Some("sweep"));
    let result = field(&doc, "result");
    let reports = result.as_array().expect("sweep result is an array");
    assert_eq!(reports.len(), 1);
    assert_eq!(field(&reports[0], "figure").as_str(), Some("fig2"));
    assert!(field(&reports[0], "points").as_array().is_some());
}

#[test]
fn shutdown_frame_stops_the_server() {
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .cache_capacity(8)
        .default_deadline_ms(0)
        .build()
        .unwrap();
    let server = Arc::new(Server::bind(&config).unwrap());
    let addr = server.local_addr().unwrap().to_string();
    let runner = Arc::clone(&server);
    let thread = std::thread::spawn(move || runner.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    let reply = client
        .request_line(&control_frame(Op::Shutdown, Some("bye")))
        .unwrap();
    assert!(frame_is_ok(&reply), "{reply}");
    assert_eq!(extract_result(&reply), Some(r#"{"stopping":true}"#));

    // run() must return on its own once the frame is processed.
    thread.join().expect("server stopped cleanly");
}

#[test]
fn zero_cache_capacity_disables_caching() {
    let ts = TestServer::start(1, 0);
    let mut client = ts.client();
    let line = frame_for_name("fig2", &RequestSpec::default());
    let first = client.request_line(&line).unwrap();
    let second = client.request_line(&line).unwrap();
    assert!(frame_is_ok(&first), "{first}");
    assert!(frame_is_ok(&second), "{second}");
    let second_doc: Value = serde_json::from_str(&second).unwrap();
    assert_eq!(field(&second_doc, "cached").as_bool(), Some(false));
    // Both solved fresh, still byte-identical (same solver, same render).
    assert_eq!(extract_result(&first), extract_result(&second));
    let stats = stats_doc(&mut client);
    assert_eq!(field(&stats, "cache_misses").as_u64(), Some(2));
    assert_eq!(field(&stats, "cache_hits").as_u64(), Some(0));
}

#[test]
fn control_characters_in_ids_are_escaped_in_replies() {
    let ts = TestServer::start(1, 0);
    let mut client = ts.client();
    // The tab arrives escaped, as any JSON client sends it; the echo must
    // escape it again rather than write a raw tab into the frame.
    let reply = client
        .request_line(r#"{"proto":2,"op":"stats","id":"a\tb"}"#)
        .unwrap();
    assert!(
        !reply.chars().any(|c| c < ' '),
        "raw control character in {reply:?}"
    );
    let doc: Value = serde_json::from_str(&reply).expect("reply parses");
    assert_eq!(field(&doc, "id").as_str(), Some("a\tb"));
}

#[test]
fn served_p_sweep_solves_under_the_scenario_options() {
    use gsched_engine::{run_sweep, SweepOptions};
    let sc = gsched_scenario::registry::lookup("p_sweep").unwrap();
    let opts = SweepOptions::default()
        .with_jobs(1)
        .with_solver(sc.solver_options(&Default::default()));
    let local = run_sweep(&sc.sweep_request(true).unwrap(), &opts);
    let local = format!("[{}]", sweep_report_json("p_sweep", &local, 2));
    let ts = TestServer::start(1, 0);
    let spec = RequestSpec {
        op: Some(Op::Sweep),
        quick: true,
        ..RequestSpec::default()
    };
    let reply = ts.client().request_line(&frame_for_name("p_sweep", &spec));
    let reply = reply.unwrap();
    let served = extract_result(&reply).expect("ok frame");
    // Equal text is equal bits: floats print as their shortest round trip.
    let mask = |doc: &str| {
        let at = doc.find(r#""wall_ms":"#).expect("wall_ms field");
        let end = at + doc[at..].find(',').unwrap();
        format!("{}{}", &doc[..at], &doc[end..])
    };
    assert_eq!(mask(served), mask(&local));
}
