//! `gsched loadtest` — drive a solve server with mixed concurrent
//! traffic, check every reply, and report counts, latency and throughput.
//!
//! The harness spins up `--clients` threads, each holding one TCP
//! connection, and replays a deterministic script that mixes the four
//! traffic shapes the server's concurrency control exists for:
//!
//! * **hit** — every client re-solves `fig2`, so the first wave
//!   coalesces onto one engine solve and later waves are cache hits;
//! * **miss** — each client walks its own rotation of registry
//!   scenarios, populating the cache;
//! * **duplicate** — all clients solve `fig3` in the same wave,
//!   exercising singleflight under contention;
//! * **cancel** (skipped with `--quick`) — a full `fig3_heavy` sweep
//!   with a 1 ms deadline, whose `deadline_exceeded` reply is the
//!   *expected* outcome and whose departure must cancel the flight.
//!
//! Without `--addr` the harness self-hosts: it binds an in-process
//! server on an ephemeral port, runs the load, and shuts it down again.
//! With `--addr` it drives a live server (the CI smoke test does this).
//!
//! The run fails on an unexpected error reply, when the replies do not
//! number clients × requests, and, with `--expect-no-shed`, on any shed
//! request. It writes no record: which requests hit the cache depends on
//! how the clients interleave, so its counts are not a fixed number to
//! commit. `--json` prints the counts as one object; the human summary
//! adds p50/p99 latency and throughput.

use gsched_service::client::{control_frame, frame_for_name, RequestSpec};
use gsched_service::{frame_is_ok, Client, Op, ServeConfig, Server};
use std::sync::Barrier;
use std::time::Instant;

/// Registry scenarios the miss traffic rotates through. Kept to the
/// cheaper entries so a debug-build self-hosted run stays fast.
const MISS_ROTATION: &[&str] = &["fig4", "fig5", "sp2", "ablation"];

/// What one reply turned out to be.
enum Outcome {
    Ok {
        cached: bool,
    },
    /// An error reply that the script predicted (cancel traffic).
    Expected,
    /// An `overloaded` reply — counted, fatal only with
    /// `--expect-no-shed`.
    Shed,
    Unexpected(String),
}

/// One scripted request: the frame to send and whether an error reply
/// is the predicted outcome (cancel traffic).
struct Step {
    frame: String,
    expect_error: bool,
}

/// The deterministic per-client script. `quick` drops the cancel
/// category, leaving only traffic that must succeed.
fn client_script(client: usize, per_client: usize, quick: bool) -> Vec<Step> {
    let categories = if quick { 3 } else { 4 };
    let solve = |name: &str| {
        frame_for_name(
            name,
            &RequestSpec {
                deadline_ms: Some(120_000),
                ..RequestSpec::default()
            },
        )
    };
    (0..per_client)
        .map(|j| match j % categories {
            0 => Step {
                frame: solve("fig2"),
                expect_error: false,
            },
            1 => Step {
                frame: solve(MISS_ROTATION[(client + j) % MISS_ROTATION.len()]),
                expect_error: false,
            },
            2 => Step {
                frame: solve("fig3"),
                expect_error: false,
            },
            _ => Step {
                frame: frame_for_name(
                    "fig3_heavy",
                    &RequestSpec {
                        op: Some(Op::Sweep),
                        deadline_ms: Some(1),
                        ..RequestSpec::default()
                    },
                ),
                expect_error: true,
            },
        })
        .collect()
}

fn classify(reply: &str, expect_error: bool) -> Outcome {
    if frame_is_ok(reply) {
        return Outcome::Ok {
            cached: reply.contains(r#""cached":true"#),
        };
    }
    if reply.contains(r#""kind":"overloaded""#) {
        return Outcome::Shed;
    }
    if expect_error
        && (reply.contains(r#""kind":"deadline_exceeded""#)
            || reply.contains(r#""kind":"cancelled""#))
    {
        return Outcome::Expected;
    }
    Outcome::Unexpected(reply.to_string())
}

/// Client-side tallies across every thread.
struct LoadTally {
    ok: u64,
    cached: u64,
    expected_errors: u64,
    shed: u64,
    unexpected: Vec<String>,
    latencies_ms: Vec<f64>,
    wall_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 * p).floor() as usize).min(sorted.len() - 1);
    Some(sorted[idx])
}

/// The latency and throughput lines of the human summary, from the sorted
/// per-request latencies, the reply count and the load's wall time. They
/// are printed, never asserted on.
fn timing_summary(sorted_ms: &[f64], replies: u64, wall_ms: f64) -> String {
    let wall_secs = wall_ms / 1e3;
    let rps = if wall_secs > 0.0 {
        replies as f64 / wall_secs
    } else {
        0.0
    };
    format!(
        "latency   p50 {:.1} ms, p99 {:.1} ms\nthroughput {rps:.1} req/s over {wall_secs:.2} s\n",
        percentile(sorted_ms, 0.50).unwrap_or(0.0),
        percentile(sorted_ms, 0.99).unwrap_or(0.0),
    )
}

/// Run the scripted load against `addr` and collect the tallies.
fn drive(addr: &str, clients: usize, per_client: usize, quick: bool) -> Result<LoadTally, String> {
    let barrier = Barrier::new(clients);
    let start = Instant::now();
    let per_thread: Vec<Vec<(f64, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let barrier = &barrier;
                s.spawn(move || -> Result<Vec<(f64, Outcome)>, String> {
                    // Reach the barrier even when the connect fails, so a
                    // refused connection can't strand the other clients.
                    let connected = Client::connect(addr)
                        .map_err(|e| format!("cannot connect to `{addr}`: {e}"));
                    let script = client_script(i, per_client, quick);
                    barrier.wait();
                    let mut client = connected?;
                    let mut out = Vec::with_capacity(script.len());
                    for step in script {
                        let sent = Instant::now();
                        let reply = client
                            .request_line(&step.frame)
                            .map_err(|e| format!("client {i}: {e}"))?;
                        let latency = sent.elapsed().as_secs_f64() * 1e3;
                        out.push((latency, classify(&reply, step.expect_error)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut tally = LoadTally {
        ok: 0,
        cached: 0,
        expected_errors: 0,
        shed: 0,
        unexpected: Vec::new(),
        latencies_ms: Vec::new(),
        wall_ms,
    };
    for (latency, outcome) in per_thread.into_iter().flatten() {
        tally.latencies_ms.push(latency);
        match outcome {
            Outcome::Ok { cached } => {
                tally.ok += 1;
                tally.cached += u64::from(cached);
            }
            Outcome::Expected => tally.expected_errors += 1,
            Outcome::Shed => tally.shed += 1,
            Outcome::Unexpected(reply) => tally.unexpected.push(reply),
        }
    }
    tally
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Ok(tally)
}

/// The run's verdict: an error on any unexpected reply, on a reply count
/// other than `sent`, or (`no_shed`) on any shed request; otherwise the
/// number of replies.
fn check(tally: &LoadTally, sent: u64, no_shed: bool) -> Result<u64, String> {
    if let Some(first) = tally.unexpected.first() {
        return Err(format!(
            "loadtest: {} unexpected error repl(y/ies); first: {first}",
            tally.unexpected.len()
        ));
    }
    if no_shed && tally.shed > 0 {
        return Err(format!(
            "loadtest: {} request(s) shed at a load that must not shed",
            tally.shed
        ));
    }
    let replies = tally.ok + tally.expected_errors + tally.shed;
    if replies != sent {
        return Err(format!(
            "loadtest: {replies} repl(y/ies) to {sent} request(s)"
        ));
    }
    Ok(replies)
}

/// Entry point for `gsched loadtest`.
pub fn run(args: &[String]) -> Result<(), String> {
    let (pos, flags) = crate::parse_flags("loadtest", args)?;
    if !pos.is_empty() {
        return Err(format!("loadtest: unexpected argument `{}`", pos[0]));
    }
    let quick = flags.contains_key("quick");
    let clients = crate::flag_count(&flags, "clients", if quick { 3 } else { 4 })?.max(1);
    let per_client = crate::flag_count(&flags, "requests", if quick { 6 } else { 8 })?.max(1);

    // External mode drives a live server; self-hosted mode binds one
    // in-process.
    let diag = crate::Diagnostics::from_flags(&flags);
    let (addr, hosted) = match flags.get("addr") {
        Some(addr) => (addr.clone(), None),
        None => {
            let config = ServeConfig::builder()
                .addr("127.0.0.1:0")
                .workers(crate::flag_count(&flags, "workers", 2)?)
                .cache_capacity(256)
                .queue_limit(crate::flag_count(&flags, "queue-limit", 0)?)
                .build()
                .map_err(|e| format!("loadtest: {}", e.message))?;
            let server =
                Server::bind(&config).map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
            (addr, Some(server))
        }
    };
    let tally = if let Some(server) = &hosted {
        let result = std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let tally = drive(&addr, clients, per_client, quick);
            // Stop the in-process server whether or not the load
            // succeeded, so the scope always joins.
            if let Ok(mut client) = Client::connect(&addr) {
                let _ = client.request_line(&control_frame(Op::Shutdown, None));
            }
            running.join().expect("server thread panicked").ok();
            tally
        });
        result?
    } else {
        drive(&addr, clients, per_client, quick)?
    };
    diag.finish()?;

    let replies = check(
        &tally,
        (clients * per_client) as u64,
        flags.contains_key("expect-no-shed"),
    )?;
    if flags.contains_key("json") {
        println!(
            r#"{{"requests":{replies},"request_errors":{},"shed":{},"cached_hits":{}}}"#,
            tally.expected_errors, tally.shed, tally.cached
        );
    } else {
        println!(
            "loadtest: {clients} clients x {per_client} requests against {addr}{}",
            if hosted.is_some() {
                " (self-hosted)"
            } else {
                ""
            }
        );
        println!(
            "replies   {} ok ({} cached), {} expected error(s), {} shed",
            tally.ok, tally.cached, tally.expected_errors, tally.shed
        );
        print!(
            "{}",
            timing_summary(&tally.latencies_ms, replies, tally.wall_ms)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_mix_categories() {
        let a = client_script(1, 8, false);
        let b = client_script(1, 8, false);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frame, y.frame);
            assert_eq!(x.expect_error, y.expect_error);
        }
        // Full scripts carry cancel traffic; quick scripts never do.
        assert!(a.iter().any(|s| s.expect_error));
        assert!(client_script(1, 8, true).iter().all(|s| !s.expect_error));
        // Cancel steps ask for a sweep with a 1 ms deadline.
        let cancel = a.iter().find(|s| s.expect_error).unwrap();
        assert!(cancel.frame.contains(r#""op":"sweep""#), "{}", cancel.frame);
        assert!(
            cancel.frame.contains(r#""deadline_ms":1"#),
            "{}",
            cancel.frame
        );
    }

    #[test]
    fn classify_separates_reply_shapes() {
        assert!(matches!(
            classify(r#"{"status":"ok","cached":true,"result":{}}"#, false),
            Outcome::Ok { cached: true }
        ));
        assert!(matches!(
            classify(
                r#"{"status":"error","error":{"kind":"overloaded","message":"full"}}"#,
                false
            ),
            Outcome::Shed
        ));
        assert!(matches!(
            classify(
                r#"{"status":"error","error":{"kind":"deadline_exceeded","message":"late"}}"#,
                true
            ),
            Outcome::Expected
        ));
        // The same deadline error is NOT acceptable on traffic that was
        // supposed to succeed.
        assert!(matches!(
            classify(
                r#"{"status":"error","error":{"kind":"deadline_exceeded","message":"late"}}"#,
                false
            ),
            Outcome::Unexpected(_)
        ));
    }

    #[test]
    fn check_counts_every_reply() {
        let tally = |ok, shed| LoadTally {
            ok,
            cached: 0,
            expected_errors: 1,
            shed,
            unexpected: Vec::new(),
            latencies_ms: Vec::new(),
            wall_ms: 0.0,
        };
        assert_eq!(check(&tally(4, 1), 6, false), Ok(6));
        let err = check(&tally(4, 1), 6, true).unwrap_err();
        assert!(err.contains("1 request(s) shed"), "{err}");
        let err = check(&tally(4, 0), 6, false).unwrap_err();
        assert!(err.contains("5 repl(y/ies) to 6 request(s)"), "{err}");
        let mut bad = tally(5, 0);
        bad.unexpected.push("{}".to_string());
        assert!(check(&bad, 6, false).is_err());
    }

    #[test]
    fn percentiles_use_sorted_order() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.50), Some(6.0));
        assert_eq!(percentile(&xs, 0.99), Some(10.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn timing_summary_prints_percentiles_and_throughput() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(
            timing_summary(&xs, 10, 2_000.0),
            "latency   p50 6.0 ms, p99 10.0 ms\nthroughput 5.0 req/s over 2.00 s\n"
        );
        assert!(timing_summary(&[], 0, 0.0).contains("throughput 0.0 req/s"));
    }

    /// End-to-end: a quick self-hosted run completes every scripted
    /// request with zero shed.
    #[test]
    fn self_hosted_quick_loadtest_completes() {
        let args: Vec<String> = [
            "--quick",
            "--clients",
            "2",
            "--requests",
            "3",
            "--expect-no-shed",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }
}
