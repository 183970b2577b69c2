//! `gsched top` — a live terminal dashboard over the solve server's
//! `stats` verb.
//!
//! Polls `{"op":"stats"}` on an interval and redraws a compact screen:
//! request throughput (computed from counter deltas between polls),
//! per-op latency percentiles (cumulative and the last-minute window),
//! worker occupancy, queue depth, and cache behaviour. `--once` prints a
//! single snapshot without clearing the terminal, for scripts and CI.

use gsched_service::client::control_frame;
use gsched_service::{frame_is_ok, Client, Op};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub fn run(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    if !pos.is_empty() {
        return Err(format!("top: unexpected argument `{}`", pos[0]));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let interval: f64 =
        match flags.get("interval") {
            None => 2.0,
            Some(v) => v.parse().ok().filter(|x: &f64| *x > 0.0).ok_or_else(|| {
                format!("--interval expects a positive number of seconds, got `{v}`")
            })?,
        };
    let count: u64 = if flags.contains_key("once") {
        1
    } else {
        crate::flag_count(flags, "count", 0)? // 0 = forever
    };

    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let mut prev: Option<(u64, Instant)> = None;
    let mut polls: u64 = 0;
    loop {
        let reply = client
            .request_line(&control_frame(Op::Stats, None))
            .map_err(|e| format!("stats request failed: {e}"))?;
        if !frame_is_ok(&reply) {
            return Err(format!("server replied with an error frame: {reply}"));
        }
        let frame: Value =
            serde_json::from_str(&reply).map_err(|e| format!("bad stats frame: {e}"))?;
        let stats = &frame["result"];
        let now = Instant::now();
        let requests = stats["requests"].as_u64().unwrap_or(0);
        let throughput = prev.and_then(|(r0, t0)| {
            let dt = now.duration_since(t0).as_secs_f64();
            (dt > 0.0).then(|| requests.saturating_sub(r0) as f64 / dt)
        });
        prev = Some((requests, now));
        polls += 1;

        let screen = render(&addr, stats, throughput);
        let mut out = std::io::stdout().lock();
        if count != 1 {
            // Clear and home between redraws (skipped for single snapshots
            // so `--once` output stays pipeable).
            let _ = out.write_all(b"\x1b[2J\x1b[H");
        }
        let _ = out.write_all(screen.as_bytes());
        let _ = out.flush();

        if count > 0 && polls >= count {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// Format one statistic cell: numbers to two decimals, `null` (an empty
/// histogram) as `-`.
fn cell(v: &Value) -> String {
    match v.as_f64() {
        Some(x) => format!("{x:.2}"),
        None => "-".to_string(),
    }
}

/// Render the dashboard for one stats document. Pure, so tests can feed a
/// canned report and assert on the exact screen.
fn render(addr: &str, stats: &Value, throughput: Option<f64>) -> String {
    let mut out = String::with_capacity(1024);
    let uptime_s = stats["uptime_ms"].as_f64().unwrap_or(0.0) / 1e3;
    out.push_str(&format!("gsched top — {addr}   uptime {uptime_s:.1}s\n\n"));

    let rate = match throughput {
        Some(r) => format!("{r:.1}/s"),
        None => "–/s".to_string(),
    };
    out.push_str(&format!(
        "requests {} ({rate})   errors {}   connections {}\n",
        stats["requests"], stats["errors"], stats["connections"],
    ));
    out.push_str(&format!(
        "workers  {} busy of {}   queue depth {}\n",
        stats["workers_busy"], stats["workers"], stats["queue_depth"],
    ));
    let ratio = match stats["cache_hit_ratio"].as_f64() {
        Some(r) => format!("{:.1}%", 100.0 * r),
        None => "-".to_string(),
    };
    out.push_str(&format!(
        "cache    {} hits / {} misses ({ratio})   entries {}/{}\n\n",
        stats["cache_hits"], stats["cache_misses"], stats["cache_entries"], stats["cache_capacity"],
    ));

    out.push_str(&format!(
        "{:<10}{:>8}{:>7}{:>9}{:>9}{:>9}  {:>9}{:>9}\n",
        "op", "reqs", "errs", "p50", "p95", "p99", "60s p50", "60s p99",
    ));
    if let Some(ops) = stats["ops"].as_object() {
        for (label, op) in ops {
            let lat = &op["latency_ms"];
            let recent = &op["recent_latency_ms"];
            // `Value`'s Display ignores width specifiers, so counters are
            // unwrapped to integers before padding.
            out.push_str(&format!(
                "{label:<10}{:>8}{:>7}{:>9}{:>9}{:>9}  {:>9}{:>9}\n",
                op["requests"].as_u64().unwrap_or(0),
                op["errors"].as_u64().unwrap_or(0),
                cell(&lat["p50"]),
                cell(&lat["p95"]),
                cell(&lat["p99"]),
                cell(&recent["p50"]),
                cell(&recent["p99"]),
            ));
        }
    }

    let qw = &stats["queue_wait_ms"];
    let sv = &stats["solve_ms"];
    out.push_str(&format!(
        "\nqueue wait ms  p50 {}  p95 {}  max {}   ({} jobs)\n",
        cell(&qw["p50"]),
        cell(&qw["p95"]),
        cell(&qw["max"]),
        qw["count"],
    ));
    out.push_str(&format!(
        "solve ms       p50 {}  p95 {}  max {}   ({} jobs)\n",
        cell(&sv["p50"]),
        cell(&sv["p95"]),
        cell(&sv["max"]),
        sv["count"],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned_stats() -> Value {
        serde_json::from_str(
            r#"{
              "workers":2,"queue_depth":0,"requests":10,"errors":1,
              "cache_hits":4,"cache_misses":2,"cache_entries":2,"cache_capacity":64,
              "uptime_ms":12500,"workers_busy":1,"connections":3,"cache_hit_ratio":0.6666666,
              "queue_wait_ms":{"count":2,"mean":0.4,"min":0.1,"max":0.7,"p50":0.3,"p90":0.6,"p95":0.65,"p99":0.7},
              "solve_ms":{"count":2,"mean":5.0,"min":4.0,"max":6.0,"p50":5.0,"p90":5.8,"p95":5.9,"p99":6.0},
              "ops":{
                "solve":{"requests":6,"errors":0,
                  "latency_ms":{"count":6,"mean":2.0,"min":0.5,"max":6.0,"p50":1.5,"p90":5.0,"p95":5.5,"p99":6.0},
                  "recent_latency_ms":{"count":6,"mean":2.0,"min":0.5,"max":6.0,"p50":1.5,"p90":5.0,"p95":5.5,"p99":6.0}},
                "sweep":{"requests":0,"errors":0,
                  "latency_ms":{"count":0,"mean":null,"min":null,"max":null,"p50":null,"p90":null,"p95":null,"p99":null},
                  "recent_latency_ms":{"count":0,"mean":null,"min":null,"max":null,"p50":null,"p90":null,"p95":null,"p99":null}}
              }
            }"#,
        )
        .expect("canned stats parse")
    }

    #[test]
    fn render_shows_counters_rates_and_percentiles() {
        let screen = render("127.0.0.1:7070", &canned_stats(), Some(2.5));
        assert!(screen.contains("gsched top — 127.0.0.1:7070"), "{screen}");
        assert!(screen.contains("uptime 12.5s"), "{screen}");
        assert!(screen.contains("requests 10 (2.5/s)"), "{screen}");
        assert!(screen.contains("workers  1 busy of 2"), "{screen}");
        assert!(screen.contains("4 hits / 2 misses (66.7%)"), "{screen}");
        // Solve row carries its percentiles; the idle sweep row shows `-`.
        let solve_row = screen.lines().find(|l| l.starts_with("solve ")).unwrap();
        assert!(solve_row.contains("1.50"), "{solve_row}");
        // Counter columns stay padded (Value's Display ignores widths).
        assert!(solve_row.contains("       6      0"), "{solve_row:?}");
        let sweep_row = screen.lines().find(|l| l.starts_with("sweep")).unwrap();
        assert!(sweep_row.contains('-'), "{sweep_row}");
        assert!(!screen.contains("null"), "{screen}");
        assert!(screen.contains("queue wait ms  p50 0.30"), "{screen}");
    }

    #[test]
    fn first_poll_has_no_rate_yet() {
        let screen = render("x", &canned_stats(), None);
        assert!(screen.contains("(–/s)"), "{screen}");
    }
}
