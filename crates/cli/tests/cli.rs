//! End-to-end tests of the `gsched` binary.

use std::io::Write;
use std::process::Command;

fn gsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gsched"))
}

fn write_model(dir: &std::path::Path) -> std::path::PathBuf {
    let model = r#"{
      "processors": 4,
      "classes": [
        {
          "partition_size": 4,
          "arrival": { "type": "exponential", "rate": 0.2 },
          "service": { "type": "exponential", "rate": 1.0 },
          "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
          "switch_overhead": { "type": "exponential", "rate": 100.0 }
        },
        {
          "partition_size": 1,
          "arrival": { "type": "exponential", "rate": 0.8 },
          "service": { "type": "exponential", "rate": 1.5 },
          "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
          "switch_overhead": { "type": "exponential", "rate": 100.0 }
        }
      ]
    }"#;
    let path = dir.join("model.json");
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(model.as_bytes()).unwrap();
    path
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gsched-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn solve_human_output() {
    let dir = tmpdir("solve");
    let model = write_model(&dir);
    let out = gsched().arg("solve").arg(&model).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("machine: P = 4"), "{text}");
    assert!(text.contains("all stable = true"), "{text}");
}

#[test]
fn solve_json_output_is_json() {
    let dir = tmpdir("solvejson");
    let model = write_model(&dir);
    let out = gsched()
        .arg("solve")
        .arg(&model)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(parsed["all_stable"], serde_json::Value::Bool(true));
    assert!(parsed["classes"].as_array().unwrap().len() == 2);
    assert!(parsed["classes"][0]["mean_jobs"].as_f64().unwrap() > 0.0);
}

#[test]
fn simulate_runs_each_policy() {
    let dir = tmpdir("sim");
    let model = write_model(&dir);
    for policy in ["gang", "lend", "rr", "fcfs"] {
        let out = gsched()
            .arg("simulate")
            .arg(&model)
            .args(["--policy", policy, "--horizon", "5000", "--json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "policy {policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert!(
            parsed["classes"][0]["completions"].as_u64().unwrap() > 0,
            "policy {policy}"
        );
    }
}

#[test]
fn simulate_fig2_reports_switch_time_and_counters_for_every_policy() {
    let dir = tmpdir("simdiag");
    for policy in ["gang", "lend", "rr", "fcfs"] {
        let diag = dir.join(format!("sim-{policy}.json"));
        let out = gsched()
            .args(["simulate", "--scenario", "fig2", "--policy", policy])
            .args(["--horizon", "2000", "--json", "--diag"])
            .arg(&diag)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "policy {policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let parsed: serde_json::Value =
            serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
        let switch = parsed["switch_fraction"].as_f64().unwrap();
        if policy == "fcfs" {
            assert_eq!(switch, 0.0, "FCFS never switches");
        } else {
            assert!(switch > 0.0 && switch < 1.0, "policy {policy}: {switch}");
        }
        let snapshot = std::fs::read_to_string(&diag).unwrap();
        for name in ["sim.events_processed", "sim.run"] {
            assert!(snapshot.contains(name), "policy {policy}: no {name}");
        }
    }
}

#[test]
fn tune_reports_a_quantum() {
    let dir = tmpdir("tune");
    let model = write_model(&dir);
    let out = gsched()
        .arg("tune")
        .arg(&model)
        .args(["--lo", "0.05", "--hi", "10", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let q = parsed["quantum"].as_f64().unwrap();
    assert!((0.05..=10.0).contains(&q));
}

#[test]
fn stability_always_stable_class() {
    let dir = tmpdir("stab");
    let model = write_model(&dir);
    let out = gsched()
        .arg("stability")
        .arg(&model)
        .args(["--class", "1", "--lo", "0.5", "--hi", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stable"), "{text}");
}

#[test]
fn paper_subcommand() {
    let out = gsched()
        .arg("paper")
        .args(["--rho", "0.3", "--quantum", "1.0", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(parsed["classes"].as_array().unwrap().len(), 4);
}

#[test]
fn example_model_roundtrip() {
    let out = gsched().arg("example-model").output().unwrap();
    assert!(out.status.success());
    let dir = tmpdir("roundtrip");
    let path = dir.join("example.json");
    std::fs::write(&path, &out.stdout).unwrap();
    let solved = gsched().arg("solve").arg(&path).output().unwrap();
    assert!(solved.status.success());
}

#[test]
fn doctor_prints_health_table() {
    let dir = tmpdir("doctor");
    let model = write_model(&dir);
    let out = gsched().arg("doctor").arg(&model).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("drift_slack"), "{text}");
    assert!(text.contains("sp(R)"), "{text}");
    assert!(text.contains("R_residual"), "{text}");
    assert!(text.contains("all stable = true"), "{text}");
}

#[test]
fn doctor_json_has_per_class_health() {
    let dir = tmpdir("doctorjson");
    let model = write_model(&dir);
    let out = gsched()
        .arg("doctor")
        .arg(&model)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(parsed["all_stable"], serde_json::Value::Bool(true));
    let classes = parsed["classes"].as_array().unwrap();
    assert_eq!(classes.len(), 2);
    for c in classes {
        assert!(c["drift_margin"].as_f64().unwrap() > 0.0);
        let sp = c["spectral_radius"].as_f64().unwrap();
        assert!(sp > 0.0 && sp < 1.0, "sp(R) = {sp}");
        assert!(c["r_residual"].as_f64().unwrap() < 1e-8);
    }
}

#[test]
fn doctor_warns_near_instability_at_default_thresholds() {
    // The thresholds are fixed: a scenario built to sit near saturation
    // trips them without any tuning.
    let out = gsched()
        .arg("doctor")
        .args(["--scenario", "near_instability"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("WARN class 0: truncated tail mass"), "{text}");
}

#[test]
fn trace_flag_writes_valid_chrome_trace() {
    let dir = tmpdir("trace");
    let model = write_model(&dir);
    let trace = dir.join("trace.json");
    let out = gsched()
        .arg("solve")
        .arg(&model)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
    let events = parsed["traceEvents"].as_array().unwrap();
    // At least the top-level core.solve span plus metadata records.
    let complete: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e["ph"] == serde_json::Value::String("X".to_string()))
        .collect();
    assert!(!complete.is_empty(), "{text}");
    for ev in &complete {
        assert!(ev["ts"].as_f64().unwrap() >= 0.0);
        assert!(ev["dur"].as_f64().unwrap() >= 0.0);
        assert!(ev["name"].as_str().is_some());
    }
    assert!(events
        .iter()
        .any(|e| e["ph"] == serde_json::Value::String("M".to_string())));
    assert!(complete
        .iter()
        .any(|e| e["args"]["path"].as_str().unwrap().contains("core.solve")));
}

/// Run `gsched bench` with `args` into a fresh directory and return the
/// bytes of `name` there, asserting they equal the committed
/// `results/bench/<name>`.
fn bench_record_matches_committed(tag: &str, args: &[&str], name: &str) -> String {
    let dir = tmpdir(tag);
    let out = gsched()
        .arg("bench")
        .args(args)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join(name)).unwrap();
    let committed = std::fs::read_to_string(format!(
        "{}/../../results/bench/{name}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    assert!(
        written == committed,
        "results/bench/{name} differs from a fresh run: the work counters \
         changed, so regenerate it with `gsched bench {}` and commit the diff",
        args.join(" ")
    );
    written
}

/// Keys no bench record may carry: wall time, the parallel pass, the run
/// label, and the retired `sp(R)` and loadtest fields.
const REMOVED_BENCH_KEYS: &[&str] = &[
    "wall_ms",
    "parallel_speedup",
    "sim_event_rate",
    "phases",
    "p50_ms",
    "p99_ms",
    "rps",
    "reps",
    "jobs",
    "label",
    "max_spectral_radius",
    "requests",
    "request_errors",
    "shed",
    "cached_hits",
];

/// The parsed record: schema v5, no removed key at any level, and every
/// warm-started sweep row counts one hit or miss per point.
fn parse_bench_record(text: &str) -> serde_json::Value {
    let parsed: serde_json::Value = serde_json::from_str(text).unwrap();
    assert_eq!(parsed["schema_version"].as_u64(), Some(5));
    assert_eq!(parsed["quick"].as_bool(), Some(true));
    let scenarios = parsed["scenarios"].as_array().unwrap();
    for obj in std::iter::once(&parsed).chain(scenarios) {
        for (key, _) in obj.as_object().unwrap() {
            assert!(
                !REMOVED_BENCH_KEYS.contains(&key.as_str()),
                "removed key {key} in {text}"
            );
        }
    }
    for s in scenarios
        .iter()
        .filter(|s| s["kind"].as_str() == Some("solver"))
    {
        assert!(s["rmatrix_solves"].as_u64().unwrap() > 0, "{s}");
        assert!(s["matmul_flops"].as_u64().unwrap() > 0, "{s}");
        assert_eq!(
            s["warm_hits"].as_u64().unwrap() + s["warm_misses"].as_u64().unwrap(),
            s["points"].as_u64().unwrap(),
            "{s}"
        );
    }
    parsed
}

#[test]
fn bench_quick_reproduces_the_committed_record() {
    let text = bench_record_matches_committed("bench-quick", &["--quick"], "quick.json");
    let parsed = parse_bench_record(&text);
    let scenarios = parsed["scenarios"].as_array().unwrap();
    let names: Vec<&str> = scenarios
        .iter()
        .map(|s| s["name"].as_str().unwrap())
        .collect();
    for want in ["fig2", "fig3", "fig4", "fig5", "sim_"] {
        assert!(
            names.iter().any(|n| n.starts_with(want)),
            "missing {want} in {names:?}"
        );
    }
    // Solver scenarios carry numerical telemetry.
    let fig2 = &scenarios[0];
    assert!(fig2["max_r_residual"].as_f64().unwrap() >= 0.0);
    // Sweep scenarios are warm-started: most points start warm.
    assert!(fig2["warm_hits"].as_u64().unwrap() > fig2["warm_misses"].as_u64().unwrap());
    // The sim scenario counts events.
    let sim = scenarios
        .iter()
        .find(|s| s["name"].as_str().unwrap().starts_with("sim_"))
        .unwrap();
    assert!(sim["sim_events"].as_u64().unwrap() > 0);
}

#[test]
fn bench_scaling_quick_reproduces_the_committed_record() {
    let text = bench_record_matches_committed(
        "bench-scaling",
        &["--scaling", "--quick"],
        "scaling-quick.json",
    );
    let parsed = parse_bench_record(&text);
    let scenarios = parsed["scenarios"].as_array().unwrap();
    assert!(!scenarios.is_empty());
    for s in scenarios {
        assert!(s["name"].as_str().unwrap().starts_with("scaling_p"), "{s}");
        assert_eq!(s["kind"].as_str(), Some("solver"));
    }
}
#[test]
fn sweep_json_reports_every_point() {
    let out = gsched()
        .arg("sweep")
        .args(["fig4", "--quick", "--jobs", "2", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let reports = parsed.as_array().unwrap();
    assert_eq!(reports.len(), 1);
    let rep = &reports[0];
    assert_eq!(rep["figure"].as_str().unwrap(), "fig4");
    let points = rep["points"].as_array().unwrap();
    assert_eq!(points.len(), 2);
    for p in points {
        assert_eq!(p["ok"], serde_json::Value::Bool(true));
        assert!(p["mean_response"][0].as_f64().unwrap() > 0.0);
    }
    assert_eq!(
        rep["warm_hits"].as_u64().unwrap() + rep["warm_misses"].as_u64().unwrap(),
        2
    );
}

#[test]
fn sweep_human_output_reports_warm_rate() {
    let out = gsched()
        .arg("sweep")
        .args(["fig5", "--quick", "--jobs", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig5:"), "{text}");
    assert!(text.contains("warm hit rate"), "{text}");
}

#[test]
fn sweep_rejects_unknown_figure() {
    // Non-figure names fall through to scenario resolution (registry name
    // or file), so the failure names the registry rather than the figures.
    let out = gsched().arg("sweep").arg("fig9").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario"), "{err}");
}

#[test]
fn unknown_and_removed_flags_fail_by_name() {
    for (args, flag) in [
        (
            &["solve", "--scenario", "fig2", "--backend", "blocked"][..],
            "--backend",
        ),
        (&["sweep", "fig2", "--quik", "--json"][..], "--quik"),
        (&["sweep", "fig2", "--quick", "--no-warm"][..], "--no-warm"),
        (
            &["sweep", "fig4", "--quick", "--parity-check"][..],
            "--parity-check",
        ),
        (
            &["solve", "--scenario", "fig2", "--bogus", "3", "--json"][..],
            "--bogus",
        ),
        (&["request", "fig2", "--proto", "1"][..], "--proto"),
        (&["bench", "--quick", "--reps", "3"][..], "--reps"),
        (
            &["bench", "--quick", "--compare", "x.json"][..],
            "--compare",
        ),
        (&["bench", "--kernels", "--quick"][..], "--kernels"),
        (&["bench", "--quick", "--label", "x"][..], "--label"),
        (
            &["bench", "--quick", "--history", "h.ndjson"][..],
            "--history",
        ),
        (&["bench", "--quick", "--no-history"][..], "--no-history"),
        (&["loadtest", "--quick", "--no-history"][..], "--no-history"),
        (&["loadtest", "--quick", "--out", "."][..], "--out"),
        (&["loadtest", "--quick", "--label", "x"][..], "--label"),
        // One R solver: no subcommand takes a method.
        (
            &["solve", "--scenario", "fig2", "--method", "lr"][..],
            "--method",
        ),
        (
            &["sweep", "fig2", "--quick", "--method", "lr"][..],
            "--method",
        ),
        (&["validate", "fig2", "--method", "lr"][..], "--method"),
        (&["xval", "fig2", "--method", "lr"][..], "--method"),
        (
            &["doctor", "--scenario", "fig2", "--method", "lr"][..],
            "--method",
        ),
        (
            &["profile", "fig2", "--quick", "--method", "lr"][..],
            "--method",
        ),
        // Doctor's thresholds are fixed and it has no convergence section.
        (
            &["doctor", "--scenario", "fig2", "--convergence"][..],
            "--convergence",
        ),
        (
            &["doctor", "--scenario", "fig2", "--warn-drift", "0.1"][..],
            "--warn-drift",
        ),
        (
            &["doctor", "--scenario", "fig2", "--warn-gap", "0.1"][..],
            "--warn-gap",
        ),
        (
            &["doctor", "--scenario", "fig2", "--warn-residual", "1e-9"][..],
            "--warn-residual",
        ),
        (
            &["doctor", "--scenario", "fig2", "--warn-trunc", "1e-9"][..],
            "--warn-trunc",
        ),
        (
            &["doctor", "--scenario", "fig2", "--warn-certified", "1e-9"][..],
            "--warn-certified",
        ),
        // Flags another subcommand owns are unknown here.
        (
            &[
                "solve",
                "--scenario",
                "fig2",
                "--jobs",
                "3",
                "--window",
                "2",
            ][..],
            "--jobs",
        ),
        (&["validate", "fig2", "--jobs", "4"][..], "--jobs"),
        (
            &["bench", "--quick", "--jobs", "4", "--scenario", "fig2"][..],
            "--jobs",
        ),
    ] {
        let out = gsched().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{}: unknown flag {flag}", args[0])),
            "{err}"
        );
    }
    // The history gate is gone with its subcommand, and the dense
    // absorbed-chain vacation mode with its flag value.
    for (args, want) in [
        (
            &["solve", "--scenario", "fig2", "--mode", "exact"][..],
            "unknown --mode `exact`",
        ),
        (
            &["bench", "trend"][..],
            "bench: unexpected argument `trend`",
        ),
        (
            &["bench", "trend", "--gate"][..],
            "bench: unknown flag --gate",
        ),
    ] {
        let out = gsched().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

/// The server's persistent cache, Prometheus endpoint, access log and the
/// `top` dashboard are gone: their flags and the subcommand fail by name
/// instead of being ignored.
#[test]
fn removed_serving_extras_fail_by_name() {
    for (args, want) in [
        (
            &["serve", "--cache-path", "x"][..],
            "serve: unknown flag --cache-path",
        ),
        (
            &["serve", "--metrics-addr", "127.0.0.1:0"][..],
            "serve: unknown flag --metrics-addr",
        ),
        (
            &["serve", "--access-log", "x"][..],
            "serve: unknown flag --access-log",
        ),
        (
            &["serve", "--access-log-max-bytes", "1"][..],
            "serve: unknown flag --access-log-max-bytes",
        ),
        (
            &["serve", "--batch-max", "2"][..],
            "serve: unknown flag --batch-max",
        ),
        (&["top"][..], "unknown subcommand `top`"),
        (&["top", "--once"][..], "unknown subcommand `top`"),
    ] {
        let out = gsched().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

/// The template printers take no arguments: a flag, a diagnostics flag or
/// a positional argument fails by name instead of being ignored.
#[test]
fn example_templates_reject_every_argument() {
    let dir = tmpdir("example-args");
    let diag = dir.join("x.json");
    for cmd in ["example-model", "example-scenario"] {
        let out = gsched().arg(cmd).output().unwrap();
        assert!(out.status.success(), "{cmd}");
        serde_json::from_str::<serde_json::Value>(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| panic!("{cmd} prints JSON: {e}"));
        for (args, want) in [
            (vec!["--bogus"], format!("{cmd}: unknown flag --bogus")),
            (vec!["extra"], format!("{cmd}: unexpected argument `extra`")),
            (
                vec!["--diag", diag.to_str().unwrap()],
                format!("{cmd}: --diag is not supported"),
            ),
        ] {
            let out = gsched().arg(cmd).args(&args).output().unwrap();
            assert!(!out.status.success(), "{cmd} {args:?} succeeded");
            assert!(out.stdout.is_empty(), "{cmd} {args:?} produced output");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&want), "{cmd} {args:?}: {err}");
        }
    }
    assert!(!diag.exists(), "a rejected --diag wrote its snapshot");
}

#[test]
fn solve_asymptotic_honours_the_diagnostics_flags() {
    let dir = tmpdir("asymptotic-diag");
    let diag = dir.join("asym.diag.json");
    let trace = dir.join("asym.trace.json");
    let out = gsched()
        .args(["solve", "--scenario", "p_sweep", "--asymptotic", "--diag"])
        .arg(&diag)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&diag).unwrap()).unwrap();
    assert!(snap.get("counters").is_some(), "{snap}");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(trace["traceEvents"].as_array().is_some());
}

/// Subcommands whose own recorder (or lack of solver work) would make a
/// diagnostics flag do nothing reject it by name instead.
#[test]
fn diagnostics_flags_that_would_record_nothing_fail_by_name() {
    for (args, flag) in [
        (&["request", "fig2", "--trace", "x.json"][..], "--trace"),
        (&["bench", "--quick", "--diag", "x.json"][..], "--diag"),
        (&["profile", "fig2", "--quick", "-v"][..], "-v"),
    ] {
        let cmd = args[0];
        let out = gsched().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{cmd}: {flag} is not supported")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn count_flags_reject_non_integers() {
    let dir = tmpdir("countflags");
    let model = write_model(&dir);
    let model = model.to_str().unwrap();
    for bad in ["-1", "1.5", "nan"] {
        for (args, flag) in [
            (&["stability", model, "--class", bad][..], "--class"),
            (&["sweep", "fig2", "--quick", "--jobs", bad][..], "--jobs"),
            (&["xval", "fig2", "--points", bad][..], "--points"),
        ] {
            let out = gsched().args(args).output().unwrap();
            assert!(!out.status.success(), "{args:?} succeeded");
            assert!(out.stdout.is_empty(), "{args:?} produced output");
            let err = String::from_utf8_lossy(&out.stderr);
            let want = format!("{flag} expects a non-negative integer, got `{bad}`");
            assert!(err.contains(&want), "{args:?}: {err}");
        }
    }
}

#[test]
fn figure_fig4_reproduces_the_committed_record() {
    let dir = tmpdir("figure-fig4");
    let out = gsched()
        .args(["figure", "fig4"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("fig4: all shape checks passed"), "{err}");
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(
        csv.starts_with("service_rate,class0,class1,class2,class3\n"),
        "{csv}"
    );
    let written = std::fs::read(dir.join("results/fig4.json")).unwrap();
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig4.json"
    ))
    .unwrap();
    assert!(
        written == committed,
        "results/fig4.json differs from the committed record"
    );
}

#[test]
fn figure_write_failure_still_writes_the_diag_snapshot() {
    // A plain file named `results` makes every record write fail, for any
    // user (directory permissions would not stop root).
    let dir = tmpdir("figure-unwritable");
    std::fs::write(dir.join("results"), b"not a directory").unwrap();
    let out = gsched()
        .args(["figure", "fig4", "--diag", "fig4.diag.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{err}");
    assert!(err.contains("cannot write `results/fig4.json`"), "{err}");
    assert!(err.contains("fig4: all shape checks passed"), "{err}");
    assert!(!err.contains("shape checks failed"), "{err}");
    let diag = std::fs::read_to_string(dir.join("fig4.diag.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&diag).unwrap();
    assert!(v.get("counters").is_some(), "{diag}");
}

#[test]
fn figure_fig1_prints_dot() {
    let out = gsched().args(["figure", "fig1"]).output().unwrap();
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.starts_with("digraph class_chain"), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
}

#[test]
fn figure_rejects_unknown_name_listing_the_figures() {
    let out = gsched().args(["figure", "fig9"]).output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown figure `fig9`") && err.contains("fig1, fig2, fig3, fig4, fig5, all"),
        "{err}"
    );
}

#[test]
fn solve_scenario_by_registry_name() {
    let out = gsched()
        .args(["solve", "--scenario", "ablation", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(parsed["all_stable"], serde_json::Value::Bool(true));
    assert_eq!(parsed["classes"].as_array().unwrap().len(), 4);
}

#[test]
fn simulate_scenario_uses_its_config() {
    let out = gsched()
        .args([
            "simulate",
            "--scenario",
            "ablation",
            "--horizon",
            "5000",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert!(parsed["classes"][0]["completions"].as_u64().unwrap() > 0);
}

#[test]
fn sweep_accepts_scenario_flag() {
    let out = gsched()
        .args(["sweep", "--scenario", "fig4", "--quick", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let reports = parsed.as_array().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0]["figure"].as_str().unwrap(), "fig4");
    for p in reports[0]["points"].as_array().unwrap() {
        assert_eq!(p["ok"], serde_json::Value::Bool(true));
    }
}

#[test]
fn validate_registry_scenario_reports_stability() {
    let out = gsched()
        .args(["validate", "fig2", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let rep = &parsed.as_array().unwrap()[0];
    assert_eq!(rep["name"].as_str().unwrap(), "fig2");
    assert_eq!(rep["ok"], serde_json::Value::Bool(true));
    let classes = rep["classes"].as_array().unwrap();
    assert_eq!(classes.len(), 4);
    for c in classes {
        assert_eq!(c["stable"], serde_json::Value::Bool(true));
        assert!(c["drift_margin"].as_f64().unwrap() > 0.0);
    }
}

#[test]
fn validate_fails_on_unstable_scenario_file() {
    let dir = tmpdir("validate-unstable");
    let scenario = r#"{
      "name": "overload",
      "machine": {
        "processors": 4,
        "classes": [
          {
            "partition_size": 4,
            "arrival": { "type": "exponential", "rate": 5.0 },
            "service": { "type": "exponential", "rate": 1.0 },
            "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
            "switch_overhead": { "type": "exponential", "rate": 100.0 }
          }
        ]
      }
    }"#;
    let path = dir.join("overload.json");
    std::fs::write(&path, scenario).unwrap();
    let out = gsched().arg("validate").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failed validation"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ERROR"), "{text}");
}

#[test]
fn xval_scenario_within_tolerance() {
    let out = gsched()
        .args([
            "xval",
            "ablation",
            "--points",
            "1",
            "--horizon-scale",
            "0.2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let rep = &parsed.as_array().unwrap()[0];
    assert_eq!(rep["scenario"].as_str().unwrap(), "ablation");
    assert_eq!(rep["passed"], serde_json::Value::Bool(true));
    assert!(rep["compared_points"].as_u64().unwrap() >= 1);
    let rows = rep["points"][0]["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 4);
    for r in rows {
        assert_eq!(r["pass"], serde_json::Value::Bool(true));
        assert!(r["analytic"].as_f64().unwrap() > 0.0);
        assert!(r["simulated"].as_f64().unwrap() > 0.0);
    }
}

#[test]
fn example_scenario_round_trips_through_solve_and_validate() {
    let out = gsched().arg("example-scenario").output().unwrap();
    assert!(out.status.success());
    let dir = tmpdir("scenario-roundtrip");
    let path = dir.join("scenario.json");
    std::fs::write(&path, &out.stdout).unwrap();
    let solved = gsched()
        .arg("solve")
        .args(["--scenario", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        solved.status.success(),
        "{}",
        String::from_utf8_lossy(&solved.stderr)
    );
    let validated = gsched().arg("validate").arg(&path).output().unwrap();
    assert!(
        validated.status.success(),
        "{}",
        String::from_utf8_lossy(&validated.stderr)
    );
}

/// A distribution written with a branch that carries no probability is the
/// distribution without it. `zero_weight_branches.json` spells two of
/// fig2's exponentials as a Coxian with continuation probability 0 and a
/// hyperexponential with a zero weight; it validates and solves to fig2's
/// answer byte for byte.
#[test]
fn zero_weight_branches_solve_exactly_as_fig2() {
    let path = format!(
        "{}/../scenario/examples/scenarios/zero_weight_branches.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let solve = |scenario: &str| {
        let out = gsched()
            .args(["solve", "--scenario", scenario, "--json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let got = solve(&path);
    assert!(got.contains("\"classes\""), "{got}");
    assert_eq!(got, solve("fig2"));
    let validated = gsched().arg("validate").arg(&path).output().unwrap();
    assert!(
        validated.status.success(),
        "{}",
        String::from_utf8_lossy(&validated.stderr)
    );
}

#[test]
fn bench_scenario_flag_runs_one_scenario() {
    let dir = tmpdir("bench-scenario");
    let out = gsched()
        .arg("bench")
        .args(["--quick", "--scenario", "ablation", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("ablation-quick.json")).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    let scenarios = parsed["scenarios"].as_array().unwrap();
    assert_eq!(scenarios.len(), 1);
    assert_eq!(scenarios[0]["name"].as_str().unwrap(), "ablation");
    assert_eq!(scenarios[0]["kind"].as_str().unwrap(), "sim");
}

#[test]
fn scenario_lookup_rejects_unknown_name() {
    let out = gsched()
        .args(["solve", "--scenario", "no_such_scenario"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario"), "{err}");
    assert!(err.contains("fig2"), "should list registry names: {err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = gsched()
        .arg("solve")
        .arg("/nonexistent/nope.json")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

/// Start `gsched serve` on an ephemeral port and parse the bound address
/// from its "listening on ..." line.
fn spawn_server(diag: Option<&std::path::Path>) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut cmd = gsched();
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    if let Some(path) = diag {
        cmd.args(["--diag", path.to_str().unwrap()]);
    }
    let mut child = cmd.spawn().unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("server banner").unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    (child, addr)
}

fn request(addr: &str, args: &[&str]) -> std::process::Output {
    gsched()
        .arg("request")
        .args(args)
        .args(["--addr", addr])
        .output()
        .unwrap()
}

#[test]
fn serve_caches_repeat_requests_and_matches_local_solve() {
    let dir = tmpdir("serve");
    let diag_path = dir.join("serve_diag.json");
    let (mut server, addr) = spawn_server(Some(&diag_path));

    let first = request(&addr, &["fig2"]);
    let second = request(&addr, &["fig2"]);
    assert!(
        first.status.success() && second.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&first.stderr),
        String::from_utf8_lossy(&second.stderr)
    );
    // The cache replay must be byte-identical to the first answer...
    assert_eq!(first.stdout, second.stdout);
    // ...and both must match solving the same scenario locally.
    let local = gsched()
        .args(["solve", "--scenario", "fig2", "--json"])
        .output()
        .unwrap();
    assert!(local.status.success());
    assert_eq!(first.stdout, local.stdout, "served != local solve --json");

    // The full second frame says it was a cache hit.
    let framed = request(&addr, &["fig2", "--frame", "--id", "check"]);
    assert!(framed.status.success());
    let frame: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&framed.stdout).trim()).unwrap();
    assert_eq!(frame["status"].as_str().unwrap(), "ok");
    assert_eq!(frame["id"].as_str().unwrap(), "check");
    assert_eq!(frame["cached"], serde_json::Value::Bool(true));

    // Server-side stats agree: one miss (the first request), hits after.
    let stats = request(&addr, &["--op", "stats"]);
    assert!(stats.status.success());
    let stats: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&stats.stdout).trim()).unwrap();
    assert_eq!(stats["cache_misses"].as_u64(), Some(1));
    assert_eq!(stats["cache_hits"].as_u64(), Some(2));

    let bye = request(&addr, &["--op", "shutdown"]);
    assert!(bye.status.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "server exited {status:?}");

    // The diagnostics snapshot shows exactly one miss and exactly one
    // engine solve: cache hits never re-ran the solver.
    let diag: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&diag_path).unwrap()).unwrap();
    let counter = |name: &str| {
        diag["counters"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["name"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing counter {name}"))["value"]
            .as_u64()
            .unwrap()
    };
    assert_eq!(counter("service.cache.misses"), 1);
    assert_eq!(counter("service.cache.hits"), 2);
    assert_eq!(counter("core.solver.solves"), 1);
}

#[test]
fn serve_returns_structured_errors_and_survives() {
    let (mut server, addr) = spawn_server(None);
    let bad = request(&addr, &["no_such_scenario"]);
    assert!(!bad.status.success());
    let frame: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&bad.stdout).trim()).unwrap();
    assert_eq!(frame["status"].as_str().unwrap(), "error");
    assert_eq!(frame["error"]["kind"].as_str().unwrap(), "unknown_scenario");
    // The server is still alive and serving.
    let ok = request(&addr, &["fig4"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let bye = request(&addr, &["--op", "shutdown"]);
    assert!(bye.status.success());
    assert!(server.wait().unwrap().success());
}

#[test]
fn validate_json_failure_emits_error_frame() {
    let dir = tmpdir("validate-frame");
    let scenario = r#"{
      "name": "overload",
      "machine": {
        "processors": 4,
        "classes": [
          {
            "partition_size": 4,
            "arrival": { "type": "exponential", "rate": 5.0 },
            "service": { "type": "exponential", "rate": 1.0 },
            "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
            "switch_overhead": { "type": "exponential", "rate": 100.0 }
          }
        ]
      }
    }"#;
    let path = dir.join("overload.json");
    std::fs::write(&path, scenario).unwrap();
    let out = gsched()
        .arg("validate")
        .arg(&path)
        .arg("--json")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Last stdout line is a service-style error frame.
    let frame: serde_json::Value =
        serde_json::from_str(text.trim().lines().last().unwrap()).unwrap();
    assert_eq!(frame["status"].as_str().unwrap(), "error");
    // The same frame shape the server sends: one error schema.
    assert_eq!(frame["proto"].as_u64(), Some(2));
    assert_eq!(
        frame["error"]["kind"].as_str().unwrap(),
        "validation_failed"
    );
    assert!(frame["error"]["message"]
        .as_str()
        .unwrap()
        .contains("failed validation"));
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = gsched().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let dir = tmpdir("badflag");
    let model = write_model(&dir);
    let out = gsched()
        .arg("simulate")
        .arg(&model)
        .args(["--policy", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn profile_quick_json_attributes_wall_time() {
    let out = gsched()
        .arg("profile")
        .arg("fig2")
        .args(["--quick", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(parsed["profile_schema_version"].as_f64().unwrap(), 2.0);
    // The headline invariant: span attribution accounts for >= 90% of wall time.
    let fraction = parsed["attributed_fraction"].as_f64().unwrap();
    assert!(fraction >= 0.9, "attributed_fraction {fraction} < 0.9");
    // Kernel counters are live: the solve must do real matmul and LU work.
    let kernels = parsed["kernels"].as_array().unwrap();
    let flops_of = |name: &str| -> f64 {
        kernels
            .iter()
            .find(|k| k["kernel"].as_str().unwrap() == name)
            .map(|k| k["flops"].as_f64().unwrap())
            .unwrap()
    };
    assert!(flops_of("matmul") > 0.0);
    assert!(flops_of("lu_factorization") > 0.0);
    // Phase table includes the R-iteration span and the R solves are counted.
    let phases = parsed["phases"].as_array().unwrap();
    assert!(phases
        .iter()
        .any(|p| p["span"].as_str().unwrap() == "qbd.solve_r"));
    let convergence = &parsed["convergence"];
    assert!(convergence["r_solves"].as_u64().unwrap() > 0);
    assert!(
        convergence["r_iterations"].as_u64().unwrap() >= convergence["r_solves"].as_u64().unwrap()
    );
}

/// `gsched profile` measures the sweep `gsched sweep` runs: the same
/// chunked warm-start chains, so the same fixed-point and `R` iteration
/// counts.
#[test]
fn profile_counts_the_fixed_point_iterations_of_the_sweep() {
    let dir = tmpdir("profile_vs_sweep");
    let diag = dir.join("sweep.diag.json");
    let out = gsched()
        .args(["sweep", "fig2", "--quick", "--jobs", "1", "--diag"])
        .arg(&diag)
        .output()
        .unwrap();
    assert!(out.status.success());
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&diag).unwrap()).unwrap();
    let sweep_counter = |name: &str| {
        snap["counters"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["name"].as_str() == Some(name))
            .and_then(|c| c["value"].as_u64())
            .unwrap()
    };

    let out = gsched()
        .args(["profile", "fig2", "--quick", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let profile: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    for (key, counter) in [
        ("fp_iterations", "core.solver.fp_iterations"),
        ("fp_restarts", "core.solver.fp_restarts"),
        ("r_solves", "qbd.rmatrix.solves"),
        ("r_iterations", "qbd.rmatrix.iterations"),
    ] {
        assert_eq!(
            profile["convergence"][key].as_u64(),
            Some(sweep_counter(counter)),
            "{key}"
        );
    }
}

#[test]
fn profile_of_a_processors_sweep_runs_the_truncation_search() {
    let out = gsched()
        .arg("profile")
        .arg("p_sweep")
        .args(["--quick", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let count = |span: &str| -> f64 {
        parsed["phases"]
            .as_array()
            .unwrap()
            .iter()
            .find(|p| p["span"].as_str().unwrap() == span)
            .map_or(0.0, |p| p["count"].as_f64().unwrap())
    };
    // `gsched sweep p_sweep` certifies a truncation per class solve, and
    // the search solves more than one chain at the larger machine sizes: a
    // profile of the same scenario must see those solves, not one full
    // solve per class.
    let class_solves = count("core.class*");
    assert!(class_solves > 0.0);
    assert!(
        count("qbd.solve") > class_solves,
        "{} qbd.solve spans for {class_solves} class solves",
        count("qbd.solve")
    );
    assert!(count("qbd.truncation") > 0.0);
    let search = &parsed["search"];
    assert!(
        search["truncation_attempts"].as_f64().unwrap()
            > search["unstable_skips"].as_f64().unwrap()
    );
    assert!(search["levels_eliminated"].as_f64().unwrap() > 0.0);
    // Each class solve assembles the levels its search reads: at most two
    // more than it eliminates.
    let built = search["levels_built"].as_f64().unwrap();
    assert!(built > 0.0);
    assert!(
        built <= search["levels_eliminated"].as_f64().unwrap() + 2.0 * class_solves,
        "{built} levels built in {class_solves} class solves"
    );
}

/// `doctor` renders the solution's own health report: its fixed-point
/// iteration count is the solve's, and it carries no convergence section.
#[test]
fn doctor_json_reports_the_solution_iterations() {
    let json_of = |args: &[&str]| -> serde_json::Value {
        let out = gsched().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap()
    };
    let doctor = json_of(&["doctor", "--scenario", "fig2", "--json"]);
    let solved = json_of(&["solve", "--scenario", "fig2", "--json"]);
    assert!(doctor.get("convergence").is_none(), "{doctor}");
    assert!(doctor["iterations"].as_u64().unwrap() > 0);
    assert_eq!(doctor["iterations"], solved["iterations"]);
}
