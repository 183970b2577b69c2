//! Every policy's output, pinned bit for bit.
//!
//! The four policies run on one shared event loop; a change to that loop, the
//! job table or the statistics must not move any reported number. Each run
//! below compares every `SimResult` field by `to_bits()` against constants
//! recorded from the separate per-policy engines the shared core replaced.
//! The one field left out is round-robin's switch fraction: those engines
//! reported 0 for it although round-robin pays a switch overhead between
//! jobs, so its value is checked by range instead.

use gsched_core::model::{ClassParams, GangModel};
use gsched_phase::{erlang, exponential};
use gsched_sim::{simulate, Policy, SimConfig, SimResult};

/// The two-class machine of the other simulator tests: `P = 4`, two classes
/// of partition size 2, Poisson(0.2) arrivals, unit exponential service.
fn two_class_model() -> GangModel {
    let mk = || ClassParams {
        partition_size: 2,
        arrival: exponential(0.2),
        service: exponential(1.0),
        quantum: erlang(2, 1.0),
        switch_overhead: exponential(100.0),
    };
    GangModel::new(4, vec![mk(), mk()]).unwrap()
}

/// A machine with unequal classes, so the policies part ways: a class that
/// needs the whole machine next to a class of single-processor jobs.
fn mixed_model() -> GangModel {
    let mk = |g: usize, mu: f64| ClassParams {
        partition_size: g,
        arrival: exponential(0.2),
        service: exponential(mu),
        quantum: erlang(2, 1.0),
        switch_overhead: exponential(100.0),
    };
    GangModel::new(4, vec![mk(4, 1.0), mk(1, 2.0)]).unwrap()
}

fn model(name: &str) -> GangModel {
    match name {
        "two_class" => two_class_model(),
        "mixed" => mixed_model(),
        _ => unreachable!("no model {name}"),
    }
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        horizon: 20_000.0,
        warmup: 2_000.0,
        seed,
        batches: 10,
    }
}

const SWITCH_FRACTION: &str = "switch_overhead_fraction";

/// Every field of `r` as `(name, bits)`, counts as their integer value.
fn fields(r: &SimResult) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (p, c) in r.classes.iter().enumerate() {
        let (q50, q90, q95, q99) = c.response_quantiles;
        for (name, v) in [
            ("mean_jobs", c.mean_jobs),
            ("mean_jobs_ci95", c.mean_jobs_ci95),
            ("mean_response", c.mean_response),
            ("response_std", c.response_std),
            ("p50", q50),
            ("p90", q90),
            ("p95", q95),
            ("p99", q99),
        ] {
            out.push((format!("class{p}.{name}"), v.to_bits()));
        }
        out.push((format!("class{p}.arrivals"), c.arrivals));
        out.push((format!("class{p}.completions"), c.completions));
    }
    for (name, v) in [
        ("processor_utilization", r.processor_utilization),
        (SWITCH_FRACTION, r.switch_overhead_fraction),
        ("measured_time", r.measured_time),
    ] {
        out.push((name.to_string(), v.to_bits()));
    }
    out
}

/// `(model, policy, seed, fields in the order of [`fields`])`.
#[rustfmt::skip]
const PINNED: &[(&str, &str, u64, [u64; 23])] = &[
    ("two_class", "gang", 1, [0x3fd03c3d49cccb3a, 0x3f7acbc98d439c98, 0x3ff451506e502d9e, 0x3ff588545c86e41a, 0x3fead4d1ef18bc14, 0x40070e395360a2ca, 0x401001ebb30d644f, 0x4019bad2afe71ba6, 0x0000000000000e0a, 0x0000000000000e0a, 0x3fd05c927c632991, 0x3f87e430fd8b06b4, 0x3ff42ee00a8e7ade, 0x3ff49b50b6ec94e6, 0x3feb996665142bcf, 0x4007084592375729, 0x400e0f7db3f793c3, 0x4018973aea2919a4, 0x0000000000000e3e, 0x0000000000000e3e, 0x3fca1d8730ba9c3e, 0x3f8452fd2c65e4f2, 0x40d1940000000000]),
    ("two_class", "gang", 2, [0x3fcfe49decfc312b, 0x3f8d160720155b98, 0x3ff4529a234c86e0, 0x3ff45d73edf4623e, 0x3febd4c513ca128a, 0x4007f0fab8eb078f, 0x400e5e6d184b7a2c, 0x4018138f6fd8240f, 0x0000000000000dcb, 0x0000000000000dcb, 0x3fce218c01aefe81, 0x3f86bd8b1e0ae199, 0x3ff3618b3c5ccd01, 0x3ff38575ef4cb17e, 0x3feacf3e656ae072, 0x40062e2c25594ced, 0x400e159be8023283, 0x40178d3b289843d3, 0x0000000000000daa, 0x0000000000000daa, 0x3fc8b65babc2e6c5, 0x3f82fcd39516b48b, 0x40d1940000000000]),
    ("two_class", "lend", 1, [0x3fcb29eeb39e2622, 0x3f840e2a52364f71, 0x3ff0971bcb18757e, 0x3ff0573f53a2f6fb, 0x3fe7764fe70fb339, 0x4002b12f8b9ba252, 0x40088e7e9a992f6e, 0x4012e76644371eac, 0x0000000000000e64, 0x0000000000000e64, 0x3fcb88e3944d0849, 0x3f88b2bfaab9e879, 0x3ff0d49ca200c489, 0x3ff046921cb26578, 0x3fe7835c7731844c, 0x400382702be4a321, 0x4008c9a872e37f87, 0x4012f8c83b6bcf93, 0x0000000000000e61, 0x0000000000000e61, 0x3fc9ea2961f49a6c, 0x3f836dd04f6c09e4, 0x40d1940000000000]),
    ("two_class", "lend", 2, [0x3fcaf47d342bdb50, 0x3f846eb2738b50f8, 0x3ff0d8ce409b6904, 0x3ff06b327ba45d04, 0x3fe8765910f9fb1c, 0x40034752ffef899b, 0x40091510de1511f7, 0x4013b143b835db31, 0x0000000000000e10, 0x0000000000000e10, 0x3fcc2bfa2477d161, 0x3f885a523c864dfc, 0x3ff173c5acdd65e3, 0x3ff0a932fdf0b0a2, 0x3fe8a502498692da, 0x40048bf04dd58c4e, 0x40095e8c4dbd6cbd, 0x40136dfcb0c9f6ba, 0x0000000000000e30, 0x0000000000000e30, 0x3fca3aea56fc116c, 0x3f838278e0c0d414, 0x40d1940000000000]),
    ("two_class", "rr", 1, [0x3fd58b89e072f58d, 0x3f902691b0f178e3, 0x3ffabaddda758a65, 0x3ffe2129d6500159, 0x3ff13cd2a87628ac, 0x400f6b8164500d7a, 0x4014770f48afbad5, 0x40222b04fa54caff, 0x0000000000000e2b, 0x0000000000000e2b, 0x3fd64a5f7f29f4f4, 0x3f9be69df537b9f1, 0x3ffbdcf75ef47228, 0x4000d11b132f5163, 0x3ff20c723800ae2f, 0x400f49ea1ee98ab8, 0x4015d4e4552626cf, 0x4024ce04d7ac46e2, 0x0000000000000e10, 0x0000000000000e10, 0x3fc9b7372e74c642, 0x0000000000000000, 0x40d1940000000000]),
    ("two_class", "rr", 2, [0x3fd5069d509a16c9, 0x3fa159483ceeff39, 0x3ffaba287eb9b866, 0x3fff80b2b02c4978, 0x3ff0f2f0ee31a556, 0x400e42d5d0855590, 0x401733cc9c946779, 0x40219d8e352dc45b, 0x0000000000000dd0, 0x0000000000000dd0, 0x3fd4ce93a8fe31f2, 0x3f954974033ba4a3, 0x3ffa6d570fbf7ae7, 0x3fff2728630675a8, 0x3ff074eea3c436ea, 0x400f59359b56a0ee, 0x4017b56cbdff7ae6, 0x402390040647c906, 0x0000000000000dd4, 0x0000000000000dd3, 0x3fc8bbf412ca8584, 0x0000000000000000, 0x40d1940000000000]),
    ("two_class", "fcfs", 1, [0x3fca29c037f7fb33, 0x3f85cd34973d2e94, 0x3ff0da535c695b01, 0x3ff09067ddcc8519, 0x3fe734c748e5015b, 0x400392391fd5e069, 0x40090574b20bf4ce, 0x401205ee3c73ce11, 0x0000000000000da5, 0x0000000000000da5, 0x3fcafb6af3b622d2, 0x3f8e594b3a77a474, 0x3ff0cb3901e9655f, 0x3ff09d282c5c9d3d, 0x3fe7be0915395189, 0x4002f39aa07414e8, 0x4008527f4d72c35c, 0x40127db59fc4dcd9, 0x0000000000000e1f, 0x0000000000000e1f, 0x3fc977b6da2fc2fe, 0x0000000000000000, 0x40d1940000000000]),
    ("two_class", "fcfs", 2, [0x3fcac3e9f7265884, 0x3f8ab72609996888, 0x3ff09bbd3c2adb46, 0x3ff056115f027bac, 0x3fe6eea1939c2ac5, 0x40031cb9b001cb46, 0x40090d96b23e5bc1, 0x4012c71d6843909c, 0x0000000000000e2a, 0x0000000000000e2a, 0x3fcb261bfac7fe26, 0x3f83665f821aa334, 0x3ff0c5b98ff72038, 0x3ff08720a00dd2b2, 0x3fe77389d6b2ca92, 0x4003363fe6c269ce, 0x4008a0f52fbc20e0, 0x4011f3cadad72bd6, 0x0000000000000e3a, 0x0000000000000e3a, 0x3fc9b6d3c99ff0a4, 0x0000000000000000, 0x40d1940000000000]),
    ("mixed", "gang", 1, [0x3fd1229e8b25a66e, 0x3f935ad30e908993, 0x3ff5db2d7d3d1587, 0x3ff64bbef170f2fa, 0x3fedeec200f3c4e7, 0x4009ad827ac1b5a7, 0x40114147af2a57cc, 0x401ae324d80e6bf9, 0x0000000000000dc8, 0x0000000000000dc8, 0x3fc07444643df24d, 0x3f78c750701f21eb, 0x3fe4de80e144776d, 0x3fe523879fcd6290, 0x3fdcba6bc593b443, 0x3ff7efb324efa728, 0x3fff66546b05a543, 0x40089f9af839c678, 0x0000000000000ddc, 0x0000000000000ddc, 0x3fcbeccce8dd00ae, 0x3f81e49915105267, 0x40d1940000000000]),
    ("mixed", "gang", 2, [0x3fd251e36331264f, 0x3f94973d9f67db6a, 0x3ff6cae98420dbc1, 0x3ff748cb8f8be9fb, 0x3feed4cb7075725a, 0x400c98dd19b16d46, 0x4011cd84c523d5c8, 0x4019b57ad583112a, 0x0000000000000e1e, 0x0000000000000e1e, 0x3fc1ee42553aee60, 0x3f7742631e1343c7, 0x3fe5f2edcb01560c, 0x3fe6d14f2cfe2e34, 0x3fdd0a9befe4f178, 0x3ff975673363ffac, 0x40011fb29a6cdccc, 0x400b94080f865ade, 0x0000000000000e57, 0x0000000000000e57, 0x3fcd016021962cd3, 0x3f8232dada385374, 0x40d1940000000000]),
    ("mixed", "lend", 1, [0x3fd1229e8b25a66e, 0x3f935ad30e908993, 0x3ff5db2d7d3d1587, 0x3ff64bbef170f2fa, 0x3fedeec200f3c4e7, 0x4009ad827ac1b5a7, 0x40114147af2a57cc, 0x401ae324d80e6bf9, 0x0000000000000dc8, 0x0000000000000dc8, 0x3fc07444643df24d, 0x3f78c750701f21eb, 0x3fe4de80e144776d, 0x3fe523879fcd6290, 0x3fdcba6bc593b443, 0x3ff7efb324efa728, 0x3fff66546b05a543, 0x40089f9af839c678, 0x0000000000000ddc, 0x0000000000000ddc, 0x3fcbeccce8dd00ae, 0x3f81e49915105267, 0x40d1940000000000]),
    ("mixed", "lend", 2, [0x3fd251e36331264f, 0x3f94973d9f67db6a, 0x3ff6cae98420dbc1, 0x3ff748cb8f8be9fb, 0x3feed4cb7075725a, 0x400c98dd19b16d46, 0x4011cd84c523d5c8, 0x4019b57ad583112a, 0x0000000000000e1e, 0x0000000000000e1e, 0x3fc1ee42553aee60, 0x3f7742631e1343c7, 0x3fe5f2edcb01560c, 0x3fe6d14f2cfe2e34, 0x3fdd0a9befe4f178, 0x3ff975673363ffac, 0x40011fb29a6cdccc, 0x400b94080f865ade, 0x0000000000000e57, 0x0000000000000e57, 0x3fcd016021962cd3, 0x3f8232dada385374, 0x40d1940000000000]),
    ("mixed", "rr", 1, [0x3fd23b54fba76c20, 0x3f9744f29eb76a51, 0x3ff6bd3a98a9ee77, 0x3ff8e99277bdced1, 0x3fee52109fe864a4, 0x400aeb2e315319d4, 0x401141a0b0b7920d, 0x401dc60db218dae5, 0x0000000000000e18, 0x0000000000000e18, 0x3fc3ad328d597b99, 0x3f80ea360ee9d505, 0x3fe88e0527a92bf5, 0x3febff2471437c82, 0x3fe05105aaa60574, 0x3ffbabdce145afc5, 0x4002bea6a9b36372, 0x40108c80e910aff9, 0x0000000000000e16, 0x0000000000000e16, 0x3fcd1728885fb56f, 0x0000000000000000, 0x40d1940000000000]),
    ("mixed", "rr", 2, [0x3fd0f7d32e21e838, 0x3f93b5e22ad06955, 0x3ff5a45c3ed30914, 0x3ff78571bebad58a, 0x3fec61aa36da463c, 0x4008764e99c2b00e, 0x401137d8771235dc, 0x401a93b26f0fe06b, 0x0000000000000dc8, 0x0000000000000dc8, 0x3fc3efae4d5dc230, 0x3f90fabb6e39feed, 0x3fe8e6f5730a39c1, 0x3fed35aa2600ac1b, 0x3fdfb254c2c355be, 0x3ffdaac4999a1ae5, 0x40039fffbdab9e37, 0x4012366d902067f5, 0x0000000000000e0e, 0x0000000000000e0e, 0x3fcbb8b07d81f802, 0x0000000000000000, 0x40d1940000000000]),
    ("mixed", "fcfs", 1, [0x3fd0bf820f8b0bad, 0x3f955410aba1dc74, 0x3ff594e9623cd210, 0x3ff5a37d21b29d97, 0x3feda061fb16783b, 0x400820a5c984b2af, 0x400fdeb20a2db4dc, 0x401a35fecf1197d5, 0x0000000000000da5, 0x0000000000000da4, 0x3fc43dccf117f4d0, 0x3f87df6250f9ad31, 0x3fe9325fc73420c9, 0x3fef2a84bb8f21fc, 0x3fde8181914c663a, 0x3fff1b86b602df35, 0x40047a36b1e9d735, 0x40144d478c20af24, 0x0000000000000e1f, 0x0000000000000e1f, 0x3fcc3356099ed20e, 0x0000000000000000, 0x40d1940000000000]),
    ("mixed", "fcfs", 2, [0x3fd134ff6ef56d43, 0x3f96ab28dfa6b154, 0x3ff55ac3d9c3ffbc, 0x3ff56d42881ef48f, 0x3fed8f94b33abc12, 0x4008c9c3164efd8e, 0x401015cccf40d075, 0x4019a7e6743e3559, 0x0000000000000e2a, 0x0000000000000e2a, 0x3fc42937e1948edd, 0x3f81329e8d0bf029, 0x3fe8e91f82b0ceda, 0x3fed82834cca1263, 0x3fdeda34b52d99f6, 0x3ffdbd822ea91ab8, 0x4003f68bc574c24d, 0x4011df58b4110655, 0x0000000000000e3a, 0x0000000000000e3a, 0x3fccaa7b0d68c9f9, 0x0000000000000000, 0x40d1940000000000]),
];

#[test]
fn every_policy_reproduces_its_pinned_output() {
    assert_eq!(PINNED.len(), 16, "two models, four policies, two seeds");
    for &(model_name, name, seed, want) in PINNED {
        let policy = Policy::from_name(name).unwrap();
        let got = fields(&simulate(&model(model_name), policy, cfg(seed)));
        assert_eq!(got.len(), want.len());
        for ((field, bits), &want_bits) in got.iter().zip(want.iter()) {
            if policy == Policy::RoundRobin && field == SWITCH_FRACTION {
                continue;
            }
            assert_eq!(
                *bits,
                want_bits,
                "{model_name} {name} seed {seed}: {field} = {} (pinned {})",
                f64::from_bits(*bits),
                f64::from_bits(want_bits)
            );
        }
    }
}

#[test]
fn round_robin_reports_its_switch_time_and_fcfs_none() {
    for seed in [1, 2] {
        let model = two_class_model();
        let rr = simulate(&model, Policy::RoundRobin, cfg(seed));
        let f = rr.switch_overhead_fraction;
        assert!(f > 0.0 && f < 1.0, "rr seed {seed}: switch fraction {f}");
        let fcfs = simulate(&model, Policy::Fcfs, cfg(seed));
        assert_eq!(fcfs.switch_overhead_fraction, 0.0);
    }
}
