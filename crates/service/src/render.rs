//! Canonical JSON rendering of solver results.
//!
//! These renderers are the single source of truth for the JSON shapes
//! emitted by `gsched solve --json` and `gsched sweep --json` *and* for
//! the `result` field of the service's `ok` frames. Sharing one
//! implementation is what makes the acceptance guarantee possible: a
//! result served from the scenario server is byte-identical to solving
//! the same scenario locally.
//!
//! The output is hand-rolled rather than serde-derived because the solver
//! result types hold non-serializable internals and because the byte
//! layout (field order, `null` for non-finite floats) is part of the wire
//! contract.

use gsched_core::GangSolution;
use gsched_engine::SweepReport;

/// Render a float as JSON, mapping every non-finite value to `null`
/// (strict JSON has no `NaN`/`inf`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal for hand-rolled output, escaped per RFC 8259: the
/// quote, the backslash, the five control characters with short escapes,
/// and every other control character as `\u00XX`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `gsched solve --json` document for one solved model.
pub fn solution_json(sol: &GangSolution) -> String {
    let classes: Vec<String> = sol
        .classes
        .iter()
        .map(|c| {
            let q = c
                .response_quantiles
                .map(|(a, b, d, e)| {
                    format!(
                        r#"[{},{},{},{}]"#,
                        json_f64(a),
                        json_f64(b),
                        json_f64(d),
                        json_f64(e)
                    )
                })
                .unwrap_or_else(|| "null".to_string());
            format!(
                r#"{{"stable":{},"mean_jobs":{},"mean_response":{},"skip_probability":{},"effective_quantum_mean":{},"vacation_mean":{},"response_quantiles":{}}}"#,
                c.stable,
                json_f64(c.mean_jobs),
                json_f64(c.mean_response),
                json_f64(c.skip_probability),
                json_f64(c.effective_quantum_mean),
                json_f64(c.vacation_mean),
                q,
            )
        })
        .collect();
    format!(
        r#"{{"iterations":{},"converged":{},"all_stable":{},"classes":[{}]}}"#,
        sol.iterations,
        sol.converged,
        sol.all_stable,
        classes.join(",")
    )
}

/// One entry of the `gsched sweep --json` document: a named sweep report.
pub fn sweep_report_json(name: &str, report: &SweepReport, classes: usize) -> String {
    let points: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            let jobs: Vec<String> = p
                .solution
                .as_ref()
                .map(|s| s.classes.iter().map(|c| json_f64(c.mean_jobs)).collect())
                .unwrap_or_default();
            let resp: Vec<String> = p
                .mean_responses(classes)
                .iter()
                .map(|&v| json_f64(v))
                .collect();
            format!(
                r#"{{"x":{},"ok":{},"warm_started":{},"mean_jobs":[{}],"mean_response":[{}],"error":{}}}"#,
                json_f64(p.x),
                p.is_ok(),
                p.warm_started,
                jobs.join(","),
                resp.join(","),
                p.error
                    .as_deref()
                    .map(json_str)
                    .unwrap_or_else(|| "null".to_string()),
            )
        })
        .collect();
    format!(
        r#"{{"figure":{},"axis":{},"jobs":{},"chunks":{},"warm_hits":{},"warm_misses":{},"warm_hit_rate":{},"wall_ms":{},"points":[{}]}}"#,
        json_str(name),
        json_str(&report.axis.label()),
        report.stats.jobs,
        report.stats.chunks,
        report.stats.warm_hits,
        report.stats.warm_misses,
        json_f64(report.stats.warm_hit_rate()),
        json_f64(report.stats.wall_ms),
        points.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_encodes_nonfinite_as_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn json_str_escapes_quotes_backslashes_and_every_control_character() {
        // DEL (U+007F) is not a control character to JSON: it passes raw.
        assert_eq!(
            json_str("a\"b\\c\nd\te\rf\u{8}g\u{c}h\u{1}i\u{1f}j\u{7f}"),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i\\u001fj\u{7f}\""
        );
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let lit = json_str(&format!("x{c}y"));
            assert!(lit.chars().all(|c| c >= ' '), "raw control in {lit:?}");
            let back: String = serde_json::from_str(&lit).expect("valid JSON string");
            assert_eq!(back, format!("x{c}y"));
        }
    }
}
