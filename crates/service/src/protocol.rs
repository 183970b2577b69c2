//! Wire protocol: newline-delimited JSON frames.
//!
//! One request frame per line, one response frame per line, in order.
//! See the crate-level docs for the full frame reference. The `result`
//! field of an `ok` frame is always the **last** field, which lets
//! clients splice the served result out of the frame byte-for-byte
//! ([`extract_result`]) without a JSON round-trip that could perturb
//! number formatting.
//!
//! The wire speaks one protocol version, [`PROTO_VERSION`]. A request may
//! carry `"proto":2` or omit the field; any other value is a
//! `bad_request`. Every response carries `"proto":2` right after `status`.
//! Responses are built through the typed [`Response`]/[`ResponseBody`]
//! pair; [`error_frame`] is the convenience the CLI uses to print its
//! `--json` failures in the same shape.

use crate::render::json_str;
use gsched_scenario::Scenario;
use serde_json::Value;
use std::sync::Arc;

/// The protocol version this crate speaks.
pub const PROTO_VERSION: u8 = 2;

/// Operations a request frame may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Solve the scenario's base model (default).
    Solve,
    /// Evaluate the scenario's sweep on the engine pool.
    Sweep,
    /// Report server counters; no scenario required.
    Stats,
    /// Ask the server to shut down cleanly; no scenario required.
    Shutdown,
}

impl Op {
    /// The wire name of this operation.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Solve => "solve",
            Op::Sweep => "sweep",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "solve" => Some(Op::Solve),
            "sweep" => Some(Op::Sweep),
            "stats" => Some(Op::Stats),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// The scenario a request names: a registry name or an inline document.
#[derive(Debug, Clone)]
pub enum ScenarioRef {
    /// Resolve against the server's registry.
    Name(String),
    /// A full scenario document, already parsed and validated.
    Inline(Box<Scenario>),
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: Option<String>,
    /// Requested operation.
    pub op: Op,
    /// The scenario to operate on (required for `solve`/`sweep`).
    pub scenario: Option<ScenarioRef>,
    /// For `sweep`: evaluate the reduced quick grid instead of the full one.
    pub quick: bool,
    /// Per-request deadline in milliseconds; `None` uses the server default.
    pub deadline_ms: Option<u64>,
}

/// Machine-readable error categories carried in error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not valid JSON or missing required fields.
    BadRequest,
    /// A scenario name that the server's registry does not know.
    UnknownScenario,
    /// An inline scenario that failed schema validation.
    InvalidScenario,
    /// The solver rejected or failed on the model.
    SolveFailed,
    /// Validation or cross-validation reported failures (CLI `validate`
    /// and `xval`; the server itself never emits this kind).
    ValidationFailed,
    /// The request exceeded its deadline.
    DeadlineExceeded,
    /// The client disconnected (or the server dropped) before completion.
    Cancelled,
    /// The server is shutting down and not accepting work.
    ShuttingDown,
    /// Admission control shed the request: the job queue was full.
    Overloaded,
    /// An unexpected internal failure; the server itself survives.
    Internal,
}

impl ErrorKind {
    /// The wire name of this error kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownScenario => "unknown_scenario",
            ErrorKind::InvalidScenario => "invalid_scenario",
            ErrorKind::SolveFailed => "solve_failed",
            ErrorKind::ValidationFailed => "validation_failed",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured error: the payload of an error frame.
#[derive(Debug, Clone)]
pub struct ServiceError {
    /// Category for programmatic handling.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Build an error from its parts.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ServiceError {
            kind,
            message: message.into(),
        }
    }
}

/// Parse one request line into a [`Request`].
///
/// Inline scenarios are fully validated here, so by the time a request
/// reaches a worker its scenario is known-good.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let bad = |m: String| ServiceError::new(ErrorKind::BadRequest, m);
    let value: Value =
        serde_json::from_str(line).map_err(|e| bad(format!("request is not valid JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| bad("request frame must be a JSON object".to_string()))?;
    for (key, _) in obj {
        if !matches!(
            key.as_str(),
            "proto" | "id" | "op" | "scenario" | "quick" | "deadline_ms"
        ) {
            return Err(bad(format!("unknown request field {key:?}")));
        }
    }
    if let Some(v) = value.get("proto") {
        match v.as_u64() {
            Some(p) if p == u64::from(PROTO_VERSION) => {}
            Some(p) => {
                return Err(bad(format!(
                    "unsupported proto {p} (this server speaks {PROTO_VERSION})"
                )))
            }
            None => return Err(bad(format!("proto must be an integer, got {}", v.kind()))),
        }
    }
    let id = match value.get("id") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) => Some(s.clone()),
        Some(other) => return Err(bad(format!("id must be a string, got {}", other.kind()))),
    };
    let op = match value.get("op") {
        None => Op::Solve,
        Some(Value::String(s)) => Op::parse(s).ok_or_else(|| bad(format!("unknown op {s:?}")))?,
        Some(other) => return Err(bad(format!("op must be a string, got {}", other.kind()))),
    };
    let scenario = match value.get("scenario") {
        None | Some(Value::Null) => None,
        Some(Value::String(name)) => Some(ScenarioRef::Name(name.clone())),
        Some(inline @ Value::Object(_)) => {
            let sc: Scenario = serde_json::from_value(inline.clone())
                .map_err(|e| ServiceError::new(ErrorKind::InvalidScenario, e.to_string()))?;
            sc.validate()
                .map_err(|e| ServiceError::new(ErrorKind::InvalidScenario, e.to_string()))?;
            Some(ScenarioRef::Inline(Box::new(sc)))
        }
        Some(other) => {
            return Err(bad(format!(
                "scenario must be a name or an object, got {}",
                other.kind()
            )))
        }
    };
    let quick = match value.get("quick") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(other) => return Err(bad(format!("quick must be a bool, got {}", other.kind()))),
    };
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            bad(format!(
                "deadline_ms must be a non-negative integer, got {}",
                v.kind()
            ))
        })?),
    };
    if matches!(op, Op::Solve | Op::Sweep) && scenario.is_none() {
        return Err(bad(format!("op {:?} requires a scenario", op.as_str())));
    }
    Ok(Request {
        id,
        op,
        scenario,
        quick,
        deadline_ms,
    })
}

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!(r#""id":{},"#, json_str(id)),
        None => String::new(),
    }
}

/// The payload of a response frame: a served result or a structured error.
#[derive(Debug, Clone)]
pub enum ResponseBody {
    /// A successfully served result document (complete JSON, spliced into
    /// the frame verbatim as the final field).
    Ok {
        /// The operation that produced the result.
        op: Op,
        /// Whether the result came out of the cache without a solve.
        cached: bool,
        /// The rendered result document; shared so cache entries and
        /// coalesced waiters render without copying the payload.
        result: Arc<String>,
    },
    /// A structured error.
    Err(ServiceError),
}

/// A typed response frame: correlation id and body.
///
/// [`Response::render`] produces the wire bytes: `"proto":2` directly
/// after `status`, and `result` as the **last** field, so
/// [`extract_result`] can splice it out.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id echoed from the request, if any.
    pub id: Option<String>,
    /// The response payload.
    pub body: ResponseBody,
}

impl Response {
    /// Build a success response.
    pub fn ok(id: Option<String>, op: Op, cached: bool, result: Arc<String>) -> Self {
        Response {
            id,
            body: ResponseBody::Ok { op, cached, result },
        }
    }

    /// Build an error response.
    pub fn error(id: Option<String>, error: ServiceError) -> Self {
        Response {
            id,
            body: ResponseBody::Err(error),
        }
    }

    /// Render the wire frame (no trailing newline).
    pub fn render(&self) -> String {
        let id = id_field(self.id.as_deref());
        match &self.body {
            ResponseBody::Ok { op, cached, result } => format!(
                r#"{{"status":"ok","proto":{},{}"op":{},"cached":{},"result":{}}}"#,
                PROTO_VERSION,
                id,
                json_str(op.as_str()),
                cached,
                result
            ),
            ResponseBody::Err(error) => format!(
                r#"{{"status":"error","proto":{},{}"error":{{"kind":{},"message":{}}}}}"#,
                PROTO_VERSION,
                id,
                json_str(error.kind.as_str()),
                json_str(&error.message)
            ),
        }
    }
}

/// Build an error response frame (no trailing newline). This is the
/// error shape `gsched validate --json` and `gsched xval --json` reuse.
pub fn error_frame(id: Option<&str>, error: &ServiceError) -> String {
    Response::error(id.map(String::from), error.clone()).render()
}

/// Splice the `result` document back out of an `ok` frame, byte-for-byte.
///
/// Relies on the frame contract that `result` is the final field; returns
/// `None` for error frames or anything else.
pub fn extract_result(frame: &str) -> Option<&str> {
    let frame = frame.trim_end();
    let start = frame.find(r#""result":"#)? + r#""result":"#.len();
    let end = frame.len().checked_sub(1)?;
    if !frame.ends_with('}') || start > end {
        return None;
    }
    Some(&frame[start..end])
}

/// Whether a response frame reports success (`"status":"ok"`).
pub fn frame_is_ok(frame: &str) -> bool {
    serde_json::from_str::<Value>(frame)
        .ok()
        .and_then(|v| v.get("status").and_then(|s| s.as_str().map(String::from)))
        .as_deref()
        == Some("ok")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_solve_request() {
        let req = parse_request(r#"{"scenario":"fig2"}"#).unwrap();
        assert_eq!(req.op, Op::Solve);
        assert!(matches!(req.scenario, Some(ScenarioRef::Name(ref n)) if n == "fig2"));
        assert!(req.id.is_none());
        assert!(!req.quick);
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn proto_field_is_optional_and_only_2() {
        assert!(parse_request(r#"{"proto":2,"scenario":"fig2"}"#).is_ok());
        let err = parse_request(r#"{"proto":1,"scenario":"fig2"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(err.message, "unsupported proto 1 (this server speaks 2)");
        for bad in [
            r#"{"proto":3,"scenario":"fig2"}"#,
            r#"{"proto":0,"scenario":"fig2"}"#,
            r#"{"proto":"2","scenario":"fig2"}"#,
            r#"{"proto":-1,"scenario":"fig2"}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn frames_carry_proto_and_keep_result_last() {
        let result = r#"{"iterations":3}"#;
        let ok = Response::ok(
            Some("r-9".into()),
            Op::Solve,
            false,
            Arc::new(result.to_string()),
        )
        .render();
        assert_eq!(
            ok,
            r#"{"status":"ok","proto":2,"id":"r-9","op":"solve","cached":false,"result":{"iterations":3}}"#
        );
        assert_eq!(extract_result(&ok), Some(result));
        let err =
            Response::error(None, ServiceError::new(ErrorKind::Overloaded, "queue full")).render();
        assert_eq!(
            err,
            r#"{"status":"error","proto":2,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
        assert!(!frame_is_ok(&err));
        assert_eq!(
            err,
            error_frame(
                None,
                &ServiceError::new(ErrorKind::Overloaded, "queue full")
            )
        );
    }

    #[test]
    fn full_request_round_trip() {
        let req = parse_request(
            r#"{"id":"r-1","op":"sweep","scenario":"fig3","quick":true,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(req.id.as_deref(), Some("r-1"));
        assert_eq!(req.op, Op::Sweep);
        assert!(req.quick);
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn stats_needs_no_scenario() {
        let req = parse_request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(req.op, Op::Stats);
        assert!(req.scenario.is_none());
    }

    #[test]
    fn bad_frames_are_rejected() {
        for (line, expect) in [
            ("not json", ErrorKind::BadRequest),
            ("[1,2]", ErrorKind::BadRequest),
            (r#"{"op":"dance"}"#, ErrorKind::BadRequest),
            (r#"{"op":"solve"}"#, ErrorKind::BadRequest),
            (r#"{"scenario":"fig2","zap":1}"#, ErrorKind::BadRequest),
            (
                r#"{"scenario":"fig2","deadline_ms":-3}"#,
                ErrorKind::BadRequest,
            ),
            (r#"{"scenario":{"name":"x"}}"#, ErrorKind::InvalidScenario),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, expect, "{line}");
        }
    }

    #[test]
    fn inline_scenario_is_validated() {
        let sc = gsched_scenario::registry::lookup("fig2").unwrap();
        let frame = format!(r#"{{"scenario":{}}}"#, serde_json::to_string(&sc).unwrap());
        let req = parse_request(&frame).unwrap();
        match req.scenario {
            Some(ScenarioRef::Inline(parsed)) => assert_eq!(parsed.name, "fig2"),
            other => panic!("expected inline scenario, got {other:?}"),
        }
    }

    /// The valid frames the tests above parse.
    fn valid_frames() -> Vec<String> {
        let sc = gsched_scenario::registry::lookup("fig2").unwrap();
        vec![
            r#"{"scenario":"fig2"}"#.to_string(),
            r#"{"proto":2,"scenario":"fig2"}"#.to_string(),
            r#"{"id":"r-1","op":"sweep","scenario":"fig3","quick":true,"deadline_ms":250}"#
                .to_string(),
            r#"{"op":"stats"}"#.to_string(),
            format!(r#"{{"scenario":{}}}"#, serde_json::to_string(&sc).unwrap()),
        ]
    }

    /// Parse `bytes` the way the server does (lossy UTF-8, then
    /// [`parse_request`]). Either the frame is accepted or it is rejected
    /// with a typed error that says why; a panic fails the test.
    fn parse_or_reject(bytes: &[u8]) -> Result<Request, ServiceError> {
        let line = String::from_utf8_lossy(bytes);
        let outcome = std::panic::catch_unwind(|| parse_request(&line))
            .unwrap_or_else(|_| panic!("parse_request panicked on {line:?}"));
        if let Err(e) = &outcome {
            assert!(
                matches!(e.kind, ErrorKind::BadRequest | ErrorKind::InvalidScenario),
                "{line:?}: unexpected kind {:?}",
                e.kind
            );
            assert!(!e.message.is_empty(), "{line:?}: empty message");
        }
        outcome
    }

    #[test]
    fn truncated_and_corrupted_frames_never_panic() {
        for frame in valid_frames() {
            let bytes = frame.as_bytes();
            assert!(parse_or_reject(bytes).is_ok(), "{frame}");
            for end in 0..bytes.len() {
                // Every proper prefix lacks the closing brace.
                assert!(parse_or_reject(&bytes[..end]).is_err(), "{end}");
            }
            for i in 0..bytes.len() {
                let mut deleted = bytes.to_vec();
                deleted.remove(i);
                let _ = parse_or_reject(&deleted);
                for b in [b'"', b'}', b'0', b'-'] {
                    let mut replaced = bytes.to_vec();
                    replaced[i] = b;
                    let _ = parse_or_reject(&replaced);
                }
            }
        }
    }

    /// An inline fig2 sweep frame.
    fn inline_fig2() -> String {
        let sc = gsched_scenario::registry::lookup("fig2").unwrap();
        format!(
            r#"{{"op":"sweep","scenario":{}}}"#,
            serde_json::to_string(&sc).unwrap()
        )
    }

    /// `frame` with the number after the first `key` written as `token`.
    fn with_number(frame: &str, key: &str, token: &str) -> String {
        let start = frame.find(key).unwrap() + key.len();
        let end = start + frame[start..].find([',', '}']).unwrap();
        format!("{}{token}{}", &frame[..start], &frame[end..])
    }

    #[test]
    fn numerically_hostile_inline_scenarios_are_rejected_by_kind() {
        let frame = inline_fig2();
        for dist in ["arrival", "service", "quantum", "switch_overhead"] {
            // Class 0's distribution: the first one of its name.
            let at = frame.find(&format!(r#""{dist}":{{"#)).unwrap();
            for (token, kind) in [
                // JSON has no NaN or infinity token, and a literal past
                // `f64::MAX` is out of range rather than an infinity: all
                // four make the frame invalid JSON ...
                ("NaN", ErrorKind::BadRequest),
                ("Infinity", ErrorKind::BadRequest),
                ("1e999", ErrorKind::BadRequest),
                ("-1e999", ErrorKind::BadRequest),
                // ... while well-formed non-rates fail as scenarios.
                ("null", ErrorKind::InvalidScenario),
                (r#""NaN""#, ErrorKind::InvalidScenario),
                ("-0.4", ErrorKind::InvalidScenario),
                ("0", ErrorKind::InvalidScenario),
                ("-0.0", ErrorKind::InvalidScenario),
            ] {
                let line = format!(
                    "{}{}",
                    &frame[..at],
                    with_number(&frame[at..], r#""rate":"#, token)
                );
                let err = parse_or_reject(line.as_bytes())
                    .expect_err(&format!("{dist} rate {token} accepted"));
                assert_eq!(err.kind, kind, "{dist} rate {token}: {}", err.message);
            }
        }
        // Class 0 has g = 8 on P = 8: partitions that do not fit.
        for (key, token) in [
            (r#""partition_size":"#, "16"),
            (r#""partition_size":"#, "0"),
            (r#""partition_size":"#, "-8"),
            (r#""partition_size":"#, "8.5"),
            (r#""processors":"#, "4"),
            (r#""processors":"#, "0"),
        ] {
            let line = with_number(&frame, key, token);
            let err =
                parse_or_reject(line.as_bytes()).expect_err(&format!("{key}{token} accepted"));
            assert_eq!(err.kind, ErrorKind::InvalidScenario, "{key}{token}");
        }
    }

    #[test]
    fn overloaded_inline_scenarios_parse() {
        // ρ ≥ 1 is a question with an answer (the solver flags the
        // unstable classes), not a malformed frame.
        let frame = inline_fig2();
        for rate in ["1.328125", "10", "4e5"] {
            // Class 0 alone offers ρ_0 = λ_0 / μ_0 ≥ 1.
            let at = frame.find(r#""arrival":{"#).unwrap();
            let line = format!(
                "{}{}",
                &frame[..at],
                with_number(&frame[at..], r#""rate":"#, rate)
            );
            let req = parse_or_reject(line.as_bytes())
                .unwrap_or_else(|e| panic!("arrival rate {rate}: {}", e.message));
            let Some(ScenarioRef::Inline(sc)) = req.scenario else {
                panic!("expected an inline scenario");
            };
            assert!(sc.build_model().unwrap().total_utilization() >= 1.0);
        }
    }

    #[test]
    fn result_extraction_is_exact() {
        let result = r#"{"a":[1,2,{"b":null}],"c":0.30000000000000004}"#;
        let frame = Response::ok(
            Some("x".into()),
            Op::Solve,
            true,
            Arc::new(result.to_string()),
        )
        .render();
        assert!(frame_is_ok(&frame));
        assert_eq!(extract_result(&frame), Some(result));
        assert_eq!(extract_result(&format!("{frame}\n")), Some(result));
    }

    #[test]
    fn error_frames_have_no_result() {
        let frame = error_frame(None, &ServiceError::new(ErrorKind::Cancelled, "gone"));
        assert!(!frame_is_ok(&frame));
        assert_eq!(extract_result(&frame), None);
        let value: Value = serde_json::from_str(&frame).unwrap();
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("cancelled")
        );
    }
}
