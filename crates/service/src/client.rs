//! A minimal blocking client for the solve server.
//!
//! The protocol is plain enough to drive with `nc`, but [`Client`] gives
//! Rust callers (the `gsched request` subcommand, tests, CI smoke checks)
//! a typed connect/request/reply loop plus frame builders that produce
//! canonical request lines.

use crate::protocol::{Op, PROTO_VERSION};
use crate::render::json_str;
use gsched_scenario::Scenario;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Everything about a request other than which scenario it names.
#[derive(Debug, Clone, Default)]
pub struct RequestSpec {
    /// Correlation id echoed back by the server.
    pub id: Option<String>,
    /// Operation; `None` lets the server default (`solve`) apply.
    pub op: Option<Op>,
    /// For sweeps: ask for the reduced quick grid.
    pub quick: bool,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

fn frame(spec: &RequestSpec, scenario_field: Option<String>) -> String {
    let mut fields = vec![format!(r#""proto":{PROTO_VERSION}"#)];
    if let Some(id) = &spec.id {
        fields.push(format!(r#""id":{}"#, json_str(id)));
    }
    if let Some(op) = spec.op {
        fields.push(format!(r#""op":{}"#, json_str(op.as_str())));
    }
    if let Some(scenario) = scenario_field {
        fields.push(format!(r#""scenario":{scenario}"#));
    }
    if spec.quick {
        fields.push(r#""quick":true"#.to_string());
    }
    if let Some(ms) = spec.deadline_ms {
        fields.push(format!(r#""deadline_ms":{ms}"#));
    }
    format!("{{{}}}", fields.join(","))
}

/// A request frame naming a registry scenario.
pub fn frame_for_name(name: &str, spec: &RequestSpec) -> String {
    frame(spec, Some(json_str(name)))
}

/// A request frame carrying a full inline scenario document.
pub fn frame_for_scenario(scenario: &Scenario, spec: &RequestSpec) -> String {
    let value = serde_json::to_value(scenario).expect("scenario serializes");
    frame(
        spec,
        Some(serde_json::to_string(&value).expect("scenario value renders")),
    )
}

/// A scenario-less control frame (`stats` or `shutdown`) honouring the
/// spec's correlation id (`op` must be set).
pub fn control_frame_for(spec: &RequestSpec) -> String {
    frame(spec, None)
}

/// A scenario-less control frame (`stats` or `shutdown`).
pub fn control_frame(op: Op, id: Option<&str>) -> String {
    control_frame_for(&RequestSpec {
        id: id.map(String::from),
        op: Some(op),
        ..RequestSpec::default()
    })
}

/// A blocking newline-delimited JSON client over one TCP connection.
///
/// Requests are answered in order, so the connection can be reused for
/// any number of frames.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running server, e.g. `127.0.0.1:7070`.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Send one request frame (a full JSON document, no newline) and read
    /// the matching response frame, returned without its newline.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_frames_are_canonical() {
        assert_eq!(
            frame_for_name("fig2", &RequestSpec::default()),
            r#"{"proto":2,"scenario":"fig2"}"#
        );
        let spec = RequestSpec {
            id: Some("r-1".to_string()),
            op: Some(Op::Sweep),
            quick: true,
            deadline_ms: Some(500),
        };
        assert_eq!(
            frame_for_name("fig3", &spec),
            r#"{"proto":2,"id":"r-1","op":"sweep","scenario":"fig3","quick":true,"deadline_ms":500}"#
        );
    }

    #[test]
    fn control_frames_omit_scenario() {
        assert_eq!(
            control_frame(Op::Stats, None),
            r#"{"proto":2,"op":"stats"}"#
        );
        assert_eq!(
            control_frame(Op::Shutdown, Some("bye")),
            r#"{"proto":2,"id":"bye","op":"shutdown"}"#
        );
        let spec = RequestSpec {
            id: Some("s".to_string()),
            op: Some(Op::Stats),
            ..RequestSpec::default()
        };
        assert_eq!(
            control_frame_for(&spec),
            r#"{"proto":2,"id":"s","op":"stats"}"#
        );
    }

    #[test]
    fn inline_frames_parse_back() {
        let sc = gsched_scenario::registry::lookup("fig2").unwrap();
        let line = frame_for_scenario(&sc, &RequestSpec::default());
        let req = crate::protocol::parse_request(&line).unwrap();
        match req.scenario {
            Some(crate::protocol::ScenarioRef::Inline(parsed)) => {
                assert_eq!(parsed.content_hash(), sc.content_hash());
            }
            other => panic!("expected inline, got {other:?}"),
        }
    }
}
