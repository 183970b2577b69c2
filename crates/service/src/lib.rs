//! Solve-as-a-service: a cached, concurrent scenario server.
//!
//! `gsched-service` turns the workspace's batch pipeline (scenario →
//! engine → solver) into a long-running server: clients submit
//! [`Scenario`](gsched_scenario::Scenario) requests over TCP and get
//! rendered results back, with repeated questions answered from a sharded
//! LRU cache keyed by the scenario's canonical
//! [content hash](gsched_scenario::hash). The CLI front-ends are
//! `gsched serve` and `gsched request`.
//!
//! Three guarantees shape the design:
//!
//! 1. **Byte identity** — a served result is byte-for-byte identical to
//!    running `gsched solve --json` locally. The [`render`] module is the
//!    single implementation of the result JSON (the CLI re-exports it),
//!    the cache stores rendered text, and the frame layout lets clients
//!    splice result bytes out verbatim ([`protocol::extract_result`]).
//! 2. **Graceful degradation** — malformed frames, unknown scenarios,
//!    solver failures, exceeded deadlines, and even worker panics become
//!    structured error frames on the offending connection; the server
//!    never dies with a request.
//! 3. **Cooperative cancellation** — deadlines and client disconnects
//!    fire an engine [`CancelToken`](gsched_engine::CancelToken), which
//!    the sweep pool polls between points; numerical code is never
//!    unwound from outside.
//!
//! Under concurrent traffic the server additionally **coalesces**
//! identical cache misses onto one in-flight solve (singleflight) and
//! **sheds** load with `overloaded` errors once the bounded queue is
//! full — see [`server`] for the mechanics.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON ("NDJSON") over TCP: one request frame per
//! line, one response frame per line, answered in order. Any tool that
//! can write a line and read a line is a client (`nc` works).
//!
//! The server speaks one protocol version, **2**. A request may name it
//! (`"proto":2`) or leave the field out; any other value is rejected with
//! `bad_request`. Every response carries `"proto":2` right after
//! `status`.
//!
//! ## Request frames
//!
//! ```json
//! {"proto":2,"id":"r-1","op":"solve","scenario":"fig2"}
//! {"op":"sweep","scenario":"fig3","quick":true,"deadline_ms":5000}
//! {"op":"solve","scenario":{"name":"custom","machine":{...},"solver":{...}}}
//! {"proto":2,"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! | field         | type                    | meaning                                            |
//! |---------------|-------------------------|----------------------------------------------------|
//! | `proto`       | integer, optional       | protocol version; only `2` is accepted             |
//! | `id`          | string, optional        | correlation id, echoed in the response             |
//! | `op`          | string, default `solve` | `solve`, `sweep`, `stats`, or `shutdown`           |
//! | `scenario`    | string or object        | registry name, or a full inline scenario document  |
//! | `quick`       | bool, default `false`   | sweep only: use the reduced quick grid             |
//! | `deadline_ms` | integer, optional       | per-request deadline; omitted = server default     |
//!
//! Unknown fields are rejected (`bad_request`) rather than ignored, so
//! typos fail loudly. Inline scenarios are fully validated before any
//! work is queued.
//!
//! ## Response frames
//!
//! Success (`result` is always the **last** field; for `op:"solve"` it is
//! exactly the `gsched solve --json` document):
//!
//! ```json
//! {"status":"ok","proto":2,"id":"r-1","op":"solve","cached":false,"result":{...}}
//! ```
//!
//! Error:
//!
//! ```json
//! {"status":"error","proto":2,"id":"r-1","error":{"kind":"unknown_scenario","message":"..."}}
//! ```
//!
//! Error kinds: `bad_request`, `unknown_scenario`, `invalid_scenario`,
//! `solve_failed`, `validation_failed`, `deadline_exceeded`, `cancelled`,
//! `overloaded`, `shutting_down`, `internal`. The same frame shape is
//! emitted by `gsched validate --json` and `gsched xval --json` on
//! failure (`validation_failed`), so scripted callers parse one error
//! schema everywhere.
//!
//! # Observability
//!
//! The server has one live view, the `stats` verb (the repository's
//! `docs/ARCHITECTURE.md` diagrams the request lifecycle):
//!
//! * **`{"op":"stats"}`** returns the full telemetry report: the flat
//!   counters (`requests`, `errors`, `cache_hits`, `cache_misses`,
//!   `queue_depth`, `shed`, `coalesced`, `uptime_ms`, …) plus
//!   `workers_busy`, `connections`, `cache_hit_ratio`, `queue_wait_ms` /
//!   `solve_ms` histograms, and a per-op `ops` object with lifetime latency
//!   percentiles (p50/p90/p95/p99). Statistics of empty histograms are
//!   `null`, never `NaN`.
//! * **`gsched serve --diag`/`--trace`** record the instrumentation layer
//!   for the server's lifetime. Every request is assigned a trace context:
//!   all spans recorded while serving it — `service.request`,
//!   `service.solve`, the engine's sweep/point spans, and the qbd/core
//!   solver spans below them — carry the same `request_id` (`r-<n>`), and
//!   the Chrome-trace export tags each event with it (`args.request_id`).
//!   The `--diag` snapshot includes `service.requests`,
//!   `service.cache.hits` / `service.cache.misses`, `service.errors`, the
//!   `service.queue.depth` gauge, and the `service.request.latency_ms` /
//!   `service.queue.wait_ms` / `service.solve_ms` histograms, alongside the
//!   usual solver counters — `core.solver.solves` stays flat across cache
//!   hits, which is how the tests pin down that hits never re-solve.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod render;
pub mod server;
mod telemetry;

pub use cache::MemoryLru;
pub use client::Client;
pub use protocol::{
    error_frame, extract_result, frame_is_ok, parse_request, ErrorKind, Op, Request, Response,
    ResponseBody, ScenarioRef, ServiceError, PROTO_VERSION,
};
pub use server::{install_ctrl_c_handler, ServeConfig, ServeConfigBuilder, Server};
