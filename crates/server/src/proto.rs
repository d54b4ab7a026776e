//! The request/response protocol: one JSON object per line.
//!
//! Every request is `{"op": "<verb>", ...}`; every response starts with
//! `"ok"` — `{"ok":true, ...}` on success, `{"ok":false,"error":
//! {"code":..., "message":...}}` on failure. The verb set covers the
//! whole [`sit_core::Session`] façade (phases 1–4) plus service
//! housekeeping (`ping`, `stats`, `shutdown`).
//!
//! | op | arguments | success payload |
//! |----|-----------|-----------------|
//! | `ping` | — | `pong` |
//! | `open` | — | `session` |
//! | `close` | `session` | `closed` |
//! | `load` | `script` | `session`, `schemas` |
//! | `save` | `session` | `script` |
//! | `add_schema` | `session`, `ddl` | `schemas` |
//! | `list_schemas` | `session` | `schemas` (objects/relationship counts) |
//! | `render` | `session`, `schema` | `text` |
//! | `equiv` | `session`, `a`, `b` (`schema.Owner.attr`) | `classes` |
//! | `unequiv` | `session`, `a` | `removed` |
//! | `candidates` | `session`, `a`, `b` (schema names) | `pairs` |
//! | `rel_candidates` | `session`, `a`, `b` | `pairs` |
//! | `assert` | `session`, `a`, `b` (`schema.Object`), `assertion` | `derived` |
//! | `rel_assert` | `session`, `a`, `b`, `assertion` | `derived` |
//! | `retract` | `session`, `a`, `b` | `retracted` |
//! | `rel_retract` | `session`, `a`, `b` | `retracted` |
//! | `matrix` | `session`, `a`, `b` | `rows`, `cols`, `cells` |
//! | `integrate` | `session`, `a`, `b`, `pull_up?`, `mappings?` | `schema`, `objects`, `relationships`, `mappings?` |
//! | `stats` | — | `uptime_ms`, `sessions`, `evicted`, `verbs` |
//! | `metrics_text` | — | `text` (Prometheus exposition) |
//! | `trace_dump` | `limit?` | `events`, `dropped`, `trace` (Chrome JSON) |
//! | `persist_stats` | — | `enabled`, journal/snapshot/recovery counters |
//! | `shutdown` | — | `draining` |
//!
//! Assertion keywords are the session-script spellings
//! ([`sit_core::script::keyword`]): `equals`, `contained-in`, `contains`,
//! `disjoint-integrable`, `may-be-integrable`, `disjoint-non-integrable`.
//!
//! A session holds at most [`sit_core::session::Session::MAX_OBJECTS`]
//! object classes and [`sit_core::session::Session::MAX_RELATIONSHIPS`]
//! relationship sets; an `add_schema` or `load` whose schema would exceed
//! either fails with `bad_request` and leaves that schema unregistered.
//!
//! Any request may additionally carry a `trace_id` string. It is not
//! part of the decoded [`Request`] (unknown keys are ignored); the
//! service reads it off the frame and attaches it to the request's
//! trace span, so a client can find its own requests in a
//! `trace_dump`.

use std::fmt;

use sit_core::assertion::Assertion;
use sit_core::error::CoreError;
use sit_core::script;

use crate::wire::Json;

/// Every protocol verb, in fixture order.
pub const VERBS: [&str; 23] = [
    "ping",
    "open",
    "close",
    "load",
    "save",
    "add_schema",
    "list_schemas",
    "render",
    "equiv",
    "unequiv",
    "candidates",
    "rel_candidates",
    "assert",
    "rel_assert",
    "retract",
    "rel_retract",
    "matrix",
    "integrate",
    "stats",
    "metrics_text",
    "trace_dump",
    "persist_stats",
    "shutdown",
];

/// One decoded request — the wire image of the [`sit_core::Session`]
/// façade.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Create a fresh session; responds with its id.
    Open,
    /// Drop a session.
    Close {
        /// Session id.
        session: String,
    },
    /// Create a session preloaded from a session script
    /// ([`sit_core::script`]).
    Load {
        /// Script text (DDL blocks + directives).
        script: String,
    },
    /// Serialize a session back to a script.
    Save {
        /// Session id.
        session: String,
    },
    /// Phase 1: register a component schema from DDL text.
    AddSchema {
        /// Session id.
        session: String,
        /// One or more `schema name { ... }` blocks.
        ddl: String,
    },
    /// List registered schemas with their sizes.
    ListSchemas {
        /// Session id.
        session: String,
    },
    /// Render one registered schema as text.
    Render {
        /// Session id.
        session: String,
        /// Schema name.
        schema: String,
    },
    /// Phase 2: declare two attributes equivalent
    /// (`schema.Owner.attr` paths).
    Equiv {
        /// Session id.
        session: String,
        /// First attribute path.
        a: String,
        /// Second attribute path.
        b: String,
    },
    /// Phase 2: remove an attribute from its equivalence class
    /// (Screen 7 delete).
    Unequiv {
        /// Session id.
        session: String,
        /// Attribute path.
        a: String,
    },
    /// Ranked object-pair candidates between two schemas (by name).
    Candidates {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    },
    /// Ranked relationship-pair candidates.
    RelCandidates {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    },
    /// Phase 3: assert one of the five relationships between object
    /// classes (`schema.Object` paths); the response carries the derived
    /// facts, a conflict comes back as a `conflict` error.
    Assert {
        /// Session id.
        session: String,
        /// First object path.
        a: String,
        /// Second object path.
        b: String,
        /// The asserted relationship.
        assertion: Assertion,
    },
    /// Phase 3: assert between relationship sets.
    RelAssert {
        /// Session id.
        session: String,
        /// First relationship path.
        a: String,
        /// Second relationship path.
        b: String,
        /// The asserted relationship.
        assertion: Assertion,
    },
    /// Retract the latest user assertion for an object pair.
    Retract {
        /// Session id.
        session: String,
        /// First object path.
        a: String,
        /// Second object path.
        b: String,
    },
    /// Retract the latest user assertion for a relationship pair.
    RelRetract {
        /// Session id.
        session: String,
        /// First relationship path.
        a: String,
        /// Second relationship path.
        b: String,
    },
    /// The Entity Assertion matrix between two schemas.
    Matrix {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    },
    /// Phase 4: integrate two schemas; optionally pull up common
    /// attributes and return the request mappings.
    Integrate {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
        /// Generalization option: pull common attributes up.
        pull_up: bool,
        /// Also return the mapping description.
        mappings: bool,
    },
    /// Service metrics.
    Stats,
    /// Service metrics as Prometheus text exposition.
    MetricsText,
    /// The service's retained trace ring as Chrome `trace_event` JSON.
    TraceDump {
        /// Keep only the newest `limit` events (default 512, so the
        /// response frame stays well under the wire limits).
        limit: Option<u64>,
    },
    /// Persistence counters (journal, snapshots, recovery); reports
    /// `enabled:false` when the server runs without `--data-dir`.
    PersistStats,
    /// Graceful shutdown: drain in-flight requests, then stop.
    Shutdown,
}

impl Request {
    /// The verb string of this request.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Open => "open",
            Request::Close { .. } => "close",
            Request::Load { .. } => "load",
            Request::Save { .. } => "save",
            Request::AddSchema { .. } => "add_schema",
            Request::ListSchemas { .. } => "list_schemas",
            Request::Render { .. } => "render",
            Request::Equiv { .. } => "equiv",
            Request::Unequiv { .. } => "unequiv",
            Request::Candidates { .. } => "candidates",
            Request::RelCandidates { .. } => "rel_candidates",
            Request::Assert { .. } => "assert",
            Request::RelAssert { .. } => "rel_assert",
            Request::Retract { .. } => "retract",
            Request::RelRetract { .. } => "rel_retract",
            Request::Matrix { .. } => "matrix",
            Request::Integrate { .. } => "integrate",
            Request::Stats => "stats",
            Request::MetricsText => "metrics_text",
            Request::TraceDump { .. } => "trace_dump",
            Request::PersistStats => "persist_stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// The session id this request addresses, if any.
    pub fn session_id(&self) -> Option<&str> {
        match self {
            Request::Close { session }
            | Request::Save { session }
            | Request::AddSchema { session, .. }
            | Request::ListSchemas { session }
            | Request::Render { session, .. }
            | Request::Equiv { session, .. }
            | Request::Unequiv { session, .. }
            | Request::Candidates { session, .. }
            | Request::RelCandidates { session, .. }
            | Request::Assert { session, .. }
            | Request::RelAssert { session, .. }
            | Request::Retract { session, .. }
            | Request::RelRetract { session, .. }
            | Request::Matrix { session, .. }
            | Request::Integrate { session, .. } => Some(session),
            _ => None,
        }
    }

    /// Whether this verb changes the addressed session's state — the
    /// verbs whose frames the write-ahead log records. `integrate` is
    /// read-only (it derives an integrated schema without touching the
    /// session); lifecycle verbs are not in it: `open`/`load` append the
    /// session's open record and `close` its close record.
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Request::AddSchema { .. }
                | Request::Equiv { .. }
                | Request::Unequiv { .. }
                | Request::Assert { .. }
                | Request::RelAssert { .. }
                | Request::Retract { .. }
                | Request::RelRetract { .. }
        )
    }

    /// Whether replaying this request after an ambiguous failure is
    /// safe. True only for verbs whose server-side effect is at most a
    /// session LRU refresh (reads, `ping`, `stats`, `save` — writing
    /// the same bytes twice is harmless). Mutations (`open`, `assert`,
    /// `integrate`, ...) and lifecycle verbs (`close`, `shutdown`)
    /// could double-apply if the response was lost, so the client must
    /// never retry them automatically.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Stats
                | Request::MetricsText
                | Request::TraceDump { .. }
                | Request::PersistStats
                | Request::Save { .. }
                | Request::ListSchemas { .. }
                | Request::Render { .. }
                | Request::Candidates { .. }
                | Request::RelCandidates { .. }
                | Request::Matrix { .. }
        )
    }

    /// Decode a request from its parsed JSON frame.
    pub fn from_json(v: &Json) -> Result<Request, ServerError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServerError::bad_request("missing `op`"))?;
        let s = |key: &str| -> Result<String, ServerError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ServerError::bad_request(format!("missing string `{key}`")))
        };
        let flag = |key: &str| v.get(key).and_then(Json::as_bool).unwrap_or(false);
        let assertion = || -> Result<Assertion, ServerError> {
            let kw = s("assertion")?;
            script::parse_keyword(&kw)
                .ok_or_else(|| ServerError::bad_request(format!("unknown assertion `{kw}`")))
        };
        Ok(match op {
            "ping" => Request::Ping,
            "open" => Request::Open,
            "close" => Request::Close {
                session: s("session")?,
            },
            "load" => Request::Load {
                script: s("script")?,
            },
            "save" => Request::Save {
                session: s("session")?,
            },
            "add_schema" => Request::AddSchema {
                session: s("session")?,
                ddl: s("ddl")?,
            },
            "list_schemas" => Request::ListSchemas {
                session: s("session")?,
            },
            "render" => Request::Render {
                session: s("session")?,
                schema: s("schema")?,
            },
            "equiv" => Request::Equiv {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "unequiv" => Request::Unequiv {
                session: s("session")?,
                a: s("a")?,
            },
            "candidates" => Request::Candidates {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "rel_candidates" => Request::RelCandidates {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "assert" => Request::Assert {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
                assertion: assertion()?,
            },
            "rel_assert" => Request::RelAssert {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
                assertion: assertion()?,
            },
            "retract" => Request::Retract {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "rel_retract" => Request::RelRetract {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "matrix" => Request::Matrix {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
            },
            "integrate" => Request::Integrate {
                session: s("session")?,
                a: s("a")?,
                b: s("b")?,
                pull_up: flag("pull_up"),
                mappings: flag("mappings"),
            },
            "stats" => Request::Stats,
            "metrics_text" => Request::MetricsText,
            "trace_dump" => Request::TraceDump {
                limit: v.get("limit").and_then(Json::as_num).map(|n| n as u64),
            },
            "persist_stats" => Request::PersistStats,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(ServerError::bad_request(format!("unknown op `{other}`")));
            }
        })
    }

    /// Encode to the wire frame the server parses (used by the client).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("op", Json::str(self.op()))];
        let mut push = |k: &'static str, v: &str| pairs.push((k, Json::str(v)));
        match self {
            Request::Ping
            | Request::Open
            | Request::Stats
            | Request::MetricsText
            | Request::PersistStats
            | Request::Shutdown => {}
            Request::TraceDump { limit } => {
                if let Some(limit) = limit {
                    pairs.push(("limit", Json::num(*limit)));
                }
            }
            Request::Close { session }
            | Request::Save { session }
            | Request::ListSchemas { session } => push("session", session),
            Request::Load { script } => push("script", script),
            Request::AddSchema { session, ddl } => {
                push("session", session);
                push("ddl", ddl);
            }
            Request::Render { session, schema } => {
                push("session", session);
                push("schema", schema);
            }
            Request::Equiv { session, a, b }
            | Request::Candidates { session, a, b }
            | Request::RelCandidates { session, a, b }
            | Request::Retract { session, a, b }
            | Request::RelRetract { session, a, b }
            | Request::Matrix { session, a, b } => {
                push("session", session);
                push("a", a);
                push("b", b);
            }
            Request::Unequiv { session, a } => {
                push("session", session);
                push("a", a);
            }
            Request::Assert {
                session,
                a,
                b,
                assertion,
            }
            | Request::RelAssert {
                session,
                a,
                b,
                assertion,
            } => {
                push("session", session);
                push("a", a);
                push("b", b);
                push("assertion", script::keyword(*assertion));
            }
            Request::Integrate {
                session,
                a,
                b,
                pull_up,
                mappings,
            } => {
                push("session", session);
                push("a", a);
                push("b", b);
                pairs.push(("pull_up", Json::Bool(*pull_up)));
                pairs.push(("mappings", Json::Bool(*mappings)));
            }
        }
        Json::obj(pairs)
    }
}

/// Error codes a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON (or exceeded limits).
    Parse,
    /// The frame was JSON but not a valid request.
    BadRequest,
    /// The session id names no live session (never opened, closed, or
    /// evicted).
    UnknownSession,
    /// An assertion contradicted the derived closure; the message carries
    /// the conflict report.
    Conflict,
    /// Any other engine error ([`CoreError`]).
    Core,
    /// Every execution slot and queue place is taken — retry later.
    Overloaded,
    /// The server is draining; no new requests are accepted.
    ShuttingDown,
    /// The durability layer failed: the mutation was not journaled and
    /// was not applied.
    Persist,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::Conflict => "conflict",
            ErrorCode::Core => "core",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Persist => "persist",
        }
    }
}

/// A typed failure; encodes as `{"ok":false,"error":{...}}`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServerError {
    /// A `bad_request` error.
    pub fn bad_request(msg: impl Into<String>) -> ServerError {
        ServerError {
            code: ErrorCode::BadRequest,
            message: msg.into(),
        }
    }

    /// An `unknown_session` error.
    pub fn unknown_session(id: &str) -> ServerError {
        ServerError {
            code: ErrorCode::UnknownSession,
            message: format!("no session `{id}` (closed, evicted, or never opened)"),
        }
    }

    /// The `overloaded` backpressure error.
    pub fn overloaded() -> ServerError {
        ServerError {
            code: ErrorCode::Overloaded,
            message: "request queue full; retry later".into(),
        }
    }

    /// The drain-mode rejection.
    pub fn shutting_down() -> ServerError {
        ServerError {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        }
    }

    /// Encode as a complete response frame.
    pub fn to_response(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![
                    ("code", Json::str(self.code.as_str())),
                    ("message", Json::str(&self.message)),
                ]),
            ),
        ])
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServerError {}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> ServerError {
        let code = match &e {
            CoreError::Conflict(_) => ErrorCode::Conflict,
            CoreError::SessionFull { .. } => ErrorCode::BadRequest,
            _ => ErrorCode::Core,
        };
        ServerError {
            code,
            message: e.to_string(),
        }
    }
}

/// Build a success response: `ok:true` first, then the payload pairs.
pub fn ok_response(pairs: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(pairs);
    Json::obj(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Ping,
            Request::Open,
            Request::Close {
                session: "1".into(),
            },
            Request::Load {
                script: "# sit session v1\n".into(),
            },
            Request::Save {
                session: "1".into(),
            },
            Request::AddSchema {
                session: "1".into(),
                ddl: "schema s { entity E { x: int key; } }".into(),
            },
            Request::ListSchemas {
                session: "1".into(),
            },
            Request::Render {
                session: "1".into(),
                schema: "s".into(),
            },
            Request::Equiv {
                session: "1".into(),
                a: "s.E.x".into(),
                b: "t.F.y".into(),
            },
            Request::Unequiv {
                session: "1".into(),
                a: "s.E.x".into(),
            },
            Request::Candidates {
                session: "1".into(),
                a: "s".into(),
                b: "t".into(),
            },
            Request::RelCandidates {
                session: "1".into(),
                a: "s".into(),
                b: "t".into(),
            },
            Request::Assert {
                session: "1".into(),
                a: "s.E".into(),
                b: "t.F".into(),
                assertion: Assertion::Equal,
            },
            Request::RelAssert {
                session: "1".into(),
                a: "s.R".into(),
                b: "t.S".into(),
                assertion: Assertion::ContainedIn,
            },
            Request::Retract {
                session: "1".into(),
                a: "s.E".into(),
                b: "t.F".into(),
            },
            Request::RelRetract {
                session: "1".into(),
                a: "s.R".into(),
                b: "t.S".into(),
            },
            Request::Matrix {
                session: "1".into(),
                a: "s".into(),
                b: "t".into(),
            },
            Request::Integrate {
                session: "1".into(),
                a: "s".into(),
                b: "t".into(),
                pull_up: true,
                mappings: true,
            },
            Request::Stats,
            Request::MetricsText,
            Request::TraceDump { limit: Some(64) },
            Request::PersistStats,
            Request::Shutdown,
        ];
        assert_eq!(reqs.len(), VERBS.len(), "one request per verb");
        for req in reqs {
            let encoded = req.to_json().encode();
            let back = Request::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, req, "{encoded}");
        }
    }

    #[test]
    fn bad_requests_are_typed() {
        for frame in [
            r#"{"no_op":1}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"close"}"#,
            r#"{"op":"assert","session":"1","a":"x.A","b":"y.B","assertion":"sorta"}"#,
        ] {
            let v = Json::parse(frame).unwrap();
            let err = Request::from_json(&v).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame}");
        }
    }

    #[test]
    fn error_response_shape() {
        let e = ServerError::unknown_session("9");
        let r = e.to_response();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let code = r
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some("unknown_session"));
    }
}
