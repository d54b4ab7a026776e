//! The request/response protocol: one JSON object per line.
//!
//! Every request is `{"op": "<verb>", ...}`; every response starts with
//! `"ok"` — `{"ok":true, ...}` on success, `{"ok":false,"error":
//! {"code":..., "message":...}}` on failure. The verb set covers the
//! whole [`sit_core::Session`] façade (phases 1–4) plus service
//! housekeeping (`ping`, `stats`, `shutdown`).
//!
//! | op | class | arguments | success payload |
//! |----|-------|-----------|-----------------|
//! | `ping` | observe | — | `pong` |
//! | `open` | lifecycle | — | `session` |
//! | `close` | lifecycle | `session` | `closed` |
//! | `load` | lifecycle | `script` | `session`, `schemas` |
//! | `save` | read | `session` | `script` |
//! | `add_schema` | write | `session`, `ddl` | `schemas` |
//! | `list_schemas` | read | `session` | `schemas` (objects/relationship counts) |
//! | `render` | read | `session`, `schema` | `text` |
//! | `equiv` | write | `session`, `a`, `b` (`schema.Owner.attr`) | `classes` |
//! | `unequiv` | write | `session`, `a` | `removed` |
//! | `candidates` | read | `session`, `a`, `b` (schema names) | `pairs` |
//! | `rel_candidates` | read | `session`, `a`, `b` | `pairs` |
//! | `assert` | write | `session`, `a`, `b` (`schema.Object`), `assertion` | `derived` |
//! | `rel_assert` | write | `session`, `a`, `b`, `assertion` | `derived` |
//! | `retract` | write | `session`, `a`, `b` | `retracted` |
//! | `rel_retract` | write | `session`, `a`, `b` | `retracted` |
//! | `matrix` | read | `session`, `a`, `b` | `rows`, `cols`, `cells` |
//! | `integrate` | read | `session`, `a`, `b`, `pull_up?`, `mappings?` | `schema`, `objects`, `relationships`, `mappings?` |
//! | `stats` | observe | — | `uptime_ms`, `sessions`, `evicted`, `verbs` |
//! | `metrics_text` | observe | — | `text` (Prometheus exposition; `sit_schema_intern_hits_total`, `sit_schema_intern_misses_total`, `sit_schema_intern_entries`, `sit_schema_intern_bytes` among it) |
//! | `trace_dump` | observe | `limit?` | `events`, `dropped`, `trace` (Chrome JSON) |
//! | `persist_stats` | observe | — | `enabled`, journal/snapshot/recovery counters |
//! | `shutdown` | lifecycle | — | `draining` |
//!
//! A verb's [`Class`] decides how it is served: only `observe` verbs
//! are answered while the server drains, `read` and `write` verbs are
//! dispatched to their session, only `write` frames are logged, and the
//! client retries only `observe` and `read` verbs.
//!
//! Assertion keywords are the session-script spellings
//! ([`sit_core::script::keyword`]): `equals`, `contained-in`, `contains`,
//! `disjoint-integrable`, `may-be-integrable`, `disjoint-non-integrable`.
//!
//! `add_schema` parses its `ddl` through the service's schema table
//! ([`crate::intern::SchemaTable`]): a text any session of the service
//! has registered before is a hit and is not parsed again. The reply is
//! the same either way. `metrics_text` counts the table's hits and
//! misses and shows how many texts it keeps and their charged bytes.
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

use crate::wire::{Json, Value};

/// What a verb does, which decides how the service and the client
/// treat it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Service housekeeping: touches no session, is still served while
    /// the server drains, and is safe to retry.
    Observe,
    /// Creates or drops a session, or stops the server: refused while
    /// draining, never retried.
    Lifecycle,
    /// Reads one session without changing it: dispatched to that
    /// session, never logged, safe to retry.
    Read,
    /// Changes one session: dispatched to that session and logged
    /// before it applies, never retried.
    Write,
}

/// The wire codec of one request field; a field's key is its name.
trait Arg: Sized {
    /// Read the field from a request frame.
    fn decode(frame: &Json, key: &str) -> Result<Self, ServerError>;
    /// Append the field to a frame's pairs.
    fn encode(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>);
}

/// A required string.
impl Arg for String {
    fn decode(frame: &Json, key: &str) -> Result<String, ServerError> {
        frame
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ServerError::bad_request(format!("missing string `{key}`")))
    }

    fn encode(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        pairs.push((key, Json::str(self)));
    }
}

/// A flag; absent means `false`, any other type is a `bad_request`.
impl Arg for bool {
    fn decode(frame: &Json, key: &str) -> Result<bool, ServerError> {
        match frame.get(key) {
            None => Ok(false),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ServerError::bad_request(format!("`{key}` must be a bool"))),
        }
    }

    fn encode(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        pairs.push((key, Json::Bool(*self)));
    }
}

/// A required assertion keyword ([`script::keyword`]).
impl Arg for Assertion {
    fn decode(frame: &Json, key: &str) -> Result<Assertion, ServerError> {
        let kw = String::decode(frame, key)?;
        script::parse_keyword(&kw)
            .ok_or_else(|| ServerError::bad_request(format!("unknown assertion `{kw}`")))
    }

    fn encode(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        pairs.push((key, Json::str(script::keyword(*self))));
    }
}

/// An optional count; `None` is left out of the frame. A present count
/// must be a whole number from 0 to 2^53, the integers a JSON number
/// (an f64) holds exactly.
impl Arg for Option<u64> {
    fn decode(frame: &Json, key: &str) -> Result<Option<u64>, ServerError> {
        const MAX: f64 = (1u64 << 53) as f64;
        let Some(v) = frame.get(key) else {
            return Ok(None);
        };
        match v.as_num() {
            Some(n) if (0.0..=MAX).contains(&n) && n.fract() == 0.0 => Ok(Some(n as u64)),
            _ => Err(ServerError::bad_request(format!(
                "`{key}` must be a whole number from 0 to 2^53"
            ))),
        }
    }

    fn encode(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        if let Some(n) = self {
            pairs.push((key, Json::num(*n)));
        }
    }
}

/// Declares the protocol from one row per verb, in wire order: the
/// verb's doc, its [`Request`] variant, its op string, its [`Class`]
/// and its fields (none makes a unit variant). A field's wire key is
/// its name, its codec its type's [`Arg`] impl, and a field named
/// `session` is the id [`Request::session_id`] returns.
macro_rules! verbs {
    (@session) => { None };
    (@session session $s:ident $($rest:ident)*) => { Some($s.as_str()) };
    (@session $other:ident $o:ident $($rest:ident)*) => { verbs!(@session $($rest)*) };
    ($(
        $(#[$doc:meta])*
        $name:ident = $op:literal, $class:ident $({
            $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
        })?;
    )*) => {
        /// Every protocol verb, in fixture order.
        pub const VERBS: [&str; [$($op),*].len()] = [$($op),*];

        /// One decoded request — the wire image of the
        /// [`sit_core::Session`] façade.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Request {
            $($(#[$doc])* $name $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        impl Request {
            /// The verb string of this request.
            pub fn op(&self) -> &'static str {
                match self {
                    $(Request::$name { .. } => $op,)*
                }
            }

            /// The verb's class.
            pub fn class(&self) -> Class {
                match self {
                    $(Request::$name { .. } => Class::$class,)*
                }
            }

            /// The session id this request addresses, if any.
            #[allow(unused_variables)]
            pub fn session_id(&self) -> Option<&str> {
                match self {
                    $(Request::$name { $($($field,)*)? } => {
                        verbs!(@session $($($field $field)*)?)
                    })*
                }
            }

            /// Decode a request from its parsed JSON frame.
            pub fn from_json(v: &Json) -> Result<Request, ServerError> {
                let op = v
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServerError::bad_request("missing `op`"))?;
                Ok(match op {
                    $($op => Request::$name $({
                        $($field: Arg::decode(v, stringify!($field))?,)*
                    })?,)*
                    other => {
                        return Err(ServerError::bad_request(format!("unknown op `{other}`")));
                    }
                })
            }

            /// Encode to the wire frame the server parses (used by the
            /// client).
            pub fn to_json(&self) -> Json {
                let mut pairs = vec![("op", Json::str(self.op()))];
                match self {
                    $(Request::$name { $($($field,)*)? } => {
                        $($(Arg::encode($field, stringify!($field), &mut pairs);)*)?
                    })*
                }
                Json::obj(pairs)
            }
        }
    };
}

verbs! {
    /// Liveness check.
    Ping = "ping", Observe;
    /// Create a fresh session; responds with its id.
    Open = "open", Lifecycle;
    /// Drop a session.
    Close = "close", Lifecycle {
        /// Session id.
        session: String,
    };
    /// Create a session preloaded from a session script
    /// ([`sit_core::script`]).
    Load = "load", Lifecycle {
        /// Script text (DDL blocks + directives).
        script: String,
    };
    /// Serialize a session back to a script.
    Save = "save", Read {
        /// Session id.
        session: String,
    };
    /// Phase 1: register a component schema from DDL text.
    AddSchema = "add_schema", Write {
        /// Session id.
        session: String,
        /// One or more `schema name { ... }` blocks.
        ddl: String,
    };
    /// List registered schemas with their sizes.
    ListSchemas = "list_schemas", Read {
        /// Session id.
        session: String,
    };
    /// Render one registered schema as text.
    Render = "render", Read {
        /// Session id.
        session: String,
        /// Schema name.
        schema: String,
    };
    /// Phase 2: declare two attributes equivalent
    /// (`schema.Owner.attr` paths).
    Equiv = "equiv", Write {
        /// Session id.
        session: String,
        /// First attribute path.
        a: String,
        /// Second attribute path.
        b: String,
    };
    /// Phase 2: remove an attribute from its equivalence class
    /// (Screen 7 delete).
    Unequiv = "unequiv", Write {
        /// Session id.
        session: String,
        /// Attribute path.
        a: String,
    };
    /// Ranked object-pair candidates between two schemas (by name).
    Candidates = "candidates", Read {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    };
    /// Ranked relationship-pair candidates.
    RelCandidates = "rel_candidates", Read {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    };
    /// Phase 3: assert one of the five relationships between object
    /// classes (`schema.Object` paths); the response carries the derived
    /// facts, a conflict comes back as a `conflict` error.
    Assert = "assert", Write {
        /// Session id.
        session: String,
        /// First object path.
        a: String,
        /// Second object path.
        b: String,
        /// The asserted relationship.
        assertion: Assertion,
    };
    /// Phase 3: assert between relationship sets.
    RelAssert = "rel_assert", Write {
        /// Session id.
        session: String,
        /// First relationship path.
        a: String,
        /// Second relationship path.
        b: String,
        /// The asserted relationship.
        assertion: Assertion,
    };
    /// Retract the latest user assertion for an object pair.
    Retract = "retract", Write {
        /// Session id.
        session: String,
        /// First object path.
        a: String,
        /// Second object path.
        b: String,
    };
    /// Retract the latest user assertion for a relationship pair.
    RelRetract = "rel_retract", Write {
        /// Session id.
        session: String,
        /// First relationship path.
        a: String,
        /// Second relationship path.
        b: String,
    };
    /// The Entity Assertion matrix between two schemas.
    Matrix = "matrix", Read {
        /// Session id.
        session: String,
        /// First schema name.
        a: String,
        /// Second schema name.
        b: String,
    };
    /// Phase 4: integrate two schemas; optionally pull up common
    /// attributes and return the request mappings.
    Integrate = "integrate", Read {
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
    };
    /// Service metrics.
    Stats = "stats", Observe;
    /// Service metrics as Prometheus text exposition.
    MetricsText = "metrics_text", Observe;
    /// The service's retained trace ring as Chrome `trace_event` JSON.
    TraceDump = "trace_dump", Observe {
        /// Keep only the newest `limit` events (default 512, so the
        /// response frame stays well under the wire limits).
        limit: Option<u64>,
    };
    /// Persistence counters (journal, snapshots, recovery); reports
    /// `enabled:false` when the server runs without `--data-dir`.
    PersistStats = "persist_stats", Observe;
    /// Graceful shutdown: drain in-flight requests, then stop.
    Shutdown = "shutdown", Lifecycle;
}

impl Request {
    /// Whether this verb changes the addressed session's state
    /// ([`Class::Write`]) — the verbs whose frames the write-ahead log
    /// records. `integrate` is read-only (it derives an integrated
    /// schema without touching the session); lifecycle verbs are not
    /// in it: `open`/`load` append the session's open record and
    /// `close` its close record.
    pub fn is_mutating(&self) -> bool {
        self.class() == Class::Write
    }

    /// Whether replaying this request after an ambiguous failure is
    /// safe ([`Class::Observe`] and [`Class::Read`]): its server-side
    /// effect is at most a session LRU refresh. Writes (`assert`,
    /// `equiv`, ...) and lifecycle verbs (`open`, `close`, `shutdown`)
    /// could double-apply if the response was lost, so the client must
    /// never retry them automatically.
    pub fn is_idempotent(&self) -> bool {
        matches!(self.class(), Class::Observe | Class::Read)
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

    /// Append the complete response frame:
    /// `{"ok":false,"error":{"code":...,"message":...}}`.
    pub fn write_response(&self, out: &mut String) {
        Value::new(out).object(|frame| {
            frame.field("ok").bool(false);
            frame.field("error").object(|error| {
                error.field("code").str(self.code.as_str());
                error.field("message").str(&self.message);
            });
        });
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
        let mut frame = String::new();
        e.write_response(&mut frame);
        assert_eq!(
            frame,
            r#"{"ok":false,"error":{"code":"unknown_session","message":"no session `9` (closed, evicted, or never opened)"}}"#
        );
    }

    #[test]
    fn optional_fields_default_when_absent_and_bound_when_present() {
        let decode = |frame: &str| Request::from_json(&Json::parse(frame).unwrap());
        let integrate = decode(r#"{"op":"integrate","session":"1","a":"s","b":"t"}"#).unwrap();
        assert!(matches!(
            integrate,
            Request::Integrate {
                pull_up: false,
                mappings: false,
                ..
            }
        ));
        assert_eq!(
            decode(r#"{"op":"trace_dump"}"#).unwrap(),
            Request::TraceDump { limit: None }
        );
        for (n, want) in [("0", 0), ("7", 7), ("9007199254740992", 1 << 53)] {
            let frame = format!(r#"{{"op":"trace_dump","limit":{n}}}"#);
            assert_eq!(
                decode(&frame).unwrap(),
                Request::TraceDump { limit: Some(want) }
            );
        }
        for bad in ["null", "true", "\"1\"", "-1", "0.5", "1e300", "[1]"] {
            let frame = format!(r#"{{"op":"trace_dump","limit":{bad}}}"#);
            let err = decode(&frame).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame}");
            assert!(err.message.starts_with("`limit`"), "{frame}: {err}");
        }
        for bad in ["null", "0", "\"true\"", "{}"] {
            let frame =
                format!(r#"{{"op":"integrate","session":"1","a":"s","b":"t","pull_up":{bad}}}"#);
            let err = decode(&frame).unwrap_err();
            assert_eq!(err.message, "`pull_up` must be a bool", "{frame}");
        }
    }

    /// A frame carrying every field any verb reads.
    fn frame_for(op: &str) -> Json {
        Json::obj(vec![
            ("op", Json::str(op)),
            ("session", Json::str("1")),
            ("script", Json::str("")),
            ("ddl", Json::str("")),
            ("schema", Json::str("s")),
            ("a", Json::str("s.A")),
            ("b", Json::str("t.B")),
            ("assertion", Json::str("equals")),
        ])
    }

    #[test]
    fn the_doc_table_lists_every_verb_with_its_class() {
        let rows: Vec<(&str, &str)> = include_str!("proto.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .map(|row| {
                let (op, rest) = row.split_once("` | ").expect("op column");
                (op, rest.split(" | ").next().expect("class column"))
            })
            .collect();
        let ops: Vec<&str> = rows.iter().map(|(op, _)| *op).collect();
        assert_eq!(ops, VERBS, "doc table ops, in order");
        for (op, class) in rows {
            let req = Request::from_json(&frame_for(op)).unwrap();
            let want = format!("{:?}", req.class()).to_lowercase();
            assert_eq!(class, want, "class of `{op}`");
        }
    }

    #[test]
    fn exactly_reads_writes_and_close_name_a_session() {
        for op in VERBS {
            let req = Request::from_json(&frame_for(op)).unwrap();
            let addressed = matches!(req.class(), Class::Read | Class::Write) || op == "close";
            assert_eq!(req.session_id(), addressed.then_some("1"), "{op}");
        }
    }
}
