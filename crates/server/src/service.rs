//! Request dispatch: one [`Service`] turns request frames into response
//! frames against a shared [`SessionStore`].
//!
//! The service is transport-agnostic — the TCP server, the stdio server,
//! and the in-process tests all call [`Service::handle_line`]. It never
//! panics on malformed input: bad JSON, bad requests, unknown sessions,
//! engine conflicts, and drain-mode rejections all come back as typed
//! error frames.
//!
//! Every request runs under a `request` span on the service's
//! [`Tracer`] with `parse`/`dispatch`/`encode` children (and, through
//! the scoped current tracer, whatever engine spans the dispatched
//! verb emits — `ocs.*`, `closure.assert`, `integrate`, ...). A
//! client-supplied `trace_id` on the frame is attached to the request
//! span. All timing — spans, latency metrics, `stats` uptime, session
//! TTLs, the log — reads one injected [`Clock`], so a service built over
//! a hand-advanced clock ([`Service::with_clock`]) produces
//! byte-deterministic timing fields and expiries under deterministic
//! schedules; this is what lets the chaos suite keep `stats` in
//! byte-traced workloads and expire sessions without sleeping.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sit_core::assertion::Assertion;
use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_core::script;
use sit_core::session::Session;
use sit_core::{Element, GObj, GRel};
use sit_ecr::render;
use sit_obs::clock::{Clock, MonotonicClock};
use sit_obs::metrics::prom_counter;
use sit_obs::sync::lock_recover;
use sit_obs::trace::{self, Tracer};

use crate::intern::SchemaTable;
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, Persistence, SEGMENT_BYTES};
use crate::proto::{Class, Request, ServerError};
use crate::storage::Storage;
use crate::store::{SessionStore, StoreConfig};
use crate::wire::{Array, Json, Object, Value};

/// Finished trace events the service retains (oldest overwritten).
pub const TRACE_CAPACITY: usize = 8_192;

/// Newest events a `trace_dump` response carries when the request
/// names no `limit` — sized so the frame stays far below the 1 MiB
/// wire ceiling.
pub const TRACE_DUMP_DEFAULT_LIMIT: usize = 512;

/// The capacity [`Service::handle_line`] gives a reply frame: most
/// replies fit, so writing one does not grow it.
const REPLY_CAPACITY: usize = 1024;

/// A handled frame: the response line plus whether the request asked the
/// server to shut down.
pub struct Handled {
    /// The encoded response (no trailing newline).
    pub frame: String,
    /// `true` exactly for a successful `shutdown` request.
    pub shutdown: bool,
}

/// Shared per-server state behind every connection.
pub struct Service {
    store: SessionStore,
    schemas: SchemaTable,
    metrics: Metrics,
    tracer: Tracer,
    clock: Arc<dyn Clock>,
    persist: Option<Arc<Persistence>>,
    draining: AtomicBool,
    shutdown_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Service {
    /// Service over a fresh store, timed by wall-clock time.
    pub fn new(store_config: StoreConfig) -> Service {
        Service::with_clock(store_config, Arc::new(MonotonicClock::new()))
    }

    /// Service whose spans, latencies, uptime and session TTLs all read
    /// `clock` — inject a [`sit_obs::clock::ManualClock`], shared with
    /// the fault layer's delays, for deterministic timing fields and
    /// expiries under chaos schedules.
    pub fn with_clock(store_config: StoreConfig, clock: Arc<dyn Clock>) -> Service {
        Service {
            store: SessionStore::new(store_config, Arc::clone(&clock)),
            schemas: SchemaTable::new(),
            metrics: Metrics::with_clock(Arc::clone(&clock)),
            tracer: Tracer::new(Arc::clone(&clock), TRACE_CAPACITY),
            clock,
            persist: None,
            draining: AtomicBool::new(false),
            shutdown_hook: Mutex::new(None),
        }
    }

    /// Durable service: recover every session found in `storage`, pin
    /// them back to their logged ids, and log all future sessions and
    /// mutations per `persist_config`. Errors only on storage failures
    /// recovery cannot work around and on a data directory of an older
    /// layout (corrupt *records* never error — they are skipped and
    /// counted in the metrics).
    pub fn with_persistence(
        store_config: StoreConfig,
        clock: Arc<dyn Clock>,
        storage: Arc<dyn Storage>,
        persist_config: PersistConfig,
    ) -> io::Result<Service> {
        Service::with_segmented_persistence(
            store_config,
            clock,
            storage,
            persist_config,
            SEGMENT_BYTES,
        )
    }

    /// [`Service::with_persistence`] with log segments sealed at
    /// `segment_bytes` (see [`Persistence::open`]).
    pub fn with_segmented_persistence(
        store_config: StoreConfig,
        clock: Arc<dyn Clock>,
        storage: Arc<dyn Storage>,
        persist_config: PersistConfig,
        segment_bytes: u64,
    ) -> io::Result<Service> {
        let mut service = Service::with_clock(store_config, Arc::clone(&clock));
        let (persistence, recovery) = {
            // Recovery spans land on this service's tracer.
            let _current = trace::set_current(&service.tracer);
            Persistence::open(
                storage,
                persist_config,
                clock,
                segment_bytes,
                &service.schemas,
            )?
        };
        service.store.reserve_through(recovery.highest_id);
        for (id, session) in recovery.sessions {
            service.store.insert(id, session);
        }
        service.persist = Some(Arc::new(persistence));
        Ok(service)
    }

    /// The persistence engine, when the service runs durable.
    pub fn persistence(&self) -> Option<&Arc<Persistence>> {
        self.persist.as_ref()
    }

    /// The service's trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The clock every timing field reads.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Register a callback fired once when a `shutdown` request is
    /// accepted (the TCP server uses it to unblock its accept loop).
    pub fn set_shutdown_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *lock_recover(&self.shutdown_hook) = Some(hook);
    }

    /// Has a shutdown been requested?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Trigger drain mode directly (ctrl-channel shutdown, as opposed to
    /// the wire verb).
    pub fn begin_shutdown(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            if let Some(hook) = lock_recover(&self.shutdown_hook).as_ref() {
                hook();
            }
        }
    }

    /// The session store (tests/diagnostics).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The schema table every `add_schema`, live or replayed, parses
    /// through.
    pub fn schemas(&self) -> &SchemaTable {
        &self.schemas
    }

    /// Handle one request line; always produces exactly one response
    /// frame.
    pub fn handle_line(&self, line: &str) -> Handled {
        let mut frame = String::with_capacity(REPLY_CAPACITY);
        let shutdown = self.handle_into(line, &mut frame);
        Handled { frame, shutdown }
    }

    /// [`Service::handle_line`] into a caller's buffer: append the one
    /// response frame (no newline) to `out`, and return whether the
    /// request was an accepted `shutdown`. A serving loop keeps one
    /// buffer for all the replies of its connection.
    pub fn handle_into(&self, line: &str, out: &mut String) -> bool {
        // Install this service's tracer for the scope, so engine code
        // reached from dispatch attaches its spans here. The request
        // span drops (and records) after its children — including the
        // encode span opened inside `finish`.
        let _current = trace::set_current(&self.tracer);
        let mut req_span = self.tracer.span("request");
        let started_ns = self.clock.now_ns();
        let start = out.len();
        let trimmed = line.trim();
        let parsed = {
            let _parse = self.tracer.span("parse");
            Json::parse(trimmed)
        };
        let value = match parsed {
            Err(e) => {
                let err = ServerError {
                    code: crate::proto::ErrorCode::Parse,
                    message: e.to_string(),
                };
                req_span.set_arg("op", "_parse");
                self.finish("_parse", started_ns, Err(err), out, start);
                return false;
            }
            Ok(v) => v,
        };
        if let Some(trace_id) = value.get("trace_id").and_then(Json::as_str) {
            req_span.set_arg("trace_id", trace_id);
        }
        let request = match Request::from_json(&value) {
            Err(e) => {
                req_span.set_arg("op", "_invalid");
                self.finish("_invalid", started_ns, Err(e), out, start);
                return false;
            }
            Ok(r) => r,
        };
        let op = request.op();
        req_span.set_arg("op", op);
        if self.is_draining() && request.class() != Class::Observe {
            let refused = Err(ServerError::shutting_down());
            self.finish(op, started_ns, refused, out, start);
            return false;
        }
        let shutdown = matches!(request, Request::Shutdown);
        let result = {
            let _dispatch = self.tracer.span("dispatch");
            self.dispatch(request, trimmed, out)
        };
        let shutdown = shutdown && result.is_ok();
        if shutdown {
            self.begin_shutdown();
        }
        self.finish(op, started_ns, result, out, start);
        shutdown
    }

    /// Count the request, then finish its frame, which `out` holds from
    /// `start` on: a failed verb's reply, whatever of it was written,
    /// gives way to its error frame.
    fn finish(
        &self,
        op: &'static str,
        started_ns: u64,
        result: Result<(), ServerError>,
        out: &mut String,
        start: usize,
    ) {
        let latency = self.clock.now_ns().saturating_sub(started_ns);
        self.metrics.record(op, latency, result.is_err());
        let _encode = self.tracer.span("encode");
        if let Err(e) = result {
            out.truncate(start);
            e.write_response(out);
        }
    }

    /// Answer `request`, writing its reply into `out`.
    fn dispatch(&self, request: Request, raw: &str, out: &mut String) -> Result<(), ServerError> {
        // Reads and writes of one session share one path: resolve,
        // journal if a write, apply.
        if matches!(request.class(), Class::Read | Class::Write) {
            return self.dispatch_session(&request, raw, out);
        }
        match request {
            Request::Ping => ok(out, |r| r.field("pong").bool(true)),
            Request::Open => {
                let id = self.open(Session::new(), None)?;
                ok(out, |r| r.field("session").display(id));
            }
            Request::Close { session } => {
                let entry = self.store.remove(&session);
                if let (Some(p), Ok(key)) = (&self.persist, session.parse::<u64>()) {
                    // Wait out a request in flight, so its record and
                    // snapshot land before the close record; any later
                    // append finds the session closed in the log.
                    let _in_flight = entry.as_ref().map(|s| lock_recover(s));
                    // An acknowledged close means the session does not
                    // resurrect on restart, evicted or not.
                    p.close_session(key)?;
                }
                ok(out, |r| r.field("closed").bool(entry.is_some()));
            }
            Request::Load { script } => {
                let session = script::load(&script)?;
                let names: Vec<String> = session
                    .catalog()
                    .schemas()
                    .map(|(_, sch)| sch.name().to_owned())
                    .collect();
                // The frame as received rides in the session's open
                // record; replay re-runs `script::load` on it.
                let id = self.open(session, Some(raw))?;
                ok(out, |r| {
                    r.field("session").display(id);
                    r.field("schemas")
                        .array(|a| names.iter().for_each(|name| a.item().str(name)));
                });
            }
            Request::Stats => {
                let (lru, ttl) = self.store.evictions();
                ok(out, |r| {
                    r.field("uptime_ms").num(self.metrics.uptime_ms());
                    r.field("sessions").num(self.store.len() as u64);
                    r.field("evicted_lru").num(lru);
                    r.field("evicted_ttl").num(ttl);
                    r.field("verbs").object(|verbs| {
                        for (op, s) in self.metrics.summaries() {
                            verbs.field(op).object(|v| {
                                v.field("count").num(s.count);
                                v.field("errors").num(s.errors);
                                v.field("min_ns").num(s.min_ns);
                                v.field("median_ns").num(s.median_ns);
                                v.field("p95_ns").num(s.p95_ns);
                            });
                        }
                    });
                });
            }
            Request::MetricsText => {
                let text = self.metrics_text();
                ok(out, |r| r.field("text").str(&text));
            }
            Request::TraceDump { limit } => {
                let limit = limit
                    .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
                    .unwrap_or(TRACE_DUMP_DEFAULT_LIMIT)
                    .min(TRACE_CAPACITY);
                let mut events = self.tracer.snapshot();
                let truncated = events.len().saturating_sub(limit);
                if truncated > 0 {
                    events.drain(..truncated);
                }
                ok(out, |r| {
                    r.field("events").num(events.len() as u64);
                    r.field("dropped")
                        .num(self.tracer.dropped() + truncated as u64);
                    r.field("trace").str(&trace::chrome_json(&events));
                });
            }
            Request::PersistStats => match &self.persist {
                None => ok(out, |r| r.field("enabled").bool(false)),
                Some(p) => {
                    let m = p.metrics();
                    ok(out, |r| {
                        r.field("enabled").bool(true);
                        r.field("fsync").display(p.config().fsync);
                        r.field("snapshot_every").num(p.config().snapshot_every);
                        for (key, counter) in [
                            ("journal_records", &m.journal_records),
                            ("journal_bytes", &m.journal_bytes),
                            ("fsyncs", &m.fsyncs),
                            ("snapshots", &m.snapshots),
                            ("compactions", &m.compactions),
                            ("errors", &m.errors),
                            ("recovered_sessions", &m.recovered_sessions),
                            ("recovered_records", &m.recovered_records),
                            ("replay_errors", &m.replay_errors),
                        ] {
                            r.field(key).num(counter.get());
                        }
                    });
                }
            },
            Request::Shutdown => ok(out, |r| r.field("draining").bool(true)),
            // Session verbs were routed to `dispatch_session` above.
            other => {
                return Err(ServerError::bad_request(format!(
                    "`{}` requires a session",
                    other.op()
                )))
            }
        }
        Ok(())
    }

    /// Insert a fresh session. On a durable service its open record,
    /// carrying `first`, is logged before the entry exists, so a failure
    /// leaves nothing to undo.
    fn open(&self, session: Session, first: Option<&str>) -> Result<u64, ServerError> {
        let id = self.store.reserve_id();
        if let Some(p) = &self.persist {
            if let Err(e) = p.open_session(id, first.map(str::as_bytes)) {
                // Nothing was acknowledged: the id is not spent.
                self.store.release_id(id);
                return Err(e);
            }
        }
        self.store.insert(id, session);
        Ok(id)
    }

    /// One session-addressed request: look up the session, log the
    /// frame first if it mutates (write-ahead: an acknowledged mutation
    /// is durable *before* it is visible), then apply through
    /// [`apply_session_request`] — the same function recovery replays
    /// records through.
    fn dispatch_session(
        &self,
        request: &Request,
        raw: &str,
        out: &mut String,
    ) -> Result<(), ServerError> {
        let id = request
            .session_id()
            .expect("reads and writes name a session");
        let shared = self
            .store
            .get(id)
            .ok_or_else(|| ServerError::unknown_session(id))?;
        let mut session = lock_recover(&shared);
        let mut snapshot = None;
        if let (Some(p), true) = (&self.persist, request.is_mutating()) {
            // The store found it, so the id parses.
            let key: u64 = id.parse().expect("a live session id");
            // The log stores the wire frame as received — replay
            // re-parses it through the same `Request::from_json` the
            // live path used, so no re-encoding happens per mutation.
            if p.append(key, raw.as_bytes())? {
                snapshot = Some((p, key));
            }
        }
        let result = apply_session_request(&mut session, request, &self.schemas, out);
        if let Some((p, key)) = snapshot {
            // The record is durable whatever `result` was (a failed
            // verb replays to the same failure); snapshot cadence
            // counts attempts.
            p.snapshot(key, &session);
        }
        result
    }

    /// The full Prometheus text exposition: service gauges first, then
    /// the per-verb counters and latency histograms from [`Metrics`].
    pub fn metrics_text(&self) -> String {
        let (lru, ttl) = self.store.evictions();
        let mut out = String::new();
        out.push_str("# TYPE sit_uptime_ms gauge\n");
        prom_counter(&mut out, "sit_uptime_ms", "", self.metrics.uptime_ms());
        out.push_str("# TYPE sit_sessions gauge\n");
        prom_counter(&mut out, "sit_sessions", "", self.store.len() as u64);
        out.push_str("# TYPE sit_sessions_evicted_total counter\n");
        prom_counter(&mut out, "sit_sessions_evicted_total", "kind=\"lru\"", lru);
        prom_counter(&mut out, "sit_sessions_evicted_total", "kind=\"ttl\"", ttl);
        out.push_str("# TYPE sit_trace_events gauge\n");
        prom_counter(&mut out, "sit_trace_events", "", self.tracer.len() as u64);
        out.push_str("# TYPE sit_trace_events_dropped_total counter\n");
        prom_counter(
            &mut out,
            "sit_trace_events_dropped_total",
            "",
            self.tracer.dropped(),
        );
        self.schemas.prometheus(&mut out);
        if let Some(p) = &self.persist {
            p.metrics().prometheus(&mut out);
        }
        out.push_str(&self.metrics.prometheus());
        out
    }
}

/// Apply one session-addressed verb to a session and write its reply
/// into `out`. Pure with respect to the service: live dispatch and
/// journal replay both come through here, which is what makes replay
/// deterministic. `add_schema` parses its text through `schemas`, whose
/// answer for a text is the same whether it held the text or not. A
/// verb that fails may leave part of a reply in `out`.
pub(crate) fn apply_session_request(
    s: &mut Session,
    request: &Request,
    schemas: &SchemaTable,
    out: &mut String,
) -> Result<(), ServerError> {
    match request {
        Request::Save { .. } => ok(out, |r| {
            r.field("script").text(|text| script::save_into(s, text));
        }),
        Request::AddSchema { ddl, .. } => {
            let schemas = schemas
                .parse(ddl)
                .map_err(|e| ServerError::bad_request(format!("DDL error: {e}")))?;
            if schemas.is_empty() {
                return Err(ServerError::bad_request("no `schema` blocks in ddl"));
            }
            s.add_schemas(schemas.iter().cloned())?;
            ok(out, |r| {
                r.field("schemas")
                    .array(|a| schemas.iter().for_each(|sch| a.item().str(sch.name())));
            });
        }
        Request::ListSchemas { .. } => ok(out, |r| {
            r.field("schemas").array(|a| {
                for (_, sch) in s.catalog().schemas() {
                    a.item().object(|o| {
                        o.field("name").str(sch.name());
                        o.field("objects").num(sch.object_count() as u64);
                        o.field("relationships")
                            .num(sch.relationship_count() as u64);
                    });
                }
            });
        }),
        Request::Render { schema, .. } => {
            let schema = s.catalog().schema(schema_id(s, schema)?);
            ok(out, |r| {
                r.field("text")
                    .text(|text| render::render_into(schema, text));
            });
        }
        Request::Equiv { a, b, .. } => {
            let (sa, oa, aa) = attr_path(a)?;
            let (sb, ob, ab) = attr_path(b)?;
            s.declare_equivalent_named(sa, oa, aa, sb, ob, ab)?;
            let classes = s.equivalences().class_walk().count();
            ok(out, |r| r.field("classes").num(classes as u64));
        }
        Request::Unequiv { a, .. } => {
            let (sa, oa, aa) = attr_path(a)?;
            let attr = s.catalog().attr_named(sa, oa, aa)?;
            let removed = s.remove_from_class(attr);
            ok(out, |r| r.field("removed").bool(removed));
        }
        Request::Candidates { a, b, .. } => candidates::<GObj>(s, a, b, out)?,
        Request::RelCandidates { a, b, .. } => candidates::<GRel>(s, a, b, out)?,
        Request::Assert {
            a, b, assertion, ..
        } => assert::<GObj>(s, a, b, *assertion, out)?,
        Request::RelAssert {
            a, b, assertion, ..
        } => assert::<GRel>(s, a, b, *assertion, out)?,
        Request::Retract { a, b, .. } => retract::<GObj>(s, a, b, out)?,
        Request::RelRetract { a, b, .. } => retract::<GRel>(s, a, b, out)?,
        Request::Matrix { a, b, .. } => {
            let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
            let catalog = s.catalog();
            let names = |sid| {
                move |a: &mut Array<'_>| {
                    catalog
                        .objects_of(sid)
                        .for_each(|o| a.item().display(catalog.dotted(o)));
                }
            };
            ok(out, |r| {
                r.field("rows").array(names(sa));
                r.field("cols").array(names(sb));
                r.field("cells").array(|rows| {
                    for row in s.assertion_matrix(sa, sb) {
                        rows.item().array(|cells| {
                            for cell in row {
                                match cell {
                                    Some(a) => cells.item().str(script::keyword(a)),
                                    None => cells.item().null(),
                                }
                            }
                        });
                    }
                });
            });
        }
        Request::Integrate {
            a,
            b,
            pull_up,
            mappings,
            ..
        } => {
            let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
            let options = IntegrationOptions {
                pull_up_common_attrs: *pull_up,
                ..Default::default()
            };
            let integrated = s.integrate(sa, sb, &options)?;
            let schema = &integrated.schema;
            ok(out, |r| {
                r.field("schema")
                    .text(|text| render::render_into(schema, text));
                r.field("objects").num(schema.object_count() as u64);
                r.field("relationships")
                    .num(schema.relationship_count() as u64);
                if *mappings {
                    let maps = Mappings::new(s.catalog(), &integrated);
                    r.field("mappings").text(|text| maps.describe_into(text));
                }
            });
        }
        other => {
            return Err(ServerError::bad_request(format!(
                "`{}` is not a session verb",
                other.op()
            )))
        }
    }
    Ok(())
}

/// Write a success reply: `"ok":true`, then the members `members`
/// writes.
fn ok(out: &mut String, members: impl FnOnce(&mut Object<'_>)) {
    Value::new(out).object(|reply| {
        reply.field("ok").bool(true);
        members(reply);
    });
}

fn schema_id(s: &Session, name: &str) -> Result<sit_ecr::SchemaId, ServerError> {
    s.catalog()
        .by_name(name)
        .ok_or_else(|| ServerError::bad_request(format!("unknown schema `{name}`")))
}

fn attr_path(path: &str) -> Result<(&str, &str, &str), ServerError> {
    let mut it = path.split('.');
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(s), Some(o), Some(a), None) if !s.is_empty() && !o.is_empty() && !a.is_empty() => {
            Ok((s, o, a))
        }
        _ => Err(ServerError::bad_request(format!(
            "attribute paths are `schema.Owner.attr`: `{path}`"
        ))),
    }
}

/// Resolve a `schema.Name` path to an element of kind `E`.
fn element_path<E: Element>(s: &Session, path: &str) -> Result<E, ServerError> {
    let (schema, name) = path
        .split_once('.')
        .ok_or_else(|| ServerError::bad_request(format!("{}: `{path}`", E::PATH_HINT)))?;
    Ok(s.named(schema, name)?)
}

fn candidates<E: Element>(
    s: &Session,
    a: &str,
    b: &str,
    out: &mut String,
) -> Result<(), ServerError> {
    let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
    let catalog = s.catalog();
    ok(out, |r| {
        r.field("pairs").array(|pairs| {
            for p in s.candidates::<E>(sa, sb) {
                pairs.item().object(|o| {
                    o.field("left").display(catalog.dotted(p.left));
                    o.field("right").display(catalog.dotted(p.right));
                    o.field("equivalent").num(p.equivalent as u64);
                    o.field("ratio").float(p.ratio);
                });
            }
        });
    });
    Ok(())
}

fn assert<E: Element>(
    s: &mut Session,
    a: &str,
    b: &str,
    assertion: Assertion,
    out: &mut String,
) -> Result<(), ServerError> {
    let ga = element_path::<E>(s, a)?;
    let gb = element_path::<E>(s, b)?;
    let derived = s.assert(ga, gb, assertion)?;
    let catalog = s.catalog();
    ok(out, |r| {
        r.field("derived").array(|facts| {
            for d in &derived {
                facts.item().object(|o| {
                    o.field("a").display(catalog.dotted(d.a));
                    o.field("rel").str(d.rel.tag());
                    o.field("b").display(catalog.dotted(d.b));
                });
            }
        });
    });
    Ok(())
}

fn retract<E: Element>(
    s: &mut Session,
    a: &str,
    b: &str,
    out: &mut String,
) -> Result<(), ServerError> {
    let ga = element_path::<E>(s, a)?;
    let gb = element_path::<E>(s, b)?;
    let retracted = s.retract(ga, gb);
    ok(out, |r| r.field("retracted").bool(retracted));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrorCode;

    fn call(service: &Service, line: &str) -> Json {
        Json::parse(&service.handle_line(line).frame).expect("response is valid json")
    }

    fn ok(v: &Json) -> bool {
        v.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn err_code(v: &Json) -> Option<String> {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    }

    const SC1: &str = r#"
    schema sc1 {
      entity Student { Name: char key; GPA: real; }
      entity Department { Dname: char key; }
      relationship Majors { Student (0,1); Department (0,n); }
    }
    "#;
    const SC2: &str = r#"
    schema sc2 {
      entity Grad_student { Name: char key; GPA: real; }
      entity Department { Dname: char key; }
      relationship Majors { Grad_student (0,1); Department (0,n); }
    }
    "#;

    #[test]
    fn full_session_over_frames() {
        let service = Service::new(StoreConfig::default());
        let opened = call(&service, r#"{"op":"open"}"#);
        assert!(ok(&opened));
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();

        let add = |ddl: &str| {
            let frame = Request::AddSchema {
                session: sid.clone(),
                ddl: ddl.into(),
            }
            .to_json()
            .encode();
            call(&service, &frame)
        };
        assert!(ok(&add(SC1)), "{:?}", add(SC1));
        assert!(ok(&add(SC2)));

        let eq = Request::Equiv {
            session: sid.clone(),
            a: "sc1.Student.Name".into(),
            b: "sc2.Grad_student.Name".into(),
        };
        assert!(ok(&call(&service, &eq.to_json().encode())));

        let cands = call(
            &service,
            &Request::Candidates {
                session: sid.clone(),
                a: "sc1".into(),
                b: "sc2".into(),
            }
            .to_json()
            .encode(),
        );
        assert!(ok(&cands));
        let pairs = cands.get("pairs").and_then(Json::as_arr).unwrap();
        assert!(!pairs.is_empty());

        let assert_req = Request::Assert {
            session: sid.clone(),
            a: "sc1.Department".into(),
            b: "sc2.Department".into(),
            assertion: sit_core::assertion::Assertion::Equal,
        };
        assert!(ok(&call(&service, &assert_req.to_json().encode())));

        let contains = Request::Assert {
            session: sid.clone(),
            a: "sc1.Student".into(),
            b: "sc2.Grad_student".into(),
            assertion: sit_core::assertion::Assertion::Contains,
        };
        assert!(ok(&call(&service, &contains.to_json().encode())));

        let integ = call(
            &service,
            &Request::Integrate {
                session: sid.clone(),
                a: "sc1".into(),
                b: "sc2".into(),
                pull_up: false,
                mappings: true,
            }
            .to_json()
            .encode(),
        );
        assert!(ok(&integ), "{integ:?}");
        assert!(integ
            .get("schema")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Department"));
        assert!(integ.get("mappings").is_some());

        let stats = call(&service, r#"{"op":"stats"}"#);
        assert!(ok(&stats));
        assert!(stats.get("verbs").and_then(|v| v.get("assert")).is_some());
    }

    #[test]
    fn errors_are_typed_not_panics() {
        let service = Service::new(StoreConfig::default());
        // Parse error.
        let r = call(&service, "{nope");
        assert_eq!(err_code(&r).as_deref(), Some("parse"));
        // Invalid request.
        let r = call(&service, r#"{"op":"warp"}"#);
        assert_eq!(err_code(&r).as_deref(), Some("bad_request"));
        // Unknown session.
        let r = call(&service, r#"{"op":"save","session":"99"}"#);
        assert_eq!(err_code(&r).as_deref(), Some("unknown_session"));
        // Bad DDL inside a live session.
        let opened = call(&service, r#"{"op":"open"}"#);
        let sid = opened.get("session").and_then(Json::as_str).unwrap();
        let r = call(
            &service,
            &format!(r#"{{"op":"add_schema","session":"{sid}","ddl":"schema x {{ nonsense"}}"#),
        );
        assert_eq!(err_code(&r).as_deref(), Some("bad_request"));
    }

    #[test]
    fn oversized_schema_is_a_bad_request() {
        let service = Service::new(StoreConfig::default());
        let opened = call(&service, r#"{"op":"open"}"#);
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        // One root with a category per object class past the session's
        // limit: registering it would size the closure matrix by the
        // declaration count, so it is refused before the engine sees it.
        let mut ddl = String::from("schema big { entity R { k: int key; }\n");
        for i in 0..Session::MAX_OBJECTS {
            ddl.push_str(&format!("category C{i} of R {{}}\n"));
        }
        ddl.push('}');
        let frame = Request::AddSchema {
            session: sid.clone(),
            ddl,
        }
        .to_json()
        .encode();
        let r = call(&service, &frame);
        assert_eq!(err_code(&r).as_deref(), Some("bad_request"), "{r:?}");
        let list = call(
            &service,
            &format!(r#"{{"op":"list_schemas","session":"{sid}"}}"#),
        );
        assert_eq!(
            list.get("schemas")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0),
            "{list:?}"
        );
        // The session stays usable.
        let frame = Request::AddSchema {
            session: sid,
            ddl: SC1.into(),
        }
        .to_json()
        .encode();
        assert!(ok(&call(&service, &frame)));
    }

    /// A service with one open session, and that session's id.
    fn one_session() -> (Service, String) {
        let service = Service::new(StoreConfig::default());
        let opened = call(&service, r#"{"op":"open"}"#);
        let sid = opened.get("session").and_then(Json::as_str).unwrap();
        let sid = sid.to_owned();
        (service, sid)
    }

    fn add_schema(service: &Service, sid: &str, ddl: &str) -> Json {
        let (session, ddl) = (sid.to_owned(), ddl.to_owned());
        call(
            service,
            &Request::AddSchema { session, ddl }.to_json().encode(),
        )
    }

    fn listed(service: &Service, sid: &str) -> usize {
        let list = call(
            service,
            &format!(r#"{{"op":"list_schemas","session":"{sid}"}}"#),
        );
        list.get("schemas").and_then(Json::as_arr).unwrap().len()
    }

    #[test]
    fn a_duplicate_block_leaves_its_whole_frame_unregistered() {
        let (service, sid) = one_session();
        let twice = "schema a { entity X { k: int key; } } schema a { entity Y { k: int key; } }";
        // The second block repeats the first one's name: the reply is
        // the duplicate error, and the first block is not left behind,
        // so a retry meets the same error instead of a half-done frame.
        for _ in 0..2 {
            let r = add_schema(&service, &sid, twice);
            assert_eq!(err_code(&r).as_deref(), Some("core"), "{r:?}");
            let message = r.get("error").and_then(|e| e.get("message"));
            assert_eq!(
                message.and_then(Json::as_str),
                Some("schema `a` already registered")
            );
            assert_eq!(listed(&service, &sid), 0);
        }
        let one = "schema a { entity X { k: int key; } }";
        assert!(ok(&add_schema(&service, &sid, one)));
        assert_eq!(listed(&service, &sid), 1);
    }

    #[test]
    fn an_overflowing_block_leaves_its_whole_frame_unregistered() {
        let (service, sid) = one_session();
        // The first block fills the session's object limit; the second
        // goes past it.
        let mut ddl = String::from("schema big { entity R { k: int key; }\n");
        for i in 1..Session::MAX_OBJECTS {
            ddl.push_str(&format!("category C{i} of R {{}}\n"));
        }
        ddl.push('}');
        let more = "schema more { entity M { k: int key; } }";
        let r = add_schema(&service, &sid, &format!("{ddl} {more}"));
        assert_eq!(err_code(&r).as_deref(), Some("bad_request"), "{r:?}");
        assert_eq!(listed(&service, &sid), 0);
        assert!(ok(&add_schema(&service, &sid, &ddl)));
        assert_eq!(listed(&service, &sid), 1);
    }

    #[test]
    fn conflict_is_reported_with_its_code() {
        let service = Service::new(StoreConfig::default());
        let opened = call(&service, r#"{"op":"open"}"#);
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let load = |ddl: &str| {
            let frame = Request::AddSchema {
                session: sid.clone(),
                ddl: ddl.into(),
            }
            .to_json()
            .encode();
            call(&service, &frame)
        };
        assert!(ok(&load(SC1)));
        assert!(ok(&load(SC2)));
        let eq = |a: &str, b: &str, kw: &str| {
            call(
                &service,
                &format!(
                    r#"{{"op":"assert","session":"{sid}","a":"{a}","b":"{b}","assertion":"{kw}"}}"#
                ),
            )
        };
        assert!(ok(&eq("sc1.Student", "sc2.Grad_student", "contains")));
        let conflict = eq("sc1.Student", "sc2.Grad_student", "disjoint-non-integrable");
        assert_eq!(err_code(&conflict).as_deref(), Some("conflict"));
    }

    #[test]
    fn shutdown_verb_drains() {
        let service = Service::new(StoreConfig::default());
        let r = call(&service, r#"{"op":"shutdown"}"#);
        assert!(ok(&r));
        assert!(service.is_draining());
        // Further mutating requests are rejected...
        let r = call(&service, r#"{"op":"open"}"#);
        assert_eq!(err_code(&r).as_deref(), Some("shutting_down"));
        // ...but observability verbs still answer during the drain.
        assert!(ok(&call(&service, r#"{"op":"ping"}"#)));
        assert!(ok(&call(&service, r#"{"op":"stats"}"#)));
        assert!(ok(&call(&service, r#"{"op":"metrics_text"}"#)));
        assert!(ok(&call(&service, r#"{"op":"trace_dump"}"#)));
        assert!(ok(&call(&service, r#"{"op":"persist_stats"}"#)));
    }

    #[test]
    fn error_codes_enum_matches_wire() {
        assert_eq!(ErrorCode::Overloaded.as_str(), "overloaded");
    }

    fn durable_service(storage: &Arc<crate::storage::MemStorage>) -> Service {
        Service::with_persistence(
            StoreConfig::default(),
            Arc::new(MonotonicClock::new()),
            Arc::clone(storage) as Arc<dyn Storage>,
            PersistConfig::default(),
        )
        .expect("recovery over MemStorage cannot fail")
    }

    #[test]
    fn durable_sessions_survive_a_service_rebuild() {
        let storage = Arc::new(crate::storage::MemStorage::new());
        let first = durable_service(&storage);
        let opened = call(&first, r#"{"op":"open"}"#);
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        for ddl in [SC1, SC2] {
            let add = Request::AddSchema {
                session: sid.clone(),
                ddl: ddl.into(),
            };
            assert!(ok(&call(&first, &add.to_json().encode())));
        }
        let eq = Request::Equiv {
            session: sid.clone(),
            a: "sc1.Student.Name".into(),
            b: "sc2.Grad_student.Name".into(),
        };
        assert!(ok(&call(&first, &eq.to_json().encode())));
        let save = Request::Save {
            session: sid.clone(),
        }
        .to_json()
        .encode();
        let before = call(&first, &save);
        drop(first);

        // Same storage, new process: the session comes back under the
        // same id with byte-identical script output.
        let second = durable_service(&storage);
        let after = call(&second, &save);
        assert_eq!(before, after);
        let stats = call(&second, r#"{"op":"persist_stats"}"#);
        assert_eq!(stats.get("enabled"), Some(&Json::Bool(true)));
        assert!(
            stats
                .get("recovered_records")
                .and_then(Json::as_num)
                .unwrap()
                >= 2.0,
            "{stats:?}"
        );
        let metrics = call(&second, r#"{"op":"metrics_text"}"#);
        let text = metrics.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("sit_persist_journal_records_total"), "{text}");
        assert!(text.contains("sit_recover_sessions_total"), "{text}");
    }

    #[test]
    fn closed_sessions_do_not_resurrect() {
        let storage = Arc::new(crate::storage::MemStorage::new());
        let first = durable_service(&storage);
        let opened = call(&first, r#"{"op":"open"}"#);
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let closed = call(&first, &format!(r#"{{"op":"close","session":"{sid}"}}"#));
        assert!(ok(&closed));
        drop(first);
        let second = durable_service(&storage);
        assert!(second.store().is_empty(), "close removed the files");
    }

    #[test]
    fn candidates_of_a_schema_against_itself_are_empty() {
        // s.A.x and s.B.y share a class through t.C.z, and so do s.R.p
        // and s.R.q through t.Q.r: every element has a non-singleton
        // class, and two of s's own elements meet in each class.
        let service = Service::new(StoreConfig::default());
        let sid = call(&service, r#"{"op":"open"}"#)
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let frames = [
            r#""op":"add_schema","ddl":"schema s { entity A { x: char key; } entity B { y: char key; } relationship R { A (0,n); B (0,n); p: char; q: char; } }""#,
            r#""op":"add_schema","ddl":"schema t { entity C { z: char key; } relationship Q { C (0,n); C (0,n); r: char; } }""#,
            r#""op":"equiv","a":"s.A.x","b":"t.C.z""#,
            r#""op":"equiv","a":"s.B.y","b":"t.C.z""#,
            r#""op":"equiv","a":"s.R.p","b":"t.Q.r""#,
            r#""op":"equiv","a":"s.R.q","b":"t.Q.r""#,
        ];
        for frame in frames {
            let v = call(&service, &format!(r#"{{"session":"{sid}",{frame}}}"#));
            assert!(ok(&v), "{frame}: {v:?}");
        }
        let pairs = |op: &str, a: &str, b: &str| {
            let line = format!(r#"{{"op":"{op}","session":"{sid}","a":"{a}","b":"{b}"}}"#);
            service.handle_line(&line).frame
        };
        for op in ["candidates", "rel_candidates"] {
            assert_eq!(pairs(op, "s", "s"), r#"{"ok":true,"pairs":[]}"#, "{op}");
            assert_eq!(pairs(op, "t", "t"), r#"{"ok":true,"pairs":[]}"#, "{op}");
        }
        assert_eq!(
            pairs("rel_candidates", "s", "t"),
            r#"{"ok":true,"pairs":[{"left":"s.R","right":"t.Q","equivalent":1,"ratio":0.5}]}"#
        );
    }
}
