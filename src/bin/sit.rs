//! `sit` — the schema integration tool, command line.
//!
//! ```text
//! sit                               interactive tool (reads stdin)
//! sit --load S.sit                  preload a session script (repeatable)
//! sit --script EVENTS [--frames]    drive the tool from an event file
//! sit --list                        list loaded schemas and exit
//! sit --render NAME                 print a schema as text and exit
//! sit --dot NAME                    print a schema as Graphviz DOT and exit
//! sit --integrate A B [--pull-up]   integrate two schemas and print the result
//! sit --save OUT                    save the session script before exiting
//! sit --to-integrated SCHEMA "Q"    translate a view query (with --integrate)
//! sit --to-components "Q"           translate a global query (with --integrate)
//! sit serve [--addr H:P] [--stdio] [--data-dir DIR]
//!                                   serve sessions over line-delimited JSON;
//!                                   --data-dir journals mutations and
//!                                   recovers sessions on restart
//! sit client ADDR [--timeout-ms N] [--retries N]
//!                                   pipe request lines to a running
//!                                   server; exits 2 on typed error frames
//! sit trace OUT.json [--load FILE]  run an integration session in-process
//!                                   and export its span trace as Chrome
//!                                   trace-event JSON (chrome://tracing,
//!                                   Perfetto)
//! ```
//!
//! Event files for `--script`: one event per line — `key <chars>` sends
//! each character as a menu choice, `text <line>` submits a typed line
//! (`text` alone submits an empty line), `#` starts a comment.
//! Interactive mode uses the same rule as the paper's forms: a line with
//! exactly one character is a menu choice, anything else (including an
//! empty line) is typed input.

use std::io::{BufRead, Write};
use std::net::TcpListener;

use sit::core::mapping::{Mappings, Query};
use sit::core::script;
use sit::core::session::Session;
use sit::ecr::render;
use sit::server::client::error_code;
use sit::server::server::{serve_stdio, PersistOptions, Server, ServerConfig};
use sit::server::{Client, ClientConfig, Json, Request};
use sit::server::{FsyncPolicy, PersistConfig};
use sit::tui::app::App;
use sit::tui::event::Event;

struct Args {
    load: Vec<String>,
    script: Option<String>,
    frames: bool,
    list: bool,
    render: Option<String>,
    dot: Option<String>,
    integrate: Option<(String, String)>,
    pull_up: bool,
    save: Option<String>,
    to_integrated: Option<(String, String)>,
    to_components: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        load: Vec::new(),
        script: None,
        frames: false,
        list: false,
        render: None,
        dot: None,
        integrate: None,
        pull_up: false,
        save: None,
        to_integrated: None,
        to_components: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut need = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--load" => args.load.push(need("--load")?),
            "--script" => args.script = Some(need("--script")?),
            "--frames" => args.frames = true,
            "--list" => args.list = true,
            "--render" => args.render = Some(need("--render")?),
            "--dot" => args.dot = Some(need("--dot")?),
            "--integrate" => {
                let a = need("--integrate")?;
                let b = need("--integrate")?;
                args.integrate = Some((a, b));
            }
            "--pull-up" => args.pull_up = true,
            "--save" => args.save = Some(need("--save")?),
            "--to-integrated" => {
                let schema = need("--to-integrated")?;
                let q = need("--to-integrated")?;
                args.to_integrated = Some((schema, q));
            }
            "--to-components" => args.to_components = Some(need("--to-components")?),
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "\
sit - interactive schema integration (ICDE 1988 reproduction)

  sit                               interactive tool (reads stdin)
  sit --load S.sit                  preload a session script (repeatable)
  sit --script EVENTS [--frames]    drive the tool from an event file
  sit --list                        list loaded schemas and exit
  sit --render NAME | --dot NAME    print one schema and exit
  sit --integrate A B [--pull-up]   integrate two schemas, print the result
  sit --to-integrated SCHEMA QUERY  translate a view query (with --integrate)
  sit --to-components QUERY         translate a global query (with --integrate)
  sit --save OUT                    save the session script

  sit serve [--addr HOST:PORT] [--stdio] [--threads N]
            [--queue N] [--max-sessions N] [--ttl SECS]
            [--data-dir DIR] [--fsync always|every-N|never]
            [--snapshot-every N]
                                    serve integration sessions over
                                    newline-delimited JSON (TCP, or
                                    stdin/stdout with --stdio); port 0
                                    picks a free port, printed on the
                                    `listening on ...` line.
                                    At most --threads requests run at
                                    once (default 4) and --queue more
                                    wait (default 128); any beyond are
                                    answered `overloaded`.
                                    --data-dir makes sessions durable:
                                    mutations are journaled (write-ahead)
                                    to DIR and recovered on restart;
                                    --fsync picks the journal fsync
                                    policy (default always) and
                                    --snapshot-every compacts the journal
                                    into a snapshot every N records
                                    (default 64, 0 disables)
  sit client ADDR [--timeout-ms N] [--retries N]
                                    connect to a server; request lines
                                    from stdin, response lines to stdout.
                                    Idempotent verbs retry with jittered
                                    backoff; --timeout-ms 0 disables the
                                    socket timeout. Exits 2 (with the
                                    error code on stderr) if any response
                                    was a typed error frame
  sit trace OUT.json [--load FILE]  drive an integration session through
                                    an in-process service and write the
                                    span trace as Chrome trace-event
                                    JSON, viewable in chrome://tracing or
                                    Perfetto. Without --load it runs the
                                    built-in two-schema demo (all four
                                    phases); --load (repeatable) traces
                                    loading the given session scripts
                                    instead
";

fn main() {
    if let Err(e) = run() {
        eprintln!("sit: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    // Subcommands first: `sit serve ...` and `sit client ...` have their
    // own flag sets and never reach the session/TUI pipeline.
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("serve") => return serve(argv),
        Some("client") => return client(argv),
        Some("trace") => return trace(argv),
        _ => {}
    }
    let args = parse_args()?;

    // Load session scripts / DDL files. Files are concatenated and loaded
    // as one script so every file's equivalences and assertions survive
    // (schema blocks parse before directives regardless of file order).
    let mut combined = String::new();
    for path in &args.load {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        combined.push_str(&text);
        combined.push('\n');
    }
    let session = if combined.trim().is_empty() {
        Session::new()
    } else {
        script::load(&combined).map_err(|e| e.to_string())?
    };

    if args.list {
        for (_, schema) in session.catalog().schemas() {
            println!(
                "{} ({} object classes, {} relationship sets)",
                schema.name(),
                schema.object_count(),
                schema.relationship_count()
            );
        }
        return Ok(());
    }
    if let Some(name) = &args.render {
        let sid = session
            .catalog()
            .by_name(name)
            .ok_or(format!("unknown schema `{name}`"))?;
        print!("{}", render::render(session.catalog().schema(sid)));
        return Ok(());
    }
    if let Some(name) = &args.dot {
        let sid = session
            .catalog()
            .by_name(name)
            .ok_or(format!("unknown schema `{name}`"))?;
        print!("{}", render::to_dot(session.catalog().schema(sid)));
        return Ok(());
    }

    if let Some((a, b)) = &args.integrate {
        let sa = session
            .catalog()
            .by_name(a)
            .ok_or(format!("unknown schema `{a}`"))?;
        let sb = session
            .catalog()
            .by_name(b)
            .ok_or(format!("unknown schema `{b}`"))?;
        let options = sit::core::integrate::IntegrationOptions {
            pull_up_common_attrs: args.pull_up,
            ..Default::default()
        };
        let result = session
            .integrate(sa, sb, &options)
            .map_err(|e| e.to_string())?;
        let mappings = Mappings::new(session.catalog(), &result);
        print!("{}", render::render(&result.schema));
        if let Some((schema, q)) = &args.to_integrated {
            let q: Query = q.parse()?;
            println!("\nview query     : [{schema}] {q}");
            println!(
                "against global : {}",
                mappings
                    .to_integrated(schema, &q)
                    .map_err(|e| e.to_string())?
            );
        }
        if let Some(q) = &args.to_components {
            let q: Query = q.parse()?;
            println!("\nglobal query : {q}");
            println!(
                "fan-out      :\n{}",
                mappings.to_components(&q).map_err(|e| e.to_string())?
            );
        }
        if let Some(out) = &args.save {
            std::fs::write(out, script::save(&session)).map_err(|e| e.to_string())?;
            println!("\nsession saved to {out}");
        }
        return Ok(());
    }

    // TUI modes.
    let mut app = App::with_session(session);
    if let Some(path) = &args.script {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let events = parse_event_file(&text)?;
        for event in events {
            app.handle(event);
            if args.frames {
                println!("{}", app.render());
            }
        }
        if !args.frames {
            println!("{}", app.render());
        }
    } else {
        interactive(&mut app)?;
    }
    if let Some(out) = &args.save {
        std::fs::write(out, script::save(app.session())).map_err(|e| e.to_string())?;
        eprintln!("session saved to {out}");
    }
    Ok(())
}

/// `sit serve`: run the session server on TCP (or stdio).
fn serve(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:4088".to_owned();
    let mut stdio = false;
    let mut config = ServerConfig::default();
    let mut data_dir: Option<String> = None;
    let mut persist_config = PersistConfig::default();
    let mut persist_flag: Option<&'static str> = None;
    while let Some(a) = argv.next() {
        let mut need = |what: &str| argv.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--addr" => addr = need("--addr")?,
            "--stdio" => stdio = true,
            "--threads" => {
                config.threads = parse_num(&need("--threads")?, "--threads")?;
                if config.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--queue" => {
                config.queue_cap = parse_num(&need("--queue")?, "--queue")?;
                if config.queue_cap == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--max-sessions" => {
                config.store.max_sessions = parse_num(&need("--max-sessions")?, "--max-sessions")?;
            }
            "--ttl" => {
                let secs: u64 = parse_num(&need("--ttl")?, "--ttl")?;
                config.store.ttl = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--data-dir" => data_dir = Some(need("--data-dir")?),
            "--fsync" => {
                let value = need("--fsync")?;
                persist_config.fsync = FsyncPolicy::parse(&value).ok_or(format!(
                    "--fsync wants `always`, `every-N`, or `never`, got `{value}`"
                ))?;
                persist_flag = Some("--fsync");
            }
            "--snapshot-every" => {
                persist_config.snapshot_every =
                    parse_num(&need("--snapshot-every")?, "--snapshot-every")?;
                persist_flag = Some("--snapshot-every");
            }
            other => return Err(format!("unknown `serve` argument `{other}`")),
        }
    }
    match data_dir {
        Some(dir) => {
            config.persist = Some(PersistOptions {
                data_dir: dir.into(),
                config: persist_config,
            });
        }
        None => {
            if let Some(flag) = persist_flag {
                return Err(format!("{flag} needs --data-dir"));
            }
        }
    }
    if stdio {
        let service = sit::server::server::build_service(&config).map_err(|e| e.to_string())?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return serve_stdio(&service, stdin.lock(), stdout.lock()).map_err(|e| e.to_string());
    }
    let listener = TcpListener::bind(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let server = Server::with_listener(listener, config).map_err(|e| e.to_string())?;
    // The smoke tests (and anyone using port 0) discover the actual
    // port from this line; keep its shape stable.
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

/// `sit client`: forward request lines from stdin, print response lines.
///
/// Exits 0 only if every response was a success frame; any typed error
/// frame is echoed to stdout as usual but also reported on stderr, and
/// the process exits with status 2 so shell pipelines can detect
/// server-side failures without parsing JSON.
fn client(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut config = ClientConfig::default();
    while let Some(a) = argv.next() {
        let mut need = |what: &str| argv.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--timeout-ms" => {
                let ms: u64 = parse_num(&need("--timeout-ms")?, "--timeout-ms")?;
                config.timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--retries" => config.retry.retries = parse_num(&need("--retries")?, "--retries")?,
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other => return Err(format!("unknown `client` argument `{other}`")),
        }
    }
    let addr = addr.ok_or("client needs an ADDR argument")?;
    let mut client =
        Client::connect_with(addr.as_str(), config).map_err(|e| format!("{addr}: {e}"))?;
    let stdin = std::io::stdin();
    let mut saw_error = false;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        // Typed requests go through the retry/backoff path (idempotent
        // verbs only); anything unparsable is sent raw so the server
        // answers with its typed parse error. Frames carrying a
        // `trace_id` also go raw: the typed re-encode would drop the
        // field before the server could attach it to the request span.
        let request = Json::parse(&line)
            .ok()
            .filter(|v| v.get("trace_id").is_none())
            .and_then(|v| Request::from_json(&v).ok());
        let response = match request {
            Some(req) => client
                .call_retrying(&req)
                .map(|frame| frame.encode())
                .map_err(|e| e.to_string())?,
            None => client.call_raw(&line).map_err(|e| e.to_string())?,
        };
        println!("{response}");
        if let Some(code) = Json::parse(&response).ok().as_ref().and_then(error_code) {
            saw_error = true;
            eprintln!("sit client: server error: {code}");
        }
    }
    if saw_error {
        std::process::exit(2);
    }
    Ok(())
}

/// `sit trace`: drive a session through an in-process [`Service`] and
/// export its span ring as Chrome trace-event JSON.
///
/// The default workload is the paper's two-schema demo end to end
/// (collection, equivalences, candidate ranking, assertions, matrix,
/// integration with mappings, save), so the exported timeline shows the
/// request lifecycle spans nesting the engine phases.
fn trace(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut load: Vec<String> = Vec::new();
    while let Some(a) = argv.next() {
        let mut need = |what: &str| argv.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--load" => load.push(need("--load")?),
            other if out.is_none() && !other.starts_with('-') => out = Some(other.to_owned()),
            other => return Err(format!("unknown `trace` argument `{other}`")),
        }
    }
    let out = out.ok_or("trace needs an OUT.json argument")?;

    let frames = if load.is_empty() {
        demo_frames()
    } else {
        let mut frames = Vec::new();
        for path in &load {
            let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            frames.push(Request::Load { script }.to_json().encode());
        }
        frames.push(r#"{"op":"stats"}"#.to_owned());
        frames
    };

    let service = sit::server::Service::new(sit::server::StoreConfig::default());
    let mut errors = 0usize;
    for frame in &frames {
        let response = service.handle_line(frame).frame;
        if let Some(code) = Json::parse(&response).ok().as_ref().and_then(error_code) {
            errors += 1;
            eprintln!("sit trace: server error `{code}` for {frame}");
        }
    }
    let tracer = service.tracer();
    let events = tracer.len();
    std::fs::write(&out, tracer.export_chrome()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "trace: {events} span events ({} dropped) from {} requests -> {out}",
        tracer.dropped(),
        frames.len()
    );
    if errors > 0 {
        return Err(format!("{errors} request(s) answered with a typed error"));
    }
    Ok(())
}

/// The built-in `sit trace` workload: the ICDE 1988 running example
/// through every phase, as wire frames.
fn demo_frames() -> Vec<String> {
    const DDL1: &str = "schema sc1 { entity Student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Student (0,1); Department (0,n); } }";
    const DDL2: &str = "schema sc2 { entity Grad_student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Grad_student (0,1); Department (0,n); } }";
    vec![
        r#"{"op":"ping"}"#.to_owned(),
        r#"{"op":"open"}"#.to_owned(),
        format!(r#"{{"op":"add_schema","session":"1","ddl":"{DDL1}"}}"#),
        format!(r#"{{"op":"add_schema","session":"1","ddl":"{DDL2}"}}"#),
        r#"{"op":"equiv","session":"1","a":"sc1.Student.Name","b":"sc2.Grad_student.Name"}"#.to_owned(),
        r#"{"op":"equiv","session":"1","a":"sc1.Department.Dname","b":"sc2.Department.Dname"}"#.to_owned(),
        r#"{"op":"candidates","session":"1","a":"sc1","b":"sc2"}"#.to_owned(),
        r#"{"op":"rel_candidates","session":"1","a":"sc1","b":"sc2"}"#.to_owned(),
        r#"{"op":"assert","session":"1","a":"sc1.Department","b":"sc2.Department","assertion":"equals"}"#.to_owned(),
        r#"{"op":"assert","session":"1","a":"sc1.Student","b":"sc2.Grad_student","assertion":"contains"}"#.to_owned(),
        r#"{"op":"rel_assert","session":"1","a":"sc1.Majors","b":"sc2.Majors","assertion":"equals"}"#.to_owned(),
        r#"{"op":"matrix","session":"1","a":"sc1","b":"sc2"}"#.to_owned(),
        r#"{"op":"integrate","session":"1","a":"sc1","b":"sc2","pull_up":false,"mappings":true}"#.to_owned(),
        r#"{"op":"save","session":"1"}"#.to_owned(),
        r#"{"op":"stats"}"#.to_owned(),
        r#"{"op":"metrics_text"}"#.to_owned(),
    ]
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a number"))
}

/// Parse a `--script` event file.
fn parse_event_file(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.trim_start().starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some(keys) = line.strip_prefix("key ") {
            out.extend(keys.trim().chars().map(Event::Key));
        } else if line == "text" {
            out.push(Event::text(""));
        } else if let Some(t) = line.strip_prefix("text ") {
            out.push(Event::text(t));
        } else {
            return Err(format!("line {}: expected `key ...` or `text ...`", no + 1));
        }
    }
    Ok(out)
}

/// Interactive loop: render, read a line, convert to an event.
fn interactive(app: &mut App) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        println!("{}", app.render());
        print!("> ");
        std::io::stdout().flush().ok();
        let Some(line) = lines.next() else {
            return Ok(()); // EOF ends the session
        };
        let line = line.map_err(|e| e.to_string())?;
        let mut chars = line.chars();
        let event = match (chars.next(), chars.next()) {
            (Some(c), None) => Event::Key(c),
            _ => Event::text(line),
        };
        app.handle(event);
    }
}
