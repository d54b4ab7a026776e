//! Smoke tests of the `sit` command-line binary, covering every mode:
//! session loading, listing, rendering, DOT export, batch integration
//! with query translation, TUI scripting, and session saving.

use std::process::{Command, Stdio};

fn sit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sit"))
}

fn demo_session() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/university.sit")
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = sit()
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_mode() {
    let (stdout, _, ok) = run(&["--load", demo_session(), "--list"]);
    assert!(ok);
    assert!(
        stdout.contains("sc1 (2 object classes, 1 relationship sets)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("sc2 (3 object classes, 2 relationship sets)"),
        "{stdout}"
    );
}

#[test]
fn render_and_dot_modes() {
    let (stdout, _, ok) = run(&["--load", demo_session(), "--render", "sc1"]);
    assert!(ok);
    assert!(stdout.contains("[Student] (entity)"), "{stdout}");
    let (dot, _, ok) = run(&["--load", demo_session(), "--dot", "sc2"]);
    assert!(ok);
    assert!(dot.starts_with("digraph \"sc2\""), "{dot}");
    assert!(dot.contains("shape=diamond"), "{dot}");
}

#[test]
fn integrate_mode_with_query_translation() {
    let (stdout, _, ok) = run(&[
        "--load",
        demo_session(),
        "--integrate",
        "sc1",
        "sc2",
        "--to-components",
        "select D_Name from D_Stud_Facu",
        "--to-integrated",
        "sc2",
        "select Name from Grad_student",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[E_Department]"), "{stdout}");
    assert!(stdout.contains("[D_Stud_Facu]"), "{stdout}");
    assert!(
        stdout.contains("select Name from Student"),
        "fan-out branch: {stdout}"
    );
    assert!(
        stdout.contains("select D_Name from Grad_student"),
        "view mapping: {stdout}"
    );
}

#[test]
fn tui_script_mode() {
    let events = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/data/tui_session.events"
    );
    let (stdout, _, ok) = run(&["--load", demo_session(), "--script", events]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Category Screen"), "{stdout}");
    assert!(stdout.contains("D_Stud_Facu (E)"), "{stdout}");
}

#[test]
fn save_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sit_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("saved.sit");
    let out_str = out_path.to_str().unwrap();
    let (_, _, ok) = run(&[
        "--load",
        demo_session(),
        "--integrate",
        "sc1",
        "sc2",
        "--save",
        out_str,
    ]);
    assert!(ok);
    // The saved script loads again and lists both schemas.
    let (stdout, _, ok) = run(&["--load", out_str, "--list"]);
    assert!(ok);
    assert!(stdout.contains("sc1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multiple_loads_preserve_every_files_directives() {
    let dir = std::env::temp_dir().join(format!("sit_multi_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("p1.sit");
    let p2 = dir.join("p2.sit");
    std::fs::write(&p1, "schema p1 { entity A { id: int key; } }\n").unwrap();
    std::fs::write(
        &p2,
        "schema p2 { entity B { id: int key; } }\nequiv p1.A.id = p2.B.id;\nassert p1.A equals p2.B;\n",
    )
    .unwrap();
    let (stdout, _, ok) = run(&[
        "--load",
        p1.to_str().unwrap(),
        "--load",
        p2.to_str().unwrap(),
        "--integrate",
        "p1",
        "p2",
    ]);
    assert!(ok, "{stdout}");
    // The second file's assertion survives: the classes merged.
    assert!(stdout.contains("[E_A_B]"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    let (_, stderr, ok) = run(&["--load", "/nonexistent/file.sit"]);
    assert!(!ok);
    assert!(stderr.contains("sit:"), "{stderr}");
    let (_, stderr, ok) = run(&["--bogus-flag"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    let (_, stderr, ok) = run(&["--load", demo_session(), "--render", "ghost"]);
    assert!(!ok);
    assert!(stderr.contains("unknown schema"), "{stderr}");
}

#[test]
fn serve_rejects_zero_threads_and_zero_queue() {
    // `--stdio` with no input would serve and exit 0 if a limit were
    // accepted, so a missing check fails here instead of hanging.
    for flag in ["--threads", "--queue"] {
        let (_, stderr, ok) = run(&["serve", "--stdio", flag, "0"]);
        assert!(!ok, "{flag} 0 must be rejected");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{stderr}"
        );
    }
}

#[test]
fn serve_names_the_address_only_for_listener_errors() {
    // A recovery failure is about the data directory, not the address.
    let dir = std::env::temp_dir().join(format!("sit_serve_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("5.snap.3"), b"").unwrap();
    let data_dir = dir.to_str().unwrap();
    let want = "sit: `5.snap.3`: session file of an older layout, not a log segment\n";
    let (_, stderr, ok) = run(&["serve", "--addr", "127.0.0.1:0", "--data-dir", data_dir]);
    assert!(!ok);
    assert_eq!(stderr, want);
    let (_, stderr, ok) = run(&["serve", "--stdio", "--data-dir", data_dir]);
    assert!(!ok);
    assert_eq!(stderr, want);
    std::fs::remove_dir_all(&dir).unwrap();
    // A listener error still names the address it could not bind.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let (_, stderr, ok) = run(&["serve", "--addr", &addr]);
    assert!(!ok);
    assert!(stderr.starts_with(&format!("sit: {addr}: ")), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("--integrate"), "{stdout}");
    assert!(stdout.contains("--timeout-ms"), "{stdout}");
}

/// A `sit serve` subprocess on an ephemeral port, killed on drop.
struct ServeProc {
    child: std::process::Child,
    addr: String,
}

impl ServeProc {
    fn start() -> ServeProc {
        use std::io::{BufRead, BufReader};
        let mut child = sit()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sit serve");
        // The server prints `listening on 127.0.0.1:PORT` once bound.
        let stdout = child.stdout.take().expect("serve stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read listen banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_owned();
        ServeProc { child, addr }
    }

    /// Pipe `input` through `sit client <addr> <extra...>`.
    fn client(&self, extra: &[&str], input: &str) -> (String, String, Option<i32>) {
        use std::io::Write;
        let mut cmd = sit();
        cmd.arg("client").arg(&self.addr).args(extra);
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sit client");
        child
            .stdin
            .take()
            .expect("client stdin")
            .write_all(input.as_bytes())
            .expect("write requests");
        let out = child.wait_with_output().expect("client exits");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code(),
        )
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn client_exits_zero_on_success_frames() {
    let server = ServeProc::start();
    let (stdout, stderr, code) = server.client(
        &["--timeout-ms", "5000", "--retries", "2"],
        "{\"op\":\"ping\"}\n{\"op\":\"open\"}\n",
    );
    assert_eq!(code, Some(0), "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("\"pong\":true"), "{stdout}");
    assert!(stdout.contains("\"session\":"), "{stdout}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn client_passes_trace_ids_through_to_the_server_span() {
    let server = ServeProc::start();
    // The frame must reach the server verbatim: the client's typed
    // retry path re-encodes requests, which would drop `trace_id`.
    let (stdout, _, code) = server.client(
        &[],
        "{\"op\":\"ping\",\"trace_id\":\"cli-e2e-42\"}\n{\"op\":\"trace_dump\",\"limit\":64}\n",
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("cli-e2e-42"),
        "trace_id missing from trace_dump: {stdout}"
    );
}

#[test]
fn client_exits_nonzero_on_typed_error_frame() {
    let server = ServeProc::start();
    // unknown_session: the error frame still prints to stdout, the code
    // goes to stderr, and the exit status is 2 — later requests on the
    // same run are still served.
    let (stdout, stderr, code) = server.client(
        &[],
        "{\"op\":\"save\",\"session\":\"999\"}\n{\"op\":\"ping\"}\n",
    );
    assert_eq!(code, Some(2), "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("\"code\":\"unknown_session\""), "{stdout}");
    assert!(
        stdout.contains("\"pong\":true"),
        "later requests still served: {stdout}"
    );
    assert!(stderr.contains("server error: unknown_session"), "{stderr}");
}

#[test]
fn client_reports_parse_errors_from_garbage_lines() {
    let server = ServeProc::start();
    let (stdout, stderr, code) = server.client(&[], "this is not json\n");
    assert_eq!(code, Some(2), "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("\"code\":\"parse\""), "{stdout}");
    assert!(stderr.contains("server error: parse"), "{stderr}");
}
