//! Real-process crash recovery: SIGKILL a `sit serve --data-dir`
//! subprocess mid-session and prove the restarted server recovers the
//! acknowledged state byte-for-byte.
//!
//! The in-process chaos suite (`crates/server/tests/crash.rs`) sweeps
//! every byte offset over simulated storage; this test closes the loop
//! on the real thing — a real TCP server, a real directory, a real
//! `kill -9` (no drop handlers, no flushes, no goodbyes).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn spawn_serve(data_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sit"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
            "--fsync",
            "always",
            "--snapshot-every",
            "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sit serve --data-dir");
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
    (child, addr)
}

/// Send one frame, require `"ok":true`, return the response line.
fn call(stream: &mut TcpStream, frame: &str) -> String {
    stream.write_all(frame.as_bytes()).expect("send frame");
    stream.write_all(b"\n").expect("send newline");
    stream.flush().expect("flush");
    let mut line = String::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => break,
            Ok(1) => line.push(byte[0] as char),
            other => panic!("connection died mid-response: {other:?} after {line:?}"),
        }
    }
    assert!(
        line.contains("\"ok\":true"),
        "request not acknowledged: {frame} -> {line}"
    );
    line
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to sit serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

#[test]
fn sigkill_mid_session_recovers_acknowledged_state_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("sit_kill9_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");

    let (mut child, addr) = spawn_serve(&dir);
    let mut conn = connect(&addr);
    call(&mut conn, r#"{"op":"open"}"#);
    call(
        &mut conn,
        r#"{"op":"add_schema","session":"1","ddl":"schema sa { entity P { N: char key; } entity Q { M: char key; } }"}"#,
    );
    call(
        &mut conn,
        r#"{"op":"add_schema","session":"1","ddl":"schema sb { entity P2 { N: char key; } }"}"#,
    );
    call(
        &mut conn,
        r#"{"op":"equiv","session":"1","a":"sa.P.N","b":"sb.P2.N"}"#,
    );
    call(
        &mut conn,
        r#"{"op":"assert","session":"1","a":"sa.P","b":"sb.P2","assertion":"equals"}"#,
    );
    let before = call(&mut conn, r#"{"op":"save","session":"1"}"#);

    // Every mutation above was acknowledged under fsync=always; now the
    // process dies with no chance to clean up. `Child::kill` is SIGKILL
    // on Unix.
    child.kill().expect("kill -9 the server");
    child.wait().expect("reap the server");
    drop(conn);

    // A new process over the same directory must recover session 1.
    let (child2, addr2) = spawn_serve(&dir);
    let mut conn2 = connect(&addr2);
    let after = call(&mut conn2, r#"{"op":"save","session":"1"}"#);
    assert_eq!(
        before, after,
        "recovered session must save byte-identically after kill -9"
    );
    let stats = call(&mut conn2, r#"{"op":"persist_stats"}"#);
    assert!(stats.contains("\"enabled\":true"), "{stats}");

    // And the recovered server is a fully working durable server: keep
    // mutating, shut down gracefully, recover again.
    call(
        &mut conn2,
        r#"{"op":"equiv","session":"1","a":"sa.Q.M","b":"sb.P2.N"}"#,
    );
    let extended = call(&mut conn2, r#"{"op":"save","session":"1"}"#);
    assert_ne!(extended, before, "the new equiv must change the script");
    conn2
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("request shutdown");
    conn2.flush().expect("flush shutdown");
    drop(conn2);
    let mut child2 = child2;
    child2.wait().expect("graceful drain exits");

    let (mut child3, addr3) = spawn_serve(&dir);
    let mut conn3 = connect(&addr3);
    let final_save = call(&mut conn3, r#"{"op":"save","session":"1"}"#);
    assert_eq!(
        extended, final_save,
        "state from after the kill -9 recovery must survive a graceful restart too"
    );
    drop(conn3);
    let _ = child3.kill();
    let _ = child3.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
