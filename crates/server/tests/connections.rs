//! Connection lifecycle over real TCP: a connection the server is done
//! with must really be closed — the peer sees EOF, and the server
//! process gives the connection's descriptors back — not kept until the
//! server shuts down.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use sit_server::server::{Server, ServerConfig};
use sit_server::wire::{Json, MAX_LINE};

/// The descriptor count is per process: tests in this file run one at a
/// time so no other test's sockets show up in it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A frame that overflows `MAX_LINE` is answered with the typed `parse`
/// error, and then the client sees the connection end promptly.
#[test]
fn oversized_frame_over_tcp_gets_parse_error_then_eof() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .and_then(Server::spawn)
        .expect("start server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream
        .write_all(&vec![b'x'; MAX_LINE + 16])
        .expect("send flood");

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("parse-error frame");
    let value = Json::parse(line.trim_end()).expect("well-formed frame");
    let code = value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("parse"), "{line}");

    // The server closed the socket: EOF, or a reset because the flood's
    // tail was never read — but not a read that times out.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no frame after the parse error"),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "connection left open after the parse error: {e}"
        ),
    }
    handle.shutdown().unwrap();
}

/// Open descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list fds")
        .count()
}

/// Sequential short connections do not grow the server process's open
/// descriptors: each one is released when its client hangs up.
#[cfg(target_os = "linux")]
#[test]
fn sequential_connections_do_not_leak_descriptors() {
    use sit_server::{Client, Request};

    const SLACK: usize = 4;

    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .and_then(Server::spawn)
        .expect("start server");
    let ping_and_close = || {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.expect_ok(&Request::Ping).expect("pong");
    };
    ping_and_close();
    let before = open_fds();
    for _ in 0..100 {
        ping_and_close();
    }
    // The last connections' threads may still be closing their sockets.
    let mut after = open_fds();
    for _ in 0..500 {
        if after <= before + SLACK {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "open fds grew from {before} to {after} over 100 connections"
    );
    handle.shutdown().unwrap();
}
