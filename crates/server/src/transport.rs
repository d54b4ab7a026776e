//! The transport abstraction: byte streams the serving loop speaks over.
//!
//! PR 2 welded the connection loop to [`std::net::TcpStream`]; every test
//! of degraded behavior therefore needed a real socket and real timing —
//! unrepeatable by construction. This module splits the byte stream away
//! from the protocol:
//!
//! * [`Transport`] — the minimal surface the serving loop needs: `read`,
//!   `write` (which may be *short*), `flush`, and an [`Interrupter`] that
//!   can unblock a pending read from another thread (graceful drain).
//! * [`TcpTransport`] — the production implementation over a
//!   [`TcpStream`] (read-shutdown as the interrupt).
//! * [`SimConn`] / [`sim_pair`] — a fully in-memory duplex connection:
//!   two byte pipes guarded by mutex+condvar. Deterministic, instant, and
//!   composable with the fault layer ([`crate::fault`]), it is what the
//!   chaos suite runs the real serving loop against.
//!
//! The same [`crate::wire::FrameBuffer`] handles line reassembly on every
//! transport, so torn frames behave identically on TCP and in simulation.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

/// A bidirectional byte stream the serving loop can drive.
///
/// Semantics follow `std::io`: `read` blocks until at least one byte is
/// available, returns `Ok(0)` at end-of-stream, and `write` may accept
/// fewer bytes than offered (use [`Transport::write_all`]).
pub trait Transport: Send + 'static {
    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer is gone.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Write up to `buf.len()` bytes, returning how many were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Flush buffered writes to the peer.
    fn flush(&mut self) -> io::Result<()>;

    /// A handle that can unblock a read pending on this transport from
    /// another thread (the server drain path).
    fn interrupter(&self) -> Interrupter;

    /// Write the whole buffer, looping over short writes.
    fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.write(buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "transport accepted zero bytes",
                ));
            }
            buf = &buf[n..];
        }
        Ok(())
    }
}

/// Unblocks a transport's pending read from another thread.
pub struct Interrupter(Box<dyn Fn() + Send + Sync>);

impl Interrupter {
    /// Interrupter from a closure.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Interrupter {
        Interrupter(Box::new(f))
    }

    /// An interrupter that does nothing (transport cannot be unblocked).
    pub fn noop() -> Interrupter {
        Interrupter(Box::new(|| {}))
    }

    /// Fire: any read blocked on the transport returns (EOF or error).
    pub fn interrupt(&self) {
        (self.0)()
    }
}

/// The production transport: a connected TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap a connected stream. Disables Nagle: one small response frame
    /// per request means waiting to coalesce (Nagle + delayed ACK) would
    /// add ~40ms to every round trip.
    pub fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }
}

impl Transport for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }

    fn interrupter(&self) -> Interrupter {
        match self.stream.try_clone() {
            Ok(clone) => Interrupter::new(move || {
                let _ = clone.shutdown(Shutdown::Read);
            }),
            Err(_) => Interrupter::noop(),
        }
    }
}

/// One direction of a simulated connection.
struct Pipe {
    buf: VecDeque<u8>,
    closed: bool,
}

struct Channel {
    pipe: Mutex<Pipe>,
    ready: Condvar,
}

impl Channel {
    fn new() -> Arc<Channel> {
        Arc::new(Channel {
            pipe: Mutex::new(Pipe {
                buf: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    fn close(&self) {
        self.pipe.lock().expect("sim pipe lock").closed = true;
        self.ready.notify_all();
    }
}

/// One end of an in-memory duplex connection (see [`sim_pair`]).
///
/// Reads block (condvar) until bytes arrive or the peer closes; writes
/// are atomic — a `write` appends the whole buffer under one lock, so a
/// frame written in one call is never observed half-arrived unless a
/// fault layer tears it deliberately. Dropping an end closes both
/// directions: the peer's pending read returns the remaining bytes then
/// EOF, and the peer's writes fail with `BrokenPipe`.
pub struct SimConn {
    incoming: Arc<Channel>,
    outgoing: Arc<Channel>,
}

/// A connected pair of simulated endpoints: what one end writes, the
/// other reads.
pub fn sim_pair() -> (SimConn, SimConn) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    (
        SimConn {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
        },
        SimConn {
            incoming: a_to_b,
            outgoing: b_to_a,
        },
    )
}

impl SimConn {
    /// Close both directions without dropping the handle.
    pub fn close(&self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        self.close();
    }
}

impl Transport for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut pipe = self.incoming.pipe.lock().expect("sim pipe lock");
        loop {
            if !pipe.buf.is_empty() {
                let n = pipe.buf.len().min(buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = pipe.buf.pop_front().expect("n <= len");
                }
                return Ok(n);
            }
            if pipe.closed {
                return Ok(0);
            }
            pipe = self.incoming.ready.wait(pipe).expect("sim pipe lock");
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut pipe = self.outgoing.pipe.lock().expect("sim pipe lock");
        if pipe.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the simulated connection",
            ));
        }
        pipe.buf.extend(buf.iter().copied());
        self.outgoing.ready.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn interrupter(&self) -> Interrupter {
        let incoming = Arc::clone(&self.incoming);
        Interrupter::new(move || incoming.close())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_pair_round_trips_bytes() {
        let (mut a, mut b) = sim_pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        b.write_all(b"world").unwrap();
        let n = a.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"world");
    }

    #[test]
    fn dropping_one_end_gives_eof_and_broken_pipe() {
        let (mut a, b) = sim_pair();
        drop(b);
        let mut buf = [0u8; 4];
        assert_eq!(a.read(&mut buf).unwrap(), 0, "EOF after peer drop");
        assert_eq!(a.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn buffered_bytes_survive_peer_drop() {
        let (mut a, mut b) = sim_pair();
        a.write_all(b"last words").unwrap();
        drop(a);
        let mut buf = [0u8; 32];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"last words");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn interrupter_unblocks_a_pending_read() {
        let (mut a, _b_keepalive) = sim_pair();
        let interrupt = a.interrupter();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            a.read(&mut buf)
        });
        // Give the reader a moment to block, then interrupt.
        std::thread::sleep(std::time::Duration::from_millis(10));
        interrupt.interrupt();
        let result = reader.join().expect("reader thread");
        assert_eq!(result.unwrap(), 0, "interrupted read reports EOF");
    }

    #[test]
    fn tcp_transport_round_trips_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let mut buf = [0u8; 16];
            let n = t.read(&mut buf).unwrap();
            t.write_all(&buf[..n]).unwrap();
            t.flush().unwrap();
        });
        let mut client = TcpTransport::new(TcpStream::connect(addr).unwrap());
        client.write_all(b"echo?").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 16];
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"echo?");
        server.join().unwrap();
    }
}
