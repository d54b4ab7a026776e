//! An in-memory duplex connection for the serving loop.
//!
//! [`crate::server::serve_connection`] serves any byte stream that is
//! [`Read`] + [`Write`]: an accepted [`std::net::TcpStream`] in
//! production, and in tests a [`SimConn`] from [`sim_pair`] — two byte
//! pipes guarded by mutex+condvar. Deterministic, instant, and
//! composable with the fault layer ([`crate::fault`]), it is what the
//! chaos suite runs the real serving loop against.
//!
//! The same [`crate::wire::FrameBuffer`] handles line reassembly on every
//! stream, so torn frames behave identically on TCP and in simulation.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

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
/// Reads block (condvar) until bytes arrive or the connection closes;
/// writes are atomic — a `write` appends the whole buffer under one
/// lock, so a frame written in one call is never observed half-arrived
/// unless a fault layer tears it deliberately. Dropping an end, or
/// calling its [`SimConn::closer`], closes both directions: a pending
/// read on either end returns the remaining bytes then EOF, and later
/// writes fail with `BrokenPipe`.
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
    /// A handle that closes both directions from any thread, unblocking
    /// reads pending on either end — the hook for
    /// [`crate::fault::FaultedTransport::on_kill`].
    pub fn closer(&self) -> impl Fn() + Send + Sync + 'static {
        let incoming = Arc::clone(&self.incoming);
        let outgoing = Arc::clone(&self.outgoing);
        move || {
            incoming.close();
            outgoing.close();
        }
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

impl Read for SimConn {
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
}

impl Write for SimConn {
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
    fn closer_unblocks_pending_reads_on_both_ends() {
        let (mut a, mut b) = sim_pair();
        let close = a.closer();
        let readers = [
            std::thread::spawn(move || a.read(&mut [0u8; 4])),
            std::thread::spawn(move || b.read(&mut [0u8; 4])),
        ];
        // Give the readers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        close();
        for reader in readers {
            let result = reader.join().expect("reader thread");
            assert_eq!(result.unwrap(), 0, "closed read reports EOF");
        }
    }
}
