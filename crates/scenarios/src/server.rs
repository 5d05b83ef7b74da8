//! The TCP front of the what-if service: a thread-per-connection accept
//! loop speaking the [`crate::wire`] protocol over one shared
//! [`Service`].
//!
//! Connections are independent and verbs on one connection are strictly
//! sequential (request → reply), but *across* connections everything is
//! concurrent: N clients submitting at once all fan into the service's
//! one injector and interleave there. A `wait` verb blocks only its own
//! connection thread.
//!
//! Shutdown is cooperative: the `shutdown` verb flips a flag, then pokes
//! the listener with a loopback connect so the blocking `accept` wakes up
//! and the loop exits; [`Server::run`] then closes the read half of every
//! connection still open, joins their threads, and drains the pool by
//! dropping the service. In-flight connections get their current verb
//! answered, idle ones see a hangup; later verbs fail with a closed socket,
//! which clients surface as I/O errors.
//!
//! Request frames are capped at [`MAX_REQUEST_BYTES`], far below the
//! artifact-sized [`crate::wire::MAX_FRAME_BYTES`] clients read with: a
//! larger length claim gets a `protocol` error naming the limit and a
//! hangup, and none of its body is read or allocated.
//!
//! Accepted sockets set `TCP_NODELAY`, and [`write_frame`] hands a frame to
//! the socket in one write, so no reply waits on Nagle's algorithm for the
//! client's delayed ACK.
//!
//! At most [`MAX_CONNECTIONS`] connections are served at once. One more
//! gets a single `busy` error frame and a hangup, and no thread.
//!
//! A connection may sit idle between frames for as long as it likes, but
//! once a request frame's first byte arrives, the rest of the frame must
//! arrive within [`FRAME_TIMEOUT`] or the server hangs up. A client that
//! sends half a frame and stalls holds its slot for that long, not forever.

use crate::error::Error;
use crate::service::Service;
use crate::wire::{
    error_reply, ok_reply, read_frame_limited, submission_to_value, write_frame, Verb,
    MAX_REQUEST_BYTES,
};
use json::{ToJson, Value};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on connections served at once, each on its own thread.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a request frame may take to arrive, counted from its first
/// byte. Idle time between frames is not bounded.
pub const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// One listening what-if service endpoint.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    stopping: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener (pass port 0 to let the OS pick, then read
    /// [`Server::local_addr`]). The service is shared by every connection.
    pub fn bind(service: Service, addr: impl ToSocketAddrs) -> Result<Server, Error> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::io("binding the what-if service listener", e))?;
        Ok(Server {
            listener,
            service: Arc::new(service),
            stopping: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> Result<SocketAddr, Error> {
        self.listener
            .local_addr()
            .map_err(|e| Error::io("reading the listener address", e))
    }

    /// Accept connections until a `shutdown` verb arrives, then drain the
    /// worker pool and return. Blocks the calling thread for the server's
    /// whole life.
    pub fn run(self) -> Result<(), Error> {
        let addr = self.local_addr()?;
        // Every connection still being served: its thread, and a second
        // handle on its socket so shutdown can reach a thread blocked
        // reading its next frame.
        let mut connections: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::Acquire) {
                break;
            }
            connections.retain(|(_, thread)| !thread.is_finished());
            // A failed accept (e.g. the peer vanished mid-handshake) or a
            // socket that cannot be duplicated affects no one else; keep
            // serving.
            let Ok(mut stream) = stream else { continue };
            // Replies go out as soon as they are written; a socket that
            // refuses the option still works, only slower.
            let _ = stream.set_nodelay(true);
            if connections.len() >= MAX_CONNECTIONS {
                // Refuse before reading anything; dropping `stream` hangs up.
                let busy = Error::Busy {
                    limit: MAX_CONNECTIONS,
                };
                let _ = write_frame(&mut stream, &error_text(&busy));
                continue;
            }
            let Ok(socket) = stream.try_clone() else {
                continue;
            };
            let service = Arc::clone(&self.service);
            let stopping = Arc::clone(&self.stopping);
            let thread = std::thread::spawn(move || {
                serve_connection(&service, &stopping, addr, stream);
            });
            connections.push((socket, thread));
        }
        for (socket, thread) in connections {
            // An idle connection waits for its next frame for as long as its
            // client stays connected; end-of-stream on the read half sends
            // it home. The write half stays open, so a verb in flight still
            // gets its reply.
            let _ = socket.shutdown(Shutdown::Read);
            let _ = thread.join();
        }
        // Dropping the service joins the pool — in-flight sweeps drain.
        Ok(())
    }
}

/// The rendered `{"ok": false}` reply frame for `error`.
fn error_text(error: &Error) -> String {
    json::to_string(&error_reply(error))
}

/// Sequentially answer one connection's verbs until it hangs up.
fn serve_connection(
    service: &Service,
    stopping: &AtomicBool,
    server_addr: SocketAddr,
    mut stream: TcpStream,
) {
    loop {
        let frame = match read_request(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            // Hang up: after a bad or unfinished frame there is no frame
            // boundary to answer at. An oversize length claim or a
            // non-UTF-8 body is told why first; a torn frame or one that
            // missed `FRAME_TIMEOUT` is not. (`Server::run` holds a second
            // handle, so dropping this one alone would not close the
            // socket.)
            Err(e) => {
                if matches!(e, Error::Protocol { .. }) {
                    let _ = write_frame(&mut stream, &error_text(&e));
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let reply = answer(service, stopping, server_addr, &frame);
        let text = json::to_string(&reply);
        if write_frame(&mut stream, &text).is_err() {
            return;
        }
        // A stopping server answers the current verb, then hangs up rather
        // than wait for the next one. (A connection with no verb in flight
        // never gets here; `Server::run` closes its read half instead.)
        if stopping.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Read one request frame: wait as long as it takes for its first byte,
/// then give the rest [`FRAME_TIMEOUT`]. `Ok(None)` is a hangup between
/// frames.
fn read_request(stream: &mut TcpStream) -> Result<Option<String>, Error> {
    let mut first = [0u8; 1];
    stream
        .set_read_timeout(None)
        .map_err(|e| Error::io("clearing the read timeout", e))?;
    match stream.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(Error::io("reading wire frame length", e)),
    }
    let rest = Deadline {
        stream,
        deadline: Instant::now() + FRAME_TIMEOUT,
    };
    read_frame_limited(&mut first.as_slice().chain(rest), MAX_REQUEST_BYTES)
}

/// A socket reader that fails with `TimedOut` once `deadline` has passed,
/// however the bytes before it trickled in.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Decode one verb, run it against the service, encode the reply.
/// Everything that can fail becomes an `{"ok": false}` reply — a
/// protocol-level problem never kills the connection silently.
fn answer(service: &Service, stopping: &AtomicBool, server_addr: SocketAddr, frame: &str) -> Value {
    let verb = match json::from_str(frame)
        .map_err(|e| Error::Protocol {
            message: format!("malformed request frame: {e}"),
        })
        .and_then(|v| Verb::from_value(&v))
    {
        Ok(verb) => verb,
        Err(e) => return error_reply(&e),
    };
    let response_payload =
        |r: crate::request::SweepResponse| vec![("response".to_string(), ToJson::to_value(&r))];
    let result = match verb {
        Verb::Submit(request) => service
            .submit(&request)
            .map(|submission| submission_to_value(&submission)),
        Verb::Status(id) => service.status(id).map(response_payload),
        Verb::Wait(id) => service.wait(id).map(response_payload),
        Verb::Cancel(id) => service.cancel(id).map(response_payload),
        Verb::List => Ok(vec![(
            "requests".to_string(),
            Value::Seq(service.list().iter().map(ToJson::to_value).collect()),
        )]),
        Verb::Ping => Ok(vec![("pong".to_string(), Value::Bool(true))]),
        Verb::Shutdown => {
            stopping.store(true, Ordering::Release);
            // Wake the blocking accept so the run loop can observe the
            // flag; the ephemeral connection is dropped immediately.
            let _ = TcpStream::connect(server_addr);
            Ok(vec![("stopping".to_string(), Value::Bool(true))])
        }
    };
    match result {
        Ok(payload) => ok_reply(payload),
        Err(e) => error_reply(&e),
    }
}
