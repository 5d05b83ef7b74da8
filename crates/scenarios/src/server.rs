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

use crate::error::Error;
use crate::service::Service;
use crate::wire::{error_reply, ok_reply, read_frame, submission_to_value, write_frame, Verb};
use serde::{Serialize, Value};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
        // handle on its socket so shutdown can reach a thread blocked in
        // `read_frame`.
        let mut connections: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::Acquire) {
                break;
            }
            connections.retain(|(_, thread)| !thread.is_finished());
            // A failed accept (e.g. the peer vanished mid-handshake) or a
            // socket that cannot be duplicated affects no one else; keep
            // serving.
            let Ok(stream) = stream else { continue };
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
            // An idle connection sits in `read_frame` for as long as its
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

/// Sequentially answer one connection's verbs until it hangs up.
fn serve_connection(
    service: &Service,
    stopping: &AtomicBool,
    server_addr: SocketAddr,
    mut stream: TcpStream,
) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean hangup or a torn frame: either way this connection is
            // done; torn frames can't be answered (no frame boundary).
            Ok(None) | Err(_) => return,
        };
        let reply = answer(service, stopping, server_addr, &frame);
        let text = serde_json::to_string(&reply).expect("value-tree rendering is infallible");
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

/// Decode one verb, run it against the service, encode the reply.
/// Everything that can fail becomes an `{"ok": false}` reply — a
/// protocol-level problem never kills the connection silently.
fn answer(service: &Service, stopping: &AtomicBool, server_addr: SocketAddr, frame: &str) -> Value {
    let verb = match serde_json::from_str(frame)
        .map_err(|e| Error::Protocol {
            message: format!("malformed request frame: {e}"),
        })
        .and_then(|v| Verb::from_value(&v))
    {
        Ok(verb) => verb,
        Err(e) => return error_reply(&e),
    };
    let response_payload =
        |r: crate::request::SweepResponse| vec![("response".to_string(), Serialize::to_value(&r))];
    let result = match verb {
        Verb::Submit(request) => service
            .submit(&request)
            .map(|submission| submission_to_value(&submission)),
        Verb::Status(id) => service.status(id).map(response_payload),
        Verb::Wait(id) => service.wait(id).map(response_payload),
        Verb::Cancel(id) => service.cancel(id).map(response_payload),
        Verb::List => Ok(vec![(
            "requests".to_string(),
            Value::Seq(service.list().iter().map(Serialize::to_value).collect()),
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
