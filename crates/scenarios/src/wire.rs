//! The what-if service's wire protocol: length-prefixed JSON frames over
//! any `Read + Write` transport (in practice a `TcpStream`).
//!
//! A frame is a 4-byte big-endian byte length followed by exactly that
//! many bytes of UTF-8 JSON. Requests are objects with a `"verb"` field
//! ([`Verb`] enumerates them); every reply is an object with `"ok"`:
//!
//! ```text
//! {"ok": true,  "response": {...}, ...}          — verb-specific payload
//! {"ok": false, "error": {"kind": "...", "message": "...", ...}}
//! ```
//!
//! Artifacts cross the wire as the server-rendered JSON *text* inside the
//! response object — the client writes those bytes out verbatim, which is
//! what makes server-fetched artifacts byte-identical to CLI-written ones
//! (no client-side re-serialization step exists to disagree).
//!
//! The protocol is versioned by the request schema it carries
//! ([`crate::request::REQUEST_VERSION`]); unknown verbs and malformed
//! frames come back as `"kind": "protocol"` errors rather than hangups,
//! so old clients fail loudly and descriptively.

use crate::error::Error;
use crate::request::{SweepRequest, SweepResponse, SweepStatus};
use crate::service::Submission;
use json::{ToJson, Value};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Ceiling on a single frame, applied by both ends. Generously above any
/// real artifact, but small enough that a corrupt length prefix fails
/// fast instead of attempting a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Ceiling on a request frame, applied by the server. Requests are a verb
/// and a sweep description, never an artifact; a length prefix above this
/// is refused before any of the body is read or allocated.
pub const MAX_REQUEST_BYTES: usize = 1024 * 1024;

/// Write one length-prefixed frame, prefix and body in one vectored write.
///
/// Two writes would put the prefix on the wire alone, and a peer without
/// `TCP_NODELAY` would then hold the body back under Nagle's algorithm
/// until the prefix's delayed ACK came in (~40 ms on Linux). One write
/// leaves the socket nothing to hold, whoever sends.
pub fn write_frame(w: &mut impl Write, text: &str) -> Result<(), Error> {
    if text.len() > MAX_FRAME_BYTES {
        return Err(Error::protocol(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
            text.len()
        )));
    }
    let len = (text.len() as u32).to_be_bytes();
    write_all_vectored(w, &mut [IoSlice::new(&len), IoSlice::new(text.as_bytes())])
        .and_then(|()| w.flush())
        .map_err(|e| Error::io("writing wire frame", e))
}

/// `Write::write_all_vectored`, which std has not stabilised.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame of at most [`MAX_FRAME_BYTES`]; see [`read_frame_limited`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, Error> {
    read_frame_limited(r, MAX_FRAME_BYTES)
}

/// Read one frame of at most `limit` bytes; `Ok(None)` is a clean
/// end-of-stream (peer hung up between frames), anything torn mid-frame is
/// an error. A length prefix over `limit` is a protocol error naming the
/// limit, returned before the body is read or allocated.
pub fn read_frame_limited(r: &mut impl Read, limit: usize) -> Result<Option<String>, Error> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(Error::io("reading wire frame length", e)),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > limit {
        return Err(Error::protocol(format!(
            "incoming frame claims {len} bytes, over the {limit}-byte frame limit"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| Error::io("reading wire frame body", e))?;
    let text =
        String::from_utf8(buf).map_err(|_| Error::protocol("wire frame is not valid UTF-8"))?;
    Ok(Some(text))
}

/// Every operation a client can ask of the service.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Verb {
    /// Enqueue a sweep; replies with the submission receipt.
    Submit(SweepRequest),
    /// Current lifecycle state of one request (no artifact).
    Status(u64),
    /// Block until terminal; `done` replies carry the artifact text.
    Wait(u64),
    /// Drop pending work and skip in-flight jobs of one request.
    Cancel(u64),
    /// Every request this service has seen, in submission order.
    List,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and drain the pool.
    Shutdown,
}

impl Verb {
    fn name(&self) -> &'static str {
        match self {
            Verb::Submit(_) => "submit",
            Verb::Status(_) => "status",
            Verb::Wait(_) => "wait",
            Verb::Cancel(_) => "cancel",
            Verb::List => "list",
            Verb::Ping => "ping",
            Verb::Shutdown => "shutdown",
        }
    }

    pub fn to_value(&self) -> Value {
        let mut fields = vec![("verb".to_string(), Value::Str(self.name().to_string()))];
        match self {
            Verb::Submit(request) => {
                fields.push(("request".to_string(), ToJson::to_value(request)));
            }
            Verb::Status(id) | Verb::Wait(id) | Verb::Cancel(id) => {
                fields.push(("id".to_string(), Value::U64(*id)));
            }
            Verb::List | Verb::Ping | Verb::Shutdown => {}
        }
        Value::Map(fields)
    }

    pub fn from_value(value: &Value) -> Result<Verb, Error> {
        if !matches!(value, Value::Map(_)) {
            return Err(Error::protocol("request frame must be a JSON object"));
        }
        let verb = match value.get("verb") {
            Some(Value::Str(v)) => v.as_str(),
            _ => return Err(Error::protocol("request frame is missing the `verb` field")),
        };
        let id = || match value.get("id") {
            Some(Value::U64(id)) => Ok(*id),
            _ => Err(Error::protocol(format!(
                "`{verb}` needs a numeric `id` field"
            ))),
        };
        match verb {
            "submit" => {
                let request = value
                    .get("request")
                    .ok_or_else(|| Error::protocol("`submit` needs a `request` field"))?;
                Ok(Verb::Submit(SweepRequest::from_value(request)?))
            }
            "status" => Ok(Verb::Status(id()?)),
            "wait" => Ok(Verb::Wait(id()?)),
            "cancel" => Ok(Verb::Cancel(id()?)),
            "list" => Ok(Verb::List),
            "ping" => Ok(Verb::Ping),
            "shutdown" => Ok(Verb::Shutdown),
            other => Err(Error::protocol(format!(
                "unknown verb `{other}` (known verbs: submit, status, wait, cancel, \
                 list, ping, shutdown)"
            ))),
        }
    }
}

/// Stable machine-readable tag for each error variant, carried in the
/// error reply next to the human-readable message. Forwarding a remote
/// error keeps the tag it arrived with.
pub fn error_kind(error: &Error) -> &str {
    match error {
        Error::Sweep(_) => "sweep",
        Error::UnknownScenario { .. } => "unknown_scenario",
        Error::UnknownAxis { .. } => "unknown_axis",
        Error::InvalidRequest { .. } => "invalid_request",
        Error::Cache { .. } => "cache",
        Error::Protocol { .. } => "protocol",
        Error::Io { .. } => "io",
        Error::UnknownRequest { .. } => "unknown_request",
        Error::Busy { .. } => "busy",
        Error::Server { kind, .. } => kind,
    }
}

/// `{"ok": false, "error": {...}}` — the reply for any failed verb.
pub fn error_reply(error: &Error) -> Value {
    Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Map(vec![
                (
                    "kind".to_string(),
                    Value::Str(error_kind(error).to_string()),
                ),
                ("message".to_string(), Value::Str(error.to_string())),
            ]),
        ),
    ])
}

/// `{"ok": true, <payload fields>}`.
pub fn ok_reply(payload: Vec<(String, Value)>) -> Value {
    let mut fields = vec![("ok".to_string(), Value::Bool(true))];
    fields.extend(payload);
    Value::Map(fields)
}

/// The submit reply's payload: the receipt a [`Submission`] becomes.
pub fn submission_to_value(submission: &Submission) -> Vec<(String, Value)> {
    vec![
        ("id".to_string(), Value::U64(submission.id)),
        ("status".to_string(), ToJson::to_value(&submission.status)),
        (
            "warnings".to_string(),
            Value::Seq(
                submission
                    .warnings
                    .iter()
                    .map(|w| Value::Str(w.clone()))
                    .collect(),
            ),
        ),
        (
            "total_jobs".to_string(),
            Value::U64(submission.total_jobs as u64),
        ),
        (
            "cache_hits".to_string(),
            Value::U64(submission.cache_hits as u64),
        ),
        ("deduped".to_string(), Value::Bool(submission.deduped)),
    ]
}

/// Blocking client for one service connection. One outstanding verb at a
/// time (the protocol is strictly request → reply on a connection); open
/// more clients for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, Error> {
        let stream = TcpStream::connect(addr)
            .and_then(|stream| stream.set_nodelay(true).map(|()| stream))
            .map_err(|e| Error::io("connecting to the what-if service", e))?;
        Ok(Client { stream })
    }

    /// One verb round-trip: send the frame, decode the reply, surface
    /// server-side errors as [`Error::Server`].
    fn call(&mut self, verb: &Verb) -> Result<Value, Error> {
        let text = json::to_string(&verb.to_value());
        write_frame(&mut self.stream, &text)?;
        let reply = read_frame(&mut self.stream)?
            .ok_or_else(|| Error::protocol("service hung up before replying"))?;
        let value = json::from_str(&reply)
            .map_err(|e| Error::protocol(format!("malformed reply frame: {e}")))?;
        match value.get("ok") {
            Some(Value::Bool(true)) => Ok(value),
            Some(Value::Bool(false)) => {
                let text = |key: &str| match value.get("error").and_then(|e| e.get(key)) {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                Err(Error::Server {
                    kind: text("kind").unwrap_or_else(|| "error".to_string()),
                    message: text("message").unwrap_or_default(),
                })
            }
            _ => Err(Error::protocol(
                "reply frame must be a JSON object with an `ok` field",
            )),
        }
    }

    /// Decodes the six fields [`submission_to_value`] wrote.
    pub fn submit(&mut self, request: &SweepRequest) -> Result<Submission, Error> {
        let reply = self.call(&Verb::Submit(request.clone()))?;
        let status = reply
            .get("status")
            .ok_or_else(|| Error::protocol("submit reply is missing `status`"))?;
        let warnings = match reply.get("warnings") {
            Some(Value::Seq(items)) => items
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        let num = |key: &str| match reply.get(key) {
            Some(Value::U64(n)) => Ok(*n),
            _ => Err(Error::protocol(format!("submit reply is missing `{key}`"))),
        };
        Ok(Submission {
            id: num("id")?,
            status: SweepStatus::from_value(status)?,
            warnings,
            total_jobs: num("total_jobs")? as usize,
            cache_hits: num("cache_hits")? as usize,
            deduped: matches!(reply.get("deduped"), Some(Value::Bool(true))),
        })
    }

    fn response_verb(&mut self, verb: Verb) -> Result<SweepResponse, Error> {
        let reply = self.call(&verb)?;
        let response = reply
            .get("response")
            .ok_or_else(|| Error::protocol("reply is missing `response`"))?;
        SweepResponse::from_value(response)
    }

    pub fn status(&mut self, id: u64) -> Result<SweepResponse, Error> {
        self.response_verb(Verb::Status(id))
    }

    /// Blocks server-side until the request is terminal.
    pub fn wait(&mut self, id: u64) -> Result<SweepResponse, Error> {
        self.response_verb(Verb::Wait(id))
    }

    pub fn cancel(&mut self, id: u64) -> Result<SweepResponse, Error> {
        self.response_verb(Verb::Cancel(id))
    }

    pub fn list(&mut self) -> Result<Vec<SweepResponse>, Error> {
        let reply = self.call(&Verb::List)?;
        match reply.get("requests") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(SweepResponse::from_value)
                .collect::<Result<Vec<_>, Error>>(),
            _ => Err(Error::protocol("list reply is missing `requests`")),
        }
    }

    pub fn ping(&mut self) -> Result<(), Error> {
        self.call(&Verb::Ping).map(|_| ())
    }

    /// Ask the service to stop accepting connections and drain.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        self.call(&Verb::Shutdown).map(|_| ())
    }
}
