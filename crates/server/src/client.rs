//! The typed client: connect, framed round-trips, reconnect-on-EOF.
//!
//! A [`Client`] owns one TCP connection and remembers its address, and
//! frames every request into, and reads every reply from, two buffers it
//! keeps for its lifetime (reconnects included). Replies are read
//! through a [`BufReader`] over the connection, so a reply that arrived
//! whole costs one `read(2)`. When
//! a round-trip fails because the connection died (a send error, or EOF
//! where a reply was due), the client reconnects once and — for
//! *idempotent* requests (`Report`, `Shutdown`, `RegisterSystem`) —
//! resends. A `Submit` whose reply was lost is **not** resent: the
//! server may have executed it, and re-running transactions is not the
//! client's call to make. That failure surfaces as
//! [`ClientError::ReplyLost`] so callers can decide.

use crate::proto::{
    ErrorKind, InflateSpec, Registered, Request, Response, RunStats, SnapshotReply, StatsSnapshot,
};
use ddlf_engine::wire::frame;
use std::fmt;
use std::io::{self, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client-side failure of one round-trip.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, send, or receive).
    Io(io::Error),
    /// The reply frame did not decode, or was the wrong variant for the
    /// request.
    Protocol(String),
    /// The server rejected the request with a typed error.
    Server {
        /// Typed rejection cause.
        kind: ErrorKind,
        /// Human detail.
        message: String,
    },
    /// The connection died after a non-idempotent request was sent but
    /// before its reply arrived; the request may or may not have
    /// executed.
    ReplyLost,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            ClientError::ReplyLost => write!(
                f,
                "connection lost awaiting a non-idempotent reply; the request may have executed"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn is_idempotent(req: &Request) -> bool {
    // Submit runs transactions; everything else only (re)states intent.
    !matches!(req, Request::Submit { .. })
}

/// A connected wire-protocol client.
pub struct Client {
    addr: String,
    /// The connection, read through a buffer and written through
    /// `get_mut()`; a reconnect replaces both.
    stream: BufReader<TcpStream>,
    /// The outgoing frame, encoded in place; reused across requests and
    /// reconnects.
    wbuf: Vec<u8>,
    /// The incoming frame's payload; reused likewise.
    rbuf: Vec<u8>,
}

impl Client {
    fn new(addr: String, stream: TcpStream) -> Client {
        let _ = stream.set_nodelay(true);
        Client {
            addr,
            stream: BufReader::new(stream),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        }
    }

    /// Connects to a running server.
    pub fn connect(addr: impl Into<String>) -> io::Result<Client> {
        let addr = addr.into();
        let stream = TcpStream::connect(&addr)?;
        Ok(Client::new(addr, stream))
    }

    /// [`connect`](Client::connect), retrying with a small backoff until
    /// `deadline` elapses — for racing a server that is still binding
    /// (the CI smoke test starts both processes concurrently).
    pub fn connect_retry(addr: impl Into<String>, deadline: Duration) -> io::Result<Client> {
        let addr = addr.into();
        let started = Instant::now();
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => return Ok(Client::new(addr, stream)),
                Err(e) if started.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// The address this client (re)connects to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        self.stream = BufReader::new(stream);
        Ok(())
    }

    /// One send on the current connection. `Ok(None)` = the connection
    /// is dead (EOF where a reply was due, or a send error of the
    /// disconnect family).
    fn try_round_trip(&mut self, req: &Request) -> io::Result<Option<Response>> {
        self.wbuf.clear();
        frame::put_frame(&mut self.wbuf, |b| req.encode_into(b))?;
        match self.stream.get_mut().write_all(&self.wbuf) {
            Ok(()) => {}
            Err(e) if is_disconnect(&e) => return Ok(None),
            Err(e) => return Err(e),
        }
        match frame::read_frame_into(&mut self.stream, &mut self.rbuf) {
            Ok(true) => Ok(Some(Response::decode(&self.rbuf).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "undecodable reply frame")
            })?)),
            Ok(false) => Ok(None),
            Err(e) if is_disconnect(&e) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// One request/reply exchange, with the reconnect policy applied.
    pub fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.try_round_trip(req) {
            Ok(Some(resp)) => return Ok(resp),
            Ok(None) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => return Err(ClientError::Io(e)),
        }
        // The connection died under this exchange.
        if !is_idempotent(req) {
            return Err(ClientError::ReplyLost);
        }
        self.reconnect()?;
        match self.try_round_trip(req) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "server closed the connection twice in a row",
            ))),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    fn expect_error(resp: Response, want: &str) -> ClientError {
        match resp {
            Response::Error { kind, message } => ClientError::Server { kind, message },
            other => ClientError::Protocol(format!("expected {want}, got {other:?}")),
        }
    }

    /// Registers a system from its spec JSON; returns the admission
    /// verdict and certified plan.
    pub fn register(
        &mut self,
        spec_json: &str,
        inflate: InflateSpec,
    ) -> Result<Registered, ClientError> {
        let req = Request::RegisterSystem {
            spec_json: spec_json.to_string(),
            inflate,
        };
        match self.round_trip(&req)? {
            Response::Registered(r) => Ok(r),
            other => Err(Self::expect_error(other, "Registered")),
        }
    }

    /// Runs `count` instances of `template` (empty = round-robin over
    /// all templates) and returns that run's counters.
    pub fn submit(&mut self, template: &str, count: u32) -> Result<RunStats, ClientError> {
        let req = Request::Submit {
            template: template.to_string(),
            count,
        };
        match self.round_trip(&req)? {
            Response::Submitted(stats) => Ok(stats),
            other => Err(Self::expect_error(other, "Submitted")),
        }
    }

    /// Submits `count` instances round-robin over every template.
    pub fn submit_all(&mut self, count: u32) -> Result<RunStats, ClientError> {
        self.submit("", count)
    }

    /// Reads the cumulative report without running anything.
    pub fn report(&mut self) -> Result<RunStats, ClientError> {
        match self.round_trip(&Request::Report)? {
            Response::Report(stats) => Ok(stats),
            other => Err(Self::expect_error(other, "Report")),
        }
    }

    /// Reads the server's live telemetry digest without running (or
    /// waiting for) anything: the server answers from its lock-free
    /// telemetry handle even while another connection's `Submit` holds
    /// the engine for a long run. All zeros (no phases, no templates)
    /// means the server runs with telemetry disabled or nothing is
    /// registered yet.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::expect_error(other, "Stats")),
        }
    }

    /// Runs one read-only transaction: a committed multiversion cut of
    /// the named entities (empty = the whole database, schema order).
    /// Idempotent and served off the read-only snapshot path, so it
    /// answers even while another connection's `Submit` holds the
    /// engine for a long run.
    pub fn read(&mut self, entities: &[String]) -> Result<SnapshotReply, ClientError> {
        let req = Request::ReadOnly {
            entities: entities.to_vec(),
        };
        match self.round_trip(&req)? {
            Response::Snapshot(snap) => Ok(snap),
            other => Err(Self::expect_error(other, "Snapshot")),
        }
    }

    /// Asks the server to exit its accept loop.
    ///
    /// Shutdown is idempotent and its goal is the server being down, so
    /// losing the race to the server counts as success: a retry whose
    /// reconnect is refused, or whose fresh connection the draining
    /// server closes unreplied, returns `Ok(())`.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => Ok(()),
            Ok(other) => Err(Self::expect_error(other, "ShuttingDown")),
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused | io::ErrorKind::ConnectionReset
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}
