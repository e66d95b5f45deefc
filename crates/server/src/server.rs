//! The blocking TCP server: one accept loop, one worker thread per
//! connection, all feeding the single shared [`Engine`].
//!
//! Connections speak length-prefixed frames ([`ddlf_engine::wire::frame`]),
//! one [`Request`] per frame, answered by exactly one [`Response`]
//! frame. A malformed frame gets a typed [`ErrorKind::BadRequest`] reply
//! rather than a dropped connection, so clients can probe safely.
//!
//! Registration *replaces* the engine (a new system means a new store
//! and a fresh certification); submissions run on the registered engine
//! **concurrently**, each on its own connection's thread, with its
//! admission gates shared across connections, so concurrent clients
//! together still cannot exceed the certified per-template
//! multiprogramming. Nothing else needs them apart: the engine mints
//! every gid (lock holder, wait-die timestamp) from one id space that
//! lasts its lifetime, so instances of different submissions never
//! collide. A
//! `Submit` runs on its connection's thread — the run's first worker —
//! holding no server lock: the engine slot is a mutex held only to pin
//! the engine (clone its `Arc` and count the run in) and to unpin it. A
//! registration announces itself, waits for the pinned runs to drain,
//! and only then builds the new engine and rotates the WAL directory,
//! so it never rotates the log under a run; a `Submit` arriving
//! meanwhile waits and runs on the new engine. A `ReadOnly` request
//! finds its store through the same slot — one brief hold to clone the
//! store handle — so it answers, from the old engine, even while a
//! registration waits; the swap is the only place the store changes.

use crate::proto::{
    ErrorKind, InflateSpec, Registered, Request, Response, RunStats, SnapEntry, SnapshotReply,
    StatsSnapshot,
};
use ddlf_engine::wire::frame;
use ddlf_engine::{Engine, EngineConfig, Telemetry};
use ddlf_lockdep::{blocking_region, BlockingKind};
use ddlf_model::{EntityId, SystemSpec, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server tuning: how registered engines are configured.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// At most this many threads per submission run: the connection
    /// thread that received it plus up to `threads − 1` workers of the
    /// registered engine's persistent pool (see
    /// [`EngineConfig::threads`]).
    pub threads: usize,
    /// Inflation applied when a `RegisterSystem` request asks for
    /// [`InflateSpec::None`] — the `--inflate` flag of `ddlf-audit
    /// serve`. An explicit client request always wins.
    pub default_inflate: InflateSpec,
    /// Engine knobs for registered systems (`threads`/`instances` are
    /// overridden per registration/submission).
    pub engine: EngineConfig,
    /// Write-ahead log directory for registered engines: every
    /// registration rotates it and logs there, so a crashed server can
    /// be replayed with `ddlf-audit recover` (or resumed by restarting
    /// `serve --wal` on the same directory).
    pub wal_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            default_inflate: InflateSpec::None,
            // Wire submissions default to batched admission: a Submit's
            // instances arrive as one pre-declared block, so chunked
            // admission (one gate acquisition + one Begin append per
            // chunk) cuts the per-instance critical sections that made
            // submit-over-TCP measurably slower than a direct
            // `Engine::run` of the same workload. `ddlf-audit run` keeps
            // batch = 1 unless asked (`--admission-batch`).
            engine: EngineConfig {
                admission_batch: 16,
                ..EngineConfig::default()
            },
            wal_dir: None,
        }
    }
}

/// The engine slot behind `server.engine`.
struct Slot {
    /// The registered engine.
    engine: Option<Arc<Engine>>,
    /// Submits pinned to `engine`: running on it, or writing the reply
    /// of a run that did.
    runs: usize,
    /// A registration is waiting for `runs` to drain or building its
    /// engine: new Submits wait for it and run on the engine it
    /// installs.
    registering: bool,
}

struct Shared {
    /// The registered engine, `server.engine`. Held only briefly, and
    /// across nothing — no other lock, no run, no engine build, no I/O:
    /// a `Submit` pins the engine under it ([`Shared::pin`]) and unpins
    /// it after its reply, a `Report` copies the `Arc` out, a `ReadOnly`
    /// clones the engine's store handle, and `RegisterSystem` flips
    /// `registering`, waits for `runs` to reach zero, and later swaps
    /// the engine in.
    engine: Mutex<Slot>,
    /// Signalled when a registration ends, and when the last pinned run
    /// ends while one is waiting. Waiters hold only `server.engine`.
    slot_changed: Condvar,
    /// The telemetry handle every registered engine records into
    /// (registration clones `cfg.engine`, so the handle is shared, not
    /// replaced). Held here so [`Request::Stats`] can digest it without
    /// touching the engine slot — a stats probe must answer even while
    /// a registration waits out in-flight Submits.
    telemetry: Telemetry,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Read-half handles of the *live* connections (keyed by a per-
    /// connection id), so shutdown can unblock workers parked in
    /// `read_frame_into` on idle connections (their next read sees EOF
    /// and the worker exits cleanly). Workers deregister their entry on
    /// exit — retaining it would leak one fd per connection ever
    /// accepted and hold dead peers' sockets half-open.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// Answers one request. A `Submit` also hands back its engine pin,
    /// which the caller drops only after writing the reply.
    fn handle(&self, req: Request) -> (Response, Option<RunPin<'_>>) {
        let resp = match req {
            Request::RegisterSystem { spec_json, inflate } => self.register(&spec_json, inflate),
            Request::Submit { template, count } => return self.submit(&template, count),
            Request::Report => {
                // Copied out first: a `match` on the guard's temporary
                // would hold `server.engine` across the whole arm.
                let engine = self.engine.lock().engine.clone();
                match engine {
                    Some(engine) => {
                        Response::Report(RunStats::from_report(&engine.report_snapshot()))
                    }
                    None => no_system(),
                }
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            // Deliberately lock-free: reads the shared telemetry handle,
            // never the engine lock, so it answers mid-`Submit`. Before
            // any registration the digest is legitimately all zeros.
            Request::Stats => Response::Stats(StatsSnapshot::from_telemetry(&self.telemetry)),
            Request::ReadOnly { entities } => self.read_only(&entities),
        };
        (resp, None)
    }

    /// Answers one read-only transaction over the snapshot path:
    /// `server.engine` is held only to clone the registered engine's
    /// store handle, then the scan reads the version chains under leaf
    /// shard mutexes, one entity at a time. No one holds `server.engine`
    /// for long — a run only pins the engine, and a registration's waits
    /// release it — so a reader observes a committed cut even while a
    /// `Submit` run is mid-flight or a registration waits it out.
    fn read_only(&self, names: &[String]) -> Response {
        // Cloned out first, so the guard drops before the scan.
        let store = self.engine.lock().engine.as_ref().map(|e| e.store_handle());
        let Some(store) = store else {
            return no_system();
        };
        let db = store.db();
        let ids: Vec<EntityId> = if names.is_empty() {
            // Empty request = the whole database, in schema order.
            db.entities().collect()
        } else {
            let mut ids = Vec::with_capacity(names.len());
            for name in names {
                match db.entity_by_name(name) {
                    Some(e) => ids.push(e),
                    None => {
                        return Response::Error {
                            kind: ErrorKind::BadRequest,
                            message: format!("no entity named {name:?}"),
                        }
                    }
                }
            }
            ids
        };
        let snap = store.read_only_snapshot(&ids);
        Response::Snapshot(SnapshotReply {
            ts: snap.ts,
            entries: snap
                .entries
                .iter()
                .map(|e| SnapEntry {
                    name: db.name_of(e.entity).to_string(),
                    commit_ts: e.commit_ts,
                    version: e.version,
                    value: Some(e.value),
                })
                .collect(),
        })
    }

    fn register(&self, spec_json: &str, inflate: InflateSpec) -> Response {
        let spec: SystemSpec = match serde_json::from_str(spec_json) {
            Ok(s) => s,
            Err(e) => {
                return Response::Error {
                    kind: ErrorKind::BadSpec,
                    message: format!("spec parse error: {e}"),
                }
            }
        };
        let sys = match spec.build() {
            Ok(s) => s,
            Err(e) => {
                return Response::Error {
                    kind: ErrorKind::BadSpec,
                    message: format!("spec error: {e}"),
                }
            }
        };
        let requested = if inflate == InflateSpec::None {
            self.cfg.default_inflate
        } else {
            inflate
        };
        // The registry treats a zero-copy inflation as a caller bug and
        // panics; over the wire it is a peer bug, so answer it typed
        // instead of killing the worker. (A zero `Auto` cap is clamped
        // to 1 below.)
        if requested == InflateSpec::Uniform(0) {
            return Response::Error {
                kind: ErrorKind::BadRequest,
                message: "inflation k must be ≥ 1".to_string(),
            };
        }
        // Announce the registration first: a new engine rotates the WAL
        // directory, which must not happen under a run still appending
        // to it, so this waits out every in-flight Submit (and holds new
        // ones off until the swap). The guard ends the registration on
        // every path out, the error path and an unwind included.
        let _registration = self.begin_registration();
        let engine = match Engine::try_with_admission(
            sys,
            requested.admission(self.cfg.threads),
            EngineConfig {
                threads: self.cfg.threads,
                wal_dir: self.cfg.wal_dir.clone(),
                ..self.cfg.engine.clone()
            },
        ) {
            Ok(e) => e,
            // A registration rotates the WAL directory; an unusable
            // directory is an operator-side error the peer should see
            // typed, not a dead worker.
            Err(e) => {
                return Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: format!("WAL directory unusable: {e}"),
                }
            }
        };
        let reply = Registered::from_registry(engine.registry());
        let old = self.engine.lock().engine.replace(Arc::new(engine));
        // No run is pinned to the old engine, so its last drop — here,
        // or on a thread that still holds a copy of the `Arc` (a
        // `Report`, a Submit just unpinned), never under `server.engine`
        // — joins idle pool workers and pushes an already empty log.
        drop(old);
        Response::Registered(reply)
    }

    /// Waits for any other registration to end, marks this one in
    /// progress, and waits until no run is pinned to the current engine.
    fn begin_registration(&self) -> Registration<'_> {
        let mut slot = self.engine.lock();
        while slot.registering {
            self.slot_changed.wait(&mut slot);
        }
        slot.registering = true;
        while slot.runs > 0 {
            self.slot_changed.wait(&mut slot);
        }
        Registration(self)
    }

    /// Pins the registered engine for one run, first waiting out a
    /// registration in progress so the run lands on the engine it
    /// installs. `None` when no system is registered.
    fn pin(&self) -> Option<RunPin<'_>> {
        let mut slot = self.engine.lock();
        while slot.registering {
            self.slot_changed.wait(&mut slot);
        }
        let engine = Arc::clone(slot.engine.as_ref()?);
        slot.runs += 1;
        Some(RunPin {
            shared: self,
            engine,
        })
    }

    /// Runs one submission on this thread and returns its reply with the
    /// run's pin. Pinned, not locked: other connections' Submits run
    /// beside this one, and a registration cannot swap the engine (or
    /// rotate its WAL) until the pin drops — after the reply is written,
    /// so a registration that waited for this run also replies after it.
    fn submit(&self, template: &str, count: u32) -> (Response, Option<RunPin<'_>>) {
        let Some(pin) = self.pin() else {
            return (no_system(), None);
        };
        let engine = &pin.engine;
        let sys = engine.registry().system();
        let mix: Vec<(TxnId, usize)> = if template.is_empty() {
            engine.uniform_mix(count as usize)
        } else {
            match sys.iter().find(|(_, txn)| txn.name() == template) {
                Some((t, _)) => vec![(t, count as usize)],
                None => {
                    let err = Response::Error {
                        kind: ErrorKind::UnknownTemplate,
                        message: format!("no template named {template:?}"),
                    };
                    return (err, None);
                }
            }
        };
        let resp = Response::Submitted(RunStats::from_report(&engine.run_mix(&mix)));
        (resp, Some(pin))
    }
}

/// A registration in progress ([`Shared::begin_registration`]); dropping
/// it ends the registration and wakes the Submits and registrations
/// waiting for that.
struct Registration<'a>(&'a Shared);

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.0.engine.lock().registering = false;
        self.0.slot_changed.notify_all();
    }
}

/// One run's hold on the registered engine ([`Shared::pin`]); dropping
/// it — on every path out of the run, an unwind included — counts the
/// run out and, if it was the last one a registration waits for, wakes
/// that registration.
struct RunPin<'a> {
    shared: &'a Shared,
    engine: Arc<Engine>,
}

impl Drop for RunPin<'_> {
    fn drop(&mut self) {
        let mut slot = self.shared.engine.lock();
        slot.runs -= 1;
        if slot.runs == 0 && slot.registering {
            drop(slot);
            self.shared.slot_changed.notify_all();
        }
    }
}

/// Removes a connection's registered read-half handle when its worker
/// exits, however it exits.
struct Deregister {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Deregister {
    fn drop(&mut self) {
        self.shared.conns.lock().remove(&self.id);
    }
}

fn no_system() -> Response {
    Response::Error {
        kind: ErrorKind::NoSystem,
        message: "register a system first".to_string(),
    }
}

/// A bound-but-not-yet-serving TCP front-end over one [`Engine`] slot.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        Self::bind_with(addr, cfg, None)
    }

    /// [`Server::bind`] with an engine pre-installed — the recovery path
    /// of `ddlf-audit serve --wal`, where the WAL of a previous process
    /// has already been replayed into `engine`. A later `RegisterSystem`
    /// replaces it (and rotates the WAL) as usual.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        engine: Option<Engine>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine: Mutex::new_named(
                    "server.engine",
                    Slot {
                        engine: engine.map(Arc::new),
                        runs: 0,
                        registering: false,
                    },
                ),
                slot_changed: Condvar::new(),
                telemetry: cfg.engine.telemetry.clone(),
                cfg,
                shutdown: AtomicBool::new(false),
                addr,
                conns: Mutex::new_named("server.conns", HashMap::new()),
            }),
        })
    }

    /// The bound address (read this after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a [`Request::Shutdown`] arrives, then drains: every
    /// connection worker is **joined** before this returns, so a request
    /// that was executing when shutdown arrived still completes and gets
    /// its reply. Workers parked on idle connections are unblocked by
    /// shutting down their socket's read half (their client sees a
    /// normal close).
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::new();
        let mut next_conn_id = 0u64;
        loop {
            // The accept wait is a lockdep blocking region: the accept
            // loop must hold no lock while parked in the kernel (no
            // class is Accept-allowlisted), or a stalled client could
            // wedge every worker behind it.
            let conn = {
                let _accept = blocking_region(BlockingKind::Accept);
                self.listener.accept()
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok((s, _peer)) => s,
                Err(e) => {
                    eprintln!("ddlf-server: accept error: {e}");
                    continue;
                }
            };
            // Request/reply traffic is latency-bound small frames;
            // leaving Nagle on costs a delayed-ACK stall per round-trip.
            let _ = stream.set_nodelay(true);
            // Finished workers' handles are dead weight; reap them so a
            // long-lived server does not accumulate one per connection
            // ever accepted. (Dropping a finished handle just detaches
            // an already-exited thread.)
            workers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let conn_id = next_conn_id;
            next_conn_id += 1;
            if let Ok(handle) = stream.try_clone() {
                self.shared.conns.lock().insert(conn_id, handle);
            }
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || {
                // Deregister on every exit path (including an unwind):
                // a stale entry would hold the peer's socket half-open,
                // so the client never sees EOF and hangs.
                let _dereg = Deregister {
                    shared: Arc::clone(&shared),
                    id: conn_id,
                };
                if let Err(e) = serve_connection(stream, &shared) {
                    // Peer went away mid-frame; their problem, not fatal.
                    eprintln!("ddlf-server: connection error: {e}");
                }
            }));
        }
        // Unblock workers waiting for a next request that will never
        // come; a worker mid-request is left alone — the join below
        // waits for it to finish executing and reply. Drain the map
        // under the lock but issue the socket syscalls *outside* it:
        // every exiting worker's `Deregister` takes `server.conns` too,
        // and holding it across kernel calls would stall their teardown
        // behind the network stack (lockdep shutdown-path audit).
        let idle: Vec<(u64, TcpStream)> = self.shared.conns.lock().drain().collect();
        for (_, conn) in &idle {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Drains one connection: read a frame, decode, handle, reply, repeat
/// until clean EOF. Requests are read through one [`BufReader`] over the
/// socket, so a frame that arrived whole costs one `read(2)`, not one
/// for its prefix and one for its payload, and frames a client sent
/// back to back are answered in order from the same buffer. One payload
/// buffer and one write buffer serve every frame of the connection, so
/// a steady exchange allocates nothing to frame. On `Shutdown`, also
/// wakes the accept loop so [`Server::run`] returns.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(&stream);
    let (mut rbuf, mut wbuf) = (Vec::new(), Vec::new());
    while frame::read_frame_into(&mut reader, &mut rbuf)? {
        let (resp, pin) = match Request::decode(&rbuf) {
            Some(req) => shared.handle(req),
            None => {
                let err = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: "frame did not decode to a request".to_string(),
                };
                (err, None)
            }
        };
        wbuf.clear();
        frame::put_frame(&mut wbuf, |b| resp.encode_into(b))?;
        (&stream).write_all(&wbuf)?;
        // A Submit unpins its engine only now that its reply is out, so
        // a registration that waited for the run replies after it.
        drop(pin);
        if matches!(resp, Response::ShuttingDown) {
            // The accept loop is parked in `accept`; poke it so it
            // observes the flag and exits.
            let _ = TcpStream::connect(shared.addr);
            break;
        }
    }
    Ok(())
}
