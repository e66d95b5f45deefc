//! ddlf-lockdep — runtime verification of the engine's **own** lock
//! discipline.
//!
//! The paper proves *transactions* deadlock-free at the data level; this
//! crate brings the same rigor to the implementation that executes them.
//! The vendored `parking_lot` shim calls into these hooks (behind its
//! `lockdep` cargo feature) on every mutex acquire, release, and
//! condvar wait, and three checkers run over the stream:
//!
//! 1. **Lock-order validation** (the kernel-lockdep idea): every lock
//!    belongs to a *class* — all shard mutexes are one `shard.state`
//!    class, the WAL's one writer mutex is `wal.log` — and nested
//!    acquisitions accumulate *class-order edges* in a
//!    process-wide graph maintained by the Pearce–Kelly incremental
//!    topological order (`ddlf_model::incremental::IncrementalTopo`).
//!    An edge that would close a cycle is a potential ABBA deadlock,
//!    reported with both acquisition sites and the full held-stack —
//!    even if the schedule that ran never actually deadlocked. One test
//!    run certifies every ordering it reached.
//! 2. **Blocking-section verification**: `wal.rs` and the server brace
//!    their `write(2)`/`fsync`/`accept(2)` regions with
//!    [`blocking_region`] guards; holding a lock class across one is a
//!    violation unless the class is on the explicit `BLOCKING_ALLOW`
//!    list. This machine-checks the WAL's durability invariant: every
//!    `fdatasync` runs with `wal.log` and `wal.group_state` released.
//! 3. **Condvar-wait discipline**: waiting on a condvar while holding a
//!    second, unrelated lock class wedges every thread that needs the
//!    other lock for the whole wait — flagged.
//!
//! Violations are recorded (and logged) as they happen, never panicking
//! inside the hooks — a panic on a worker thread could wedge the very
//! engine under test. Enforcement happens at process exit: with
//! `DDLF_LOCKDEP=fail` any unresolved violation aborts the process (so
//! a full `cargo test --features lockdep` run doubles as a lock-order
//! certification pass); `DDLF_LOCKDEP=warn` (the default when the
//! feature is on) demotes to a logged report; `DDLF_LOCKDEP=off`
//! disables the hooks at runtime.
//!
//! Without the `enabled` cargo feature every entry point is an inline
//! no-op — the default build, which is what every benchmark row
//! measures, pays nothing. The intended global lock hierarchy the order
//! graph checks against is documented in ARCHITECTURE.md ("Lock
//! discipline"); the class names registered at construction sites are
//! the executable form of that table.

use std::fmt;

/// The kind of blocking operation a [`blocking_region`] brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingKind {
    /// A potentially-blocking `write(2)` (WAL buffer flush).
    Write,
    /// An `fsync`/`fdatasync` durability wait.
    Fsync,
    /// A socket `accept(2)` wait in the server front-end.
    Accept,
}

impl BlockingKind {
    /// Bit for this kind in a per-class allow mask.
    pub const fn mask(self) -> u8 {
        match self {
            BlockingKind::Write => 1,
            BlockingKind::Fsync => 2,
            BlockingKind::Accept => 4,
        }
    }
}

/// Enforcement mode, initialized from the `DDLF_LOCKDEP` environment
/// variable (`off` | `warn` | `fail`; default `warn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Hooks return immediately; nothing is recorded.
    Off = 0,
    /// Violations are recorded and logged; process exit is unaffected.
    Warn = 1,
    /// Violations are recorded and logged; any violation still
    /// unresolved at process exit aborts (non-zero status for CI).
    Fail = 2,
}

/// What a [`Violation`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A nested acquisition closed a cycle in the class-order graph
    /// (the classic ABBA inversion, caught structurally).
    OrderInversion,
    /// A thread acquired a second lock of a class it already holds —
    /// two threads doing so against distinct instances can deadlock.
    SameClassNesting,
    /// A lock class not on the allowlist was held across a
    /// [`blocking_region`].
    BlockingHeld,
    /// A condvar wait started while a second lock class was held.
    CondvarHeld,
}

/// One recorded discipline violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which checker fired.
    pub kind: ViolationKind,
    /// The lock classes involved. For [`ViolationKind::OrderInversion`]
    /// this is the cycle `c0 → c1 → … → c0` (first class not repeated);
    /// for the others, the waiting/blocking class first, then the
    /// offending held classes.
    pub classes: Vec<String>,
    /// Fully rendered detail: acquisition sites and held-stacks.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} [{}]: {}",
            self.kind,
            self.classes.join(", "),
            self.message
        )
    }
}

/// Opaque identifier of a lock class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// Rebuilds a class id from its raw index (shim plumbing).
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index of this class (shim plumbing).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Whether a process with `unresolved` violations should abort at exit
/// under `mode`. Factored out so the warn/fail split is unit-testable
/// without actually aborting a test process.
pub fn exit_should_abort(mode: Mode, unresolved: usize) -> bool {
    mode == Mode::Fail && unresolved > 0
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{BlockingKind, ClassId, Mode, Violation, ViolationKind};
    use ddlf_model::incremental::IncrementalTopo;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Mutex, Once, OnceLock}; // lockdep: allow(std-sync) — the validator cannot instrument itself

    /// The blocking allowlist — the executable, row-by-row form of the
    /// ARCHITECTURE.md "Lock discipline" table. A class absent here may
    /// be held across **no** blocking region.
    ///
    /// * `shard.state` — applying a write appends its WAL record under
    ///   the shard mutex, and a buffered append may cross into
    ///   `write(2)` on a capacity boundary; the holder never issues an
    ///   fsync, and since no one holds `wal.log` across one, it never
    ///   waits one out either.
    /// * `wal.log` — the one writer lock serializes append and
    ///   `write(2)`, never an fsync: a `sync` committer releases it
    ///   before its `fdatasync`.
    ///
    /// `wal.group_state` is deliberately absent: the durable mark is a
    /// leaf, and a committer that fsyncs takes one of its two fsync
    /// slots and releases it first (two fsyncs may overlap, each
    /// holding nothing). So are
    /// `template.slot_gate`, `engine.cumulative`, `engine.pool`,
    /// `store.clock` and `server.conns` — and `server.engine`, which is
    /// held only to pin, unpin or swap the engine or to clone its store
    /// handle: a `Submit` runs, a `ReadOnly` scans, and a registration
    /// builds its engine and rotates the WAL directory, holding no
    /// server lock.
    const BLOCKING_ALLOW: &[(&str, u8)] = &[("shard.state", 1), ("wal.log", 1)];

    /// First-witness record for a class-order edge.
    struct EdgeWitness {
        from_site: &'static Location<'static>,
        to_site: &'static Location<'static>,
        thread: String,
    }

    #[derive(Default)]
    struct State {
        /// Class index → name (`anon#N` for unnamed locks).
        names: Vec<String>,
        by_name: HashMap<&'static str, u32>,
        /// Class index → blocking-kind allow mask.
        allow: Vec<u8>,
        topo: IncrementalTopo,
        edges: HashMap<(u32, u32), EdgeWitness>,
        violations: Vec<Violation>,
        /// Dedup keys so a hot loop reports each distinct finding once.
        seen: HashSet<String>,
    }

    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    /// Mode cache: `u8::MAX` = not yet read from the environment.
    static MODE: AtomicU8 = AtomicU8::new(u8::MAX);

    fn state() -> &'static Mutex<State> {
        STATE.get_or_init(|| {
            install_exit_hook();
            Mutex::new(State::default())
        })
    }

    fn lock_state() -> std::sync::MutexGuard<'static, State> {
        state().lock().unwrap_or_else(|p| p.into_inner())
    }

    #[derive(Clone, Copy)]
    struct Held {
        class: u32,
        site: &'static Location<'static>,
    }

    thread_local! {
        /// The acquisition stack of the current thread.
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        /// Active blocking regions of the current thread.
        static REGIONS: RefCell<Vec<(BlockingKind, &'static Location<'static>)>> =
            const { RefCell::new(Vec::new()) };
        /// Total instrumented acquisitions on this thread (any class,
        /// any mode) — lets a test account for every lock a code path
        /// takes by diffing the counter around it.
        static ACQUIRES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Instrumented lock acquisitions performed by the *current thread*
    /// since it started, across every class and regardless of
    /// enforcement mode. The difference across a path is exactly the
    /// number of instrumented locks it took — the machine-checkable
    /// form of "takes these locks and no others" (the read-only
    /// transaction test counts two `store.clock` and one `shard.state`
    /// acquisition per entity this way).
    pub fn thread_acquire_count() -> u64 {
        ACQUIRES.try_with(|c| c.get()).unwrap_or(0)
    }

    fn parse_mode(raw: Option<&str>) -> Mode {
        match raw {
            Some("off") | Some("0") => Mode::Off,
            Some("fail") => Mode::Fail,
            _ => Mode::Warn,
        }
    }

    /// The current enforcement mode (first call reads `DDLF_LOCKDEP`).
    pub fn mode() -> Mode {
        match MODE.load(Ordering::Relaxed) {
            0 => Mode::Off,
            1 => Mode::Warn,
            2 => Mode::Fail,
            _ => {
                let var = std::env::var("DDLF_LOCKDEP").ok();
                let m = parse_mode(var.as_deref());
                set_mode(m);
                m
            }
        }
    }

    /// Overrides the enforcement mode (tests; takes precedence over the
    /// environment from this point on).
    pub fn set_mode(m: Mode) {
        MODE.store(m as u8, Ordering::Relaxed);
    }

    /// Registers (or looks up) the lock class named `name`. All locks
    /// constructed under the same name share one class — that sharing
    /// is what lets a single run certify the ordering of *every* shard
    /// mutex at once.
    pub fn register_class(name: &'static str) -> ClassId {
        let mut st = lock_state();
        if let Some(&id) = st.by_name.get(name) {
            return ClassId::from_raw(id);
        }
        let id = st.topo.add_node() as u32;
        st.names.push(name.to_string());
        let allow = BLOCKING_ALLOW
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0);
        st.allow.push(allow);
        st.by_name.insert(name, id);
        ClassId::from_raw(id)
    }

    /// A fresh per-instance class for a lock constructed without a
    /// name. Unique per call, so two unrelated anonymous locks are
    /// never falsely aliased into one ordering class.
    pub fn anon_class() -> ClassId {
        let mut st = lock_state();
        let id = st.topo.add_node() as u32;
        st.names.push(format!("anon#{id}"));
        st.allow.push(0);
        ClassId::from_raw(id)
    }

    fn thread_label() -> String {
        std::thread::current().name().unwrap_or("?").to_string()
    }

    fn render_stack(stack: &[Held], names: &[String]) -> String {
        let mut out = String::new();
        for h in stack {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&format!("{} @ {}", names[h.class as usize], h.site));
        }
        if out.is_empty() {
            out.push_str("(empty)");
        }
        out
    }

    /// Records `v` unless an equivalent finding (same `key`) was
    /// already seen. Logs immediately in warn and fail modes. Never
    /// panics.
    fn record(st: &mut State, key: String, v: Violation) {
        if !st.seen.insert(key) {
            return;
        }
        eprintln!("[lockdep] {v}");
        st.violations.push(v);
    }

    /// Acquire hook: checks order edges against every currently-held
    /// class, same-class nesting, and active blocking regions, then
    /// pushes onto the held-stack. Called by the `parking_lot` shim
    /// *before* blocking on the lock, so a potential deadlock is
    /// reported even if this very acquisition would hang.
    pub fn on_acquire(class: ClassId, site: &'static Location<'static>) {
        let _ = ACQUIRES.try_with(|c| c.set(c.get() + 1));
        if mode() == Mode::Off {
            return;
        }
        let c = class.raw();
        let snapshot: Vec<Held> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        let regions: Vec<(BlockingKind, &'static Location<'static>)> =
            REGIONS.try_with(|r| r.borrow().clone()).unwrap_or_default();
        if !snapshot.is_empty() || !regions.is_empty() {
            let mut st = lock_state();
            if snapshot.iter().any(|h| h.class == c) {
                let name = st.names[c as usize].clone();
                let msg = format!(
                    "re-acquired class '{name}' at {site} while already holding it \
                     (held stack: {}) on thread '{}'",
                    render_stack(&snapshot, &st.names),
                    thread_label()
                );
                record(
                    &mut st,
                    format!("nest|{name}"),
                    Violation {
                        kind: ViolationKind::SameClassNesting,
                        classes: vec![name],
                        message: msg,
                    },
                );
            }
            for h in &snapshot {
                if h.class == c {
                    continue;
                }
                match st.topo.add_arc(h.class as usize, c as usize) {
                    Ok(true) => {
                        st.edges.insert(
                            (h.class, c),
                            EdgeWitness {
                                from_site: h.site,
                                to_site: site,
                                thread: thread_label(),
                            },
                        );
                    }
                    Ok(false) => {}
                    Err(cycle) => {
                        let classes: Vec<String> =
                            cycle.iter().map(|&i| st.names[i].clone()).collect();
                        let mut msg = format!(
                            "acquiring '{}' at {site} while holding '{}' (acquired at {}) \
                             closes the cycle {} -> {}; held stack: {}; thread '{}'",
                            st.names[c as usize],
                            st.names[h.class as usize],
                            h.site,
                            classes.join(" -> "),
                            classes[0],
                            render_stack(&snapshot, &st.names),
                            thread_label()
                        );
                        // The reverse path already in the graph: name the
                        // first-witness sites of each edge along the cycle
                        // (wrap-around included), so the report shows *both*
                        // acquisition orders. The attempted edge itself was
                        // refused, so it has no stored witness.
                        for i in 0..cycle.len() {
                            let cu = cycle[i];
                            let cv = cycle[(i + 1) % cycle.len()];
                            if let Some(e) = st.edges.get(&(cu as u32, cv as u32)) {
                                msg.push_str(&format!(
                                    "; prior edge {} -> {} first seen on thread '{}' \
                                     ({} then {})",
                                    st.names[cu], st.names[cv], e.thread, e.from_site, e.to_site
                                ));
                            }
                        }
                        let key = format!("cycle|{}", classes.join("->"));
                        record(
                            &mut st,
                            key,
                            Violation {
                                kind: ViolationKind::OrderInversion,
                                classes,
                                message: msg,
                            },
                        );
                    }
                }
            }
            for &(kind, rsite) in &regions {
                if st.allow.get(c as usize).copied().unwrap_or(0) & kind.mask() == 0 {
                    let name = st.names[c as usize].clone();
                    let msg = format!(
                        "acquired '{name}' at {site} inside an active {kind:?} blocking \
                         region entered at {rsite}"
                    );
                    record(
                        &mut st,
                        format!("blockacq|{kind:?}|{name}|{rsite}"),
                        Violation {
                            kind: ViolationKind::BlockingHeld,
                            classes: vec![name],
                            message: msg,
                        },
                    );
                }
            }
        }
        let _ = HELD.try_with(|h| h.borrow_mut().push(Held { class: c, site }));
    }

    /// Release hook: pops the most recent held entry of `class`.
    /// Tolerates out-of-LIFO guard drops and thread-exit teardown.
    pub fn on_release(class: ClassId) {
        if mode() == Mode::Off {
            return;
        }
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|e| e.class == class.raw()) {
                h.remove(i);
            }
        });
    }

    /// Token carrying the held-stack entry a condvar wait released;
    /// handed back to [`condvar_wait_end`] on wakeup.
    pub struct WaitToken {
        entry: Option<Held>,
    }

    /// Condvar wait hook: flags any *other* class held at wait time
    /// (discipline: a wait may hold only the mutex it waits on), then
    /// pops the waited mutex from the held-stack for the duration.
    pub fn condvar_wait_begin(class: ClassId, wait_site: &'static Location<'static>) -> WaitToken {
        if mode() == Mode::Off {
            return WaitToken { entry: None };
        }
        let mut entry = None;
        let mut others: Vec<Held> = Vec::new();
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|e| e.class == class.raw()) {
                entry = Some(h.remove(i));
            }
            others = h.iter().copied().collect();
        });
        if !others.is_empty() {
            let mut st = lock_state();
            let waiting = st.names[class.raw() as usize].clone();
            let mut classes = vec![waiting.clone()];
            classes.extend(others.iter().map(|o| st.names[o.class as usize].clone()));
            let msg = format!(
                "condvar wait on mutex class '{waiting}' at {wait_site} while still \
                 holding: {}; thread '{}'",
                render_stack(&others, &st.names),
                thread_label()
            );
            record(
                &mut st,
                format!("condvar|{}", classes.join("|")),
                Violation {
                    kind: ViolationKind::CondvarHeld,
                    classes,
                    message: msg,
                },
            );
        }
        WaitToken { entry }
    }

    /// Re-pushes the waited mutex after the condvar wait returns (the
    /// wait re-acquired it). No new order edges: if the discipline
    /// check passed, nothing else was held.
    pub fn condvar_wait_end(token: WaitToken) {
        if let Some(e) = token.entry {
            let _ = HELD.try_with(|h| h.borrow_mut().push(e));
        }
    }

    /// RAII marker for a blocking section; see [`blocking_region`].
    pub struct BlockingRegion {
        armed: bool,
    }

    impl Drop for BlockingRegion {
        fn drop(&mut self) {
            if self.armed {
                let _ = REGIONS.try_with(|r| {
                    r.borrow_mut().pop();
                });
            }
        }
    }

    /// Marks the enclosing scope as a blocking section of `kind`.
    /// Every lock class held at entry (and any acquired while the
    /// region is active) must have `kind` in its allow mask.
    #[track_caller]
    pub fn blocking_region(kind: BlockingKind) -> BlockingRegion {
        if mode() == Mode::Off {
            return BlockingRegion { armed: false };
        }
        let site = Location::caller();
        let snapshot: Vec<Held> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        if !snapshot.is_empty() {
            let mut st = lock_state();
            for h in &snapshot {
                if st.allow.get(h.class as usize).copied().unwrap_or(0) & kind.mask() == 0 {
                    let name = st.names[h.class as usize].clone();
                    let msg = format!(
                        "{kind:?} blocking region entered at {site} while holding \
                         '{name}' (acquired at {}); held stack: {}; thread '{}'",
                        h.site,
                        render_stack(&snapshot, &st.names),
                        thread_label()
                    );
                    record(
                        &mut st,
                        format!("block|{kind:?}|{name}|{site}"),
                        Violation {
                            kind: ViolationKind::BlockingHeld,
                            classes: vec![name],
                            message: msg,
                        },
                    );
                }
            }
        }
        let _ = REGIONS.try_with(|r| r.borrow_mut().push((kind, site)));
        BlockingRegion { armed: true }
    }

    /// All registered class names, in registration order.
    pub fn classes() -> Vec<String> {
        lock_state().names.clone()
    }

    /// The observed class-order edges, as `(from, to)` name pairs,
    /// sorted for stable output.
    pub fn edges() -> Vec<(String, String)> {
        let st = lock_state();
        let mut out: Vec<(String, String)> = st
            .edges
            .keys()
            .map(|&(u, v)| (st.names[u as usize].clone(), st.names[v as usize].clone()))
            .collect();
        out.sort();
        out
    }

    /// A copy of the currently recorded violations.
    pub fn violations() -> Vec<Violation> {
        lock_state().violations.clone()
    }

    /// Number of currently recorded violations.
    pub fn violation_count() -> usize {
        lock_state().violations.len()
    }

    /// Drains only the violations all of whose classes start with
    /// `prefix`. Lets a test that *deliberately* provokes a violation
    /// (the ABBA self-test) consume its own finding without masking
    /// anything another test surfaced in the same process.
    pub fn take_violations_with_prefix(prefix: &str) -> Vec<Violation> {
        let mut st = lock_state();
        let (mine, keep): (Vec<Violation>, Vec<Violation>) = std::mem::take(&mut st.violations)
            .into_iter()
            .partition(|v| v.classes.iter().all(|c| c.starts_with(prefix)));
        st.violations = keep;
        mine
    }

    /// Human-readable dump: classes, observed order edges with first
    /// witnesses, and unresolved violations.
    pub fn report() -> String {
        let st = lock_state();
        let mut out = format!(
            "lockdep: {} classes, {} order edges, {} unresolved violation(s), mode {:?}\n",
            st.names.len(),
            st.edges.len(),
            st.violations.len(),
            mode()
        );
        let mut edges: Vec<_> = st.edges.iter().collect();
        edges.sort_by_key(|(&(u, v), _)| (u, v));
        for (&(u, v), w) in edges {
            out.push_str(&format!(
                "  {} -> {}  (first: thread '{}', {} then {})\n",
                st.names[u as usize], st.names[v as usize], w.thread, w.from_site, w.to_site
            ));
        }
        for v in &st.violations {
            out.push_str(&format!("  VIOLATION {v}\n"));
        }
        out
    }

    /// The observed class-order DAG in Graphviz DOT form.
    pub fn dot() -> String {
        let st = lock_state();
        let mut out = String::from("digraph lockorder {\n  rankdir=LR;\n");
        for name in &st.names {
            out.push_str(&format!("  \"{name}\";\n"));
        }
        let mut edges: Vec<_> = st.edges.keys().copied().collect();
        edges.sort_unstable();
        for (u, v) in edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                st.names[u as usize], st.names[v as usize]
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Registers the atexit enforcement hook exactly once. Declared
    /// directly against libc's `atexit` (std already links libc; the
    /// build has no `libc` crate).
    fn install_exit_hook() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            extern "C" {
                fn atexit(cb: extern "C" fn()) -> i32;
            }
            extern "C" fn lockdep_exit() {
                let Some(m) = STATE.get() else { return };
                let unresolved = {
                    let st = m.lock().unwrap_or_else(|p| p.into_inner());
                    st.violations.len()
                };
                if unresolved == 0 {
                    return;
                }
                eprintln!("[lockdep] {unresolved} unresolved violation(s) at process exit:");
                eprint!("{}", report());
                if super::exit_should_abort(mode(), unresolved) {
                    eprintln!("[lockdep] DDLF_LOCKDEP=fail: aborting");
                    std::process::abort();
                }
            }
            // SAFETY: `atexit` is the standard C routine; the callback is a
            // plain `extern "C" fn` with no unwinding (all fallible work is
            // poison-tolerated above).
            unsafe {
                atexit(lockdep_exit);
            }
        });
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::panic::Location;

        /// A distinct `&'static Location` per call site.
        #[track_caller]
        fn here() -> &'static Location<'static> {
            Location::caller()
        }

        #[test]
        fn env_mode_parsing() {
            assert_eq!(parse_mode(Some("off")), Mode::Off);
            assert_eq!(parse_mode(Some("0")), Mode::Off);
            assert_eq!(parse_mode(Some("warn")), Mode::Warn);
            assert_eq!(parse_mode(Some("fail")), Mode::Fail);
            assert_eq!(parse_mode(Some("bogus")), Mode::Warn);
            assert_eq!(parse_mode(None), Mode::Warn);
        }

        #[test]
        fn warn_mode_demotes_fail_mode_aborts() {
            assert!(!super::super::exit_should_abort(Mode::Warn, 3));
            assert!(!super::super::exit_should_abort(Mode::Fail, 0));
            assert!(super::super::exit_should_abort(Mode::Fail, 1));
            assert!(!super::super::exit_should_abort(Mode::Off, 9));
        }

        #[test]
        fn abba_inversion_reports_two_class_cycle_with_both_sites() {
            set_mode(Mode::Warn);
            let a = register_class("selftest.abba.a");
            let b = register_class("selftest.abba.b");
            let (s1, s2, s3, s4) = (here(), here(), here(), here());
            // Thread-order A then B…
            on_acquire(a, s1);
            on_acquire(b, s2);
            on_release(b);
            on_release(a);
            // …then B then A: the second acquisition closes the cycle.
            on_acquire(b, s3);
            on_acquire(a, s4);
            on_release(a);
            on_release(b);
            let v = take_violations_with_prefix("selftest.abba.");
            assert_eq!(v.len(), 1, "exactly one inversion: {v:?}");
            assert_eq!(v[0].kind, ViolationKind::OrderInversion);
            let mut cycle = v[0].classes.clone();
            cycle.sort();
            assert_eq!(
                cycle,
                vec!["selftest.abba.a".to_string(), "selftest.abba.b".to_string()],
                "the witness names exactly the two inverted classes"
            );
            // Both acquisition orders are in the report: the inverting
            // acquisition (s4 while holding s3) and the first-seen edge
            // from the original order (s1 then s2).
            let m = &v[0].message;
            assert!(m.contains(&s4.to_string()), "inverting site: {m}");
            assert!(m.contains(&s3.to_string()), "held site: {m}");
            assert!(m.contains(&s1.to_string()), "prior-edge from-site: {m}");
            assert!(m.contains(&s2.to_string()), "prior-edge to-site: {m}");
            assert!(m.contains("held stack"), "held stack rendered: {m}");
            // Re-running the inverted order re-reports nothing (deduped),
            // and the graph still answers (the bad arc was never added).
            on_acquire(b, here());
            on_acquire(a, here());
            on_release(a);
            on_release(b);
            assert!(take_violations_with_prefix("selftest.abba.").is_empty());
        }

        #[test]
        fn consistent_nesting_is_clean_and_edges_recorded() {
            set_mode(Mode::Warn);
            let a = register_class("selftest.clean.a");
            let b = register_class("selftest.clean.b");
            for _ in 0..3 {
                on_acquire(a, here());
                on_acquire(b, here());
                on_release(b);
                on_release(a);
            }
            assert!(take_violations_with_prefix("selftest.clean.").is_empty());
            assert!(edges().contains(&(
                "selftest.clean.a".to_string(),
                "selftest.clean.b".to_string()
            )));
            let d = dot();
            assert!(d.contains("\"selftest.clean.a\" -> \"selftest.clean.b\""));
        }

        #[test]
        fn blocking_allowlist_admits_wal_writers_only() {
            set_mode(Mode::Warn);
            // `wal.log` is allowlisted for Write: clean.
            let wal = register_class("wal.log");
            on_acquire(wal, here());
            {
                let _r = blocking_region(BlockingKind::Write);
            }
            on_release(wal);
            assert!(take_violations_with_prefix("wal.log").is_empty());

            // …but not for Fsync: the leader fsyncs after releasing it.
            on_acquire(wal, here());
            {
                let _r = blocking_region(BlockingKind::Fsync);
            }
            on_release(wal);
            let v = take_violations_with_prefix("wal.log");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind, ViolationKind::BlockingHeld);

            // An unlisted class across an fsync: violation.
            let c = register_class("selftest.blk.gate");
            on_acquire(c, here());
            {
                let _r = blocking_region(BlockingKind::Fsync);
            }
            on_release(c);
            let v = take_violations_with_prefix("selftest.blk.");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind, ViolationKind::BlockingHeld);
            assert_eq!(v[0].classes, vec!["selftest.blk.gate".to_string()]);
        }

        #[test]
        fn acquiring_inside_active_region_is_flagged() {
            set_mode(Mode::Warn);
            let c = register_class("selftest.blkacq.x");
            {
                let _r = blocking_region(BlockingKind::Accept);
                on_acquire(c, here());
                on_release(c);
            }
            let v = take_violations_with_prefix("selftest.blkacq.");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind, ViolationKind::BlockingHeld);
        }

        #[test]
        fn condvar_wait_holding_second_class_is_flagged() {
            set_mode(Mode::Warn);
            let m = register_class("selftest.cv.m");
            let other = register_class("selftest.cv.other");
            on_acquire(other, here());
            on_acquire(m, here());
            let tok = condvar_wait_begin(m, here());
            condvar_wait_end(tok);
            on_release(m);
            on_release(other);
            let v = take_violations_with_prefix("selftest.cv.");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind, ViolationKind::CondvarHeld);
            assert_eq!(
                v[0].classes,
                vec!["selftest.cv.m".to_string(), "selftest.cv.other".to_string()]
            );

            // The disciplined shape — waiting holding only the waited
            // mutex — is clean, and the stack survives the round trip.
            on_acquire(m, here());
            let tok = condvar_wait_begin(m, here());
            condvar_wait_end(tok);
            on_release(m);
            assert!(take_violations_with_prefix("selftest.cv.").is_empty());
        }

        #[test]
        fn same_class_nesting_is_flagged() {
            set_mode(Mode::Warn);
            let c = register_class("selftest.nest.s");
            on_acquire(c, here());
            on_acquire(c, here());
            on_release(c);
            on_release(c);
            let v = take_violations_with_prefix("selftest.nest.");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind, ViolationKind::SameClassNesting);
        }

        #[test]
        fn anon_classes_are_not_aliased() {
            set_mode(Mode::Warn);
            let a = anon_class();
            let b = anon_class();
            assert_ne!(a, b);
            // a→b then b→a would be an inversion if aliased into one
            // class; as distinct classes it is one (real) inversion too —
            // but nesting the *same* anon pair consistently is clean.
            on_acquire(a, here());
            on_acquire(b, here());
            on_release(b);
            on_release(a);
            assert!(take_violations_with_prefix("anon#").is_empty());
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{BlockingKind, ClassId, Mode, Violation};

    /// No-op stand-in; see the `enabled` build for semantics.
    #[inline(always)]
    pub fn register_class(_name: &'static str) -> ClassId {
        ClassId::from_raw(0)
    }

    /// No-op stand-in; see the `enabled` build for semantics.
    #[inline(always)]
    pub fn anon_class() -> ClassId {
        ClassId::from_raw(0)
    }

    /// Zero-sized stand-in for the region marker.
    pub struct BlockingRegion(());

    /// No-op stand-in; compiles to nothing.
    #[inline(always)]
    pub fn blocking_region(_kind: BlockingKind) -> BlockingRegion {
        BlockingRegion(())
    }

    /// Always [`Mode::Off`] when the feature is disabled.
    #[inline(always)]
    pub fn mode() -> Mode {
        Mode::Off
    }

    /// Always zero when the feature is disabled (no instrumentation).
    #[inline(always)]
    pub fn thread_acquire_count() -> u64 {
        0
    }

    /// No-op stand-in.
    #[inline(always)]
    pub fn set_mode(_m: Mode) {}

    /// Always empty when the feature is disabled.
    #[inline(always)]
    pub fn classes() -> Vec<String> {
        Vec::new()
    }

    /// Always empty when the feature is disabled.
    #[inline(always)]
    pub fn edges() -> Vec<(String, String)> {
        Vec::new()
    }

    /// Always empty when the feature is disabled.
    #[inline(always)]
    pub fn violations() -> Vec<Violation> {
        Vec::new()
    }

    /// Always zero when the feature is disabled.
    #[inline(always)]
    pub fn violation_count() -> usize {
        0
    }

    /// Always empty when the feature is disabled.
    #[inline(always)]
    pub fn take_violations_with_prefix(_prefix: &str) -> Vec<Violation> {
        Vec::new()
    }

    /// Notes that the validator is compiled out.
    pub fn report() -> String {
        "lockdep: disabled (build with `--features lockdep` to instrument)".to_string()
    }

    /// An empty graph when the feature is disabled.
    pub fn dot() -> String {
        "digraph lockorder {\n}\n".to_string()
    }
}

pub use imp::*;

/// Whether this build carries the real validator (`enabled` feature) or
/// the zero-cost stub — lets embedders print a useful hint instead of an
/// empty graph.
pub const ENABLED: bool = cfg!(feature = "enabled");
