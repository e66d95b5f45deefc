//! Incremental streaming `D(S)` audit — the online counterpart of
//! [`Schedule::validate`](crate::Schedule::validate) +
//! [`Schedule::conflict_digraph`](crate::Schedule::conflict_digraph).
//!
//! The batch audit re-projects the whole event log, re-validates it step
//! by step, and rebuilds the full conflict digraph on every report —
//! quadratic in committed instances, because `D(S)` as defined in §2
//! carries an arc `Tᵢ → Tⱼ` for *every* pair locking an entity in that
//! order (`n` lockers of one entity ⇒ `Θ(n²)` arcs). This module
//! maintains the same verdict **online**:
//!
//! * per-entity **lock chains** record only *adjacent* lockers — the
//!   chain arcs have the same transitive closure as the batch graph's
//!   all-pairs arcs, so acyclicity (and every cycle, up to shortcutting)
//!   is preserved while the arc count drops from `Θ(n²)` to `Θ(n)`;
//! * cycles are detected by **incremental topological-order
//!   maintenance** in the style of Pearce & Kelly (*A Dynamic
//!   Topological Sort Algorithm for Directed Acyclic Graphs*, JEA 2006):
//!   inserting an arc that already respects the current order is `O(1)`;
//!   only an arc landing "backwards" re-walks the affected region
//!   between the two endpoints' positions.
//!
//! ## Complexity contract
//!
//! Per committed event the auditor pays one gid lookup, a chain lookup
//! and the Pearce–Kelly insertion, whose cost is bounded by the size of
//! the *affected region* of the new arc. Each entity's chain is a `Vec`
//! sorted by event time, indexed by entity: a commit that follows lock
//! order (every engine run; every WAL replay) appends at its tail, and a
//! late commit inserts mid-chain at its `partition_point`, paying a move
//! of the entries behind it. An instance's undecided events wait in one
//! flat `Vec`; its lock times and merged-node bits are one short run of
//! words in an arena shared by all instances, a lock time found by
//! binary search over the template's sorted entities (`O(log k)` for `k`
//! entities). The amortized cost per event is therefore effectively
//! constant; the worst case per arc is `O(v log v)` for an affected
//! region of `v` vertices. A full audit of `n` instances is
//! `O(n log n)`-ish instead of the batch `Θ(n²)` — the difference between
//! a 20k-instance recovery taking minutes and taking well under a second
//! (the harness measures it as `model.audit_us_per_commit` and
//! `engine.wal.recover_us_per_commit`).
//!
//! The hashed tables — gid → instance slot, the arc set, the reorder's
//! visited sets — key on small integers and hash them with one
//! Fx-style multiply-rotate, not SipHash. Vertices are the auditor's
//! own; gids are minted by the engine, or read back from its own log by
//! recovery, where a crafted log could make gids collide and slow the
//! audit down, never change its verdict. [`StreamingAuditor::clear`]
//! empties the auditor for its next epoch but keeps the capacity of
//! every table — each instance slot's event buffer and each chain
//! included — so an auditor that has seen an epoch of a given shape
//! audits the next one without allocating.
//!
//! The batch audit ([`CommittedProjection::audit`](crate::CommittedProjection::audit))
//! stays in the tree as the **oracle**: proptests drive
//! random certified and wait-die histories (with retries and rollbacks)
//! through both and assert verdict equality, and the engine cross-checks
//! every run's streaming verdict against the batch verdict in debug
//! builds.
//!
//! ## Committed-attempt projection
//!
//! The subtle input case is a wait-die history: events of attempts that
//! later abort must contribute *nothing* (their locks were released and
//! their writes rolled back), yet at event time nobody knows whether the
//! attempt will commit. [`StreamingAuditor`] therefore buffers events
//! per `(instance, attempt)` and only merges an attempt into the chains
//! and the conflict graph when [`commit`](StreamingAuditor::commit)
//! arrives; [`abort`](StreamingAuditor::abort) drops the buffer. Merge
//! time preserves *event* time (the auditor's arrival clock), so an
//! instance that committed late still takes its true place in every
//! lock chain — committing out of order cannot flip an arc.

use crate::error::ModelError;
use crate::ids::{GlobalNode, NodeId, TxnId};
use crate::system::TransactionSystem;
use crate::txn::Transaction;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// The workspace's hasher for small integer keys (gids, vertex indices,
/// packed arcs, entity and instance ids): the Fx multiply-rotate, with
/// the final rotation moving the well-mixed high bits of the product
/// down to where the table picks its bucket. Not DoS-resistant — use it
/// only for keys the program mints itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

/// The [`std::hash::BuildHasher`] of [`IntHasher`]:
/// `HashMap<K, V, IntBuild>`.
pub type IntBuild = BuildHasherDefault<IntHasher>;

impl IntHasher {
    fn add(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A directed graph that maintains a topological order of its vertices
/// under arc insertion (Pearce–Kelly), reporting a cycle witness the
/// moment an insertion would create one — the rejected arc is *not*
/// added, so the structure stays a DAG and keeps answering.
#[derive(Debug, Default, Clone)]
pub struct IncrementalTopo {
    /// Adjacency lists; entries past the vertex count keep their
    /// capacity for the vertices added after a [`clear`](Self::clear).
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
    /// `pos[v]` is `v`'s position in the maintained topological order: a
    /// permutation of `0..len` with `pos[u] < pos[v]` for every arc
    /// `u → v`. Its length is the vertex count.
    pos: Vec<u32>,
    /// Arc dedup: `u << 32 | v` for every present arc.
    arcs: HashSet<u64, IntBuild>,
    /// The reorder's working storage, kept between insertions.
    scratch: Reorder,
}

/// [`IncrementalTopo::reorder`]'s scratch: emptied, never freed.
#[derive(Debug, Default, Clone)]
struct Reorder {
    fwd: Vec<usize>,
    bwd: Vec<usize>,
    stack: Vec<usize>,
    /// Forward-search tree (the root is its own parent); also the
    /// forward visited set.
    parent: HashMap<usize, usize, IntBuild>,
    /// Backward visited set.
    seen: HashSet<usize, IntBuild>,
    pool: Vec<u32>,
}

impl IncrementalTopo {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Number of distinct arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Removes every vertex and arc, keeping the storage for reuse.
    pub fn clear(&mut self) {
        self.pos.clear();
        self.arcs.clear();
    }

    /// Adds a fresh vertex, returning its index. Appending to the end of
    /// the topological order is always valid for an isolated vertex.
    pub fn add_node(&mut self) -> usize {
        let v = self.pos.len();
        if v == self.succ.len() {
            self.succ.push(Vec::new());
            self.pred.push(Vec::new());
        } else {
            self.succ[v].clear();
            self.pred[v].clear();
        }
        self.pos
            .push(u32::try_from(v).expect("vertex count fits u32"));
        v
    }

    /// The current topological position of `v` (test/debug aid; positions
    /// change as arcs land backwards).
    pub fn position(&self, v: usize) -> usize {
        self.pos[v] as usize
    }

    /// Inserts the arc `u → v`, restoring the topological order if the
    /// arc lands backwards. Returns `Ok(true)` if inserted, `Ok(false)`
    /// if the arc was already present, and `Err(cycle)` — a vertex
    /// sequence `c₀ → c₁ → … → c₀` (no repeated endpoint) — when the arc
    /// would close a cycle; the arc is then **not** inserted.
    pub fn add_arc(&mut self, u: usize, v: usize) -> Result<bool, Vec<usize>> {
        if u == v {
            return Err(vec![u]);
        }
        let key = (u as u64) << 32 | v as u64;
        if self.arcs.contains(&key) {
            return Ok(false);
        }
        if self.pos[u] >= self.pos[v] {
            // The arc lands backwards: discover the affected region and
            // either find a cycle or locally repair the order.
            self.reorder(u, v)?;
        }
        self.arcs.insert(key);
        self.succ[u].push(v as u32);
        self.pred[v].push(u as u32);
        Ok(true)
    }

    /// Pearce–Kelly repair for a backwards arc `u → v`
    /// (`pos[v] ≤ pos[u]`): forward-search from `v` within positions
    /// `≤ pos[u]` (reaching `u` means a cycle), backward-search from `u`
    /// within positions `≥ pos[v]`, then reassign the union's positions —
    /// ancestors of `u` first, descendants of `v` second, each group in
    /// its previous relative order.
    fn reorder(&mut self, u: usize, v: usize) -> Result<(), Vec<usize>> {
        let lb = self.pos[v];
        let ub = self.pos[u];
        let Self {
            succ,
            pred,
            pos,
            scratch: s,
            ..
        } = self;
        s.fwd.clear();
        s.bwd.clear();
        s.parent.clear();
        s.seen.clear();
        s.pool.clear();

        // Forward DFS from v, parents kept for the cycle witness.
        s.stack.clear();
        s.stack.push(v);
        s.parent.insert(v, v);
        while let Some(w) = s.stack.pop() {
            s.fwd.push(w);
            for &x in &succ[w] {
                let x = x as usize;
                if x == u {
                    // v ⤳ u exists, so u → v closes a cycle: walk the
                    // parent chain back from w to v for the witness.
                    let mut path = vec![u, v];
                    let mut cur = w;
                    let mut rev = Vec::new();
                    while cur != v {
                        rev.push(cur);
                        cur = s.parent[&cur];
                    }
                    path.extend(rev.into_iter().rev());
                    return Err(path);
                }
                // Existing arcs respect the order, so pos[x] > pos[w] ≥ lb
                // always; only the upper bound needs checking.
                if pos[x] < ub {
                    if let Entry::Vacant(e) = s.parent.entry(x) {
                        e.insert(w);
                        s.stack.push(x);
                    }
                }
            }
        }

        // Backward DFS from u within positions ≥ lb.
        s.stack.push(u);
        s.seen.insert(u);
        while let Some(w) = s.stack.pop() {
            s.bwd.push(w);
            for &x in &pred[w] {
                let x = x as usize;
                if pos[x] > lb && s.seen.insert(x) {
                    s.stack.push(x);
                }
            }
        }

        // Reassign: pool the affected positions, hand them first to u's
        // ancestors then to v's descendants, preserving each group's
        // internal order. (The groups are disjoint: a shared vertex
        // would have produced the cycle above.)
        s.bwd.sort_unstable_by_key(|&w| pos[w]);
        s.fwd.sort_unstable_by_key(|&w| pos[w]);
        s.pool.extend(s.bwd.iter().chain(&s.fwd).map(|&w| pos[w]));
        s.pool.sort_unstable();
        for (&w, &p) in s.bwd.iter().chain(&s.fwd).zip(&s.pool) {
            pos[w] = p;
        }
        Ok(())
    }
}

/// One committed lock of an entity; a chain keeps its entries sorted by
/// lock time.
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    /// When the instance locked the entity (its event time).
    time: u64,
    /// The instance holding this chain slot.
    gid: u32,
    /// The instance's vertex in the conflict graph.
    vertex: u32,
    /// When the instance unlocked the entity (`None` while held, or
    /// forever if the unlock never reached the stream — a torn log).
    unlock: Option<u64>,
}

/// Per-instance audit state: one slot of [`StreamingAuditor::slots`].
#[derive(Debug)]
struct InstanceState {
    gid: u32,
    /// Template index within the auditor's system.
    template: u32,
    /// The committed attempt, once decided.
    committed: Option<u32>,
    /// The instance's vertex in the conflict graph (assigned at commit).
    vertex: Option<u32>,
    /// Buffered events of undecided attempts, in arrival order:
    /// `(attempt, time, node)`.
    pending: Vec<(u32, u64, NodeId)>,
    /// Where the instance's [`Record`] starts in
    /// [`StreamingAuditor::records`].
    base: usize,
}

impl InstanceState {
    fn new(gid: u32, template: u32, base: usize) -> Self {
        InstanceState {
            gid,
            template,
            committed: None,
            vertex: None,
            pending: Vec::new(),
            base,
        }
    }

    /// Hands a slot of an earlier epoch to `gid`; its event buffer keeps
    /// its storage.
    fn readmit(&mut self, gid: u32, template: u32, base: usize) {
        self.pending.clear();
        *self = InstanceState {
            pending: std::mem::take(&mut self.pending),
            ..Self::new(gid, template, base)
        };
    }
}

/// An instance's merged (committed-projection) state, a run of words in
/// [`StreamingAuditor::records`]: first the lock time of each entity of
/// its template, in [`Transaction::entities`] order ([`UNLOCKED`] until
/// the lock merges — the key of the instance's entry in the entity's
/// chain), then the bit words of its merged nodes, for step validation.
struct Record<'r> {
    lock_time: &'r mut [u64],
    merged: &'r mut [u64],
}

/// A lock time no event has: the entity's lock has not merged.
const UNLOCKED: u64 = u64::MAX;

impl<'r> Record<'r> {
    /// How many words a record of an instance of `tmpl` takes.
    fn words(tmpl: &Transaction) -> usize {
        tmpl.entities().len() + tmpl.node_count().div_ceil(64)
    }

    /// The record of an instance of `tmpl` starting at `base`.
    fn at(records: &'r mut [u64], base: usize, tmpl: &Transaction) -> Self {
        let (lock_time, merged) =
            records[base..base + Self::words(tmpl)].split_at_mut(tmpl.entities().len());
        Record { lock_time, merged }
    }

    fn contains(&self, n: NodeId) -> bool {
        self.merged[n.index() / 64] >> (n.index() % 64) & 1 == 1
    }

    fn push(&mut self, n: NodeId) {
        self.merged[n.index() / 64] |= 1 << (n.index() % 64);
    }
}

/// The conflict graph over committed instances, and the first cycle it
/// refused.
#[derive(Debug, Default)]
struct Conflicts {
    topo: IncrementalTopo,
    /// Conflict-graph vertex → instance gid.
    vertex_gid: Vec<u32>,
    cycle: Option<Vec<u32>>,
}

impl Conflicts {
    /// Inserts the conflict arc `a → b` (vertices), recording the cycle
    /// witness (as gids) if the arc closes one. After the first cycle
    /// the graph is left untouched — the verdict is already absorbed.
    fn link(&mut self, a: u32, b: u32) {
        if self.cycle.is_some() || a == b {
            return;
        }
        if let Err(cycle) = self.topo.add_arc(a as usize, b as usize) {
            self.cycle = Some(cycle.into_iter().map(|v| self.vertex_gid[v]).collect());
        }
    }
}

/// An online auditor for the committed projection of a run's history:
/// feed it every lock/unlock event plus each instance's commit/abort
/// decision, and it maintains the `D(S)` serializability verdict
/// incrementally — the streaming counterpart of the batch
/// [`CommittedProjection::audit`](crate::CommittedProjection::audit),
/// which remains its oracle. See the
/// [module docs](self) for the algorithm and the complexity contract.
///
/// Instances are identified by a caller-chosen `u32` **gid** (the
/// engine's global instance id; recovery's WAL gid), each running one of
/// the system's **templates**. The auditor never materializes a
/// per-instance [`TransactionSystem`] — that construction alone is
/// linear in instances and was part of the batch path's per-report cost.
///
/// The verdict is **absorbing** in both failure directions, matching the
/// engine's `Report::absorb` semantics: once a cycle is found the
/// verdict stays `Some(false)`; once a validation error is recorded the
/// verdict stays `None` (the batch audit likewise returns `Err` for the
/// whole history, regardless of where the cycle sits) — until
/// [`clear`](Self::clear) starts the auditor over.
#[derive(Debug)]
pub struct StreamingAuditor {
    /// The system's own template slice, shared: opening an auditor is a
    /// refcount bump, not a copy of every template.
    templates: Arc<[Transaction]>,
    /// Admitted gid → its slot in `slots`.
    index: HashMap<u32, u32, IntBuild>,
    /// Instance state in admission order: `slots[..admitted]` are live,
    /// the rest wait, buffers intact, for the next epoch's instances.
    slots: Vec<InstanceState>,
    admitted: usize,
    /// Every admitted instance's [`Record`], back to back.
    records: Vec<u64>,
    /// Per-entity committed lock chains, indexed by entity, each sorted
    /// by lock time.
    chains: Vec<Vec<ChainEntry>>,
    /// The entities whose chains are not empty, for `clear`: an epoch
    /// touches a few of a large database's chains.
    touched: Vec<u32>,
    graph: Conflicts,
    /// Arrival clock: each event gets the next tick, so merge order
    /// cannot disturb event order.
    clock: u64,
    merged_events: u64,
    committed: usize,
    error: Option<ModelError>,
    sealed: bool,
    /// [`seal`](Self::seal)'s `(gid, slot)` order, kept for reuse.
    seal_order: Vec<(u32, usize)>,
}

impl StreamingAuditor {
    /// An auditor over the **templates** of `sys`: instances are admitted
    /// dynamically with [`admit`](Self::admit), each naming the template
    /// it instantiates.
    pub fn new(sys: &TransactionSystem) -> Self {
        Self {
            templates: sys.shared_txns(),
            index: HashMap::default(),
            slots: Vec::new(),
            admitted: 0,
            records: Vec::new(),
            chains: Vec::new(),
            touched: Vec::new(),
            graph: Conflicts::default(),
            clock: 0,
            merged_events: 0,
            committed: 0,
            error: None,
            sealed: false,
            seal_order: Vec::new(),
        }
    }

    /// An auditor over `sys` with every transaction pre-admitted as its
    /// own committed instance (`gid = i`, attempt 0): the streaming
    /// equivalent of auditing a plain [`Schedule`](crate::Schedule) —
    /// push steps with [`push_step`](Self::push_step), then
    /// [`seal`](Self::seal).
    pub fn for_system(sys: &TransactionSystem) -> Self {
        let mut a = Self::new(sys);
        for (t, _) in sys.iter() {
            a.admit(t.0, t);
            a.commit(t.0, 0);
        }
        a
    }

    /// Forgets every instance, event and verdict — the auditor then
    /// answers exactly like a fresh [`new`](Self::new) one over the same
    /// templates — but keeps the storage of every table, so auditing an
    /// epoch no larger than one already seen allocates nothing.
    pub fn clear(&mut self) {
        self.index.clear();
        self.admitted = 0;
        self.records.clear();
        for e in self.touched.drain(..) {
            self.chains[e as usize].clear();
        }
        self.graph.topo.clear();
        self.graph.vertex_gid.clear();
        self.graph.cycle = None;
        self.clock = 0;
        self.merged_events = 0;
        self.committed = 0;
        self.error = None;
        self.sealed = false;
    }

    /// Registers instance `gid` as an instance of `template`. Must
    /// precede the instance's events. Re-admitting a gid is a no-op when
    /// the template matches.
    ///
    /// # Panics
    /// Panics if `template` is out of range or `gid` was already
    /// admitted with a different template.
    pub fn admit(&mut self, gid: u32, template: TxnId) {
        let tmpl = &self.templates[template.index()];
        let slot = match self.index.entry(gid) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                let slot = self.admitted;
                e.insert(u32::try_from(slot).expect("slot fits u32"));
                self.admitted += 1;
                let base = self.records.len();
                self.records.resize(base + tmpl.entities().len(), UNLOCKED);
                self.records.resize(base + Record::words(tmpl), 0);
                match self.slots.get_mut(slot) {
                    Some(old) => old.readmit(gid, template.0, base),
                    None => self.slots.push(InstanceState::new(gid, template.0, base)),
                }
                slot
            }
        };
        assert_eq!(
            self.slots[slot].template, template.0,
            "instance {gid} re-admitted with a different template"
        );
    }

    /// Feeds one lock/unlock event of `(gid, attempt)`. Events arrive in
    /// global time order (the auditor's clock is its arrival order).
    /// Undecided attempts are buffered; events of the already-committed
    /// attempt merge immediately (the recovery path commits first);
    /// events of a *losing* attempt of a committed instance are dropped,
    /// exactly like the batch committed projection.
    pub fn event(&mut self, gid: u32, attempt: u32, node: NodeId) {
        let time = self.clock;
        self.clock += 1;
        if self.error.is_some() {
            return;
        }
        let Some(&slot) = self.index.get(&gid) else {
            self.fail(ModelError::UnknownTxn(TxnId(gid)));
            return;
        };
        let inst = &mut self.slots[slot as usize];
        match inst.committed {
            Some(a) if a == attempt => self.merge(slot as usize, time, node),
            Some(_) => {}
            None => inst.pending.push((attempt, time, node)),
        }
    }

    /// Streams one schedule step of a [`for_system`](Self::for_system)
    /// auditor (every transaction is attempt 0 of its own instance).
    pub fn push_step(&mut self, step: GlobalNode) {
        self.event(step.txn.0, 0, step.node);
    }

    /// Marks `(gid, attempt)` committed: the attempt's buffered events
    /// merge into the chains and the conflict graph (at their original
    /// event times), buffers of its earlier attempts are dropped, and
    /// later events of the attempt merge directly.
    ///
    /// # Panics
    /// Panics on a commit for an unadmitted gid, or a second commit of
    /// the same gid with a different attempt (re-committing the same
    /// attempt is a no-op).
    pub fn commit(&mut self, gid: u32, attempt: u32) {
        if self.error.is_some() {
            return;
        }
        let slot = *self
            .index
            .get(&gid)
            .unwrap_or_else(|| panic!("commit of unadmitted instance {gid}"))
            as usize;
        let inst = &mut self.slots[slot];
        if let Some(prev) = inst.committed {
            assert_eq!(prev, attempt, "instance {gid} committed twice");
            return;
        }
        inst.committed = Some(attempt);
        let vertex = self.graph.topo.add_node();
        inst.vertex = Some(u32::try_from(vertex).expect("vertex fits u32"));
        let mut buffered = std::mem::take(&mut inst.pending);
        debug_assert_eq!(self.graph.vertex_gid.len(), vertex);
        self.graph.vertex_gid.push(gid);
        self.committed += 1;
        for &(a, time, node) in &buffered {
            if self.error.is_some() {
                break;
            }
            if a == attempt {
                self.merge(slot, time, node);
            }
        }
        buffered.clear();
        self.slots[slot].pending = buffered;
    }

    /// Marks `(gid, attempt)` aborted: its buffered events are dropped —
    /// the attempt's locks were released and its writes rolled back, so
    /// it contributes nothing to the committed projection.
    pub fn abort(&mut self, gid: u32, attempt: u32) {
        if let Some(&slot) = self.index.get(&gid) {
            self.slots[slot as usize]
                .pending
                .retain(|&(a, ..)| a != attempt);
        }
    }

    /// Merges one committed event of the instance in `slot` at its
    /// original time: validates the step (the same §2 conditions as
    /// `Schedule::validate`, phrased per-instance), updates the entity's
    /// lock chain, and inserts the adjacency arcs.
    fn merge(&mut self, slot: usize, time: u64, node: NodeId) {
        // Phase 1: validate the step and update the instance's merged
        // prefix; report the accessed entity, the op kind and, for an
        // unlock, the matching lock's time.
        let (gid, vertex, entity, unlocked) = {
            let inst = &self.slots[slot];
            let step = GlobalNode::new(TxnId(inst.gid), node);
            let tmpl = &self.templates[inst.template as usize];
            if node.index() >= tmpl.node_count() {
                self.fail(ModelError::BadScheduleStep(step));
                return;
            }
            let mut record = Record::at(&mut self.records, inst.base, tmpl);
            if record.contains(node) {
                self.fail(ModelError::DuplicateStep(step));
                return;
            }
            if let Some(&missing) = tmpl
                .predecessors(node)
                .iter()
                .find(|&&q| !record.contains(q))
            {
                self.fail(ModelError::PrecedenceViolated { step, missing });
                return;
            }
            let op = tmpl.op(node);
            record.push(node);
            let e = tmpl
                .entities()
                .binary_search(&op.entity)
                .expect("an op's entity is accessed");
            let unlocked = if op.is_lock() {
                record.lock_time[e] = time;
                None
            } else {
                Some(Some(record.lock_time[e]).filter(|&t| t != UNLOCKED))
            };
            let vertex = inst.vertex.expect("merged instances are committed");
            (inst.gid, vertex, op.entity, unlocked)
        };
        self.merged_events += 1;
        let step = GlobalNode::new(TxnId(gid), node);

        // Phase 2: chain update + arcs.
        match unlocked {
            None => {
                let e = entity.index();
                if e >= self.chains.len() {
                    self.chains.resize_with(e + 1, Vec::new);
                }
                let chain = &mut self.chains[e];
                if chain.is_empty() {
                    self.touched.push(entity.0);
                }
                let at = chain.partition_point(|c| c.time < time);
                let pred = at.checked_sub(1).map(|i| chain[i]);
                let succ = chain.get(at).copied();
                chain.insert(
                    at,
                    ChainEntry {
                        time,
                        gid,
                        vertex,
                        unlock: None,
                    },
                );
                if let Some(p) = pred {
                    // The previous locker must have let go before this lock.
                    if p.unlock.is_none_or(|u| u >= time) {
                        self.fail(ModelError::LockHeld {
                            step,
                            entity,
                            holder: TxnId(p.gid),
                        });
                        return;
                    }
                    self.graph.link(p.vertex, vertex);
                }
                if let Some(s) = succ {
                    // A mid-chain insert (this instance committed later than
                    // a later locker): the order-side arc. Whether the two
                    // holds overlapped is checked when this instance's
                    // unlock merges.
                    self.graph.link(vertex, s.vertex);
                }
            }
            Some(None) => {
                // Unreachable for well-formed templates (Lx ≺ Ux is a
                // transaction invariant and precedence was checked), but
                // fail closed rather than panic on a hostile stream.
                self.fail(ModelError::PrecedenceViolated {
                    step,
                    missing: node,
                });
            }
            Some(Some(lock_t)) => {
                let chain = self.chains.get_mut(entity.index()).expect("locked ⇒ chain");
                let at = chain
                    .binary_search_by_key(&lock_t, |c| c.time)
                    .expect("locked ⇒ entry");
                chain[at].unlock = Some(time);
                // Any later locker must have locked after this unlock.
                let overlap = chain.get(at + 1).filter(|s| s.time < time).map(|s| s.gid);
                if let Some(succ_gid) = overlap {
                    let s_slot = self.index[&succ_gid] as usize;
                    let s_tmpl = &self.templates[self.slots[s_slot].template as usize];
                    let lock_node = s_tmpl.lock_node_of(entity).expect("locker has a lock node");
                    self.fail(ModelError::LockHeld {
                        step: GlobalNode::new(TxnId(succ_gid), lock_node),
                        entity,
                        holder: TxnId(gid),
                    });
                }
            }
        }
    }

    /// Finishes the audit: adds the Lemma 1 arcs for committed accessors
    /// that never locked an entity inside the stream (a torn log, or a
    /// deliberately partial schedule) — `D(S)` gives every locker an arc
    /// to such accessors; reachability-wise the *last* locker's arc
    /// carries them all — and returns the final verdict. Idempotent;
    /// further events are a contract violation.
    ///
    /// Returns `None` when validation failed ([`error`](Self::error)
    /// says why), `Some(false)` when a conflict cycle was found
    /// ([`cycle`](Self::cycle) is the witness), `Some(true)` otherwise.
    pub fn seal(&mut self) -> Option<bool> {
        if !self.sealed {
            self.sealed = true;
            if self.error.is_none() {
                // Deterministic order keeps the witness reproducible.
                let order = &mut self.seal_order;
                order.clear();
                order.extend(
                    self.slots[..self.admitted]
                        .iter()
                        .enumerate()
                        .filter(|(_, i)| i.committed.is_some())
                        .map(|(slot, i)| (i.gid, slot)),
                );
                order.sort_unstable();
                for &(_, slot) in order.iter() {
                    let inst = &self.slots[slot];
                    let vertex = inst.vertex.expect("committed ⇒ vertex");
                    let tmpl = &self.templates[inst.template as usize];
                    let record = Record::at(&mut self.records, inst.base, tmpl);
                    for (&e, &locked) in tmpl.entities().iter().zip(&*record.lock_time) {
                        if locked != UNLOCKED {
                            continue;
                        }
                        let last = self.chains.get(e.index()).and_then(|c| c.last());
                        if let Some(last) = last {
                            self.graph.link(last.vertex, vertex);
                        }
                    }
                }
            }
        }
        self.verdict()
    }

    /// The live verdict over everything merged so far: `None` after a
    /// validation error (mirroring the batch audit's `Err`),
    /// `Some(false)` once a cycle is absorbed, `Some(true)` while clean.
    /// Before [`seal`](Self::seal) this can under-report cycles that
    /// hinge on Lemma 1 arcs of never-locked accessors; for complete
    /// committed histories (every engine run) seal adds nothing.
    pub fn verdict(&self) -> Option<bool> {
        if self.error.is_some() {
            return None;
        }
        Some(self.graph.cycle.is_none())
    }

    /// The conflict-cycle witness, as instance gids in arc order
    /// (`c₀ → c₁ → … → c₀`).
    pub fn cycle(&self) -> Option<&[u32]> {
        self.graph.cycle.as_deref()
    }

    /// The validation error that voided the audit, if any.
    pub fn error(&self) -> Option<&ModelError> {
        self.error.as_ref()
    }

    /// Committed events merged into the projection so far.
    pub fn merged_events(&self) -> u64 {
        self.merged_events
    }

    /// Instances committed so far.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Distinct conflict arcs currently in the graph (diagnostics: the
    /// batch graph for the same history carries the full quadratic arc
    /// set).
    pub fn arc_count(&self) -> usize {
        self.graph.topo.arc_count()
    }

    /// Committed-transaction nodes currently in the conflict graph
    /// (telemetry gauge: grows with every commit until the auditor is
    /// sealed).
    pub fn node_count(&self) -> usize {
        self.graph.topo.len()
    }

    fn fail(&mut self, e: ModelError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::graph::DiGraph;
    use crate::ids::EntityId;
    use crate::op::Op;
    use crate::schedule::Schedule;

    #[test]
    fn topo_forward_arcs_are_cheap_and_valid() {
        let mut t = IncrementalTopo::new();
        for _ in 0..5 {
            t.add_node();
        }
        assert!(t.add_arc(0, 1).unwrap());
        assert!(t.add_arc(1, 2).unwrap());
        assert!(!t.add_arc(0, 1).unwrap(), "duplicate arc is a no-op");
        assert!(t.add_arc(3, 4).unwrap());
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            assert!(t.position(u) < t.position(v));
        }
    }

    #[test]
    fn topo_backward_arc_reorders() {
        let mut t = IncrementalTopo::new();
        for _ in 0..4 {
            t.add_node();
        }
        // Build 3 → 2 → 1 → 0 against the initial order.
        assert!(t.add_arc(3, 2).unwrap());
        assert!(t.add_arc(2, 1).unwrap());
        assert!(t.add_arc(1, 0).unwrap());
        let pos: Vec<usize> = (0..4).map(|v| t.position(v)).collect();
        assert!(pos[3] < pos[2] && pos[2] < pos[1] && pos[1] < pos[0]);
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "positions stay a permutation");
    }

    #[test]
    fn topo_cycle_witness_is_a_real_cycle() {
        let mut t = IncrementalTopo::new();
        for _ in 0..4 {
            t.add_node();
        }
        t.add_arc(0, 1).unwrap();
        t.add_arc(1, 2).unwrap();
        t.add_arc(2, 3).unwrap();
        let cyc = t.add_arc(3, 0).unwrap_err();
        assert_eq!(cyc.len(), 4);
        // Consecutive witness vertices are joined by arcs (with the
        // closing arc being the rejected insertion).
        assert_eq!(cyc[0], 3);
        assert_eq!(cyc[1], 0);
        // The rejected arc was not added: the DAG still answers.
        assert!(t.add_arc(0, 3).is_ok());
        assert!(t.add_arc(3, 3).is_err(), "self arc is a cycle");
    }

    /// Random arc streams: PK agrees with the batch cycle test at every
    /// step, and the maintained positions stay a valid topological order.
    #[test]
    fn topo_matches_batch_oracle_on_random_streams() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xA0D17);
        for _ in 0..200 {
            let n = rng.gen_range(2..10usize);
            let mut t = IncrementalTopo::new();
            for _ in 0..n {
                t.add_node();
            }
            let mut accepted: Vec<(usize, usize)> = Vec::new();
            for _ in 0..rng.gen_range(0..25) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                // Batch oracle: would the arc close a cycle?
                let mut g = DiGraph::new(n);
                for &(a, b) in &accepted {
                    g.add_arc(a, b);
                }
                g.add_arc(u, v);
                match t.add_arc(u, v) {
                    Ok(_) => {
                        assert!(!g.has_cycle(), "PK accepted a cycle-closing arc {u}->{v}");
                        accepted.push((u, v));
                        for &(a, b) in &accepted {
                            assert!(t.position(a) < t.position(b), "order violated by {a}->{b}");
                        }
                    }
                    Err(cyc) => {
                        assert!(g.has_cycle(), "PK rejected an acyclic arc {u}->{v}");
                        // The witness is a genuine cycle over accepted
                        // arcs plus the rejected one.
                        for w in cyc.windows(2) {
                            assert!(
                                (w[0], w[1]) == (u, v) || accepted.contains(&(w[0], w[1])),
                                "witness arc {}->{} not present",
                                w[0],
                                w[1]
                            );
                        }
                        let (&first, &last) = (cyc.first().unwrap(), cyc.last().unwrap());
                        assert!((last, first) == (u, v) || accepted.contains(&(last, first)));
                    }
                }
            }
        }
    }

    fn two_txn_system() -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let t1 = Transaction::from_total_order(
            "T1",
            &[Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)],
            &db,
        )
        .unwrap();
        let t2 = Transaction::from_total_order(
            "T2",
            &[Op::lock(y), Op::unlock(y), Op::lock(x), Op::unlock(x)],
            &db,
        )
        .unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    /// Opening an auditor shares the system's template slice instead of
    /// copying it; a cloned system shares it too.
    #[test]
    fn auditor_shares_the_systems_templates() {
        let sys = two_txn_system();
        let a = StreamingAuditor::new(&sys);
        assert!(Arc::ptr_eq(&a.templates, &sys.shared_txns()));
        let b = StreamingAuditor::new(&sys.clone());
        assert!(Arc::ptr_eq(&a.templates, &b.templates));
    }

    /// The classic non-serializable interleaving: the live verdict flips
    /// to `Some(false)` at the step that closes the cycle and stays
    /// absorbed through the rest of the stream and the seal.
    #[test]
    fn midstream_cycle_flips_and_absorbs() {
        let sys = two_txn_system();
        let mut a = StreamingAuditor::for_system(&sys);
        // T1.Lx T1.Ux T2.Ly T2.Uy T1.Ly T1.Uy | T2.Lx ← cycle closes here.
        let steps = [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        ];
        for (i, &(t, n)) in steps.iter().enumerate() {
            a.push_step(GlobalNode::new(TxnId(t), NodeId(n)));
            if i < 6 {
                assert_eq!(a.verdict(), Some(true), "clean through step {i}");
            } else {
                assert_eq!(a.verdict(), Some(false), "absorbed from step 6 on");
            }
        }
        assert_eq!(a.seal(), Some(false));
        let cyc = a.cycle().unwrap().to_vec();
        assert_eq!(cyc.len(), 2);
        assert_eq!(
            {
                let mut c = cyc.clone();
                c.sort_unstable();
                c
            },
            vec![0, 1]
        );
        // Oracle agreement on the full schedule.
        let sched = Schedule::from_steps(
            steps
                .iter()
                .map(|&(t, n)| GlobalNode::new(TxnId(t), NodeId(n)))
                .collect(),
        );
        assert!(!sched.is_serializable(&sys).unwrap());
    }

    /// Lemma 1 arcs at seal: an accessor that never locked inside the
    /// (partial) stream still closes the cycle the batch audit sees.
    #[test]
    fn seal_adds_never_locked_accessor_arcs() {
        let sys = two_txn_system();
        let mut a = StreamingAuditor::for_system(&sys);
        // T2.Ly T2.Uy T1.Lx T1.Ux T1.Ly — T2 accesses x but never locks it.
        let steps = [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2)];
        for (t, n) in steps {
            a.push_step(GlobalNode::new(TxnId(t), NodeId(n)));
        }
        assert_eq!(a.verdict(), Some(true), "chain arcs alone: y gives T2→T1");
        assert_eq!(
            a.seal(),
            Some(false),
            "seal adds T1→x→T2, closing the cycle"
        );
        // Batch oracle on the same partial schedule.
        let sched = Schedule::from_steps(
            steps
                .iter()
                .map(|&(t, n)| GlobalNode::new(TxnId(t), NodeId(n)))
                .collect(),
        );
        let v = sched.validate(&sys).unwrap();
        assert!(!sched.conflict_digraph(&sys, &v).is_acyclic());
    }

    /// Retried attempts: events of losing attempts contribute nothing,
    /// and commits arriving out of lock order insert mid-chain with the
    /// correct arc direction.
    #[test]
    fn losing_attempts_drop_and_late_commits_insert_mid_chain() {
        let sys = two_txn_system();
        let mut a = StreamingAuditor::new(&sys);
        a.admit(10, TxnId(0));
        a.admit(20, TxnId(0));
        // Instance 10 attempt 0 locks x then dies.
        a.event(10, 0, NodeId(0));
        a.abort(10, 0);
        // Instance 10 attempt 1 runs fully *first* in event time…
        for n in 0..4 {
            a.event(10, 1, NodeId(n));
        }
        // …then instance 20 runs fully, but commits *before* 10 does.
        for n in 0..4 {
            a.event(20, 0, NodeId(n));
        }
        a.commit(20, 0);
        a.commit(10, 1);
        assert_eq!(a.seal(), Some(true));
        assert_eq!(a.committed(), 2);
        // 10 locked x before 20 (in event time) even though 20 committed
        // first: the arc must run 10 → 20, i.e. topo position of 10's
        // vertex precedes 20's.
        assert_eq!(a.merged_events(), 8, "the aborted attempt merged nothing");
        let vertex = |gid: u32| a.slots[a.index[&gid] as usize].vertex.unwrap() as usize;
        let topo = &a.graph.topo;
        assert!(topo.position(vertex(10)) < topo.position(vertex(20)));
    }

    /// Every instance commits in reverse event order, so on a serial
    /// history every chain insert lands at the front of its chain (an
    /// instance's events all precede those of the instances already
    /// merged). The chains stay sorted by lock time, and the verdict
    /// equals the batch oracle's — on the serial history and on one
    /// whose first two instances interleave into a cycle.
    #[test]
    fn reverse_commit_order_inserts_at_the_front() {
        use crate::history::{History, HistoryEvent};
        let sys = two_txn_system();
        let instances: Vec<(u32, TxnId)> = (0..8).map(|g| (g, TxnId(g % 2))).collect();
        let serial: Vec<(u32, u32)> = instances
            .iter()
            .flat_map(|&(g, _)| (0..4).map(move |n| (g, n)))
            .collect();
        // T1.Lx T1.Ux T2.Ly T2.Uy T1.Ly T1.Uy T2.Lx T2.Ux, then the rest.
        let mut crossed = vec![
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        ];
        crossed.extend_from_slice(&serial[8..]);
        for (events, expected) in [(serial, Some(true)), (crossed, Some(false))] {
            let mut a = StreamingAuditor::new(&sys);
            let mut history = History::new();
            for &(g, t) in &instances {
                a.admit(g, t);
            }
            for &(g, n) in &events {
                a.event(g, 0, NodeId(n));
                history.record(HistoryEvent {
                    id: g,
                    attempt: 0,
                    node: NodeId(n),
                });
            }
            for &(g, _) in instances.iter().rev() {
                a.commit(g, 0);
                let serial = expected == Some(true);
                for chain in a
                    .chains
                    .iter()
                    .filter(|c| serial && c.iter().any(|c| c.gid == g))
                {
                    assert_eq!(chain[0].gid, g, "instance {g} lands at the front");
                }
            }
            for chain in &a.chains {
                assert!(chain.windows(2).all(|w| w[0].time < w[1].time));
            }
            let batch = history
                .committed_projection(&sys, instances.iter().map(|&(g, t)| (g, t, 0)))
                .audit()
                .ok();
            assert_eq!(a.seal(), batch);
            assert_eq!(batch, expected);
        }
    }

    #[test]
    fn validation_errors_void_the_verdict() {
        let sys = two_txn_system();
        // Duplicate step.
        let mut a = StreamingAuditor::for_system(&sys);
        a.push_step(GlobalNode::new(TxnId(0), NodeId(0)));
        a.push_step(GlobalNode::new(TxnId(0), NodeId(0)));
        assert_eq!(a.verdict(), None);
        assert!(matches!(a.error(), Some(ModelError::DuplicateStep(_))));
        assert_eq!(a.seal(), None, "errors absorb through seal");

        // Precedence violation.
        let mut a = StreamingAuditor::for_system(&sys);
        a.push_step(GlobalNode::new(TxnId(0), NodeId(1)));
        assert!(matches!(
            a.error(),
            Some(ModelError::PrecedenceViolated { .. })
        ));

        // Lock held: T1 locks x, T2 locks x while held.
        let db = Database::one_entity_per_site(1);
        let t = Transaction::from_total_order(
            "T",
            &[Op::lock(EntityId(0)), Op::unlock(EntityId(0))],
            &db,
        )
        .unwrap();
        let sys2 = TransactionSystem::new(db, vec![t.clone(), t.with_name("T2")]).unwrap();
        let mut a = StreamingAuditor::for_system(&sys2);
        a.push_step(GlobalNode::new(TxnId(0), NodeId(0)));
        a.push_step(GlobalNode::new(TxnId(1), NodeId(0)));
        assert!(matches!(a.error(), Some(ModelError::LockHeld { .. })));

        // Out-of-range node.
        let mut a = StreamingAuditor::for_system(&sys2);
        a.push_step(GlobalNode::new(TxnId(0), NodeId(9)));
        assert!(matches!(a.error(), Some(ModelError::BadScheduleStep(_))));

        // Unadmitted instance.
        let mut a = StreamingAuditor::new(&sys2);
        a.event(7, 0, NodeId(0));
        assert!(matches!(a.error(), Some(ModelError::UnknownTxn(TxnId(7)))));
    }
}
