//! Transaction templates and certify-then-run admission control.
//!
//! A *template* is one transaction shape of a [`TransactionSystem`]
//! together with the data effects its instances apply. Registering a
//! system runs the paper's certifier **once** and caches the verdict,
//! together with an [`AdmissionPlan`]: how many concurrent instances of
//! each template — its certified *k-inflation* — may be in flight on the
//! no-detector path.
//!
//! Every plan the engine runs is serializable by a theorem, in one of
//! two regimes:
//!
//! * **Certified** — the admitted inflation of the system is safe and
//!   deadlock-free ([`ddlf_core::certify_inflated`]); instances execute
//!   under the `Nothing` policy: no deadlock detector, no lock-wait
//!   timeouts, no aborts. Theorems 3/4 (or Theorem 5 for a single
//!   template, which certifies *unbounded* copies) guarantee every
//!   interleaving commits and serializes.
//! * **Fallback** — no inflation of the system certifies; instances
//!   execute each template's two-phase closure
//!   ([`ddlf_core::two_phase_closure`]) under wait-die with bounded
//!   retries. Two-phase locking serializes every schedule, and a
//!   wait-die death strikes only an attempt that has not unlocked yet.
//!
//! A system that does not certify as written is closed first: when the
//! closure certifies, it runs on the no-detector path, else under
//! wait-die. A two-phase template is its own closure, so a system of
//! them is certified once. Forcing wait-die on a certified system
//! ([`crate::EngineConfig::force_fallback`]) runs its closure too.
//!
//! A deadlock-freedom-only certificate (the Fig. 6 regime) runs
//! nothing: when a requested inflation fails to certify safe, admission
//! floors the plan — `Inflation::Auto` to the largest `k` certified
//! safe, an explicit request to `k = 1` — so the engine degrades to a
//! smaller gate instead of deadlocking, rejecting the workload, or
//! committing an unserializable history.

use ddlf_core::{
    certify_inflated, certify_safe_and_deadlock_free, is_two_phase, max_certified_inflation,
    two_phase_closure, InflateOptions, InflationViolation,
};
use ddlf_model::{EntityId, ModelError, TransactionSystem, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A committed write against one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Add a signed delta to the value (wrapping).
    Add(i64),
    /// Overwrite the value.
    Put(u64),
}

/// The data program of one template: which locked entities are *read*
/// at lock-grant time and which are *written* (the write becomes
/// effective at unlock time, while the lock is still held).
///
/// An entity is read when it is listed via [`Program::read`] or when its
/// write is a [`WriteOp::Add`] (a delta reads the current value). An
/// entity that is locked but neither read nor written — a ticket/ledger
/// lock held purely for ordering — counts as **neither**, so the
/// [`crate::Report`] read/write totals reflect data movement, not lock
/// traffic. (Both executor paths share this accounting; the wait-die
/// path used to charge a read for every grant.)
#[derive(Debug, Clone, Default)]
pub struct Program {
    writes: HashMap<EntityId, WriteOp>,
    reads: HashSet<EntityId>,
}

impl Program {
    /// A read-only program.
    pub fn read_only() -> Self {
        Self::default()
    }

    /// A counter program: every entity the transaction accesses gets
    /// `Add(1)` — the default when no program is registered.
    pub fn counter(entities: &[EntityId]) -> Self {
        let mut p = Self::default();
        for &e in entities {
            p.writes.insert(e, WriteOp::Add(1));
        }
        p
    }

    /// Adds/overwrites a write for `entity`.
    pub fn write(mut self, entity: EntityId, op: WriteOp) -> Self {
        self.writes.insert(entity, op);
        self
    }

    /// Declares that the program reads `entity` at lock-grant time
    /// (entities with an [`WriteOp::Add`] write are read implicitly).
    pub fn read(mut self, entity: EntityId) -> Self {
        self.reads.insert(entity);
        self
    }

    /// Whether the program reads `entity` when its lock is granted.
    pub fn reads_entity(&self, entity: EntityId) -> bool {
        self.reads.contains(&entity) || matches!(self.writes.get(&entity), Some(WriteOp::Add(_)))
    }

    /// A money-transfer program: `-amount` on `from`, `+amount` on `to`.
    pub fn transfer(from: EntityId, to: EntityId, amount: i64) -> Self {
        Self::default()
            .write(from, WriteOp::Add(-amount))
            .write(to, WriteOp::Add(amount))
    }

    /// The write for `entity`, if the program has one.
    pub fn write_for(&self, entity: EntityId) -> Option<&WriteOp> {
        self.writes.get(&entity)
    }
}

/// How many concurrent instances of a template an [`AdmissionPlan`]
/// allows in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slots {
    /// No limit — the Theorem 5 certificate covers any number of copies.
    Unbounded,
    /// At most this many live instances (≥ 1).
    Bounded(usize),
}

impl Slots {
    /// The bound as an `Option` (`None` = unbounded).
    pub fn limit(self) -> Option<usize> {
        match self {
            Slots::Unbounded => None,
            Slots::Bounded(k) => Some(k),
        }
    }
}

impl fmt::Display for Slots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slots::Unbounded => write!(f, "∞"),
            Slots::Bounded(k) => write!(f, "{k}"),
        }
    }
}

/// The requested inflation at registration time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Inflation {
    /// One instance per template — the conservative pre-inflation gate.
    #[default]
    None,
    /// The same `k` for every template.
    Uniform(usize),
    /// Search for the largest certified uniform `k ≤ cap`
    /// ([`ddlf_core::max_certified_inflation`]).
    Auto {
        /// Upper bound for the search (also the reported `k` when the
        /// Theorem 5 unbounded certificate applies).
        cap: usize,
    },
    /// An explicit per-template vector (one entry per template).
    PerTemplate(Vec<usize>),
}

/// Options for [`TemplateRegistry::register_with`]: the certifier knobs
/// plus the requested inflation.
#[derive(Debug, Clone, Default)]
pub struct AdmissionOptions {
    /// Requested concurrency per template.
    pub inflate: Inflation,
    /// Certifier options (Theorem 3/4 budget, DF-only search budget).
    pub opts: InflateOptions,
}

/// The certified admission plan: how many slots each template's
/// [`SlotGate`] holds, and why.
#[derive(Debug, Clone)]
pub struct AdmissionPlan {
    /// Per-template slot counts, template order.
    pub slots: Vec<Slots>,
    /// `true` when a requested inflation failed to certify safe and the
    /// plan fell back to a uniform floor: `k = 1`, or under
    /// [`Inflation::Auto`] the largest `k` certified safe.
    pub floored: bool,
    /// Human-readable justification (the certificate, or the rejection
    /// that forced the floor).
    pub rationale: String,
}

impl AdmissionPlan {
    fn uniform(n: usize, slots: Slots, floored: bool, rationale: impl Into<String>) -> Self {
        Self {
            slots: vec![slots; n],
            floored,
            rationale: rationale.into(),
        }
    }

    /// The slot count for template `t`.
    ///
    /// # Panics
    /// Panics with a descriptive message when `t` is out of range.
    pub fn slots_of(&self, t: TxnId) -> Slots {
        match self.slots.get(t.index()) {
            Some(&s) => s,
            None => panic!(
                "admission plan covers {} templates, no entry for {t}",
                self.slots.len()
            ),
        }
    }

    /// A multi-line human rendering, one line per template.
    pub fn render(&self, sys: &TransactionSystem) -> String {
        let rows = sys.iter().map(|(t, txn)| (txn.name(), self.slots_of(t)));
        render_plan(self.floored, &self.rationale, rows)
    }
}

/// Renders an admission plan: the header with the certifier's rationale,
/// then one `k = …` line per template. Behind [`AdmissionPlan::render`]
/// and the wire client's `Registered::render_plan`, so `ddlf-audit run`
/// and `ddlf-audit submit` print identical plans for the same system.
pub fn render_plan<'a>(
    floored: bool,
    rationale: &str,
    rows: impl Iterator<Item = (&'a str, Slots)>,
) -> String {
    use std::fmt::Write as _;
    let mut rows = rows.peekable();
    // A floored plan is uniform: its first row names the floor.
    let floor = match rows.peek() {
        Some((_, k)) if floored => format!(" (floored to k={k})"),
        _ => String::new(),
    };
    let mut out = format!("admission plan{floor}: {rationale}\n");
    for (name, slots) in rows {
        let _ = writeln!(out, "  {name:<24} k = {slots}");
    }
    out
}

/// The cached admission verdict for a registered system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The certifier proved the admitted inflation safe and
    /// deadlock-free: run with no detector and no timeouts.
    Certified,
    /// Certification failed even at `k = 1`, for the system and for its
    /// two-phase closure; run the closure under wait-die. Carries the
    /// certifier's rejection, verbatim.
    Fallback {
        /// Why certification rejected the system.
        reason: String,
    },
}

impl AdmissionVerdict {
    /// Whether the no-detector path is admitted.
    pub fn is_certified(&self) -> bool {
        matches!(self, AdmissionVerdict::Certified)
    }
}

impl fmt::Display for AdmissionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionVerdict::Certified => write!(f, "certified (no detector, no timeouts)"),
            AdmissionVerdict::Fallback { reason } => write!(f, "fallback to wait-die: {reason}"),
        }
    }
}

/// A counting admission gate: a semaphore over a template's certified
/// slots. Acquiring blocks (holding **no** data locks) until one of the
/// `k_t` slots frees; an [`Slots::Unbounded`] gate never blocks. The
/// gate also tracks the high-water mark of concurrent holders over the
/// engine's lifetime — the achieved multiprogramming level the
/// [`crate::Report`] publishes.
pub struct SlotGate {
    slots: Slots,
    /// Live holders.
    in_use: Mutex<usize>,
    /// The highest `in_use` ever reached: raised under the lock, read
    /// without it.
    peak: AtomicUsize,
    freed: Condvar,
}

impl SlotGate {
    pub(crate) fn new(slots: Slots) -> Self {
        if let Slots::Bounded(k) = slots {
            assert!(k >= 1, "a bounded gate needs at least one slot");
        }
        Self {
            slots,
            in_use: Mutex::new_named("template.slot_gate", 0),
            peak: AtomicUsize::new(0),
            freed: Condvar::new(),
        }
    }

    /// The certified slot count.
    pub fn slots(&self) -> Slots {
        self.slots
    }

    /// Admits a chunk of `n` instances of this template under **one**
    /// gate operation: blocks until the chunk fits, then occupies its
    /// slots for the lifetime of the returned guard. On an
    /// [`Slots::Unbounded`] gate all `n` slots are
    /// claimed (pure bookkeeping — the gate never blocks, and `in_use`/
    /// `peak` keep meaning "admitted instances"). On a [`Slots::Bounded`]
    /// gate exactly **one** slot is claimed, because a batched chunk
    /// executes its instances sequentially on one worker: at most one of
    /// the `n` is ever inside the template at a time, so one slot bounds
    /// the chunk's concurrent footprint exactly — claiming `n` would
    /// deadlock whenever `n > k`, and would starve other workers for no
    /// added safety. Dropping the guard frees everything it claimed.
    pub fn acquire_many(&self, n: usize) -> SlotGuard<'_> {
        let want = match self.slots {
            Slots::Unbounded => n.max(1),
            Slots::Bounded(_) => 1,
        };
        self.grab(want)
    }

    fn grab(&self, want: usize) -> SlotGuard<'_> {
        let mut in_use = self.in_use.lock();
        if let Slots::Bounded(k) = self.slots {
            while *in_use + want > k {
                self.freed.wait(&mut in_use);
            }
        }
        *in_use += want;
        self.peak.fetch_max(*in_use, Ordering::Relaxed);
        SlotGuard {
            gate: self,
            count: want,
        }
    }

    /// Live holders right now.
    pub fn in_use(&self) -> usize {
        *self.in_use.lock()
    }

    /// High-water mark of concurrent holders: the highest level this
    /// engine has reached.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Occupation of one or more admission slots (see
/// [`SlotGate::acquire_many`]); dropping it frees everything it claimed.
pub struct SlotGuard<'a> {
    gate: &'a SlotGate,
    count: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *self.gate.in_use.lock() -= self.count;
        self.gate.freed.notify_one();
    }
}

/// One registered template.
pub struct Template {
    /// The transaction shape within the registered system.
    pub txn: TxnId,
    /// Its name in the registered system, made once at registration;
    /// every report's [`TemplateReport`](crate::TemplateReport) shares it.
    pub(crate) name: Arc<str>,
    /// Its data program.
    pub program: Program,
    /// Admission gate: at most `k_t` live instances of the template at a
    /// time (its certified slot count), so the in-flight mix always
    /// embeds into the certified inflated system — the paper's
    /// guarantees quantify over that *fixed* set of transactions.
    pub(crate) gate: SlotGate,
}

impl Template {
    /// The template's admission gate (slots, live count, peak).
    pub fn gate(&self) -> &SlotGate {
        &self.gate
    }
}

/// The template registry: a certified-or-not transaction system, its
/// admission plan, and per-template programs.
pub struct TemplateRegistry {
    /// The system admission certified, or the two-phase closure it
    /// falls back to.
    sys: Arc<TransactionSystem>,
    /// The two-phase closure of `sys`: what wait-die executes. The same
    /// system when every template of `sys` is two-phase.
    two_phase: Arc<TransactionSystem>,
    verdict: AdmissionVerdict,
    plan: AdmissionPlan,
    templates: Vec<Template>,
}

impl TemplateRegistry {
    /// Registers `sys` with the default options (no inflation): runs the
    /// certifier once, caches the verdict, and installs the default
    /// counter program for every template.
    pub fn register(sys: TransactionSystem) -> Self {
        Self::register_with(sys, AdmissionOptions::default())
    }

    /// [`register`](Self::register) with explicit certifier options and a
    /// requested inflation. The computed [`AdmissionPlan`] sizes every
    /// template's [`SlotGate`]; a requested inflation that fails to
    /// certify safe floors rather than rejecting the system, and a
    /// system that does not certify at all registers its two-phase
    /// closure (see the module docs).
    ///
    /// # Panics
    /// Panics with a descriptive message when the request itself is
    /// malformed — [`Inflation::Uniform`]`(0)`, or an
    /// [`Inflation::PerTemplate`] vector with a zero entry or the wrong
    /// arity. (Certification *failures* floor; caller bugs do not.)
    pub fn register_with(sys: TransactionSystem, admission: AdmissionOptions) -> Self {
        let (mut verdict, mut plan) = Self::certify(&sys, &admission);
        let open: Vec<&str> = sys
            .txns()
            .iter()
            .filter(|t| !is_two_phase(t))
            .map(|t| t.name())
            .collect();
        let (sys, two_phase) = if open.is_empty() {
            let sys = Arc::new(sys);
            (Arc::clone(&sys), sys)
        } else {
            let closed = sys
                .txns()
                .iter()
                .map(|t| two_phase_closure(t, sys.db()))
                .collect();
            let closed = TransactionSystem::new(sys.db().clone(), closed)
                .expect("closures of a valid system form a valid system");
            if verdict.is_certified() {
                (Arc::new(sys), Arc::new(closed))
            } else {
                (verdict, plan) = Self::certify(&closed, &admission);
                plan.rationale = format!(
                    "two-phase closure of {}: {}",
                    open.join(", "),
                    plan.rationale
                );
                let closed = Arc::new(closed);
                (Arc::clone(&closed), closed)
            }
        };
        let templates = sys
            .iter()
            .map(|(t, txn)| Template {
                txn: t,
                name: Arc::from(txn.name()),
                program: Program::counter(txn.entities()),
                gate: SlotGate::new(plan.slots_of(t)),
            })
            .collect();
        Self {
            sys,
            two_phase,
            verdict,
            plan,
            templates,
        }
    }

    /// The safe plan for `sys`, or its wait-die floor. A certificate
    /// that is not safe is a rejection here: `Auto` floors to the
    /// largest `k` certified safe, an explicit request to `k = 1`.
    fn certify(
        sys: &TransactionSystem,
        admission: &AdmissionOptions,
    ) -> (AdmissionVerdict, AdmissionPlan) {
        let n = sys.len();
        let one = Slots::Bounded(1);
        let safe_only = InflateOptions {
            explore_states: 0,
            ..admission.opts
        };
        let fallback = |reason: String, floored: bool, rationale: String| {
            (
                AdmissionVerdict::Fallback { reason },
                AdmissionPlan::uniform(n, one, floored, rationale),
            )
        };
        // Resolve the request to a concrete vector (or run the search).
        let requested: Option<Vec<usize>> = match &admission.inflate {
            Inflation::None => None,
            Inflation::Uniform(k) => Some(vec![*k; n]),
            Inflation::PerTemplate(v) => Some(v.clone()),
            Inflation::Auto { cap } => {
                // A deadlock-free-only maximum floors to the largest k
                // whose certificate is safe.
                let found = max_certified_inflation(sys, admission.opts, *cap).and_then(|max| {
                    if max.certificate.guarantees_safety() {
                        return Ok((max, None));
                    }
                    let safe = max_certified_inflation(sys, safe_only, max.k)?;
                    Ok((safe, Some(max.certificate)))
                });
                return match found {
                    Ok((max, unsafe_max)) => {
                        let slots = if max.unbounded {
                            Slots::Unbounded
                        } else {
                            Slots::Bounded(max.k)
                        };
                        let rationale = match &unsafe_max {
                            None => format!("auto search: {}", max.certificate),
                            Some(df) => {
                                format!("auto search: {df}; floored to {}", max.certificate)
                            }
                        };
                        (
                            AdmissionVerdict::Certified,
                            AdmissionPlan::uniform(n, slots, unsafe_max.is_some(), rationale),
                        )
                    }
                    // Even the base system failed to certify safe: like
                    // the explicit-k path, the granted plan (k = 1,
                    // wait-die) is a floor of what was asked for.
                    Err(v) => fallback(v.to_string(), true, v.to_string()),
                };
            }
        };
        let Some(k) = requested else {
            // No inflation requested: certify the base system as-is.
            return match certify_safe_and_deadlock_free(sys, admission.opts.certify) {
                Ok(_) => (
                    AdmissionVerdict::Certified,
                    AdmissionPlan::uniform(n, one, false, "base system certified (k = 1)"),
                ),
                Err(v) => fallback(v.to_string(), false, v.to_string()),
            };
        };
        let rejection = match certify_inflated(sys, &k, admission.opts) {
            Ok(cert) if cert.guarantees_safety() => {
                // An explicit request is a *ceiling*, even when the
                // Theorem 5 certificate would allow more: ∞ slots are
                // only granted when the caller asked us to search
                // (`Inflation::Auto`).
                let slots: Vec<Slots> = k.iter().map(|&kt| Slots::Bounded(kt)).collect();
                let rationale = if cert.is_unbounded() {
                    format!("{cert}; granting the requested ceiling")
                } else {
                    cert.to_string()
                };
                return (
                    AdmissionVerdict::Certified,
                    AdmissionPlan {
                        slots,
                        floored: false,
                        rationale,
                    },
                );
            }
            // Deadlock-free but not safe: not run as is.
            Ok(cert) => cert.to_string(),
            // A malformed request (zero copies, wrong arity) is a caller
            // bug, not a certification failure — surface it instead of
            // silently degrading concurrency.
            Err(InflationViolation::Model(e)) => {
                panic!("malformed inflation request {:?}: {e}", admission.inflate)
            }
            Err(rejection) => rejection.to_string(),
        };
        // The requested inflation is inadmissible: floor to k = 1,
        // certified safe, so the engine degrades instead of deadlocking
        // — and degrades to the same path a smaller request would get.
        match certify_inflated(sys, &vec![1; n], safe_only) {
            Ok(cert) => (
                AdmissionVerdict::Certified,
                AdmissionPlan::uniform(
                    n,
                    one,
                    true,
                    format!("{rejection}; floored to k = 1 ({cert})"),
                ),
            ),
            Err(v) => fallback(v.to_string(), true, format!("{rejection}; base: {v}")),
        }
    }

    /// Replaces the program of template `t`.
    ///
    /// Errors with [`ModelError::UnknownTxn`] when `t` does not name a
    /// registered template.
    pub fn set_program(&mut self, t: TxnId, program: Program) -> Result<(), ModelError> {
        match self.templates.get_mut(t.index()) {
            Some(tmpl) => {
                tmpl.program = program;
                Ok(())
            }
            None => Err(ModelError::UnknownTxn(t)),
        }
    }

    /// The cached admission verdict.
    pub fn verdict(&self) -> &AdmissionVerdict {
        &self.verdict
    }

    /// The certified admission plan (slot counts per template).
    pub fn plan(&self) -> &AdmissionPlan {
        &self.plan
    }

    /// The registered system: the system as given when it certifies,
    /// else its two-phase closure. Every `NodeId` of the given system
    /// names the same operation here.
    pub fn system(&self) -> &Arc<TransactionSystem> {
        &self.sys
    }

    /// The two-phase closure of [`system`](Self::system): what wait-die
    /// executes, a forced fallback included. The same system when
    /// every registered template is two-phase.
    pub fn two_phase(&self) -> &Arc<TransactionSystem> {
        &self.two_phase
    }

    /// The template for transaction `t`.
    ///
    /// # Panics
    /// Panics with a descriptive message when `t` does not name a
    /// registered template (use [`TemplateRegistry::get`] for a fallible
    /// lookup).
    pub fn template(&self, t: TxnId) -> &Template {
        match self.templates.get(t.index()) {
            Some(tmpl) => tmpl,
            None => panic!(
                "no template registered for {t}: the registry holds {} templates",
                self.templates.len()
            ),
        }
    }

    /// The template for transaction `t`, or `None` when out of range.
    pub fn get(&self, t: TxnId) -> Option<&Template> {
        self.templates.get(t.index())
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, Op, Transaction};

    fn two_phase_pair(same_order: bool) -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let fwd = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
        let rev = [Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)];
        let t1 = Transaction::from_total_order("T1", &fwd, &db).unwrap();
        let t2 =
            Transaction::from_total_order("T2", if same_order { &fwd } else { &rev }, &db).unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    fn strict_pair() -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
            Op::unlock(EntityId(0)),
        ];
        let t1 = Transaction::from_total_order("T1", &ops, &db).unwrap();
        let t2 = Transaction::from_total_order("T2", &ops, &db).unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    #[test]
    fn ordered_pair_certifies() {
        let reg = TemplateRegistry::register(two_phase_pair(true));
        assert!(reg.verdict().is_certified());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.plan().slots_of(TxnId(0)), Slots::Bounded(1));
    }

    #[test]
    fn opposed_pair_falls_back_with_reason() {
        let reg = TemplateRegistry::register(two_phase_pair(false));
        let AdmissionVerdict::Fallback { reason } = reg.verdict() else {
            panic!("opposed lock orders must not certify");
        };
        assert!(!reason.is_empty());
    }

    /// `L a U a L b U b` against `L b U b L a U a`: neither certifies,
    /// so the registry holds their closures, which wait-die runs.
    #[test]
    fn a_rejected_non_two_phase_pair_registers_its_closure() {
        let db = Database::one_entity_per_site(2);
        let (a, b) = (EntityId(0), EntityId(1));
        let ab = [Op::lock(a), Op::unlock(a), Op::lock(b), Op::unlock(b)];
        let ba = [Op::lock(b), Op::unlock(b), Op::lock(a), Op::unlock(a)];
        let txns = vec![
            Transaction::from_total_order("AB", &ab, &db).unwrap(),
            Transaction::from_total_order("BA", &ba, &db).unwrap(),
        ];
        let reg = TemplateRegistry::register(TransactionSystem::new(db, txns).unwrap());
        assert!(!reg.verdict().is_certified(), "{}", reg.verdict());
        assert!(Arc::ptr_eq(reg.system(), reg.two_phase()));
        assert!(reg.system().txns().iter().all(is_two_phase));
        let rationale = &reg.plan().rationale;
        assert!(
            rationale.starts_with("two-phase closure of AB, BA: "),
            "{rationale}"
        );
    }

    /// A certified system runs as written; only a forced fallback runs
    /// its closure. A two-phase system is its own closure.
    #[test]
    fn a_certified_system_keeps_its_closure_for_wait_die() {
        let db = Database::one_entity_per_site(3);
        let [a, b, c] = [0, 1, 2].map(EntityId);
        let chain = [
            Op::lock(a),
            Op::lock(b),
            Op::unlock(a),
            Op::lock(c),
            Op::unlock(b),
            Op::unlock(c),
        ];
        let t = Transaction::from_total_order("chain", &chain, &db).unwrap();
        let reg = TemplateRegistry::register(TransactionSystem::new(db, vec![t]).unwrap());
        assert!(reg.verdict().is_certified(), "{}", reg.verdict());
        assert!(!is_two_phase(reg.system().txn(TxnId(0))));
        assert!(is_two_phase(reg.two_phase().txn(TxnId(0))));
        let reg = TemplateRegistry::register(two_phase_pair(false));
        assert!(Arc::ptr_eq(reg.system(), reg.two_phase()));
    }

    #[test]
    fn uniform_inflation_certifies_strict_pair() {
        let reg = TemplateRegistry::register_with(
            strict_pair(),
            AdmissionOptions {
                inflate: Inflation::Uniform(4),
                ..Default::default()
            },
        );
        assert!(reg.verdict().is_certified(), "{}", reg.verdict());
        assert_eq!(reg.plan().slots_of(TxnId(0)), Slots::Bounded(4));
        assert_eq!(reg.plan().slots_of(TxnId(1)), Slots::Bounded(4));
        assert!(!reg.plan().floored);
        let rendered = reg.plan().render(reg.system());
        assert!(rendered.contains("k = 4"), "{rendered}");
    }

    #[test]
    fn failed_inflation_floors_to_one() {
        // The opposed pair cannot certify at any k, but the request must
        // degrade to the wait-die fallback at k = 1, not reject.
        let reg = TemplateRegistry::register_with(
            two_phase_pair(false),
            AdmissionOptions {
                inflate: Inflation::Uniform(4),
                opts: InflateOptions {
                    explore_states: 50_000,
                    ..Default::default()
                },
            },
        );
        assert!(!reg.verdict().is_certified());
        assert!(reg.plan().floored);
        assert_eq!(reg.plan().slots_of(TxnId(1)), Slots::Bounded(1));
    }

    #[test]
    fn auto_inflation_is_unbounded_for_single_rooted_template() {
        let db = Database::one_entity_per_site(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
            Op::unlock(EntityId(0)),
        ];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        let reg = TemplateRegistry::register_with(
            sys,
            AdmissionOptions {
                inflate: Inflation::Auto { cap: 64 },
                ..Default::default()
            },
        );
        assert!(reg.verdict().is_certified());
        assert_eq!(reg.plan().slots_of(TxnId(0)), Slots::Unbounded);
    }

    #[test]
    fn auto_on_uncertifiable_system_is_a_floored_fallback() {
        let reg = TemplateRegistry::register_with(
            two_phase_pair(false),
            AdmissionOptions {
                inflate: Inflation::Auto { cap: 4 },
                opts: InflateOptions {
                    explore_states: 50_000,
                    ..Default::default()
                },
            },
        );
        assert!(!reg.verdict().is_certified());
        // Same flag as the equivalent explicit-k request.
        assert!(reg.plan().floored);
        assert_eq!(reg.plan().slots_of(TxnId(0)), Slots::Bounded(1));
    }

    #[test]
    #[should_panic(expected = "malformed inflation request")]
    fn zero_uniform_inflation_panics() {
        let _ = TemplateRegistry::register_with(
            two_phase_pair(true),
            AdmissionOptions {
                inflate: Inflation::Uniform(0),
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "malformed inflation request")]
    fn wrong_arity_per_template_vector_panics() {
        let _ = TemplateRegistry::register_with(
            two_phase_pair(true),
            AdmissionOptions {
                inflate: Inflation::PerTemplate(vec![4]),
                ..Default::default()
            },
        );
    }

    #[test]
    fn slot_gate_counts_and_peaks() {
        let gate = SlotGate::new(Slots::Bounded(2));
        let a = gate.acquire_many(1);
        let b = gate.acquire_many(1);
        assert_eq!(gate.in_use(), 2);
        assert_eq!(gate.peak(), 2);
        drop(a);
        assert_eq!(gate.in_use(), 1);
        drop(b);
        assert_eq!(gate.in_use(), 0);
        assert_eq!(gate.peak(), 2, "peak survives releases");
        let _c = gate.acquire_many(1);
        assert_eq!(gate.peak(), 2, "peak is never reset");
    }

    #[test]
    fn slot_gate_blocks_at_capacity() {
        let gate = SlotGate::new(Slots::Bounded(1));
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _slot = gate.acquire_many(1);
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "gate must serialize");
        assert_eq!(gate.peak(), 1);
    }

    #[test]
    fn acquire_many_claims_n_unbounded_but_one_bounded_slot() {
        let unbounded = SlotGate::new(Slots::Unbounded);
        let g = unbounded.acquire_many(5);
        assert_eq!(unbounded.in_use(), 5);
        assert_eq!(unbounded.peak(), 5);
        drop(g);
        assert_eq!(unbounded.in_use(), 0, "the guard frees all its slots");

        // A bounded gate admits a sequential chunk under one slot: a
        // chunk of 5 must not deadlock on (or monopolize) a k=2 gate.
        let bounded = SlotGate::new(Slots::Bounded(2));
        let a = bounded.acquire_many(5);
        let b = bounded.acquire_many(3);
        assert_eq!(bounded.in_use(), 2);
        drop(a);
        drop(b);
        assert_eq!(bounded.in_use(), 0);
        // Degenerate chunk sizes still claim one slot.
        let g = bounded.acquire_many(0);
        assert_eq!(bounded.in_use(), 1);
        drop(g);
    }

    #[test]
    fn unbounded_gate_never_blocks() {
        let gate = SlotGate::new(Slots::Unbounded);
        let guards: Vec<_> = (0..16).map(|_| gate.acquire_many(1)).collect();
        assert_eq!(gate.in_use(), 16);
        assert_eq!(gate.peak(), 16);
        drop(guards);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn set_program_rejects_unknown_template() {
        let mut reg = TemplateRegistry::register(two_phase_pair(true));
        assert!(reg.set_program(TxnId(0), Program::read_only()).is_ok());
        assert_eq!(
            reg.set_program(TxnId(9), Program::read_only()),
            Err(ModelError::UnknownTxn(TxnId(9)))
        );
        assert!(reg.get(TxnId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "no template registered for T9")]
    fn template_lookup_panics_descriptively() {
        let reg = TemplateRegistry::register(two_phase_pair(true));
        let _ = reg.template(TxnId(9));
    }

    #[test]
    fn default_program_counts_every_entity() {
        let reg = TemplateRegistry::register(two_phase_pair(true));
        let p = &reg.template(TxnId(0)).program;
        assert_eq!(p.write_for(EntityId(0)), Some(&WriteOp::Add(1)));
    }

    #[test]
    fn transfer_program_shape() {
        let p = Program::transfer(EntityId(0), EntityId(1), 25);
        assert_eq!(p.write_for(EntityId(0)), Some(&WriteOp::Add(-25)));
        assert_eq!(p.write_for(EntityId(1)), Some(&WriteOp::Add(25)));
    }

    #[test]
    fn reads_are_declared_or_implied_by_deltas_never_by_locks_alone() {
        let (acct, ledger, blind) = (EntityId(0), EntityId(1), EntityId(2));
        let p = Program::default()
            .write(acct, WriteOp::Add(-5)) // delta ⇒ implicit read
            .write(blind, WriteOp::Put(9)) // blind overwrite ⇒ no read
            .read(ledger); // explicit read, no write
        assert!(p.reads_entity(acct));
        assert!(p.reads_entity(ledger));
        assert!(!p.reads_entity(blind));
        // A lock-only ticket entity is neither read nor written.
        assert!(!p.reads_entity(EntityId(3)));
        assert!(p.write_for(EntityId(3)).is_none());
    }
}
