//! Safety-only analyses surrounding the paper's main results.
//!
//! The paper's context (§1–§2): safety alone is coNP-complete for two
//! distributed transactions `[KP2]`, but *policies* guarantee it cheaply —
//! two-phase locking above all `[EGLT]`. This module provides:
//!
//! * [`is_two_phase`] — the 2PL test for partial-order transactions
//!   (every lock precedes every unlock, so all extensions are 2PL);
//! * [`two_phase_system`] — 2PL for a whole system, which implies safety
//!   (property-tested against the exhaustive unserializable-schedule
//!   search);
//! * [`two_phase_closure`] — a transaction's two-phase form (same
//!   operations, every lock before every unlock), which the engine runs
//!   wherever no certificate covers the transaction as written;
//! * [`safety_reduces_to_extensions`] — the `[KP2]` observation quoted in
//!   §3: a distributed pair is safe iff every pair of linear extensions
//!   is safe (made executable for test sizes; contrast with Fig. 3, where
//!   the same reduction *fails* for deadlock-freedom).

use ddlf_model::{linear_extensions, Database, Op, Transaction, TransactionSystem};

/// Whether the transaction is two-phase locked **as a partial order**:
/// every `Lock` node precedes every `Unlock` node, so *every linear
/// extension* is a two-phase sequence (growing phase, lock point,
/// shrinking phase).
///
/// The weaker, purely syntactic condition "no `Unlock` precedes a `Lock`"
/// is *not* enough in the distributed model: the Fig. 2 transaction
/// satisfies it (all its arcs run lock→unlock) yet has extensions that
/// unlock one entity before locking another, and two copies of it are
/// neither safe nor deadlock-free.
pub fn is_two_phase(t: &Transaction) -> bool {
    let locks: Vec<_> = t.nodes().filter(|&n| t.op(n).is_lock()).collect();
    let unlocks: Vec<_> = t.nodes().filter(|&n| t.op(n).is_unlock()).collect();
    locks
        .iter()
        .all(|&l| unlocks.iter().all(|&u| t.precedes(l, u)))
}

/// Whether every transaction of the system is two-phase locked. By
/// `[EGLT]`, such a system is safe (every schedule serializable) — though,
/// as the paper stresses, not necessarily deadlock-free.
pub fn two_phase_system(sys: &TransactionSystem) -> bool {
    sys.txns().iter().all(is_two_phase)
}

/// The two-phase closure of `t`: the same operations in the same node
/// order, so every `NodeId` keeps its meaning, ordered by `t`'s order
/// restricted to its locks, `t`'s order restricted to its unlocks, and
/// `Lx ≺ Uy` for every lock `Lx` and unlock `Uy`. The closure is
/// two-phase, so a system of closures is safe by `[EGLT]`. Two nodes of
/// one site stay comparable, and a two-phase `t` is its own closure.
pub fn two_phase_closure(t: &Transaction, db: &Database) -> Transaction {
    if is_two_phase(t) {
        return t.clone();
    }
    let mut b = Transaction::builder(t.name());
    for n in t.nodes() {
        b.op(t.op(n));
    }
    for a in t.nodes() {
        for c in t.nodes() {
            let (a_locks, c_locks) = (t.op(a).is_lock(), t.op(c).is_lock());
            if (a_locks && !c_locks) || (a_locks == c_locks && t.precedes(a, c)) {
                b.arc(a, c);
            }
        }
    }
    b.build(db)
        .expect("the closure of a valid transaction is valid")
}

/// The `[KP2]` reduction for **safety**: `{T₁, T₂}` is safe iff `{t₁, t₂}`
/// is safe for all linear extensions `t₁ ∈ T₁`, `t₂ ∈ T₂`.
///
/// This function decides safety of the pair by enumerating extension
/// pairs (up to `ext_cap` per transaction) and exhaustively checking each
/// centralized pair; practical only for test sizes, but it is the
/// *independent* decision procedure the reduction is validated against.
/// Returns `None` if an extension cap was hit (undecided).
pub fn safety_reduces_to_extensions(
    t1: &Transaction,
    t2: &Transaction,
    db: &Database,
    ext_cap: usize,
    state_budget: usize,
) -> Option<bool> {
    let e1 = linear_extensions(t1, ext_cap + 1);
    let e2 = linear_extensions(t2, ext_cap + 1);
    if e1.len() > ext_cap || e2.len() > ext_cap {
        return None;
    }
    for a in &e1 {
        for b in &e2 {
            let ops_a: Vec<Op> = a.iter().map(|&n| t1.op(n)).collect();
            let ops_b: Vec<Op> = b.iter().map(|&n| t2.op(n)).collect();
            let ta = Transaction::from_total_order("a", &ops_a, db).expect("extension legal");
            let tb = Transaction::from_total_order("b", &ops_b, db).expect("extension legal");
            let pair = TransactionSystem::new(db.clone(), vec![ta, tb]).expect("valid");
            let ex = crate::explore::Explorer::new(&pair, state_budget);
            match ex.find_unserializable().0 {
                crate::explore::Verdict::CounterExample(_) => return Some(false),
                crate::explore::Verdict::Holds => {}
                crate::explore::Verdict::Inconclusive { .. } => return None,
            }
        }
    }
    Some(true)
}

/// Safety of a whole system by exhaustive search (ground truth): no
/// complete legal schedule has a cyclic conflict digraph.
pub fn is_safe_exhaustive(sys: &TransactionSystem, state_budget: usize) -> Option<bool> {
    let ex = crate::explore::Explorer::new(sys, state_budget);
    match ex.find_unserializable().0 {
        crate::explore::Verdict::Holds => Some(true),
        crate::explore::Verdict::CounterExample(_) => Some(false),
        crate::explore::Verdict::Inconclusive { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{EntityId, NodeId};

    fn db(n: usize) -> Database {
        Database::one_entity_per_site(n)
    }

    #[test]
    fn two_phase_recognized() {
        let db = db(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
            Op::unlock(EntityId(0)),
        ];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        assert!(is_two_phase(&t));
    }

    #[test]
    fn early_unlock_not_two_phase() {
        let db = db(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::unlock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
        ];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        assert!(!is_two_phase(&t));
    }

    #[test]
    fn parallel_branches_with_full_cross_arcs_are_two_phase() {
        // Lx ∥ Ly then Ux ∥ Uy with both lock→unlock cross arcs: every
        // lock precedes every unlock — two-phase.
        let db = db(2);
        let mut b = Transaction::builder("T");
        let (lx, ux) = b.lock_unlock(EntityId(0));
        let (ly, uy) = b.lock_unlock(EntityId(1));
        b.arc(lx, uy);
        b.arc(ly, ux);
        let t = b.build(&db).unwrap();
        assert!(is_two_phase(&t));
    }

    #[test]
    fn incomparable_unlock_lock_is_not_two_phase() {
        // Ux ∥ Ly: some extension unlocks x before locking y, so the
        // partial order is not two-phase (and indeed two copies of this
        // shape — Fig. 3's dag — fail safety).
        let db = db(2);
        let mut b = Transaction::builder("T");
        b.lock_unlock(EntityId(0));
        b.lock_unlock(EntityId(1));
        let t = b.build(&db).unwrap();
        assert!(!is_two_phase(&t));
    }

    #[test]
    fn closure_is_two_phase_and_keeps_every_node() {
        // L0 U0 L1 U1: the closure holds 0 until 1 is locked.
        let db = db(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let c = two_phase_closure(&t, &db);
        assert!(is_two_phase(&c));
        assert_eq!(c.name(), "T");
        assert!(t.nodes().all(|n| c.op(n) == t.op(n)));
        let [lx, ux, ly, uy] = [0, 1, 2, 3].map(NodeId);
        assert!(c.precedes(lx, ly) && c.precedes(ux, uy));
        assert!(c.precedes(ly, ux), "every lock precedes every unlock");
        // A two-phase transaction is its own closure.
        let again = two_phase_closure(&c, &db);
        assert!(c
            .nodes()
            .all(|a| c.nodes().all(|b| again.precedes(a, b) == c.precedes(a, b))));
    }

    #[test]
    fn fig2_shape_is_not_two_phase() {
        // All arcs lock→unlock (the weak syntactic condition holds), yet
        // Uv ∥ Lz etc. make extensions non-two-phase.
        let db = db(4);
        let mut b = Transaction::builder("T");
        let (lv, uv) = b.lock_unlock(EntityId(0));
        let (lt, ut) = b.lock_unlock(EntityId(1));
        let (lz, uz) = b.lock_unlock(EntityId(2));
        let (lw, uw) = b.lock_unlock(EntityId(3));
        b.arc(lv, ut);
        b.arc(lt, uz);
        b.arc(lz, uw);
        b.arc(lw, uv);
        let t = b.build(&db).unwrap();
        let _ = (uv, ut, uz, uw);
        assert!(!is_two_phase(&t));
    }

    /// 2PL systems are safe — validated against exhaustive ground truth on
    /// random 2PL systems (this is the [EGLT] theorem, and the reason
    /// "safely locked" transactions are the interesting deadlock case in
    /// the paper's conclusion).
    #[test]
    fn two_phase_implies_safe_on_random_systems() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n_e = rng.gen_range(2..4usize);
            let d = rng.gen_range(2..4usize);
            let dbr = db(n_e);
            let mut txns = Vec::new();
            for i in 0..d {
                let mut order: Vec<u32> = (0..n_e as u32).collect();
                order.shuffle(&mut rng);
                let take = rng.gen_range(1..=n_e);
                let ops: Vec<Op> = order[..take]
                    .iter()
                    .map(|&e| Op::lock(EntityId(e)))
                    .chain(order[..take].iter().rev().map(|&e| Op::unlock(EntityId(e))))
                    .collect();
                txns.push(Transaction::from_total_order(format!("T{i}"), &ops, &dbr).unwrap());
            }
            let sys = TransactionSystem::new(dbr, txns).unwrap();
            assert!(two_phase_system(&sys));
            assert_eq!(
                is_safe_exhaustive(&sys, 5_000_000),
                Some(true),
                "trial {trial}: 2PL system not safe?!"
            );
        }
    }

    /// The [KP2] reduction agrees with direct exhaustive safety on random
    /// distributed pairs.
    #[test]
    fn extension_reduction_agrees_with_direct_safety() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(123);
        let mut unsafe_seen = 0;
        for trial in 0..25 {
            let dbr = db(3);
            let mk = |rng: &mut StdRng, name: &str| {
                let mut b = Transaction::builder(name);
                let mut locks = Vec::new();
                let mut unlocks = Vec::new();
                for e in 0..3 {
                    let (l, u) = b.lock_unlock(EntityId(e));
                    locks.push(l);
                    unlocks.push(u);
                }
                #[allow(clippy::needless_range_loop)]
                for i in 0..3 {
                    for j in 0..3 {
                        if i != j && rng.gen_bool(0.4) {
                            b.arc(locks[i], unlocks[j]);
                        }
                    }
                }
                b.build(&dbr).unwrap()
            };
            let t1 = mk(&mut rng, "T1");
            let t2 = mk(&mut rng, "T2");
            let sys = TransactionSystem::new(dbr.clone(), vec![t1.clone(), t2.clone()]).unwrap();
            let direct = is_safe_exhaustive(&sys, 5_000_000).expect("budget");
            let via_ext =
                safety_reduces_to_extensions(&t1, &t2, &dbr, 800, 2_000_000).expect("caps");
            assert_eq!(direct, via_ext, "trial {trial}: [KP2] reduction mismatch");
            if !direct {
                unsafe_seen += 1;
            }
        }
        assert!(unsafe_seen > 0, "sample should include unsafe pairs");
    }
}
