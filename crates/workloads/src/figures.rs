//! Executable reconstructions of the paper's figures.
//!
//! The 1986 scan's figure drawings are not machine-readable; each
//! construction below is reconstructed from the *properties the text
//! states about it*, which the `fig1`, `fig2`, `fig3` and `fig6` rows of
//! the paper ledger (`tests/ledger/`, checked by `tests/paper_ledger.rs`)
//! verify. Deviations are documented per figure.

use ddlf_model::{Database, EntityId, Prefix, SystemPrefix, Transaction, TransactionSystem};

/// Entities of [`fig1`], in database order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Entities {
    /// Entity `x` (site 1).
    pub x: EntityId,
    /// Entity `y` (site 1).
    pub y: EntityId,
    /// Entity `z` (site 2).
    pub z: EntityId,
}

/// **Figure 1**: three transactions over two sites with a prefix whose
/// reduction graph contains the cycle
/// `L¹z → U¹y → L²y → U²x → L³x → U³z → L¹z` (§3's worked example).
///
/// Reconstruction: the text fixes the cycle, which forces
/// * `T₁` to hold `y` while its remaining `Lz` precedes `Uy`,
/// * `T₂` to hold `x` while its remaining `Ly` precedes `Ux`,
/// * `T₃` to hold `z` while its remaining `Lx` precedes `Uz`.
///
/// We place `x, y` on site 1 and `z` on site 2 (two sites as drawn) and
/// order same-site operations compatibly. The returned prefix executes
/// exactly `{L¹y, L²x, L³z}`.
pub fn fig1() -> (TransactionSystem, SystemPrefix, Fig1Entities) {
    let mut b = Database::builder();
    let s1 = b.add_site();
    let s2 = b.add_site();
    let x = b.add_entity("x", s1);
    let y = b.add_entity("y", s1);
    let z = b.add_entity("z", s2);
    let db = b.build();

    // T1 accesses y (site 1) and z (site 2); holds y, will want z, and
    // Lz ≺ Uy.
    let mut t1 = Transaction::builder("T1");
    let (l1y, u1y) = t1.lock_unlock(y);
    let (l1z, _u1z) = t1.lock_unlock(z);
    t1.arc(l1y, l1z); // y locked first (prefix cut after L1y)
    t1.arc(l1z, u1y); // the cycle arc L1z → U1y
    let t1 = t1.build(&db).unwrap();

    // T2 accesses x and y (both site 1, totally ordered): Lx Ly Ux Uy.
    let mut t2 = Transaction::builder("T2");
    let l2x = t2.lock(x);
    let l2y = t2.lock(y);
    let u2x = t2.unlock(x);
    let u2y = t2.unlock(y);
    t2.chain(&[l2x, l2y, u2x, u2y]);
    let t2 = t2.build(&db).unwrap();

    // T3 accesses z (site 2) and x (site 1); holds z, wants x, Lx ≺ Uz.
    let mut t3 = Transaction::builder("T3");
    let (l3z, u3z) = t3.lock_unlock(z);
    let (l3x, _u3x) = t3.lock_unlock(x);
    t3.arc(l3z, l3x);
    t3.arc(l3x, u3z); // the cycle arc L3x → U3z
    let t3 = t3.build(&db).unwrap();

    let sys = TransactionSystem::new(db, vec![t1, t2, t3]).unwrap();
    let prefix = SystemPrefix::new(vec![
        Prefix::from_nodes(sys.txn(ddlf_model::TxnId(0)), [ddlf_model::NodeId(0)]).unwrap(),
        Prefix::from_nodes(sys.txn(ddlf_model::TxnId(1)), [ddlf_model::NodeId(0)]).unwrap(),
        Prefix::from_nodes(sys.txn(ddlf_model::TxnId(2)), [ddlf_model::NodeId(0)]).unwrap(),
    ]);
    (sys, prefix, Fig1Entities { x, y, z })
}

/// **Figure 2**: the transaction that defeats Tirri's two-entity premise.
///
/// Four entities `v, t, z, w` (each on its own site), arcs
/// `Lv → Ut`, `Lt → Uz`, `Lz → Uw`, `Lw → Uv` (plus each `L → U`).
/// Two copies of this dag contain **no** pair `x, y` with `Ly ≺ Ux` and
/// `Lx ≺ Uy`, yet the prefix `{L²v, L¹t, L²z, L¹w}` has a reduction
/// cycle of eight distinct nodes (`fig2.cycle_nodes`) — deadlock through
/// four entities. The text lists nine because its listing, like Fig. 1's
/// `L¹z → … → U³z → L¹z`, repeats the first node to close the cycle.
pub fn fig2_transaction(db: &Database, name: &str) -> Transaction {
    let (v, t, z, w) = (EntityId(0), EntityId(1), EntityId(2), EntityId(3));
    let mut b = Transaction::builder(name);
    let (lv, uv) = b.lock_unlock(v);
    let (lt, ut) = b.lock_unlock(t);
    let (lz, uz) = b.lock_unlock(z);
    let (lw, uw) = b.lock_unlock(w);
    b.arc(lv, ut);
    b.arc(lt, uz);
    b.arc(lz, uw);
    b.arc(lw, uv);
    b.build(db).unwrap()
}

/// The two-copy Figure 2 system, plus the deadlock prefix
/// `{L²v, L¹t, L²z, L¹w}` from the text.
pub fn fig2() -> (TransactionSystem, SystemPrefix) {
    let db = Database::one_entity_per_site(4);
    let t1 = fig2_transaction(&db, "T1");
    let t2 = fig2_transaction(&db, "T2");
    let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
    // T1 holds t and w; T2 holds v and z.
    let grab = |ti: u32, entities: &[u32]| {
        let t = sys.txn(ddlf_model::TxnId(ti));
        Prefix::from_nodes(
            t,
            entities
                .iter()
                .map(|&e| t.lock_node_of(EntityId(e)).expect("accessed")),
        )
        .unwrap()
    };
    let prefix = SystemPrefix::new(vec![grab(0, &[1, 3]), grab(1, &[0, 2])]);
    (sys, prefix)
}

/// **Figure 3**: the dag whose *partial orders* are deadlock-free although
/// particular linear extensions deadlock.
///
/// Two entities `x, y` on different sites with only `Lx → Ux`, `Ly → Uy`
/// (the two pairs fully parallel). The extensions
/// `t₁ = Lx Ly Ux Uy ∈ T₁` and `t₂ = Ly Lx Ux Uy ∈ T₂` deadlock as
/// centralized transactions, but `{T₁, T₂}` as partial orders cannot: an
/// unlock is always available.
pub fn fig3_transaction(db: &Database, name: &str) -> Transaction {
    let mut b = Transaction::builder(name);
    b.lock_unlock(EntityId(0));
    b.lock_unlock(EntityId(1));
    b.build(db).unwrap()
}

/// The two-copy Figure 3 system.
pub fn fig3() -> TransactionSystem {
    let db = Database::one_entity_per_site(2);
    let t1 = fig3_transaction(&db, "T1");
    let t2 = fig3_transaction(&db, "T2");
    TransactionSystem::new(db, vec![t1, t2]).unwrap()
}

/// The deadlocking pair of linear extensions from the Figure 3 discussion,
/// as centralized (total-order) transactions over a fresh 2-entity,
/// 1-site database.
pub fn fig3_deadlocking_extensions() -> TransactionSystem {
    use ddlf_model::Op;
    let db = Database::centralized(2);
    let (x, y) = (EntityId(0), EntityId(1));
    let t1 = Transaction::from_total_order(
        "t1",
        &[Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)],
        &db,
    )
    .unwrap();
    let t2 = Transaction::from_total_order(
        "t2",
        &[Op::lock(y), Op::lock(x), Op::unlock(x), Op::unlock(y)],
        &db,
    )
    .unwrap();
    TransactionSystem::new(db, vec![t1, t2]).unwrap()
}

/// **Figure 6**: a transaction syntax where **three** copies can deadlock
/// but **two** cannot — the counterexample showing Theorem 5 fails for
/// deadlock-freedom alone.
///
/// Reconstruction: three entities `a, b, c` on three sites, arcs
/// `La → Ub`, `Lb → Uc`, `Lc → Ua` (a cyclic hold-and-wait template of
/// odd length; with two copies every reduction-graph cycle would need an
/// even alternation, with three copies the ring closes).
pub fn fig6_transaction(db: &Database, name: &str) -> Transaction {
    let (a, b_, c) = (EntityId(0), EntityId(1), EntityId(2));
    let mut b = Transaction::builder(name);
    let (la, ua) = b.lock_unlock(a);
    let (lb, ub) = b.lock_unlock(b_);
    let (lc, uc) = b.lock_unlock(c);
    b.arc(la, ub);
    b.arc(lb, uc);
    b.arc(lc, ua);
    b.build(db).unwrap()
}

/// A system of `d` copies of the Figure 6 transaction.
pub fn fig6(d: usize) -> TransactionSystem {
    let db = Database::one_entity_per_site(3);
    let t = fig6_transaction(&db, "T");
    TransactionSystem::copies(db, &t, d).unwrap()
}
