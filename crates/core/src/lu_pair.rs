//! Exact deadlock-prefix decision for **lock→unlock-shaped** transaction
//! pairs.
//!
//! A transaction is *lock→unlock-shaped* when every precedence arc runs
//! from a Lock node to an Unlock node. Both the Fig. 2 counterexample and
//! every Theorem 2 gadget have this shape (the paper exploits it: "the
//! transactions T₁ and T₂ have arcs only from lock to unlock nodes").
//!
//! For such pairs, deadlock-prefix existence reduces to a pure cycle
//! search. Build the *potential reduction graph* `H`: all transaction
//! arcs, plus — for every common entity `d` — both potential wait arcs
//! `U¹d → L²d` and `U²d → L¹d`. Then:
//!
//! > `{T₁, T₂}` has a deadlock prefix **iff** `H` has a simple cycle using
//! > at most one wait-arc direction per entity.
//!
//! *Proof sketch.* (⇐) Put `Lᵖd` in the prefix of `Tᵖ` for every wait arc
//! `Uᵖd → Lᵠd` used. Locks have no predecessors (all arcs leave locks), so
//! any set of lock nodes is a prefix; single-direction-per-entity makes
//! the held sets disjoint, so any interleaving is a schedule; every cycle
//! arc survives in `R(A')` by construction. The cycle cannot step on a
//! node the prefix needs: a lock node is only entered through the
//! opposite-direction wait arc of its entity, which is excluded. (⇒) Any
//! cycle of an actual `R(A')` uses each entity in one direction only (one
//! holder), and all its arcs are arcs of `H`. ∎
//!
//! The search is still worst-case exponential — Theorem 2 proves the
//! problem coNP-complete — but it prunes enormously better than state
//! enumeration and handles every gadget the experiments construct.

use ddlf_model::{GlobalNode, Prefix, SystemPrefix, TransactionSystem, TxnId};
use std::collections::HashMap;

/// A deadlock-prefix witness from the lock→unlock cycle search.
#[derive(Debug, Clone)]
pub struct LuWitness {
    /// The (all-locks) deadlock prefix.
    pub prefix: SystemPrefix,
    /// The reduction-graph cycle, as global nodes in traversal order.
    pub cycle: Vec<GlobalNode>,
}

/// Whether every arc of the transaction goes from a Lock node to an
/// Unlock node.
pub fn is_lock_unlock_shaped(t: &ddlf_model::Transaction) -> bool {
    t.nodes().all(|a| {
        t.successors(a)
            .iter()
            .all(|&b| t.op(a).is_lock() && t.op(b).is_unlock())
    })
}

/// Decides deadlock-prefix existence for a two-transaction system whose
/// transactions are lock→unlock-shaped.
///
/// Returns `Ok(Some(witness))` with a verified deadlock prefix,
/// `Ok(None)` if none exists, and `Err(steps)` if the search exceeded
/// `budget` DFS steps.
///
/// # Panics
/// Panics if the system does not have exactly two transactions or they
/// are not lock→unlock-shaped.
pub fn lu_pair_deadlock_prefix(
    sys: &TransactionSystem,
    budget: usize,
) -> Result<Option<LuWitness>, usize> {
    assert_eq!(sys.len(), 2, "lu_pair requires exactly two transactions");
    for (_, t) in sys.iter() {
        assert!(
            is_lock_unlock_shaped(t),
            "lu_pair requires lock→unlock-shaped transactions"
        );
    }

    let n_total = sys.total_nodes();

    // Arc lists of H, over dense global indices. `wait[u] = Some((e, p))`
    // when u is the unlock node of entity e in transaction p and e is
    // common — the wait arc leads to the other transaction's lock node.
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n_total];
    let mut wait_target: Vec<Option<(u32 /*entity*/, u32 /*lock idx*/)>> = vec![None; n_total];

    for (t, txn) in sys.iter() {
        for a in txn.nodes() {
            let ga = sys.global_index(GlobalNode::new(t, a));
            for &b in txn.successors(a) {
                succ[ga].push(sys.global_index(GlobalNode::new(t, b)) as u32);
            }
        }
    }
    let common = sys.common_entities(TxnId(0), TxnId(1));
    for (t, txn) in sys.iter() {
        let other = TxnId(1 - t.0);
        let other_txn = sys.txn(other);
        for e in common.iter() {
            let e_id = ddlf_model::EntityId::from_index(e);
            let u = txn.unlock_node_of(e_id).expect("common");
            let l_other = other_txn.lock_node_of(e_id).expect("common");
            let gu = sys.global_index(GlobalNode::new(t, u));
            let gl = sys.global_index(GlobalNode::new(other, l_other));
            wait_target[gu] = Some((e as u32, gl as u32));
        }
    }

    // DFS for a simple cycle using ≤ 1 wait-direction per entity.
    // Canonical start: the smallest node on the cycle; only nodes ≥ start
    // are visited.
    let mut on_path = vec![false; n_total];
    let mut dir: HashMap<u32, TxnId> = HashMap::new(); // entity → holder
    let mut steps = 0usize;

    struct Ctx<'a> {
        sys: &'a TransactionSystem,
        succ: &'a [Vec<u32>],
        wait_target: &'a [Option<(u32, u32)>],
        budget: usize,
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        ctx: &Ctx<'_>,
        start: usize,
        v: usize,
        on_path: &mut [bool],
        path: &mut Vec<usize>,
        dir: &mut HashMap<u32, TxnId>,
        steps: &mut usize,
    ) -> Result<bool, ()> {
        *steps += 1;
        if *steps > ctx.budget {
            return Err(());
        }

        // Transaction arcs.
        for &w in &ctx.succ[v] {
            let w = w as usize;
            if w == start {
                return Ok(true);
            }
            if w > start && !on_path[w] {
                on_path[w] = true;
                path.push(w);
                if dfs(ctx, start, w, on_path, path, dir, steps)? {
                    return Ok(true);
                }
                path.pop();
                on_path[w] = false;
            }
        }

        // Wait arc, if v is a common-entity unlock.
        if let Some((e, l_other)) = ctx.wait_target[v] {
            let holder = ctx.sys.from_global_index(v).txn;
            let ok = match dir.get(&e) {
                Some(&h) => h == holder,
                None => true,
            };
            if ok {
                let w = l_other as usize;
                let fresh = !dir.contains_key(&e);
                if fresh {
                    dir.insert(e, holder);
                }
                let mut hit = false;
                if w == start {
                    hit = true;
                } else if w > start && !on_path[w] {
                    on_path[w] = true;
                    path.push(w);
                    if dfs(ctx, start, w, on_path, path, dir, steps)? {
                        hit = true;
                    } else {
                        path.pop();
                        on_path[w] = false;
                    }
                }
                if hit {
                    return Ok(true);
                }
                if fresh {
                    dir.remove(&e);
                }
            }
        }
        Ok(false)
    }

    let ctx = Ctx {
        sys,
        succ: &succ,
        wait_target: &wait_target,
        budget,
    };

    for start in 0..n_total {
        let mut path = vec![start];
        on_path[start] = true;
        dir.clear();
        let found = dfs(
            &ctx,
            start,
            start,
            &mut on_path,
            &mut path,
            &mut dir,
            &mut steps,
        );
        on_path[start] = false;
        match found {
            Err(()) => return Err(steps),
            Ok(true) => {
                // Build the witness prefix: for each entity direction used,
                // the holder's lock node is executed.
                let mut p0 = Prefix::empty(sys.txn(TxnId(0)));
                let mut p1 = Prefix::empty(sys.txn(TxnId(1)));
                for (&e, &holder) in &dir {
                    let e_id = ddlf_model::EntityId(e);
                    let l = sys.txn(holder).lock_node_of(e_id).expect("common");
                    if holder == TxnId(0) {
                        p0.push(l);
                    } else {
                        p1.push(l);
                    }
                }
                let prefix = SystemPrefix::new(vec![p0, p1]);
                let cycle: Vec<GlobalNode> =
                    path.iter().map(|&i| sys.from_global_index(i)).collect();

                debug_assert!(
                    crate::reduction::ReductionGraph::build(sys, &prefix).is_cyclic(),
                    "lu witness must induce a cyclic reduction graph"
                );
                return Ok(Some(LuWitness { prefix, cycle }));
            }
            Ok(false) => {
                // Clean up for next start.
                for x in on_path.iter_mut() {
                    *x = false;
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use ddlf_model::{Database, EntityId, Transaction};

    /// The Fig. 2 transaction: entities v,t,z,w with arcs
    /// Lv→Ut, Lt→Uz, Lz→Uw, Lw→Uv (plus each lock before its own unlock).
    fn fig2_txn(db: &Database, name: &str) -> Transaction {
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

    #[test]
    fn fig2_shape_recognized() {
        let db = Database::one_entity_per_site(4);
        let t = fig2_txn(&db, "T");
        assert!(is_lock_unlock_shaped(&t));
    }

    #[test]
    fn fig2_pair_has_deadlock_prefix_through_four_entities() {
        let db = Database::one_entity_per_site(4);
        let t1 = fig2_txn(&db, "T1");
        let t2 = fig2_txn(&db, "T2");
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        let w = lu_pair_deadlock_prefix(&sys, 1_000_000)
            .unwrap()
            .expect("Fig. 2 deadlocks");
        // The witness prefix must be a genuine deadlock prefix.
        let dp = crate::reduction::check_deadlock_prefix(&sys, &w.prefix, 100_000)
            .expect("verified deadlock prefix");
        assert!(dp.cycle.len() >= 8, "cycle runs through ≥ 4 entities");
        // But Tirri's two-entity pattern misses it (the paper's point).
        assert_eq!(
            crate::tirri::tirri_two_entity_pattern(sys.txn(TxnId(0)), sys.txn(TxnId(1))),
            None
        );
    }

    #[test]
    fn fig2_agrees_with_exhaustive_explorer() {
        let db = Database::one_entity_per_site(4);
        let t1 = fig2_txn(&db, "T1");
        let t2 = fig2_txn(&db, "T2");
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        let ex = Explorer::new(&sys, 5_000_000);
        assert!(
            ex.find_deadlock().0.violated(),
            "operational deadlock reachable"
        );
        assert!(ex.find_deadlock_prefix().0.violated());
    }

    #[test]
    fn independent_pairs_have_no_deadlock() {
        // Lx ∥ Ly in both transactions, no cross arcs: Fig. 3's dag.
        let db = Database::one_entity_per_site(2);
        let mk = |name: &str| {
            let mut b = Transaction::builder(name);
            b.lock_unlock(EntityId(0));
            b.lock_unlock(EntityId(1));
            b.build(&db).unwrap()
        };
        let (a, b) = (mk("T1"), mk("T2"));
        let sys = TransactionSystem::new(db, vec![a, b]).unwrap();
        assert!(lu_pair_deadlock_prefix(&sys, 1_000_000).unwrap().is_none());
        let ex = Explorer::new(&sys, 1_000_000);
        assert!(ex.find_deadlock().0.holds());
    }

    #[test]
    fn crossed_pair_found() {
        // T: Lx→Uy, Ly→Ux — the partial-order form of opposite-order
        // locking; two copies deadlock.
        let db = Database::one_entity_per_site(2);
        let mk = |name: &str| {
            let mut b = Transaction::builder(name);
            let (lx, ux) = b.lock_unlock(EntityId(0));
            let (ly, uy) = b.lock_unlock(EntityId(1));
            b.arc(lx, uy);
            b.arc(ly, ux);
            b.build(&db).unwrap()
        };
        let (a, b) = (mk("T1"), mk("T2"));
        let sys = TransactionSystem::new(db, vec![a, b]).unwrap();
        let w = lu_pair_deadlock_prefix(&sys, 1_000_000)
            .unwrap()
            .expect("deadlock");
        assert_eq!(w.cycle.len(), 4);
        crate::reduction::check_deadlock_prefix(&sys, &w.prefix, 100_000).unwrap();
    }

    #[test]
    fn agrees_with_explorer_on_random_lu_pairs() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(42);
        let mut found_some = 0;
        for trial in 0..60 {
            let n_e = 3;
            let db = Database::one_entity_per_site(n_e);
            let mk = |rng: &mut StdRng, name: &str| {
                let mut b = Transaction::builder(name);
                let mut locks = Vec::new();
                let mut unlocks = Vec::new();
                for e in 0..n_e {
                    let (l, u) = b.lock_unlock(EntityId(e as u32));
                    locks.push(l);
                    unlocks.push(u);
                }
                // Random extra L→U arcs (across entities).
                #[allow(clippy::needless_range_loop)]
                for i in 0..n_e {
                    for j in 0..n_e {
                        if i != j && rng.gen_bool(0.4) {
                            b.arc(locks[i], unlocks[j]);
                        }
                    }
                }
                b.build(&db).unwrap()
            };
            let t1 = mk(&mut rng, "T1");
            let t2 = mk(&mut rng, "T2");
            let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
            let lu = lu_pair_deadlock_prefix(&sys, 10_000_000)
                .expect("budget")
                .is_some();
            let ex = Explorer::new(&sys, 10_000_000);
            let (ground, _) = ex.find_deadlock_prefix();
            assert_eq!(
                lu,
                ground.violated(),
                "trial {trial}: lu_pair disagrees with exhaustive explorer"
            );
            if lu {
                found_some += 1;
            }
        }
        assert!(found_some > 0, "sample should contain some deadlocks");
        assert!(
            found_some < 60,
            "sample should contain some deadlock-free pairs"
        );
    }
}
