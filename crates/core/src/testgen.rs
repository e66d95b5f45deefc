//! Random systems for this crate's own tests (`ddlf_workloads` sits
//! above `ddlf_core`, so its generators are out of reach here).

use ddlf_model::{Database, EntityId, Op, Transaction, TransactionSystem};
use rand::prelude::*;
use rand::rngs::StdRng;

/// `d` total-order transactions, each over a random subset of
/// `1..=max_per_txn` of the `n_entities` entities, locks and unlocks
/// interleaved at random but legally (each unlock after its lock).
pub(crate) fn random_legal_system(
    rng: &mut StdRng,
    d: usize,
    n_entities: usize,
    max_per_txn: usize,
) -> TransactionSystem {
    let db = Database::one_entity_per_site(n_entities);
    let mut txns = Vec::new();
    for t in 0..d {
        let mut entities: Vec<u32> = (0..n_entities as u32).collect();
        entities.shuffle(rng);
        let mut to_lock = entities[..rng.gen_range(1..=max_per_txn)].to_vec();
        let mut ops: Vec<Op> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        while !to_lock.is_empty() || !pending.is_empty() {
            let do_lock = match (!to_lock.is_empty(), !pending.is_empty()) {
                (true, true) => rng.gen_bool(0.5),
                (lock_possible, _) => lock_possible,
            };
            if do_lock {
                let e = to_lock.pop().unwrap();
                ops.push(Op::lock(EntityId(e)));
                pending.push(e);
            } else {
                let e = pending.swap_remove(rng.gen_range(0..pending.len()));
                ops.push(Op::unlock(EntityId(e)));
            }
        }
        txns.push(Transaction::from_total_order(format!("T{t}"), &ops, &db).unwrap());
    }
    TransactionSystem::new(db, txns).unwrap()
}
