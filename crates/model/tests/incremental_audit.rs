//! Batch-vs-incremental `D(S)` audit equivalence.
//!
//! A random lock-manager simulation produces wait-die-style histories —
//! attempts that block may die, release their locks, and retry, so the
//! committed-attempt projection (the subtle case: events of losing
//! attempts must contribute nothing, and instances can commit in a
//! different order than they locked) is exercised heavily. Every
//! generated history is audited twice:
//!
//! * **batch oracle** — record the events as a [`History`] and audit its
//!   [`CommittedProjection`] (`validate` + `conflict_digraph` over one
//!   transaction per committed instance);
//! * **incremental** — stream the identical event/commit/abort sequence
//!   through a [`StreamingAuditor`] and `seal`.
//!
//! The verdicts must agree exactly, and any incremental cycle witness
//! must be a genuine cycle of the batch conflict graph (the witness may
//! be a different — typically shorter-by-shortcut or longer-by-chain —
//! cycle than the one batch search happens to find; both must be real).
//!
//! A second pass replays each history the way `wal::recover` does —
//! commits first, then a *truncated* prefix of the committed events (a
//! torn history tail) — and checks the sealed verdict against the batch
//! audit of the same partial projection, pinning the Lemma 1 arc
//! handling.
//!
//! A third feeds each history, both ways, to an auditor `clear()`ed
//! after a different history over the same templates, and holds it to a
//! fresh auditor's verdict and witness.

use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{
    CommittedProjection, Database, EntityId, GlobalNode, History, HistoryEvent, NodeId, Op,
    Transaction, TransactionSystem, TxnId,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// One auditor input, in stream order.
#[derive(Debug, Clone, Copy)]
enum Call {
    Event(u32, u32, NodeId),
    Commit(u32, u32),
    Abort(u32, u32),
}

/// A generated run: templates, the instance table, the full call stream,
/// and the final commit decisions.
struct Run {
    sys: TransactionSystem,
    /// `gid → template`.
    instances: Vec<(u32, TxnId)>,
    calls: Vec<Call>,
    /// `gid → committed attempt` (absent = never committed).
    committed: HashMap<u32, u32>,
}

impl Run {
    /// The batch oracle's input: the committed projection of the run's
    /// events.
    fn projection(&self) -> CommittedProjection {
        let mut history = History::new();
        for &c in &self.calls {
            if let Call::Event(id, attempt, node) = c {
                history.record(HistoryEvent { id, attempt, node });
            }
        }
        let committed = self
            .instances
            .iter()
            .filter_map(|&(gid, t)| Some((gid, t, *self.committed.get(&gid)?)));
        history.committed_projection(&self.sys, committed)
    }
}

/// Builds a random template over a non-empty entity subset: a random
/// total order of its `L`/`U` ops with every `Lx` before its `Ux` —
/// two-phase or not, the generator does not care.
fn random_template(rng: &mut StdRng, name: &str, db: &Database, n_entities: u32) -> Transaction {
    let mut entities: Vec<u32> = (0..n_entities).collect();
    entities.shuffle(rng);
    entities.truncate(rng.gen_range(1..=n_entities as usize));
    let mut pool: Vec<Op> = entities.iter().map(|&e| Op::lock(EntityId(e))).collect();
    let mut ops = Vec::new();
    while !pool.is_empty() {
        let i = rng.gen_range(0..pool.len());
        let op = pool.remove(i);
        if op.is_lock() {
            pool.push(Op::unlock(op.entity));
        }
        ops.push(op);
    }
    Transaction::from_total_order(name, &ops, db).unwrap()
}

/// Simulates an exclusive-lock execution with wait-die-style deaths:
/// a blocked attempt may abort (releasing everything it holds) and
/// retry; three strikes and the instance fails for good. Records the
/// exact stream an engine run would feed the auditor.
fn random_run(seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_entities = rng.gen_range(2..=4u32);
    let db = Database::one_entity_per_site(n_entities as usize);
    let n_templates = rng.gen_range(1..=3usize);
    let templates: Vec<Transaction> = (0..n_templates)
        .map(|i| random_template(&mut rng, &format!("T{i}"), &db, n_entities))
        .collect();
    let sys = TransactionSystem::new(db, templates).unwrap();
    random_history(&mut rng, sys)
}

/// The history half of [`random_run`]: a fresh run over `sys`'s
/// templates.
fn random_history(rng: &mut StdRng, sys: TransactionSystem) -> Run {
    let n_templates = sys.len();
    let n_instances = rng.gen_range(2..=8usize);
    // Sparse, shuffled gids: the auditor must not rely on density.
    let instances: Vec<(u32, TxnId)> = (0..n_instances)
        .map(|i| {
            (
                100 + 7 * i as u32,
                TxnId(rng.gen_range(0..n_templates as u32)),
            )
        })
        .collect();

    struct State {
        order: Vec<NodeId>,
        pos: usize,
        attempt: u32,
        held: Vec<EntityId>,
        done: bool,
    }
    let mut states: Vec<State> = instances
        .iter()
        .map(|&(_, t)| State {
            order: sys.txn(t).any_total_order(),
            pos: 0,
            attempt: 0,
            held: Vec::new(),
            done: false,
        })
        .collect();
    let mut holders: HashMap<EntityId, usize> = HashMap::new();
    let mut calls = Vec::new();
    let mut committed = HashMap::new();

    for _ in 0..600 {
        let live: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            break;
        }
        let i = live[rng.gen_range(0..live.len())];
        let (gid, t) = instances[i];
        let tmpl = sys.txn(t);
        let s = &mut states[i];
        let node = s.order[s.pos];
        let op = tmpl.op(node);
        let blocked = op.is_lock() && holders.get(&op.entity).is_some_and(|&h| h != i);
        // A blocked attempt dies with probability ½; occasionally an
        // unblocked one dies too (a wound, a timeout — any reason).
        if blocked || rng.gen_bool(0.05) {
            if !blocked && rng.gen_bool(0.9) {
                continue; // mostly just make progress
            }
            for e in s.held.drain(..) {
                holders.remove(&e);
            }
            calls.push(Call::Abort(gid, s.attempt));
            s.attempt += 1;
            s.pos = 0;
            if s.attempt > 2 {
                s.done = true; // failed for good — never commits
            }
            continue;
        }
        calls.push(Call::Event(gid, s.attempt, node));
        if op.is_lock() {
            holders.insert(op.entity, i);
            s.held.push(op.entity);
        } else {
            holders.remove(&op.entity);
            s.held.retain(|&e| e != op.entity);
        }
        s.pos += 1;
        if s.pos == s.order.len() {
            calls.push(Call::Commit(gid, s.attempt));
            committed.insert(gid, s.attempt);
            s.done = true;
        }
    }
    // Step budget exhausted: whoever is still in flight dies unseen
    // (its buffered events must not leak into the verdict).
    for (i, s) in states.iter_mut().enumerate() {
        if !s.done {
            for e in s.held.drain(..) {
                holders.remove(&e);
            }
            calls.push(Call::Abort(instances[i].0, s.attempt));
        }
    }
    Run {
        sys,
        instances,
        calls,
        committed,
    }
}

/// Asserts that an incremental cycle witness is a genuine cycle of the
/// batch conflict graph.
fn assert_witness_real(projection: &CommittedProjection, witness: &[u32]) {
    let cg = projection
        .conflict_digraph()
        .expect("witnessed run validates");
    let dense = |gid: u32| projection.ids.binary_search(&gid).unwrap() as u32;
    assert!(witness.len() >= 2, "cycles have length ≥ 2 here");
    for k in 0..witness.len() {
        let (a, b) = (witness[k], witness[(k + 1) % witness.len()]);
        assert!(
            cg.labels.contains_key(&(dense(a), dense(b))),
            "witness arc {a} → {b} missing from the batch graph",
        );
    }
}

/// Streams `run` through `auditor` in engine order (events stream in,
/// decisions follow) and seals it.
fn live_audit(auditor: &mut StreamingAuditor, run: &Run) -> Option<bool> {
    for &(gid, t) in &run.instances {
        auditor.admit(gid, t);
    }
    for &c in &run.calls {
        match c {
            Call::Event(g, a, n) => auditor.event(g, a, n),
            Call::Commit(g, a) => auditor.commit(g, a),
            Call::Abort(g, a) => auditor.abort(g, a),
        }
    }
    auditor.seal()
}

/// Streams `torn`, a committed projection of `run`, through `auditor`
/// in `wal::recover` order (every commit first, then the events) and
/// seals it.
fn recovery_audit(
    auditor: &mut StreamingAuditor,
    run: &Run,
    torn: &CommittedProjection,
) -> Option<bool> {
    let template_of: HashMap<u32, TxnId> = run.instances.iter().copied().collect();
    for &g in &torn.ids {
        auditor.admit(g, template_of[&g]);
        auditor.commit(g, run.committed[&g]);
    }
    for s in &torn.steps {
        let gid = torn.ids[s.txn.index()];
        auditor.event(gid, run.committed[&gid], s.node);
    }
    auditor.seal()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Live feed (engine order: events stream in, decisions follow):
    /// sealed incremental verdict == batch verdict, witnesses real.
    #[test]
    fn live_streaming_verdict_matches_batch_oracle(seed in any::<u64>()) {
        let run = random_run(seed);
        let mut auditor = StreamingAuditor::new(&run.sys);
        for &(gid, t) in &run.instances {
            auditor.admit(gid, t);
        }
        for &c in &run.calls {
            match c {
                Call::Event(g, a, n) => auditor.event(g, a, n),
                Call::Commit(g, a) => auditor.commit(g, a),
                Call::Abort(g, a) => auditor.abort(g, a),
            }
        }
        let streaming = auditor.seal();
        let projection = run.projection();
        let batch = projection.audit().ok();
        let full = projection.conflict_digraph().ok().map(|g| g.is_acyclic());
        prop_assert_eq!(batch, full, "seed {}: the reduced audit disagrees with D(S)", seed);
        prop_assert_eq!(
            streaming, batch,
            "seed {}: streaming {:?} != batch {:?} ({} committed, {} calls)",
            seed, streaming, batch, projection.ids.len(), run.calls.len()
        );
        if streaming == Some(false) {
            let witness = auditor.cycle().expect("false verdict carries a witness").to_vec();
            assert_witness_real(&projection, &witness);
        }
    }

    /// Recovery feed (`wal::recover` order: all commit decisions first,
    /// then events merge on arrival), with the committed event stream
    /// truncated at a random point — the torn-history-tail case where
    /// `seal`'s Lemma 1 arcs carry the verdict.
    #[test]
    fn recovery_order_with_torn_tail_matches_batch_oracle(
        seed in any::<u64>(),
        cut_num in 0u64..=8,
    ) {
        let run = random_run(seed);
        let mut torn = run.projection();
        let full = torn.steps.len();
        let cut = (full as u64 * cut_num / 8) as usize;
        torn.steps.truncate(cut);

        let template_of: HashMap<u32, TxnId> = run.instances.iter().copied().collect();
        let mut auditor = StreamingAuditor::new(&run.sys);
        for &g in &torn.ids {
            auditor.admit(g, template_of[&g]);
            auditor.commit(g, run.committed[&g]);
        }
        // The steps are keyed by dense index; feed gids back.
        for s in &torn.steps {
            let gid = torn.ids[s.txn.index()];
            auditor.event(gid, run.committed[&gid], s.node);
        }
        let streaming = auditor.seal();
        let batch = torn.audit().ok();
        prop_assert_eq!(
            streaming, batch,
            "seed {} cut {}/{}: streaming {:?} != batch {:?}",
            seed, cut, full, streaming, batch
        );
        if streaming == Some(false) {
            let witness = auditor.cycle().expect("false verdict carries a witness").to_vec();
            assert_witness_real(&torn, &witness);
        }
    }

    /// Reuse: every history is audited twice per feed, once by a fresh
    /// auditor and once by one `clear()`ed after auditing a different
    /// history over the same templates. Both match the batch oracle with
    /// the same verdict and the same witness, so an engine that keeps
    /// one auditor for its lifetime answers like one built per epoch.
    #[test]
    fn a_cleared_auditor_matches_a_fresh_one(seed in any::<u64>(), cut_num in 0u64..=8) {
        let run = random_run(seed);
        let other = random_history(&mut StdRng::seed_from_u64(!seed), run.sys.clone());
        let mut reused = StreamingAuditor::new(&run.sys);

        let batch = run.projection().audit().ok();
        let mut fresh = StreamingAuditor::new(&run.sys);
        prop_assert_eq!(live_audit(&mut fresh, &run), batch, "seed {}: fresh, live", seed);
        live_audit(&mut reused, &other);
        reused.clear();
        prop_assert_eq!(live_audit(&mut reused, &run), batch, "seed {}: reused, live", seed);
        prop_assert_eq!(reused.cycle(), fresh.cycle(), "seed {}: live witness", seed);

        let mut torn = run.projection();
        let cut = (torn.steps.len() as u64 * cut_num / 8) as usize;
        torn.steps.truncate(cut);
        let batch = torn.audit().ok();
        let mut fresh = StreamingAuditor::new(&run.sys);
        prop_assert_eq!(recovery_audit(&mut fresh, &run, &torn), batch, "seed {}: fresh, torn", seed);
        reused.clear();
        recovery_audit(&mut reused, &other, &other.projection());
        reused.clear();
        prop_assert_eq!(recovery_audit(&mut reused, &run, &torn), batch, "seed {}: reused, torn", seed);
        prop_assert_eq!(reused.cycle(), fresh.cycle(), "seed {}: torn witness", seed);
    }
}

/// The regression the issue pins: a mid-stream cycle flips the live
/// verdict to `Some(false)` the moment it closes, and the verdict stays
/// absorbed through later (clean) events, the seal, and repeated reads —
/// matching `Report::absorb`'s three-valued conjunction semantics.
#[test]
fn midstream_cycle_is_absorbing() {
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
    let sys = TransactionSystem::new(db, vec![t1.clone(), t2, t1.with_name("T3")]).unwrap();

    let mut a = StreamingAuditor::for_system(&sys);
    // T1 uses x then T2 uses y — then they swap: cycle closes at T2.Lx.
    let prefix = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3)];
    for (t, n) in prefix {
        a.push_step(GlobalNode::new(TxnId(t), NodeId(n)));
        assert_eq!(a.verdict(), Some(true));
    }
    a.push_step(GlobalNode::new(TxnId(1), NodeId(2)));
    assert_eq!(a.verdict(), Some(false), "the cycle flips the live verdict");
    let witness = a.cycle().unwrap().to_vec();

    // A third transaction running serially afterwards is conflict-clean,
    // but the verdict must not recover.
    a.push_step(GlobalNode::new(TxnId(1), NodeId(3)));
    for n in 0..4 {
        a.push_step(GlobalNode::new(TxnId(2), NodeId(n)));
        assert_eq!(a.verdict(), Some(false), "absorbed across later events");
    }
    assert_eq!(a.seal(), Some(false));
    assert_eq!(a.seal(), Some(false), "seal is idempotent");
    assert_eq!(a.cycle().unwrap(), &witness[..], "witness is stable");
}

/// Guards the generator itself: across a seed sweep it must exercise
/// the cases the equivalence proptests claim to cover — retried commits
/// (committed attempt > 0), permanent failures, and genuinely
/// non-serializable histories. A vacuous generator would turn the
/// proptests above into no-ops.
#[test]
fn generator_covers_the_interesting_cases() {
    let (mut retried, mut failed, mut nonser, mut aborts) = (0, 0, 0, 0);
    for seed in 0..300 {
        let run = random_run(seed);
        aborts += run
            .calls
            .iter()
            .filter(|c| matches!(c, Call::Abort(..)))
            .count();
        retried += usize::from(run.committed.values().any(|&a| a > 0));
        failed += usize::from(run.committed.len() < run.instances.len());
        if run.projection().audit() == Ok(false) {
            nonser += 1;
        }
    }
    assert!(
        aborts > 100,
        "only {aborts} aborted attempts across the sweep"
    );
    assert!(retried > 20, "only {retried} runs with a retried commit");
    assert!(failed > 20, "only {failed} runs with a failed instance");
    assert!(nonser > 10, "only {nonser} non-serializable runs");
}
