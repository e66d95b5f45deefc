//! E16 (`audit_scale` / `audit_recovery`): the incremental streaming
//! `D(S)` audit against the post-hoc batch audit.
//!
//! The batch audit is `Θ(n²)` in committed instances — the full `D(S)`
//! carries an arc per ordered locker pair of every entity — so it falls
//! off a cliff right where the engine got interesting (multi-thousand
//! instance runs, WAL recoveries). The streaming auditor maintains the
//! same verdict with per-entity adjacency chains and Pearce–Kelly
//! incremental topological ordering at amortized near-constant cost per
//! event.
//!
//! * `audit_scale` — the same synthetic committed history (every
//!   instance conflicts on two shared entities: the dense-conflict worst
//!   case for the batch graph) audited both ways at growing sizes. Batch
//!   sizes stop at 4096 because the quadratic arc set dominates memory
//!   and minutes beyond that — which is the point.
//! * `audit_recovery` — a real 20k-instance WAL directory (written by a
//!   certified banking run) replayed end to end through `wal::recover`,
//!   whose audit is the streaming path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddlf_engine::{Engine, EngineConfig};
use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{Database, EntityId, NodeId, Op, Transaction, TransactionSystem, TxnId};
use ddlf_sim::{History, HistoryEvent, SimTime};
use ddlf_workloads::bank_ordered_pair;
use std::time::Duration;

/// One two-phase template over two shared entities: every instance
/// conflicts with every other on both — the densest batch graph per
/// instance count.
fn shared_pair_system() -> TransactionSystem {
    let db = Database::one_entity_per_site(2);
    let t = Transaction::from_total_order(
        "T",
        &[
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(0)),
            Op::unlock(EntityId(1)),
        ],
        &db,
    )
    .unwrap();
    TransactionSystem::new(db, vec![t]).unwrap()
}

/// The committed history of `n` instances run serially (instance `i`
/// fully before `i + 1`): `(txn, node)` in time order, all attempt 0.
fn serial_history(n: usize) -> Vec<(u32, NodeId)> {
    let mut events = Vec::with_capacity(n * 4);
    for i in 0..n {
        for node in 0..4 {
            events.push((i as u32, NodeId(node)));
        }
    }
    events
}

/// The batch path exactly as the engine ran it pre-incremental: clone a
/// per-instance audit system, materialize the committed projection, and
/// validate + rebuild the conflict digraph from scratch.
fn batch_audit(sys: &TransactionSystem, events: &[(u32, NodeId)], n: usize) -> bool {
    let tmpl = sys.txn(TxnId(0));
    let txns: Vec<Transaction> = (0..n)
        .map(|i| tmpl.clone().with_name(format!("T#{i}")))
        .collect();
    let audit_sys = TransactionSystem::new(sys.db().clone(), txns).unwrap();
    let mut history = History::new();
    for (time, &(txn, node)) in events.iter().enumerate() {
        history.record(HistoryEvent {
            time: SimTime(time as u64),
            txn: TxnId(txn),
            attempt: 0,
            node,
        });
    }
    let committed: Vec<Option<u32>> = vec![Some(0); n];
    history.audit(&audit_sys, &committed).unwrap()
}

/// The streaming path: admit + commit each instance, feed the events,
/// seal. No per-instance system is ever built.
fn incremental_audit(sys: &TransactionSystem, events: &[(u32, NodeId)], n: usize) -> bool {
    let mut auditor = StreamingAuditor::new(sys);
    for gid in 0..n as u32 {
        auditor.admit(gid, TxnId(0));
        auditor.commit(gid, 0);
    }
    for &(gid, node) in events {
        auditor.event(gid, 0, node);
    }
    auditor.seal().expect("clean serial history")
}

fn bench_audit_scale(c: &mut Criterion) {
    let sys = shared_pair_system();
    let mut g = c.benchmark_group("audit_scale");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500));
    for &n in &[1024usize, 4096] {
        let events = serial_history(n);
        g.bench_with_input(BenchmarkId::new("batch", n), &n, |b, &n| {
            b.iter(|| batch_audit(&sys, &events, n));
        });
    }
    for &n in &[1024usize, 4096, 20480] {
        let events = serial_history(n);
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, &n| {
            b.iter(|| incremental_audit(&sys, &events, n));
        });
    }
    g.finish();
}

fn bench_audit_recovery(c: &mut Criterion) {
    // A real WAL: a certified banking run of 20k instances (every commit
    // appends its writes, decision, and history events), then replay it
    // — recovery is dominated by the audit for large logs, which is
    // exactly what went incremental.
    let dir = std::env::temp_dir().join(format!("ddlf-bench-audit-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, sys) = bank_ordered_pair();
    let engine = Engine::new(
        sys,
        EngineConfig {
            threads: 8,
            instances: 20_000,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let report = engine.run();
    assert!(report.all_committed() && report.serializable == Some(true));
    drop(engine);

    let mut g = c.benchmark_group("audit_recovery");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("recover_20k", |b| {
        b.iter(|| {
            let rec = ddlf_engine::recover(&dir).expect("recoverable");
            assert_eq!(rec.serializable, Some(true));
            rec.committed
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_audit_scale, bench_audit_recovery);
criterion_main!(benches);
