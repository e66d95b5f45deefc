//! One-shot audit timing at a given instance count — the companion to
//! the `audit_scale` criterion group for sizes where the **batch** audit
//! is too slow to repeat (at 20k instances it runs for minutes; the
//! criterion harness would multiply that by its sample count).
//!
//! ```text
//! cargo run --release -p ddlf-bench --bin audit-oneshot -- 20480 [--skip-batch]
//! ```
//!
//! Prints one line per path with wall-clock seconds: the batch sizes too
//! slow to repeat under criterion (`cargo bench -- audit` covers the
//! incremental + recovery medians).

use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{Database, EntityId, NodeId, Op, Transaction, TransactionSystem, TxnId};
use ddlf_sim::{History, HistoryEvent, SimTime};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_480);
    let skip_batch = args.any(|a| a == "--skip-batch");

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
    let sys = TransactionSystem::new(db, vec![t]).unwrap();
    let events: Vec<(u32, NodeId)> = (0..n)
        .flat_map(|i| (0..4).map(move |node| (i as u32, NodeId(node))))
        .collect();

    let started = Instant::now();
    let mut auditor = StreamingAuditor::new(&sys);
    for gid in 0..n as u32 {
        auditor.admit(gid, TxnId(0));
        auditor.commit(gid, 0);
    }
    for &(gid, node) in &events {
        auditor.event(gid, 0, node);
    }
    assert_eq!(auditor.seal(), Some(true));
    println!(
        "incremental n={n}: {:.3} s ({} arcs)",
        started.elapsed().as_secs_f64(),
        auditor.arc_count()
    );

    if skip_batch {
        return;
    }
    let started = Instant::now();
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
    assert!(history.audit(&audit_sys, &committed).unwrap());
    println!(
        "batch       n={n}: {:.3} s",
        started.elapsed().as_secs_f64()
    );
}
