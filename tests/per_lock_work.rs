//! `EngineConfig::work` is CPU time: a grant spins on the holding
//! thread for `work` rather than sleeping through it. A count=1 run is
//! one chunk, so it executes on the calling thread, whose CPU time
//! (`/proc/thread-self/schedstat`'s first field, in ns) must grow by at
//! least half of grants × `work`, while the run's wall time covers all
//! of it. The test has a binary of its own, so no sibling test competes
//! with the spinning thread for a core; a neighbour can still preempt
//! it, so the CPU bound must hold on one of `RUNS` runs (a sleeping
//! holder meets it on none).

#![cfg(target_os = "linux")]

use ddlf::engine::{Engine, EngineConfig};
use ddlf::model::{Database, EntityId, Op, Transaction, TransactionSystem, TxnId};
use std::time::{Duration, Instant};

const RUNS: usize = 5;

fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
    let first = stat.split_whitespace().next().expect("a run-time field");
    first.parse().expect("run time in ns")
}

#[test]
fn per_lock_work_is_busy_on_the_holding_thread() {
    let db = Database::one_entity_per_site(2);
    let (x, y) = (EntityId(0), EntityId(1));
    let ops = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
    let txn = Transaction::from_total_order("T", &ops, &db).unwrap();
    let sys = TransactionSystem::new(db, vec![txn]).unwrap();
    let grants = 2u32;
    let work = Duration::from_millis(2);
    let engine = Engine::new(
        sys,
        EngineConfig {
            work,
            ..Default::default()
        },
    );

    let mut cpus = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let (cpu0, t0) = (cpu_ns(), Instant::now());
        let report = engine.run_mix(&[(TxnId(0), 1)]);
        let (cpu, wall) = (Duration::from_nanos(cpu_ns() - cpu0), t0.elapsed());
        assert!(report.all_committed(), "{report:?}");
        assert_eq!(report.aborted_attempts, 0, "{report:?}");
        assert!(
            wall >= work * grants,
            "{wall:?} of wall time for {grants} grants × {work:?}"
        );
        cpus.push(cpu);
        if cpu >= work * grants / 2 {
            return;
        }
    }
    panic!("the holding thread slept: {cpus:?} of CPU per run for {grants} grants × {work:?}");
}
