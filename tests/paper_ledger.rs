//! The paper, checked in one place. Each row recomputes one claim's
//! deterministic facts — verdicts, witness shapes and exact counters,
//! never a timing — as `row.key value` lines, and the whole ledger must
//! reproduce `fixtures/golden/paper.txt` byte for byte, the way
//! `cli_golden.rs` pins the CLI. README's theorem table cites the rows by
//! name. A mismatch names the first differing golden line and prints the
//! computed ledger; edit the golden file by hand, and only for an
//! intended change.

use ddlf::core::pairwise::lemma2_centralized;
use ddlf::core::{
    certify_safe_and_deadlock_free, check_deadlock_prefix, classify_violation, copies_safe_df,
    find_schedule_for_prefix, lu_pair_deadlock_prefix, many_safe_df, pairwise_safe_df,
    pairwise_safe_df_minimal_prefix, tirri_two_entity_pattern, two_phase_system, CertifyOptions,
    Explorer, ManyCertificate, ManyOptions, ManyViolation, ReductionGraph, SatReduction, Verdict,
    ViolationKind,
};
use ddlf::model::{
    linear_extensions, Database, EntityId, GlobalNode, Op, Transaction, TransactionSystem, TxnId,
};
use ddlf::sat::{generate_batch, solve, Cnf};
use ddlf::sim::{run as simulate, DeadlockPolicy, SimConfig};
use ddlf::workloads::{self as wl, LockDiscipline, SystemGen};
use std::collections::HashSet;
use std::fmt::{Display, Write};
use std::path::Path;

type Compute = fn(&mut Row);

/// Every row, in golden-file order.
const ROWS: [(&str, Compute); 14] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig6", fig6),
    ("lemma1", lemma1),
    ("thm1", thm1),
    ("thm2", thm2),
    ("thm3", thm3),
    ("cor1", cor1),
    ("thm4", thm4),
    ("thm5", thm5),
    ("wall", wall),
    ("payoff", payoff),
    ("e11", e11),
];

#[test]
fn every_paper_claim_matches_the_golden_ledger() {
    let mut ledger = String::new();
    for (name, row) in ROWS {
        row(&mut Row {
            name: name.into(),
            out: &mut ledger,
        });
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden/paper.txt");
    let want = std::fs::read_to_string(golden).unwrap();
    if ledger == want {
        return;
    }
    let got: Vec<_> = ledger.split_inclusive('\n').collect();
    let want: Vec<_> = want.split_inclusive('\n').collect();
    let line = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .expect("the ledgers differ");
    panic!(
        "fixtures/golden/paper.txt:{}: want {:?}, computed {:?}\n--- computed ledger ---\n{ledger}",
        line + 1,
        want.get(line).copied().unwrap_or("<end of file>"),
        got.get(line).copied().unwrap_or("<end of ledger>"),
    );
}

/// One row of the ledger: every fact it puts is a `name.key value` line.
struct Row<'a> {
    name: String,
    out: &'a mut String,
}

impl Row<'_> {
    fn put(&mut self, key: impl Display, value: impl Display) {
        writeln!(self.out, "{}.{key} {value}", self.name).unwrap();
    }

    /// The facts about one case of this row, named `name.case.key`.
    fn case(&mut self, case: impl Display) -> Row<'_> {
        let name = format!("{}.{case}", self.name);
        Row {
            name,
            out: self.out,
        }
    }
}

/// Seeds per randomised family.
const TRIALS: usize = 10;

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn ratio(part: usize, whole: usize) -> String {
    format!("{part}/{whole}")
}

fn certified(ok: bool) -> &'static str {
    if ok {
        "certified"
    } else {
        "rejected"
    }
}

/// The exhaustive explorer's operational-deadlock verdict.
fn deadlock(sys: &TransactionSystem, budget: usize) -> &'static str {
    match Explorer::new(sys, budget).find_deadlock().0 {
        Verdict::Holds => "deadlock-free",
        Verdict::CounterExample(_) => "deadlock",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// Theorem 4's verdict, with the size of its witness cycle.
fn theorem4(result: &Result<ManyCertificate, ManyViolation>) -> String {
    match result {
        Ok(_) => "certified".into(),
        Err(ManyViolation::Cycle(w)) => format!("cycle witness over {} txns", w.cycle.len()),
        Err(ManyViolation::Pair { .. }) => "pair violation".into(),
        Err(ManyViolation::CycleBudget { .. }) => "over budget".into(),
    }
}

/// The distinct transactions and entities a reduction-graph cycle visits.
fn span(sys: &TransactionSystem, cycle: &[GlobalNode]) -> (usize, usize) {
    let txns: HashSet<_> = cycle.iter().map(|g| g.txn).collect();
    let entities: HashSet<_> = cycle
        .iter()
        .map(|g| sys.txn(g.txn).op(g.node).entity)
        .collect();
    (txns.len(), entities.len())
}

/// Every linear extension of `t`, each as a total-order transaction.
fn extensions(t: &Transaction, db: &Database, name: &str) -> Vec<Transaction> {
    linear_extensions(t, usize::MAX)
        .iter()
        .map(|ext| {
            let ops: Vec<Op> = ext.iter().map(|&n| t.op(n)).collect();
            Transaction::from_total_order(name, &ops, db).unwrap()
        })
        .collect()
}

fn pair(db: Database, a: &[Op], b: &[Op]) -> TransactionSystem {
    let t1 = Transaction::from_total_order("T1", a, &db).unwrap();
    let t2 = Transaction::from_total_order("T2", b, &db).unwrap();
    TransactionSystem::new(db, vec![t1, t2]).unwrap()
}

/// The classic deadlock: `T1 = Lx Ly Ux Uy` against `T2 = Ly Lx Uy Ux`.
fn opposite_order(db: Database) -> TransactionSystem {
    let (x, y) = (EntityId(0), EntityId(1));
    pair(
        db,
        &[Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)],
        &[Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)],
    )
}

/// A seeded random system: one entity per site, every txn touches all.
fn generate(disc: LockDiscipline, txns: usize, entities: usize, seed: u64) -> TransactionSystem {
    SystemGen {
        n_sites: entities,
        entities_per_site: 1,
        n_txns: txns,
        entities_per_txn: entities,
        discipline: disc,
        seed,
    }
    .generate()
}

/// The seeded pairs `thm3` and `cor1` both judge: ten per discipline.
fn seeded_pairs() -> [(&'static str, Vec<TransactionSystem>); 3] {
    [
        ("legal", LockDiscipline::RandomLegal),
        ("2pl", LockDiscipline::RandomTwoPhase),
        ("lu", LockDiscipline::LockUnlockShaped),
    ]
    .map(|(family, discipline)| {
        let pairs = (0..TRIALS as u64)
            .map(|seed| generate(discipline, 2, 3, 0xE5_000 + seed))
            .collect();
        (family, pairs)
    })
}

/// Fig. 1 (§3): the prefix `{L¹y, L²x, L³z}` is a deadlock prefix.
fn fig1(r: &mut Row) {
    let (sys, prefix, _) = wl::fig1();
    let schedule = find_schedule_for_prefix(&sys, &prefix, 1_000_000);
    r.put("prefix_has_schedule", yn(schedule.is_some()));
    let cyclic = ReductionGraph::build(&sys, &prefix).is_cyclic();
    r.put("reduction_graph_cyclic", yn(cyclic));
    let dp = check_deadlock_prefix(&sys, &prefix, 1_000_000).expect("a deadlock prefix");
    let (txns, entities) = span(&sys, &dp.cycle);
    r.put("cycle_nodes", dp.cycle.len());
    r.put("cycle_txns", txns);
    r.put("cycle_entities", entities);
    r.put("explorer", deadlock(&sys, 5_000_000));
}

/// Fig. 2: Tirri's two-entity test is unsound — two copies of one dag
/// deadlock through four entities with no two-entity pattern.
fn fig2(r: &mut Row) {
    let (sys, prefix) = wl::fig2();
    let tirri = tirri_two_entity_pattern(sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    r.put("tirri_pattern", yn(tirri.is_some()));
    let lu = lu_pair_deadlock_prefix(&sys, 10_000_000)
        .unwrap()
        .expect("a deadlock prefix");
    r.put("lu_cycle_nodes", lu.cycle.len());
    r.put("lu_cycle_entities", span(&sys, &lu.cycle).1);
    let dp = check_deadlock_prefix(&sys, &prefix, 1_000_000).expect("the stated prefix");
    r.put("cycle_nodes", dp.cycle.len());
    r.put("cycle_entities", span(&sys, &dp.cycle).1);
    r.put("explorer", deadlock(&sys, 10_000_000));
    r.put("two_phase", yn(two_phase_system(&sys)));
    let verdict = certify_safe_and_deadlock_free(&sys, CertifyOptions::default());
    r.put("certify", certified(verdict.is_ok()));
}

/// Fig. 3 / Corollary 1's contrast: deadlock-freedom does not reduce to
/// linear extensions.
fn fig3(r: &mut Row) {
    let sys = wl::fig3();
    r.put("partial_orders", deadlock(&sys, 1_000_000));
    let (prefix, _) = Explorer::new(&sys, 1_000_000).find_deadlock_prefix();
    r.put("partial_orders_deadlock_prefix", yn(prefix.violated()));
    let chosen = wl::fig3_deadlocking_extensions();
    r.put("chosen_extensions", deadlock(&chosen, 1_000_000));
    let (a, b) = (
        extensions(sys.txn(TxnId(0)), sys.db(), "a"),
        extensions(sys.txn(TxnId(1)), sys.db(), "b"),
    );
    let mut deadlocking = 0;
    for ta in &a {
        for tb in &b {
            let exts = TransactionSystem::new(sys.db().clone(), vec![ta.clone(), tb.clone()]);
            deadlocking += usize::from(deadlock(&exts.unwrap(), 100_000) == "deadlock");
        }
    }
    let pairs = a.len() * b.len();
    r.put("extension_pairs_deadlocking", ratio(deadlocking, pairs));
}

/// Fig. 6: three copies deadlock where two cannot, so Theorem 5 does not
/// lift to deadlock-freedom alone; Corollary 3 refuses the template.
fn fig6(r: &mut Row) {
    for d in 2..=4 {
        let verdict = deadlock(&wl::fig6(d), 20_000_000);
        r.put(format_args!("copies{d}"), verdict);
    }
    let t = wl::fig6_transaction(&Database::one_entity_per_site(3), "T");
    match copies_safe_df(&t) {
        Ok(_) => r.put("cor3", "certified"),
        Err(v) => r.put("cor3", format_args!("refused: {v}")),
    }
}

/// Lemma 1: a conflict-cycle witness is either doomed (not deadlock-free)
/// or completes to a non-serializable schedule (unsafe).
fn lemma1(r: &mut Row) {
    let (x, y) = (EntityId(0), EntityId(1));
    let db = Database::one_entity_per_site(2);
    let sequential = [Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)];
    for (case, sys) in [
        ("opposite_order", opposite_order(db.clone())),
        ("sequential", pair(db.clone(), &sequential, &sequential)),
    ] {
        let (found, _) = Explorer::new(&sys, 1_000_000).find_conflict_cycle();
        let witness = found.counterexample().expect("a conflict cycle");
        let (kind, schedule) = match classify_violation(&sys, witness, 1_000_000) {
            Some(ViolationKind::Doomed { partial }) => ("Doomed", partial),
            Some(ViolationKind::Unserializable { complete }) => ("Unserializable", complete),
            None => ("unclassified", witness.clone()),
        };
        let complete = schedule.validate(&sys).unwrap().complete;
        let mut r = r.case(case);
        r.put("kind", kind);
        r.put("complete", yn(complete));
        if complete {
            r.put("serializable", yn(schedule.is_serializable(&sys).unwrap()));
        }
    }
}

/// Theorem 1: a reachable stuck state exists iff a deadlock prefix does.
fn thm1(r: &mut Row) {
    for (family, discipline, txns, entities) in [
        ("legal_2txn", LockDiscipline::RandomLegal, 2, 3),
        ("2pl_3txn", LockDiscipline::RandomTwoPhase, 3, 3),
        ("lu_2txn", LockDiscipline::LockUnlockShaped, 2, 4),
    ] {
        let (mut deadlocking, mut free, mut agree) = (0, 0, 0);
        for seed in 0..TRIALS as u64 {
            let sys = generate(discipline, txns, entities, 0xE8_000 + seed);
            let ex = Explorer::new(&sys, 5_000_000);
            let (stuck, _) = ex.find_deadlock();
            deadlocking += usize::from(stuck.violated());
            free += usize::from(stuck.holds());
            agree += usize::from(stuck.violated() == ex.find_deadlock_prefix().0.violated());
        }
        let mut r = r.case(family);
        r.put("deadlocking", deadlocking);
        r.put("deadlock_free", free);
        r.put("agree", ratio(agree, TRIALS));
    }
}

/// Theorem 2: a 3SAT′ formula is satisfiable iff its two-transaction
/// gadget has a deadlock prefix; Fig. 5 is the paper's example.
fn thm2(r: &mut Row) {
    let f = Cnf::paper_example();
    let red = SatReduction::build(&f).unwrap();
    let dl = red.has_deadlock_prefix(100_000_000).unwrap().is_some();
    let mut fig5 = r.case("fig5");
    fig5.put("clauses", red.n_clauses());
    fig5.put("vars", red.n_vars());
    fig5.put("entities", red.sys.db().entity_count());
    fig5.put("nodes_per_txn", red.sys.txn(TxnId(0)).node_count());
    fig5.put("sat", yn(solve(&f).is_sat()));
    fig5.put("deadlock", yn(dl));
    for n in 1..=8u32 {
        let batch = generate_batch(n, 0xE4_000 + u64::from(n), 4);
        let (mut sat, mut dl, mut agree, mut nodes) = (0, 0, 0, Vec::new());
        for f in &batch {
            let red = SatReduction::build(f).unwrap();
            nodes.push(red.sys.txn(TxnId(0)).node_count().to_string());
            let s = solve(f).is_sat();
            let d = red.has_deadlock_prefix(2_000_000_000).unwrap().is_some();
            sat += usize::from(s);
            dl += usize::from(d);
            agree += usize::from(s == d);
        }
        let mut r = r.case(format_args!("n{n}"));
        r.put("sat", sat);
        r.put("deadlock", dl);
        r.put("agree", ratio(agree, batch.len()));
        r.put("gadget_nodes", nodes.join(","));
    }
}

/// Theorem 3: the `O(n²)` pair test, its `O(n³)` minimal-prefix variant
/// and the exhaustive Lemma 1 ground truth agree.
fn thm3(r: &mut Row) {
    for (family, pairs) in seeded_pairs() {
        let (mut certified, mut cubic, mut ground) = (0, 0, 0);
        for sys in &pairs {
            let (t1, t2) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
            let ok = pairwise_safe_df(t1, t2).is_ok();
            certified += usize::from(ok);
            cubic += usize::from(pairwise_safe_df_minimal_prefix(t1, t2).is_ok() == ok);
            let (truth, _) = Explorer::new(sys, 3_000_000).find_conflict_cycle();
            ground += usize::from(truth.holds() == ok);
        }
        let mut r = r.case(family);
        r.put("certified", certified);
        r.put("violated", pairs.len() - certified);
        r.put("agree_cubic", ratio(cubic, TRIALS));
        r.put("agree_ground", ratio(ground, TRIALS));
    }
}

/// Corollary 1 for pairs: Theorem 3 holds iff Lemma 2 holds for every
/// pair of linear extensions.
fn cor1(r: &mut Row) {
    for (family, pairs) in seeded_pairs() {
        let agree = pairs
            .iter()
            .filter(|sys| {
                let (t1, t2) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
                let (a, b) = (extensions(t1, sys.db(), "a"), extensions(t2, sys.db(), "b"));
                let every = a
                    .iter()
                    .all(|ta| b.iter().all(|tb| lemma2_centralized(ta, tb).is_ok()));
                every == pairwise_safe_df(t1, t2).is_ok()
            })
            .count();
        r.case(family).put("agree", ratio(agree, TRIALS));
    }
}

/// Theorem 4 / Corollary 4: a ring (the classic distributed deadlock) is
/// rejected with a normal-form cycle witness; a star on one root certifies.
fn thm4(r: &mut Row) {
    for d in [3, 4, 5, 6, 8] {
        let ring = many_safe_df(&wl::ring_system(d), ManyOptions::default());
        r.put(format_args!("ring{d}"), theorem4(&ring));
    }
    for d in [3, 4, 5, 6, 8] {
        let star = many_safe_df(&wl::star_system(d), ManyOptions::default());
        r.put(format_args!("star{d}"), theorem4(&star));
    }
}

/// Theorem 5 / Corollary 3: for safe+DF, `d` copies reduce to two.
fn thm5(r: &mut Row) {
    let db = Database::one_entity_per_site(3);
    let t = wl::two_phase_total_order(&db, "2PL", &[EntityId(0), EntityId(1), EntityId(2)]);
    r.put("cor3", certified(copies_safe_df(&t).is_ok()));
    for d in 2..=4 {
        let sys = TransactionSystem::copies(db.clone(), &t, d).unwrap();
        let thm4 = many_safe_df(&sys, ManyOptions::default());
        let mut r = r.case(format_args!("copies{d}"));
        r.put("thm4", theorem4(&thm4));
        r.put("explorer", deadlock(&sys, 3_000_000));
    }
}

/// A certified pair whose reachable state space is exponential in `k`:
/// two copies of "lock x first and hold it to the very end, then run `k`
/// parallel lock/unlock branches". Each branch contributes three states,
/// so the explorer visits Θ(3ᵏ) states while Theorem 3 answers in O(k²).
fn parallel_branch_copy_pair(k: usize) -> TransactionSystem {
    let db = Database::one_entity_per_site(k + 1);
    let mut b = Transaction::builder("T");
    let lx = b.lock(EntityId(0));
    let ux = b.unlock(EntityId(0));
    for i in 1..=k {
        let (ly, uy) = b.lock_unlock(EntityId(i as u32));
        b.arc(lx, ly);
        b.arc(uy, ux);
    }
    b.arc(lx, ux);
    let t = b.build(&db).unwrap();
    TransactionSystem::copies(db, &t, 2).unwrap()
}

/// The coNP wall: the exhaustive search's exact state count grows as 3ᵏ
/// on pairs Theorem 3 certifies directly.
fn wall(r: &mut Row) {
    for k in [3, 5, 7, 9] {
        let sys = parallel_branch_copy_pair(k);
        let (verdict, stats) = Explorer::new(&sys, 50_000_000).find_conflict_cycle();
        let thm3 = pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let mut r = r.case(format_args!("k{k}"));
        r.put("safe_df", yn(verdict.holds()));
        r.put("states", stats.states);
        r.put("thm3", certified(thm3.is_ok()));
    }
}

/// Totals of `seeds` simulator runs of `sys` under `policy`, in virtual
/// time.
fn des(mut r: Row, sys: &TransactionSystem, policy: DeadlockPolicy, seeds: usize) {
    let (mut committed, mut stalled, mut aborts, mut detected) = (0, 0, 0, 0);
    let (mut msgs, mut sim_us, mut unserializable) = (0, 0, 0);
    for seed in 0..seeds as u64 {
        let run = simulate(
            sys,
            SimConfig {
                policy,
                seed,
                ..Default::default()
            },
        );
        committed += run.committed;
        stalled += usize::from(!run.stalled.is_empty());
        aborts += run.aborted_attempts;
        detected += run.deadlocks_detected;
        msgs += run.messages;
        sim_us += run.end_time.micros();
        unserializable += usize::from(run.serializable == Some(false));
    }
    r.put("committed", ratio(committed, sys.len() * seeds));
    r.put("deadlocked_runs", ratio(stalled, seeds));
    r.put("aborts", aborts);
    r.put("cycles_detected", detected);
    r.put("msgs", msgs);
    r.put("sim_us", sim_us);
    r.put("unserializable_runs", unserializable);
}

/// The payoff: certified transfers commit with no deadlock handling at
/// all; greedy ones deadlock without a policy and pay aborts under each.
fn payoff(r: &mut Row) {
    let bank = wl::Bank::new(4, 4);
    let routes = [
        ((0, 0), (1, 0)),
        ((1, 1), (2, 1)),
        ((2, 2), (3, 2)),
        ((3, 3), (0, 3)),
        ((1, 2), (0, 1)),
        ((3, 0), (2, 3)),
    ];
    for (workload, greedy) in [("certified", false), ("greedy", true)] {
        let txns = routes.iter().enumerate().map(|(i, &(from, to))| {
            let name = format!("t{i}");
            if greedy {
                bank.transfer_greedy(&name, from, to)
            } else {
                bank.transfer_ordered(&name, from, to)
            }
        });
        let sys = TransactionSystem::new(bank.db.clone(), txns.collect()).unwrap();
        let verdict = certify_safe_and_deadlock_free(&sys, CertifyOptions::default());
        let mut r = r.case(workload);
        r.put("certify", certified(verdict.is_ok()));
        for (name, policy) in [
            ("nothing", DeadlockPolicy::Nothing),
            ("detect_5ms", DeadlockPolicy::Detect { period_us: 5_000 }),
            ("wound_wait", DeadlockPolicy::WoundWait),
            ("wait_die", DeadlockPolicy::WaitDie),
        ] {
            des(r.case(name), &sys, policy, 3);
        }
    }
}

/// Why "distributed" matters: a per-site detector resolves the opposite-
/// order cycle on one site but is blind to it across two.
fn e11(r: &mut Row) {
    for (layout, db) in [
        ("two_sites", Database::one_entity_per_site(2)),
        ("one_site", Database::centralized(2)),
    ] {
        let sys = opposite_order(db);
        let period_us = 1_000;
        for (name, policy) in [
            ("detect_local", DeadlockPolicy::DetectLocal { period_us }),
            ("detect_global", DeadlockPolicy::Detect { period_us }),
        ] {
            des(r.case(format_args!("{layout}.{name}")), &sys, policy, 5);
        }
    }
}
