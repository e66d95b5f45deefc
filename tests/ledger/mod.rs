//! The paper, checked in one place. Each row recomputes one claim's
//! deterministic facts — verdicts, witness shapes and exact counters,
//! never a timing — as `row.key value` lines, and the whole ledger must
//! reproduce `fixtures/golden/paper.txt` line for line, the way
//! `cli_golden.rs` pins the CLI (`paper_ledger.rs`). README's theorem
//! table cites the rows by name. A mismatch names the first differing
//! golden line and prints the row computed so far; edit the golden file
//! by hand, and only for an intended change.
//!
//! [`check`] recomputes only the rows some keys name: the topic test
//! files use it to name the golden lines that hold each of their claims.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use ddlf::core::pairwise::lemma2_centralized;
use ddlf::core::{
    certify_safe_and_deadlock_free, check_deadlock_prefix, classify_violation, copies_safe_df,
    find_schedule_for_prefix, is_lock_unlock_shaped, lu_pair_deadlock_prefix, many_safe_df,
    max_certified_inflation, pairwise_safe_df, pairwise_safe_df_minimal_prefix,
    tirri_two_entity_pattern, two_phase_system, CertifyOptions, Explorer, InflateOptions,
    ManyCertificate, ManyOptions, ManyViolation, ReductionGraph, SatReduction, Verdict,
    ViolationKind,
};
use ddlf::engine::{
    AdmissionOptions, AdmissionVerdict, Engine, EngineConfig, Inflation, Program, Slots,
    TemplateRegistry,
};
use ddlf::model::{
    linear_extensions, Database, EntityId, GlobalNode, Op, Transaction, TransactionSystem, TxnId,
};
use ddlf::sat::{generate_batch, solve, solve_brute_force, Cnf, Lit, SatResult, Var};
use ddlf::sim::{run as simulate, DeadlockPolicy, SimConfig};
use ddlf::workloads::{self as wl, LockDiscipline, SystemGen};
use std::collections::HashSet;
use std::fmt::Display;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::OnceLock;
use std::time::Duration;

type Compute = fn(&mut Row);

/// Every row, in golden-file order.
const ROWS: [(&str, Compute); 15] = [
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
    ("engine", engine),
];

/// The names of every row, in golden-file order.
pub fn row_names() -> impl Iterator<Item = &'static str> {
    ROWS.into_iter().map(|(name, _)| name)
}

/// The whole ledger must be the golden file: every row, once, in order.
pub fn check_all() {
    let golden = golden();
    let mut order: Vec<&str> = golden.lines().map(row_of).collect();
    order.dedup();
    let rows: Vec<&str> = row_names().collect();
    assert_eq!(
        order, rows,
        "fixtures/golden/paper.txt holds every row once, in order"
    );
    for i in 0..ROWS.len() {
        verify(i, &golden);
    }
}

/// Recomputes the rows that `keys` name and checks them whole; `keys`
/// name the golden lines that hold one claim. A key names a row, a case
/// or one fact by its leading dot-separated segments, and a `*` segment
/// matches any one segment: `fig2`, `fig2.des.nothing`, `thm2.*.agree`.
/// Every key must hold at least one golden line.
pub fn check(keys: &[&str]) {
    let golden = golden();
    for key in keys {
        let segments: Vec<&str> = key.split('.').collect();
        let holds = |line: &str| {
            let fact: Vec<&str> = line.split(' ').next().unwrap().split('.').collect();
            let matches = segments.iter().zip(&fact).all(|(k, f)| *k == "*" || k == f);
            segments.len() <= fact.len() && matches
        };
        assert!(
            golden.lines().any(holds),
            "no line of fixtures/golden/paper.txt is under {key:?}"
        );
    }
    for (i, (name, _)) in ROWS.iter().enumerate() {
        if keys.iter().any(|k| row_of(k) == *name) {
            verify(i, &golden);
        }
    }
}

fn golden() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden/paper.txt");
    std::fs::read_to_string(path).unwrap()
}

/// The row a key or a golden line belongs to: its first segment.
fn row_of(line: &str) -> &str {
    line.split(['.', ' ']).next().unwrap()
}

/// Rows already verified by this test binary: the tests of one topic
/// file share their rows, and a row is computed at most once.
static VERIFIED: [OnceLock<()>; ROWS.len()] = [const { OnceLock::new() }; ROWS.len()];

/// Computes row `i`, comparing each line with the row's golden lines as
/// it is put: a wrong fact fails before anything after it runs, so a
/// broken engine invariant fails here instead of hanging a later run.
fn verify(i: usize, golden: &str) {
    VERIFIED[i].get_or_init(|| {
        let (name, row) = ROWS[i];
        let mut ledger = Ledger {
            want: golden
                .lines()
                .enumerate()
                .filter(|(_, l)| row_of(l) == name)
                .collect(),
            next: 0,
            text: String::new(),
        };
        row(&mut Row {
            name: name.into(),
            out: &mut ledger,
        });
        ledger.expect(None);
    });
}

/// One row as computed so far, and the golden lines (with their index in
/// the file) it must reproduce.
struct Ledger<'a> {
    want: Vec<(usize, &'a str)>,
    next: usize,
    text: String,
}

impl Ledger<'_> {
    fn push(&mut self, line: String) {
        self.text.push_str(&line);
        self.text.push('\n');
        self.expect(Some(&line));
    }

    /// The row's next golden line must be `got` (`None`: its end).
    fn expect(&mut self, got: Option<&str>) {
        let want = self.want.get(self.next);
        if want.map(|w| w.1) != got {
            let line = want.or(self.want.last()).map_or(0, |w| w.0) + 1;
            panic!(
                "fixtures/golden/paper.txt:{line}: want {:?}, computed {:?}\n--- computed row ---\n{}",
                want.map_or("<end of row>", |w| w.1),
                got.unwrap_or("<end of row>"),
                self.text,
            );
        }
        self.next += 1;
    }
}

/// One row of the ledger: every fact it puts is a `name.key value` line.
struct Row<'a, 'l> {
    name: String,
    out: &'a mut Ledger<'l>,
}

impl<'l> Row<'_, 'l> {
    fn put(&mut self, key: impl Display, value: impl Display) {
        self.out.push(format!("{}.{key} {value}", self.name));
    }

    /// The facts about one case of this row, named `name.case.key`.
    fn case(&mut self, case: impl Display) -> Row<'_, 'l> {
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
    let (sys, prefix, ents) = wl::fig1();
    let schedule = find_schedule_for_prefix(&sys, &prefix, 1_000_000);
    r.put("prefix_has_schedule", yn(schedule.is_some()));
    let cyclic = ReductionGraph::build(&sys, &prefix).is_cyclic();
    r.put("reduction_graph_cyclic", yn(cyclic));
    let dp = check_deadlock_prefix(&sys, &prefix, 1_000_000).expect("a deadlock prefix");
    let (txns, entities) = span(&sys, &dp.cycle);
    r.put("cycle_nodes", dp.cycle.len());
    r.put("cycle_txns", txns);
    r.put("cycle_entities", entities);
    // The text's cycle L¹z, U¹y, L²y, U²x, L³x, U³z alternates locks and
    // unlocks over {x, y, z}.
    let ops: Vec<Op> = dp.cycle.iter().map(|g| sys.txn(g.txn).op(g.node)).collect();
    r.put("cycle_locks", ops.iter().filter(|op| op.is_lock()).count());
    r.put(
        "cycle_unlocks",
        ops.iter().filter(|op| !op.is_lock()).count(),
    );
    let xyz = [ents.x, ents.y, ents.z];
    r.put(
        "cycle_within_xyz",
        yn(ops.iter().all(|op| xyz.contains(&op.entity))),
    );
    r.put("explorer", deadlock(&sys, 5_000_000));
}

/// Fig. 2: Tirri's two-entity test is unsound — two copies of one dag
/// deadlock through four entities with no two-entity pattern. Being
/// non-two-phase, the pair also shows at runtime that deadlock policies
/// restore liveness but not safety.
fn fig2(r: &mut Row) {
    let (sys, prefix) = wl::fig2();
    // Identical total orders never deadlock in a centralized database;
    // identical partial orders can.
    let (t1, t2) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    let same = t1.node_count() == t2.node_count() && t1.nodes().all(|n| t1.op(n) == t2.op(n));
    r.put("copies_share_syntax", yn(same));
    let tirri = tirri_two_entity_pattern(t1, t2);
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
    des(r.case("des.nothing"), &sys, DeadlockPolicy::Nothing, 60);
    for (name, policy) in [
        ("detect_1ms", DeadlockPolicy::Detect { period_us: 1_000 }),
        ("wound_wait", DeadlockPolicy::WoundWait),
        ("wait_die", DeadlockPolicy::WaitDie),
    ] {
        des(r.case(format_args!("des.{name}")), &sys, policy, 30);
    }
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
/// gadget has a deadlock prefix, and the proof's witness maps go both
/// ways; Fig. 5 is the paper's example.
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
        let batch = generate_batch(n, 0xE4_000 + u64::from(n), TRIALS);
        let (mut sat, mut dl, mut agree, mut brute, mut shape) = (0, 0, 0, 0, 0);
        let (mut assignment_trips, mut witness_trips, mut nodes) = (0, 0, Vec::new());
        for f in &batch {
            let red = SatReduction::build(f).unwrap();
            nodes.push(red.sys.txn(TxnId(0)).node_count().to_string());
            // 2r + 3n entities, each on its own site; both transactions
            // lock/unlock-shaped over all of them.
            let e = 2 * red.n_clauses() + 3 * n as usize;
            let db = red.sys.db();
            shape += usize::from(
                db.entity_count() == e
                    && db.site_count() == e
                    && red
                        .sys
                        .iter()
                        .all(|(_, t)| is_lock_unlock_shaped(t) && t.node_count() == 2 * e),
            );
            let solved = solve(f);
            let s = solved.is_sat();
            brute += usize::from(s == solve_brute_force(f).is_sat());
            let witness = red.has_deadlock_prefix(2_000_000_000).unwrap();
            let d = witness.is_some();
            sat += usize::from(s);
            dl += usize::from(d);
            agree += usize::from(s == d);
            // assignment → deadlock prefix → reduction cycle → assignment.
            if let SatResult::Sat(a) = &solved {
                let trip = red.prefix_from_assignment(f, a).is_some_and(|prefix| {
                    let cycle = ReductionGraph::build(&red.sys, &prefix).cycle(&red.sys);
                    let verified = check_deadlock_prefix(&red.sys, &prefix, 1_000_000)
                        .is_some_and(|dp| !dp.schedule.is_empty());
                    verified && cycle.is_some_and(|c| f.evaluate(&red.assignment_from_cycle(&c)))
                });
                assignment_trips += usize::from(trip);
            }
            // The search's own witness: its cycle satisfies the formula
            // and its prefix verifies independently.
            if let Some(w) = &witness {
                let trip = f.evaluate(&red.assignment_from_cycle(&w.cycle))
                    && check_deadlock_prefix(&red.sys, &w.prefix, 1_000_000).is_some();
                witness_trips += usize::from(trip);
            }
        }
        let mut r = r.case(format_args!("n{n}"));
        r.put("sat", sat);
        r.put("deadlock", dl);
        r.put("agree", ratio(agree, batch.len()));
        r.put("dpll_agrees_brute_force", ratio(brute, batch.len()));
        r.put("assignment_roundtrip", ratio(assignment_trips, sat));
        r.put("witness_roundtrip", ratio(witness_trips, dl));
        r.put("gadget_shape", ratio(shape, batch.len()));
        r.put("gadget_nodes", nodes.join(","));
    }
    // (x)(x)(¬x), k independent copies: unsatisfiable, with growing
    // gadgets that must stay deadlock-free.
    for k in 1..=3u32 {
        let mut f = Cnf::new(k);
        for v in 0..k {
            f.add_clause(vec![Lit::pos(Var(v))]);
            f.add_clause(vec![Lit::pos(Var(v))]);
        }
        for v in 0..k {
            f.add_clause(vec![Lit::neg(Var(v))]);
        }
        let red = SatReduction::build(&f).unwrap();
        let mut r = r.case(format_args!("unsat_k{k}"));
        r.put("three_sat_prime", yn(f.validate_three_sat_prime().is_ok()));
        r.put("sat", yn(solve(&f).is_sat()));
        let dl = red.has_deadlock_prefix(500_000_000).unwrap();
        r.put("deadlock", yn(dl.is_some()));
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

/// `hub(n)`: `n` templates `L hot, L pᵢ, U hot, U pᵢ`, the harness's
/// `hot-ordered` shape. The interaction graph is complete, so every cycle
/// is visited and counted, and every one certifies.
fn hub(n: u32) -> TransactionSystem {
    let db = Database::one_entity_per_site(n as usize + 1);
    let hot = EntityId(0);
    let txns = (1..=n)
        .map(|p| {
            let ops = [
                Op::lock(hot),
                Op::lock(EntityId(p)),
                Op::unlock(hot),
                Op::unlock(EntityId(p)),
            ];
            Transaction::from_total_order(format!("ordered_{p}"), &ops, &db).unwrap()
        })
        .collect();
    TransactionSystem::new(db, txns).unwrap()
}

/// Theorem 4 / Corollary 4: a ring (the classic distributed deadlock) is
/// rejected with a normal-form cycle witness; a star on one root
/// certifies, and so does a hub, after checking every cycle.
fn thm4(r: &mut Row) {
    for d in [3, 4, 5, 6, 8] {
        let ring = many_safe_df(&wl::ring_system(d), ManyOptions::default());
        r.put(format_args!("ring{d}"), theorem4(&ring));
    }
    for d in [3, 4, 5, 6, 8] {
        let star = many_safe_df(&wl::star_system(d), ManyOptions::default());
        r.put(format_args!("star{d}"), theorem4(&star));
    }
    for n in [9, 10] {
        let cert = many_safe_df(&hub(n), ManyOptions::default()).expect("a hub certifies");
        let mut r = r.case(format_args!("hub{n}"));
        r.put("pairs", cert.pairs_checked);
        r.put("cycles", cert.cycles_checked);
        if n == 9 {
            r.put("orderings", cert.orderings_checked);
        }
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
    // Seeded single templates: Theorem 4 on d = 2..5 copies agrees with
    // Corollary 3 on two.
    for (family, discipline) in [
        ("legal", LockDiscipline::RandomLegal),
        ("2pl", LockDiscipline::RandomTwoPhase),
        ("ordered", LockDiscipline::OrderedTwoPhase),
    ] {
        let (mut cor3, mut agree, mut cases) = (0, 0, 0);
        for seed in 0..30 {
            let sys = generate(discipline, 1, 3, 0x75_000 + seed);
            let t = sys.txn(TxnId(0));
            let two = copies_safe_df(t).is_ok();
            cor3 += usize::from(two);
            for d in 2..=5 {
                let copies = TransactionSystem::copies(sys.db().clone(), t, d).unwrap();
                agree += usize::from(many_safe_df(&copies, ManyOptions::default()).is_ok() == two);
                cases += 1;
            }
        }
        let mut r = r.case(format_args!("sweep.{family}"));
        r.put("cor3_certified", ratio(cor3, 30));
        r.put("agree", ratio(agree, cases));
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
    let (mut msgs, mut sim_us, mut unserializable, mut unaudited) = (0, 0, 0, 0);
    for seed in 0..seeds as u64 {
        let run = sim(sys, policy, seed);
        committed += run.committed;
        stalled += usize::from(!run.stalled.is_empty());
        aborts += run.aborted_attempts;
        detected += run.deadlocks_detected;
        msgs += run.messages;
        sim_us += run.end_time.micros();
        unserializable += usize::from(run.serializable == Some(false));
        unaudited += usize::from(run.serializable.is_none());
    }
    r.put("committed", ratio(committed, sys.len() * seeds));
    r.put("deadlocked_runs", ratio(stalled, seeds));
    r.put("aborts", aborts);
    r.put("cycles_detected", detected);
    r.put("msgs", msgs);
    r.put("sim_us", sim_us);
    r.put("unserializable_runs", unserializable);
    r.put("unaudited_runs", unaudited);
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
    sweep(r.case("sweep"));
}

/// One simulator run of `sys` under `policy`.
fn sim(sys: &TransactionSystem, policy: DeadlockPolicy, seed: u64) -> ddlf::sim::SimReport {
    simulate(
        sys,
        SimConfig {
            policy,
            seed,
            ..Default::default()
        },
    )
}

/// The payoff over seeded random systems: every certified one commits
/// every run with no policy at all, and serializably; a rejected
/// two-phase one deadlocks under some timing, which the detector repairs.
fn sweep(mut r: Row) {
    let (mut systems, mut runs, mut committed, mut stalled, mut serializable) = (0, 0, 0, 0, 0);
    for discipline in [
        LockDiscipline::RandomTwoPhase,
        LockDiscipline::OrderedTwoPhase,
    ] {
        for seed in 0..30 {
            let sys = SystemGen {
                n_sites: 4,
                entities_per_site: 1,
                n_txns: 4,
                entities_per_txn: 3,
                discipline,
                seed,
            }
            .generate();
            if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err() {
                continue;
            }
            systems += 1;
            for sim_seed in 0..5 {
                let run = sim(&sys, DeadlockPolicy::Nothing, sim_seed);
                runs += 1;
                committed += run.committed;
                stalled += usize::from(!run.stalled.is_empty());
                serializable += usize::from(run.serializable == Some(true));
            }
        }
    }
    let mut c = r.case("certified");
    c.put("systems", ratio(systems, 60));
    c.put("committed", ratio(committed, 4 * runs));
    c.put("deadlocked_runs", ratio(stalled, runs));
    c.put("serializable_runs", ratio(serializable, runs));
    let (mut rejected, mut deadlocked, mut repaired) = (0, 0, 0);
    for seed in 0..40 {
        let sys = generate(LockDiscipline::RandomTwoPhase, 3, 3, 0xBAD + seed);
        if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok() {
            continue;
        }
        rejected += 1;
        // The first timing of ten that deadlocks, replayed with a detector.
        let stall = (0..10).find(|&s| !sim(&sys, DeadlockPolicy::Nothing, s).stalled.is_empty());
        if let Some(s) = stall {
            deadlocked += 1;
            let detect = DeadlockPolicy::Detect { period_us: 2_000 };
            repaired += usize::from(sim(&sys, detect, s).all_committed(sys.len()));
        }
    }
    let mut u = r.case("uncertified");
    u.put("rejected", ratio(rejected, 40));
    u.put("deadlocked", ratio(deadlocked, rejected));
    u.put("repaired", ratio(repaired, deadlocked));
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

/// Installs money-transfer programs on `bank_ordered_pair`'s two
/// templates: accounts move value, ledgers are read, so Σint is
/// conserved.
fn with_transfers(mut reg: TemplateRegistry, bank: &wl::Bank) -> TemplateRegistry {
    for (t, from, to, amount) in [(0, (0, 0), (1, 0), 5), (1, (1, 1), (0, 1), 3)] {
        let program = Program::transfer(
            bank.accounts[from.0][from.1],
            bank.accounts[to.0][to.1],
            amount,
        )
        .read(bank.ledgers[0])
        .read(bank.ledgers[1]);
        reg.set_program(TxnId(t), program).unwrap();
    }
    reg
}

fn config(instances: usize, threads: usize, work_us: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        threads,
        instances,
        work: Duration::from_micros(work_us),
        seed,
        ..Default::default()
    }
}

/// What admission decided: the verdict, each template's slots, and
/// whether a requested inflation floored back to one copy.
fn admission(r: &mut Row, verdict: &AdmissionVerdict, slots: Vec<Slots>, floored: bool) {
    let verdict = match verdict {
        AdmissionVerdict::Certified => "certified",
        AdmissionVerdict::Fallback { .. } => "fallback",
    };
    r.put("verdict", verdict);
    let slots: Vec<String> = slots.iter().map(Slots::to_string).collect();
    r.put("slots", slots.join(","));
    r.put("floored", yn(floored));
}

/// [`admission`] of a registry that is not run.
fn admitted(mut r: Row, reg: &TemplateRegistry) {
    let templates = 0..reg.system().len() as u32;
    let slots = templates.map(|t| reg.plan().slots_of(TxnId(t))).collect();
    admission(&mut r, reg.verdict(), slots, reg.plan().floored);
}

/// How long one engine run of the ledger may take. A plan that
/// deadlocks parks its workers for ever; past this the row fails
/// instead of hanging the test.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// Admits `reg` and runs it: only the facts no schedule can change. Every
/// run commits all it was given and serializes, whatever its path. A
/// run on the certified path aborts nothing and never holds more
/// instances of a template than its slots, and an `exact` one's
/// counters and total are exact.
fn run(mut r: Row, reg: TemplateRegistry, cfg: EngineConfig, exact: bool) {
    // The run on its own thread, which hands the engine back with the
    // report; a run past the deadline is left hanging and fails.
    let engine = Engine::with_registry(reg, cfg);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let report = engine.run();
        let _ = tx.send((engine, report));
    });
    let (engine, report) = match rx.recv_timeout(RUN_DEADLINE) {
        Ok(done) => {
            handle.join().expect("the run's thread sent its report");
            done
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the run's thread ended without a report"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("{}: no report within {RUN_DEADLINE:?}", r.name)
        }
    };
    let slots = report.per_template.iter().map(|t| t.certified_slots);
    admission(
        &mut r,
        &report.verdict,
        slots.collect(),
        report.plan_floored,
    );
    r.put("committed", ratio(report.committed, report.instances));
    r.put("serializable", yn(report.serializable == Some(true)));
    if exact {
        r.put("total_int", engine.store().total_int());
    }
    if report.forced_fallback {
        r.put("forced_fallback", "yes");
    } else if report.verdict.is_certified() {
        r.put("aborts", report.aborted_attempts);
        let within = report.per_template.iter().all(|t| match t.certified_slots {
            Slots::Bounded(k) => t.peak_inflight <= k,
            Slots::Unbounded => true,
        });
        r.put("peak_within_slots", yn(within));
        if exact {
            r.put("history_len", report.history_len);
            r.put("reads", report.reads);
            r.put("writes", report.writes);
            r.put("total_versions", engine.store().total_versions());
        }
    }
}

/// The engine: a certified system runs with no detector and aborts
/// nothing, an uncertified one completes under wait-die, and admission
/// sizes each template's counting gate from the largest inflation
/// certified safe (Fig. 6: two copies are deadlock-free but unsafe,
/// three deadlock, so both requests floor to one).
fn engine(r: &mut Row) {
    let (bank, sys) = wl::bank_ordered_pair();
    let reg = with_transfers(TemplateRegistry::register(sys.clone()), &bank);
    run(r.case("banking"), reg, config(40, 4, 50, 42), true);
    let reg = with_transfers(TemplateRegistry::register(sys), &bank);
    let cfg = EngineConfig {
        force_fallback: true,
        ..config(20, 4, 20, 42)
    };
    run(r.case("banking_fallback"), reg, cfg, true);
    let reg = TemplateRegistry::register(wl::fig2().0);
    run(r.case("fig2"), reg, config(2, 2, 200, 0), false);
    for (case, discipline, seed) in [
        ("ordered_2pl", LockDiscipline::OrderedTwoPhase, 5),
        ("random_2pl", LockDiscipline::RandomTwoPhase, 17),
    ] {
        let reg = TemplateRegistry::register(generate(discipline, 4, 3, seed));
        run(r.case(case), reg, config(4, 4, 200, 0), true);
    }
    let opts = InflateOptions {
        explore_states: 5_000_000,
        ..Default::default()
    };
    // Theorem 5 certifies unbounded copies; an explicit request is a
    // ceiling (∞ is granted only under `Auto`).
    let uniform =
        |sys, inflate| TemplateRegistry::register_with(sys, AdmissionOptions { inflate, opts });
    let reg = uniform(wl::bank_uniform_transfer().1, Inflation::Uniform(4));
    admitted(r.case("uniform_k4"), &reg);
    let fig6 = wl::fig6(1);
    let max = max_certified_inflation(&fig6, opts, 8).unwrap();
    let mut m = r.case("fig6_max");
    m.put("k", max.k);
    m.put("unbounded", yn(max.unbounded));
    m.put("safe", yn(max.certificate.guarantees_safety()));
    let reg = uniform(fig6.clone(), Inflation::Uniform(3));
    run(r.case("fig6_k3"), reg, config(24, 4, 20, 0), true);
    let reg = uniform(fig6.clone(), Inflation::Uniform(2));
    run(r.case("fig6_k2"), reg, config(40, 4, 20, 3), false);
    admitted(
        r.case("fig6_auto"),
        &uniform(fig6, Inflation::Auto { cap: 8 }),
    );
}
