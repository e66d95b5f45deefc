//! The E1–E11 experiments (see DESIGN.md §4). Each regenerates one of the
//! paper's figures/claims as a table, with timings measured on this
//! machine.

use crate::table::{dur_us, f2, Table};
use ddlf_core::{
    certify_safe_and_deadlock_free, check_deadlock_prefix, copies_safe_df, lu_pair_deadlock_prefix,
    many_safe_df, pairwise_safe_df, pairwise_safe_df_minimal_prefix, tirri_two_entity_pattern,
    CertifyOptions, Explorer, ManyOptions, SatReduction,
};
use ddlf_model::{linear_extensions, TransactionSystem, TxnId};
use ddlf_sat::{generate_batch, solve, Cnf};
use ddlf_sim::{run as sim_run, DeadlockPolicy, SimConfig};
use ddlf_workloads as wl;
use std::time::Instant;

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e6)
}

/// E1 — Figure 1: the worked deadlock-prefix example.
pub fn e1_fig1() -> Table {
    let mut t = Table::new(
        "E1 — Figure 1: deadlock prefix and its reduction-graph cycle",
        "The paper's §3 example: three transactions over two sites whose prefix \
         {L¹y, L²x, L³z} has a schedule and a cyclic reduction graph \
         (cycle L¹z → U¹y → L²y → U²x → L³x → U³z). We rebuild it and verify \
         both conditions of the deadlock-prefix definition.",
        &["check", "paper", "measured"],
    );
    let (sys, prefix, _) = wl::fig1();
    let dp = check_deadlock_prefix(&sys, &prefix, 1_000_000);
    t.row(&[
        "prefix has a schedule".into(),
        "yes".into(),
        if dp.is_some() {
            "yes".into()
        } else {
            "no".into()
        },
    ]);
    let cyclic = ddlf_core::ReductionGraph::build(&sys, &prefix).is_cyclic();
    t.row(&[
        "reduction graph cyclic".into(),
        "yes".into(),
        if cyclic { "yes".into() } else { "no".into() },
    ]);
    if let Some(dp) = &dp {
        let txns: std::collections::HashSet<_> = dp.cycle.iter().map(|g| g.txn).collect();
        t.row(&[
            "cycle spans transactions".into(),
            "3 (T1, T2, T3)".into(),
            format!("{}", txns.len()),
        ]);
        let ents: std::collections::HashSet<_> = dp
            .cycle
            .iter()
            .map(|g| sys.txn(g.txn).op(g.node).entity)
            .collect();
        t.row(&[
            "cycle spans entities".into(),
            "3 (x, y, z)".into(),
            format!("{}", ents.len()),
        ]);
    }
    let (v, us) = time_us(|| Explorer::new(&sys, 5_000_000).find_deadlock().0.violated());
    t.row(&[
        "operational deadlock reachable".into(),
        "yes".into(),
        format!("{} ({})", if v { "yes" } else { "no" }, dur_us(us)),
    ]);
    t
}

/// E2 — Figure 2: the Tirri counterexample.
pub fn e2_fig2() -> Table {
    let mut t = Table::new(
        "E2 — Figure 2: two-entity detectors are unsound (Tirri counterexample)",
        "Two copies of the Fig. 2 dag (entities v,t,z,w; arcs Lv→Ut, Lt→Uz, Lz→Uw, \
         Lw→Uv). The paper: no pair of entities shows the hold-and-wait pattern, \
         yet the prefix {L²v, L¹t, L²z, L¹w} is a deadlock prefix with a 9-node \
         reduction cycle through all four entities.",
        &["detector", "verdict", "time"],
    );
    let (sys, prefix) = wl::fig2();
    let (tirri, us) = time_us(|| tirri_two_entity_pattern(sys.txn(TxnId(0)), sys.txn(TxnId(1))));
    t.row(&[
        "Tirri two-entity pattern [T]".into(),
        format!(
            "{} (FALSE NEGATIVE)",
            if tirri.is_some() {
                "deadlock"
            } else {
                "deadlock-free"
            }
        ),
        dur_us(us),
    ]);
    let (lu, us) = time_us(|| lu_pair_deadlock_prefix(&sys, 10_000_000).unwrap());
    t.row(&[
        "reduction-graph cycle search (ours)".into(),
        format!(
            "deadlock prefix, cycle of {} nodes",
            lu.as_ref().map(|w| w.cycle.len()).unwrap_or(0)
        ),
        dur_us(us),
    ]);
    let (ex, us) = time_us(|| Explorer::new(&sys, 10_000_000).find_deadlock().0.violated());
    t.row(&[
        "exhaustive state search [SM]".into(),
        (if ex { "deadlock" } else { "deadlock-free" }).to_string(),
        dur_us(us),
    ]);
    let dp = check_deadlock_prefix(&sys, &prefix, 1_000_000).expect("paper prefix");
    t.row(&[
        "paper's stated prefix {L²v, L¹t, L²z, L¹w}".into(),
        format!("deadlock prefix, cycle of {} nodes", dp.cycle.len()),
        "—".into(),
    ]);
    t
}

/// E3 — Figure 3: partial orders vs their linear extensions.
pub fn e3_fig3() -> Table {
    let mut t = Table::new(
        "E3 — Figure 3: deadlock-freedom does not reduce to linear extensions",
        "The Fig. 3 dag (two parallel lock/unlock pairs). As partial orders the \
         two copies are deadlock-free; specific linear extensions (t₁ = Lx Ly Ux Uy, \
         t₂ = Ly Lx Ux Uy) deadlock. Safety reduces to extensions [KP2]; \
         deadlock-freedom does not.",
        &["system", "paper", "measured"],
    );
    let sys = wl::fig3();
    let ex = Explorer::new(&sys, 1_000_000);
    t.row(&[
        "{T1, T2} as partial orders".into(),
        "deadlock-free".into(),
        if ex.find_deadlock().0.holds() {
            "deadlock-free".into()
        } else {
            "deadlock!".into()
        },
    ]);
    let exts = wl::fig3_deadlocking_extensions();
    let ex2 = Explorer::new(&exts, 1_000_000);
    t.row(&[
        "{t1, t2} chosen extensions".into(),
        "deadlock".into(),
        if ex2.find_deadlock().0.violated() {
            "deadlock".into()
        } else {
            "deadlock-free".into()
        },
    ]);
    // Census over all extension pairs: how many deadlock?
    let t1 = sys.txn(TxnId(0));
    let all = linear_extensions(t1, 1000);
    let mut deadlocking = 0;
    let mut total = 0;
    for e1 in &all {
        for e2 in &all {
            // Build centralized total orders from the extensions.
            let db = ddlf_model::Database::one_entity_per_site(2);
            let mk = |name: &str, ext: &[ddlf_model::NodeId]| {
                let ops: Vec<ddlf_model::Op> = ext.iter().map(|&n| t1.op(n)).collect();
                ddlf_model::Transaction::from_total_order(name, &ops, &db).unwrap()
            };
            let pair = TransactionSystem::new(db.clone(), vec![mk("a", e1), mk("b", e2)]).unwrap();
            total += 1;
            if Explorer::new(&pair, 100_000).find_deadlock().0.violated() {
                deadlocking += 1;
            }
        }
    }
    t.row(&[
        "extension-pair census".into(),
        "some pairs deadlock".into(),
        format!("{deadlocking}/{total} pairs deadlock"),
    ]);
    t
}

/// E4 — Theorem 2: 3SAT′ ⟺ deadlock prefix, end to end.
pub fn e4_theorem2(instances_per_n: usize) -> Table {
    let mut t = Table::new(
        "E4 — Theorem 2: 3SAT′ satisfiability ⟺ gadget deadlock",
        "For each random 3SAT′ formula, satisfiability is decided by an \
         independent DPLL solver and deadlock-prefix existence by cycle search \
         on the two-transaction gadget. The theorem demands exact agreement \
         (satisfiable ⟺ not deadlock-free). Includes the paper's worked \
         example (x₁∨x₂)(x₁∨¬x₂)(¬x₁∨x₂).",
        &[
            "n vars",
            "instances",
            "SAT",
            "deadlock",
            "agreement",
            "gadget nodes/txn",
            "avg decide time",
        ],
    );

    // Paper's worked example first.
    {
        let f = Cnf::paper_example();
        let red = SatReduction::build(&f).unwrap();
        let sat = solve(&f).is_sat();
        let (dl, us) = time_us(|| red.has_deadlock_prefix(100_000_000).unwrap().is_some());
        t.row(&[
            "paper ex.".into(),
            "1".into(),
            format!("{}", sat as u8),
            format!("{}", dl as u8),
            if sat == dl {
                "1/1".into()
            } else {
                "MISMATCH".into()
            },
            format!("{}", red.sys.txn(TxnId(0)).node_count()),
            dur_us(us),
        ]);
    }

    for n in 1..=8u32 {
        let batch = generate_batch(n, 0xE4_000 + n as u64, instances_per_n);
        let mut sat_n = 0;
        let mut dl_n = 0;
        let mut agree = 0;
        let mut nodes = 0;
        let mut total_us = 0.0;
        for f in &batch {
            let red = SatReduction::build(f).unwrap();
            nodes = red.sys.txn(TxnId(0)).node_count();
            let sat = solve(f).is_sat();
            let (dl, us) = time_us(|| red.has_deadlock_prefix(2_000_000_000).unwrap().is_some());
            total_us += us;
            sat_n += sat as usize;
            dl_n += dl as usize;
            agree += (sat == dl) as usize;
        }
        t.row(&[
            format!("{n}"),
            format!("{}", batch.len()),
            format!("{sat_n}"),
            format!("{dl_n}"),
            format!("{agree}/{}", batch.len()),
            format!("{nodes}"),
            dur_us(total_us / batch.len() as f64),
        ]);
    }
    t
}

/// E5 — Theorem 3: the `O(n²)` pairwise test.
pub fn e5_theorem3(trials: usize) -> Table {
    let mut t = Table::new(
        "E5 — Theorem 3: pairwise safe+deadlock-free test",
        "Correctness: on random small pairs the O(n²) test, the O(n³) \
         minimal-prefix variant, and the exhaustive Lemma 1 ground truth must \
         agree. Scaling: time of both polynomial tests as transaction size n \
         grows (ordered-2PL pairs, which exercise the full coverage loop).",
        &[
            "n (ops/txn)",
            "certified",
            "violated",
            "agree(O(n²),O(n³))",
            "agree(ground)",
            "t O(n²)",
            "t O(n³)",
        ],
    );

    // Correctness on random small pairs, mixed disciplines.
    use wl::{LockDiscipline, SystemGen};
    for (label, disc, n_e) in [
        ("rand-legal 3e", LockDiscipline::RandomLegal, 3),
        ("rand-2PL 3e", LockDiscipline::RandomTwoPhase, 3),
        ("lu-shaped 3e", LockDiscipline::LockUnlockShaped, 3),
    ] {
        let mut cert = 0;
        let mut viol = 0;
        let mut agree23 = 0;
        let mut agree_g = 0;
        let mut t2_us = 0.0;
        let mut t3_us = 0.0;
        for seed in 0..trials as u64 {
            let sys = SystemGen {
                n_sites: n_e,
                entities_per_site: 1,
                n_txns: 2,
                entities_per_txn: n_e,
                discipline: disc,
                seed: 0xE5_000 + seed,
            }
            .generate();
            let (a, ua) =
                time_us(|| pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1))).is_ok());
            let (b, ub) = time_us(|| {
                pairwise_safe_df_minimal_prefix(sys.txn(TxnId(0)), sys.txn(TxnId(1))).is_ok()
            });
            t2_us += ua;
            t3_us += ub;
            let g = Explorer::new(&sys, 3_000_000)
                .find_conflict_cycle()
                .0
                .holds();
            cert += a as usize;
            viol += !a as usize;
            agree23 += (a == b) as usize;
            agree_g += (a == g) as usize;
        }
        t.row(&[
            label.into(),
            format!("{cert}"),
            format!("{viol}"),
            format!("{agree23}/{trials}"),
            format!("{agree_g}/{trials}"),
            dur_us(t2_us / trials as f64),
            dur_us(t3_us / trials as f64),
        ]);
    }

    // Scaling sweep.
    for n in [16usize, 32, 64, 128, 256] {
        let sys = wl::scaling_pair(n, LockDiscipline::OrderedTwoPhase, 7);
        let reps = 5;
        let (_, u2) = time_us(|| {
            for _ in 0..reps {
                let _ = pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1)));
            }
        });
        let (_, u3) = time_us(|| {
            for _ in 0..reps {
                let _ = pairwise_safe_df_minimal_prefix(sys.txn(TxnId(0)), sys.txn(TxnId(1)));
            }
        });
        t.row(&[
            format!("{n}"),
            "1".into(),
            "0".into(),
            "—".into(),
            "—".into(),
            dur_us(u2 / reps as f64),
            dur_us(u3 / reps as f64),
        ]);
    }
    t
}

/// E6 — Theorem 4: many transactions via interaction-graph cycles.
pub fn e6_theorem4() -> Table {
    let mut t = Table::new(
        "E6 — Theorem 4: fixed number of transactions",
        "Ring systems (interaction graph = d-cycle, the classic distributed \
         deadlock) must be rejected with a normal-form witness; star systems \
         (shared root lock) must certify. Time is polynomial in the number of \
         interaction-graph cycles.",
        &["system", "d", "cycles", "verdict", "paper", "time"],
    );
    for d in [3usize, 4, 5, 6, 8] {
        let sys = wl::ring_system(d);
        let (r, us) = time_us(|| many_safe_df(&sys, ManyOptions::default()));
        let cycles = match &r {
            Ok(c) => c.cycles_checked.to_string(),
            Err(_) => "≥1".into(),
        };
        t.row(&[
            "ring".into(),
            format!("{d}"),
            cycles,
            if r.is_ok() {
                "certified".into()
            } else {
                "violation (cycle witness)".into()
            },
            "violation".into(),
            dur_us(us),
        ]);
    }
    for d in [3usize, 4, 5, 6, 8] {
        let sys = wl::star_system(d);
        let (r, us) = time_us(|| many_safe_df(&sys, ManyOptions::default()));
        t.row(&[
            "star".into(),
            format!("{d}"),
            match &r {
                Ok(c) => c.cycles_checked.to_string(),
                Err(_) => "?".into(),
            },
            if r.is_ok() {
                "certified".into()
            } else {
                "violation".into()
            },
            "certified".into(),
            dur_us(us),
        ]);
    }
    t
}

/// E7 — Corollary 3 / Theorem 5 and Figure 6: systems of copies.
pub fn e7_copies() -> Table {
    let mut t = Table::new(
        "E7 — copies: Corollary 3 / Theorem 5 vs the Fig. 6 separation",
        "For safe+DF, d copies reduce to 2 copies (Theorem 5): the Corollary 3 \
         test must agree with Theorem 4 run on d copies. For deadlock-freedom \
         ALONE the reduction fails: Fig. 6's transaction deadlocks with 3 copies \
         but never with 2.",
        &[
            "transaction",
            "d",
            "safe+DF (Thm 4)",
            "Cor. 3 (2 copies)",
            "deadlock reachable",
            "paper",
        ],
    );
    // A certifiable 2PL transaction.
    let db = ddlf_model::Database::one_entity_per_site(3);
    let good = wl::two_phase_total_order(
        &db,
        "2PL",
        &[
            ddlf_model::EntityId(0),
            ddlf_model::EntityId(1),
            ddlf_model::EntityId(2),
        ],
    );
    let cor3_good = copies_safe_df(&good).is_ok();
    for d in [2usize, 3, 4] {
        let sys = TransactionSystem::copies(db.clone(), &good, d).unwrap();
        let many = many_safe_df(&sys, ManyOptions::default()).is_ok();
        let dl = Explorer::new(&sys, 3_000_000).find_deadlock().0.violated();
        t.row(&[
            "strict-2PL".into(),
            format!("{d}"),
            if many { "yes".into() } else { "no".into() },
            if cor3_good { "yes".into() } else { "no".into() },
            if dl { "yes".into() } else { "no".into() },
            "safe+DF for all d".into(),
        ]);
    }
    // Fig. 6.
    let db6 = ddlf_model::Database::one_entity_per_site(3);
    let fig6 = wl::fig6_transaction(&db6, "fig6");
    let cor3_f6 = copies_safe_df(&fig6).is_ok();
    for d in [2usize, 3] {
        let sys = wl::fig6(d);
        let many = many_safe_df(&sys, ManyOptions::default()).is_ok();
        let dl = Explorer::new(&sys, 10_000_000).find_deadlock().0.violated();
        t.row(&[
            "Fig. 6".into(),
            format!("{d}"),
            if many { "yes".into() } else { "no".into() },
            if cor3_f6 { "yes".into() } else { "no".into() },
            if dl { "yes".into() } else { "no".into() },
            if d == 2 {
                "no deadlock (but not safe+DF)".into()
            } else {
                "deadlock".into()
            },
        ]);
    }
    t
}

/// E8 — Theorem 1: stuck-state search ≡ deadlock-prefix search.
pub fn e8_theorem1(trials: usize) -> Table {
    let mut t = Table::new(
        "E8 — Theorem 1: deadlock ⟺ deadlock prefix",
        "On random systems, the operational checker (reachable stuck state) and \
         the structural checker (reachable prefix with cyclic reduction graph) \
         must return the same verdict — that equivalence is Theorem 1.",
        &[
            "workload",
            "trials",
            "deadlocking",
            "deadlock-free",
            "agreement",
        ],
    );
    use wl::{LockDiscipline, SystemGen};
    for (label, disc, d, n_e) in [
        (
            "2 txns, rand-legal",
            LockDiscipline::RandomLegal,
            2usize,
            3usize,
        ),
        ("3 txns, rand-2PL", LockDiscipline::RandomTwoPhase, 3, 3),
        ("2 txns, lu-shaped", LockDiscipline::LockUnlockShaped, 2, 4),
    ] {
        let mut dl = 0;
        let mut free = 0;
        let mut agree = 0;
        for seed in 0..trials as u64 {
            let sys = SystemGen {
                n_sites: n_e,
                entities_per_site: 1,
                n_txns: d,
                entities_per_txn: n_e,
                discipline: disc,
                seed: 0xE8_000 + seed,
            }
            .generate();
            let ex = Explorer::new(&sys, 5_000_000);
            let a = ex.find_deadlock().0.violated();
            let b = ex.find_deadlock_prefix().0.violated();
            agree += (a == b) as usize;
            dl += a as usize;
            free += !a as usize;
        }
        t.row(&[
            label.into(),
            format!("{trials}"),
            format!("{dl}"),
            format!("{free}"),
            format!("{agree}/{trials}"),
        ]);
    }
    t
}

/// E9 — runtime: certification vs dynamic policies.
pub fn e9_runtime(seeds: u64) -> Table {
    let mut t = Table::new(
        "E9 — runtime: certified workloads need no deadlock machinery",
        "The banking workload under the DES runtime. Certified (canonically \
         ordered) transfers run to commit with NO deadlock handling and zero \
         aborts; greedy (source-side-first) transfers deadlock without a \
         policy and pay aborts under every dynamic scheme. All committed \
         histories pass the D(S) serializability audit.",
        &[
            "workload",
            "policy",
            "committed",
            "deadlocked runs",
            "aborts",
            "avg msgs",
            "avg sim time",
            "serializable",
        ],
    );
    let bank = wl::Bank::new(4, 4);
    let routes = [
        ((0usize, 0usize), (1usize, 0usize)),
        ((1, 1), (2, 1)),
        ((2, 2), (3, 2)),
        ((3, 3), (0, 3)),
        ((1, 2), (0, 1)),
        ((3, 0), (2, 3)),
    ];
    let mk = |greedy: bool| -> TransactionSystem {
        let txns = routes
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| {
                if greedy {
                    bank.transfer_greedy(&format!("t{i}"), from, to)
                } else {
                    bank.transfer_ordered(&format!("t{i}"), from, to)
                }
            })
            .collect();
        TransactionSystem::new(bank.db.clone(), txns).unwrap()
    };
    let ordered = mk(false);
    let greedy = mk(true);
    assert!(certify_safe_and_deadlock_free(&ordered, CertifyOptions::default()).is_ok());
    assert!(certify_safe_and_deadlock_free(&greedy, CertifyOptions::default()).is_err());

    let policies = [
        ("Nothing", DeadlockPolicy::Nothing),
        ("Detect 5ms", DeadlockPolicy::Detect { period_us: 5_000 }),
        ("WoundWait", DeadlockPolicy::WoundWait),
        ("WaitDie", DeadlockPolicy::WaitDie),
    ];
    for (wname, sys) in [("certified", &ordered), ("greedy", &greedy)] {
        for (pname, policy) in policies {
            let mut committed = 0usize;
            let mut stalls = 0usize;
            let mut aborts = 0usize;
            let mut msgs = 0u64;
            let mut end = 0u64;
            let mut all_serial = true;
            for seed in 0..seeds {
                let r = sim_run(
                    sys,
                    SimConfig {
                        policy,
                        seed,
                        ..Default::default()
                    },
                );
                committed += r.committed;
                stalls += usize::from(!r.stalled.is_empty());
                aborts += r.aborted_attempts;
                msgs += r.messages;
                end += r.end_time.micros();
                if r.serializable == Some(false) {
                    all_serial = false;
                }
            }
            t.row(&[
                wname.into(),
                pname.into(),
                format!("{committed}/{}", sys.len() * seeds as usize),
                format!("{stalls}/{seeds}"),
                format!("{aborts}"),
                format!("{}", msgs / seeds),
                dur_us(end as f64 / seeds as f64),
                if all_serial {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t
}

/// A certified pair whose reachable state space is exponential in `k`:
/// two copies of "lock x first and hold it to the very end, then run `k`
/// parallel lock/unlock branches". Each branch contributes three states,
/// so the explorer visits Θ(3ᵏ) states while Theorem 3 answers in O(k²).
pub fn parallel_branch_copy_pair(k: usize) -> TransactionSystem {
    use ddlf_model::{Database, EntityId, Transaction};
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

/// E10 — the coNP wall: exhaustive vs polynomial scaling.
pub fn e10_scaling() -> Table {
    let mut t = Table::new(
        "E10 — exhaustive vs polynomial: where the coNP wall sits",
        "Deciding safe+DF by exhaustive state search ([SM]) explodes with the \
         width of the transactions' partial orders (Θ(3ᵏ) states for k parallel \
         branches), while the Theorem 3 test stays polynomial — the gap \
         Theorems 3–4 exist to close. Both pairs are certified (x locked first, \
         held across every branch).",
        &[
            "k (parallel branches)",
            "exhaustive states",
            "t exhaustive",
            "t Theorem 3",
            "speedup",
        ],
    );
    for k in [3usize, 5, 7, 9, 11] {
        let sys = parallel_branch_copy_pair(k);
        let ex = Explorer::new(&sys, 50_000_000);
        let (res, u_ex) = time_us(|| ex.find_conflict_cycle());
        let states = res.1.states;
        debug_assert!(res.0.holds());
        let (_, u_p) = time_us(|| {
            pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1))).expect("certified");
        });
        t.row(&[
            format!("{k}"),
            format!("{states}"),
            dur_us(u_ex),
            dur_us(u_p),
            format!("{}×", f2(u_ex / u_p.max(0.01))),
        ]);
    }
    t
}

/// E11 — local vs global deadlock detection (why "distributed" matters).
pub fn e11_local_detection(seeds: u64) -> Table {
    use ddlf_model::{Database, EntityId, Op, Transaction};
    let mut t = Table::new(
        "E11 — per-site detectors miss cross-site deadlock cycles",
        "The same opposite-order transaction pair run twice: entities split \
         across two sites vs co-resident on one site. A detector that inspects \
         each site's wait-for graph in isolation resolves the centralized cycle \
         but is blind to the distributed one — the operational face of the \
         paper's \"in a distributed database the issues become more \
         complicated\" and the reason §5's *static* certification matters.",
        &[
            "database",
            "policy",
            "committed",
            "deadlocked runs",
            "cycles detected",
        ],
    );
    let mk = |db: Database| {
        let (x, y) = (EntityId(0), EntityId(1));
        let t1 = Transaction::from_total_order(
            "T1",
            &[Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)],
            &db,
        )
        .unwrap();
        let t2 = Transaction::from_total_order(
            "T2",
            &[Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)],
            &db,
        )
        .unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    };
    let distributed = mk(ddlf_model::Database::one_entity_per_site(2));
    let centralized = mk(ddlf_model::Database::centralized(2));
    for (dbname, sys) in [("two sites", &distributed), ("one site", &centralized)] {
        for (pname, policy) in [
            (
                "DetectLocal 1ms",
                DeadlockPolicy::DetectLocal { period_us: 1_000 },
            ),
            (
                "Detect 1ms (global)",
                DeadlockPolicy::Detect { period_us: 1_000 },
            ),
        ] {
            let mut committed = 0;
            let mut stalls = 0;
            let mut cycles = 0;
            for seed in 0..seeds {
                let r = sim_run(
                    sys,
                    SimConfig {
                        policy,
                        seed,
                        ..Default::default()
                    },
                );
                committed += r.committed;
                stalls += usize::from(!r.stalled.is_empty());
                cycles += r.deadlocks_detected;
            }
            t.row(&[
                dbname.into(),
                pname.into(),
                format!("{committed}/{}", 2 * seeds),
                format!("{stalls}/{seeds}"),
                format!("{cycles}"),
            ]);
        }
    }
    t
}

/// Runs every experiment with default sizes (used by `paper-tables` and
/// smoke-tested in CI).
pub fn all_experiments(quick: bool) -> Vec<Table> {
    let (e4_n, e5_n, e8_n, e9_n) = if quick {
        (4, 10, 10, 3)
    } else {
        (12, 40, 40, 20)
    };
    vec![
        e1_fig1(),
        e2_fig2(),
        e3_fig3(),
        e4_theorem2(e4_n),
        e5_theorem3(e5_n),
        e6_theorem4(),
        e7_copies(),
        e8_theorem1(e8_n),
        e9_runtime(e9_n),
        e10_scaling(),
        e11_local_detection(if quick { 5 } else { 20 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_run_and_agree() {
        for table in all_experiments(true) {
            let md = table.to_markdown();
            assert!(!table.rows.is_empty(), "{} produced no rows", table.title);
            assert!(
                !md.contains("MISMATCH"),
                "{} reported a mismatch:\n{md}",
                table.title
            );
        }
    }

    #[test]
    fn e8_agreement_is_total() {
        let t = e8_theorem1(15);
        for row in &t.rows {
            let agreement = row.last().unwrap();
            let (a, b) = agreement.split_once('/').unwrap();
            assert_eq!(a, b, "Theorem 1 agreement broken: {row:?}");
        }
    }

    #[test]
    fn e4_agreement_is_total() {
        let t = e4_theorem2(6);
        for row in &t.rows {
            let agreement = &row[4];
            if let Some((a, b)) = agreement.split_once('/') {
                assert_eq!(a, b, "Theorem 2 agreement broken: {row:?}");
            }
        }
    }
}
