//! **Theorem 2**: the reduction from 3SAT′ to two-transaction
//! deadlock-freedom, proving the problem coNP-complete.
//!
//! Given a 3SAT′ formula with clauses `c₁ … c_r` and variables `x₁ … x_n`
//! (each occurring twice positively — in clauses `c_h`, `c_k` — and once
//! negatively — in clause `c_l`), the gadget builds two transactions over
//! entities `{cᵢ, c′ᵢ}` per clause and `{xⱼ, x′ⱼ, x″ⱼ}` per variable, each
//! entity on its own site (the construction needs an unconstrained partial
//! order, which is exactly the many-sites regime of the theorem).
//!
//! Both transactions contain `L e → U e` for every entity. All other arcs
//! also run lock → unlock (indices cyclic, `c_{r+1} = c₁`):
//!
//! * **T₁**: `Lc′ᵢ → Ucᵢ`; and per variable: `Lxⱼ → Ux″ⱼ`,
//!   `Lx′ⱼ → Uc_{l+1}`, `Lx′ⱼ → Uc′_{l+1}`, `Lc_h → Uxⱼ`, `Lc_k → Ux′ⱼ`.
//!   (Both clause arcs hang off `Lx′ⱼ`: the converse proof requires
//!   `L¹xⱼ` to have `U¹x″ⱼ` as its *only* non-self successor, and walks
//!   "two possible continuations" out of `L¹x′ⱼ`.)
//! * **T₂**: `Lc′ᵢ → Ucᵢ`; and per variable: `Lx″ⱼ → Ux′ⱼ`,
//!   `Lc_l → Uxⱼ`, `Lxⱼ → Uc_{h+1}`, `Lxⱼ → Uc′_{h+1}`,
//!   `Lx′ⱼ → Uc_{k+1}`, `Lx′ⱼ → Uc′_{k+1}`.
//!
//! A satisfying assignment maps to a deadlock prefix (all lock nodes;
//! see [`SatReduction::prefix_from_assignment`]) whose reduction graph
//! cycles through one component per clause; conversely every reduction
//! cycle reads back a satisfying assignment
//! ([`SatReduction::assignment_from_cycle`]).
//!
//! The scanned paper's arc lists are partially illegible; this arc set was
//! reconstructed from the cycle components the proof walks through and is
//! validated *empirically* in tests and in the paper ledger's `thm2` row
//! (`tests/paper_ledger.rs`): satisfiability
//! decided by the independent DPLL solver coincides with deadlock-prefix
//! existence decided by the independent [`crate::lu_pair`] search, on the
//! paper's worked example and on hundreds of random 3SAT′ instances.

use crate::lu_pair::LuWitness;
use ddlf_model::{
    Database, EntityId, GlobalNode, NodeId, Prefix, SystemPrefix, Transaction, TransactionSystem,
    TxnId,
};
use ddlf_sat::{Assignment, Cnf, VarOccurrences};

/// The Theorem 2 gadget: two transactions built from a 3SAT′ formula.
#[derive(Debug, Clone)]
pub struct SatReduction {
    /// The two-transaction system (`T₁ = TxnId(0)`, `T₂ = TxnId(1)`).
    pub sys: TransactionSystem,
    /// Clause entities `cᵢ`.
    pub c: Vec<EntityId>,
    /// Auxiliary clause entities `c′ᵢ`.
    pub cp: Vec<EntityId>,
    /// Variable entities `xⱼ`.
    pub x: Vec<EntityId>,
    /// First-occurrence auxiliaries `x′ⱼ`.
    pub xp: Vec<EntityId>,
    /// Negation auxiliaries `x″ⱼ`.
    pub xpp: Vec<EntityId>,
    occ: Vec<VarOccurrences>,
    n_clauses: usize,
}

impl SatReduction {
    /// Builds the gadget. Fails if the formula is not in 3SAT′ form.
    pub fn build(f: &Cnf) -> Result<Self, ddlf_sat::ThreeSatPrimeError> {
        let occ = f.validate_three_sat_prime()?;
        let r = f.clauses.len();
        let n = f.n_vars as usize;

        let mut dbb = Database::builder();
        let mut add = |name: String| {
            let site = dbb.add_site();
            dbb.add_entity(name, site)
        };
        let c: Vec<EntityId> = (0..r).map(|i| add(format!("c{i}"))).collect();
        let cp: Vec<EntityId> = (0..r).map(|i| add(format!("c'{i}"))).collect();
        let x: Vec<EntityId> = (0..n).map(|j| add(format!("x{j}"))).collect();
        let xp: Vec<EntityId> = (0..n).map(|j| add(format!("x'{j}"))).collect();
        let xpp: Vec<EntityId> = (0..n).map(|j| add(format!("x''{j}"))).collect();
        let db = dbb.build();

        let next = |i: usize| (i + 1) % r;

        // Both transactions access every entity.
        let build_txn = |name: &str, second: bool| -> Transaction {
            let mut b = Transaction::builder(name);
            let mut lock_of = std::collections::HashMap::new();
            let mut unlock_of = std::collections::HashMap::new();
            for &e in c.iter().chain(&cp).chain(&x).chain(&xp).chain(&xpp) {
                let (l, u) = b.lock_unlock(e);
                lock_of.insert(e, l);
                unlock_of.insert(e, u);
            }
            let arc = |b: &mut ddlf_model::TransactionBuilder, from: EntityId, to: EntityId| {
                let l = lock_of[&from];
                let u = unlock_of[&to];
                b.arc(l, u);
            };
            // Shared: Lc′ᵢ → Ucᵢ.
            for i in 0..r {
                arc(&mut b, cp[i], c[i]);
            }
            for o in &occ {
                let j = o.var.index();
                let (h, k, l) = (o.pos_clauses[0], o.pos_clauses[1], o.neg_clause);
                if !second {
                    // T₁ arcs.
                    arc(&mut b, x[j], xpp[j]);
                    arc(&mut b, xp[j], c[next(l)]);
                    arc(&mut b, xp[j], cp[next(l)]);
                    arc(&mut b, c[h], x[j]);
                    arc(&mut b, c[k], xp[j]);
                } else {
                    // T₂ arcs.
                    arc(&mut b, xpp[j], xp[j]);
                    arc(&mut b, c[l], x[j]);
                    arc(&mut b, x[j], c[next(h)]);
                    arc(&mut b, x[j], cp[next(h)]);
                    arc(&mut b, xp[j], c[next(k)]);
                    arc(&mut b, xp[j], cp[next(k)]);
                }
            }
            b.build(&db).expect("gadget transactions are well-formed")
        };

        let t1 = build_txn("T1", false);
        let t2 = build_txn("T2", true);
        let sys = TransactionSystem::new(db, vec![t1, t2]).expect("valid system");

        Ok(Self {
            sys,
            c,
            cp,
            x,
            xp,
            xpp,
            occ,
            n_clauses: r,
        })
    }

    /// Number of clauses `r`.
    pub fn n_clauses(&self) -> usize {
        self.n_clauses
    }

    /// Number of variables `n`.
    pub fn n_vars(&self) -> usize {
        self.occ.len()
    }

    /// Builds the deadlock prefix corresponding to a satisfying
    /// assignment: per clause `cᵢ`, pick a satisfying literal `zᵢ` and
    /// lock
    ///
    /// * `zᵢ = xⱼ` (positive): `T₁` locks `xⱼ, x′ⱼ, c′ᵢ`; `T₂` locks `cᵢ`;
    /// * `zᵢ = ¬xⱼ` (negative): `T₂` locks `xⱼ, x′ⱼ, c′ᵢ`; `T₁` locks
    ///   `x″ⱼ, cᵢ`.
    ///
    /// Returns `None` if the assignment does not satisfy `f`.
    pub fn prefix_from_assignment(&self, f: &Cnf, a: &Assignment) -> Option<SystemPrefix> {
        if !f.evaluate(a) {
            return None;
        }
        let t1 = self.sys.txn(TxnId(0));
        let t2 = self.sys.txn(TxnId(1));
        let mut n1: Vec<NodeId> = Vec::new();
        let mut n2: Vec<NodeId> = Vec::new();
        for (i, clause) in f.clauses.iter().enumerate() {
            let z = clause
                .iter()
                .find(|l| l.satisfied_by(a[l.var.index()]))
                .expect("assignment satisfies every clause");
            let j = z.var.index();
            if z.positive {
                n1.push(t1.lock_node_of(self.x[j]).expect("accessed"));
                n1.push(t1.lock_node_of(self.xp[j]).expect("accessed"));
                n1.push(t1.lock_node_of(self.cp[i]).expect("accessed"));
                n2.push(t2.lock_node_of(self.c[i]).expect("accessed"));
            } else {
                n2.push(t2.lock_node_of(self.x[j]).expect("accessed"));
                n2.push(t2.lock_node_of(self.xp[j]).expect("accessed"));
                n2.push(t2.lock_node_of(self.cp[i]).expect("accessed"));
                n1.push(t1.lock_node_of(self.xpp[j]).expect("accessed"));
                n1.push(t1.lock_node_of(self.c[i]).expect("accessed"));
            }
        }
        n1.sort_unstable();
        n1.dedup();
        n2.sort_unstable();
        n2.dedup();
        let p1 = Prefix::from_nodes(t1, n1).expect("lock nodes form a prefix");
        let p2 = Prefix::from_nodes(t2, n2).expect("lock nodes form a prefix");
        Some(SystemPrefix::new(vec![p1, p2]))
    }

    /// Reads a truth assignment off a reduction-graph cycle, per the
    /// paper's converse proof: `xⱼ` is true if the cycle contains `U¹xⱼ`
    /// or `U¹x′ⱼ`, false if it contains `U²xⱼ` or `U²x′ⱼ` (unmentioned
    /// variables default to false).
    pub fn assignment_from_cycle(&self, cycle: &[GlobalNode]) -> Assignment {
        let mut a = vec![false; self.n_vars()];
        for &g in cycle {
            let txn = self.sys.txn(g.txn);
            let op = txn.op(g.node);
            if !op.is_unlock() {
                continue;
            }
            for (j, slot) in a.iter_mut().enumerate() {
                if op.entity == self.x[j] || op.entity == self.xp[j] {
                    *slot = g.txn == TxnId(0);
                }
            }
        }
        a
    }

    /// Decides deadlock-prefix existence of the gadget pair via the
    /// lock→unlock cycle search. `Err(steps)` on budget exhaustion.
    pub fn has_deadlock_prefix(&self, budget: usize) -> Result<Option<LuWitness>, usize> {
        crate::lu_pair::lu_pair_deadlock_prefix(&self.sys, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{check_deadlock_prefix, ReductionGraph};
    use ddlf_sat::{generate_batch, solve, Cnf, Lit, Var};

    #[test]
    fn gadget_shape() {
        let f = Cnf::paper_example();
        let red = SatReduction::build(&f).unwrap();
        // Entities: 2r + 3n = 6 + 6 = 12, each on its own site.
        assert_eq!(red.sys.db().entity_count(), 12);
        assert_eq!(red.sys.db().site_count(), 12);
        // Each transaction has 2 nodes per entity.
        assert_eq!(red.sys.txn(TxnId(0)).node_count(), 24);
        assert_eq!(red.sys.txn(TxnId(1)).node_count(), 24);
        assert!(crate::lu_pair::is_lock_unlock_shaped(red.sys.txn(TxnId(0))));
        assert!(crate::lu_pair::is_lock_unlock_shaped(red.sys.txn(TxnId(1))));
    }

    #[test]
    fn paper_example_assignment_yields_deadlock_prefix() {
        let f = Cnf::paper_example();
        let red = SatReduction::build(&f).unwrap();
        let a = vec![true, true];
        let prefix = red.prefix_from_assignment(&f, &a).expect("satisfying");
        // The prefix is a genuine deadlock prefix: it has a schedule and a
        // cyclic reduction graph.
        let rg = ReductionGraph::build(&red.sys, &prefix);
        assert!(rg.is_cyclic(), "reduction graph must cycle");
        let dp = check_deadlock_prefix(&red.sys, &prefix, 1_000_000)
            .expect("prefix has a schedule and cycle");
        assert!(!dp.cycle.is_empty());
    }

    #[test]
    fn unsatisfying_assignment_rejected() {
        let f = Cnf::paper_example();
        let red = SatReduction::build(&f).unwrap();
        assert!(red
            .prefix_from_assignment(&f, &vec![false, false])
            .is_none());
    }

    #[test]
    fn paper_example_cycle_search_finds_deadlock() {
        let f = Cnf::paper_example();
        let red = SatReduction::build(&f).unwrap();
        let w = red
            .has_deadlock_prefix(50_000_000)
            .expect("budget")
            .expect("satisfiable ⇒ deadlock prefix");
        // The recovered assignment satisfies the formula.
        let a = red.assignment_from_cycle(&w.cycle);
        assert!(
            f.evaluate(&a),
            "cycle-extracted assignment {a:?} must satisfy {f}"
        );
    }

    #[test]
    fn smallest_unsat_instance_has_no_deadlock() {
        // (x)(x)(¬x) — unsatisfiable 3SAT′.
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::neg(Var(0))]);
        let red = SatReduction::build(&f).unwrap();
        let w = red.has_deadlock_prefix(50_000_000).expect("budget");
        assert!(w.is_none(), "unsat ⇒ deadlock-free");
    }

    #[test]
    fn equivalence_on_random_instances() {
        // The headline Theorem 2 check: SAT (independent DPLL) ⇔ deadlock
        // prefix (independent cycle search), across random 3SAT′ instances.
        for n in 1..=3u32 {
            for f in generate_batch(n, 1000 + n as u64, 12) {
                let red = SatReduction::build(&f).unwrap();
                let sat = solve(&f).is_sat();
                let dl = red
                    .has_deadlock_prefix(200_000_000)
                    .expect("budget")
                    .is_some();
                assert_eq!(sat, dl, "Theorem 2 equivalence failed on {f}");
            }
        }
    }

    #[test]
    fn satisfying_assignments_always_give_verified_prefixes() {
        for f in generate_batch(2, 7_000, 30) {
            if let ddlf_sat::SatResult::Sat(a) = solve(&f) {
                let red = SatReduction::build(&f).unwrap();
                let prefix = red.prefix_from_assignment(&f, &a).expect("sat");
                assert!(
                    ReductionGraph::build(&red.sys, &prefix).is_cyclic(),
                    "assignment prefix must have cyclic reduction graph on {f}"
                );
                assert!(
                    prefix.locks_consistent(red.sys.txns()),
                    "prefix holds each entity at most once"
                );
            }
        }
    }
}
