//! Theorem 2 end-to-end: the 3SAT′ ⟺ deadlock-prefix equivalence across
//! independent deciders, plus both witness mappings, by the paper
//! ledger's golden lines that hold each (`tests/ledger/`).

mod ledger;

#[test]
fn equivalence_sweep() {
    ledger::check(&["thm2.*.sat", "thm2.*.deadlock", "thm2.*.agree"]);
}

#[test]
fn assignment_to_prefix_to_cycle_roundtrip() {
    ledger::check(&["thm2.*.assignment_roundtrip"]);
}

#[test]
fn witness_cycle_assignment_satisfies() {
    ledger::check(&["thm2.*.witness_roundtrip"]);
}

#[test]
fn gadget_structure_invariants() {
    ledger::check(&["thm2.*.gadget_shape"]);
}

#[test]
fn dpll_agrees_with_brute_force_on_sweep() {
    ledger::check(&["thm2.*.dpll_agrees_brute_force"]);
}

/// `(x)(x)(¬x)`, k independent copies: unsatisfiable, so deadlock-free.
#[test]
fn hand_built_unsat_families() {
    ledger::check(&["thm2.unsat_k1", "thm2.unsat_k2", "thm2.unsat_k3"]);
}
