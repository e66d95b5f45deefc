//! The paper's figures: each claim §3 makes about them, by the paper
//! ledger's golden lines that hold it (`tests/ledger/`).

mod ledger;

#[test]
fn fig1_reduction_cycle_matches_text() {
    ledger::check(&[
        "fig1.cycle_nodes",
        "fig1.cycle_locks",
        "fig1.cycle_unlocks",
        "fig1.cycle_within_xyz",
    ]);
}

#[test]
fn fig2_four_entity_deadlock_and_unsound_baseline() {
    ledger::check(&[
        "fig2.tirri_pattern",
        "fig2.lu_cycle_entities",
        "fig2.explorer",
    ]);
}

#[test]
fn fig2_identical_syntax_is_the_point() {
    ledger::check(&["fig2.copies_share_syntax"]);
}

#[test]
fn fig3_separation() {
    ledger::check(&["fig3.partial_orders", "fig3.chosen_extensions"]);
}

#[test]
fn fig6_copies_threshold() {
    ledger::check(&["fig6.copies2", "fig6.copies3", "fig6.copies4"]);
}

#[test]
fn fig6_consistent_with_theorem5() {
    ledger::check(&["fig6.cor3"]);
}

#[test]
fn paper_example_formula_via_fig5_gadget() {
    ledger::check(&["thm2.fig5"]);
}
