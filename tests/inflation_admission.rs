//! The paper's Fig. 6 warning at the admission layer: two copies of the
//! Fig. 6 transaction certify (deadlock-free, exhaustively) but three do
//! not — `max_certified_inflation` returns exactly 2, and an engine asked
//! for k = 3 floors back to the certified base instead of deadlocking.
//! Each claim is checked by the paper ledger's golden lines that hold it
//! (`tests/ledger/`).

mod ledger;

#[test]
fn fig6_max_certified_inflation_is_exactly_two() {
    ledger::check(&["engine.fig6_max"]);
}

#[test]
fn fig6_engine_asked_for_three_floors_back_instead_of_deadlocking() {
    ledger::check(&["engine.fig6_k3"]);
}

#[test]
fn fig6_engine_runs_clean_at_the_certified_two_copies() {
    ledger::check(&["engine.fig6_k2"]);
}

#[test]
fn auto_inflation_matches_the_explicit_search() {
    ledger::check(&["engine.fig6_auto", "engine.fig6_k2.slots"]);
}
