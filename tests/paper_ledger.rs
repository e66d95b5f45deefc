//! Every claim of the paper against `fixtures/golden/paper.txt`, and the
//! README's theorem table against the ledger's rows. The rows live in
//! `tests/ledger/`.

mod ledger;

#[test]
fn every_paper_claim_matches_the_golden_ledger() {
    ledger::check_all();
}

/// The theorem table's "Ledger row" column cites exactly the ledger's
/// rows: a row the README does not name, or a name no row computes,
/// fails here.
#[test]
fn readme_cites_every_ledger_row() {
    let readme = include_str!("../README.md");
    let mut lines = readme.lines().skip_while(|l| !l.contains("| Ledger row |"));
    lines
        .next()
        .expect("README has a theorem table with a Ledger row column");
    let mut cited: Vec<&str> = lines
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .flat_map(|l| {
            let cell = l.trim_end_matches('|').rsplit('|').next().unwrap();
            cell.split('`').skip(1).step_by(2)
        })
        .filter(|name| !name.contains(['.', '*', ' ']))
        .collect();
    cited.sort_unstable();
    cited.dedup();
    let mut rows: Vec<&str> = ledger::row_names().collect();
    rows.sort_unstable();
    assert_eq!(cited, rows);
}
