//! The WAL record grammar is documented twice by hand — canonically in
//! `ARCHITECTURE.md`, mirrored in the `ddlf_engine::wal` rustdoc — and
//! the two copies must not drift.

/// The fenced block of `doc` that defines the `Begin` record, one
/// trimmed line per entry, rustdoc comment markers stripped.
fn grammar_block(doc: &str) -> Vec<String> {
    let lines: Vec<&str> = doc
        .lines()
        .map(|l| l.trim_start_matches("//!").trim())
        .collect();
    let begin = lines
        .iter()
        .position(|l| l.starts_with("Begin") && l.contains(":= 0x01"))
        .expect("a grammar block defines Begin");
    let fence = |l: &&str| l.starts_with("```");
    let open = begin - lines[..begin].iter().rev().position(fence).unwrap();
    let close = begin + lines[begin..].iter().position(fence).unwrap();
    lines[open..close].iter().map(|l| l.to_string()).collect()
}

#[test]
fn wal_grammar_in_architecture_and_rustdoc_agree() {
    let canonical = grammar_block(include_str!("../ARCHITECTURE.md"));
    let mirror = grammar_block(include_str!("../crates/engine/src/wal.rs"));
    // Exactly these definitions, in this order: a decision is one
    // `Commit` frame of one instance, and no multi-entry decision record
    // is left in either copy.
    let defined: Vec<&str> = canonical
        .iter()
        .filter_map(|l| l.split_once(":= 0x"))
        .map(|(name, _)| name.trim())
        .collect();
    assert_eq!(
        defined,
        ["Begin", "Write", "Commit", "Abort", "Event", "WriteOp"]
    );
    assert_eq!(canonical, mirror);
}
