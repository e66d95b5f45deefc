//! The analysis verbs' stdout and exit code, pinned: every fixture ×
//! {`certify`, `deadlock`, `explore`, `explore --json`, `simulate`,
//! `dot`} must reproduce `fixtures/golden/<fixture>.<verb>.txt` byte for
//! byte — the verb's stdout followed by an `exit <code>` line. The files
//! were written by the binary as it stood before the CLI's flags and
//! reports became tables, so a refactor of parsing, dispatch or rendering
//! that changes what a user sees fails here. All 54 outputs are
//! deterministic; regenerate one only for an intended change, with
//! `ddlf-audit <verb> fixtures/<fixture>.json; echo "exit $?"`.

use std::path::Path;

/// Golden-file tag, verb, flags after the spec path.
const VERBS: [(&str, &str, &[&str]); 6] = [
    ("certify", "certify", &[]),
    ("deadlock", "deadlock", &[]),
    ("explore", "explore", &[]),
    ("explore-json", "explore", &["--json"]),
    ("simulate", "simulate", &[]),
    ("dot", "dot", &[]),
];

#[test]
fn analysis_verbs_match_the_golden_matrix() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut specs: Vec<_> = std::fs::read_dir(&fixtures)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    specs.sort();
    assert_eq!(
        specs.len(),
        9,
        "a fixture was added without its golden files"
    );
    for spec in &specs {
        let fixture = spec.file_stem().unwrap().to_str().unwrap();
        for (name, verb, flags) in VERBS {
            let mut args = vec![verb.to_string(), spec.to_str().unwrap().to_string()];
            args.extend(flags.iter().map(|flag| flag.to_string()));
            let (out, code) = ddlf_cli::invoke(&args).unwrap();
            let golden = fixtures.join(format!("golden/{fixture}.{name}.txt"));
            let want = std::fs::read_to_string(&golden).unwrap();
            assert_eq!(format!("{out}exit {code}\n"), want, "{fixture} {name}");
        }
    }
}
