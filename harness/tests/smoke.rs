//! The harness's own smoke test: every workload, both modes, in
//! `--quick` form (one round of a twentieth of the work). It checks that the
//! run passes its correctness gates and prints exactly the metrics
//! `BENCHMARK.json` promises; the numbers themselves mean nothing here.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key {key:?}"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| field(m, "name").as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_gates_and_prints_the_promised_metrics() {
    // The harness resolves `harness/out` and `BENCHMARK.json` from the
    // repository root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let doc = serde_json::parse_value(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    for workload in names(field(&doc, "workloads")) {
        // Traced first: the end-to-end run after it must leave its
        // `trace.jsonl` alone.
        for (trace, key) in [("1", "per_layer"), ("0", "end_to_end")] {
            let out = Command::new(env!("CARGO_BIN_EXE_ddlf-harness"))
                .current_dir(root)
                .args(["--workload", &workload, "--seed", "42", "--seconds", "1"])
                .args(["--trace", trace, "--quick", "1"])
                .output()
                .expect("harness runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = serde_json::parse_value(stdout.lines().last().expect("a result line"))
                .expect("result line parses");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stderr}");
            assert_eq!(field(&result, "failed"), &Value::U64(0), "{stderr}");
            let printed: Vec<String> = field(&result, "metrics")
                .as_obj()
                .expect("metrics object")
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            let mut promised = names(field(&doc, key));
            let mut got = printed.clone();
            promised.sort();
            got.sort();
            assert_eq!(got, promised, "{workload} --trace {trace}");
        }
        assert!(
            root.join("harness/out")
                .join(&workload)
                .join("trace.jsonl")
                .exists(),
            "{workload}: trace.jsonl outlives the end-to-end run"
        );
    }
}
