//! `ddlf-harness agree`: does the benchmark agree with itself?
//!
//! Runs the whole suite N times on the current tree, each suite on
//! another seed, the way the driver does — one process per run, the
//! result read from the last line of its output — and judges every
//! workload × end-to-end metric by the driver's two rules against the
//! bounds in `BENCHMARK.json`:
//!
//! * spread: the distance between the first and third quartile of the
//!   runs, as a share of their median, stays within the bound
//!   (`setup_s` is exempt from this one);
//! * drift: the median of the second half of the runs is not worse than
//!   the median of the first half by more than the bound.
//!
//! A metric is *steady* when its spread is under a third of its bound;
//! that is the target, PASS is the floor.

use crate::stats::median;
use crate::workloads::WORKLOADS;
use crate::Args;
use serde_json::Value;
use std::io;
use std::process::Command;

/// Suite `i` runs every workload on seed `BASE_SEED + i`.
const BASE_SEED: u64 = 1000;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> io::Result<&'a Value> {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| io::Error::other(format!("BENCHMARK.json: no key {key:?}")))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::other(format!("BENCHMARK.json: {what}"))
}

/// The end-to-end bounds and `run_seconds`, after checking that the file
/// names exactly the workloads this binary runs.
fn read_benchmark_json() -> io::Result<(Vec<Bound>, f64)> {
    let doc = serde_json::parse_value(&std::fs::read_to_string("BENCHMARK.json")?)
        .map_err(|e| bad(&e.to_string()))?;
    let names: Vec<&str> = field(&doc, "workloads")?
        .as_arr()
        .ok_or_else(|| bad("workloads is not a list"))?
        .iter()
        .filter_map(|w| field(w, "name").ok()?.as_str())
        .collect();
    if names != WORKLOADS.map(|w| w.name) {
        return Err(bad(&format!("workloads {names:?} are not the harness's")));
    }
    let bounds = field(&doc, "end_to_end")?
        .as_arr()
        .ok_or_else(|| bad("end_to_end is not a list"))?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?
                    .as_str()
                    .ok_or_else(|| bad("metric name"))?
                    .to_string(),
                lower_is_better: field(m, "better")?.as_str() == Some("lower"),
                bound: number(field(m, "bound")?).ok_or_else(|| bad("metric bound"))?,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let seconds = number(field(&doc, "run_seconds")?).ok_or_else(|| bad("run_seconds"))?;
    Ok((bounds, seconds))
}

/// One run in its own process; the metrics of its result line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> io::Result<Vec<(String, f64)>> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "{workload} seed {seed} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse_value(line).map_err(|e| io::Error::other(e.to_string()))?;
    let metrics = field(&doc, "metrics")?
        .as_obj()
        .ok_or_else(|| io::Error::other("result line: metrics is not an object"))?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = number(field(m, "value")?)
                .ok_or_else(|| io::Error::other(format!("result line: {name} has no value")))?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method): the rule the driver applies.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len() as i64;
    [1, 2, 3].map(|i| {
        // `delta` is taken after the clamp, as Python does: at the ends
        // it leaves 0..=4 and the formula extrapolates.
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = i * (len + 1) - j * 4;
        let (below, above) = (v[j as usize - 1], v[j as usize]);
        (below * (4 - delta) as f64 + above * delta as f64) / 4.0
    })
}

/// How much worse `later` is than `earlier`, as a share of `earlier`
/// (negative = better).
fn worse_by(earlier: f64, later: f64, lower_is_better: bool) -> f64 {
    let change = (later - earlier) / earlier;
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn run(args: &Args) -> io::Result<bool> {
    args.only(&["suites"])?;
    let (bounds, seconds) = read_benchmark_json()?;
    let suites: usize = args.number_or("suites", 5)?;
    if suites < 2 {
        return Err(io::Error::other("agree needs at least 2 suites"));
    }

    // samples[workload][metric] = one value per suite, in suite order.
    let mut samples = vec![vec![Vec::new(); bounds.len()]; WORKLOADS.len()];
    for suite in 0..suites {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            let metrics = one_run(w.name, BASE_SEED + suite as u64, seconds)?;
            for (mi, b) in bounds.iter().enumerate() {
                let value = metrics
                    .iter()
                    .find(|(name, _)| *name == b.name)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| {
                        io::Error::other(format!("{} did not print {}", w.name, b.name))
                    })?;
                samples[wi][mi].push(value);
            }
            eprintln!("agree: suite {}/{suites} {} done", suite + 1, w.name);
        }
    }

    println!(
        "{:<15} {:<22} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "max/min", "spread", "drift", "bound"
    );
    let mut all_pass = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, b) in bounds.iter().enumerate() {
            let values = &samples[wi][mi];
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let [q1, q2, q3] = quartiles(values);
            let spread = (q3 - q1) / q2;
            let (first, second) = values.split_at(values.len() / 2);
            let drift = worse_by(median(first), median(second), b.lower_is_better);
            let spread_ok = b.name == "setup_s" || spread <= b.bound;
            let verdict = if !spread_ok || drift > b.bound {
                all_pass = false;
                "FAIL"
            } else if spread <= b.bound / 3.0 {
                "PASS steady"
            } else {
                "PASS"
            };
            println!(
                "{:<15} {:<22} {:>12.4} {:>12.4} {:>12.4} {:>8.3} {:>7.1}% {:>+7.1}% {:>5.0}%  {verdict}",
                w.name,
                b.name,
                min,
                median(values),
                max,
                max / min,
                spread * 100.0,
                drift * 100.0,
                b.bound * 100.0,
            );
        }
    }
    println!(
        "{} suites of {} workloads at {seconds} s: {}",
        suites,
        WORKLOADS.len(),
        if all_pass {
            "all within bounds"
        } else {
            "OUT OF BOUNDS"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
    }
}
