//! `ddlf-harness`: both sides of the wire benchmark.
//!
//! ```text
//! ddlf-harness --workload W --seed N --seconds S --trace 0|1 [--quick 1]
//! ddlf-harness agree [--suites 5]
//! ddlf-harness serve-child …        (spawned by the two above)
//! ```
//!
//! Run it from the repository root: it writes under `harness/out/` and
//! `agree` reads `BENCHMARK.json`. See `harness/README.md`.

mod agree;
mod child;
mod layers;
mod run;
mod stats;
mod systems;
mod trace;
mod workloads;

use std::io;
use std::process::ExitCode;
use std::str::FromStr;

/// `--key value` pairs, in the order given.
pub struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> io::Result<Args> {
        let raw: Vec<String> = raw.collect();
        let mut pairs = Vec::new();
        for pair in raw.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    pairs.push((key[2..].to_string(), value.clone()));
                }
                _ => return Err(usage(&format!("expected `--key value`, got {pair:?}"))),
            }
        }
        Ok(Args(pairs))
    }

    /// Refuses a key the command does not take, so a mistyped or
    /// dropped option is never silently ignored.
    pub fn only(&self, known: &[&str]) -> io::Result<()> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(usage(&format!("unknown option --{k}"))),
            None => Ok(()),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self, key: &str) -> io::Result<&str> {
        self.get(key)
            .ok_or_else(|| usage(&format!("missing --{key}")))
    }

    pub fn number<T: FromStr>(&self, key: &str) -> io::Result<T> {
        self.text(key)?
            .parse()
            .map_err(|_| usage(&format!("--{key} wants a number")))
    }

    pub fn number_or<T: FromStr>(&self, key: &str, default: T) -> io::Result<T> {
        match self.get(key) {
            Some(_) => self.number(key),
            None => Ok(default),
        }
    }

    /// `--key 1` is on; absent or anything else is off.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("1")
    }
}

fn usage(problem: &str) -> io::Error {
    let workloads: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| format!("  {:<15} {}", w.name, w.why))
        .collect();
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{problem}\nusage: ddlf-harness --workload W --seed N --seconds S --trace 0|1 [--quick 1]\n       ddlf-harness agree [--suites 5]\nworkloads:\n{}",
            workloads.join("\n")
        ),
    )
}

/// One benchmark run: prints the result line last, and reports whether
/// every check passed.
fn run(args: &Args) -> io::Result<bool> {
    args.only(&["workload", "seed", "seconds", "trace", "quick"])?;
    let name = args.text("workload")?;
    let opts = run::RunOpts {
        workload: workloads::Workload::by_name(name)
            .ok_or_else(|| usage(&format!("no workload named {name:?}")))?,
        seed: args.number("seed")?,
        seconds: args.number("seconds")?,
        quick: args.flag("quick"),
    };
    let outcome = if args.flag("trace") {
        layers::traced(&opts)?
    } else {
        run::end_to_end(&opts)?
    };
    println!("{}", outcome.to_json());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("serve-child") => {
            Args::parse(argv.skip(1)).and_then(|a| child::serve(&a).map(|()| true))
        }
        Some("agree") => Args::parse(argv.skip(1)).and_then(|a| agree::run(&a)),
        _ => Args::parse(argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ddlf-harness: {e}");
            ExitCode::from(2)
        }
    }
}
