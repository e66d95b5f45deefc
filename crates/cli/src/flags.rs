//! Flags as data. A verb's row in [`VERBS`] is one function that reads
//! its arguments off an [`Args`] — each flag named once, where it lands
//! in the [`Command`]. Run on an empty command line (`Args::dry_run`),
//! that function's reads *are* the verb's flag list: the list
//! [`parse_args`] scans a real command line against, and the list
//! [`usage`] prints. A flag cannot be read without being accepted and
//! documented, or the other way round.

use crate::{Command, EngineFlags};
use ddlf_server::InflateSpec;
use std::cell::RefCell;
use std::str::FromStr;

/// What follows a flag's name on the command line; the placeholder is
/// what the usage shows.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// The next argument, whatever it looks like.
    Value(&'static str),
}

/// What a verb takes: its positionals' usage placeholders and its flags,
/// each in the order the verb's function reads them.
type Signature = (Vec<&'static str>, Vec<(&'static str, Takes)>);

/// A verb's arguments: what the command line gave, and a record of what
/// the verb's function asked for.
#[derive(Default)]
struct Args {
    positionals: Vec<String>,
    /// Every flag given, in order, with its raw value (`""` for a
    /// switch).
    given: Vec<(&'static str, String)>,
    asked: RefCell<Signature>,
}

type Build = fn(&Args) -> Result<Command, String>;

impl Args {
    /// What `build` reads when nothing is given. Every default must build.
    fn dry_run(build: Build) -> Signature {
        let dry = Args::default();
        build(&dry).expect("a verb's defaults are valid");
        dry.asked.into_inner()
    }

    /// The one flag loop: `rest` checked left to right against the list
    /// `build` asks for. A valued flag takes the next argument; an
    /// argument that is none of the verb's flags is the error.
    fn scan(verb: &str, build: Build, rest: &[String]) -> Result<Args, String> {
        let (positionals, flags) = Args::dry_run(build);
        if rest.len() < positionals.len() {
            let wants = positionals.join(" ");
            return Err(format!("{verb} needs {wants}\n{}", usage()));
        }
        let (positionals, rest) = rest.split_at(positionals.len());
        let mut given = Vec::new();
        let mut rest = rest.iter();
        while let Some(arg) = rest.next() {
            let &(name, takes) = flags
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match takes {
                Takes::Value(_) => rest
                    .next()
                    .ok_or_else(|| format!("missing value for {name}"))?,
                Takes::Nothing => "",
            };
            given.push((name, value.to_string()));
        }
        Ok(Args {
            positionals: positionals.to_vec(),
            given,
            ..Args::default()
        })
    }

    /// The next positional argument.
    fn positional(&self, placeholder: &'static str) -> String {
        let asked = &mut self.asked.borrow_mut().0;
        asked.push(placeholder);
        self.positionals
            .get(asked.len() - 1)
            .cloned()
            .unwrap_or_default()
    }

    /// The raw value of `name`'s last occurrence.
    fn raw(&self, name: &'static str, takes: Takes) -> Option<&str> {
        self.asked.borrow_mut().1.push((name, takes));
        let last = self.given.iter().rev().find(|(given, _)| *given == name);
        last.map(|(_, value)| value.as_str())
    }

    /// Whether the switch `name` was given.
    fn flag(&self, name: &'static str) -> bool {
        self.raw(name, Takes::Nothing).is_some()
    }

    /// `name VALUE` through `parse`; its error is prefixed `bad <name>:`.
    fn opt<T>(
        &self,
        name: &'static str,
        value: &'static str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let parsed = self.raw(name, Takes::Value(value)).map(parse).transpose();
        parsed.map_err(|e| format!("bad {name}: {e}"))
    }

    /// [`Args::opt`], or `default` when the flag is absent.
    fn or<T>(
        &self,
        name: &'static str,
        value: &'static str,
        default: T,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        Ok(self.opt(name, value, parse)?.unwrap_or(default))
    }
}

// ---- value parsers ------------------------------------------------------

fn num<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

fn at_least_one<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n = num(v)?;
    if n == T::default() {
        return Err("must be ≥ 1".to_string());
    }
    Ok(n)
}

/// `--txns` of `run` and `submit`: a count the wire's `u32` can carry.
fn instances(v: &str) -> Result<usize, String> {
    let txns: usize = num(v)?;
    if txns > u32::MAX as usize {
        return Err(format!("{txns} exceeds {}", u32::MAX));
    }
    Ok(txns)
}

/// `--inflate`: `auto` (an uncapped search; admission clamps the cap to
/// the worker count) or a `k ≥ 1`.
fn inflate(v: &str) -> Result<InflateSpec, String> {
    if v == "auto" {
        return Ok(InflateSpec::Auto { cap: u32::MAX });
    }
    let k = at_least_one(v).map_err(|e| format!("{e} (want a k ≥ 1 or `auto`)"))?;
    Ok(InflateSpec::Uniform(k))
}

/// `--conserve-step B:S`: base total and per-commit step quantum
/// (`S ≥ 1`).
fn conserve_step(v: &str) -> Result<(u128, u128), String> {
    let (base, step) = v
        .split_once(':')
        .ok_or_else(|| format!("{v:?}: want BASE:STEP"))?;
    let base = num(base).map_err(|e| format!("base: {e}"))?;
    match num(step).map_err(|e| format!("step: {e}"))? {
        0 => Err("step must be ≥ 1".to_string()),
        step => Ok((base, step)),
    }
}

/// A `--policy` the simulator knows, kept as its name.
fn policy(v: &str) -> Result<String, String> {
    crate::parse_policy(v).map(|_| v.to_string())
}

/// `read`'s entity list: `all` (sent as the empty list) or `e1,e2,...`.
fn entity_list(v: String) -> Vec<String> {
    match v.as_str() {
        "all" => vec![],
        names => names.split(',').map(str::to_string).collect(),
    }
}

// ---- the table ----------------------------------------------------------

/// The engine flags: the one set `run` and `serve` both take. Only
/// `--admission-batch`'s default differs between them.
fn engine_flags(a: &Args, admission_batch: usize) -> Result<EngineFlags, String> {
    let defaults = EngineFlags::new(admission_batch);
    Ok(EngineFlags {
        threads: a.or("--threads", "K", defaults.threads, num)?,
        inflate: a.or("--inflate", "k|auto", InflateSpec::None, inflate)?,
        work_us: a.or("--work", "USEC", defaults.work_us, num)?,
        wal: a.opt("--wal", "DIR", text)?,
        wal_sync: a.flag("--wal-sync"),
        admission_batch: a.or("--admission-batch", "N", admission_batch, at_least_one)?,
        no_telemetry: a.flag("--no-telemetry"),
    })
}

const SPEC: &str = "<system.json>";

/// The flag table: every verb `ddlf-audit` has, in usage order, with
/// the function that reads its arguments into its [`Command`].
const VERBS: &[(&str, Build)] = &[
    ("certify", |a| {
        Ok(Command::Certify {
            spec: a.positional(SPEC),
            inflate: a.or("--inflate", "k|auto", InflateSpec::None, inflate)?,
            json: a.flag("--json"),
        })
    }),
    ("deadlock", |a| {
        let spec = a.positional(SPEC);
        Ok(Command::Deadlock { spec })
    }),
    ("dot", |a| {
        let spec = a.positional(SPEC);
        Ok(Command::Dot { spec })
    }),
    ("simulate", |a| {
        Ok(Command::Simulate {
            spec: a.positional(SPEC),
            policy: a.or(
                "--policy",
                "nothing|detect|wound-wait|wait-die",
                "detect".to_string(),
                policy,
            )?,
            seeds: a.or("--seeds", "N", 10, num)?,
        })
    }),
    ("run", |a| {
        let engine = engine_flags(a, 1)?;
        let trace_sample = a.or("--trace-sample", "N", 0, num)?;
        let trace_out = a.opt("--trace-out", "FILE", text)?;
        // A trace file is the sampled ring dumped: with no sampling, or
        // no telemetry handle to sample into, it would always be empty.
        if trace_out.is_some() && (trace_sample == 0 || engine.no_telemetry) {
            return Err(
                "--trace-out needs --trace-sample N (N ≥ 1) and cannot be combined with \
                 --no-telemetry"
                    .to_string(),
            );
        }
        Ok(Command::Run {
            spec: a.positional(SPEC),
            txns: a.or("--txns", "N", 64, instances)?,
            engine,
            force_fallback: a.flag("--force-fallback"),
            json: a.flag("--json"),
            trace_sample,
            trace_out,
            readers: a.or("--readers", "R", 0, num)?,
        })
    }),
    ("explore", |a| {
        Ok(Command::Explore {
            spec: a.positional(SPEC),
            txns: a.opt("--txns", "N", at_least_one)?,
            budget: a.or("--budget", "S", 1_000_000, num)?,
            seed: a.or("--seed", "K", 0, num)?,
            json: a.flag("--json"),
            expect_counterexample: a.flag("--expect-counterexample"),
            trace_out: a.opt("--trace-out", "FILE", text)?,
            no_prune: a.flag("--no-prune"),
            no_replay: a.flag("--no-replay"),
        })
    }),
    ("recover", |a| {
        Ok(Command::Recover {
            dir: a.positional("<wal-dir>"),
            expect_total: a.opt("--expect-total", "N", num)?,
            json: a.flag("--json"),
        })
    }),
    // The server's batched-admission default: submissions arrive over the
    // wire one RPC at a time, so the per-instance admission overhead is
    // pure tax there.
    ("serve", |a| {
        Ok(Command::Serve {
            addr: a.positional("<addr>"),
            engine: engine_flags(a, 16)?,
        })
    }),
    ("submit", |a| {
        Ok(Command::Submit {
            addr: a.positional("<addr>"),
            spec: a.positional(SPEC),
            txns: a.or("--txns", "N", 64, instances)?,
            template: a.opt("--template", "NAME", text)?,
            inflate: a.or("--inflate", "k|auto", InflateSpec::None, inflate)?,
            expect_zero_aborts: a.flag("--expect-zero-aborts"),
            shutdown: a.flag("--shutdown"),
        })
    }),
    ("stats", |a| {
        let (json, prom) = (a.flag("--json"), a.flag("--prom"));
        if json && prom {
            return Err("--json and --prom are two renderings: pick one".to_string());
        }
        let addr = a.positional("<addr>");
        Ok(Command::Stats { addr, json, prom })
    }),
    ("read", |a| {
        Ok(Command::Read {
            addr: a.positional("<addr>"),
            entities: entity_list(a.positional("<all|e1,e2,...>")),
            json: a.flag("--json"),
            expect_total: a.opt("--expect-total", "N", num)?,
            conserve_step: a.opt("--conserve-step", "B:S", conserve_step)?,
        })
    }),
    ("lockgraph", |a| {
        let dot = a.flag("--dot");
        Ok(Command::Lockgraph { dot })
    }),
];

/// Parses CLI arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    let (verb, build) = VERBS
        .iter()
        .find(|(verb, _)| verb == name)
        .ok_or_else(|| format!("unknown command {name:?}\n{}", usage()))?;
    build(&Args::scan(verb, *build, rest)?)
}

/// The usage text, generated from [`VERBS`].
pub(crate) fn usage() -> String {
    let mut out = String::new();
    for (i, &(verb, build)) in VERBS.iter().enumerate() {
        let (positionals, flags) = Args::dry_run(build);
        out += if i == 0 { "usage: " } else { "       " };
        out += &format!("ddlf-audit {verb}");
        for placeholder in positionals {
            out += &format!(" {placeholder}");
        }
        for (name, takes) in flags {
            out += &match takes {
                Takes::Nothing => format!(" [{name}]"),
                Takes::Value(v) => format!(" [{name} {v}]"),
            };
        }
        out.push('\n');
    }
    out + "       (--threads K counts the thread that submits a run: it runs one job \
           itself, beside at most K-1 pooled workers)\n\
           \x20      (lockgraph observes nothing unless built with --features lockdep)"
}
