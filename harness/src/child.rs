//! The server process: `ddlf-harness serve-child …` on one side, the
//! handle the load generator holds on the other.
//!
//! The harness is its own server binary because `ddlf-audit serve` has
//! no flag for per-lock work and the CLI is not this package's to edit;
//! both go through `ddlf_server::Server::bind`, so what is measured is
//! the shipped server.

use crate::workloads::ServerShape;
use crate::Args;
use ddlf_engine::{EngineConfig, Telemetry};
use ddlf_server::{Client, InflateSpec, ServeConfig, Server};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{self, Command, Stdio};
use std::time::Duration;

/// `serve-child` entry point: bind an ephemeral port, print it, serve
/// until `Shutdown`. Exits when stdin closes, so a load generator that
/// dies never leaves a server behind.
pub fn serve(args: &Args) -> io::Result<()> {
    let telemetry = if args.flag("telemetry") {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let threads = args.number("threads")?;
    let cfg = ServeConfig {
        threads,
        default_inflate: InflateSpec::None,
        engine: EngineConfig {
            threads,
            admission_batch: args.number("admission-batch")?,
            work: Duration::from_micros(args.number("work-us")?),
            wal_sync: args.flag("sync"),
            group_commit: Some(ddlf_engine::DEFAULT_MAX_GROUP),
            telemetry,
            ..EngineConfig::default()
        },
        wal_dir: Some(args.text("wal")?.into()),
    };
    let server = Server::bind("127.0.0.1:0", cfg)?;
    println!("{}", server.local_addr());
    io::stdout().flush()?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = io::stdin().read_to_end(&mut sink);
        process::exit(3);
    });
    server.run()
}

/// A running server child. Dropping it kills the process and waits, so
/// no exit path of the harness leaves one running.
pub struct Child {
    proc: process::Child,
    /// Held, never written: the child exits when this closes. Taken out
    /// of `proc` because `wait` would close it before waiting and turn
    /// every clean shutdown into that exit.
    _stdin: process::ChildStdin,
    pub addr: String,
}

impl Child {
    pub fn spawn(shape: ServerShape, telemetry: bool, wal_dir: &Path) -> io::Result<Child> {
        let mut proc = Command::new(std::env::current_exe()?)
            .arg("serve-child")
            .args(["--wal", &wal_dir.to_string_lossy()])
            .args(["--threads", &shape.threads.to_string()])
            .args(["--admission-batch", &shape.admission_batch.to_string()])
            .args(["--work-us", &shape.work_us.to_string()])
            .args(["--sync", if shape.wal_sync { "1" } else { "0" }])
            .args(["--telemetry", if telemetry { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut addr = String::new();
        let stdout = proc.stdout.take().expect("stdout was piped");
        BufReader::new(stdout).read_line(&mut addr)?;
        let mut child = Child {
            _stdin: proc.stdin.take().expect("stdin was piped"),
            proc,
            addr: addr.trim().to_string(),
        };
        if child.addr.is_empty() {
            let status = child.proc.wait()?;
            return Err(io::Error::other(format!(
                "server child exited before binding: {status}"
            )));
        }
        Ok(child)
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(self.addr.clone())
    }

    /// Peak resident set of the server so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc/<pid>/status"))
    }

    /// Asks the server to drain and waits for a clean exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.connect()?
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let status = self.proc.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server child exited {status}")))
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) -> io::Result<()> {
        self.proc.kill()?;
        self.proc.wait().map(drop)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // After `shutdown`/`kill` both calls fail harmlessly on the
        // already-reaped process.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}
