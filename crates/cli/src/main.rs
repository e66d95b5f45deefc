//! The `ddlf` command-line entry point (logic in the library crate).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match ddlf_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The wire commands talk to a server; everything else loads a spec
    // file and runs locally.
    let path = match &cmd {
        ddlf_cli::Command::Serve {
            addr,
            threads,
            inflate,
            wal,
            wal_sync,
            group_commit,
            admission_batch,
            no_telemetry,
        } => match ddlf_cli::run_serve(
            addr,
            *threads,
            *inflate,
            wal.as_deref(),
            *wal_sync,
            *group_commit,
            *admission_batch,
            *no_telemetry,
        ) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        ddlf_cli::Command::Recover {
            dir,
            expect_total,
            json,
        } => {
            let (out, code) = ddlf_cli::run_recover(dir, *expect_total, *json);
            print!("{out}");
            std::process::exit(code);
        }
        ddlf_cli::Command::Stats { addr, json, prom } => {
            let (out, code) = ddlf_cli::run_stats(addr, *json, *prom);
            print!("{out}");
            std::process::exit(code);
        }
        ddlf_cli::Command::Read { .. } => {
            let (out, code) = ddlf_cli::run_read(&cmd);
            print!("{out}");
            std::process::exit(code);
        }
        ddlf_cli::Command::Lockgraph { dot } => {
            let (out, code) = ddlf_cli::run_lockgraph(*dot);
            print!("{out}");
            std::process::exit(code);
        }
        ddlf_cli::Command::Submit { spec, .. } => spec.clone(),
        ddlf_cli::Command::Certify { spec, .. }
        | ddlf_cli::Command::Deadlock { spec }
        | ddlf_cli::Command::Explore { spec, .. }
        | ddlf_cli::Command::Simulate { spec, .. }
        | ddlf_cli::Command::Run { spec, .. }
        | ddlf_cli::Command::Dot { spec } => spec.clone(),
    };
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    if let ddlf_cli::Command::Submit { .. } = &cmd {
        // The server parses and certifies the spec; ship it verbatim.
        let (out, code) = ddlf_cli::run_submit(&cmd, &json);
        print!("{out}");
        std::process::exit(code);
    }
    let sys = match ddlf_cli::load_system(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (out, code) = ddlf_cli::execute(&cmd, &sys);
    print!("{out}");
    std::process::exit(code);
}
