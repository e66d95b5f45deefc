//! The `ddlf-audit` command-line entry point: read `argv`, print, exit.
//! Everything else is [`ddlf_cli::invoke`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, code) = ddlf_cli::invoke(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        (String::new(), 2)
    });
    print!("{out}");
    std::process::exit(code);
}
