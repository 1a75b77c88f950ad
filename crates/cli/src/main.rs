//! `scanbist` — command-line front end for the scan-BIST diagnosis
//! workspace. See `scanbist help`.

use scan_bist_cli::{help, parse_invocation, run_invocation};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse_invocation(args.iter().map(String::as_str)) {
        Ok(invocation) => invocation,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", help());
            std::process::exit(2);
        }
    };
    let session = scan_obs::Session::start("scanbist", &invocation.obs);
    let code = run_invocation(&invocation, &mut std::io::stdout().lock());
    std::process::exit(session.finish(code));
}
