//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 when every correctness gate held, 1 when one failed
//! (the result line still prints, with `"correct": false`), 2 when the
//! run could not be set up (no result line).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(out) => {
            println!(
                "{}",
                perfbench::json::Json::obj().with("report", out.report)
            );
            println!("{}", out.result);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
