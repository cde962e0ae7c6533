//! Solve-path invariant analyzer; see [`famg_analyze`] for the rules.
//!
//! Usage: `cargo run -q -p famg-analyze --bin famg-analyze
//! [--format json|text] [--test-only-pub] [workspace-root]` (default root:
//! the current directory, default format: text). Text mode prints one
//! `path:line: [rule] message` diagnostic per finding; `--format json`
//! emits the shared `famg-diag-v1` document (see
//! [`famg_analyze::to_json`]), the same schema `famg-lint` uses. Exits
//! non-zero on findings — wired into `scripts/check.sh` as the
//! `==> famg-analyze` stage.
//!
//! `--test-only-pub` prints the [`famg_analyze::test_only_pub`] report
//! instead, one `path: Type::fn` line per item, and exits zero; the pinned
//! copy is `crates/analyze/test_only_pub.txt`.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = ".".to_string();
    let mut json = false;
    let mut report = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("famg-analyze: unknown format {other:?} (expected json|text)");
                    return ExitCode::from(2);
                }
            },
            "--test-only-pub" => report = true,
            _ => root = arg,
        }
    }
    if report {
        return match famg_analyze::test_only_pub(Path::new(&root)) {
            Ok(items) => {
                for item in &items {
                    println!("{item}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("famg-analyze: failed to scan {root}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let diags = match famg_analyze::analyze_workspace(Path::new(&root)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("famg-analyze: failed to scan {root}: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", famg_analyze::to_json("famg-analyze", &diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if diags.is_empty() {
        eprintln!("famg-analyze: clean");
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        println!("{d}");
    }
    eprintln!("famg-analyze: {} finding(s)", diags.len());
    ExitCode::FAILURE
}
