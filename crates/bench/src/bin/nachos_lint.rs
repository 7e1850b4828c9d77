//! `nachos-lint` — audit every workload's compiled region for unsound
//! alias verdicts, missing ordering chains and resource hazards.
//!
//! Runs the [`nachos_alias::audit`] pass framework over the Table II
//! workloads under every compiler ablation, prints the byte-deterministic
//! `nachos-lint-v1` JSON report, and exits nonzero when any
//! Error-severity diagnostic (or dynamic collision) was found — the CI
//! gate for the soundness of the whole pipeline.
//!
//! [`nachos_alias::audit`]: mod@nachos_alias::audit

use std::process::ExitCode;

use nachos_bench::lint::{run_lint_suite, standard_configs, LintOptions};

const USAGE: &str = "\
nachos-lint: audit compiled workload regions for soundness

USAGE:
    nachos-lint [OPTIONS]

OPTIONS:
    --workload NAME      Audit a single Table II workload (default: all)
    --config NAME        Audit a single ablation: full | baseline |
                         stage1-only | no-prune (default: all)
    --differential       Also replay NO pairs through the reference
                         address walk and count dynamic collisions
    --invocations N      Invocations for the differential replay
                         (default: 64)
    --ideal              Also cross-check that the IDEAL oracle
                         lower-bounds NACHOS cycle counts per config
    --optimize           Run the certificate-carrying MDE optimizer
                         (nachos-opt) after compilation, so the CertLint
                         pass re-verifies real rewrite certificates
    --strict             Avoidable-imprecision warnings (redundant MDEs,
                         precision losses an enabled stage could decide)
                         also fail the run; losses attributed to disabled
                         ablation stages and budget advisories stay
                         advisory
    --out FILE           Write the JSON report to FILE instead of stdout
    -h, --help           Show this help
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut options = LintOptions::default();
    let mut out_path: Option<String> = None;
    let mut strict = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let Some(v) = args.next() else {
                    return usage_error("--workload requires a name");
                };
                if nachos_workloads::by_name(&v).is_none() {
                    return usage_error(&format!("unknown workload `{v}`"));
                }
                options.workload = Some(v);
            }
            "--config" => {
                let Some(v) = args.next() else {
                    return usage_error("--config requires a name");
                };
                if !standard_configs().iter().any(|c| c.name == v) {
                    return usage_error(&format!("unknown config `{v}`"));
                }
                options.config = Some(v);
            }
            "--differential" => options.differential = true,
            "--ideal" => options.ideal = true,
            "--optimize" => options.optimize = true,
            "--strict" => strict = true,
            "--invocations" => {
                let Some(v) = args.next() else {
                    return usage_error("--invocations requires a count");
                };
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => options.invocations = n,
                    _ => return usage_error(&format!("bad invocation count `{v}`")),
                }
            }
            "--out" => {
                let Some(v) = args.next() else {
                    return usage_error("--out requires a path");
                };
                out_path = Some(v);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let report = run_lint_suite(&options);
    let json = report.to_json();
    match out_path {
        Some(path) => {
            // Atomic (tmp + rename): a crash mid-write never leaves a
            // truncated report for downstream tooling to misparse.
            if let Err(e) = nachos::json::write_atomic(std::path::Path::new(&path), &json) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("report written to {path}");
        }
        None => print!("{json}"),
    }

    let errors = report.num_errors();
    if errors > 0 {
        eprintln!("nachos-lint: {errors} error-severity finding(s)");
        return ExitCode::FAILURE;
    }
    let avoidable = report.num_strict();
    if strict && avoidable > 0 {
        eprintln!("nachos-lint: {avoidable} avoidable-imprecision finding(s) (--strict)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
