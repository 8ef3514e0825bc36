//! `sortmid-perfbench --workload <fig7|sweep> --seed N --seconds S --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Lines before it are information (provenance, per-pass
//! quartiles).
//!
//! `sortmid-perfbench --bless` rewrites the committed per-config golden
//! digests from the paper presets — the explicit act that accepts a model
//! change.

use sortmid_perfbench::{bless, run, Settings, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Settings::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--bless") {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        for w in Workload::ALL {
            if let Err(e) = bless(w, &dir) {
                eprintln!("bless {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
            eprintln!("blessed {}", w.name());
        }
        return ExitCode::SUCCESS;
    }
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match run(&settings, &mut stdout) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
