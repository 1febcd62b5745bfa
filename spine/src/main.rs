//! `spine`: the socket-level benchmark of the PRAGUE query service.
//!
//! One invocation measures one workload: it generates and mines a
//! database, starts a real `prague_server::Server` on loopback, drives it
//! over TCP (`--trace 0`, the end-to-end metrics) or replays the same
//! frames layer by layer (`--trace 1`, the per-layer metrics), checks
//! every answer and prints the result as the last line of its output.
//! See `README.md` beside this package and `BENCHMARK.json` at the root.

mod compare;
mod direct;
mod drive;
mod host;
mod layers;
mod measure;
mod report;
mod script;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  spine --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
        [--smoke] [--clients <n>] [--trace-out <file>]
  spine --compare <A> <B> [--bounds <BENCHMARK.json>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    clients: Option<usize>,
    trace_out: Option<PathBuf>,
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 12.0,
        traced: false,
        smoke: false,
        clients: None,
        trace_out: None,
    };
    let mut seeded = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&flag, argv.next())?,
            "--seed" => {
                args.seed = value(&flag, argv.next())?;
                seeded = true;
            }
            "--seconds" => args.seconds = value(&flag, argv.next())?,
            "--trace" => args.traced = value::<u8>(&flag, argv.next())? != 0,
            "--smoke" => args.smoke = true,
            "--clients" => args.clients = Some(value(&flag, argv.next())?),
            "--trace-out" => args.trace_out = Some(value(&flag, argv.next())?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() || !seeded {
        return Err("--workload and --seed are required".to_owned());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

/// A directory under the build directory for everything the run writes:
/// the DF blob stores of `DfBacking::TempDisk` and the catalog round trip.
/// The benchmark may only write inside its checkout, and the build
/// directory is the one place there that is never committed.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("own path has no parent")?
        .join(format!("spine-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<bool, String> {
    let mut spec = workload::spec(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload '{}'; the workloads are {}",
            args.workload,
            workload::WORKLOADS.join(", ")
        )
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(clients) = args.clients {
        // More client threads than cores would time the scheduler, not
        // the service.
        if clients == 0 || clients > nproc {
            return Err(format!("--clients must be between 1 and nproc ({nproc})"));
        }
        spec.connections = clients;
    }
    if spec.connections > nproc {
        return Err(format!(
            "{} needs {} client threads but the host has {nproc} cores",
            spec.name, spec.connections
        ));
    }
    let scratch = scratch_dir()?;
    // `BlobStore::create_temp` asks the standard library for the
    // temporary directory, which reads this variable. No thread has been
    // started yet.
    std::env::set_var("TMPDIR", &scratch);
    let outcome = if args.traced {
        layers::run(&spec, args.seed, &scratch, args.trace_out.as_deref())
    } else {
        measure::run(&spec, args.seed, args.seconds)
    };
    // Best effort: a leftover directory sits under the ignored build
    // directory and harms nothing.
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = outcome?;
    report.traced = args.traced;
    println!("{}", report.detail_line(&host::fingerprint(args.seed)));
    println!("{}", report.result_line());
    for note in &report.notes {
        eprintln!("spine: {note}");
    }
    Ok(report.correct())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("--compare") {
        compare::main(argv.skip(1))
    } else {
        parse(argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("spine: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
