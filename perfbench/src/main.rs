//! `sit-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then, as the last line, one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--trace 0` reports the end-to-end metrics, combined from `PROCESSES`
//! child processes run one after another (each started with the hidden
//! flag `--part` and printing only a [`Part`] line); `--trace 1`
//! the per-layer metrics of a traced run. Exits 1 when any request
//! fails, any output check does not hold or a metric could not be
//! measured, 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sit_perfbench::drive::{self, Outcome, Part};
use sit_perfbench::gen::{Inputs, Size, Workload, PROCESSES};
use sit_perfbench::{cpu, layers};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run one share of the end-to-end run.
    part: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--part" => {
                number(&value)?;
                part = true;
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
        part,
    })
}

/// This process's scratch directory. Fixed-width, so every path the
/// program builds under it has the same length from run to run and
/// allocation counts repeat exactly.
fn scratch_root(args: &Args) -> PathBuf {
    PathBuf::from(".bench_run").join(format!(
        "{}-{:010}",
        args.workload.name(),
        std::process::id()
    ))
}

/// Run `f` on this process's inputs, pinned to one CPU, removing the
/// scratch directory if it fails.
fn measure<T>(
    args: &Args,
    f: impl FnOnce(&Inputs, &Path) -> std::io::Result<T>,
) -> Result<(T, String), String> {
    let cpu = match cpu::pin_to_one() {
        Some(cpu) => format!("pinned to CPU {cpu}"),
        None => "not pinned to a CPU".to_owned(),
    };
    let inputs = Inputs::generate(
        args.workload,
        Size::for_run(args.workload, args.seconds),
        args.seed,
    );
    let root = scratch_root(args);
    f(&inputs, &root).map(|out| (out, cpu)).map_err(|e| {
        let _ = std::fs::remove_dir_all(&root);
        format!("{}: {e}", args.workload.name())
    })
}

/// The end-to-end run: `PROCESSES` children one after another, each
/// setting up and timing its share and printing a [`Part`] line last,
/// combined by [`drive::combine`].
fn run_children(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut parts = Vec::new();
    for part in 0..PROCESSES {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .output()
            .map_err(|e| format!("start part {part}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        parts.push(Part::from_line(last).ok_or_else(|| {
            format!(
                "part {part} gave no result ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?);
    }
    let inputs = Inputs::generate(
        args.workload,
        Size::for_run(args.workload, args.seconds),
        args.seed,
    );
    Ok(drive::combine(&inputs, &parts))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sit-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.part {
        match measure(&args, drive::run) {
            Ok((mut part, cpu)) => {
                part.notes.push(cpu);
                println!("{}", part.to_line());
                return ExitCode::SUCCESS;
            }
            Err(e) => Err(e),
        }
    } else if args.trace {
        measure(&args, layers::run).map(|(mut out, cpu)| {
            out.notes.push(cpu);
            out
        })
    } else {
        run_children(&args)
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sit-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in out.metrics.iter().filter(|m| !m.value.is_finite()) {
        out.correct = false;
        out.failures.push(format!("{} was not measured", m.name));
    }
    println!(
        "workload {} seed {} trace {} {:?}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        Size::for_run(args.workload, args.seconds),
    );
    for m in &out.metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!("  {:<34} {:>14.3} {}{samples}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    if let Some(digest) = out.digest {
        println!("  response digest {digest:016x}");
    }
    println!("  {}", out.error_rate_note());
    for failure in &out.failures {
        println!("  FAILED {failure}");
    }
    println!("{}", out.json_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
