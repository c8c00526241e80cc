//! The tsdx benchmark: five closed-loop workloads against the crates as
//! shipped, steal-gated rounds, every reply checked against an in-process
//! reference, and an outside-in request waterfall from a separate traced
//! pass. See `README.md` for the protocol and the glossary.
//!
//! ```text
//! run.sh [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Without `--workload` all five run, their rounds interleaved. With it the
//! last line of stdout is the result object `BENCHMARK.json`'s driver reads.

mod alloc;
mod client;
mod host;
mod layers;
mod replay;
mod rounds;
mod stats;
mod summary;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use layers::traced_pass;
use rounds::{reduce, run_interleaved, ROUND_S};
use summary::{Env, Run, WorkloadResult};
use trace::Tracer;
use workloads::{Workload, NAMES};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed of a run that does not name one.
const DEFAULT_SEED: u64 = 17;
/// Measured seconds per workload of a run that does not say: 16 rounds.
const DEFAULT_SECONDS: f64 = 24.0;
/// Fixture builds per workload; `setup_s` is the quickest.
const SETUP_REPEATS: usize = 6;

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    workload: Option<&'static str>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false, workload: None };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => out.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= ROUND_S && out.seconds <= 600.0) {
                    return Err(format!("--seconds must be within {ROUND_S}..=600"));
                }
            }
            "--workload" => {
                let name = value("a workload name")?;
                let known = NAMES.iter().find(|n| *n == name);
                out.workload = Some(
                    known.ok_or_else(|| format!("unknown workload {name}; one of {NAMES:?}"))?,
                );
            }
            // Bare `--trace` switches the traced pass on; the driver passes 0 or 1.
            "--trace" => {
                out.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Refuses to measure anything but the shipped build: optimised, with the
/// root's `x86-64-v3` rustflags in effect.
fn preflight() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built with debug assertions; run through run.sh (cargo --release)".into());
    }
    if !cfg!(target_feature = "avx2") {
        return Err(
            "AVX2 is not compiled in; run cargo from benchmark/ so the root rustflags apply".into(),
        );
    }
    Ok(())
}

fn env(nproc: usize, cpu: Option<usize>) -> Env {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut tsdx_vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("TSDX_")).collect();
    tsdx_vars.sort();
    Env { commit: var("BENCH_COMMIT"), rustc: var("BENCH_RUSTC"), nproc, cpu, tsdx_vars }
}

fn main() -> ExitCode {
    // Before anything reads `available_parallelism` or starts a thread.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = host::pin_to_one_cpu()
        .map_err(|e| eprintln!("tsdx-benchmark: not pinned to one CPU, expect noise: {e}"))
        .ok();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv).and_then(|a| preflight().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsdx-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env(nproc, cpu);
    eprintln!(
        "tsdx-benchmark: commit {} | {} | nproc {} | pinned to cpu {:?} | TSDX_* {:?}",
        env.commit, env.rustc, env.nproc, env.cpu, env.tsdx_vars
    );
    let names: Vec<&'static str> = args.workload.map_or(NAMES.to_vec(), |w| vec![w]);
    let rounds = (args.seconds / ROUND_S).round() as usize;

    // Set-up: every fixture is built SETUP_REPEATS times, the first kept and
    // driven, the others spread evenly between the rounds and dropped.
    let time_build = |name: &str| {
        let t0 = Instant::now();
        let fixture = workloads::build(name, args.seed);
        (fixture, t0.elapsed().as_secs_f64())
    };
    let (mut fixtures, mut setup_runs_s): (Vec<Box<dyn Workload>>, Vec<Vec<f64>>) =
        names.iter().map(|name| time_build(name)).map(|(f, s)| (f, vec![s])).unzip();
    let all_rounds = run_interleaved(&mut fixtures, rounds, |cycle| {
        let due = (1..SETUP_REPEATS).filter(|k| k * rounds / SETUP_REPEATS == cycle).count();
        for (name, runs) in names.iter().zip(&mut setup_runs_s) {
            runs.extend((0..due).map(|_| time_build(name).1));
        }
    });
    for (name, runs) in names.iter().zip(&setup_runs_s) {
        eprintln!("tsdx-benchmark: {name} set up in {runs:.3?} s");
    }

    let mut tracer = Tracer::new();
    let mut results: Vec<WorkloadResult> = Vec::new();
    for ((w, rounds_of_w), setup_runs_s) in fixtures.iter_mut().zip(all_rounds).zip(setup_runs_s) {
        let measured = reduce(&rounds_of_w[1..], w.items_per_op());
        let traced = args.trace.then(|| traced_pass(w.as_mut(), args.seed, &measured, &mut tracer));
        results.push(WorkloadResult {
            name: w.name(),
            setup_runs_s,
            rounds: rounds_of_w,
            measured,
            traced,
        });
    }
    drop(fixtures);

    let run = Run { seed: args.seed, rounds, trace: args.trace, env, workloads: results };
    let summary = run.summary_json();
    let written = std::fs::create_dir_all("out")
        .and_then(|()| std::fs::write("out/summary.json", &summary))
        .and_then(|()| {
            if args.trace {
                std::fs::write("out/trace.jsonl", tracer.to_jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("tsdx-benchmark: cannot write out/: {e}");
        return ExitCode::from(2);
    }
    print!("{summary}");
    for w in &run.workloads {
        if let Some(why) = w.first_failure() {
            eprintln!(
                "tsdx-benchmark: {}: {} of {} ops failed; first: {why}",
                w.name,
                w.failed(),
                w.attempted()
            );
        }
        for rule in w.traced.iter().flat_map(|t| &t.broken_rules) {
            eprintln!("tsdx-benchmark: mis-instrumented: {rule}");
        }
    }
    if args.workload.is_some() {
        println!("{}", run.workloads[0].result_line());
    }
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_invocations_both_parse() {
        let a =
            parse(&["--workload", "clip_json", "--seed", "29", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some("clip_json"), 29, 12.0, true));
        let a =
            parse(&["--workload", "bulk_batch8", "--seed", "3", "--seconds", "12", "--trace", "0"])
                .unwrap();
        assert!(!a.trace);
        let a = parse(&["--trace", "--seed", "5"]).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (None, 5, DEFAULT_SECONDS, true));
        let a = parse(&[]).unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
