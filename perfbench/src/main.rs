//! Pipeline benchmark for splatt-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cpd-yelp|refresh-stream|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One workload per process, so process-wide counters cannot leak from
//! one workload into another. The last line of stdout is the JSON result
//! (`correct`, `attempted`, `failed`, `metrics`); failure reasons go to
//! stderr. A traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.json`. See `perfbench/METHODOLOGY.md`.

mod cpd;
mod gate;
mod refresh_stream;
mod report;
mod serve_mix;
mod stats;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["cpd-yelp", "refresh-stream"];

/// Runnable workloads that `BENCHMARK.json` does not list. `serve-mix`
/// fails a few requests in most runs with `DeadlineExpired`, after a
/// lost wakeup in `splatt_rt::sync::RawMutex` stalls the engine's
/// batcher (see `METHODOLOGY.md`), so its failure count differs from
/// run to run; it is listed again once that is fixed.
pub const UNLISTED: [&str; 1] = ["serve-mix"];

/// Set-up repeats per process: at least `SETUP_MIN` and until
/// `SETUP_WINDOW` has passed, at most `SETUP_MAX`. `setup_s` is their
/// median; a window of seconds rides out the host's short slow spells.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 256;
const SETUP_WINDOW: Duration = Duration::from_secs(8);

/// A run still going after this long is stuck: the watchdog reports it
/// and exits non-zero without a result, inside the 180 s limit a run has.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Directory (relative to the working directory) for traces and stores.
pub const OUT_DIR: &str = ".bench_out";

/// Workload sizes; the tests run the same code at a tiny size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cpd: cpd::CpdConfig,
    pub serve: serve_mix::ServeMixConfig,
    pub refresh: refresh_stream::RefreshConfig,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        cpd: cpd::FULL,
        serve: serve_mix::FULL,
        refresh: refresh_stream::FULL,
    };
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNLISTED).any(|w| *w == workload) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?} or {UNLISTED:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Repeat `setup` (see [`SETUP_WINDOW`]); the median time and the last
/// result. Earlier results are dropped (a store removes its directory).
fn timed_setup<T>(mut setup: impl FnMut(usize) -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_MAX);
    let mut last = None;
    let started = Instant::now();
    for i in 0..SETUP_MAX {
        if i >= SETUP_MIN && started.elapsed() >= SETUP_WINDOW {
            break;
        }
        drop(last.take());
        let t0 = Instant::now();
        let v = setup(i)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        stats::median(&mut times),
        last.expect("at least one set-up"),
    ))
}

/// Set up and run one workload. `out_dir` holds stores and the trace.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch, 0);
    let mut extra_lanes: Vec<Tracer> = Vec::new();
    let (setup_s, mut out) = match workload {
        "cpd-yelp" => {
            let (setup_s, tensor) = timed_setup(|_| Ok(cpd::setup(&sizes.cpd, seed)))?;
            (
                setup_s,
                cpd::run(&sizes.cpd, &tensor, seed, seconds, &mut tr),
            )
        }
        "serve-mix" => {
            let (setup_s, fixture) = timed_setup(|_| serve_mix::setup(&sizes.serve, seed))?;
            let (out, lanes) =
                serve_mix::run(&sizes.serve, &fixture, seed, seconds, &mut tr, epoch);
            extra_lanes = lanes;
            drop(fixture);
            (setup_s, out)
        }
        "refresh-stream" => {
            let (setup_s, fixture) = timed_setup(|i| {
                refresh_stream::setup(
                    &sizes.refresh,
                    seed,
                    &out_dir.join(format!("store-{}-{i}", std::process::id())),
                )
            })?;
            let (out, lanes) = refresh_stream::run(&sizes.refresh, fixture, &mut tr, epoch)?;
            extra_lanes = lanes;
            (setup_s, out)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    out.set("setup_s", setup_s);
    if traced {
        let mut lanes: Vec<&Tracer> = vec![&tr];
        lanes.extend(extra_lanes.iter());
        let path = out_dir.join(format!("trace-{workload}-{seed}.json"));
        trace::write_json(&path, workload, seed, &lanes)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                [&WORKLOADS[..], &UNLISTED[..]].concat().join("|")
            );
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {RUN_LIMIT:?}; giving up without a result");
        std::process::exit(3);
    });
    let out_dir = PathBuf::from(OUT_DIR);
    let out = match run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizes::FULL,
        &out_dir,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    match report::render(&out, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a size that runs in well under a second.
    const TINY: Sizes = Sizes {
        cpd: cpd::TINY,
        serve: serve_mix::TINY,
        refresh: refresh_stream::TINY,
    };

    fn out_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()))
    }

    /// Smoke-run `workload` untraced and traced on two seeds: every gate
    /// passes, every end-to-end metric is positive, and the traced run
    /// emits its spans.
    fn smoke(workload: &str) {
        let dir = out_dir(workload);
        for seed in [1u64, 2] {
            for traced in [false, true] {
                let out = run_workload(workload, seed, 0.2, traced, &TINY, &dir).unwrap();
                assert_eq!(out.failed, 0, "{workload} seed {seed}: {:?}", out.failures);
                assert!(out.attempted > 0);
                let line = report::render(&out, traced).unwrap();
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                if traced {
                    assert!(dir.join(format!("trace-{workload}-{seed}.json")).is_file());
                    assert!(out.metrics["trace.overhead_ratio"] > 0.0);
                } else {
                    for (name, _) in report::END_TO_END {
                        assert!(out.metrics[name] > 0.0, "{workload}: {name} not positive");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_cpd_yelp() {
        smoke("cpd-yelp");
    }

    #[test]
    fn smoke_serve_mix() {
        smoke("serve-mix");
    }

    #[test]
    fn smoke_refresh_stream() {
        smoke("refresh-stream");
    }

    #[test]
    fn args_are_strict() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(ok.trace && ok.seed == 7 && ok.seconds == 10.0);
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 0 --extra 1"
        ))
        .is_err());
    }
}
