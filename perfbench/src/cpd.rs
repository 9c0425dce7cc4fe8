//! `cpd-yelp`: the paper's CP-ALS protocol on a YELP-shaped tensor.
//!
//! Solves alternate between 2 tasks and 1 task, so a parallelism change
//! moves the 2-task solve and leaves the single-threaded baseline alone.
//! Never touches serve, net, or store.

use crate::gate;
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use splatt::core::mttkrp::{mttkrp, MttkrpConfig, MttkrpWorkspace};
use splatt::core::reference::mttkrp_coo;
use splatt::dense::Matrix;
use splatt::par::{Routine, TaskTeam, TimerRegistry};
use splatt::tensor::synth::YELP;
use splatt::{
    cp_als, CpalsOptions, CpalsOutput, CsfAlloc, CsfSet, KruskalModel, SortVariant, SparseTensor,
};
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct CpdConfig {
    /// Fraction of the full YELP shape (0.05: 2050 x 550 x 3750, 400k nnz).
    pub scale: f64,
    pub rank: usize,
    pub iters: usize,
    /// Solve pairs (2 tasks, then 1 task) run even past the time budget.
    pub min_pairs: usize,
}

/// The paper protocol on the benchmark's tensor.
pub const FULL: CpdConfig = CpdConfig {
    scale: 0.05,
    rank: 35,
    iters: 20,
    min_pairs: 2,
};

/// A size for tests.
#[cfg(test)]
pub const TINY: CpdConfig = CpdConfig {
    scale: 0.002,
    rank: 8,
    iters: 5,
    min_pairs: 1,
};

/// Largest allowed relative MTTKRP error against the COO reference.
const MTTKRP_REL: f64 = 1e-9;
/// Reported fit against `KruskalModel::fit_to`, absolute.
const FIT_ABS: f64 = 1e-12;
/// Allowed per-iteration fit decrease (rounding in the fit formula).
const FIT_SLACK: f64 = 1e-9;
/// 1-task vs 2-task fit, relative: summation order differs by task count.
const TASKS_REL: f64 = 1e-9;
/// Standalone MTTKRP repetitions per (mode, task count) in the traced run.
const KERNEL_REPS: usize = 3;

/// Generate the workload's tensor.
pub fn setup(cfg: &CpdConfig, seed: u64) -> SparseTensor {
    YELP.generate(cfg.scale, seed)
}

fn solve_opts(cfg: &CpdConfig, ntasks: usize, seed: u64, profile: bool) -> CpalsOptions {
    CpalsOptions {
        rank: cfg.rank,
        max_iters: cfg.iters,
        tolerance: 0.0,
        ntasks,
        seed,
        csf_alloc: CsfAlloc::Two,
        profile,
        ..Default::default()
    }
}

/// Gates every solve must pass: monotone fits, and a reported fit that
/// equals the naive fit of the returned model.
fn check_solve(out: &mut Outcome, tensor: &SparseTensor, run: &CpalsOutput, what: &str) {
    let result = gate::fits_nondecreasing(&run.fits, FIT_SLACK).and_then(|()| {
        gate::abs_close("fit vs fit_to", run.fit, run.model.fit_to(tensor), FIT_ABS)
    });
    out.check(what, result);
}

/// One solve's routine split, from the driver's own timer registry.
struct Split {
    wall_s: f64,
    sort_s: f64,
    mttkrp_s: f64,
    ata_s: f64,
    inverse_s: f64,
    norm_s: f64,
    fit_s: f64,
    busy_max_over_mean: f64,
    locks: f64,
    replica_bytes: f64,
}

impl Split {
    fn of(run: &CpalsOutput, wall_s: f64) -> Split {
        let t: &TimerRegistry = &run.timers;
        let (busy, locks, replica) = match &run.profile {
            Some(p) => {
                let ns: Vec<f64> = p.threads.threads.iter().map(|r| r.nanos as f64).collect();
                let m = mean(&ns);
                let max = ns.iter().cloned().fold(0.0, f64::max);
                (
                    if m > 0.0 { max / m } else { 0.0 },
                    p.locks.acquisitions as f64,
                    p.alloc.replica_bytes as f64,
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        Split {
            wall_s,
            sort_s: t.seconds(Routine::Sort),
            mttkrp_s: t.seconds(Routine::Mttkrp),
            ata_s: t.seconds(Routine::AtA),
            inverse_s: t.seconds(Routine::Inverse),
            norm_s: t.seconds(Routine::MatNorm),
            fit_s: t.seconds(Routine::Fit),
            busy_max_over_mean: busy,
            locks,
            replica_bytes: replica,
        }
    }

    fn routines_s(&self) -> f64 {
        self.sort_s + self.mttkrp_s + self.ata_s + self.inverse_s + self.norm_s + self.fit_s
    }
}

fn med(splits: &[Split], f: impl Fn(&Split) -> f64) -> f64 {
    let mut v: Vec<f64> = splits.iter().map(f).collect();
    median(&mut v)
}

/// Run the workload for `seconds` on `tensor`.
///
/// Untraced: alternate 2-task and 1-task solves and report the 2-task
/// median. Traced: every solve is profiled and spanned, and every other
/// pair runs plain, so the traced and untraced medians give the tracing
/// overhead.
pub fn run(
    cfg: &CpdConfig,
    tensor: &SparseTensor,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let traced = tr.enabled();
    let solve_seed = seed ^ 0x5EED_CAFE;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // [ntasks index][traced?] -> splits
    let mut splits: [[Vec<Split>; 2]; 2] = Default::default();
    // One untimed (but checked) solve first: the first solve in a process
    // pays page faults and allocator growth, ~40% over the steady state.
    let warm = cp_als(tensor, &solve_opts(cfg, 2, solve_seed, false));
    check_solve(&mut out, tensor, &warm, "warm-up solve");
    let mut last_model: Option<KruskalModel> = None;
    let mut pair = 0usize;
    // traced runs need a traced and a plain pair before the budget can end them
    let min_pairs = if traced {
        cfg.min_pairs.max(2)
    } else {
        cfg.min_pairs
    };
    while pair < min_pairs || started.elapsed() < budget {
        let spanned = traced && pair.is_multiple_of(2);
        let mut fits = [0.0f64; 2];
        for (ti, ntasks) in [2usize, 1].into_iter().enumerate() {
            let opts = solve_opts(cfg, ntasks, solve_seed, spanned);
            let span = if spanned {
                tr.enter("cpals.cp_als", pair as u64, None)
            } else {
                None
            };
            let t0 = Instant::now();
            let run = cp_als(tensor, &opts);
            let wall = t0.elapsed().as_secs_f64();
            tr.exit(span);
            let what = format!("solve {pair} at {ntasks} task(s)");
            tr.wrap("oracle.fit_to", pair as u64, None, || {
                check_solve(&mut out, tensor, &run, &what)
            });
            fits[ti] = run.fit;
            splits[ti][usize::from(spanned)].push(Split::of(&run, wall));
            if ntasks == 2 {
                last_model = Some(run.model);
            }
        }
        out.check(
            &format!("solve pair {pair}"),
            gate::rel_close("1-task vs 2-task fit", fits[1], fits[0], TASKS_REL),
        );
        pair += 1;
    }
    let model = last_model.expect("at least one 2-task solve");

    // the untraced run reports plain solves; the traced run its profiled ones
    let [two, one] = &splits;
    let two_main = &two[usize::from(traced)];
    let one_main = &one[usize::from(traced)];
    let solve_2t = med(two_main, |s| s.wall_s);
    let solve_1t = med(one_main, |s| s.wall_s);
    out.set("latency_p50_ms", solve_2t * 1e3);

    check_kernels(&mut out, cfg, tensor, &model, tr);

    if traced {
        let iters = cfg.iters as f64;
        out.set("cpd.solve_s", solve_2t);
        out.set("cpd.solve_s_1t", solve_1t);
        out.set("par.speedup_2t", solve_1t / solve_2t);
        out.set("tensor.sort_ms", med(two_main, |s| s.sort_s) * 1e3);
        out.set(
            "mttkrp.ms_per_iter",
            med(two_main, |s| s.mttkrp_s) * 1e3 / iters,
        );
        out.set(
            "dense.ata_ms_per_iter",
            med(two_main, |s| s.ata_s) * 1e3 / iters,
        );
        out.set(
            "dense.inverse_ms_per_iter",
            med(two_main, |s| s.inverse_s) * 1e3 / iters,
        );
        out.set(
            "dense.norm_ms_per_iter",
            med(two_main, |s| s.norm_s) * 1e3 / iters,
        );
        out.set(
            "cpals.fit_ms_per_iter",
            med(two_main, |s| s.fit_s) * 1e3 / iters,
        );
        out.set(
            "cpals.driver_ms",
            med(two_main, |s| s.wall_s - s.routines_s()) * 1e3,
        );
        out.set(
            "cpals.coverage",
            med(two_main, |s| s.routines_s() / s.wall_s),
        );
        out.set(
            "par.task_busy_max_over_mean",
            med(two_main, |s| s.busy_max_over_mean),
        );
        out.set("locks.acquisitions", med(two_main, |s| s.locks));
        out.set(
            "mttkrp.replica_reduce_bytes",
            med(two_main, |s| s.replica_bytes),
        );
        let plain = med(&two[0], |s| s.wall_s) + med(&one[0], |s| s.wall_s);
        out.set("trace.overhead_ratio", (solve_2t + solve_1t) / plain);
    }
    out
}

/// MTTKRP gate on the final factors: every mode, at 2 tasks and at
/// 1 task, against the COO reference. The traced run repeats each call
/// and reports the per-mode kernel times and the derived work counts.
fn check_kernels(
    out: &mut Outcome,
    cfg: &CpdConfig,
    tensor: &SparseTensor,
    model: &KruskalModel,
    tr: &mut Tracer,
) {
    let traced = tr.enabled();
    let factors = &model.factors;
    let team2 = TaskTeam::new(2);
    let (set, _) = csf_metrics(out, tensor, &team2, tr);
    let cfg_k = MttkrpConfig::default();
    let order = tensor.order();
    let reference: Vec<Matrix> = (0..order)
        .map(|m| {
            tr.wrap("oracle.mttkrp_coo", m as u64, None, || {
                mttkrp_coo(tensor, factors, m)
            })
        })
        .collect();
    let reps = if traced { KERNEL_REPS } else { 1 };
    let mut sweep_s = 0.0;
    let team1 = TaskTeam::new(1);
    for ntasks in [2usize, 1] {
        let team = if ntasks == 2 { &team2 } else { &team1 };
        let mut ws = MttkrpWorkspace::new(&cfg_k, ntasks);
        for (m, expect) in reference.iter().enumerate() {
            let mut got = Matrix::zeros(tensor.dims()[m], cfg.rank);
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                let span = tr.enter(
                    if ntasks == 2 {
                        "mttkrp.mttkrp_2t"
                    } else {
                        "mttkrp.mttkrp_1t"
                    },
                    m as u64,
                    None,
                );
                let t0 = Instant::now();
                mttkrp(&set, factors, m, &mut got, &mut ws, team, &cfg_k);
                times.push(t0.elapsed().as_secs_f64());
                tr.exit(span);
            }
            out.check(
                &format!("mttkrp mode {m} at {ntasks} task(s)"),
                gate::matrix_close(&got, expect, MTTKRP_REL),
            );
            let ms = median(&mut times) * 1e3;
            if ntasks == 2 {
                sweep_s += ms / 1e3;
            }
            if traced {
                out.set(KERNEL_NAMES[usize::from(ntasks == 1)][m], ms);
            }
        }
    }
    if traced {
        // COO-equivalent work of one sweep over all modes: per nonzero and
        // rank column, `order` multiply-adds; bytes stream the value, the
        // coordinates, the other modes' factor rows, and the output row.
        let (nnz, r, n) = (tensor.nnz() as f64, cfg.rank as f64, order as f64);
        let flops = n * n * r * nnz;
        let bytes = n * nnz * (8.0 + 4.0 * n + 8.0 * r * n);
        out.set("mttkrp.flops", flops);
        out.set("mttkrp.bytes_computed", bytes);
        out.set("mttkrp.gflops", flops / sweep_s / 1e9);
        out.set("mttkrp.flops_per_byte", flops / bytes);
    }
}

/// Build the CSF pair of `tensor` on `team` with `CsfSet::build_timed`.
/// A traced run records `csf.build_ms` (the build minus its sort) and
/// `csf.storage_bytes`. Returns the set and the sort time in ms.
pub fn csf_metrics(
    out: &mut Outcome,
    tensor: &SparseTensor,
    team: &TaskTeam,
    tr: &mut Tracer,
) -> (CsfSet, f64) {
    let timers = TimerRegistry::new();
    let t0 = Instant::now();
    let set = tr.wrap("csf.build_timed", 0, None, || {
        CsfSet::build_timed(tensor, CsfAlloc::Two, team, SortVariant::default(), &timers)
    });
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sort_ms = timers.seconds(Routine::Sort) * 1e3;
    if tr.enabled() {
        out.set("csf.build_ms", build_ms - sort_ms);
        out.set(
            "csf.storage_bytes",
            set.csfs().iter().map(|c| c.storage_bytes() as f64).sum(),
        );
    }
    (set, sort_ms)
}

const KERNEL_NAMES: [[&str; 3]; 2] = [
    ["mttkrp.mode0_ms", "mttkrp.mode1_ms", "mttkrp.mode2_ms"],
    [
        "mttkrp.mode0_ms_1t",
        "mttkrp.mode1_ms_1t",
        "mttkrp.mode2_ms_1t",
    ],
];

#[cfg(test)]
mod tests {
    use super::*;

    /// One perturbed factor entry must fail the fit gate and the MTTKRP
    /// gate, while the unperturbed model passes both.
    #[test]
    fn perturbed_factor_entry_fails_fit_and_mttkrp_gates() {
        let tensor = setup(&TINY, 3);
        let mut run = cp_als(&tensor, &solve_opts(&TINY, 2, 3, false));
        let mut out = Outcome::default();
        check_solve(&mut out, &tensor, &run, "clean");
        assert_eq!(out.failed, 0, "{:?}", out.failures);

        let team = TaskTeam::new(2);
        let set = CsfSet::build(&tensor, CsfAlloc::Two, &team, SortVariant::default());
        let cfg = MttkrpConfig::default();
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let clean = run.model.factors.clone();
        let mut perturbed = clean.clone();
        perturbed[1].as_mut_slice()[0] += 0.5;
        for m in 0..tensor.order() {
            let expect = mttkrp_coo(&tensor, &clean, m);
            let mut got = Matrix::zeros(tensor.dims()[m], TINY.rank);
            mttkrp(&set, &clean, m, &mut got, &mut ws, &team, &cfg);
            assert!(gate::matrix_close(&got, &expect, MTTKRP_REL).is_ok());
            if m != 1 {
                mttkrp(&set, &perturbed, m, &mut got, &mut ws, &team, &cfg);
                assert!(
                    gate::matrix_close(&got, &expect, MTTKRP_REL).is_err(),
                    "mode {m}"
                );
            }
        }

        run.model.factors = perturbed;
        check_solve(&mut out, &tensor, &run, "perturbed");
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn kernel_gate_passes_at_both_task_counts() {
        let tensor = setup(&TINY, 4);
        let run = cp_als(&tensor, &solve_opts(&TINY, 2, 4, false));
        let mut out = Outcome::default();
        let mut tr = Tracer::new(true, Instant::now(), 0);
        check_kernels(&mut out, &TINY, &tensor, &run.model, &mut tr);
        assert_eq!(out.attempted, 6);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.metrics["mttkrp.gflops"] > 0.0);
    }
}
