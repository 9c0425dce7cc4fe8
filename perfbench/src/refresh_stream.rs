//! `refresh-stream`: ingest → refresh → republish while a reader queries.
//!
//! Set-up builds a store from a YELP-shaped base tensor minus a 20%
//! holdout and primes it with one cold refresh round. The rest of the
//! holdout then streams in equal rounds: each round group-commits its
//! deltas to the WAL in 256-entry batches, runs one warm-started
//! `RefreshEngine::refresh_once`, and republishes the model into a live
//! served registry. One reader connection runs a closed loop of top-k
//! queries against the newest version throughout. The only workload
//! through `splatt-store`, `SparseTensor::merge_entries`, and refresh,
//! and the listed one through the served path: `protocol`, `splatt-net`,
//! the engine, its cache, and `query::top_k`.

use crate::cpd;
use crate::gate;
use crate::report::Outcome;
use crate::serve_mix::{
    connect, describe, engine_p50, roundtrip, server_layer_metrics, start_server, stop_server,
    topk_protocol_metrics, ServerSnap, Timing,
};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use splatt::core::query::{self, QueryArena};
use splatt::core::refresh::{RefreshEngine, RefreshOptions};
use splatt::par::TaskTeam;
use splatt::probe::RefreshRow;
use splatt::rt::rng::{RngExt, SeedableRng, StdRng};
use splatt::serve::protocol::{Request, RequestBody, Response};
use splatt::serve::{ServeEngine, ServerHandle};
use splatt::store::{encode_delta, Manifest, Wal, WalOptions};
use splatt::tensor::synth::YELP;
use splatt::{CpalsOptions, SparseTensor};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// YELP scale of the full tensor before the holdout split.
    pub scale: f64,
    /// Fraction of nonzeros held out and streamed.
    pub holdout: f64,
    /// Equal rounds the holdout streams in; round 0 primes the store
    /// during set-up, the rest are measured.
    pub rounds: usize,
    /// Delta entries per WAL record.
    pub batch: usize,
    pub rank: usize,
    pub max_iters: usize,
    pub tolerance: f64,
    /// Reader top-k size.
    pub k: u32,
}

pub const FULL: RefreshConfig = RefreshConfig {
    scale: 0.04,
    holdout: 0.2,
    rounds: 160,
    batch: 256,
    rank: 16,
    max_iters: 50,
    tolerance: 1e-4,
    k: 10,
};

/// A size for tests.
#[cfg(test)]
pub const TINY: RefreshConfig = RefreshConfig {
    scale: 0.004,
    holdout: 0.2,
    rounds: 4,
    batch: 256,
    rank: 4,
    max_iters: 20,
    tolerance: 1e-4,
    k: 5,
};

/// Refit tasks: the `CpalsOptions` default. The refit shares the 2 vCPUs
/// with the serving front end and its reader.
const REFIT_TASKS: usize = 1;

/// Reader think time after each answer. A reader that sends its next
/// request at once keeps a vCPU's worth of front-end, engine and client
/// threads runnable beside the refit: on 2 vCPUs that added ~80 ms to
/// a ~120 ms round and made rounds swing from 100 to 400 ms.
const READ_PAUSE: Duration = Duration::from_millis(5);

/// Served model name.
const MODEL: &str = "live";
/// The mode reader top-k ranks over: the largest one.
const MODE: u8 = 2;

type Entries = Vec<(Vec<u32>, f64)>;

/// A primed store, its live server, and the oracle final tensor.
pub struct Fixture {
    dir: PathBuf,
    engine: RefreshEngine,
    wal: Wal,
    server: Option<ServerHandle>,
    dims: Vec<usize>,
    /// Measured rounds' deltas (round 0 was applied during set-up).
    rounds: Vec<Entries>,
    /// `canonical_entries` of a one-shot merge of the base with every delta.
    oracle: Entries,
    /// Registry version of the primed model.
    version: u64,
    seed: u64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            stop_server(s);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn refresh_opts(cfg: &RefreshConfig, seed: u64) -> RefreshOptions {
    RefreshOptions {
        cpals: CpalsOptions {
            rank: cfg.rank,
            max_iters: cfg.max_iters,
            tolerance: cfg.tolerance,
            ntasks: REFIT_TASKS,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Group-commit `entries` in `batch`-entry records; the append + commit
/// time of each record in microseconds.
fn commit_round(
    wal: &mut Wal,
    entries: &[(Vec<u32>, f64)],
    batch: usize,
    order: usize,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(entries.len().div_ceil(batch));
    for chunk in entries.chunks(batch) {
        let payload = encode_delta(order, chunk);
        let t0 = Instant::now();
        wal.append(&payload).map_err(|e| format!("append: {e}"))?;
        wal.commit().map_err(|e| format!("commit: {e}"))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(times)
}

/// Build the store, prime it with round 0, serve the primed model, and
/// precompute the final tensor a one-shot merge gives.
pub fn setup(cfg: &RefreshConfig, seed: u64, dir: &Path) -> Result<Fixture, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let tensor = YELP.generate(cfg.scale, seed);
    let (mut base, holdout) = tensor.split_holdout(cfg.holdout, seed);
    base.coalesce();
    let deltas: Entries = (0..holdout.nnz())
        .map(|x| (holdout.coord(x), holdout.vals()[x]))
        .collect();
    let per_round = deltas.len().div_ceil(cfg.rounds).max(1);
    let mut rounds: Vec<Entries> = deltas.chunks(per_round).map(<[_]>::to_vec).collect();
    let mut oracle = base.clone();
    oracle.merge_entries(&deltas);
    let oracle = oracle.canonical_entries();

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io("store dir"))?;
    let order = base.order();
    let mut manifest = Manifest::default();
    manifest.set("order", &order.to_string());
    manifest
        .publish(dir, None)
        .map_err(|e| format!("manifest: {e}"))?;
    let dims = base.dims().to_vec();
    let (mut wal, _) =
        Wal::open(dir, WalOptions::default()).map_err(|e| format!("wal open: {e}"))?;
    let mut engine = RefreshEngine::open(dir, Some(base), refresh_opts(cfg, seed))
        .map_err(|e| format!("open: {e}"))?;
    let prime = rounds.remove(0);
    commit_round(&mut wal, &prime, cfg.batch, order)?;
    let primed = engine
        .refresh_once()
        .map_err(|e| format!("priming refresh: {e}"))?
        .ok_or("priming refresh found no deltas")?;
    let model = splatt::core::load_model_path(&primed.model_path).map_err(io("primed model"))?;
    let server = start_server(model, MODEL)?;
    let version = server
        .engine()
        .registry()
        .list()
        .iter()
        .find(|m| m.name == MODEL)
        .map_or(0, |m| m.version);
    Ok(Fixture {
        dir: dir.to_path_buf(),
        engine,
        wal,
        server: Some(server),
        dims,
        rounds,
        oracle,
        version,
        seed,
    })
}

/// What the reader needs of the fixture.
struct Target {
    engine: Arc<ServeEngine>,
    addr: SocketAddr,
    dims: Vec<usize>,
    seed: u64,
}

/// Reader results.
#[derive(Default)]
struct ReadLane {
    out: Outcome,
    /// Round trips answered correctly.
    timings: Vec<Timing>,
    /// The oracle's own `query::top_k` calls.
    kernel_us: Vec<f64>,
}

/// One connection's closed loop of top-k reads against the newest
/// published version, with [`READ_PAUSE`] between an answer and the next
/// request, each checked against `query::top_k` on the version it
/// requested, until `stop` is raised.
fn reader(
    cfg: &RefreshConfig,
    target: &Target,
    latest: &AtomicU64,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> ReadLane {
    let mut lane = ReadLane::default();
    let registry = target.engine.registry();
    let mut rng = StdRng::seed_from_u64(target.seed ^ 0x7EAD_E700);
    let mut arena = QueryArena::new();
    let mut expect = Vec::new();
    let mut stream = connect(target.addr)
        .map_err(|e| lane.out.error("connect", e.to_string()))
        .ok();
    let mut id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        if id > 0 {
            std::thread::sleep(READ_PAUSE);
        }
        id += 1;
        let version = latest.load(Ordering::SeqCst);
        let fixed = vec![
            rng.random_range(0..target.dims[0] as u32),
            rng.random_range(0..target.dims[1] as u32),
        ];
        let req = Request {
            deadline_ms: 0,
            model: MODEL.to_string(),
            version,
            body: RequestBody::TopK {
                mode: MODE,
                k: cfg.k,
                fixed: fixed.clone(),
            },
        };
        let Some(s) = stream.as_mut() else {
            lane.out.error("reconnect", "no connection".into());
            stream = connect(target.addr).ok();
            continue;
        };
        match roundtrip(s, &req, tr, id) {
            Ok((Response::TopK(got), t)) => {
                let check = tr.wrap("oracle.top_k", id, None, || {
                    let model = registry
                        .get(MODEL, version)
                        .ok_or_else(|| format!("version {version} evicted"))?;
                    expect.clear();
                    let t0 = Instant::now();
                    query::top_k(
                        &model.model,
                        MODE as usize,
                        cfg.k as usize,
                        &fixed,
                        &mut arena,
                        &mut expect,
                    )
                    .map_err(|e| e.to_string())?;
                    lane.kernel_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    gate::keyed_bits_equal(&got, &expect)
                });
                if lane.out.check("read", check) {
                    lane.timings.push(t);
                }
            }
            Ok((Response::Error(code, msg), _)) => lane
                .out
                .error("read", format!("server error {code:?}: {msg}")),
            Ok((other, _)) => {
                lane.out.check(
                    "read",
                    Err(format!("unexpected response {}", describe(&other))),
                );
            }
            Err(e) => {
                stream = None;
                lane.out.error("read", format!("transport: {e}"));
            }
        }
    }
    lane
}

/// Per-round measurements.
struct Round {
    lag_ms: f64,
    publish_path_ms: f64,
    row_delta: RefreshRow,
    recover_ms: f64,
    traced: bool,
}

fn row_delta(a: &RefreshRow, b: &RefreshRow) -> RefreshRow {
    RefreshRow {
        rounds: b.rounds - a.rounds,
        deltas_applied: b.deltas_applied - a.deltas_applied,
        entries_merged: b.entries_merged - a.entries_merged,
        merge_compare_ops: b.merge_compare_ops - a.merge_compare_ops,
        merge_ns: b.merge_ns - a.merge_ns,
        sorts_skipped: b.sorts_skipped - a.sorts_skipped,
        refit_iterations: b.refit_iterations - a.refit_iterations,
        warm_fit: b.warm_fit,
        warm_fit_gap: b.warm_fit_gap,
        publish_ns: b.publish_ns - a.publish_ns,
        watermark: b.watermark,
    }
}

/// Stream the measured rounds, then check the final store against the
/// oracle. The stream is fixed work (the whole holdout), sized to take
/// about the benchmark's run time on the reference host; the reader runs
/// exactly while rounds do. The traced run spans every other round, so
/// traced and plain rounds give the tracing overhead, and times an extra
/// `Wal::recover` after each round, outside its lag.
pub fn run(
    cfg: &RefreshConfig,
    mut fx: Fixture,
    tr: &mut Tracer,
    epoch: Instant,
) -> Result<(Outcome, Vec<Tracer>), String> {
    let traced = tr.enabled();
    let mut out = Outcome::default();
    let latest = AtomicU64::new(fx.version);
    let stop = AtomicBool::new(false);
    let order = fx.dims.len();
    let mut rounds: Vec<Round> = Vec::new();
    let mut commit_us: Vec<f64> = Vec::new();
    let mut committed_entries = 0usize;
    // store counters are process-wide: diff them around the commits only
    let (mut commits, mut fsyncs) = (0u64, 0u64);
    let sorts_before = splatt::tensor::sort::sorts_skipped();
    let round_deltas = std::mem::take(&mut fx.rounds);
    let server = fx.server.as_ref().expect("server running");
    let target = Target {
        engine: Arc::clone(server.engine()),
        addr: server.addr(),
        dims: fx.dims.clone(),
        seed: fx.seed,
    };
    // set when a failed commit, refresh or publish ends the stream:
    // later rounds would only repeat that one fault
    let mut cut = false;
    let server_before = ServerSnap::of(server);
    let (read_lane, read_tr) = std::thread::scope(|s| {
        let (latest, stop, target) = (&latest, &stop, &target);
        let reader_handle = s.spawn(move || {
            let mut rtr = Tracer::new(traced, epoch, 1);
            let lane = reader(cfg, target, latest, stop, &mut rtr);
            (lane, rtr)
        });
        // the writer: the rest of this scope runs on the calling thread
        let mut expected_version = fx.version;
        for (i, deltas) in round_deltas.iter().enumerate() {
            let id = i as u64 + 1;
            let spanned = traced && i % 2 == 1;
            let mut rtr = Tracer::new(spanned, epoch, 0);
            let round_span = rtr.enter("refresh.round", id, None);
            let commit_span = rtr.enter("store.commit_round", id, round_span);
            let store_before = splatt::store::counters_snapshot();
            let committed = commit_round(&mut fx.wal, deltas, cfg.batch, order);
            let store_after = splatt::store::counters_snapshot();
            rtr.exit(commit_span);
            commits += store_after.wal_commits - store_before.wal_commits;
            fsyncs += store_after.fsyncs - store_before.fsyncs;
            let acked = Instant::now();
            match committed {
                Ok(times) => {
                    out.attempted += times.len() as u64;
                    commit_us.extend(times);
                    committed_entries += deltas.len();
                }
                Err(e) => {
                    out.error("commit", e);
                    cut = true;
                    break;
                }
            }
            let before = fx.engine.refresh_row();
            let refreshed = rtr.wrap("refresh.refresh_once", id, round_span, || {
                fx.engine.refresh_once()
            });
            let outcome = match refreshed {
                Ok(Some(o)) => o,
                Ok(None) => {
                    out.check("refresh", Err(format!("round {id}: no pending deltas")));
                    cut = true;
                    break;
                }
                Err(e) => {
                    out.error("refresh", format!("round {id}: {e}"));
                    cut = true;
                    break;
                }
            };
            let registry = target.engine.registry();
            let t_pub = Instant::now();
            let published = rtr.wrap("registry.publish_path", id, round_span, || {
                registry.publish_path(MODEL, &outcome.model_path)
            });
            let visible = Instant::now();
            rtr.exit(round_span);
            let published = match published {
                Ok(v) => v,
                Err(e) => {
                    out.error("publish", format!("round {id}: publish_path: {e}"));
                    cut = true;
                    break;
                }
            };
            let ok = if published == expected_version + 1 {
                Ok(())
            } else {
                Err(format!(
                    "round {id}: published version {published}, expected {}",
                    expected_version + 1
                ))
            }
            .and_then(|()| {
                if outcome.entries as usize == deltas.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "round {id}: merged {} entries, committed {}",
                        outcome.entries,
                        deltas.len()
                    ))
                }
            });
            // follow the registry, so one wrong version fails one round
            expected_version = published;
            if !out.check("refresh round", ok) {
                continue;
            }
            latest.store(expected_version, Ordering::SeqCst);
            let recover_ms = if traced {
                let t0 = Instant::now();
                let rec = rtr.wrap("store.recover", id, None, || Wal::recover(&fx.dir, None));
                if let Err(e) = rec {
                    out.error("wal recover", e.to_string());
                }
                t0.elapsed().as_secs_f64() * 1e3
            } else {
                0.0
            };
            rounds.push(Round {
                lag_ms: (visible - acked).as_secs_f64() * 1e3,
                publish_path_ms: (visible - t_pub).as_secs_f64() * 1e3,
                row_delta: row_delta(&before, &fx.engine.refresh_row()),
                recover_ms,
                traced: spanned,
            });
            tr.absorb(rtr);
        }
        stop.store(true, Ordering::SeqCst);
        reader_handle.join().expect("reader thread panicked")
    });
    let sorts_skipped = splatt::tensor::sort::sorts_skipped() - sorts_before;
    let server_after = ServerSnap::of(server);

    // final-state gates; a stream cut short by a counted failure has no
    // final state to compare
    if !cut {
        let records: u64 = fx.wal.next_seq();
        out.check(
            "watermark",
            if fx.engine.watermark() == records {
                Ok(())
            } else {
                Err(format!(
                    "watermark {} != {records} committed records",
                    fx.engine.watermark()
                ))
            },
        );
        let got = tr.wrap("oracle.canonical_entries", 0, None, || {
            fx.engine.tensor().canonical_entries()
        });
        out.check("final tensor", gate::keyed_bits_equal(&got, &fx.oracle));
    }
    let ReadLane {
        out: read_out,
        timings: read_timings,
        kernel_us: mut read_kernel_us,
    } = read_lane;
    out.absorb(read_out);
    let mut read_us: Vec<f64> = read_timings.iter().map(|t| t.total_us).collect();
    if rounds.is_empty() || read_us.is_empty() || commit_us.is_empty() {
        return Err(format!(
            "nothing measured: {} rounds, {} reads, {} commits",
            rounds.len(),
            read_us.len(),
            commit_us.len()
        ));
    }

    let lags: Vec<f64> = rounds.iter().map(|r| r.lag_ms).collect();
    let lag_ms = median(&mut lags.clone());
    let ingest = committed_entries as f64 / (commit_us.iter().sum::<f64>() / 1e6);
    out.set("latency_p50_ms", lag_ms);
    if traced {
        let by = |f: &dyn Fn(&Round) -> f64| -> f64 {
            let mut v: Vec<f64> = rounds.iter().map(f).collect();
            median(&mut v)
        };
        out.set("refresh.lag_ms", lag_ms);
        out.set("ingest.rows_per_s", ingest);
        let read_p50 = median(&mut read_us);
        out.set("refresh.read_p50_us", read_p50);
        out.set("refresh.read_p99_us", quantile(&mut read_us, 0.99));
        let engine_us = engine_p50(&server_before, &server_after, "topk");
        out.set("engine.topk_p50_us", engine_us);
        topk_protocol_metrics(&mut out, read_timings.iter());
        server_layer_metrics(&mut out, &server_before, &server_after, engine_us, read_p50);
        out.set("query.topk_us", median(&mut read_kernel_us));
        out.set("wal.commit_us", median(&mut commit_us));
        out.set(
            "store.fsyncs_per_commit",
            fsyncs as f64 / commits.max(1) as f64,
        );
        out.set("wal.recover_ms", by(&|r| r.recover_ms));
        out.set("wal.bytes", wal_bytes(&fx.dir));
        out.set(
            "refresh.merge_ms",
            by(&|r| r.row_delta.merge_ns as f64 / 1e6),
        );
        out.set(
            "refresh.publish_ms",
            by(&|r| r.row_delta.publish_ns as f64 / 1e6),
        );
        out.set(
            "refresh.refit_iters",
            by(&|r| r.row_delta.refit_iterations as f64),
        );
        out.set("registry.publish_path_ms", by(&|r| r.publish_path_ms));
        out.set(
            "refresh.unattributed_ms",
            by(&|r| {
                r.lag_ms
                    - (r.row_delta.merge_ns + r.row_delta.publish_ns) as f64 / 1e6
                    - r.publish_path_ms
            }),
        );
        let q = (lags.len() / 4).max(1);
        out.set(
            "refresh.lag_growth",
            mean(&lags[lags.len() - q..]) / mean(&lags[..q]),
        );
        let entries: u64 = rounds.iter().map(|r| r.row_delta.entries_merged).sum();
        let compares: u64 = rounds.iter().map(|r| r.row_delta.merge_compare_ops).sum();
        out.set(
            "tensor.merge_compare_ops_per_entry",
            compares as f64 / entries.max(1) as f64,
        );
        out.set("tensor.sorts_skipped", sorts_skipped as f64);
        let split = |t: bool| -> Vec<f64> {
            rounds
                .iter()
                .filter(|r| r.traced == t)
                .map(|r| r.lag_ms)
                .collect()
        };
        let (spanned, plain) = (split(true), split(false));
        if !spanned.is_empty() && !plain.is_empty() {
            out.set("trace.overhead_ratio", mean(&spanned) / mean(&plain));
        }
        rebuild_metrics(&mut out, fx.engine.tensor(), tr);
    }
    Ok((out, vec![read_tr]))
}

/// Sort and CSF-assembly cost of rebuilding the final resident tensor,
/// the rebuild every refit pays (on the refit's task count).
fn rebuild_metrics(out: &mut Outcome, tensor: &SparseTensor, tr: &mut Tracer) {
    let (_, sort_ms) = cpd::csf_metrics(out, tensor, &TaskTeam::new(REFIT_TASKS), tr);
    out.set("tensor.sort_ms", sort_ms);
}

/// Bytes in the store's WAL segments.
fn wal_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-refresh-{tag}-{}", std::process::id()))
    }

    /// One flipped bit in the one-shot-merge oracle fails exactly the
    /// final-tensor gate; the clean stream passes every gate.
    #[test]
    fn one_flipped_oracle_bit_fails_the_final_tensor_gate() {
        let epoch = Instant::now();
        let fx = setup(&TINY, 4, &dir("clean")).unwrap();
        let (clean, _) = run(&TINY, fx, &mut Tracer::new(false, epoch, 0), epoch).unwrap();
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);

        let mut fx = setup(&TINY, 4, &dir("flipped")).unwrap();
        let v = &mut fx.oracle[0].1;
        *v = f64::from_bits(v.to_bits() ^ 1);
        let (bad, _) = run(&TINY, fx, &mut Tracer::new(false, epoch, 0), epoch).unwrap();
        assert_eq!(bad.failed, 1, "{:?}", bad.failures);
        assert!(bad.failures[0].starts_with("final tensor"));
    }
}
