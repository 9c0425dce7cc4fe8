//! `serve-mix`: a closed loop over two TCP connections to an in-process
//! reactor server.
//!
//! The request mix is about 50% top-k over the largest mode, 45% entry
//! batches, and 5% small slices, with Zipf-skewed keys so the result
//! cache sees repeats. Every answer is compared bit for bit with the
//! `splatt_core::query` answer precomputed during set-up. It bypasses
//! MTTKRP at serve time, CSF, and store.
//!
//! Not listed in `BENCHMARK.json` (see `crate::UNLISTED`); its server
//! helpers also carry the reader of `refresh-stream`.

use crate::gate;
use crate::report::Outcome;
use crate::stats::{median, Zipf};
use crate::trace::Tracer;
use splatt::core::query::{self, QueryArena};
use splatt::net::NetSnapshot;
use splatt::probe::ServeRow;
use splatt::rt::rng::{RngExt, SeedableRng, StdRng};
use splatt::serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestBody, Response,
};
use splatt::serve::{serve_with, FrontEndConfig, ServeConfig, ServeEngine, ServerHandle};
use splatt::tensor::synth::YELP;
use splatt::{cp_als, CpalsOptions, KruskalModel};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct ServeMixConfig {
    /// YELP scale of the training tensor (0.006: 246 x 66 x 450, 48k nnz).
    pub scale: f64,
    pub rank: usize,
    pub train_iters: usize,
    /// Distinct top-k keys (fixed coordinates of modes 0 and 1).
    pub topk_keys: usize,
    /// Distinct slice keys (indices of the largest mode).
    pub slice_keys: usize,
    /// Precomputed entry batches.
    pub entry_batches: usize,
    /// Coordinates per entry request.
    pub entry_batch: usize,
    pub k: u32,
    /// Zipf exponent of key popularity.
    pub zipf_s: f64,
    /// Client connections (closed loop, one request in flight each).
    pub conns: usize,
    /// Fewest requests per connection, even past the time budget.
    pub min_requests: usize,
}

pub const FULL: ServeMixConfig = ServeMixConfig {
    scale: 0.006,
    rank: 35,
    train_iters: 20,
    topk_keys: 4096,
    slice_keys: 64,
    entry_batches: 1024,
    entry_batch: 16,
    k: 10,
    zipf_s: 1.0,
    conns: 2,
    min_requests: 200,
};

/// A size for tests.
#[cfg(test)]
pub const TINY: ServeMixConfig = ServeMixConfig {
    scale: 0.002,
    rank: 8,
    train_iters: 5,
    topk_keys: 64,
    slice_keys: 8,
    entry_batches: 32,
    entry_batch: 4,
    k: 5,
    zipf_s: 1.0,
    conns: 2,
    min_requests: 40,
};

/// Served model name.
pub const MODEL: &str = "yelp";
/// The mode top-k ranks over and slices fix: the largest one.
const MODE: u8 = 2;
/// Client-side socket timeout; an expiry counts as a failed request.
/// Longer than the server's default 5 s deadline plus its 250 ms
/// backstop, so a stuck request surfaces as the server's typed
/// `DeadlineExpired` answer rather than as a client timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Request kinds, in metric-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Entry = 0,
    TopK = 1,
    Slice = 2,
}

pub const KIND_LABELS: [&str; 3] = ["entry", "topk", "slice"];

/// The running server and every precomputed oracle answer.
pub struct Fixture {
    server: Option<ServerHandle>,
    pub model: Arc<KruskalModel>,
    pub topk_keys: Vec<Vec<u32>>,
    pub topk_answers: Vec<Vec<(u32, f64)>>,
    pub slice_keys: Vec<u32>,
    pub slice_answers: Vec<Vec<f64>>,
    pub entry_coords: Vec<Vec<u32>>,
    pub entry_answers: Vec<Vec<f64>>,
}

impl Fixture {
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server running")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            stop_server(s);
        }
    }
}

/// How long [`stop_server`] waits for the drain.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(10);

/// Shut a server down, waiting at most [`SHUTDOWN_WAIT`] for it to drain.
///
/// After a closed-loop run, `ServerHandle::join` occasionally never
/// returns: a lost wakeup in `splatt_rt::sync::RawMutex` leaves the
/// engine's batcher parked (see `METHODOLOGY.md`). A stuck drain is
/// reported on stderr and left to process exit, so it cannot hold the
/// run past its time limit; no measured operation is affected.
pub fn stop_server(server: ServerHandle) {
    server.request_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    if rx.recv_timeout(SHUTDOWN_WAIT).is_err() {
        eprintln!("perfbench: warning: server shutdown did not finish within {SHUTDOWN_WAIT:?}");
    }
}

/// Start an engine with the benchmark's tuning on 2 vCPUs and serve it
/// on a loopback port.
pub fn start_server(model: KruskalModel, name: &str) -> Result<ServerHandle, String> {
    let engine = ServeEngine::start(ServeConfig {
        ntasks: 2,
        ..Default::default()
    });
    engine.publish(name, model);
    serve_with(
        engine,
        "127.0.0.1:0",
        FrontEndConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))
}

/// Train the served model, start the server, and precompute the oracle
/// answer of every key the request stream can draw.
pub fn setup(cfg: &ServeMixConfig, seed: u64) -> Result<Fixture, String> {
    let tensor = YELP.generate(cfg.scale, seed);
    let opts = CpalsOptions {
        rank: cfg.rank,
        max_iters: cfg.train_iters,
        tolerance: 0.0,
        ntasks: 2,
        seed,
        ..Default::default()
    };
    let model = cp_als(&tensor, &opts).model;
    let dims: Vec<u32> = model.factors.iter().map(|f| f.rows() as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E27_E000);
    let mut arena = QueryArena::new();
    let bad = |e: query::QueryError| format!("oracle: {e}");

    let topk_keys: Vec<Vec<u32>> = (0..cfg.topk_keys)
        .map(|_| vec![rng.random_range(0..dims[0]), rng.random_range(0..dims[1])])
        .collect();
    let mut topk_answers = Vec::with_capacity(topk_keys.len());
    for fixed in &topk_keys {
        let mut ans = Vec::new();
        query::top_k(
            &model,
            MODE as usize,
            cfg.k as usize,
            fixed,
            &mut arena,
            &mut ans,
        )
        .map_err(bad)?;
        topk_answers.push(ans);
    }
    let slice_keys: Vec<u32> = (0..cfg.slice_keys)
        .map(|_| rng.random_range(0..dims[MODE as usize]))
        .collect();
    let slice_len = query::slice_len(&model, MODE as usize).map_err(bad)?;
    let mut slice_answers = Vec::with_capacity(slice_keys.len());
    for &index in &slice_keys {
        let mut ans = vec![0.0; slice_len];
        query::slice_values(&model, MODE as usize, index, &mut arena, &mut ans).map_err(bad)?;
        slice_answers.push(ans);
    }
    let entry_coords: Vec<Vec<u32>> = (0..cfg.entry_batches)
        .map(|_| {
            (0..cfg.entry_batch)
                .flat_map(|_| {
                    dims.iter()
                        .map(|&d| rng.random_range(0..d))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .collect();
    let mut entry_answers = Vec::with_capacity(entry_coords.len());
    for coords in &entry_coords {
        let mut ans = vec![0.0; cfg.entry_batch];
        query::entry_values(&model, coords, &mut ans).map_err(bad)?;
        entry_answers.push(ans);
    }
    let model = Arc::new(model);
    let server = start_server((*model).clone(), MODEL)?;
    Ok(Fixture {
        server: Some(server),
        model,
        topk_keys,
        topk_answers,
        slice_keys,
        slice_answers,
        entry_coords,
        entry_answers,
    })
}

/// Client-side cost of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub total_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub resp_bytes: f64,
}

/// Connect with the benchmark's socket options.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// One closed-loop round trip through the public protocol functions,
/// spanned as `request` with encode / wire / decode children.
pub fn roundtrip(
    stream: &mut TcpStream,
    req: &Request,
    tr: &mut Tracer,
    id: u64,
) -> std::io::Result<(Response, Timing)> {
    let span = tr.enter("request", id, None);
    let t0 = Instant::now();
    let enc = tr.enter("protocol.encode_request", id, span);
    let frame = encode_request(req)?;
    tr.exit(enc);
    let t1 = Instant::now();
    let wire = tr.enter("net.roundtrip", id, span);
    write_frame(stream, &frame)?;
    let bytes = read_frame(stream)?;
    tr.exit(wire);
    let t2 = Instant::now();
    let dec = tr.enter("protocol.decode_response", id, span);
    let resp = decode_response(&bytes)?;
    tr.exit(dec);
    let t3 = Instant::now();
    tr.exit(span);
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    Ok((
        resp,
        Timing {
            total_us: us(t0, t3),
            encode_us: us(t0, t1),
            decode_us: us(t2, t3),
            resp_bytes: bytes.len() as f64,
        },
    ))
}

/// Per-connection results.
#[derive(Default)]
struct Lane {
    out: Outcome,
    /// Per kind: timings of correct responses.
    timings: [Vec<Timing>; 3],
}

/// Draw the next request of the seeded stream: (kind, key index).
fn draw(cfg: &ServeMixConfig, rng: &mut StdRng, topk: &Zipf, slice: &Zipf) -> (Kind, usize) {
    let u: f64 = rng.random();
    if u < 0.50 {
        (Kind::TopK, topk.sample(rng))
    } else if u < 0.95 {
        (Kind::Entry, rng.random_range(0..cfg.entry_batches))
    } else {
        (Kind::Slice, slice.sample(rng))
    }
}

fn request_for(cfg: &ServeMixConfig, fx: &Fixture, kind: Kind, key: usize) -> Request {
    let order = fx.model.order() as u8;
    let body = match kind {
        Kind::Entry => RequestBody::Entry {
            order,
            coords: fx.entry_coords[key].clone(),
        },
        Kind::TopK => RequestBody::TopK {
            mode: MODE,
            k: cfg.k,
            fixed: fx.topk_keys[key].clone(),
        },
        Kind::Slice => RequestBody::Slice {
            mode: MODE,
            index: fx.slice_keys[key],
        },
    };
    Request {
        deadline_ms: 0,
        model: MODEL.to_string(),
        version: 0,
        body,
    }
}

/// Compare an answer with its precomputed oracle. Typed server errors
/// are handled by the caller; any other response kind is a mismatch.
fn check_answer(fx: &Fixture, kind: Kind, key: usize, resp: &Response) -> Result<(), String> {
    match (kind, resp) {
        (Kind::Entry, Response::Entries(v)) => gate::bits_equal(v, &fx.entry_answers[key]),
        (Kind::TopK, Response::TopK(v)) => gate::keyed_bits_equal(v, &fx.topk_answers[key]),
        (Kind::Slice, Response::Slice(v)) => gate::bits_equal(v, &fx.slice_answers[key]),
        (_, other) => Err(format!("unexpected response {}", describe(other))),
    }
}

/// A response's debug form, cut short (a slice holds thousands of values).
pub fn describe(resp: &Response) -> String {
    format!("{resp:?}").chars().take(80).collect()
}

/// One connection's closed loop until `budget` has elapsed.
fn client_loop(
    cfg: &ServeMixConfig,
    fx: &Fixture,
    lane_seed: u64,
    budget: Duration,
    tr: &mut Tracer,
) -> Lane {
    let mut lane = Lane::default();
    let mut rng = StdRng::seed_from_u64(lane_seed);
    let topk = Zipf::new(fx.topk_keys.len(), cfg.zipf_s);
    let slice = Zipf::new(fx.slice_keys.len(), cfg.zipf_s);
    let mut stream = match connect(fx.addr()) {
        Ok(s) => Some(s),
        Err(e) => {
            lane.out.error("connect", e.to_string());
            None
        }
    };
    let started = Instant::now();
    let mut n = 0u64;
    while (n as usize) < cfg.min_requests || started.elapsed() < budget {
        let (kind, key) = draw(cfg, &mut rng, &topk, &slice);
        let req = request_for(cfg, fx, kind, key);
        // request ids are per lane; the lane is the connection
        let id = n;
        n += 1;
        let Some(s) = stream.as_mut() else {
            // reconnect after a transport failure; the request counts as failed
            lane.out.error("reconnect", "no connection".into());
            stream = connect(fx.addr()).ok();
            continue;
        };
        let label = KIND_LABELS[kind as usize];
        match roundtrip(s, &req, tr, id) {
            Ok((Response::Error(code, msg), _)) => {
                lane.out
                    .error(label, format!("server error {code:?}: {msg}"));
            }
            Ok((resp, timing)) => {
                let ok = tr.wrap("oracle.compare", id, None, || {
                    check_answer(fx, kind, key, &resp)
                });
                if lane.out.check(label, ok) {
                    lane.timings[kind as usize].push(timing);
                }
            }
            Err(e) => {
                lane.out.error(label, format!("transport: {e}"));
                stream = None;
            }
        }
    }
    lane
}

/// Engine histograms and front-end counters at one instant.
pub struct ServerSnap {
    serve: ServeRow,
    net: NetSnapshot,
}

impl ServerSnap {
    pub fn of(server: &ServerHandle) -> ServerSnap {
        ServerSnap {
            serve: server
                .engine()
                .profile_report()
                .serve
                .expect("engine report carries serve"),
            net: server.net_counters().expect("reactor front end"),
        }
    }
}

/// p50 of the requests of `kind` answered between two snapshots.
/// `ServeStats` keeps log2 buckets; the p50 is interpolated linearly
/// inside its bucket, so it reads below the bucket's upper bound.
pub fn engine_p50(a: &ServerSnap, b: &ServerSnap, kind: &str) -> f64 {
    let buckets = |r: &ServeRow| {
        r.kinds
            .iter()
            .find(|k| k.kind == kind)
            .map(|k| k.buckets.clone())
            .unwrap_or_default()
    };
    let (ba, bb) = (buckets(&a.serve), buckets(&b.serve));
    let diff: Vec<u64> = (0..bb.len())
        .map(|i| bb[i] - ba.get(i).copied().unwrap_or(0))
        .collect();
    let total: u64 = diff.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (total as f64 * 0.5).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in diff.iter().enumerate() {
        if seen + c >= target {
            let hi = (1u64 << (i + 1).min(63)) as f64;
            let lo = if i == 0 { 0.0 } else { hi / 2.0 };
            return lo + (target - seen) as f64 / c as f64 * (hi - lo);
        }
        seen += c;
    }
    0.0
}

/// The engine, cache and front-end metrics of the requests answered
/// between two snapshots. `engine_us` is the engine-side p50 of those
/// requests and `client_p50_us` their client round-trip p50; what the
/// engine does not account for is the front end's share.
pub fn server_layer_metrics(
    out: &mut Outcome,
    a: &ServerSnap,
    b: &ServerSnap,
    engine_us: f64,
    client_p50_us: f64,
) {
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let (sa, sb) = (&a.serve, &b.serve);
    out.set(
        "engine.batch_mean",
        ratio(
            sb.batched_requests - sa.batched_requests,
            sb.batches - sa.batches,
        ),
    );
    let hits = sb.cache_hits - sa.cache_hits;
    out.set(
        "cache.hit_ratio",
        ratio(hits, hits + sb.cache_misses - sa.cache_misses),
    );
    out.set("engine.sheds", (sb.sheds - sa.sheds) as f64);
    out.set(
        "engine.deadline_rejections",
        (sb.deadline_rejections - sa.deadline_rejections) as f64,
    );
    out.set("net.front_share", 1.0 - engine_us / client_p50_us);
    let (na, nb) = (&a.net, &b.net);
    let frames = (nb.frames_read - na.frames_read).max(1);
    out.set("net.polls_per_req", ratio(nb.polls - na.polls, frames));
    out.set(
        "net.wakeups_per_req",
        ratio(nb.readiness_wakeups - na.readiness_wakeups, frames),
    );
    out.set(
        "net.coalesced_write_ratio",
        ratio(
            nb.coalesced_writes - na.coalesced_writes,
            nb.writes - na.writes,
        ),
    );
    out.set(
        "net.sheds_accept",
        (nb.sheds_accept - na.sheds_accept) as f64,
    );
    out.set(
        "net.sheds_decode",
        (nb.sheds_decode - na.sheds_decode) as f64,
    );
}

/// Client-side protocol costs of top-k round trips: medians of the
/// encode and decode times and of the response size.
pub fn topk_protocol_metrics<'a>(out: &mut Outcome, timings: impl Iterator<Item = &'a Timing>) {
    let timings: Vec<&Timing> = timings.collect();
    if timings.is_empty() {
        return;
    }
    let pick =
        |f: fn(&Timing) -> f64| median(&mut timings.iter().map(|t| f(t)).collect::<Vec<_>>());
    out.set("protocol.encode_us.topk", pick(|t| t.encode_us));
    out.set("protocol.decode_us.topk", pick(|t| t.decode_us));
    out.set("protocol.resp_bytes.topk", pick(|t| t.resp_bytes));
}

/// Run `conns` client loops for `seconds`; the per-connection lanes are
/// returned with their tracers.
fn load_phase(
    cfg: &ServeMixConfig,
    fx: &Fixture,
    seed: u64,
    phase: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Vec<(Lane, Tracer)> {
    let budget = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let lane_seed =
                    seed ^ ((phase * 16 + c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, 1 + c as u32);
                    let lane = client_loop(cfg, fx, lane_seed, budget, &mut tr);
                    (lane, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Round-trip times of the correctly answered requests.
fn round_trips_us(lanes: &[(Lane, Tracer)]) -> Vec<f64> {
    lanes
        .iter()
        .flat_map(|(lane, _)| lane.timings.iter().flatten().map(|t| t.total_us))
        .collect()
}

/// Run the workload. Both modes first warm the result cache with
/// `min_requests` requests per connection (checked and counted, not
/// timed). The traced run then measures a plain, a traced and a plain
/// window (a quarter, a half and a quarter of its time), so cache state
/// and host drift fall on both sides of `trace.overhead_ratio`; its
/// per-layer numbers come from the traced window.
pub fn run(
    cfg: &ServeMixConfig,
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    epoch: Instant,
) -> (Outcome, Vec<Tracer>) {
    let traced = tr.enabled();
    let mut out = Outcome::default();
    for (lane, _) in load_phase(cfg, fx, seed, 0, 0.0, false, epoch) {
        out.absorb(lane.out);
    }
    let mut plain_us = Vec::new();
    let mut plain_window = |out: &mut Outcome, phase: u64| {
        let lanes = load_phase(cfg, fx, seed, phase, seconds / 4.0, false, epoch);
        plain_us.extend(round_trips_us(&lanes));
        for (lane, _) in lanes {
            out.absorb(lane.out);
        }
    };
    if traced {
        plain_window(&mut out, 1);
    }
    let before = ServerSnap::of(fx.server());
    let lanes = load_phase(
        cfg,
        fx,
        seed,
        2,
        if traced { seconds / 2.0 } else { seconds },
        traced,
        epoch,
    );
    let after = ServerSnap::of(fx.server());
    if traced {
        plain_window(&mut out, 3);
    }
    let p50 = median(&mut round_trips_us(&lanes));
    out.set("latency_p50_ms", p50 / 1e3);
    if traced {
        out.set("trace.overhead_ratio", p50 / median(&mut plain_us));
        set_layer_metrics(&mut out, cfg, fx, &lanes, &before, &after, p50);
    }
    let mut tracers = Vec::with_capacity(lanes.len());
    for (lane, lane_tr) in lanes {
        out.absorb(lane.out);
        tracers.push(lane_tr);
    }
    (out, tracers)
}

/// Per-layer metrics of the traced window. Only the top-k side of the
/// request mix is reported, the side `refresh-stream` measures too; the
/// engine time behind `net.front_share` is weighted over the whole mix.
fn set_layer_metrics(
    out: &mut Outcome,
    cfg: &ServeMixConfig,
    fx: &Fixture,
    lanes: &[(Lane, Tracer)],
    before: &ServerSnap,
    after: &ServerSnap,
    p50: f64,
) {
    let mut counts = [0usize; 3];
    for (lane, _) in lanes {
        for (n, timings) in counts.iter_mut().zip(&lane.timings) {
            *n += timings.len();
        }
    }
    let answered = counts.iter().sum::<usize>().max(1) as f64;
    let engine_us: f64 = (0..3)
        .map(|k| counts[k] as f64 / answered * engine_p50(before, after, KIND_LABELS[k]))
        .sum();
    out.set("engine.topk_p50_us", engine_p50(before, after, "topk"));
    topk_protocol_metrics(
        out,
        lanes
            .iter()
            .flat_map(|(lane, _)| &lane.timings[Kind::TopK as usize]),
    );
    server_layer_metrics(out, before, after, engine_us, p50);
    out.set("query.topk_us", topk_kernel_us(cfg, fx));
}

/// Median time of direct `query::top_k` calls on the served model over
/// the workload's own keys, outside the server: the compute floor under
/// a top-k request.
fn topk_kernel_us(cfg: &ServeMixConfig, fx: &Fixture) -> f64 {
    const SAMPLES: usize = 200;
    let mut arena = QueryArena::new();
    let mut ranked = Vec::new();
    let mut v: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            ranked.clear();
            let fixed = &fx.topk_keys[i % fx.topk_keys.len()];
            let t0 = Instant::now();
            query::top_k(
                &fx.model,
                MODE as usize,
                cfg.k as usize,
                fixed,
                &mut arena,
                &mut ranked,
            )
            .expect("precomputed keys are valid");
            std::hint::black_box(&ranked);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    /// A live answer of each kind matches its precomputed oracle, and
    /// stops matching once one bit of the expected answer is flipped.
    #[test]
    fn one_flipped_expected_bit_fails_each_answer_gate() {
        let mut fx = setup(&TINY, 5).unwrap();
        let mut stream = connect(fx.addr()).unwrap();
        let mut tr = Tracer::new(false, Instant::now(), 0);
        for kind in [Kind::Entry, Kind::TopK, Kind::Slice] {
            let req = request_for(&TINY, &fx, kind, 0);
            let (resp, _) = roundtrip(&mut stream, &req, &mut tr, 0).unwrap();
            assert!(check_answer(&fx, kind, 0, &resp).is_ok(), "{kind:?}");
            match kind {
                Kind::Entry => flip(&mut fx.entry_answers[0][0]),
                Kind::TopK => flip(&mut fx.topk_answers[0][0].1),
                Kind::Slice => flip(&mut fx.slice_answers[0][0]),
            }
            assert!(check_answer(&fx, kind, 0, &resp).is_err(), "{kind:?}");
        }
    }

    /// The closed loop counts a corrupted oracle answer as failed
    /// requests, and a clean one as none.
    #[test]
    fn closed_loop_counts_oracle_mismatches_as_failures() {
        let mut fx = setup(&TINY, 6).unwrap();
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let clean = client_loop(&TINY, &fx, 9, Duration::ZERO, &mut tr);
        assert_eq!(clean.out.failed, 0, "{:?}", clean.out.failures);
        // the most popular top-k key is drawn many times in 40 requests
        flip(&mut fx.topk_answers[0][0].1);
        let bad = client_loop(&TINY, &fx, 9, Duration::ZERO, &mut tr);
        assert!(bad.out.failed > 0);
        assert_eq!(bad.out.attempted, clean.out.attempted);
    }
}
