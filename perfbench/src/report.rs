//! Metric catalogue, per-run outcome, and the one-line JSON result.
//!
//! The catalogue mirrors `BENCHMARK.json`: every run prints every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run). The end-to-end metrics are defined for every workload; the
//! per-layer metrics name one layer each and read 0 on a workload that
//! never calls into that layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("latency_p50_ms", "ms")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 58] = [
    // workload-specific headline numbers, from the traced run
    ("cpd.solve_s", "s"),
    ("cpd.solve_s_1t", "s"),
    ("ingest.rows_per_s", "entries/s"),
    ("refresh.lag_ms", "ms"),
    ("refresh.read_p50_us", "us"),
    ("refresh.read_p99_us", "us"),
    // splatt-tensor
    ("tensor.sort_ms", "ms"),
    ("tensor.merge_compare_ops_per_entry", "ops/entry"),
    ("tensor.sorts_skipped", "count"),
    // splatt-core::csf
    ("csf.build_ms", "ms"),
    ("csf.storage_bytes", "bytes"),
    // splatt-core::mttkrp
    ("mttkrp.mode0_ms", "ms"),
    ("mttkrp.mode1_ms", "ms"),
    ("mttkrp.mode2_ms", "ms"),
    ("mttkrp.mode0_ms_1t", "ms"),
    ("mttkrp.mode1_ms_1t", "ms"),
    ("mttkrp.mode2_ms_1t", "ms"),
    ("mttkrp.ms_per_iter", "ms"),
    ("mttkrp.flops", "flop"),
    ("mttkrp.bytes_computed", "bytes"),
    ("mttkrp.gflops", "GFLOP/s"),
    ("mttkrp.flops_per_byte", "flop/B"),
    // splatt-par / splatt-locks
    ("par.speedup_2t", "ratio"),
    ("par.task_busy_max_over_mean", "ratio"),
    ("mttkrp.replica_reduce_bytes", "bytes"),
    ("locks.acquisitions", "count"),
    // splatt-dense
    ("dense.ata_ms_per_iter", "ms"),
    ("dense.inverse_ms_per_iter", "ms"),
    ("dense.norm_ms_per_iter", "ms"),
    // splatt-core::cpals
    ("cpals.fit_ms_per_iter", "ms"),
    ("cpals.driver_ms", "ms"),
    ("cpals.coverage", "ratio"),
    // splatt-core::query
    ("query.topk_us", "us"),
    // splatt-serve::protocol
    ("protocol.encode_us.topk", "us"),
    ("protocol.decode_us.topk", "us"),
    ("protocol.resp_bytes.topk", "bytes"),
    // splatt-serve::engine / cache
    ("engine.topk_p50_us", "us"),
    ("engine.batch_mean", "requests"),
    ("cache.hit_ratio", "ratio"),
    ("engine.sheds", "count"),
    ("engine.deadline_rejections", "count"),
    // splatt-net
    ("net.front_share", "ratio"),
    ("net.polls_per_req", "ratio"),
    ("net.wakeups_per_req", "ratio"),
    ("net.coalesced_write_ratio", "ratio"),
    ("net.sheds_accept", "count"),
    ("net.sheds_decode", "count"),
    // splatt-store
    ("wal.commit_us", "us"),
    ("store.fsyncs_per_commit", "ratio"),
    ("wal.recover_ms", "ms"),
    ("wal.bytes", "bytes"),
    // splatt-core::refresh / splatt-serve::registry
    ("refresh.merge_ms", "ms"),
    ("refresh.publish_ms", "ms"),
    ("refresh.refit_iters", "count"),
    ("registry.publish_path_ms", "ms"),
    ("refresh.unattributed_ms", "ms"),
    ("refresh.lag_growth", "ratio"),
    // the benchmark itself
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run measured and checked.
///
/// Two kinds of failed operation are kept apart. A *mismatch* is an
/// output that disagrees with its oracle (or a final-state gate that
/// fails): it makes the run incorrect. An *error* is an operation that
/// produced no output (transport failure, timeout, typed shed or
/// deadline answer): it counts as failed but says nothing about the
/// correctness of the outputs that did come back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (solves, requests, commits, rounds, gates).
    pub attempted: u64,
    /// Operations that errored, timed out, were shed, or mismatched
    /// their oracle.
    pub failed: u64,
    /// Outputs that mismatched their oracle.
    pub mismatched: u64,
    /// The first few failure reasons, for stderr.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one output checked against its oracle; `false` (one failed,
    /// mismatched operation) on `Err`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(reason) => {
                self.mismatched += 1;
                self.note(format!("{what}: {reason}"));
                false
            }
        }
    }

    /// Count one operation that produced no output.
    pub fn error(&mut self, what: &str, reason: String) {
        self.attempted += 1;
        self.note(format!("{what}: {reason}"));
    }

    fn note(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    /// `true` when something ran and no output mismatched its oracle.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.mismatched == 0
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Fold another outcome's counts into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.metrics.extend(other.metrics);
    }
}

/// Render the result line. Traced runs print every per-layer metric
/// (0 where the workload does not touch the layer); untraced runs print
/// every end-to-end metric, which every workload must have measured.
///
/// # Errors
/// Names an end-to-end metric the workload did not produce, or any
/// non-finite value.
pub fn render(out: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted,
        out.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*n), "duplicate metric {n}");
        }
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut o = Outcome::default();
        o.check("op", Ok(()));
        o.set("setup_s", 0.5);
        assert!(render(&o, false).is_err());
        o.set("latency_p50_ms", 1.25);
        let line = render(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        let traced = render(&o, true).unwrap();
        assert!(traced.contains("\"cpd.solve_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        o.error("op", "timed out".into());
        let line = render(&o, false).unwrap();
        assert!(
            line.contains("\"correct\": true, \"attempted\": 2, \"failed\": 1"),
            "{line}"
        );
        o.check("op", Err("mismatch".into()));
        let line = render(&o, false).unwrap();
        assert!(
            line.contains("\"correct\": false, \"attempted\": 3, \"failed\": 2"),
            "{line}"
        );
    }
}
