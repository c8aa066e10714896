//! Shared pieces of every workload: the result record, scratch
//! directories, process memory, registry counters and fingerprints.

use eco_exec::events::Fnv64;
use eco_metrics::{parse_exposition, Registry};
use std::fs;
use std::hash::Hasher as _;
use std::path::PathBuf;

/// Scratch root for stores, sweep directories and sockets, relative to
/// the repository root (the benchmark's working directory).
pub const RUN_DIR: &str = ".perfbench-run";

/// Arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (drives only `serve-warm`'s request sequence).
    pub seed: u64,
    /// Minimum measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (points, responses, compared outputs).
    pub attempted: u64,
    /// Of those, operations that failed or produced wrong output.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation, printing a line when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
    }

    /// Records a whole group of operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A fresh, empty directory `RUN_DIR/<name>`.
///
/// # Panics
///
/// Panics when the directory cannot be created.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(RUN_DIR).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// Removes the scratch root.
pub fn clean_run_dir() {
    let _ = fs::remove_dir_all(RUN_DIR);
}

/// The process-wide counters the workloads take deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalCounters {
    /// `eco_engine_points_requested_total`.
    pub requested: f64,
    /// `eco_engine_points_evaluated_total`.
    pub evaluated: f64,
    /// `eco_engine_memo_hits_total`.
    pub memo_hits: f64,
    /// `eco_engine_dedup_waits_total`.
    pub dedup_waits: f64,
    /// `eco_engine_eval_errors_total`.
    pub errors: f64,
    /// `eco_engine_plan_compiles_total`.
    pub plan_compiles: f64,
    /// `eco_store_puts_total`.
    pub store_puts: f64,
}

impl GlobalCounters {
    /// Reads every counter now.
    pub fn read() -> GlobalCounters {
        let expo = parse_exposition(&Registry::global().render()).unwrap_or_default();
        let v = |name: &str| expo.value(name, &[]).unwrap_or(0.0);
        GlobalCounters {
            requested: v("eco_engine_points_requested_total"),
            evaluated: v("eco_engine_points_evaluated_total"),
            memo_hits: v("eco_engine_memo_hits_total"),
            dedup_waits: v("eco_engine_dedup_waits_total"),
            errors: v("eco_engine_eval_errors_total"),
            plan_compiles: v("eco_engine_plan_compiles_total"),
            store_puts: v("eco_store_puts_total"),
        }
    }

    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &GlobalCounters) -> GlobalCounters {
        GlobalCounters {
            requested: self.requested - earlier.requested,
            evaluated: self.evaluated - earlier.evaluated,
            memo_hits: self.memo_hits - earlier.memo_hits,
            dedup_waits: self.dedup_waits - earlier.dedup_waits,
            errors: self.errors - earlier.errors,
            plan_compiles: self.plan_compiles - earlier.plan_compiles,
            store_puts: self.store_puts - earlier.store_puts,
        }
    }
}

/// This process's own peak resident set in KiB (`VmHWM`). Unlike
/// `getrusage`, it carries nothing over from the process that exec'd
/// this one (`cargo run`) or from that process's children (`rustc`).
pub fn peak_rss_kb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// FNV-1a fingerprint of `text`, rendered as `0x` + 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    format!("{:#018x}", h.finish())
}
