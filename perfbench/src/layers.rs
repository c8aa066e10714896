//! The per-layer budget a traced run reports, and the arithmetic that
//! derives it from spans, engine counters and the serial replay.

use crate::common::{GlobalCounters, Outcome};
use crate::spans::{self, Span};
use crate::traced::Replay;
use eco_exec::EngineStats;

/// Traced time that the blocking-path self times must account for.
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Every per-layer metric; a layer that does no work on a workload
/// reports 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub sim_measure_s: f64,
    pub sim_accesses: f64,
    pub sim_ff_frac: f64,
    pub sim_ns_per_access: f64,
    pub engine_eval_s: f64,
    pub engine_requested: f64,
    pub engine_evaluated: f64,
    pub engine_memo_hit_ratio: f64,
    pub engine_dedup_waits: f64,
    pub engine_parallel_eff: f64,
    pub search_self_s: f64,
    pub search_batches: f64,
    pub search_batch_mean: f64,
    pub verify_certify_s: f64,
    pub verify_certify_calls: f64,
    pub plan_compile_s: f64,
    pub plan_compiles: f64,
    pub plan_useful_compile_ratio: f64,
    pub store_puts: f64,
    pub store_put_ms: f64,
    pub store_get_ms: f64,
    pub store_bytes: f64,
    pub sweep_shards: f64,
    pub sweep_tune_stage_s: f64,
    pub sweep_measure_stage_s: f64,
    pub sweep_longest_shard_s: f64,
    pub sweep_worker_util: f64,
    pub serve_server_p50_ms: f64,
    pub serve_transport_ms: f64,
    pub serve_deduped: f64,
    pub serve_events_bytes_per_tune: f64,
    pub bench_trace_overhead_frac: f64,
    pub bench_accounted_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Fills the search, engine, simulator, certifier, plan and store
    /// metrics from the wrapper's spans, the engine's counters over the
    /// traced interval and the serial replay. `threads` is the engine's
    /// thread count.
    pub fn fill(
        &mut self,
        spans: &[Span],
        stats: &EngineStats,
        global: &GlobalCounters,
        replay: &Replay,
        threads: usize,
    ) {
        let search_ids: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "search")
            .collect();
        let batches: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "eval_batch" && s.parent.is_some_and(|p| search_ids.contains(&p)))
            .collect();
        self.search_self_s = spans::self_total(spans, "search");
        self.search_batches = batches.len() as f64;
        self.search_batch_mean = ratio(
            batches.iter().map(|s| s.count as f64).sum(),
            batches.len() as f64,
        );
        self.engine_eval_s = spans::total(spans, "eval_batch");
        self.engine_requested = stats.requested as f64;
        self.engine_evaluated = stats.evaluated as f64;
        self.engine_memo_hit_ratio = ratio(stats.cache_hits as f64, stats.requested as f64);
        self.engine_dedup_waits = stats.dedup_waits as f64;
        self.engine_parallel_eff = ratio(replay.measure_s, threads as f64 * self.engine_eval_s);
        self.sim_measure_s = replay.measure_s;
        self.sim_accesses = replay.accesses as f64;
        self.sim_ff_frac = ratio(replay.ff_accesses as f64, replay.accesses as f64);
        self.sim_ns_per_access = ratio(replay.measure_s * 1e9, replay.accesses as f64);
        self.verify_certify_s = replay.certify_s;
        self.verify_certify_calls = replay.certify_calls as f64;
        self.plan_compile_s = replay.compile_s;
        self.plan_compiles = global.plan_compiles;
        // Nothing lowered by either side means nothing was wasted.
        self.plan_useful_compile_ratio = if global.plan_compiles > 0.0 {
            replay.programs as f64 / global.plan_compiles
        } else {
            1.0
        };
        self.store_puts = global.store_puts;
        self.store_put_ms = ratio(replay.put_s * 1e3, replay.store_ops as f64);
        self.store_get_ms = ratio(replay.get_s * 1e3, replay.store_ops as f64);
    }

    /// The blocking path's self times (search self time plus engine
    /// evaluation time) as a share of `wall`.
    pub fn accounted(&self, wall: f64) -> f64 {
        ratio(self.search_self_s + self.engine_eval_s, wall)
    }

    /// Records the accounting check: `accounted` must lie within
    /// [`ACCOUNTING_TOLERANCE`] of the traced wall time.
    pub fn check_accounting(outcome: &mut Outcome, what: &str, accounted: f64) {
        let ok = (1.0 - accounted).abs() <= ACCOUNTING_TOLERANCE;
        outcome.check(
            ok,
            &format!("{what}: layer self times account for {accounted:.3} of the traced wall time"),
        );
    }

    /// Appends every per-layer metric to `outcome`.
    pub fn report(&self, outcome: &mut Outcome) {
        let rows: [(&'static str, f64, &'static str); 33] = [
            ("sim.measure_s", self.sim_measure_s, "s"),
            ("sim.accesses", self.sim_accesses, "count"),
            ("sim.ff_frac", self.sim_ff_frac, "frac"),
            ("sim.ns_per_access", self.sim_ns_per_access, "ns"),
            ("engine.eval_s", self.engine_eval_s, "s"),
            ("engine.requested", self.engine_requested, "count"),
            ("engine.evaluated", self.engine_evaluated, "count"),
            ("engine.memo_hit_ratio", self.engine_memo_hit_ratio, "frac"),
            ("engine.dedup_waits", self.engine_dedup_waits, "count"),
            ("engine.parallel_eff", self.engine_parallel_eff, "frac"),
            ("search.self_s", self.search_self_s, "s"),
            ("search.batches", self.search_batches, "count"),
            ("search.batch_mean", self.search_batch_mean, "count"),
            ("verify.certify_s", self.verify_certify_s, "s"),
            ("verify.certify_calls", self.verify_certify_calls, "count"),
            ("plan.compile_s", self.plan_compile_s, "s"),
            ("plan.compiles", self.plan_compiles, "count"),
            (
                "plan.useful_compile_ratio",
                self.plan_useful_compile_ratio,
                "frac",
            ),
            ("store.puts", self.store_puts, "count"),
            ("store.put_ms", self.store_put_ms, "ms"),
            ("store.get_ms", self.store_get_ms, "ms"),
            ("store.bytes", self.store_bytes, "bytes"),
            ("sweep.shards", self.sweep_shards, "count"),
            ("sweep.tune_stage_s", self.sweep_tune_stage_s, "s"),
            ("sweep.measure_stage_s", self.sweep_measure_stage_s, "s"),
            ("sweep.longest_shard_s", self.sweep_longest_shard_s, "s"),
            ("sweep.worker_util", self.sweep_worker_util, "frac"),
            ("serve.server_p50_ms", self.serve_server_p50_ms, "ms"),
            ("serve.transport_ms", self.serve_transport_ms, "ms"),
            ("serve.deduped", self.serve_deduped, "count"),
            (
                "serve.events_bytes_per_tune",
                self.serve_events_bytes_per_tune,
                "bytes",
            ),
            (
                "bench.trace_overhead_frac",
                self.bench_trace_overhead_frac,
                "frac",
            ),
            ("bench.accounted_frac", self.bench_accounted_frac, "frac"),
        ];
        for (name, value, unit) in rows {
            outcome.metric(name, value, unit);
        }
    }
}
