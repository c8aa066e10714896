//! The traced run's instruments: an [`Evaluator`] wrapper that records
//! spans and every job it forwards, the serial replay that times each
//! layer's public functions on those jobs, and an in-process figure
//! runner that drives the figure's engines through the wrapper.

use crate::spans::{SpanId, Tracer};
use eco_baselines::{atlas_mm_with, native, vendor_mm_with};
use eco_bench::figures::{
    eco_search_opts, figure_manifest, ProgramFor, RunOpts, ATLAS_SEARCH_N, VENDOR_SEARCH_N,
};
use eco_bench::{mflops_sweep, Sweep};
use eco_core::{Engine, Optimizer, SweepSpec};
use eco_exec::events::EventStream;
use eco_exec::{Counters, EngineStats, EvalJob, EvalKey, Evaluator, ExecError, ExecutablePlan};
use eco_ir::Program;
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_store::{ResultStore, StoreKey};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One job the wrapper forwarded, first sighting only.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// The engine's memo key.
    pub key: EvalKey,
    /// The job itself.
    pub job: EvalJob,
    /// Its result, when it succeeded.
    pub counters: Option<Counters>,
    /// First sighting on this wrapper (as opposed to first sighting
    /// within one search).
    pub first: bool,
    /// The kernel of the certifying search that requested it.
    pub certified_by: Option<Arc<Kernel>>,
}

/// The search currently open on the wrapper.
#[derive(Debug, Clone)]
struct OpenSearch {
    span: SpanId,
    certify: Option<Arc<Kernel>>,
}

/// Wraps an [`Engine`], timing each `eval_batch` as a span under the
/// open search span and recording every job it forwards.
pub struct TracingEvaluator<'a> {
    engine: &'a Engine,
    tracer: &'a Tracer,
    open: Mutex<Option<OpenSearch>>,
    seen: Mutex<HashSet<EvalKey>>,
    seen_in_search: Mutex<HashSet<(SpanId, EvalKey)>>,
    jobs: Mutex<Vec<Recorded>>,
    /// Seconds spent recording (the wrapper's own cost).
    bookkeeping: Mutex<f64>,
}

impl<'a> TracingEvaluator<'a> {
    /// A wrapper around `engine` recording into `tracer`.
    pub fn new(engine: &'a Engine, tracer: &'a Tracer) -> TracingEvaluator<'a> {
        TracingEvaluator {
            engine,
            tracer,
            open: Mutex::new(None),
            seen: Mutex::new(HashSet::new()),
            seen_in_search: Mutex::new(HashSet::new()),
            jobs: Mutex::new(Vec::new()),
            bookkeeping: Mutex::new(0.0),
        }
    }

    /// Runs the search `f` inside a `search` span under `parent`. With
    /// `certify`, the kernel whose certifying search this is: its
    /// unique points are replayed through the certifier.
    pub fn search<T>(
        &self,
        parent: Option<SpanId>,
        certify: Option<&Kernel>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.tracer.open("search", parent);
        *self.open.lock().expect("open lock") = Some(OpenSearch {
            span,
            certify: certify.map(|k| Arc::new(k.clone())),
        });
        let out = f();
        *self.open.lock().expect("open lock") = None;
        self.tracer.close(span, 0);
        out
    }

    /// Every recorded job, in first-sighting order.
    pub fn recorded(&self) -> Vec<Recorded> {
        self.jobs.lock().expect("jobs lock").clone()
    }

    /// Seconds the wrapper spent on its own bookkeeping.
    pub fn bookkeeping_s(&self) -> f64 {
        *self.bookkeeping.lock().expect("bookkeeping lock")
    }
}

impl Evaluator for TracingEvaluator<'_> {
    fn machine(&self) -> &MachineDesc {
        self.engine.machine()
    }

    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>> {
        let open = self.open.lock().expect("open lock").clone();
        let span = self
            .tracer
            .open("eval_batch", open.as_ref().map(|o| o.span));
        let results = self.engine.eval_batch(jobs);
        self.tracer.close(span, jobs.len() as u64);
        let started = Instant::now();
        let mut seen = self.seen.lock().expect("seen lock");
        let mut in_search = self.seen_in_search.lock().expect("seen lock");
        let mut recorded = self.jobs.lock().expect("jobs lock");
        for (job, result) in jobs.iter().zip(&results) {
            let key = self.engine.key(job);
            let first = seen.insert(key);
            let certified_by = open
                .as_ref()
                .filter(|o| in_search.insert((o.span, key)))
                .and_then(|o| o.certify.clone());
            if first || certified_by.is_some() {
                recorded.push(Recorded {
                    key,
                    job: job.clone(),
                    counters: result.as_ref().ok().cloned(),
                    first,
                    certified_by,
                });
            }
        }
        *self.bookkeeping.lock().expect("bookkeeping lock") += started.elapsed().as_secs_f64();
        results
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    fn events(&self) -> Option<&Arc<EventStream>> {
        self.engine.events()
    }
}

/// What the serial replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Unique programs lowered.
    pub programs: u64,
    /// Seconds in `ExecutablePlan::compile`.
    pub compile_s: f64,
    /// Points simulated.
    pub measured: u64,
    /// Seconds in `ExecutablePlan::measure_with_stats`.
    pub measure_s: f64,
    /// Demand loads and stores simulated.
    pub accesses: u64,
    /// Of those, accesses the simulator fast-forwarded.
    pub ff_accesses: u64,
    /// Points whose replayed counters differ from the engine's.
    pub mismatches: u64,
    /// Calls to `eco_verify::certify`.
    pub certify_calls: u64,
    /// Seconds in `eco_verify::certify`.
    pub certify_s: f64,
    /// Records written to (and read back from) the scratch store.
    pub store_ops: u64,
    /// Seconds in `ResultStore::put`.
    pub put_s: f64,
    /// Seconds in `ResultStore::get`.
    pub get_s: f64,
}

/// Replays `recorded` serially, timing each layer's public functions.
///
/// With `simulate`, every first-sighted job is lowered (once per
/// program) and simulated again, and its counters are compared with
/// the engine's. Every job of a certifying search is certified at its
/// size, and every first-sighted result is written to and read back
/// from a scratch store at `scratch_store`.
///
/// # Errors
///
/// Returns a message when the scratch store cannot be opened.
pub fn replay(
    recorded: &[Recorded],
    machine: &MachineDesc,
    simulate: bool,
    scratch_store: &Path,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    if simulate {
        let mut plans: HashMap<u64, Option<ExecutablePlan>> = HashMap::new();
        for rec in recorded.iter().filter(|r| r.first) {
            let plan = plans.entry(rec.key.program_fp()).or_insert_with(|| {
                let t = Instant::now();
                let plan = ExecutablePlan::compile(&rec.job.program).ok();
                r.compile_s += t.elapsed().as_secs_f64();
                r.programs += 1;
                plan
            });
            let Some(plan) = plan else { continue };
            let t = Instant::now();
            let out = if rec.job.attributed {
                plan.measure_attributed_with_stats(&rec.job.params, machine, &rec.job.layout)
            } else {
                plan.measure_with_stats(&rec.job.params, machine, &rec.job.layout)
            };
            r.measure_s += t.elapsed().as_secs_f64();
            if let Ok((c, s)) = out {
                r.measured += 1;
                r.accesses += c.loads + c.stores;
                r.ff_accesses += s.ff_accesses;
                if rec.counters.as_ref() != Some(&c) {
                    r.mismatches += 1;
                }
            }
        }
    }
    for rec in recorded {
        let Some(kernel) = &rec.certified_by else {
            continue;
        };
        let size_name = kernel.program.var(kernel.size).name.clone();
        let Some(&(_, n)) = rec
            .job
            .params
            .pairs()
            .iter()
            .find(|(v, _)| *v == kernel.size)
        else {
            continue;
        };
        let t = Instant::now();
        let cert = eco_verify::certify(&kernel.program, &rec.job.program, &[(size_name, n)]);
        r.certify_s += t.elapsed().as_secs_f64();
        r.certify_calls += 1;
        std::hint::black_box(cert);
    }
    let store = ResultStore::open(scratch_store).map_err(|e| format!("scratch store: {e}"))?;
    let written: Vec<(StoreKey, &Counters, &Program)> = recorded
        .iter()
        .filter(|r| r.first)
        .filter_map(|r| {
            let key = StoreKey::new(r.key.program_fp(), r.key.point_fp());
            r.counters.as_ref().map(|c| (key, c, &r.job.program))
        })
        .collect();
    for (key, counters, program) in &written {
        let t = Instant::now();
        let ok = store.put(*key, &program.name, counters).is_ok();
        r.put_s += t.elapsed().as_secs_f64();
        if !ok {
            r.mismatches += 1;
        }
    }
    for (key, counters, _) in &written {
        let t = Instant::now();
        let back = store.get(*key);
        r.get_s += t.elapsed().as_secs_f64();
        if back.as_ref() != Some(*counters) {
            r.mismatches += 1;
        }
        r.store_ops += 1;
    }
    Ok(r)
}

/// Runs one figure in process through `ev` (wrapping `engine`), as the
/// serial figure runner does: every family's search, then the whole
/// measurement batch. Each search runs in a `search` span under
/// `parent`. Returns the figure's CSV and run manifest.
///
/// # Errors
///
/// Returns a message when a search or a measurement fails.
pub fn run_figure(
    spec: &SweepSpec,
    engine: &Engine,
    ev: &TracingEvaluator<'_>,
    parent: Option<SpanId>,
) -> Result<(String, String), String> {
    let kernel = &spec.kernel;
    let mut manifest = String::new();
    let mut families: Vec<(String, ProgramFor)> = Vec::new();
    for family in &spec.families {
        let programs: ProgramFor = match family.name.as_str() {
            "ECO" => {
                let mut opt = Optimizer::new(spec.machine.clone());
                opt.opts = eco_search_opts(spec.search_n);
                let tuned = ev
                    .search(parent, Some(kernel), || opt.run_with(kernel, ev))
                    .map_err(|e| format!("ECO tuning failed: {e}"))?;
                manifest = figure_manifest(
                    kernel,
                    engine,
                    &RunOpts::default().manifest_config(),
                    spec.search_n,
                    &tuned,
                );
                let program = tuned.program;
                Box::new(move |_n| program.clone())
            }
            "Native" => {
                let nat = native(kernel, &spec.machine).map_err(|e| format!("native: {e}"))?;
                Box::new(move |n| nat.for_size(n).clone())
            }
            "ATLAS" => {
                let atlas = ev
                    .search(parent, None, || atlas_mm_with(ev, ATLAS_SEARCH_N))
                    .map_err(|e| format!("atlas: {e}"))?;
                Box::new(move |n| atlas.program.for_size(n).clone())
            }
            "Vendor" => {
                let vendor = ev
                    .search(parent, None, || vendor_mm_with(ev, VENDOR_SEARCH_N))
                    .map_err(|e| format!("vendor: {e}"))?;
                Box::new(move |n| vendor.for_size(n).clone())
            }
            other => return Err(format!("unknown series family '{other}'")),
        };
        families.push((family.name.clone(), programs));
    }
    let series: Vec<(&str, &dyn Fn(i64) -> Program)> = families
        .iter()
        .map(|(name, f)| (name.as_str(), f.as_ref() as &dyn Fn(i64) -> Program))
        .collect();
    let sweep: Sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mflops_sweep(ev, kernel, &spec.sizes, &series)
    }))
    .map_err(|_| "a measurement point failed".to_string())?;
    Ok((sweep.to_csv(), manifest))
}
