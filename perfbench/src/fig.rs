//! The figure workloads: `fig5a` (golden-scale Figure 5(a) in process)
//! and `fig4a-full` (full-size Figure 4(a) as a sharded sweep).

use crate::common::{fingerprint, fresh_dir, peak_rss_kb, Args, GlobalCounters, Outcome};
use crate::layers::Layers;
use crate::oracles;
use crate::spans::Tracer;
use crate::stats::median;
use crate::traced::{self, TracingEvaluator};
use eco_bench::cli::EngineFlags;
use eco_bench::figures::{self, FigureDef, RunOpts};
use eco_bench::sweep::{run_sweep, SweepConfig};
use eco_core::events::Json;
use eco_core::{Engine, EngineConfig, Evaluator, SweepPlan, SweepSpec};
use eco_store::ResultStore;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine threads of the in-process figure runs.
const THREADS: usize = 2;
/// Worker processes of the `fig4a-full` sweep (one engine thread each).
const WORKERS: usize = 2;
/// Measure sizes per shard (the `repro sweep` default).
const SIZES_PER_SHARD: usize = 4;
/// Set-ups whose median is `setup_s`. A figure set-up takes about a
/// millisecond of file-system work, so one slow call must not decide it.
const SETUP_REPS: usize = 50;

fn def(name: &str) -> &'static FigureDef {
    figures::figure(name).expect("registered figure")
}

fn golden_file(name: &str) -> String {
    let path = Path::new("results").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Prefix of the peak-memory line a `shard` worker writes to its log.
const WORKER_PEAK: &str = "perfbench worker peak_rss_kb ";

/// Reports the metrics every figure workload shares: one figure is one
/// request, so its wall time is the request latency. `workers_kb` is
/// the largest worker process's peak resident set (0 without workers).
fn report_figure(
    outcome: &mut Outcome,
    setups: &[f64],
    walls: &[f64],
    points: f64,
    workers_kb: f64,
) {
    let wall = median(walls);
    outcome.metric("setup_s", median(setups), "s");
    outcome.metric("points_per_s", points / wall, "1/s");
    outcome.metric("tune_p50_ms", wall * 1e3, "ms");
    outcome.metric("tune_p95_ms", wall * 1e3, "ms");
    outcome.metric("tunes_per_s", 1.0 / wall, "1/s");
    outcome.metric("peak_rss_mb", peak_rss_kb().max(workers_kb) / 1024.0, "MB");
    println!(
        "   {} figure run(s); one figure is one request, so p50 and p95 are its median wall time",
        walls.len()
    );
}

/// Runs the serial figure runner once against a fresh store and checks
/// its outputs byte for byte. Returns the wall time and points requested.
fn fig5a_pass(outcome: &mut Outcome, csv: &str, manifest: &str, tag: usize) -> (f64, f64) {
    let store = fresh_dir(&format!("fig5a-pass-{tag}"));
    let opts = RunOpts {
        flags: EngineFlags {
            threads: THREADS,
            store: Some(store.display().to_string()),
            ..EngineFlags::default()
        },
        ..RunOpts::default()
    };
    let before = GlobalCounters::read();
    let started = Instant::now();
    let out = std::panic::catch_unwind(|| figures::run(def("fig5a"), &opts));
    let wall = started.elapsed().as_secs_f64();
    let delta = GlobalCounters::read().since(&before);
    outcome.count(delta.requested as u64, delta.errors as u64);
    match out {
        Ok((sweep, got_manifest)) => {
            outcome.check(
                sweep.to_csv() == csv,
                "fig5a CSV differs from results/fig5a.csv",
            );
            outcome.check(
                got_manifest == manifest,
                "fig5a manifest differs from results/fig5a.manifest.json",
            );
        }
        Err(_) => outcome.check(false, "fig5a run panicked"),
    }
    let _ = fs::remove_dir_all(&store);
    (wall, delta.requested)
}

/// Set-up for `fig5a`: read the golden outputs and build the engine on
/// a fresh result store. Returns the set-up's wall time and the
/// goldens. Making the empty directory beforehand and dropping the
/// engine afterwards (its store flushes with an `fsync`) are not timed.
fn fig5a_setup(tag: usize) -> (f64, String, String) {
    let dir = fresh_dir(&format!("fig5a-setup-{tag}"));
    let started = Instant::now();
    let csv = golden_file("fig5a.csv");
    let manifest = golden_file("fig5a.manifest.json");
    let engine = Engine::with_config(def("fig5a").spec().machine, engine_config(&dir));
    let elapsed = started.elapsed().as_secs_f64();
    drop(engine.expect("engine"));
    (elapsed, csv, manifest)
}

fn engine_config(store: &Path) -> EngineConfig {
    EngineConfig::new().threads(THREADS).store(store)
}

/// `fig5a`, timed.
pub fn fig5a(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut golden = (String::new(), String::new());
    for i in 0..SETUP_REPS {
        let (t, csv, manifest) = fig5a_setup(i);
        setups.push(t);
        golden = (csv, manifest);
    }
    let (mut walls, mut points) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (wall, requested) = fig5a_pass(&mut outcome, &golden.0, &golden.1, walls.len());
        walls.push(wall);
        points.push(requested);
    }
    report_figure(&mut outcome, &setups, &walls, median(&points), 0.0);
    outcome
}

/// Runs `spec` in process through a tracing wrapper on a fresh engine
/// and store, then replays its unique points serially. Returns the
/// filled layers, the traced wall time, the wrapper's own bookkeeping
/// time and the outputs.
fn traced_in_process(
    outcome: &mut Outcome,
    spec: &SweepSpec,
    tag: &str,
) -> (Layers, f64, f64, Option<(String, String)>) {
    let store_dir = fresh_dir(&format!("{tag}-traced-store"));
    let engine =
        Engine::with_config(spec.machine.clone(), engine_config(&store_dir)).expect("engine");
    let tracer = Tracer::new();
    let ev = TracingEvaluator::new(&engine, &tracer);
    let before = GlobalCounters::read();
    let started = Instant::now();
    let root = tracer.open("figure", None);
    let out = traced::run_figure(spec, &engine, &ev, Some(root));
    tracer.close(root, 0);
    let wall = started.elapsed().as_secs_f64();
    let global = GlobalCounters::read().since(&before);
    let stats = engine.stats();
    outcome.count(stats.requested, stats.errors);
    if let Err(e) = &out {
        outcome.check(false, &format!("{tag} traced run: {e}"));
    }
    let replay = traced::replay(
        &ev.recorded(),
        &spec.machine,
        true,
        &fresh_dir(&format!("{tag}-replay-store")),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    outcome.count(replay.measured, replay.mismatches);
    let mut layers = Layers::default();
    layers.fill(&tracer.spans(), &stats, &global, &replay, engine.threads());
    layers.store_bytes = ResultStore::open(&store_dir)
        .map(|s| s.bytes())
        .unwrap_or(0) as f64;
    (layers, wall, ev.bookkeeping_s(), out.ok())
}

/// `fig5a`, traced: one figure through the wrapper, then the serial
/// replay. Run-to-run noise (±10%) swamps a traced/untraced pair of
/// single figures, so the tracing overhead is the wrapper's own
/// bookkeeping time as a share of the traced wall.
pub fn fig5a_traced(_args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let (_, csv, manifest) = fig5a_setup(0);
    let (mut layers, wall, bookkeeping, out) =
        traced_in_process(&mut outcome, &def("fig5a").spec(), "fig5a");
    if let Some((got_csv, got_manifest)) = out {
        outcome.check(got_csv == csv, "traced fig5a CSV differs from results/");
        outcome.check(
            got_manifest == manifest,
            "traced fig5a manifest differs from results/",
        );
    }
    layers.bench_trace_overhead_frac = bookkeeping / wall;
    layers.bench_accounted_frac = layers.accounted(wall);
    Layers::check_accounting(&mut outcome, "fig5a", layers.bench_accounted_frac);
    layers.report(&mut outcome);
    outcome
}

// ------------------------------------------------------------ fig4a-full

fn fig4a_spec() -> SweepSpec {
    def("fig4a").spec_with_scale(1)
}

/// Set-up for `fig4a-full`: open a fresh store in a fresh sweep
/// directory, plan the sweep and load the pinned oracle. Returns the
/// set-up's wall time and the sweep configuration. Making the empty
/// directory and dropping the store (an `fsync`ed flush) are not timed.
fn fig4a_setup(tag: usize) -> (f64, SweepConfig) {
    let sweep_dir = fresh_dir(&format!("fig4a-full-{tag}"));
    let store = sweep_dir.join("store");
    let started = Instant::now();
    let opened = ResultStore::open(&store);
    let plan = SweepPlan::plan(&fig4a_spec(), SIZES_PER_SHARD).expect("fig4a plans");
    std::hint::black_box(plan.fingerprint());
    std::hint::black_box(oracles::fig4a_full());
    let elapsed = started.elapsed().as_secs_f64();
    drop(opened.expect("fresh store opens"));
    let config = SweepConfig {
        opts: RunOpts {
            flags: EngineFlags {
                threads: 1,
                ..EngineFlags::default()
            },
            ..RunOpts::default()
        },
        workers: WORKERS,
        sizes_per_shard: SIZES_PER_SHARD,
        store,
        sweep_dir,
        worker_exe: std::env::current_exe().expect("own executable"),
        remote: None,
        verbose: false,
    };
    (elapsed, config)
}

/// Events of one JSONL stream, parsed.
fn read_events(path: &Path) -> Vec<Json> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .collect()
}

fn attr_str<'j>(ev: &'j Json, key: &str) -> &'j str {
    ev.get(key).and_then(Json::as_str).unwrap_or("")
}

fn attr_u64(ev: &Json, key: &str) -> u64 {
    ev.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Points requested by every shard's engine: the last `engine_stats`
/// event of each worker's stream.
fn sweep_points(sweep_dir: &Path) -> (u64, u64) {
    let (mut requested, mut errors) = (0, 0);
    for entry in fs::read_dir(sweep_dir.join("events"))
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Some(last) = read_events(&entry.path())
            .into_iter()
            .rfind(|e| attr_str(e, "name") == "engine_stats")
        {
            requested += attr_u64(&last, "requested");
            errors += attr_u64(&last, "errors");
        }
    }
    (requested, errors)
}

/// The largest peak resident set (KiB) the sweep's workers logged.
fn workers_peak_kb(sweep_dir: &Path) -> f64 {
    fs::read_dir(sweep_dir.join("logs"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| fs::read_to_string(e.path()).ok())
        .flat_map(|log| {
            log.lines()
                .filter_map(|l| l.strip_prefix(WORKER_PEAK)?.parse::<f64>().ok())
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max)
}

/// Runs the sweep and checks its outputs against the pinned
/// fingerprints. Returns the wall time, points requested and the
/// workers' peak resident set (KiB).
fn fig4a_pass(outcome: &mut Outcome, config: &SweepConfig) -> (f64, f64, f64) {
    let started = Instant::now();
    let out = run_sweep(&fig4a_spec(), config);
    let wall = started.elapsed().as_secs_f64();
    let (requested, errors) = sweep_points(&config.sweep_dir);
    let peak_kb = workers_peak_kb(&config.sweep_dir);
    outcome.count(requested, errors);
    match out {
        Ok(o) => check_fig4a(outcome, &o.sweep.to_csv(), &o.manifest, "sweep"),
        Err(e) => outcome.check(false, &format!("fig4a-full sweep: {e}")),
    }
    (wall, requested as f64, peak_kb)
}

fn check_fig4a(outcome: &mut Outcome, csv: &str, manifest: &str, what: &str) {
    let pinned = oracles::fig4a_full();
    outcome.check(
        fingerprint(csv) == pinned.csv,
        &format!("fig4a-full {what} CSV fingerprint differs from the pinned one"),
    );
    outcome.check(
        fingerprint(manifest) == pinned.manifest,
        &format!("fig4a-full {what} manifest fingerprint differs from the pinned one"),
    );
}

/// `fig4a-full`, timed.
pub fn fig4a_full(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    for i in 0..SETUP_REPS {
        let (t, config) = fig4a_setup(i);
        setups.push(t);
        let _ = fs::remove_dir_all(&config.sweep_dir);
    }
    let (mut walls, mut points, mut workers_kb) = (Vec::new(), Vec::new(), 0.0f64);
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (_, config) = fig4a_setup(walls.len());
        let (wall, requested, peak_kb) = fig4a_pass(&mut outcome, &config);
        let _ = fs::remove_dir_all(&config.sweep_dir);
        walls.push(wall);
        points.push(requested);
        workers_kb = workers_kb.max(peak_kb);
    }
    report_figure(&mut outcome, &setups, &walls, median(&points), workers_kb);
    outcome
}

/// Shard timings from the orchestrator's own event stream: per stage,
/// the interval from its first spawn to its last completion.
#[derive(Debug, Default)]
struct SweepTimeline {
    shards: u64,
    tune_s: f64,
    measure_s: f64,
    longest_s: f64,
    busy_s: f64,
}

fn sweep_timeline(sweep_dir: &Path) -> SweepTimeline {
    let mut stages: HashMap<String, (u64, u64)> = HashMap::new();
    let mut t = SweepTimeline::default();
    for ev in read_events(&sweep_dir.join("sweep.events.jsonl")) {
        let name = attr_str(&ev, "name");
        if name != "shard_spawn" && name != "shard_done" {
            continue;
        }
        let at = attr_u64(&ev, "t_us");
        let stage = stages
            .entry(attr_str(&ev, "kind").to_string())
            .or_insert((u64::MAX, 0));
        if name == "shard_spawn" {
            stage.0 = stage.0.min(at);
        } else {
            stage.1 = stage.1.max(at);
            let wall = attr_u64(&ev, "wall_ms") as f64 / 1e3;
            t.shards += 1;
            t.busy_s += wall;
            t.longest_s = t.longest_s.max(wall);
        }
    }
    let span = |kind: &str| {
        stages
            .get(kind)
            .filter(|(a, b)| b > a)
            .map_or(0.0, |(a, b)| (b - a) as f64 / 1e6)
    };
    t.tune_s = span("tune");
    t.measure_s = span("measure");
    t
}

/// `fig4a-full`, traced: the sweep (its stages read from the
/// orchestrator's event stream), then an in-process repeat of the
/// figure through the wrapper, then the serial replay.
pub fn fig4a_full_traced(_args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let (_, config) = fig4a_setup(0);
    let (sweep_wall, _, _) = fig4a_pass(&mut outcome, &config);
    let timeline = sweep_timeline(&config.sweep_dir);
    let _ = fs::remove_dir_all(&config.sweep_dir);
    let (mut layers, wall, bookkeeping, out) =
        traced_in_process(&mut outcome, &fig4a_spec(), "fig4a-full");
    if let Some((csv, manifest)) = out {
        check_fig4a(&mut outcome, &csv, &manifest, "in-process");
    }
    layers.sweep_shards = timeline.shards as f64;
    layers.sweep_tune_stage_s = timeline.tune_s;
    layers.sweep_measure_stage_s = timeline.measure_s;
    layers.sweep_longest_shard_s = timeline.longest_s;
    let stages = timeline.tune_s + timeline.measure_s;
    layers.sweep_worker_util = if stages > 0.0 {
        timeline.busy_s / (WORKERS as f64 * stages)
    } else {
        0.0
    };
    layers.bench_trace_overhead_frac = bookkeeping / wall;
    let in_process = layers.accounted(wall);
    let sweep = stages / sweep_wall;
    Layers::check_accounting(&mut outcome, "fig4a-full in-process", in_process);
    Layers::check_accounting(&mut outcome, "fig4a-full sweep stages", sweep);
    layers.bench_accounted_frac = in_process.min(sweep);
    layers.report(&mut outcome);
    outcome
}

/// Pins the `fig4a-full` oracle: runs the figure at scale 1 serially in
/// process and as the sharded sweep, requires byte-identical outputs
/// (the sweep's own identity oracle) and returns their fingerprints.
///
/// # Errors
///
/// Returns a message when either run fails or their outputs differ.
pub fn pin_fig4a_full() -> Result<(String, String), String> {
    let mut scratch = Outcome::default();
    let (_, config) = fig4a_setup(0);
    let swept = run_sweep(&fig4a_spec(), &config)?;
    let (_, _, _, serial) = traced_in_process(&mut scratch, &fig4a_spec(), "fig4a-full-pin");
    let (csv, manifest) = serial.ok_or("in-process fig4a-full failed")?;
    if swept.sweep.to_csv() != csv || swept.manifest != manifest {
        return Err("sharded and in-process fig4a-full outputs differ".into());
    }
    Ok((fingerprint(&csv), fingerprint(&manifest)))
}

/// The `shard` worker entry point the sweep spawns: executes one shard
/// manifest and marks it complete in the shared store (the same
/// contract as `repro shard`).
///
/// # Errors
///
/// Returns a message for bad arguments or a failed shard.
pub fn shard_worker(args: &[String]) -> Result<(), String> {
    let mut flags = EngineFlags::new();
    let (mut shard_file, mut events_dir) = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.accept(arg, &mut it)? {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--shard" => shard_file = Some(PathBuf::from(value)),
            "--events" => events_dir = Some(PathBuf::from(value)),
            "--trace" => {}
            other => return Err(format!("shard: unknown flag {other}")),
        }
    }
    let path = shard_file.ok_or("shard: --shard FILE required")?;
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let shard = eco_core::Shard::from_json(&Json::parse(&text)?)?;
    let fp = shard.fingerprint();
    let mut cfg = flags.apply(EngineConfig::new());
    if let Some(dir) = events_dir {
        cfg = cfg.events(dir.join(format!("{fp:016x}.events.jsonl")));
    }
    let result = eco_bench::sweep::execute_shard(&shard, cfg)?;
    let store_dir = flags.store.ok_or("shard: --store DIR required")?;
    ResultStore::open(&store_dir)
        .and_then(|s| s.mark_shard_complete(fp, &result))
        .map_err(|e| format!("cannot record completion: {e}"))?;
    // Standard output is the worker's log, read back by `fig4a_pass`.
    println!("{WORKER_PEAK}{}", peak_rss_kb());
    Ok(())
}
