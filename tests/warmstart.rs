//! Warm-start tests. Cross-process: a second run against the same
//! `--store` directory must produce byte-identical outputs while
//! serving (nearly) every evaluation from disk instead of
//! re-simulating. In process: a tune on an engine whose candidate memo
//! is already warm must equal a cold tune, `certify` events included,
//! and must submit the memo's own programs by reference; the copying
//! default of `Evaluator::eval_shared` must tune exactly like `Engine`;
//! and concurrent tunes through views of one engine each report only
//! their own work.

use eco_core::events::{field, EventStream};
use eco_core::{
    run_manifest, Engine, EngineConfig, EngineStats, Evaluator, SearchOptions, TuneRequest,
    TuneResponse, Tuned,
};
use eco_exec::{CandidateMemo, Counters, EvalJob, ExecError, SharedJob, SharedProgram};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-warmstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_request(store: &Path) -> TuneRequest {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(16)
        .max_variants(1)
        .build()
        .expect("options");
    TuneRequest::new(Kernel::matmul(), machine)
        .options(opts)
        .engine(EngineConfig::new().store(store.display().to_string()))
}

fn manifest_of(request: &TuneRequest, response: &TuneResponse) -> String {
    run_manifest(
        &request.kernel.name,
        &request.machine,
        &request.options,
        &request.engine,
        response,
    )
    .render()
}

/// Two independent engines (cold, then warm) against one store: the
/// warm run re-simulates (almost) nothing and still renders the exact
/// same manifest bytes — the store must never leak into the outputs.
#[test]
fn second_run_against_the_same_store_is_warm_and_byte_identical() {
    let dir = scratch("inproc");
    let store = dir.join("store");

    let request = tiny_request(&store);
    let cold = request.run().expect("cold run");
    assert_eq!(
        cold.engine.store_hits, 0,
        "nothing can hit an empty store: {:?}",
        cold.engine
    );
    assert!(cold.engine.evaluated > 0);

    let warm = tiny_request(&store).run().expect("warm run");
    assert_eq!(
        warm.tuned.variant.name, cold.tuned.variant.name,
        "warm run must select the same variant"
    );
    assert_eq!(
        manifest_of(&request, &warm),
        manifest_of(&request, &cold),
        "manifests must be byte-identical across cold and warm runs"
    );
    assert!(
        warm.engine.store_hits * 10 >= warm.engine.evaluated * 9,
        "warm run should serve >=90% of evaluations from the store: {:?}",
        warm.engine
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The same contract across real processes: `eco tune --store DIR
/// --manifest F` twice writes byte-identical manifests, and the second
/// process reports its store hits on stdout.
#[test]
fn eco_tune_warm_starts_across_processes() {
    let dir = scratch("subproc");
    let store = dir.join("store");
    let run = |manifest: &PathBuf| {
        let out = Command::new(env!("CARGO_BIN_EXE_eco"))
            .args([
                "tune",
                "mm",
                "--search-n",
                "16",
                "--store",
                &store.display().to_string(),
                "--manifest",
                &manifest.display().to_string(),
            ])
            .output()
            .expect("eco tune runs");
        assert!(
            out.status.success(),
            "eco tune failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let m1 = dir.join("cold.manifest.json");
    let m2 = dir.join("warm.manifest.json");
    let cold_stdout = run(&m1);
    let warm_stdout = run(&m2);

    let cold = std::fs::read_to_string(&m1).expect("cold manifest");
    let warm = std::fs::read_to_string(&m2).expect("warm manifest");
    assert_eq!(cold, warm, "manifests must not depend on store warmth");
    assert!(
        !cold.contains("store"),
        "the store must not be recorded in the manifest:\n{cold}"
    );

    assert!(
        cold_stdout.contains("store: 0 hits"),
        "cold run hits an empty store:\n{cold_stdout}"
    );
    let hits_line = warm_stdout
        .lines()
        .find(|l| l.trim_start().starts_with("store: "))
        .unwrap_or_else(|| panic!("no store line in:\n{warm_stdout}"));
    assert!(
        !hits_line.contains("store: 0 hits"),
        "warm run must hit the store: {hits_line}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh event stream writing into a buffer the test can read, the
/// way `eco serve` gives every request a stream of its own.
fn buffered_stream() -> (Arc<EventStream>, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let events = Arc::new(EventStream::to_shared_buffer(Arc::clone(&buf)));
    (events, buf)
}

/// The `certify` events written so far, as `variant ok code msg n`
/// tuples.
fn certify_events(events: &EventStream, buf: &Mutex<Vec<u8>>) -> Vec<String> {
    events.flush();
    let text = String::from_utf8(buf.lock().expect("buf lock").clone()).expect("utf8");
    text.lines()
        .filter(|l| field(l, "name") == Some("certify"))
        .map(|l| {
            ["variant", "ok", "code", "msg", "n"]
                .map(|k| field(l, k).unwrap_or("-"))
                .join(" ")
        })
        .collect()
}

/// Everything a tune decides, in comparable form.
type Outcome = (
    String,
    Vec<(String, u64)>,
    Vec<(String, i64)>,
    String,
    Counters,
    eco_core::SearchStats,
    Vec<String>,
);

/// Tunes `request` through a view of `engine` (a per-run event stream
/// on the shared engine) and returns its outcome.
fn tune_on(engine: &Engine, request: &TuneRequest) -> Outcome {
    let (events, buf) = buffered_stream();
    let t: Tuned = request
        .run_on(&engine.view(Arc::clone(&events)))
        .expect("tune")
        .tuned;
    (
        format!("{:?}", t.variant),
        t.params.into_iter().collect(),
        t.prefetches,
        t.program.to_string(),
        t.counters,
        t.stats,
        certify_events(&events, &buf),
    )
}

fn certified_request(kernel: Kernel, machine: MachineDesc, robustness: &[i64]) -> TuneRequest {
    let mut opts = SearchOptions::builder().search_n(16).certify(true);
    if !robustness.is_empty() {
        opts = opts.robustness_sizes(robustness.to_vec());
    }
    TuneRequest::new(kernel, machine).options(opts.build().expect("options"))
}

fn memo_len(engine: &Engine) -> usize {
    engine.candidates().expect("engines own a memo").len()
}

#[test]
fn warm_candidate_memo_tunes_equal_cold_tunes() {
    for machine in [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()] {
        let machine = machine.scaled(32);
        for kernel in Kernel::all() {
            let request = certified_request(kernel, machine.clone(), &[]);
            let engine = Engine::new(machine.clone());
            let cold = tune_on(&engine, &request);
            let generated = memo_len(&engine);
            assert!(generated > 0);
            assert!(!cold.6.is_empty(), "certification emitted events");
            let warm = tune_on(&engine, &request);
            assert_eq!(warm, cold, "{} on {}", request.kernel.name, machine.name);
            assert_eq!(
                memo_len(&engine),
                generated,
                "the warm tune generated nothing"
            );
        }
    }
}

#[test]
fn candidate_memo_never_aliases_kernels_or_size_lists() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    // mv and stencil5 both derive a variant named v1.
    let mv = certified_request(Kernel::matvec(), machine.clone(), &[]);
    let stencil = certified_request(Kernel::stencil5(), machine.clone(), &[]);
    let fresh = Engine::new(machine.clone());
    let stencil_cold = tune_on(&fresh, &stencil);
    let stencil_alone = memo_len(&fresh);
    let shared = Engine::new(machine.clone());
    tune_on(&shared, &mv);
    let mv_alone = memo_len(&shared);
    assert_eq!(tune_on(&shared, &stencil), stencil_cold);
    assert_eq!(
        memo_len(&shared),
        mv_alone + stencil_alone,
        "no shared entries"
    );

    // Jacobi certifies clean at 16 alone, but adding size 5 rejects
    // candidates: a warm [16, 5] request must not reuse [16]'s verdicts.
    let jacobi = Kernel::jacobi3d();
    let single = certified_request(jacobi.clone(), machine.clone(), &[]);
    let robust = certified_request(jacobi, machine.clone(), &[5]);
    let robust_cold = tune_on(&Engine::new(machine.clone()), &robust);
    assert!(robust_cold.5.points_rejected > 0);
    let shared = Engine::new(machine);
    assert_eq!(tune_on(&shared, &single).5.points_rejected, 0);
    assert_eq!(tune_on(&shared, &robust), robust_cold);
}

/// Implements only what a minimal evaluator must: the required methods,
/// plus `stats` so the run manifest's engine counts can be compared.
/// Its searches therefore use the provided `eval_shared` (deep copies
/// through `eval_batch`) and a candidate memo local to each search.
struct RequiredOnly<'a>(&'a Engine);

impl Evaluator for RequiredOnly<'_> {
    fn machine(&self) -> &MachineDesc {
        self.0.machine()
    }

    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>> {
        self.0.eval_batch(jobs)
    }

    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
}

#[test]
fn provided_eval_shared_tunes_equal_engine_tunes() {
    for machine in [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()] {
        let machine = machine.scaled(32);
        for kernel in Kernel::all() {
            let request = certified_request(kernel, machine.clone(), &[]);
            let direct = request.run_on(&Engine::new(machine.clone())).expect("tune");
            let engine = Engine::new(machine.clone());
            let plain = request.run_on(&RequiredOnly(&engine)).expect("tune");
            let what = format!("{} on {}", request.kernel.name, machine.name);
            assert_eq!(
                format!("{:?}", plain.tuned),
                format!("{:?}", direct.tuned),
                "{what}"
            );
            assert_eq!(plain.engine, direct.engine, "{what}");
            assert_eq!(
                manifest_of(&request, &plain),
                manifest_of(&request, &direct),
                "{what}"
            );
            assert_eq!(memo_len(&engine), 0, "{what}: the engine's memo unused");
        }
    }
}

/// Forwards to a view of an engine, recording every program the search
/// submits by reference and counting jobs submitted as owned copies.
struct Recording<'a> {
    view: eco_exec::EngineView<'a>,
    shared: Mutex<Vec<SharedProgram>>,
    owned_jobs: Mutex<usize>,
}

impl Evaluator for Recording<'_> {
    fn machine(&self) -> &MachineDesc {
        self.view.machine()
    }

    fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Result<Counters, ExecError>> {
        *self.owned_jobs.lock().expect("lock") += jobs.len();
        self.view.eval_batch(jobs)
    }

    fn eval_shared(&self, jobs: &[SharedJob]) -> Vec<Result<Counters, ExecError>> {
        let mut shared = self.shared.lock().expect("lock");
        shared.extend(jobs.iter().map(|j| j.program.clone()));
        drop(shared);
        self.view.eval_shared(jobs)
    }

    fn stats(&self) -> EngineStats {
        self.view.stats()
    }

    fn events(&self) -> Option<&Arc<EventStream>> {
        self.view.events()
    }

    fn candidates(&self) -> Option<&CandidateMemo> {
        self.view.candidates()
    }
}

#[test]
fn warm_retune_submits_the_memos_own_programs() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let request = certified_request(Kernel::matmul(), machine.clone(), &[5]);
    let engine = Engine::new(machine);
    let cold = tune_on(&engine, &request);
    let held = engine.candidates().expect("engines own a memo").programs();
    let generated = memo_len(&engine);
    let recording = Recording {
        view: engine.view(buffered_stream().0),
        shared: Mutex::new(Vec::new()),
        owned_jobs: Mutex::new(0),
    };
    let warm = request.run_on(&recording).expect("warm tune");
    assert_eq!(warm.tuned.stats, cold.5);
    assert_eq!(
        *recording.owned_jobs.lock().expect("lock"),
        0,
        "no deep copies"
    );
    let shared = recording.shared.into_inner().expect("lock");
    assert_eq!(shared.len() as u64, warm.engine.requested);
    for program in &shared {
        assert!(
            held.iter().any(|h| Arc::ptr_eq(h.arc(), program.arc())),
            "submitted {} is not the memo's own program",
            program.name
        );
    }
    assert_eq!(memo_len(&engine), generated, "nothing generated");
}

#[test]
fn concurrent_views_report_only_their_own_work() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let requests = [
        certified_request(Kernel::matmul(), machine.clone(), &[]),
        certified_request(Kernel::jacobi3d(), machine.clone(), &[]),
    ];
    let serial: Vec<EngineStats> = requests
        .iter()
        .map(|r| {
            r.run_on(&Engine::new(machine.clone()))
                .expect("tune")
                .engine
        })
        .collect();
    let engine = Engine::new(machine);
    let start = std::sync::Barrier::new(requests.len());
    let concurrent: Vec<EngineStats> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|r| {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    let view = engine.view(buffered_stream().0);
                    start.wait();
                    r.run_on(&view).expect("tune").engine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for (got, want) in concurrent.iter().zip(&serial) {
        assert_eq!(got.requested, want.requested, "{got:?} vs serial {want:?}");
        assert_eq!(
            got.evaluated + got.cache_hits + got.dedup_waits,
            got.requested,
            "{got:?}"
        );
    }
    let total = engine.stats();
    assert_eq!(
        total.requested,
        serial.iter().map(|s| s.requested).sum::<u64>(),
        "the engine's own totals still count every request"
    );
}
