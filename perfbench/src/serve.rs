//! The `serve-warm` workload: an in-process `eco serve` daemon with a
//! result store, warmed by one cold tune of every distinct request,
//! then driven by two closed-loop client connections sending a seeded
//! sequence of certified `tune` requests.

use crate::common::{fingerprint, fresh_dir, peak_rss_kb, Args, GlobalCounters, Outcome};
use crate::layers::Layers;
use crate::oracles;
use crate::reqgen::{distinct_requests, RequestStream};
use crate::spans::Tracer;
use crate::stats::{median, percentile, samples_for, tail_percentile, MIN_BEYOND};
use crate::traced::{self, TracingEvaluator};
use eco_bench::serve::{LogLevel, ServeConfig, Server};
use eco_core::events::Json;
use eco_core::{run_manifest, Engine, EngineConfig, EngineStats, Evaluator, TuneRequest};
use eco_metrics::{parse_exposition, Exposition};
use eco_store::ResultStore;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine threads of the daemon's engines.
const ENGINE_THREADS: usize = 2;
/// Closed-loop client connections.
const CLIENTS: u64 = 2;
/// Cold set-ups whose median is `setup_s` (each tunes every distinct
/// request once on a fresh daemon and store).
const COLD_SETUPS: usize = 3;
/// The percentile reported as the tail.
const TAIL: f64 = 95.0;

/// One persistent client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the one-line response.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        Json::parse(reply.trim_end())
    }
}

/// A daemon running on its own thread.
struct Daemon {
    socket: PathBuf,
    store: PathBuf,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let store = dir.join("store");
        let socket = dir.join("serve.sock");
        let mut config = ServeConfig::new(
            &socket,
            EngineConfig::new().threads(ENGINE_THREADS).store(&store),
        );
        config.log_level = LogLevel::Quiet;
        config.slow_ms = u64::MAX;
        let server = Server::bind(config).unwrap_or_else(|e| panic!("serve: {e}"));
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            socket,
            store,
            thread,
        }
    }

    fn stop(self) {
        let _ = Client::connect(&self.socket).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("serve: {e}"),
            Err(_) => panic!("serve: daemon thread panicked"),
        }
    }

    fn scrape(&self) -> Exposition {
        Client::connect(&self.socket)
            .and_then(|mut c| c.call("{\"op\":\"metrics\"}"))
            .ok()
            .and_then(|doc| {
                doc.get("metrics")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .and_then(|text| parse_exposition(&text).ok())
            .unwrap_or_default()
    }
}

/// A manifest's fingerprint without its `engine_stats` section: what
/// was tuned and selected, not how the engine accounted for it. A warm
/// re-tune reports memo hits where a cold run reports evaluations, and
/// a served tune's counts are deltas of an engine shared with
/// concurrent requests, so they include the other requests' points.
pub fn normalized_manifest(manifest: &Json) -> String {
    let mut doc = manifest.clone();
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(key, _)| key != "engine_stats");
    }
    fingerprint(&doc.render())
}

/// The `engine_stats.requested` count a manifest records.
fn requested(manifest: &Json) -> u64 {
    manifest
        .get_path("engine_stats.requested")
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The request lines and their pinned oracles.
struct Requests {
    lines: Vec<String>,
    fps: Vec<u64>,
    expected: Vec<oracles::ServeOracle>,
}

fn requests() -> Requests {
    let reqs = distinct_requests();
    let pinned = oracles::serve_warm();
    let fps: Vec<u64> = reqs.iter().map(TuneRequest::fingerprint).collect();
    Requests {
        lines: reqs
            .iter()
            .map(|r| {
                Json::obj()
                    .field("op", Json::str("tune"))
                    .field("request", r.to_json())
                    .render_compact()
            })
            .collect(),
        expected: fps
            .iter()
            .map(|fp| pinned.get(fp).cloned().unwrap_or_default())
            .collect(),
        fps,
    }
}

/// Checks one response: `ok`, and a manifest equal to the pinned one.
/// Returns whether its `engine_stats.requested` differs from a solo run
/// of the request (counted, not failed: see [`normalized_manifest`]).
fn check_response(
    outcome: &mut Outcome,
    reply: &Result<Json, String>,
    expected: &oracles::ServeOracle,
) -> bool {
    let doc = match reply {
        Ok(doc) if doc.get("ok").and_then(Json::as_bool) == Some(true) => doc,
        Ok(doc) => {
            outcome.check(
                false,
                &format!("tune answered ok=false: {}", doc.render_compact()),
            );
            return false;
        }
        Err(e) => {
            outcome.check(false, &format!("tune failed: {e}"));
            return false;
        }
    };
    let Some(manifest) = doc.get("manifest") else {
        outcome.check(false, "tune response without a manifest");
        return false;
    };
    let got = normalized_manifest(manifest);
    outcome.check(
        got == expected.manifest,
        &format!(
            "served manifest {got} differs from the pinned local one {}",
            expected.manifest
        ),
    );
    requested(manifest) != expected.requested
}

/// Starts a daemon on a fresh store and tunes every distinct request
/// once, cold. Returns the daemon and the set-up wall time.
fn setup(outcome: &mut Outcome, reqs: &Requests, tag: usize) -> (Daemon, f64) {
    let started = Instant::now();
    let daemon = Daemon::start(&fresh_dir(&format!("serve-{tag}")));
    let mut client = Client::connect(&daemon.socket).unwrap_or_else(|e| panic!("{e}"));
    for (line, expected) in reqs.lines.iter().zip(&reqs.expected) {
        let reply = client.call(line);
        let shared = check_response(outcome, &reply, expected);
        outcome.check(
            !shared,
            "a serial cold tune reported another request's points",
        );
    }
    (daemon, started.elapsed().as_secs_f64())
}

/// What one measured phase saw. Rates are summed over the clients,
/// each over its own active time, so a client idling while the other
/// finishes its round does not dilute them.
#[derive(Debug, Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    points: u64,
    tunes_per_s: f64,
    points_per_s: f64,
    /// Responses whose `engine_stats.requested` includes other
    /// requests' points.
    shared_stats: u64,
    wall_s: f64,
    events_bytes: Vec<u64>,
}

/// Drives the daemon with the closed-loop clients until `seconds` have
/// passed and the tail percentile has enough samples beyond it, each
/// client stopping at the end of a round. The clients of daemon
/// `daemon_no` draw their own seeded streams. With `fetch_events`,
/// each response's event stream is fetched back (`trace` op) to size
/// it.
fn measured_phase(
    outcome: &mut Outcome,
    daemon: &Daemon,
    reqs: &Requests,
    args: &Args,
    daemon_no: u64,
    fetch_events: bool,
) -> Phase {
    let need = samples_for(TAIL, MIN_BEYOND);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<(Phase, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let done = &done;
                s.spawn(move || {
                    let mut phase = Phase::default();
                    let mut out = Outcome::default();
                    let mut client =
                        Client::connect(&daemon.socket).unwrap_or_else(|e| panic!("{e}"));
                    let round = reqs.lines.len();
                    let stream = RequestStream::new(args.seed, daemon_no * CLIENTS + c, round);
                    for (i, idx) in stream.enumerate() {
                        // Stop only between whole rounds, so every run
                        // measures the same request mix.
                        if i % round == 0
                            && started.elapsed().as_secs_f64() >= args.seconds
                            && done.load(Ordering::SeqCst) >= need
                        {
                            break;
                        }
                        let t = Instant::now();
                        let reply = client.call(&reqs.lines[idx]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if fetch_events {
                            let fetch = format!(
                                "{{\"op\":\"trace\",\"fingerprint\":\"{:#018x}\"}}",
                                reqs.fps[idx]
                            );
                            let events = client
                                .call(&fetch)
                                .ok()
                                .and_then(|d| d.get("events").and_then(Json::as_str).map(str::len));
                            phase.events_bytes.push(events.unwrap_or(0) as u64);
                        }
                        let expected = &reqs.expected[idx];
                        phase.shared_stats += u64::from(check_response(&mut out, &reply, expected));
                        phase.points += expected.requested;
                        phase.latencies_ms.push(ms);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    phase.wall_s = started.elapsed().as_secs_f64();
                    (phase, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for (p, o) in per_client {
        phase.tunes_per_s += p.latencies_ms.len() as f64 / p.wall_s;
        phase.points_per_s += p.points as f64 / p.wall_s;
        phase.latencies_ms.extend(p.latencies_ms);
        phase.events_bytes.extend(p.events_bytes);
        phase.shared_stats += p.shared_stats;
        outcome.count(o.attempted, o.failed);
    }
    phase
}

fn report_latency(phase: &Phase) {
    let n = phase.latencies_ms.len();
    println!(
        "   {} of {n} served manifests count other concurrent requests' points in engine_stats",
        phase.shared_stats
    );
    match tail_percentile(n, MIN_BEYOND) {
        Some(p) => println!(
            "   {n} tune samples; highest percentile with >= {MIN_BEYOND} samples beyond it: p{p} = {:.3} ms",
            percentile(&phase.latencies_ms, p)
        ),
        None => println!("   {n} tune samples; too few for any tail percentile"),
    }
}

/// `serve-warm`, timed. Each of the [`COLD_SETUPS`] daemons is set up
/// cold and then measured for an equal share of `--seconds`; every
/// metric is the median over the daemons, so one daemon's luck (thread
/// placement, allocator state) does not decide the run.
pub fn serve_warm(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let reqs = requests();
    let share = Args {
        seconds: args.seconds / COLD_SETUPS as f64,
        ..args.clone()
    };
    let mut per_daemon: Vec<[f64; 5]> = Vec::new();
    for i in 0..COLD_SETUPS {
        let (daemon, setup_s) = setup(&mut outcome, &reqs, i);
        let phase = measured_phase(&mut outcome, &daemon, &reqs, &share, i as u64, false);
        daemon.stop();
        report_latency(&phase);
        per_daemon.push([
            setup_s,
            phase.points_per_s,
            median(&phase.latencies_ms),
            percentile(&phase.latencies_ms, TAIL),
            phase.tunes_per_s,
        ]);
    }
    let med = |k: usize| median(&per_daemon.iter().map(|m| m[k]).collect::<Vec<_>>());
    outcome.metric("setup_s", med(0), "s");
    outcome.metric("points_per_s", med(1), "1/s");
    outcome.metric("tune_p50_ms", med(2), "ms");
    outcome.metric("tune_p95_ms", med(3), "ms");
    outcome.metric("tunes_per_s", med(4), "1/s");
    outcome.metric("peak_rss_mb", peak_rss_kb() / 1024.0, "MB");
    outcome
}

/// Quantile `q` of the histogram `name{op="tune"}` over the interval
/// between two scrapes, interpolated linearly inside its bucket.
fn histogram_quantile(before: &Exposition, after: &Exposition, name: &str, q: f64) -> f64 {
    let buckets = |e: &Exposition| -> Vec<(f64, f64)> {
        let bucket = format!("{name}_bucket");
        let mut v: Vec<(f64, f64)> = e
            .samples
            .iter()
            .filter(|s| s.name == bucket && s.labels.iter().any(|(k, v)| k == "op" && v == "tune"))
            .filter_map(|s| {
                let le = s.labels.iter().find(|(k, _)| k == "le")?;
                let bound = if le.1 == "+Inf" {
                    f64::INFINITY
                } else {
                    le.1.parse().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    };
    let (b, a) = (buckets(before), buckets(after));
    let delta: Vec<(f64, f64)> = a
        .iter()
        .map(|&(le, cum)| {
            let prior = b.iter().find(|x| x.0 == le).map_or(0.0, |x| x.1);
            (le, cum - prior)
        })
        .collect();
    let Some(&(_, total)) = delta.last() else {
        return 0.0;
    };
    let target = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for (le, cum) in delta {
        if cum >= target && cum > below {
            if le.is_infinite() {
                return lower;
            }
            return lower + (le - lower) * (target - below) / (cum - below);
        }
        lower = le;
        below = cum;
    }
    lower
}

/// Tunes every distinct request once through a wrapper around warm
/// local engines (one per machine), each request a span with its
/// search inside. Checks each manifest against the pinned one.
fn local_repeat(outcome: &mut Outcome, tracer: &Tracer) -> (Vec<traced::Recorded>, EngineStats) {
    let reqs = distinct_requests();
    let pinned = oracles::serve_warm();
    let mut engines: Vec<Engine> = Vec::new();
    let config = EngineConfig::new().threads(ENGINE_THREADS);
    for r in &reqs {
        if !engines.iter().any(|e| e.machine() == &r.machine) {
            engines.push(Engine::with_config(r.machine.clone(), config.clone()).expect("engine"));
        }
    }
    let engine_for = |r: &TuneRequest| {
        engines
            .iter()
            .find(|e| e.machine() == &r.machine)
            .expect("engine per machine")
    };
    // Warm the memo caches the way the daemon's set-up does.
    for r in &reqs {
        let _ = r.run_on(engine_for(r));
    }
    let before: Vec<EngineStats> = engines.iter().map(Evaluator::stats).collect();
    let wrappers: Vec<TracingEvaluator<'_>> = engines
        .iter()
        .map(|e| TracingEvaluator::new(e, tracer))
        .collect();
    for r in &reqs {
        let i = engines
            .iter()
            .position(|e| e.machine() == &r.machine)
            .expect("engine per machine");
        let ev = &wrappers[i];
        let span = tracer.open("request", None);
        let response = ev.search(Some(span), Some(&r.kernel), || r.run_on(ev));
        tracer.close(span, 1);
        match response {
            Ok(resp) => {
                let manifest = run_manifest(&r.kernel.name, &r.machine, &r.options, &config, &resp);
                let expected = pinned.get(&r.fingerprint()).cloned().unwrap_or_default();
                outcome.check(
                    normalized_manifest(&manifest) == expected.manifest
                        && requested(&manifest) == expected.requested,
                    "local warm re-tune manifest differs from the pinned one",
                );
            }
            Err(e) => outcome.check(false, &format!("local re-tune failed: {e}")),
        }
    }
    let mut stats = EngineStats::default();
    for (e, b) in engines.iter().zip(&before) {
        let s = e.stats();
        stats.requested += s.requested - b.requested;
        stats.evaluated += s.evaluated - b.evaluated;
        stats.cache_hits += s.cache_hits - b.cache_hits;
        stats.dedup_waits += s.dedup_waits - b.dedup_waits;
        stats.errors += s.errors - b.errors;
    }
    let recorded = wrappers
        .iter()
        .flat_map(TracingEvaluator::recorded)
        .collect();
    (recorded, stats)
}

/// `serve-warm`, traced: one set-up, an untraced measured phase for
/// reference, a traced one (server histograms and per-request event
/// streams), then a wrapped in-process repeat of
/// every distinct request on warm engines for the search-side layers.
pub fn serve_warm_traced(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let reqs = requests();
    let before_setup = GlobalCounters::read();
    let (daemon, _) = setup(&mut outcome, &reqs, 0);
    let setup_counters = GlobalCounters::read().since(&before_setup);
    let untraced = measured_phase(&mut outcome, &daemon, &reqs, args, 0, false);

    let scrape_before = daemon.scrape();
    let before = GlobalCounters::read();
    let traced_phase = measured_phase(&mut outcome, &daemon, &reqs, args, 0, true);
    let served = GlobalCounters::read().since(&before);
    let scrape_after = daemon.scrape();
    let store_dir = daemon.store.clone();
    daemon.stop();
    let store_bytes = ResultStore::open(&store_dir)
        .map(|s| s.bytes())
        .unwrap_or(0);
    report_latency(&traced_phase);

    let tracer = Tracer::new();
    let (recorded, stats) = local_repeat(&mut outcome, &tracer);
    let replay = traced::replay(
        &recorded,
        &distinct_requests()[0].machine,
        false,
        &fresh_dir("serve-replay-store"),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    outcome.count(replay.store_ops, replay.mismatches);

    let spans = tracer.spans();
    let mean = |p: &Phase| p.latencies_ms.iter().sum::<f64>() / p.latencies_ms.len().max(1) as f64;
    let mut layers = Layers::default();
    layers.fill(&spans, &stats, &served, &replay, ENGINE_THREADS);
    // Engine counts describe the daemon's measured phase; the store was
    // written during set-up (the measured phase is served from memory).
    layers.engine_requested = served.requested;
    layers.engine_evaluated = served.evaluated;
    layers.engine_memo_hit_ratio = if served.requested > 0.0 {
        served.memo_hits / served.requested
    } else {
        0.0
    };
    layers.engine_dedup_waits = served.dedup_waits;
    layers.store_puts = setup_counters.store_puts;
    layers.store_bytes = store_bytes as f64;
    let server_p50_ms = histogram_quantile(
        &scrape_before,
        &scrape_after,
        "eco_serve_request_duration_us",
        0.5,
    ) / 1e3;
    layers.serve_server_p50_ms = server_p50_ms;
    // Bucket interpolation cannot resolve a sub-millisecond difference
    // between two ~60 ms medians, so transport is taken from the means:
    // the histogram's exact sum and count against the client's mean.
    let tune = [("op", "tune")];
    let delta = |name: &str| {
        scrape_after.value(name, &tune).unwrap_or(0.0)
            - scrape_before.value(name, &tune).unwrap_or(0.0)
    };
    let server_mean_ms = delta("eco_serve_request_duration_us_sum")
        / delta("eco_serve_request_duration_us_count").max(1.0)
        / 1e3;
    layers.serve_transport_ms = mean(&traced_phase) - server_mean_ms;
    layers.serve_deduped = scrape_after.total("eco_serve_deduped_requests_total")
        - scrape_before.total("eco_serve_deduped_requests_total");
    layers.serve_events_bytes_per_tune = traced_phase.events_bytes.iter().sum::<u64>() as f64
        / traced_phase.events_bytes.len().max(1) as f64;
    layers.bench_trace_overhead_frac = mean(&traced_phase) / mean(&untraced) - 1.0;
    let request_wall = crate::spans::total(&spans, "request");
    layers.bench_accounted_frac = layers.accounted(request_wall);
    Layers::check_accounting(
        &mut outcome,
        "serve-warm re-tunes",
        layers.bench_accounted_frac,
    );
    layers.report(&mut outcome);
    outcome
}

/// Pins the `serve-warm` oracle from a cold local `TuneRequest::run` of
/// every distinct request: its normalized manifest fingerprint and the
/// points its search requested.
///
/// # Errors
///
/// Returns a message when a local run fails.
pub fn pin_serve_warm() -> Result<Vec<(u64, oracles::ServeOracle)>, String> {
    distinct_requests()
        .iter()
        .map(|r| {
            let resp = r.run().map_err(|e| e.to_string())?;
            let manifest = run_manifest(&r.kernel.name, &r.machine, &r.options, &r.engine, &resp);
            let oracle = oracles::ServeOracle {
                manifest: normalized_manifest(&manifest),
                requested: requested(&manifest),
            };
            Ok((r.fingerprint(), oracle))
        })
        .collect()
}
