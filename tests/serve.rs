//! Service-layer integration tests: the `eco serve` protocol over a
//! Unix socket — concurrent identical tune requests share one search
//! (in-flight dedupe plus the shared engine's memo cache), responses
//! embed the same deterministic manifest a local run renders, and the
//! stats/store-stats/ping/shutdown ops answer as documented.

use eco_bench::serve::{self, LogLevel, ServeConfig, Server};
use eco_core::events::Json;
use eco_core::{EngineConfig, SearchOptions, TuneRequest};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::path::PathBuf;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_request() -> TuneRequest {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(16)
        .max_variants(1)
        .build()
        .expect("options");
    TuneRequest::new(Kernel::matmul(), machine).options(opts)
}

/// Starts a server on a scratch socket and returns it with the join
/// handle of its accept loop.
fn start_server(
    dir: &std::path::Path,
    engine: EngineConfig,
) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = dir.join("eco.sock");
    let server = Server::bind(ServeConfig {
        socket: socket.clone(),
        engine,
        events: Some(dir.join("serve.events.jsonl").display().to_string()),
        log_level: LogLevel::Quiet,
        slow_ms: 1000,
    })
    .expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    // The listener is bound before `bind` returns, so clients can
    // connect immediately; no readiness poll needed.
    (socket, handle)
}

fn shutdown(socket: &std::path::Path) {
    let doc =
        serve::request(socket, &Json::obj().field("op", Json::str("shutdown"))).expect("shutdown");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn concurrent_identical_tunes_share_one_simulation_pass() {
    // What one isolated run of the same request evaluates — the
    // deterministic search makes this the exact unique-point count.
    let expected = tiny_request().run().expect("local run").engine.evaluated;
    assert!(expected > 0);

    let dir = scratch("dedupe");
    let store = dir.join("store");
    let (socket, handle) =
        start_server(&dir, EngineConfig::new().store(store.display().to_string()));

    let tune_line = Json::obj()
        .field("op", Json::str("tune"))
        .field("request", tiny_request().to_json());
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            let line = tune_line.render_compact();
            std::thread::spawn(move || {
                let doc = Json::parse(&line).expect("request parses");
                serve::request(&socket, &doc).expect("tune request")
            })
        })
        .collect();
    let responses: Vec<Json> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    for doc in &responses {
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
    }
    let first = responses[0].render();
    for doc in &responses[1..] {
        assert_eq!(doc.render(), first, "identical requests, identical bytes");
    }

    // The dedupe assert: 4 concurrent tunes of the same request must
    // cost exactly one simulation pass. Whether a request waited on the
    // in-flight owner or re-ran against the shared engine, the engine's
    // unique-evaluation count cannot exceed one isolated run's.
    let stats =
        serve::request(&socket, &Json::obj().field("op", Json::str("stats"))).expect("stats");
    assert_eq!(stats.get("tunes").and_then(Json::as_u64), Some(4));
    let engines = match stats.get("engines") {
        Some(Json::Obj(fields)) => fields,
        other => panic!("engines object missing: {other:?}"),
    };
    assert_eq!(engines.len(), 1, "one machine, one shared engine");
    let evaluated = engines[0]
        .1
        .get("evaluated")
        .and_then(Json::as_u64)
        .expect("evaluated");
    assert_eq!(
        evaluated, expected,
        "4 identical tunes must simulate exactly one search's worth of points"
    );
    let deduped = stats
        .get("deduped_requests")
        .and_then(Json::as_u64)
        .expect("deduped_requests");
    assert!(deduped <= 3, "at most 3 of 4 requests can be followers");

    // The shared store saw the searched points.
    let store_stats = serve::request(&socket, &Json::obj().field("op", Json::str("store-stats")))
        .expect("store-stats");
    assert_eq!(
        store_stats.get("configured").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        store_stats
            .get("puts")
            .and_then(Json::as_u64)
            .expect("puts")
            > 0
    );

    shutdown(&socket);
    handle.join().expect("server thread");

    // The request-level event stream recorded every protocol request.
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).expect("events");
    assert!(
        events.matches("serve_request").count() >= 7,
        "4 tunes + stats + store-stats + shutdown:\n{events}"
    );
    assert_eq!(
        events.matches("serve_request").count(),
        events.matches("serve_done").count(),
        "every request gets a done event"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite coverage for `ServeStats` and the per-server metrics
/// registry: mixed concurrent traffic — pings, unknown ops, identical
/// tunes — then exact totals from both the `stats` op and a parsed
/// `metrics` exposition.
#[test]
fn mixed_concurrent_traffic_counts_exactly() {
    use eco_metrics::parse_exposition;

    let dir = scratch("mixed");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    let mut clients = Vec::new();
    for _ in 0..3 {
        let socket = socket.clone();
        clients.push(std::thread::spawn(move || {
            let doc =
                serve::request(&socket, &Json::obj().field("op", Json::str("ping"))).expect("ping");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }));
    }
    for _ in 0..2 {
        let socket = socket.clone();
        clients.push(std::thread::spawn(move || {
            let doc = serve::request(&socket, &Json::obj().field("op", Json::str("explode")))
                .expect("error response");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        }));
    }
    for _ in 0..4 {
        let socket = socket.clone();
        let line = Json::obj()
            .field("op", Json::str("tune"))
            .field("request", tiny_request().to_json())
            .render_compact();
        clients.push(std::thread::spawn(move || {
            let doc = serve::request(&socket, &Json::parse(&line).expect("request parses"))
                .expect("tune");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // Exact ServeStats totals: 3 pings + 2 unknown + 4 tunes + this
    // stats request itself = 10 requests, 2 of them errors.
    let stats =
        serve::request(&socket, &Json::obj().field("op", Json::str("stats"))).expect("stats");
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(10));
    assert_eq!(stats.get("tunes").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("shards").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(2));
    let deduped = stats
        .get("deduped_requests")
        .and_then(Json::as_u64)
        .expect("deduped_requests");
    assert!(deduped <= 3, "at most 3 of 4 identical tunes follow");

    // The same totals through the metrics op, as Prometheus text. The
    // per-server registry makes these exact even under a parallel test
    // run (global-registry engine counters would cross-pollute).
    let scraped =
        serve::request(&socket, &Json::obj().field("op", Json::str("metrics"))).expect("metrics");
    assert_eq!(scraped.get("ok").and_then(Json::as_bool), Some(true));
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics text");
    let exp = parse_exposition(text).expect("exposition parses");
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "ping")]),
        Some(3.0)
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "tune")]),
        Some(4.0)
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "other")]),
        Some(2.0),
        "unknown ops land in the bounded 'other' label"
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "stats")]),
        Some(1.0)
    );
    assert_eq!(exp.value("eco_serve_errors_total", &[]), Some(2.0));
    assert_eq!(
        exp.value("eco_serve_deduped_requests_total", &[]),
        Some(deduped as f64)
    );
    // 10 handled so far — the metrics scrape does not count itself.
    assert_eq!(exp.total("eco_serve_requests_total"), 10.0);
    assert_eq!(
        exp.value("eco_serve_request_duration_us_count", &[("op", "tune")]),
        Some(4.0),
        "every tune request is timed"
    );
    assert_eq!(
        exp.value("eco_serve_inflight", &[]),
        Some(0.0),
        "the scrape excludes itself from the in-flight gauge"
    );
    assert_eq!(
        exp.types
            .get("eco_serve_requests_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        exp.types
            .get("eco_serve_request_duration_us")
            .map(String::as_str),
        Some("histogram")
    );

    shutdown(&socket);
    handle.join().expect("server thread");

    // Failed requests carry the error string on their serve_done event.
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).expect("events");
    let error_dones = events
        .lines()
        .filter(|l| l.contains("serve_done") && l.contains("unknown op 'explode'"))
        .count();
    assert_eq!(
        error_dones, 2,
        "both failures record their error:\n{events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live-telemetry ops: `watch` replays a completed tune's event
/// stream over the connection, and `trace` returns the same stream
/// with the stored response for offline rendering.
#[test]
fn watch_and_trace_replay_a_completed_tune() {
    use eco_core::events::check_stream;

    let dir = scratch("watch");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    let served = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", tiny_request().to_json()),
    )
    .expect("tune");
    assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));
    let fp_text = served
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    let fp = u64::from_str_radix(fp_text.trim_start_matches("0x"), 16).expect("hex fingerprint");

    // watch replays the search's event stream line by line.
    let mut lines = Vec::new();
    let header = serve::watch(&socket, fp, |line| lines.push(line.to_string())).expect("watch");
    assert_eq!(header.get("live").and_then(Json::as_bool), Some(false));
    assert!(!lines.is_empty(), "a tune search emits events");
    let replayed = lines.join("\n") + "\n";
    check_stream(&replayed).expect("replayed stream is well-formed");

    // trace returns the identical stream plus the stored response.
    let traced = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("trace"))
            .field("fingerprint", Json::str(&fp_text)),
    )
    .expect("trace");
    assert_eq!(traced.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(traced.get("op").and_then(Json::as_str), Some("tune"));
    assert_eq!(
        traced.get("events").and_then(Json::as_str),
        Some(replayed.as_str()),
        "trace and watch see the same stored stream"
    );
    assert_eq!(
        traced
            .get_path("response.manifest")
            .map(eco_core::events::Json::render),
        served.get("manifest").map(eco_core::events::Json::render),
        "trace stores the original response"
    );

    // trace without a fingerprint returns the latest completed request.
    let latest = serve::request(&socket, &Json::obj().field("op", Json::str("trace")))
        .expect("trace latest");
    assert_eq!(
        latest.get("fingerprint").and_then(Json::as_str),
        Some(fp_text.as_str())
    );

    // Watching an unknown fingerprint is an error, not a hang.
    let missing = serve::watch(&socket, fp ^ 0xdead_beef, |_| {});
    assert!(missing.is_err(), "unknown fingerprint refuses cleanly");

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_tune_matches_a_local_manifest_and_reports_errors() {
    let dir = scratch("manifest");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    // ping answers with the protocol and API versions.
    let pong = serve::request(&socket, &Json::obj().field("op", Json::str("ping"))).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        pong.get("api_version").and_then(Json::as_u64),
        Some(eco_core::API_VERSION)
    );

    // A served tune embeds the byte-identical local manifest.
    let request = tiny_request();
    let local = request.run().expect("local run");
    let local_manifest = eco_core::run_manifest(
        &request.kernel.name,
        &request.machine,
        &request.options,
        &EngineConfig::new(),
        &local,
    )
    .render();
    let served = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", request.to_json()),
    )
    .expect("served tune");
    assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));
    let manifest = served.get("manifest").expect("manifest in response");
    assert_eq!(
        manifest.render(),
        local_manifest,
        "served and local manifests must be the same bytes"
    );

    // Unknown ops and malformed tunes answer ok=false, not a hangup.
    let bad = serve::request(&socket, &Json::obj().field("op", Json::str("explode")))
        .expect("error response");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("unknown op"));
    let bad_tune = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", Json::obj()),
    )
    .expect("error response");
    assert_eq!(bad_tune.get("ok").and_then(Json::as_bool), Some(false));

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_line_cap_covers_every_client_request() {
    use eco_bench::figures::FIGURES;
    use eco_core::SweepPlan;
    // The lines this repository's clients send: `tune` requests (with
    // certification and a robustness size, as `perfbench` sends them)
    // for every kernel on full-size and scaled machines, and every
    // figure's sweep shards with all sizes in one shard.
    let mut lines: Vec<String> = Vec::new();
    for machine in [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()] {
        for machine in [machine.clone(), machine.scaled(eco_bench::FIGURE_SCALE)] {
            for kernel in Kernel::all() {
                let opts = SearchOptions::builder()
                    .search_n(24)
                    .robustness_sizes(vec![31])
                    .certify(true)
                    .build()
                    .expect("options");
                let request = TuneRequest::new(kernel, machine.clone()).options(opts);
                lines.push(
                    Json::obj()
                        .field("op", Json::str("tune"))
                        .field("request", request.to_json())
                        .render_compact(),
                );
            }
        }
    }
    for def in FIGURES {
        for scale in [1, eco_bench::FIGURE_SCALE] {
            let plan = SweepPlan::plan(&def.spec_with_scale(scale), usize::MAX).expect("plan");
            for shard in &plan.shards {
                lines.push(
                    Json::obj()
                        .field("op", Json::str("shard"))
                        .field("shard", shard.to_json())
                        .render_compact(),
                );
            }
        }
    }
    // 878 bytes when the cap was set; the cap keeps 32x headroom.
    let largest = lines.iter().map(String::len).max().expect("lines");
    assert!(
        largest * 32 < serve::MAX_REQUEST_LINE,
        "largest client request is {largest} bytes; re-derive MAX_REQUEST_LINE"
    );
}

#[test]
fn endless_request_line_gets_a_typed_error_and_the_daemon_lives_on() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let dir = scratch("endless");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    // A peer that streams one line forever, with no newline.
    let stream = UnixStream::connect(&socket).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 8192];
        let mut sent = 0usize;
        while writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
            if sent > 64 * serve::MAX_REQUEST_LINE {
                break;
            }
        }
        sent
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed error line");
    let doc = Json::parse(line.trim_end()).expect("json reply");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some("request_too_large")
    );
    // The daemon closed the connection: the flood stops well short of
    // its own limit, and nothing follows the error line (end of stream,
    // or a reset because the daemon left the flood unread).
    let sent = flood.join().expect("flood thread");
    assert!(
        sent < 64 * serve::MAX_REQUEST_LINE,
        "flood ran to {sent} bytes"
    );
    line.clear();
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "{line}"
    );

    // The daemon serves the next connection and counted the oversized line.
    let metrics =
        serve::request(&socket, &Json::obj().field("op", Json::str("metrics"))).expect("metrics");
    let text = metrics
        .get("metrics")
        .and_then(Json::as_str)
        .expect("exposition");
    assert!(
        text.contains("eco_serve_oversized_requests_total 1"),
        "{text}"
    );
    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
