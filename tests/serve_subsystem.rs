//! Failure-path tests for the allocation service: every abnormal outcome
//! must be a structured JSON response, and none may take the server down.
//! Plus the observability contracts: the documented `stats` field set, the
//! `metrics` exposition, counter conservation at quiescence, span logging,
//! and the guarantee that telemetry never changes response bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use second_chance_regalloc::ir::fnv64;
use second_chance_regalloc::server::json_in::{self, JsonValue};
use second_chance_regalloc::server::{serve_tcp, ServeConfig, Service, STATS_FIELDS};
use second_chance_regalloc::trace::json::validate;

fn service(cfg: ServeConfig) -> Service {
    Service::start(cfg)
}

fn small_cfg() -> ServeConfig {
    ServeConfig { workers: 2, cache_bytes: 1 << 20, ..ServeConfig::default() }
}

/// Every response the service produces must pass the shared JSON validator.
fn call(s: &Service, line: &str) -> String {
    let resp = s.call(line);
    validate(&resp).unwrap_or_else(|e| panic!("invalid response JSON {resp}: {e}"));
    resp
}

#[test]
fn malformed_json_gets_an_error_and_serving_continues() {
    let s = service(small_cfg());
    for bad in [
        "this is not json",
        "{\"id\": \"x\"",                                            // truncated
        "{\"id\": \"x\", \"op\": \"nope\"}",                         // unknown op
        "{\"id\": \"x\", \"workload\": 7}",                          // wrong type
        "{\"id\": \"x\", \"bogus\": true}",                          // unknown field
        "{\"id\": \"x\"}",                                           // no program at all
        "{\"id\": \"x\", \"workload\": \"wc\", \"program\": \"x\"}", // both sources
    ] {
        let resp = call(&s, bad);
        assert!(resp.contains("\"status\": \"error\""), "{bad} => {resp}");
    }
    // The connection-level invariant: after any amount of garbage, a good
    // request still succeeds.
    let ok = call(&s, r#"{"id": "after", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    let snap = s.counters();
    assert_eq!(snap.errors, 7, "one structured error per bad line");
    assert_eq!(snap.ok, 1);
}

#[test]
fn deeply_nested_json_is_a_parse_error_not_a_stack_overflow() {
    let s = service(small_cfg());
    // ~100 KB, well under the default `max_request_bytes`: the request
    // parser must refuse it by its nesting bound instead of recursing
    // 50,000 levels deep (a stack overflow aborts the process, which no
    // `catch_unwind` can confine).
    let deep = "[".repeat(50_000);
    let resp = call(&s, &deep);
    let v = json_in::parse(&resp).unwrap();
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"), "{resp}");
    let msg = v.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(msg.starts_with("parse: nesting deeper than 128"), "{msg}");
    let ok = call(&s, r#"{"id": "after", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    let snap = s.counters();
    assert_eq!((snap.errors, snap.ok), (1, 1));
}

#[test]
fn oversized_requests_are_rejected_before_parsing() {
    let s = service(ServeConfig { max_request_bytes: 128, ..small_cfg() });
    let huge = format!(r#"{{"id": "big", "program": "{}"}}"#, "x".repeat(4096));
    let resp = call(&s, &huge);
    assert!(resp.contains("\"status\": \"too_large\""), "{resp}");
    assert_eq!(s.counters().too_large, 1);
    // Still serving.
    let ok = call(&s, r#"{"id": "n", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
}

#[test]
fn deadline_overrun_times_out_but_the_worker_survives() {
    let s = service(ServeConfig { workers: 1, ..small_cfg() });
    let resp =
        call(&s, r#"{"id": "slow", "workload": "wc", "timeout_ms": 20, "inject_sleep_ms": 400}"#);
    assert!(resp.contains("\"status\": \"timeout\""), "{resp}");
    assert_eq!(s.counters().timeouts, 1);
    // The worker that slept through the deadline keeps serving afterwards.
    let ok = call(&s, r#"{"id": "next", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
}

#[test]
fn queue_overflow_is_answered_overloaded_immediately() {
    // One worker, queue depth one: occupy the worker, fill the queue, and
    // the next request must bounce without blocking. Each occupancy step is
    // confirmed through the service's own gauges before the next request is
    // sent, so neither occupying request can race the other into the bounce.
    let s = Arc::new(service(ServeConfig { workers: 1, max_queue: 1, ..small_cfg() }));
    let spawn_slow = |i: usize| {
        let s = Arc::clone(&s);
        std::thread::spawn(move || {
            s.call(&format!(r#"{{"id": "slow{i}", "workload": "wc", "inject_sleep_ms": 800}}"#))
        })
    };
    let wait_for = |what: &str, pred: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !pred() {
            assert!(std::time::Instant::now() < deadline, "{what} never happened");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    // First slow request: wait until the worker has dequeued it. The gauge
    // is bumped under the queue lock, so in_flight == 1 implies the queue
    // is empty again and the second request cannot bounce.
    let first = spawn_slow(0);
    wait_for("worker pickup", &|| s.counters().in_flight == 1);
    let second = spawn_slow(1);
    wait_for("queue fill", &|| s.counters().queue_depth == 1);
    // Worker busy, queue full: the probe must bounce, and immediately —
    // well inside the 800 ms the worker still has to sleep.
    let t0 = std::time::Instant::now();
    let resp = call(&s, r#"{"id": "probe", "workload": "wc"}"#);
    assert!(resp.contains("\"status\": \"overloaded\""), "{resp}");
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(250),
        "overloaded must be immediate, took {:?}",
        t0.elapsed()
    );
    assert_eq!(s.counters().overloaded, 1);
    for h in [first, second] {
        let resp = h.join().unwrap();
        assert!(resp.contains("\"status\": \"ok\""), "occupying request failed: {resp}");
    }
}

#[test]
fn a_panicking_request_is_confined_to_its_response() {
    let s = service(ServeConfig { workers: 1, ..small_cfg() });
    let resp = call(&s, r#"{"id": "boom", "workload": "wc", "inject_panic": true}"#);
    assert!(resp.contains("\"status\": \"error\""), "{resp}");
    assert!(resp.contains("injected panic"), "{resp}");
    // Same single worker thread, next request: the pool survived the panic.
    let ok = call(&s, r#"{"id": "next", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    let snap = s.counters();
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.errors, 1);
    assert_eq!(snap.ok, 1);
}

#[test]
fn repeated_requests_are_byte_identical_and_hit_the_cache() {
    let s = service(small_cfg());
    let line = r#"{"id": "r", "workload": "compress", "emit_module": true, "run": true}"#;
    let first = call(&s, line);
    let second = call(&s, line);
    assert_eq!(first, second, "hit and miss must render identically");
    let snap = s.counters();
    assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
    // Textually different spellings of the same request body (field order,
    // whitespace) share the canonical cache entry.
    let respaced = r#"{ "run": true, "emit_module": true, "workload": "compress", "id": "r" }"#;
    let third = call(&s, respaced);
    assert_eq!(third, first);
    assert_eq!(s.counters().cache_hits, 2);
}

#[test]
fn tcp_round_trip_serves_and_shuts_down() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let svc = Arc::new(service(small_cfg()));
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || serve_tcp(svc, listener))
    };
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        reader.get_mut().write_all(line.as_bytes()).unwrap();
        reader.get_mut().write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let resp = resp.trim_end().to_string();
        validate(&resp).unwrap_or_else(|e| panic!("invalid response JSON {resp}: {e}"));
        resp
    };
    let ok = send(r#"{"id": "tcp1", "workload": "wc"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    let err = send("garbage over tcp");
    assert!(err.contains("\"status\": \"error\""), "{err}");
    let bye = send(r#"{"id": "bye", "op": "shutdown"}"#);
    assert!(bye.contains("\"op\": \"shutdown\""), "{bye}");
    server.join().unwrap().unwrap();
    assert!(svc.is_shutting_down());
}

/// The `stats` response carries exactly the fields `STATS_FIELDS`
/// documents, in order — adding a counter without documenting it in the
/// protocol module docs fails here.
#[test]
fn stats_fields_match_the_documented_set_exactly() {
    let s = service(small_cfg());
    let resp = call(&s, r#"{"id": "s", "op": "stats"}"#);
    let JsonValue::Object(fields) = json_in::parse(&resp).unwrap() else {
        panic!("stats response is not an object: {resp}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, STATS_FIELDS, "stats fields drifted from the documented set");
}

/// The `metrics` op returns a well-formed Prometheus text exposition (no
/// duplicate series, every sample line parseable) and a JSON exposition
/// whose counters satisfy the conservation invariant at quiescence.
#[test]
fn metrics_op_exposition_is_well_formed_and_conserves() {
    let s = service(small_cfg());
    // A mixed batch: miss, hit, lint, parse error, too-big is skipped here
    // (covered elsewhere); then quiesce and read the books.
    call(&s, r#"{"id": "a", "workload": "wc"}"#);
    call(&s, r#"{"id": "b", "workload": "wc"}"#);
    call(&s, r#"{"id": "l", "op": "lint", "workload": "wc"}"#);
    call(&s, "definitely not json");
    let resp = call(&s, r#"{"id": "m", "op": "metrics"}"#);
    let v = json_in::parse(&resp).unwrap();

    // Prometheus half: unique series, parseable sample lines.
    let text = v.get("prometheus").and_then(JsonValue::as_str).unwrap();
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(seen.insert(name.to_string()), "duplicate series `{name}`");
    }
    assert!(!seen.is_empty(), "no series at all:\n{text}");
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line}"));
        assert!(!name.is_empty(), "{line}");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in `{line}`");
    }

    // JSON half: counters obey conservation once in_flight and the queue
    // are both empty (they are — `call` is synchronous).
    let c = |k: &str| {
        v.get("json")
            .and_then(|j| j.get("counters"))
            .and_then(|cs| cs.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing counter {k}: {resp}"))
    };
    let requests = c("lsra_requests_total");
    let accounted = c("lsra_responses_ok_total")
        + c("lsra_responses_error_total")
        + c("lsra_responses_timeout_total")
        + c("lsra_responses_overloaded_total")
        + c("lsra_responses_too_large_total")
        + c("lsra_responses_inline_total");
    assert_eq!(requests, accounted, "conservation violated: {resp}");
    assert_eq!(requests, 5, "the metrics request itself is the fifth");
}

/// Conservation holds after every failure path fires at least once:
/// too-large, parse error, timeout, panic, plus regular traffic.
#[test]
fn conservation_survives_every_failure_path() {
    let s = service(ServeConfig { workers: 1, max_request_bytes: 2048, ..small_cfg() });
    call(&s, r#"{"id": "ok", "workload": "wc"}"#);
    call(&s, &format!(r#"{{"id": "big", "program": "{}"}}"#, "x".repeat(4096)));
    call(&s, "garbage");
    call(&s, r#"{"id": "slow", "workload": "wc", "timeout_ms": 10, "inject_sleep_ms": 300}"#);
    call(&s, r#"{"id": "boom", "workload": "wc", "inject_panic": true}"#);
    call(&s, r#"{"id": "l", "op": "lint", "workload": "wc"}"#);
    // Quiesce: the timed-out job may still be executing in the worker.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let snap = s.counters();
        if snap.in_flight == 0 && snap.queue_depth == 0 {
            assert_eq!(
                snap.requests,
                snap.accounted(),
                "requests must equal terminal responses at quiescence: {snap:?}"
            );
            assert_eq!(snap.too_large, 1);
            assert_eq!(snap.timeouts, 1);
            assert_eq!(snap.panics, 1);
            break;
        }
        assert!(std::time::Instant::now() < deadline, "service never quiesced");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Telemetry must be observation only: the same request yields the same
/// response bytes with span logging on (slow tracing included) and off.
#[test]
fn responses_are_byte_identical_with_telemetry_on_and_off() {
    let log = std::env::temp_dir().join(format!("lsra-span-digest-{}.jsonl", std::process::id()));
    let plain = service(small_cfg());
    let logged = service(ServeConfig {
        telemetry_log: Some(log.to_string_lossy().into_owned()),
        slow_ms: Some(0),
        ..small_cfg()
    });
    let lines = [
        r#"{"id": "r1", "workload": "wc", "emit_module": true}"#.to_string(),
        r#"{"id": "r1", "workload": "wc", "emit_module": true}"#.to_string(),
        r#"{"id": "r2", "workload": "compress", "run": true}"#.to_string(),
        r#"{"id": "l", "op": "lint", "workload": "wc"}"#.to_string(),
        "broken".to_string(),
    ];
    for line in &lines {
        let a = call(&plain, line);
        let b = call(&logged, line);
        assert_eq!(fnv64(a.as_bytes()), fnv64(b.as_bytes()), "telemetry changed bytes: {line}");
        assert_eq!(a, b);
    }
    drop(logged);
    let _ = std::fs::remove_file(&log);
}

/// `--telemetry-log` streams one valid JSONL span per request, and with a
/// zero slow threshold every alloc span embeds an annotated decision trace.
#[test]
fn span_log_streams_one_valid_span_per_request() {
    let log = std::env::temp_dir().join(format!("lsra-span-log-{}.jsonl", std::process::id()));
    let path = log.to_string_lossy().into_owned();
    {
        let s = service(ServeConfig {
            telemetry_log: Some(path.clone()),
            slow_ms: Some(0),
            ..small_cfg()
        });
        call(&s, r#"{"id": "miss", "workload": "wc"}"#);
        call(&s, r#"{"id": "miss", "workload": "wc"}"#); // cache hit
        call(&s, r#"{"id": "s", "op": "stats"}"#);
        call(&s, "not json");
        s.shutdown();
    }
    let text = std::fs::read_to_string(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    let spans: Vec<JsonValue> = text
        .lines()
        .map(|l| {
            validate(l).unwrap_or_else(|e| panic!("invalid span line {l}: {e}"));
            json_in::parse(l).unwrap()
        })
        .collect();
    assert_eq!(spans.len(), 4, "one span per request:\n{text}");
    let field = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_str).unwrap().to_string();
    assert_eq!(field(&spans[0], "op"), "alloc");
    assert_eq!(
        spans[0].get("cache").and_then(JsonValue::as_bool),
        Some(false),
        "first alloc is a miss"
    );
    assert!(
        field(&spans[0], "trace").contains("annotated decision trace"),
        "slow-ms 0 must capture a trace"
    );
    assert!(
        spans[0].get("phases").and_then(|p| p.get("scan")).is_some(),
        "miss span carries phase timings"
    );
    assert_eq!(spans[1].get("cache").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(field(&spans[2], "op"), "stats");
    assert_eq!(field(&spans[3], "op"), "invalid");
    assert_eq!(field(&spans[3], "status"), "error");
    // Spans are sequenced in arrival order.
    let seqs: Vec<u64> =
        spans.iter().map(|s| s.get("seq").and_then(JsonValue::as_u64).unwrap()).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);
}
