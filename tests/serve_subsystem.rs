//! Failure-path tests for the allocation service: every abnormal outcome
//! must be a structured JSON response, and none may take the server down.
//! Plus the observability contracts: the documented `stats` field set, the
//! `metrics` exposition, counter conservation at quiescence, span logging,
//! and the guarantee that telemetry never changes response bytes. Plus the
//! cache-key contracts (a key covers everything that shapes a reply, and
//! formatting never splits an entry) and the JSON escaper replies go
//! through.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use second_chance_regalloc::fuzz::reformat_program;
use second_chance_regalloc::ir::fnv64;
use second_chance_regalloc::server::json_in::{self, JsonValue};
use second_chance_regalloc::server::protocol::ALLOCATOR_NAMES;
use second_chance_regalloc::server::{
    expected_response_line, parse_request, serve_tcp, ParsedLine, ServeConfig, Service,
    STATS_FIELDS,
};
use second_chance_regalloc::trace::json::{escape_into, validate, JsonWriter};
use second_chance_regalloc::workloads::{self, Lcg};

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

/// A program the machine cannot hold (an instruction reading more distinct
/// temporaries of one class than the machine has registers of that class)
/// is refused before any allocator sees it. Coloring used to spin on it and
/// wedge the only worker, so the request queued behind it timed out too.
#[test]
fn a_program_the_machine_cannot_hold_is_refused_and_the_worker_stays_free() {
    let s = service(ServeConfig { workers: 1, ..small_cfg() });
    let bound = std::time::Duration::from_secs(10);
    let t0 = std::time::Instant::now();
    let resp = call(
        &s,
        r#"{"id": "tight", "workload": "alvinn", "allocator": "coloring", "machine": "small:2,1", "timeout_ms": 2000}"#,
    );
    let v = json_in::parse(&resp).unwrap();
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"), "{resp}");
    let msg = v.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(
        msg.starts_with("workload `alvinn`: in main, ")
            && msg.ends_with(
                "does not fit the machine: reads 2 distinct float temporaries, \
                 but small:2,1 has 1 float register(s)"
            ),
        "{msg}"
    );
    assert!(t0.elapsed() < bound, "refusal took {:?}", t0.elapsed());
    let t1 = std::time::Instant::now();
    let ok = call(
        &s,
        r#"{"id": "next", "workload": "wc", "allocator": "binpack", "machine": "alpha", "timeout_ms": 2000}"#,
    );
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    assert!(t1.elapsed() < bound, "the request behind it took {:?}", t1.elapsed());
    let snap = s.counters();
    assert_eq!((snap.errors, snap.ok, snap.timeouts), (1, 1, 0));
    assert_eq!((snap.in_flight, snap.queue_depth), (0, 0));
    assert_eq!(snap.requests, snap.accounted(), "{snap:?}");
}

/// No shape panics: every built-in workload under every allocator on the
/// two smallest machines answers `ok` or a structured refusal, never a
/// caught panic, each within a fixed bound (coloring once spun on `sort`
/// here), for both the `alloc` and the `lint` op, and the counters
/// balance. `li` and `sort` read `r3`, which neither machine has, and
/// their refusals say so (the `lint` op once allocated them anyway and
/// panicked).
#[test]
fn every_workload_on_the_smallest_machines_is_answered_or_refused() {
    let s = service(small_cfg());
    let bound = std::time::Duration::from_secs(20);
    let mut sent = 0;
    for w in workloads::all() {
        for a in ALLOCATOR_NAMES {
            for (m, op) in ["small:2,1", "small:3,2"]
                .into_iter()
                .flat_map(|m| ["alloc", "lint"].map(|op| (m, op)))
            {
                let case = format!("{op} of {} under {a} on {m}", w.name);
                let line = format!(
                    r#"{{"id": "x", "op": "{op}", "workload": "{}", "allocator": "{a}", "machine": "{m}"}}"#,
                    w.name
                );
                let t0 = std::time::Instant::now();
                let resp = call(&s, &line);
                sent += 1;
                assert!(t0.elapsed() < bound, "{case} took {:?}", t0.elapsed());
                let v = json_in::parse(&resp).unwrap();
                let status = v.get("status").and_then(JsonValue::as_str);
                let error = v.get("error").and_then(JsonValue::as_str);
                match (status, error) {
                    (Some("ok"), _) => assert!(!matches!(w.name, "li" | "sort"), "{case}: {resp}"),
                    (Some("error"), Some(msg)) => {
                        assert!(!msg.starts_with("panic"), "{case}: {msg}");
                        if matches!(w.name, "li" | "sort") {
                            assert!(msg.contains(": names r3, but "), "{case}: {msg}");
                        }
                    }
                    _ => panic!("{case}: {resp}"),
                }
            }
        }
    }
    let snap = s.counters();
    assert_eq!(snap.ok + snap.errors, sent, "{snap:?}");
    assert_eq!((snap.timeouts, snap.panics), (0, 0), "{snap:?}");
    assert_eq!((snap.in_flight, snap.queue_depth), (0, 0));
    assert_eq!(snap.requests, snap.accounted(), "{snap:?}");
}

/// An inline program that parses reaches the rule lints through the `lint`
/// op: a class mismatch and a jump to a missing block are two errors of an
/// `ok` reply, each at its source line, not a parse error.
#[test]
fn lint_op_reports_rule_findings_of_inline_text() {
    let program = "module m (0 words data)\nentry @0\nfunc @main() {\n  temps t0:i t1:f\nb0:\n  t0 = 1\n  t1 = add t0, t0\n  jmp b7\n}\n";
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", "r");
    w.field_str("op", "lint");
    w.field_str("program", program);
    w.end_object();
    let s = service(small_cfg());
    let resp = call(&s, &w.finish());
    let v = json_in::parse(&resp).unwrap();
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"), "{resp}");
    assert_eq!(v.get("errors").and_then(JsonValue::as_u64), Some(2), "{resp}");
    assert!(resp.contains(r#""code": "L005""#) && resp.contains(r#""line": 7"#), "{resp}");
    assert!(resp.contains(r#""code": "L003""#) && resp.contains(r#""line": 8"#), "{resp}");
}

/// An operation with more sources than an instruction stores (three or
/// four for a binary op) is refused by the reader: a structured error at
/// its line for both `alloc` and `lint`, never a panic.
#[test]
fn operations_with_too_many_sources_are_refused_at_their_line() {
    let s = service(small_cfg());
    for (srcs, got) in [("t0, t0, t0", 3), ("t0, t0, t0, t0", 4)] {
        let program = format!(
            "module m (0 words data)\nentry @0\nfunc @main() {{\n  temps t0:i t1:i\nb0:\n  t0 = 1\n  t1 = add {srcs}\n  ret\n}}\n"
        );
        for op in ["alloc", "lint"] {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("id", "long");
            w.field_str("op", op);
            w.field_str("program", &program);
            w.end_object();
            let resp = call(&s, &w.finish());
            let v = json_in::parse(&resp).unwrap();
            assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"), "{resp}");
            let msg = v.get("error").and_then(JsonValue::as_str).unwrap();
            let want = format!("line 7: add expects 2 sources, got {got}");
            assert!(msg.ends_with(&want), "{op}: {msg}");
        }
    }
    let snap = s.counters();
    assert_eq!((snap.errors, snap.panics), (4, 0), "{snap:?}");
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

/// An inline-program `alloc` request line for `program`.
fn program_line(id: &str, program: &str, run: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    w.field_str("program", program);
    w.key("run");
    w.bool(run);
    w.key("emit_module");
    w.bool(true);
    w.end_object();
    w.finish()
}

fn expected(line: &str) -> String {
    let Ok(ParsedLine::Alloc(req)) = parse_request(line) else { panic!("not alloc: {line}") };
    expected_response_line(&req)
}

#[test]
fn a_workload_and_its_inline_text_do_not_share_an_entry() {
    // The workload runs on its own input, the inline copy on empty input:
    // the same canonical text must not make the second reply the first's.
    let s = service(small_cfg());
    let by_name = call(&s, r#"{"id": "p", "workload": "wc", "run": true, "emit_module": true}"#);
    let text = ((workloads::by_name("wc").expect("wc").build)()).to_string();
    let line = program_line("p", &text, true);
    let inline = call(&s, &line);
    assert_eq!(inline, expected(&line), "the inline copy must run on empty input");
    assert_ne!(inline, by_name);
    assert_eq!(s.counters().cache_hits, 0, "two different requests, two entries");
}

#[test]
fn one_program_reaches_one_entry_however_it_is_formatted() {
    let s = service(small_cfg());
    let canonical = ((workloads::by_name("eqntott").expect("eqntott").build)()).to_string();
    let reformatted = reformat_program(&canonical);
    assert_ne!(reformatted, canonical);
    let line = program_line("f", &canonical, false);
    let want = expected(&line);
    assert!(want.contains(r#""status": "ok""#), "{want}");
    // A miss, a hit through the canonical-key probe, another such hit, and
    // a hit through the raw-text probe.
    for (sent, program) in
        [&canonical, &reformatted, &reformat_program(&reformatted), &canonical].iter().enumerate()
    {
        let got = call(&s, &program_line("f", program, false));
        assert_eq!(got, want, "send {sent} must reply the direct bytes");
        let snap = s.counters();
        assert_eq!((snap.cache_hits, snap.cache_misses), (sent as u64, 1), "after send {sent}");
    }
    assert_eq!(s.counters().cache_entries, 1);
}

/// The escaper as it was before copying by runs: one `char` at a time.
fn escape_charwise(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn escaped(s: &str) -> String {
    let mut out = String::new();
    escape_into(&mut out, s);
    out
}

#[test]
fn escaping_by_runs_matches_the_charwise_escaper() {
    for b in 0u8..0x80 {
        let c = char::from(b);
        for s in [c.to_string(), format!("ab{c}"), format!("{c}cd"), format!("a{c}{c}b")] {
            assert_eq!(escaped(&s), escape_charwise(&s), "{s:?}");
        }
    }
    let wide = ["\u{e9}", "\u{20ac}", "\u{1d11e}", "\u{7f}", "\u{80}", "\u{2028}"];
    for w in wide {
        let s = format!("\"{w}\n{w}\\{w}\u{1}");
        assert_eq!(escaped(&s), escape_charwise(&s), "{s:?}");
    }
    let mut rng = Lcg::new(0x6a73_6f6e);
    for _ in 0..10_000 {
        let len = rng.below(24) as usize;
        let s: String = (0..len)
            .map(|_| match rng.below(4) {
                0 => wide[rng.below(wide.len() as u64) as usize].chars().next().unwrap(),
                _ => char::from(rng.below(0x80) as u8),
            })
            .collect();
        assert_eq!(escaped(&s), escape_charwise(&s), "{s:?}");
    }
}

#[test]
fn finished_documents_hold_no_spare_capacity() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", "cap");
    w.field_str("module", &"data 1 2 3\n".repeat(5000));
    w.end_object();
    let doc = w.finish();
    assert_eq!(doc.capacity(), doc.len());
    let wc = ((workloads::by_name("wc").expect("wc").build)()).to_string();
    let reply = expected(&program_line("c", &wc, false));
    assert!(reply.contains(r#""module": "module wc"#), "{reply}");
    assert_eq!(reply.capacity(), reply.len());
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
