//! End-to-end tests of the `plimd` compile service: byte-identical
//! served-vs-offline output, cache hits across syntactically different
//! dumps, stats accounting, LRU eviction under a byte budget, error
//! paths, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

use plim_compiler::CompilerOptions;
use plim_service::client::{self, Connection};
use plim_service::pipeline::{self, CompileSpec, InputFormat};
use plim_service::protocol::{CompileRequest, Request, Response};
use plim_service::server::{Server, ServerConfig};

fn start_server(threads: usize, cache_bytes: usize) -> (String, JoinHandle<Result<(), String>>) {
    start_server_with(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_bytes,
        log: false,
        ..ServerConfig::default()
    })
}

fn start_server_with(config: &ServerConfig) -> (String, JoinHandle<Result<(), String>>) {
    let server = Server::bind(config).expect("bind on a free port");
    let addr = server.local_addr().expect("resolved address").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shut_down(addr: &str, handle: JoinHandle<Result<(), String>>) {
    let response = client::send(addr, &Request::Shutdown).expect("shutdown round-trip");
    assert_eq!(response, Response::Shutdown);
    handle.join().expect("server thread").expect("clean exit");
}

fn compile_request(source: &str) -> Request {
    Request::Compile(CompileRequest {
        format: InputFormat::Mig,
        source: source.to_string(),
        spec: CompileSpec::default(),
        emit: "listing".to_string(),
    })
}

/// What offline `plimc` would print for the same source and options.
fn offline_listing(source: &str) -> String {
    offline_listing_with(source, &CompileSpec::default())
}

fn offline_listing_with(source: &str, spec: &CompileSpec) -> String {
    let mig = pipeline::parse_network(InputFormat::Mig, source).unwrap();
    let artifacts = pipeline::execute(&mig, spec).unwrap();
    pipeline::emit("listing", &artifacts).unwrap()
}

fn suite_source(name: &str) -> String {
    let mig = plim_benchmarks::suite::build(name, plim_benchmarks::suite::Scale::Reduced)
        .expect("known benchmark");
    mig::io::write_mig(&mig)
}

fn stats(addr: &str) -> plim_service::protocol::ServiceStats {
    match client::send(addr, &Request::Stats).expect("stats round-trip") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected stats response: {other:?}"),
    }
}

#[test]
fn served_output_is_byte_identical_and_repeats_hit_the_cache() {
    let (addr, handle) = start_server(2, 1 << 20);
    for name in ["ctrl", "router"] {
        let source = suite_source(name);
        let expected = offline_listing(&source);

        let Response::Compile(cold) = client::send(&addr, &compile_request(&source)).unwrap()
        else {
            panic!("cold request failed");
        };
        assert!(!cold.cached, "{name}: first request cannot be cached");
        assert_eq!(cold.output, expected, "{name}: served != offline");

        let Response::Compile(warm) = client::send(&addr, &compile_request(&source)).unwrap()
        else {
            panic!("warm request failed");
        };
        assert!(warm.cached, "{name}: repeat must hit the cache");
        assert_eq!(warm.output, expected);
        assert_eq!(warm.key, cold.key, "cache key must be stable");
    }
    let totals = stats(&addr).cache;
    assert_eq!(totals.hits, 2, "one warm hit per circuit");
    assert_eq!(totals.misses, 2, "one cold miss per circuit");
    assert_eq!(totals.entries, 2);
    shut_down(&addr, handle);
}

#[test]
fn warm_hits_never_serve_a_different_opt_level() {
    use plim_compiler::OptLevel;
    // Regression: every CompilerOptions field — the new OptLevel included —
    // must reach the cache key. A warm hit after a -O0 compile must never
    // return the -O0 artifact for a -O2 request (or vice versa); `dec` is a
    // circuit where the levels genuinely differ, so serving a stale entry
    // would also be byte-visibly wrong.
    let (addr, handle) = start_server(1, 1 << 20);
    let source = suite_source("dec");
    let request_at = |level: OptLevel| {
        let mut spec = CompileSpec::default();
        spec.options = spec.options.opt(level);
        Request::Compile(CompileRequest {
            format: InputFormat::Mig,
            source: source.clone(),
            spec,
            emit: "listing".to_string(),
        })
    };

    let Response::Compile(cold_o0) = client::send(&addr, &request_at(OptLevel::O0)).unwrap() else {
        panic!("cold -O0 request failed");
    };
    assert!(!cold_o0.cached);

    // Same circuit, different level: must be a miss with its own key.
    let Response::Compile(cold_o2) = client::send(&addr, &request_at(OptLevel::O2)).unwrap() else {
        panic!("cold -O2 request failed");
    };
    assert!(!cold_o2.cached, "a different -O must never warm-hit");
    assert_ne!(cold_o2.key, cold_o0.key, "cache keys must differ per -O");
    assert_ne!(
        cold_o2.output, cold_o0.output,
        "dec compiles differently at -O2; identical output means a stale entry"
    );
    let mut spec_o2 = CompileSpec::default();
    spec_o2.options = spec_o2.options.opt(OptLevel::O2);
    assert_eq!(cold_o0.output, offline_listing(&source));
    assert_eq!(cold_o2.output, offline_listing_with(&source, &spec_o2));

    // Warm repeats of each level hit their own entries and stay distinct.
    for (level, cold) in [(OptLevel::O0, &cold_o0), (OptLevel::O2, &cold_o2)] {
        let Response::Compile(warm) = client::send(&addr, &request_at(level)).unwrap() else {
            panic!("warm request failed");
        };
        assert!(warm.cached, "repeat at the same -O must hit");
        assert_eq!(&warm.key, &cold.key);
        assert_eq!(&warm.output, &cold.output);
    }
    let totals = stats(&addr).cache;
    assert_eq!(totals.misses, 2, "one miss per level");
    assert_eq!(totals.hits, 2, "one hit per level");
    assert_eq!(totals.entries, 2, "one entry per level");
    shut_down(&addr, handle);
}

#[test]
fn warm_hits_never_serve_a_different_target() {
    use plim_compiler::Target;
    // Regression for the backend redesign: the target is part of the
    // options spec, so it must reach the cache key. A warm `ambit` request
    // after an RM3 compile of the same circuit must never be served the
    // RM3 listing (or vice versa) — the listings are byte-visibly
    // different formats, so a stale entry would also corrupt output.
    let (addr, handle) = start_server(1, 1 << 20);
    let source = suite_source("ctrl");
    let request_for = |target: Target| {
        let mut spec = CompileSpec::default();
        spec.options = spec.options.target(target);
        Request::Compile(CompileRequest {
            format: InputFormat::Mig,
            source: source.clone(),
            spec,
            emit: "listing".to_string(),
        })
    };
    let ambit = Target::parse("ambit").expect("built-in target");

    let Response::Compile(cold_rm3) = client::send(&addr, &request_for(Target::RM3)).unwrap()
    else {
        panic!("cold rm3 request failed");
    };
    assert!(!cold_rm3.cached);

    // Same circuit, different target: must be a miss with its own key.
    let Response::Compile(cold_ambit) = client::send(&addr, &request_for(ambit)).unwrap() else {
        panic!("cold ambit request failed");
    };
    assert!(!cold_ambit.cached, "a different target must never warm-hit");
    assert_ne!(
        cold_ambit.key, cold_rm3.key,
        "cache keys must differ per target"
    );
    assert!(cold_ambit.output.starts_with(".ambit v1\n"));
    assert!(!cold_rm3.output.starts_with(".ambit"));
    let mut ambit_spec = CompileSpec::default();
    ambit_spec.options = ambit_spec.options.target(ambit);
    assert_eq!(cold_rm3.output, offline_listing(&source));
    assert_eq!(
        cold_ambit.output,
        offline_listing_with(&source, &ambit_spec)
    );

    // Warm repeats of each target hit their own entries and stay distinct.
    for (target, cold) in [(Target::RM3, &cold_rm3), (ambit, &cold_ambit)] {
        let Response::Compile(warm) = client::send(&addr, &request_for(target)).unwrap() else {
            panic!("warm request failed");
        };
        assert!(warm.cached, "repeat at the same target must hit");
        assert_eq!(&warm.key, &cold.key);
        assert_eq!(&warm.output, &cold.output);
    }
    let totals = stats(&addr).cache;
    assert_eq!(totals.misses, 2, "one miss per target");
    assert_eq!(totals.hits, 2, "one hit per target");
    assert_eq!(totals.entries, 2, "one entry per target");
    shut_down(&addr, handle);
}

#[test]
fn warm_hits_never_serve_a_different_rewrite_mode() {
    use plim_compiler::RewriteMode;
    // Regression for the equality-saturation engine: the rewrite mode is
    // the sixth options-spec component, so it must reach the cache key. A
    // warm cache after an `arena` compile must never satisfy an `egraph`
    // request for the same circuit — the artifacts can legitimately
    // differ, so a stale hit would silently serve the wrong program.
    let (addr, handle) = start_server(1, 1 << 20);
    let source = suite_source("ctrl");
    let request_for = |mode: RewriteMode| {
        let mut spec = CompileSpec::default();
        spec.effort = 2;
        spec.options = spec.options.rewrite(mode);
        Request::Compile(CompileRequest {
            format: InputFormat::Mig,
            source: source.clone(),
            spec,
            emit: "listing".to_string(),
        })
    };

    let Response::Compile(cold_arena) =
        client::send(&addr, &request_for(RewriteMode::Arena)).unwrap()
    else {
        panic!("cold arena request failed");
    };
    assert!(!cold_arena.cached);

    // Same circuit, egraph engine: must be a miss with its own key.
    let Response::Compile(cold_egraph) =
        client::send(&addr, &request_for(RewriteMode::Egraph)).unwrap()
    else {
        panic!("cold egraph request failed");
    };
    assert!(
        !cold_egraph.cached,
        "a different rewrite mode must never warm-hit"
    );
    assert_ne!(
        cold_egraph.key, cold_arena.key,
        "cache keys must differ per rewrite mode"
    );
    let offline_for = |mode: RewriteMode| {
        let mut spec = CompileSpec::default();
        spec.effort = 2;
        spec.options = spec.options.rewrite(mode);
        offline_listing_with(&source, &spec)
    };
    assert_eq!(cold_arena.output, offline_for(RewriteMode::Arena));
    assert_eq!(cold_egraph.output, offline_for(RewriteMode::Egraph));

    // Warm repeats of each mode hit their own entries and stay distinct.
    for (mode, cold) in [
        (RewriteMode::Arena, &cold_arena),
        (RewriteMode::Egraph, &cold_egraph),
    ] {
        let Response::Compile(warm) = client::send(&addr, &request_for(mode)).unwrap() else {
            panic!("warm request failed");
        };
        assert!(warm.cached, "repeat at the same rewrite mode must hit");
        assert_eq!(&warm.key, &cold.key);
        assert_eq!(&warm.output, &cold.output);
    }
    let totals = stats(&addr).cache;
    assert_eq!(totals.misses, 2, "one miss per rewrite mode");
    assert_eq!(totals.hits, 2, "one hit per rewrite mode");
    assert_eq!(totals.entries, 2, "one entry per rewrite mode");
    shut_down(&addr, handle);
}

/// A served `--rewrite egraph -O2` compile is byte-identical to the
/// offline pipeline's output for every artifact kind that reads the
/// e-graph's compilation.
#[test]
fn served_egraph_o2_output_is_byte_identical_to_offline() {
    use plim_compiler::{OptLevel, RewriteMode};
    let (addr, handle) = start_server(1, 1 << 20);
    let mut spec = CompileSpec::default();
    spec.options = spec.options.opt(OptLevel::O2).rewrite(RewriteMode::Egraph);
    for name in ["cavlc", "priority"] {
        let source = suite_source(name);
        let mig = pipeline::parse_network(InputFormat::Mig, &source).unwrap();
        let artifacts = pipeline::execute(&mig, &spec).unwrap();
        for emit in ["listing", "mig", "ir"] {
            let request = Request::Compile(CompileRequest {
                format: InputFormat::Mig,
                source: source.clone(),
                spec,
                emit: emit.to_string(),
            });
            let Response::Compile(served) = client::send(&addr, &request).unwrap() else {
                panic!("{name}: egraph request failed");
            };
            assert_eq!(
                served.output,
                pipeline::emit(emit, &artifacts).unwrap(),
                "{name}: served --emit {emit} differs from offline"
            );
        }
    }
    shut_down(&addr, handle);
}

/// `pipeline::execute` takes the e-graph's compilation of the chosen graph
/// instead of compiling it again. That compilation must be exactly what a
/// fresh `compile_full` of the optimized graph produces: same IR, same
/// listing, same pass report, on every target and `-O` level.
#[test]
fn egraph_artifacts_equal_a_fresh_compilation_of_the_optimized_graph() {
    use plim_compiler::{compile_full, OptLevel, RewriteMode, Target};
    for name in ["ctrl", "int2float", "priority"] {
        let source = suite_source(name);
        let mig = pipeline::parse_network(InputFormat::Mig, &source).unwrap();
        for target in ["rm3", "ambit", "magic"] {
            let target = Target::parse(target).expect("built-in target");
            for opt in OptLevel::ALL {
                let mut spec = CompileSpec::default();
                spec.options = spec
                    .options
                    .opt(opt)
                    .target(target)
                    .rewrite(RewriteMode::Egraph);
                let artifacts = pipeline::execute(&mig, &spec).unwrap();
                let fresh = pipeline::Artifacts {
                    compilation: compile_full(&artifacts.optimized, spec.options),
                    optimized: artifacts.optimized.clone(),
                    target,
                };
                let context = format!("{name} {target} {opt:?}");
                assert_eq!(
                    artifacts.compilation.ir.dump(),
                    fresh.compilation.ir.dump(),
                    "{context}: IR"
                );
                assert_eq!(
                    pipeline::emit("listing", &artifacts).unwrap(),
                    pipeline::emit("listing", &fresh).unwrap(),
                    "{context}: listing"
                );
                assert_eq!(
                    artifacts.compilation.report.runs, fresh.compilation.report.runs,
                    "{context}: pass report"
                );
            }
        }
    }
}

#[test]
fn canonicalization_makes_permuted_dumps_share_an_entry() {
    let (addr, handle) = start_server(1, 1 << 20);
    // The same structure written three ways: reference, definitions
    // permuted (different arena order and node names), and with the Ω.I
    // identity moving complements across a node boundary.
    let reference = "inputs a b c d\n\
                     n1 = maj(0, a, b)\n\
                     n2 = maj(1, c, d)\n\
                     n3 = maj(n1, n2, d)\n\
                     output f = !n3\n";
    let permuted = "inputs a b c d\n\
                    or_cd = maj(1, c, d)\n\
                    and_ab = maj(0, a, b)\n\
                    top = maj(and_ab, or_cd, d)\n\
                    output f = !top\n";
    let inverted = "inputs a b c d\n\
                    n1 = maj(0, a, b)\n\
                    n2 = maj(1, c, d)\n\
                    n3 = maj(!n1, !n2, !d)\n\
                    output f = n3\n";

    let Response::Compile(first) = client::send(&addr, &compile_request(reference)).unwrap() else {
        panic!("reference request failed");
    };
    assert!(!first.cached);
    for variant in [permuted, inverted] {
        let Response::Compile(hit) = client::send(&addr, &compile_request(variant)).unwrap() else {
            panic!("variant request failed");
        };
        assert!(hit.cached, "structurally identical dump must hit");
        assert_eq!(hit.key, first.key);
        assert_eq!(hit.output, first.output);
    }
    // A structurally different dump (one complement moved) must miss.
    let different = reference.replace("maj(0, a, b)", "maj(0, !a, b)");
    let Response::Compile(miss) = client::send(&addr, &compile_request(&different)).unwrap() else {
        panic!("different request failed");
    };
    assert!(!miss.cached);
    assert_ne!(miss.key, first.key);
    shut_down(&addr, handle);
}

#[test]
fn option_changes_do_not_share_cache_entries() {
    let (addr, handle) = start_server(1, 1 << 20);
    let source = suite_source("int2float");
    let mut no_verify = compile_request(&source);
    let Request::Compile(request) = &mut no_verify else {
        unreachable!()
    };
    request.spec.verify = false;
    let Response::Compile(cold) = client::send(&addr, &no_verify).unwrap() else {
        panic!("cold request failed");
    };
    let Response::Compile(other_options) = client::send(&addr, &compile_request(&source)).unwrap()
    else {
        panic!("differing-options request failed");
    };
    assert!(
        !other_options.cached,
        "option changes must not share entries"
    );
    assert_ne!(cold.key, other_options.key);
    // Emit variants of the same circuit each cache their own artifact.
    let mut asm = compile_request(&source);
    let Request::Compile(request) = &mut asm else {
        unreachable!()
    };
    request.emit = "asm".to_string();
    let Response::Compile(asm_cold) = client::send(&addr, &asm).unwrap() else {
        panic!("asm request failed");
    };
    assert!(!asm_cold.cached);
    assert!(asm_cold.output.starts_with(".inputs"));
    let Response::Compile(asm_warm) = client::send(&addr, &asm).unwrap() else {
        panic!("asm repeat failed");
    };
    assert!(asm_warm.cached);
    shut_down(&addr, handle);
}

#[test]
fn byte_budget_evicts_least_recently_used_artifacts() {
    let a = suite_source("ctrl");
    let b = suite_source("router");
    let a_len = offline_listing(&a).len();
    let b_len = offline_listing(&b).len();
    // Budget: either artifact alone fits (plus the 64-byte overhead), both
    // together do not — inserting B evicts A.
    let budget = a_len.max(b_len) + 64 + 32;
    assert!(
        budget < a_len + b_len + 128,
        "artifacts too small for the test"
    );

    let (addr, handle) = start_server(1, budget);
    for _ in 0..2 {
        // A (miss, insert), B (miss, insert, evicts A), A again (miss).
        for source in [&a, &b] {
            let Response::Compile(response) =
                client::send(&addr, &compile_request(source)).unwrap()
            else {
                panic!("compile failed");
            };
            assert!(!response.cached, "budget must force an eviction cycle");
        }
    }
    let totals = stats(&addr).cache;
    assert!(totals.evictions >= 2, "evictions: {}", totals.evictions);
    assert_eq!(totals.hits, 0);
    assert_eq!(totals.entries, 1);
    assert!(totals.bytes <= budget);
    shut_down(&addr, handle);
}

#[test]
fn one_connection_can_carry_many_requests() {
    let (addr, handle) = start_server(2, 1 << 20);
    let mut connection = Connection::connect(&addr).unwrap();
    let source = suite_source("dec");
    let expected = offline_listing(&source);
    for round in 0..3 {
        let Response::Compile(response) = connection.roundtrip(&compile_request(&source)).unwrap()
        else {
            panic!("round {round} failed");
        };
        assert_eq!(response.cached, round > 0, "round {round}");
        assert_eq!(response.output, expected);
    }
    drop(connection);
    shut_down(&addr, handle);
}

#[test]
fn concurrent_clients_agree_and_the_cache_dedups() {
    let (addr, handle) = start_server(4, 1 << 20);
    let source = suite_source("i2c");
    let expected = offline_listing(&source);
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let source = source.clone();
            std::thread::spawn(move || {
                match client::send(&addr, &compile_request(&source)).unwrap() {
                    Response::Compile(response) => response,
                    other => panic!("unexpected response: {other:?}"),
                }
            })
        })
        .collect();
    let responses: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for response in &responses {
        assert_eq!(response.output, expected);
    }
    // All requests carry one key: the first compiles, and every other one
    // attaches to that compile or hits the entry it filled.
    assert_eq!(
        responses.iter().filter(|r| !r.cached).count(),
        1,
        "exactly one compile per key"
    );
    let totals = stats(&addr).cache;
    assert_eq!(totals.entries, 1);
    shut_down(&addr, handle);
}

#[test]
fn malformed_requests_get_error_responses_not_hangups() {
    let (addr, handle) = start_server(1, 1 << 20);
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut expect_error = |line: &str, needle: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"ok\":false"), "{line} → {response}");
        assert!(response.contains(needle), "{line} → {response}");
    };
    expect_error("this is not json", "bad request JSON");
    expect_error(r#"{"v":2,"op":"frobnicate"}"#, "unknown op");
    expect_error(r#"{"v":2,"op":"compile"}"#, "source");
    expect_error(
        r#"{"v":2,"op":"compile","source":"garbage"}"#,
        "mig: line 1",
    );
    expect_error(
        r#"{"v":2,"op":"compile","source":"inputs a\noutput f = a\n","emit":"png"}"#,
        "unknown --emit",
    );
    expect_error(
        r#"{"v":2,"op":"compile","source":"inputs a\noutput f = a\n","options":"bogus"}"#,
        "bad options spec",
    );
    // Invalid UTF-8 must get a diagnosis, not a silent hangup.
    stream.write_all(b"\xff\xfe garbage \xff\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("not valid UTF-8"), "{response}");
    // Deeply nested JSON is an error response, not a stack overflow.
    let mut deep = "[".repeat(100_000);
    deep.push('\n');
    stream.write_all(deep.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("nesting deeper"), "{response}");
    // Drop BOTH halves: the socket only closes (and the server's
    // connection thread only exits) once reader and writer are gone.
    drop(stream);
    drop(reader);
    // The server survives all of it.
    let source = suite_source("ctrl");
    assert!(matches!(
        client::send(&addr, &compile_request(&source)).unwrap(),
        Response::Compile(_)
    ));
    shut_down(&addr, handle);
}

#[test]
fn same_bytes_under_another_format_do_not_hit_the_text_index() {
    let (addr, handle) = start_server(1, 1 << 20);
    let source = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
    // Compiles as MIG text…
    assert!(matches!(
        client::send(&addr, &compile_request(source)).unwrap(),
        Response::Compile(_)
    ));
    // …but the same bytes declared as AIGER must be a parse error, not a
    // cache hit served from the MIG entry.
    let mut as_aiger = compile_request(source);
    let Request::Compile(request) = &mut as_aiger else {
        unreachable!()
    };
    request.format = InputFormat::Aag;
    match client::send(&addr, &as_aiger).unwrap() {
        Response::Error(error) => {
            assert!(error.message.starts_with("aiger: "), "{}", error.message);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    shut_down(&addr, handle);
}

#[test]
fn a_huge_aiger_header_is_an_error_response_and_the_daemon_lives_on() {
    let (addr, handle) = start_server(1, 1 << 20);
    // 33 bytes that once made the parser reserve tens of gigabytes, and
    // abort the daemon with every connection it held.
    let mut request = compile_request("aag 4000000000 4000000000 0 0 0\n");
    let Request::Compile(compile) = &mut request else {
        unreachable!()
    };
    compile.format = InputFormat::Aag;
    match client::send(&addr, &request).unwrap() {
        Response::Error(error) => {
            assert!(
                error
                    .message
                    .starts_with("aiger: line 1: unexpected end of file"),
                "{}",
                error.message
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(stats(&addr).queue_depth, 0);
    shut_down(&addr, handle);
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let (addr, handle) = start_server(2, 1 << 20);
    // A big circuit first, then tiny ones: the small compiles finish
    // before the big one, but the reactor must hold their responses until
    // the earlier request's answer is on the wire.
    let big = suite_source("i2c");
    let small_a = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
    let small_b = "inputs a b\nn = maj(1, a, b)\noutput f = n\n";
    let sources = [big.as_str(), small_a, small_b, small_a];
    let expected: Vec<String> = sources.iter().map(|s| offline_listing(s)).collect();

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut batch = String::new();
    for source in sources {
        batch.push_str(&compile_request(source).to_json());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for (index, expected) in expected.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Response::Compile(response) = Response::from_json(&line).unwrap() else {
            panic!("response {index} is not a compile response: {line}");
        };
        assert_eq!(
            &response.output, expected,
            "response {index} out of order or wrong"
        );
    }
    shut_down(&addr, handle);
}

#[test]
fn backpressure_keeps_order_when_the_pipeline_window_overflows() {
    // A tiny window: the client floods 24 requests at once, the server
    // may only read 2 ahead of its slowest unanswered response. Every
    // response must still arrive, in order.
    let (addr, handle) = start_server_with(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_bytes: 1 << 20,
        max_pipeline: 2,
        log: false,
        ..ServerConfig::default()
    });
    let sources: Vec<String> = (0..24)
        .map(|i| {
            format!(
                "inputs a b c\nn = maj({}, a, b)\nm = maj(n, b, c)\noutput f = m\n",
                i % 2
            )
        })
        .collect();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut batch = String::new();
    for source in &sources {
        batch.push_str(&compile_request(source).to_json());
        batch.push('\n');
    }
    // The flood is larger than the window; the write still completes
    // because the kernel buffers what the server has not yet read.
    stream.write_all(batch.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for (index, source) in sources.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Response::Compile(response) = Response::from_json(&line).unwrap() else {
            panic!("response {index} is not a compile response: {line}");
        };
        assert_eq!(response.output, offline_listing(source), "response {index}");
    }
    shut_down(&addr, handle);
}

#[test]
fn v2_requests_get_structured_error_objects() {
    let (addr, handle) = start_server(1, 1 << 20);
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |line: &[u8]| -> String {
        stream.write_all(&[line, b"\n"].concat()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    // Errors are objects with a machine-readable code.
    let response = roundtrip(br#"{"v":2,"op":"frobnicate"}"#);
    assert!(
        response.contains(r#""error":{"code":"unknown_op""#),
        "{response}"
    );
    let response = roundtrip(br#"{"v":2,"op":"compile","source":"garbage"}"#);
    assert!(
        response.contains(r#""error":{"code":"parse_error""#),
        "{response}"
    );
    // A version this daemon does not speak is refused with its own code.
    let response = roundtrip(br#"{"v":99,"op":"stats"}"#);
    assert!(
        response.contains(r#""error":{"code":"unsupported_version""#),
        "{response}"
    );
    // A spec naming `o1` (the levels are `o0` and `o2`) is a bad request.
    let source = "inputs a b\\nn = maj(0, a, b)\\noutput f = n\\n";
    let response = roundtrip(
        format!(
            r#"{{"v":2,"op":"compile","source":"{source}","options":"priority+smart+fifo+o1+rm3+arena"}}"#
        )
        .as_bytes(),
    );
    assert_eq!(
        response,
        "{\"ok\":false,\"error\":{\"code\":\"bad_request\",\
         \"message\":\"unknown opt level `o1` (expected o0|o2)\"}}\n"
    );
    // The shapes older clients sent are refused with a structured error:
    // no version, version 1, a non-UTF-8 line, unparseable JSON, a
    // five-part spec.
    for (line, code) in [
        (br#"{"op":"frobnicate"}"#.to_vec(), "unsupported_version"),
        (br#"{"v":1,"op":"stats"}"#.to_vec(), "unsupported_version"),
        (b"\xff\xfe garbage \xff".to_vec(), "bad_request"),
        (br#"{"v":2,"#.to_vec(), "bad_request"),
        (
            format!(
                r#"{{"v":2,"op":"compile","source":"{source}","options":"priority+smart+fifo+o0+rm3"}}"#
            )
            .into_bytes(),
            "bad_request",
        ),
    ] {
        let response = roundtrip(&line);
        let Response::Error(error) = Response::from_json(&response).unwrap() else {
            panic!("served: {response}");
        };
        assert_eq!(error.code.as_str(), code, "{response}");
    }
    // The same connection then serves a normal compile.
    let and = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
    let response = roundtrip(compile_request(and).to_json().as_bytes());
    let Response::Compile(served) = Response::from_json(&response).unwrap() else {
        panic!("the request after the rejected ones failed: {response}");
    };
    assert_eq!(served.output, offline_listing(and));
    shut_down(&addr, handle);
}

/// Requests the pipeline would refuse are refused before any compile,
/// with the pipeline's own message: `extended` beside another rewrite
/// engine, effort 0 beside `extended` or an engine but arena, and `asm`
/// for a target that cannot print it. The cache counts neither a hit nor
/// a miss, however often they are sent.
#[test]
fn refused_requests_never_reach_a_compile() {
    let (addr, handle) = start_server(1, 1 << 20);
    for (effort, extended, options, emit) in [
        (4, true, "priority+smart+fifo+o0+rm3+rebuild", "listing"),
        (4, true, "priority+smart+fifo+o2+rm3+egraph", "listing"),
        (0, true, "priority+smart+fifo+o0+rm3+arena", "listing"),
        (0, false, "priority+smart+fifo+o0+rm3+rebuild", "listing"),
        (0, false, "priority+smart+fifo+o2+magic+egraph", "stats"),
        (4, false, "priority+smart+fifo+o2+ambit+arena", "asm"),
        (4, false, "priority+smart+fifo+o0+magic+egraph", "asm"),
        (4, false, "priority+smart+fifo+o2+ambit+arena", "asm"),
    ] {
        let spec = CompileSpec {
            effort,
            extended,
            options: CompilerOptions::parse_spec(options).unwrap(),
            ..CompileSpec::default()
        };
        let request = Request::Compile(CompileRequest {
            source: suite_source("ctrl"),
            spec,
            emit: emit.to_string(),
            ..CompileRequest::default()
        });
        let Response::Error(error) = client::send(&addr, &request).unwrap() else {
            panic!("{options} {emit} was served");
        };
        assert_eq!(error.code.as_str(), "bad_request");
        let expected = pipeline::check_spec(&spec)
            .and_then(|()| pipeline::check_emit(emit, spec.options.target));
        assert_eq!(Err(error.message), expected, "{options} {emit}");
    }
    let totals = stats(&addr).cache;
    assert_eq!((totals.hits, totals.misses), (0, 0));
    shut_down(&addr, handle);
}

/// The cache keys of two canonical requests, as the daemon returned them
/// before it refused versionless requests and short specs: a `--store`
/// directory written then keeps hitting.
#[test]
fn cache_keys_of_canonical_requests_do_not_move() {
    let (addr, handle) = start_server(1, 1 << 20);
    for (options, key) in [
        (
            "priority+smart+fifo+o0+rm3+arena",
            "6e47f3872682416d44ee629a3b31cdffa78465ed5a3860e0",
        ),
        (
            "priority+smart+fifo+o2+magic+arena",
            "6e47f3872682416d44ee629a3b31cdfff5792d872a8d85f9",
        ),
    ] {
        let mut request = CompileRequest {
            source: "inputs a b\nn = maj(0, a, b)\noutput f = n\n".to_string(),
            ..CompileRequest::default()
        };
        request.spec.options = CompilerOptions::parse_spec(options).unwrap();
        let Response::Compile(served) = client::send(&addr, &Request::Compile(request)).unwrap()
        else {
            panic!("{options} failed");
        };
        assert_eq!(served.key, key, "{options}");
    }
    shut_down(&addr, handle);
}

#[test]
fn idle_connections_are_reaped_but_active_ones_survive() {
    let (addr, handle) = start_server_with(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        cache_bytes: 1 << 20,
        idle_timeout: std::time::Duration::from_millis(400),
        log: false,
        ..ServerConfig::default()
    });
    // An idle connection is closed by the sweep (read_line returning 0
    // is EOF — the server hung up)…
    let idle = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(idle);
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap();
    assert_eq!(n, 0, "idle connection must be closed, got: {line}");
    // …while the server keeps serving fresh connections.
    let source = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
    assert!(matches!(
        client::send(&addr, &compile_request(source)).unwrap(),
        Response::Compile(_)
    ));
    shut_down(&addr, handle);
}

#[test]
fn stats_report_the_queue_the_cache_and_every_target() {
    let (addr, handle) = start_server(3, 1 << 20);
    let snapshot = stats(&addr);
    // The stats response advertises every target a `+target` spec may
    // name.
    assert_eq!(snapshot.targets, ["rm3", "ambit", "magic"]);
    assert_eq!(snapshot.queue_depth, 0);
    assert_eq!(snapshot.cache.entries, 0);
    assert_eq!(snapshot.cache.bytes, 0);
    shut_down(&addr, handle);
}

/// A slow compile occupies one worker, never the requests queued behind
/// it: with two workers, eight small cold compiles sent after one slow
/// one are all answered before it. The slow circuit is generated and
/// doubled until its offline compile takes five times the eight small
/// ones together in this build, and at least half a second so thread
/// start-up cannot outlast it; no assertion reads a clock. The slow one
/// asks for `--emit stats`, so decoding its response takes no time.
#[test]
fn a_slow_compile_does_not_hold_up_small_ones_behind_it() {
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};
    use std::time::{Duration, Instant};
    let small: Vec<(String, String)> = [
        "ctrl",
        "dec",
        "int2float",
        "priority",
        "router",
        "cavlc",
        "adder",
        "max",
    ]
    .iter()
    .map(|name| suite_source(name))
    .map(|source| {
        let listing = offline_listing(&source);
        (source, listing)
    })
    .collect();
    let started = Instant::now();
    for (source, _) in &small {
        offline_listing(source);
    }
    let small_total = started.elapsed();
    let mut nodes = 500;
    let (slow, slow_stats) = loop {
        let mig = random_logic(&RandomLogicSpec::new(64, 64, nodes, 0x510E));
        let started = Instant::now();
        let artifacts = pipeline::execute(&mig, &CompileSpec::default()).unwrap();
        let stats = pipeline::emit("stats", &artifacts).unwrap();
        if started.elapsed() >= (small_total * 5).max(Duration::from_millis(500)) {
            let mut request = compile_request(&mig::io::write_mig(&mig));
            let Request::Compile(compile) = &mut request else {
                unreachable!()
            };
            compile.emit = "stats".to_string();
            break (request, stats);
        }
        nodes *= 2;
    };

    let (addr, handle) = start_server(2, 16 << 20);
    let slow_client = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let response = client::send(&addr, &slow).unwrap();
            (Instant::now(), response)
        })
    };
    // The slow job's cache miss shows once a worker has parsed it and is
    // compiling.
    while stats(&addr).cache.misses == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let small_clients: Vec<_> = small
        .into_iter()
        .map(|(source, listing)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let response = client::send(&addr, &compile_request(&source)).unwrap();
                let answered = Instant::now();
                let Response::Compile(compile) = response else {
                    panic!("small compile failed: {response:?}");
                };
                assert_eq!(compile.output, listing);
                answered
            })
        })
        .collect();
    let small_answers: Vec<Instant> = small_clients
        .into_iter()
        .map(|client| client.join().unwrap())
        .collect();
    let (slow_answered, response) = slow_client.join().unwrap();
    let Response::Compile(compile) = response else {
        panic!("slow compile failed: {response:?}");
    };
    assert_eq!(compile.output, slow_stats);
    for (index, answered) in small_answers.iter().enumerate() {
        assert!(
            *answered < slow_answered,
            "small compile {index} waited for the slow one ({nodes} nodes)"
        );
    }
    shut_down(&addr, handle);
}

/// Fifty identical cold requests over five pipelining connections compile
/// once: one response is a fresh compile, the other 49 are hits (attached
/// to that compile or served from the entry it filled), and the store is
/// written once.
#[test]
fn identical_cold_requests_compile_once() {
    let store = std::env::temp_dir().join(format!("plim-single-flight-{}", std::process::id()));
    let (addr, handle) = start_server_with(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_bytes: 1 << 20,
        store: Some(store.to_string_lossy().into_owned()),
        log: false,
        ..ServerConfig::default()
    });
    let source = suite_source("i2c");
    let expected = offline_listing(&source);
    let mut batch = String::new();
    for _ in 0..10 {
        batch.push_str(&compile_request(&source).to_json());
        batch.push('\n');
    }
    let start = std::sync::Arc::new(std::sync::Barrier::new(5));
    let clients: Vec<_> = (0..5)
        .map(|_| {
            let (addr, batch, start) = (addr.clone(), batch.clone(), start.clone());
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).unwrap();
                start.wait();
                stream.write_all(batch.as_bytes()).unwrap();
                let mut reader = BufReader::new(stream);
                (0..10)
                    .map(|_| {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        match Response::from_json(&line).unwrap() {
                            Response::Compile(response) => response,
                            other => panic!("unexpected response: {other:?}"),
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let responses: Vec<_> = clients
        .into_iter()
        .flat_map(|client| client.join().unwrap())
        .collect();
    assert_eq!(responses.len(), 50);
    for response in &responses {
        assert_eq!(response.output, expected);
    }
    assert_eq!(responses.iter().filter(|r| !r.cached).count(), 1);
    let snapshot = stats(&addr);
    assert_eq!((snapshot.cache.misses, snapshot.cache.hits), (1, 49));
    assert_eq!(snapshot.store.expect("daemon runs with --store").writes, 1);
    shut_down(&addr, handle);
    std::fs::remove_dir_all(&store).unwrap();
}
