//! The `plimd` wire protocol: newline-delimited JSON, version 2.
//!
//! Framing: the client writes one JSON object per line; the server answers
//! each with one JSON object line, in request order (the server pipelines
//! — many requests may be in flight per connection, responses never
//! reorder). String escaping (via [`plim_compiler::json`]) guarantees
//! encoded documents never contain a raw newline, so multi-line circuit
//! sources travel safely inside one frame.
//!
//! ## Version
//!
//! Every request carries `"v":2`. A request without `v`, or with any
//! other value, is answered with code `unsupported_version`. Every error
//! response is one object with a machine-readable code and a one-line
//! message:
//!
//! ```text
//! {"ok":false,"error":{"code":"parse_error","message":"mig: …"}}
//! ```
//!
//! Unknown request fields are ignored. The error codes are enumerated by
//! [`ErrorCode`]; clients must treat unknown codes as opaque failures.
//!
//! ## Requests
//!
//! ```text
//! {"v":2,"op":"compile","format":"mig"|"aag","source":"…",
//!  "effort":4,"extended":false,"options":"priority+smart+fifo+o0+rm3+arena",
//!  "emit":"listing","verify":true}
//! {"v":2,"op":"stats"}
//! {"v":2,"op":"shutdown"}
//! ```
//!
//! Only `source` is required for `compile`; every other field has the
//! offline `plimc` default. The `options` spec is the six-part
//! [`CompilerOptions::spec`] spelling, which carries every compiler option
//! including the `-O` level (`o0` or `o2`) and the emission target; any
//! other spelling is a `bad_request`. Because the cache key is derived
//! from this spelling, two requests differing only in `-O` — or only in
//! target — can never share a cache entry. `extended` requires the `arena`
//! rewrite engine, `"effort":0` takes neither `extended` nor an engine but
//! `arena` (effort 0 only cleans the graph), and `emit` must be a kind the
//! target prints; all three are checked before any compile.
//!
//! ## Responses
//!
//! Responses carry `"ok":true` plus op-specific fields, or `"ok":false`
//! with the `error` object above. A `stats` response advertises the
//! emission targets in a `targets` array (the order of
//! `plim_compiler::backend::backends`, `rm3` first) and — when the daemon
//! runs with `--store` — the persistent store's counters in a `store`
//! object.

use plim_compiler::cache::{fnv128, CacheKey, CacheStats};
use plim_compiler::json::Value;
use plim_compiler::store::StoreCounters;
use plim_compiler::CompilerOptions;

use crate::pipeline::{self, CompileSpec, InputFormat};

/// The one protocol version this build speaks and sends.
pub const PROTOCOL_VERSION: u64 = 2;

/// Machine-readable failure categories of error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed: bad JSON, a wrong field type, an
    /// `--emit` kind the target cannot print, an invalid options spec.
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The circuit source failed to parse.
    ParseError,
    /// The compiled program failed post-compile verification.
    VerifyError,
    /// One request line exceeded the daemon's size bound.
    TooLarge,
    /// The request carries no `v`, or a `v` other than 2.
    UnsupportedVersion,
    /// The daemon is draining and no longer accepts work.
    ShuttingDown,
    /// The daemon failed internally (e.g. a compile worker died).
    Internal,
    /// A code this client build does not know (a newer server). Treat as
    /// an opaque failure.
    Other(String),
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(&self) -> &str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::VerifyError => "verify_error",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::Other(code) => code,
        }
    }

    fn parse(code: &str) -> ErrorCode {
        match code {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_op" => ErrorCode::UnknownOp,
            "parse_error" => ErrorCode::ParseError,
            "verify_error" => ErrorCode::VerifyError,
            "too_large" => ErrorCode::TooLarge,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            other => ErrorCode::Other(other.to_string()),
        }
    }
}

/// A structured error: a category for machines, a sentence for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure category.
    pub code: ErrorCode,
    /// The one-line human-readable diagnostic.
    pub message: String,
}

impl WireError {
    /// Builds an error from its parts.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile a circuit and return the requested artifact.
    Compile(CompileRequest),
    /// Report cache, queue, and store statistics.
    Stats,
    /// Gracefully stop the daemon.
    Shutdown,
}

/// The payload of a `compile` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Input format of `source`.
    pub format: InputFormat,
    /// The circuit text (MIG text format or ASCII AIGER).
    pub source: String,
    /// Optimization and compilation options.
    pub spec: CompileSpec,
    /// Artifact to return (`listing`, `asm`, `stats`, `dot`, `mig`).
    pub emit: String,
}

impl Default for CompileRequest {
    fn default() -> Self {
        CompileRequest {
            format: InputFormat::Mig,
            source: String::new(),
            spec: CompileSpec::default(),
            emit: "listing".to_string(),
        }
    }
}

impl CompileRequest {
    /// Fingerprint of everything besides the graph that shapes the
    /// artifact — the options half of the result-cache key. The input
    /// *format* is deliberately excluded: the graph digest already
    /// identifies the parsed structure, so the same circuit arriving as
    /// MIG text or as AIGER shares one cache entry.
    pub fn fingerprint(&self) -> u64 {
        let spec = format!(
            "effort={};extended={};options={};emit={};verify={}",
            self.spec.effort,
            self.spec.extended,
            self.spec.options.spec(),
            self.emit,
            self.spec.verify,
        );
        // The shared FNV-1a over the canonical spelling, truncated — one
        // hash implementation across the cache layers.
        fnv128(spec.as_bytes()) as u64
    }
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Stats => Value::object([
                ("v", Value::number(PROTOCOL_VERSION)),
                ("op", Value::string("stats")),
            ])
            .to_json(),
            Request::Shutdown => Value::object([
                ("v", Value::number(PROTOCOL_VERSION)),
                ("op", Value::string("shutdown")),
            ])
            .to_json(),
            Request::Compile(compile) => Value::object([
                ("v", Value::number(PROTOCOL_VERSION)),
                ("op", Value::string("compile")),
                ("format", Value::string(compile.format.name())),
                ("source", Value::string(compile.source.clone())),
                ("effort", Value::number(compile.spec.effort as u64)),
                ("extended", Value::Bool(compile.spec.extended)),
                ("options", Value::string(compile.spec.options.spec())),
                ("emit", Value::string(compile.emit.clone())),
                ("verify", Value::Bool(compile.spec.verify)),
            ])
            .to_json(),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns the structured error that answers the line: malformed JSON,
    /// a missing or unsupported `v`, an unknown `op`, a missing `source`,
    /// or invalid field values.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        let value =
            Value::parse(line.trim()).map_err(|e| bad_request(format!("bad request JSON: {e}")))?;
        match value.get("v") {
            Some(v) if v.as_u64() == Some(PROTOCOL_VERSION) => {}
            v => {
                return Err(WireError::new(
                    ErrorCode::UnsupportedVersion,
                    format!(
                        "unsupported protocol version {} (this daemon speaks v2)",
                        v.map_or_else(|| "none".to_string(), Value::to_json)
                    ),
                ))
            }
        }
        match value.get("op").and_then(Value::as_str) {
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("compile") => compile_from(&value)
                .map(Request::Compile)
                .map_err(bad_request),
            Some(other) => Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown op `{other}`"),
            )),
            None => Err(bad_request("request is missing field 'op'")),
        }
    }
}

fn bad_request(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadRequest, message)
}

/// The fields of a `compile` request, checked with
/// [`pipeline::check_spec`] and [`pipeline::check_emit`] so that a
/// request the pipeline would refuse never reaches a compile.
fn compile_from(value: &Value) -> Result<CompileRequest, String> {
    let mut request = CompileRequest {
        source: value
            .get("source")
            .and_then(Value::as_str)
            .ok_or("compile request is missing field 'source'")?
            .to_string(),
        ..CompileRequest::default()
    };
    if let Some(format) = value.get("format") {
        let name = format.as_str().ok_or("field 'format' must be a string")?;
        request.format = InputFormat::parse(name)?;
    }
    if let Some(effort) = value.get("effort") {
        request.spec.effort = effort
            .as_u64()
            .ok_or("field 'effort' must be a non-negative number")?
            as usize;
    }
    if let Some(extended) = value.get("extended") {
        request.spec.extended = extended
            .as_bool()
            .ok_or("field 'extended' must be a boolean")?;
    }
    if let Some(options) = value.get("options") {
        let spec = options.as_str().ok_or("field 'options' must be a string")?;
        request.spec.options = CompilerOptions::parse_spec(spec)?;
    }
    if let Some(emit) = value.get("emit") {
        request.emit = emit
            .as_str()
            .ok_or("field 'emit' must be a string")?
            .to_string();
    }
    if let Some(verify) = value.get("verify") {
        request.spec.verify = verify.as_bool().ok_or("field 'verify' must be a boolean")?;
    }
    pipeline::check_spec(&request.spec)?;
    pipeline::check_emit(&request.emit, request.spec.options.target)?;
    Ok(request)
}

/// The payload of a `stats` response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Compile jobs waiting (not yet started) in the worker queue.
    pub queue_depth: usize,
    /// The result cache's counters. Each compile request that parses
    /// counts once: a hit when it is answered from memory without
    /// compiling (warm, or attached to the running compile of its key),
    /// else a miss.
    pub cache: CacheStats,
    /// Emission-target names, in table order (`rm3` first).
    pub targets: Vec<String>,
    /// Persistent-store counters; `None` when the daemon runs without
    /// `--store`.
    pub store: Option<StoreCounters>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A compile result.
    Compile(CompileResponse),
    /// A statistics snapshot.
    Stats(ServiceStats),
    /// Shutdown acknowledged.
    Shutdown,
    /// The request failed.
    Error(WireError),
}

/// The payload of a successful compile response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileResponse {
    /// `true` when the artifact came from the result cache (in-memory or
    /// persistent).
    pub cached: bool,
    /// Hex spelling of the cache key (graph digest + options fingerprint).
    pub key: String,
    /// `#I` of the compiled program.
    pub instructions: u64,
    /// `#R` of the compiled program.
    pub rams: u64,
    /// The largest per-cell write count of one execution (the wear
    /// hot-spot the endurance analyses track).
    pub max_cell_writes: u64,
    /// The requested artifact, exactly as offline `plimc` would print it.
    pub output: String,
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Error(error) => Value::object([
                ("ok", Value::Bool(false)),
                (
                    "error",
                    Value::object([
                        ("code", Value::string(error.code.as_str())),
                        ("message", Value::string(error.message.clone())),
                    ]),
                ),
            ])
            .to_json(),
            Response::Shutdown => {
                Value::object([("ok", Value::Bool(true)), ("op", Value::string("shutdown"))])
                    .to_json()
            }
            Response::Compile(compile) => Value::object([
                ("ok", Value::Bool(true)),
                ("op", Value::string("compile")),
                ("cached", Value::Bool(compile.cached)),
                ("key", Value::string(compile.key.clone())),
                ("instructions", Value::number(compile.instructions)),
                ("rams", Value::number(compile.rams)),
                ("max_cell_writes", Value::number(compile.max_cell_writes)),
                ("output", Value::string(compile.output.clone())),
            ])
            .to_json(),
            Response::Stats(stats) => {
                let targets: Vec<Value> = stats
                    .targets
                    .iter()
                    .map(|name| Value::string(name.clone()))
                    .collect();
                let mut fields = vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::string("stats")),
                    ("hits", Value::number(stats.cache.hits)),
                    ("misses", Value::number(stats.cache.misses)),
                    ("evictions", Value::number(stats.cache.evictions)),
                    ("cached_bytes", Value::number(stats.cache.bytes as u64)),
                    ("cached_entries", Value::number(stats.cache.entries as u64)),
                    ("queue_depth", Value::number(stats.queue_depth as u64)),
                    ("targets", Value::Array(targets)),
                ];
                if let Some(store) = &stats.store {
                    fields.push((
                        "store",
                        Value::object([
                            ("hits", Value::number(store.hits)),
                            ("misses", Value::number(store.misses)),
                            ("corrupt", Value::number(store.corrupt)),
                            ("writes", Value::number(store.writes)),
                        ]),
                    ));
                }
                Value::object(fields).to_json()
            }
        }
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for malformed JSON or a response shape
    /// this client does not understand.
    pub fn from_json(line: &str) -> Result<Response, String> {
        let value = Value::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
        let ok = value
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("response is missing field 'ok'")?;
        if !ok {
            let error = value.get("error").ok_or("error response without 'error'")?;
            let field = |name: &str| {
                error
                    .get(name)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("error response is missing string field '{name}'"))
            };
            return Ok(Response::Error(WireError::new(
                ErrorCode::parse(field("code")?),
                field("message")?,
            )));
        }
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("response is missing field 'op'")?;
        match op {
            "shutdown" => Ok(Response::Shutdown),
            "compile" => {
                let field = |name: &str| {
                    value
                        .get(name)
                        .ok_or_else(|| format!("compile response is missing field '{name}'"))
                };
                Ok(Response::Compile(CompileResponse {
                    cached: field("cached")?
                        .as_bool()
                        .ok_or("'cached' must be a boolean")?,
                    key: field("key")?
                        .as_str()
                        .ok_or("'key' must be a string")?
                        .to_string(),
                    instructions: field("instructions")?
                        .as_u64()
                        .ok_or("'instructions' must be a number")?,
                    rams: field("rams")?.as_u64().ok_or("'rams' must be a number")?,
                    max_cell_writes: field("max_cell_writes")?
                        .as_u64()
                        .ok_or("'max_cell_writes' must be a number")?,
                    output: field("output")?
                        .as_str()
                        .ok_or("'output' must be a string")?
                        .to_string(),
                }))
            }
            "stats" => {
                let number = |name: &str| {
                    value
                        .get(name)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("stats response is missing numeric field '{name}'"))
                };
                let cache = CacheStats {
                    hits: number("hits")?,
                    misses: number("misses")?,
                    evictions: number("evictions")?,
                    bytes: number("cached_bytes")? as usize,
                    entries: number("cached_entries")? as usize,
                };
                let queue_depth = number("queue_depth")? as usize;
                let targets = value
                    .get("targets")
                    .and_then(Value::as_array)
                    .ok_or("stats response is missing field 'targets'")?
                    .iter()
                    .map(|name| {
                        name.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "stats targets must be strings".to_string())
                    })
                    .collect::<Result<Vec<String>, String>>()?;
                // Absent when the daemon has no persistent store.
                let store = value.get("store").map(|store| {
                    let number = |name: &str| {
                        store
                            .get(name)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("stats store is missing numeric field '{name}'"))
                    };
                    Ok::<StoreCounters, String>(StoreCounters {
                        hits: number("hits")?,
                        misses: number("misses")?,
                        corrupt: number("corrupt")?,
                        writes: number("writes")?,
                    })
                });
                Ok(Response::Stats(ServiceStats {
                    queue_depth,
                    cache,
                    targets,
                    store: store.transpose()?,
                }))
            }
            other => Err(format!("unknown response op `{other}`")),
        }
    }
}

/// Builds the full cache key of a compile request given the graph digest.
pub fn cache_key(digest: u128, request: &CompileRequest) -> CacheKey {
    CacheKey::new(digest, request.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_request(source: &str) -> CompileRequest {
        CompileRequest {
            source: source.to_string(),
            ..CompileRequest::default()
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Stats,
            Request::Shutdown,
            Request::Compile(CompileRequest {
                format: InputFormat::Aag,
                source: "aag 1 1 0 1 0\n2\n2\n".to_string(),
                spec: CompileSpec {
                    effort: 2,
                    extended: true,
                    options: CompilerOptions::new()
                        .allocator(plim_compiler::AllocatorStrategy::Lifo),
                    verify: false,
                },
                emit: "asm".to_string(),
            }),
        ];
        for request in requests {
            let line = request.to_json();
            assert!(!line.contains('\n'), "framing-unsafe request: {line}");
            assert!(
                line.starts_with(r#"{"v":2,"#),
                "unversioned request: {line}"
            );
            assert_eq!(Request::decode(&line).unwrap(), request);
        }
    }

    #[test]
    fn versionless_requests_are_refused_as_unsupported() {
        // Without "v" the version check comes first: neither a missing nor
        // an unknown op is diagnosed, and a well-formed op is not served.
        for line in [
            r#"{"op":"stats"}"#,
            r#"{"op":"compile","source":"x"}"#,
            r#"{"op":"frobnicate"}"#,
            "{}",
        ] {
            let error = Request::decode(line).unwrap_err();
            assert_eq!(error.code, ErrorCode::UnsupportedVersion, "{line}");
            assert_eq!(
                error.message,
                "unsupported protocol version none (this daemon speaks v2)"
            );
        }
    }

    #[test]
    fn unsupported_versions_are_rejected_with_a_code() {
        for (line, version) in [
            (r#"{"v":1,"op":"stats"}"#, "1"),
            (r#"{"v":3,"op":"stats"}"#, "3"),
            (r#"{"v":0,"op":"stats"}"#, "0"),
            (r#"{"v":"two","op":"stats"}"#, r#""two""#),
            (r#"{"v":99,"op":"compile","source":"x"}"#, "99"),
        ] {
            let error = Request::decode(line).unwrap_err();
            assert_eq!(error.code, ErrorCode::UnsupportedVersion, "{line}");
            assert_eq!(
                error.message,
                format!("unsupported protocol version {version} (this daemon speaks v2)")
            );
        }
    }

    #[test]
    fn compile_defaults_match_offline_plimc() {
        let request = Request::decode(r#"{"v":2,"op":"compile","source":"x"}"#).unwrap();
        let Request::Compile(compile) = request else {
            panic!("wrong kind");
        };
        assert_eq!(compile.format, InputFormat::Mig);
        assert_eq!(compile.spec, CompileSpec::default());
        assert_eq!(compile.spec.effort, 4);
        assert!(compile.spec.verify);
        assert_eq!(compile.emit, "listing");
    }

    #[test]
    fn malformed_requests_are_diagnosed_with_codes() {
        let cases: [(&str, ErrorCode, &str); 8] = [
            ("not json", ErrorCode::BadRequest, "bad request JSON"),
            (r#"{"v":2}"#, ErrorCode::BadRequest, "'op'"),
            (
                r#"{"v":2,"op":"frobnicate"}"#,
                ErrorCode::UnknownOp,
                "unknown op",
            ),
            (
                r#"{"v":2,"op":"compile"}"#,
                ErrorCode::BadRequest,
                "'source'",
            ),
            (
                r#"{"v":2,"op":"compile","source":"x","effort":-1}"#,
                ErrorCode::BadRequest,
                "effort",
            ),
            (
                r#"{"v":2,"op":"compile","source":"x","options":"bogus"}"#,
                ErrorCode::BadRequest,
                "bad options spec `bogus`",
            ),
            (
                r#"{"v":2,"op":"compile","source":"x","options":"priority+smart+fifo+o7+rm3+arena"}"#,
                ErrorCode::BadRequest,
                "unknown opt level `o7` (expected o0|o2)",
            ),
            (
                r#"{"v":2,"op":"compile","source":"x","options":"priority+smart+fifo+o0+rm3"}"#,
                ErrorCode::BadRequest,
                "(expected schedule+operands+allocator+opt+target+rewrite)",
            ),
        ];
        for (line, code, fragment) in cases {
            let error = Request::decode(line).unwrap_err();
            assert_eq!(error.code, code, "{line}");
            assert!(
                error.message.contains(fragment),
                "{line} → {}",
                error.message
            );
        }
    }

    #[test]
    fn responses_round_trip_in_v2() {
        let responses = [
            Response::Shutdown,
            Response::Error(WireError::new(ErrorCode::ParseError, "boom")),
            Response::Compile(CompileResponse {
                cached: true,
                key: "abc123".to_string(),
                instructions: 42,
                rams: 7,
                max_cell_writes: 9,
                output: "01: 0, 1, @X1\n".to_string(),
            }),
            Response::Stats(ServiceStats {
                queue_depth: 2,
                cache: CacheStats {
                    hits: 5,
                    misses: 3,
                    evictions: 1,
                    bytes: 100,
                    entries: 2,
                },
                targets: vec!["rm3".to_string(), "ambit".to_string()],
                store: Some(StoreCounters {
                    hits: 4,
                    misses: 2,
                    corrupt: 1,
                    writes: 3,
                }),
            }),
        ];
        for response in responses {
            let line = response.to_json();
            assert!(!line.contains('\n'), "framing-unsafe response: {line}");
            assert_eq!(Response::from_json(&line).unwrap(), response);
        }
    }

    #[test]
    fn errors_are_code_and_message_objects() {
        let error = Response::Error(WireError::new(ErrorCode::ParseError, "mig: boom"));
        let line = error.to_json();
        assert_eq!(
            line,
            r#"{"ok":false,"error":{"code":"parse_error","message":"mig: boom"}}"#
        );
        assert_eq!(Response::from_json(&line).unwrap(), error);
        // Codes from a future server survive as opaque strings.
        let future = r#"{"ok":false,"error":{"code":"quota_exceeded","message":"no"}}"#;
        let Response::Error(error) = Response::from_json(future).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(error.code, ErrorCode::Other("quota_exceeded".to_string()));
        assert_eq!(error.code.as_str(), "quota_exceeded");
        // An error without a code is a malformed response.
        for line in [
            r#"{"ok":false,"error":"mig: boom"}"#,
            r#"{"ok":false,"error":{"message":"mig: boom"}}"#,
        ] {
            let err = Response::from_json(line).unwrap_err();
            assert_eq!(err, "error response is missing string field 'code'");
        }
    }

    #[test]
    fn stats_response_exposes_totals_and_optional_store() {
        let mut stats = ServiceStats {
            queue_depth: 1,
            cache: CacheStats {
                hits: 5,
                misses: 5,
                evictions: 2,
                bytes: 40,
                entries: 4,
            },
            targets: vec!["rm3".to_string()],
            store: None,
        };
        let line = Response::Stats(stats.clone()).to_json();
        assert!(line.contains("\"hits\":5"), "{line}");
        assert!(line.contains("\"cached_bytes\":40"), "{line}");
        assert!(line.contains("\"queue_depth\":1"), "{line}");
        assert!(line.contains("\"targets\":[\"rm3\"]"), "{line}");
        assert!(!line.contains("\"store\""), "{line}");
        stats.store = Some(StoreCounters {
            hits: 1,
            misses: 2,
            corrupt: 0,
            writes: 2,
        });
        let line = Response::Stats(stats).to_json();
        assert!(
            line.contains(r#""store":{"hits":1,"misses":2,"corrupt":0,"writes":2}"#),
            "{line}"
        );
    }

    #[test]
    fn stats_responses_need_targets_but_not_store() {
        let line = r#"{"ok":true,"op":"stats","hits":0,"misses":0,"evictions":0,"cached_bytes":0,"cached_entries":0,"queue_depth":0,"targets":["rm3"]}"#;
        let Response::Stats(stats) = Response::from_json(line).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(stats.targets, ["rm3"]);
        assert!(stats.store.is_none());
        let err = Response::from_json(&line.replace(r#","targets":["rm3"]"#, "")).unwrap_err();
        assert_eq!(err, "stats response is missing field 'targets'");
    }

    #[test]
    fn fingerprint_separates_option_changes_but_not_format() {
        let base = compile_request("inputs a\noutput f = a\n");
        let mut emit = base.clone();
        emit.emit = "asm".to_string();
        let mut effort = base.clone();
        effort.spec.effort = 2;
        let mut format = base.clone();
        format.format = InputFormat::Aag;
        assert_ne!(base.fingerprint(), emit.fingerprint());
        assert_ne!(base.fingerprint(), effort.fingerprint());
        assert_eq!(base.fingerprint(), format.fingerprint());
        let key = cache_key(7, &base);
        assert_eq!(key.graph, 7);
        assert_eq!(key.options, base.fingerprint());
    }

    #[test]
    fn fingerprint_covers_every_compiler_option_field() {
        use plim_compiler::{AllocatorStrategy, OperandSelection, OptLevel, ScheduleOrder};
        // The audit behind the cache key: mutate each CompilerOptions field
        // (and each CompileSpec field) in isolation and demand a distinct
        // fingerprint — a field missing from the spec would alias cache
        // entries across genuinely different programs.
        let base = compile_request("inputs a\noutput f = a\n");
        let mut variants: Vec<(&str, CompileRequest)> = Vec::new();
        let mut opt = base.clone();
        opt.spec.options = opt.spec.options.opt(OptLevel::O2);
        variants.push(("opt", opt));
        let mut schedule = base.clone();
        schedule.spec.options = schedule.spec.options.schedule(ScheduleOrder::Lookahead);
        variants.push(("schedule", schedule));
        let mut operands = base.clone();
        operands.spec.options = operands.spec.options.operands(OperandSelection::ChildOrder);
        variants.push(("operands", operands));
        let mut allocator = base.clone();
        allocator.spec.options = allocator.spec.options.allocator(AllocatorStrategy::Lifo);
        variants.push(("allocator", allocator));
        // The target reaches the fingerprint through the options spec, so
        // a warm cache entry can never serve a different target.
        let mut target = base.clone();
        target.spec.options = target
            .spec
            .options
            .target(plim_compiler::Target::parse("ambit").expect("built-in target"));
        variants.push(("target", target));
        // The rewrite engine reaches the fingerprint through the options
        // spec, so a warm `arena` artifact can never satisfy an `egraph`
        // request.
        let mut rewrite = base.clone();
        rewrite.spec.options = rewrite
            .spec
            .options
            .rewrite(plim_compiler::RewriteMode::Egraph);
        variants.push(("rewrite", rewrite));
        let mut extended = base.clone();
        extended.spec.extended = true;
        variants.push(("extended", extended));
        let mut verify = base.clone();
        verify.spec.verify = false;
        variants.push(("verify", verify));
        for (field, variant) in &variants {
            assert_ne!(
                base.fingerprint(),
                variant.fingerprint(),
                "field `{field}` does not reach the cache fingerprint"
            );
        }
    }

    /// The cache keys of the two surviving `-O` levels must not move when
    /// the set of levels changes, so a `--store` directory written earlier
    /// keeps hitting: the default request and an `-O2 --target ambit
    /// --rewrite egraph` one, pinned to the values they have always had.
    #[test]
    fn surviving_fingerprints_do_not_move() {
        use plim_compiler::{OptLevel, RewriteMode, Target};
        let default = CompileRequest::default();
        assert_eq!(default.fingerprint(), 0xa784_65ed_5a38_60e0);
        let mut optimized = CompileRequest::default();
        optimized.spec.options = optimized
            .spec
            .options
            .opt(OptLevel::O2)
            .target(Target::parse("ambit").expect("built-in target"))
            .rewrite(RewriteMode::Egraph);
        assert_eq!(optimized.fingerprint(), 0xe4dc_4e57_8d06_8de1);
    }
}
