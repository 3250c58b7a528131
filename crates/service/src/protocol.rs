//! The `plimd` wire protocol: newline-delimited JSON, versioned (v2).
//!
//! Framing: the client writes one JSON object per line; the server answers
//! each with one JSON object line, in request order (the server pipelines
//! — many requests may be in flight per connection, responses never
//! reorder). String escaping (via [`plim_compiler::json`]) guarantees
//! encoded documents never contain a raw newline, so multi-line circuit
//! sources travel safely inside one frame.
//!
//! ## Versioning
//!
//! Requests carry `"v":2`; a request without a `v` field is a protocol-v1
//! request from an older client. Success responses are identical in both
//! versions. *Error* responses differ: v2 errors are structured objects
//! with a machine-readable code, v1 errors remain flat strings so old
//! clients keep parsing them:
//!
//! ```text
//! v2 → {"ok":false,"error":{"code":"parse_error","message":"mig: …"}}
//! v1 → {"ok":false,"error":"mig: …"}
//! ```
//!
//! Unknown request fields are ignored (which is what lets a v2 client talk
//! to a v1 daemon), and a version this daemon does not speak is answered
//! with code `unsupported_version`. The error codes are enumerated by
//! [`ErrorCode`]; clients must treat unknown codes as opaque failures.
//!
//! ## Requests
//!
//! ```text
//! {"v":2,"op":"compile","format":"mig"|"aag","source":"…",
//!  "effort":4,"extended":false,"options":"priority+smart+fifo+o0",
//!  "emit":"listing","verify":true}
//! {"v":2,"op":"stats"}
//! {"v":2,"op":"shutdown"}
//! ```
//!
//! Only `source` is required for `compile`; every other field has the
//! offline `plimc` default. The `options` spec carries every compiler
//! option including the `-O` level and the emission target (older three-
//! and four-part specs without them are accepted and mean `o0` / `rm3`);
//! because the cache key is derived from this exact spelling, two requests
//! differing only in `-O` — or only in target — can never share a cache
//! entry. The protocol version is deliberately *not* part of the cache
//! key: v1 and v2 spellings of the same request share one artifact.
//!
//! ## Responses
//!
//! Responses carry `"ok":true` plus op-specific fields, or `"ok":false`
//! with the version-dependent `error` shape above. A `stats` response
//! advertises the emission targets in a `targets` array (the order of
//! `plim_compiler::backend::backends`, `rm3` first) and — when the daemon runs with
//! `--store` — the persistent store's counters in a `store` object.

use plim_compiler::cache::{fnv128, CacheKey, CacheStats};
use plim_compiler::json::Value;
use plim_compiler::store::StoreCounters;
use plim_compiler::CompilerOptions;

use crate::pipeline::{CompileSpec, InputFormat};

/// The newest protocol version this build speaks (and the one its own
/// clients send).
pub const PROTOCOL_VERSION: u64 = 2;

/// Machine-readable failure categories of v2 error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed: bad JSON, a wrong field type, an
    /// unknown `--emit` kind, an invalid options spec.
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The circuit source failed to parse.
    ParseError,
    /// The compiled program failed post-compile verification.
    VerifyError,
    /// One request line exceeded the daemon's size bound.
    TooLarge,
    /// The request's `v` is a version this daemon does not speak.
    UnsupportedVersion,
    /// The daemon is draining and no longer accepts work.
    ShuttingDown,
    /// The daemon failed internally (e.g. a compile worker died).
    Internal,
    /// A flat v1 error string decoded by a v2 client; carries no code on
    /// the wire.
    Legacy,
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
            ErrorCode::Legacy => "legacy",
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
            "legacy" => ErrorCode::Legacy,
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
    /// MIG text or as AIGER shares one cache entry. The protocol version
    /// is excluded for the same reason — it shapes the error envelope,
    /// never the artifact.
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

/// One decoded request line: the protocol version to answer with, and the
/// request itself (or the structured error to answer instead).
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    /// 1 for legacy (versionless) requests, 2 otherwise — including for
    /// malformed lines that did parse far enough to carry `"v":2`, and
    /// clamped down to 2 for versions newer than this build (whose error
    /// response is best delivered in the newest shape we both may share).
    pub version: u64,
    /// The request, or the error to answer with.
    pub body: Result<Request, WireError>,
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline), always
    /// in the newest protocol version.
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

    /// Decodes one request line, reporting the protocol version alongside
    /// the request (or the structured error that should answer it).
    pub fn decode(line: &str) -> Decoded {
        let value = match Value::parse(line.trim()) {
            Ok(value) => value,
            Err(e) => {
                // Unparseable lines carry no usable version marker; answer
                // in the legacy shape every client understands.
                return Decoded {
                    version: 1,
                    body: Err(WireError::new(
                        ErrorCode::BadRequest,
                        format!("bad request JSON: {e}"),
                    )),
                };
            }
        };
        let version = match value.get("v") {
            None => 1,
            Some(v) => match v.as_u64() {
                Some(v) => v,
                None => {
                    return Decoded {
                        version: PROTOCOL_VERSION,
                        body: Err(WireError::new(
                            ErrorCode::BadRequest,
                            "field 'v' must be a number",
                        )),
                    }
                }
            },
        };
        let answer_version = version.clamp(1, PROTOCOL_VERSION);
        if version == 0 || version > PROTOCOL_VERSION {
            return Decoded {
                version: answer_version,
                body: Err(WireError::new(
                    ErrorCode::UnsupportedVersion,
                    format!(
                        "unsupported protocol version {version} (this daemon speaks v1 and v2)"
                    ),
                )),
            };
        }
        Decoded {
            version,
            body: Request::from_value(&value).map_err(|message| {
                let code = if value.get("op").and_then(Value::as_str).is_some()
                    && message.starts_with("unknown op")
                {
                    ErrorCode::UnknownOp
                } else {
                    ErrorCode::BadRequest
                };
                WireError::new(code, message)
            }),
        }
    }

    /// Decodes one request line, dropping the version information.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for malformed JSON, an unknown `op`, a
    /// missing `source`, or invalid option values.
    pub fn from_json(line: &str) -> Result<Request, String> {
        let decoded = Request::decode(line);
        decoded.body.map_err(|error| error.message)
    }

    fn from_value(value: &Value) -> Result<Request, String> {
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request is missing field 'op'")?;
        match op {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "compile" => {
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
                    request.spec.verify =
                        verify.as_bool().ok_or("field 'verify' must be a boolean")?;
                }
                Ok(Request::Compile(request))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// One shard's view in a stats response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Jobs waiting (not yet started) on the shard's queue.
    pub queue_depth: usize,
    /// The shard cache's counters.
    pub cache: CacheStats,
}

/// The payload of a `stats` response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardStats>,
    /// Emission-target names, in table order (`rm3` first).
    pub targets: Vec<String>,
    /// Persistent-store counters; `None` when the daemon runs without
    /// `--store` (and in responses from older daemons).
    pub store: Option<StoreCounters>,
}

impl ServiceStats {
    /// Counters summed over all shards.
    pub fn totals(&self) -> CacheStats {
        let mut totals = CacheStats::default();
        for shard in &self.shards {
            totals.merge(&shard.cache);
        }
        totals
    }
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
    /// Encodes the response as one JSON line (no trailing newline), in
    /// the error shape of the given protocol version. Success responses
    /// are identical across versions.
    pub fn to_json(&self, version: u64) -> String {
        match self {
            Response::Error(error) => {
                let payload = if version >= 2 {
                    Value::object([
                        ("code", Value::string(error.code.as_str())),
                        ("message", Value::string(error.message.clone())),
                    ])
                } else {
                    Value::string(error.message.clone())
                };
                Value::object([("ok", Value::Bool(false)), ("error", payload)]).to_json()
            }
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
                let totals = stats.totals();
                let shards: Vec<Value> = stats
                    .shards
                    .iter()
                    .map(|shard| {
                        Value::object([
                            ("queue_depth", Value::number(shard.queue_depth as u64)),
                            ("hits", Value::number(shard.cache.hits)),
                            ("misses", Value::number(shard.cache.misses)),
                            ("evictions", Value::number(shard.cache.evictions)),
                            ("bytes", Value::number(shard.cache.bytes as u64)),
                            ("entries", Value::number(shard.cache.entries as u64)),
                        ])
                    })
                    .collect();
                let targets: Vec<Value> = stats
                    .targets
                    .iter()
                    .map(|name| Value::string(name.clone()))
                    .collect();
                let mut fields = vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::string("stats")),
                    ("hits", Value::number(totals.hits)),
                    ("misses", Value::number(totals.misses)),
                    ("evictions", Value::number(totals.evictions)),
                    ("cached_bytes", Value::number(totals.bytes as u64)),
                    ("cached_entries", Value::number(totals.entries as u64)),
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
                fields.push(("shards", Value::Array(shards)));
                Value::object(fields).to_json()
            }
        }
    }

    /// Decodes one response line (either protocol version).
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
            // v2 daemons send an object, v1 daemons a flat string; this
            // client decodes both so it can talk to either.
            let error = if let Some(message) = error.as_str() {
                WireError::new(ErrorCode::Legacy, message)
            } else {
                WireError::new(
                    error
                        .get("code")
                        .and_then(Value::as_str)
                        .map_or(ErrorCode::Legacy, ErrorCode::parse),
                    error
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unspecified server error"),
                )
            };
            return Ok(Response::Error(error));
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
                let shards = value
                    .get("shards")
                    .and_then(Value::as_array)
                    .ok_or("stats response is missing field 'shards'")?;
                let shard_stats: Result<Vec<ShardStats>, String> = shards
                    .iter()
                    .map(|shard| {
                        let number = |name: &str| {
                            shard.get(name).and_then(Value::as_u64).ok_or_else(|| {
                                format!("stats shard is missing numeric field '{name}'")
                            })
                        };
                        Ok(ShardStats {
                            queue_depth: number("queue_depth")? as usize,
                            cache: CacheStats {
                                hits: number("hits")?,
                                misses: number("misses")?,
                                evictions: number("evictions")?,
                                bytes: number("bytes")? as usize,
                                entries: number("entries")? as usize,
                            },
                        })
                    })
                    .collect();
                // Absent in responses from pre-target daemons: default to
                // "unadvertised" rather than rejecting the whole snapshot.
                let targets = value
                    .get("targets")
                    .and_then(Value::as_array)
                    .map(|names| {
                        names
                            .iter()
                            .map(|name| {
                                name.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "stats targets must be strings".to_string())
                            })
                            .collect::<Result<Vec<String>, String>>()
                    })
                    .transpose()?
                    .unwrap_or_default();
                // Same back-compat posture for the store block: absent
                // means "daemon has no persistent store" (or predates it).
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
                    shards: shard_stats?,
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
            assert_eq!(Request::from_json(&line).unwrap(), request);
            let decoded = Request::decode(&line);
            assert_eq!(decoded.version, 2);
            assert_eq!(decoded.body.unwrap(), request);
        }
    }

    #[test]
    fn versionless_requests_decode_as_v1() {
        let decoded = Request::decode(r#"{"op":"stats"}"#);
        assert_eq!(decoded.version, 1);
        assert_eq!(decoded.body.unwrap(), Request::Stats);
    }

    #[test]
    fn unsupported_versions_are_rejected_with_a_code() {
        for (line, expect_version) in [
            (r#"{"v":3,"op":"stats"}"#, 2),
            (r#"{"v":0,"op":"stats"}"#, 1),
            (r#"{"v":99,"op":"compile","source":"x"}"#, 2),
        ] {
            let decoded = Request::decode(line);
            assert_eq!(decoded.version, expect_version, "{line}");
            let error = decoded.body.unwrap_err();
            assert_eq!(error.code, ErrorCode::UnsupportedVersion, "{line}");
            assert!(error.message.contains("speaks v1 and v2"), "{line}");
        }
        let decoded = Request::decode(r#"{"v":"two","op":"stats"}"#);
        assert_eq!(decoded.body.unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn compile_defaults_match_offline_plimc() {
        let request = Request::from_json(r#"{"op":"compile","source":"x"}"#).unwrap();
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
        let cases: [(&str, ErrorCode, &str); 6] = [
            ("not json", ErrorCode::BadRequest, "bad request JSON"),
            ("{}", ErrorCode::BadRequest, "'op'"),
            (r#"{"op":"frobnicate"}"#, ErrorCode::UnknownOp, "unknown op"),
            (r#"{"op":"compile"}"#, ErrorCode::BadRequest, "'source'"),
            (
                r#"{"op":"compile","source":"x","effort":-1}"#,
                ErrorCode::BadRequest,
                "effort",
            ),
            (
                r#"{"op":"compile","source":"x","options":"bogus"}"#,
                ErrorCode::BadRequest,
                "",
            ),
        ];
        for (line, code, fragment) in cases {
            let error = Request::decode(line).body.unwrap_err();
            assert_eq!(error.code, code, "{line}");
            assert!(
                error.message.contains(fragment),
                "{line} → {}",
                error.message
            );
            // The legacy wrapper agrees.
            assert_eq!(Request::from_json(line).unwrap_err(), error.message);
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
                shards: vec![
                    ShardStats {
                        queue_depth: 2,
                        cache: CacheStats {
                            hits: 5,
                            misses: 3,
                            evictions: 1,
                            bytes: 100,
                            entries: 2,
                        },
                    },
                    ShardStats::default(),
                ],
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
            let line = response.to_json(PROTOCOL_VERSION);
            assert!(!line.contains('\n'), "framing-unsafe response: {line}");
            assert_eq!(Response::from_json(&line).unwrap(), response);
        }
    }

    #[test]
    fn v1_errors_stay_flat_strings_and_decode_as_legacy() {
        let error = Response::Error(WireError::new(ErrorCode::ParseError, "mig: boom"));
        let v1 = error.to_json(1);
        assert_eq!(v1, r#"{"ok":false,"error":"mig: boom"}"#);
        let decoded = Response::from_json(&v1).unwrap();
        assert_eq!(
            decoded,
            Response::Error(WireError::new(ErrorCode::Legacy, "mig: boom"))
        );
        // And the v2 shape carries the machine-readable code.
        let v2 = error.to_json(2);
        assert_eq!(
            v2,
            r#"{"ok":false,"error":{"code":"parse_error","message":"mig: boom"}}"#
        );
        assert_eq!(Response::from_json(&v2).unwrap(), error);
        // Codes from a future server survive as opaque strings.
        let future = r#"{"ok":false,"error":{"code":"quota_exceeded","message":"no"}}"#;
        let Response::Error(error) = Response::from_json(future).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(error.code, ErrorCode::Other("quota_exceeded".to_string()));
        assert_eq!(error.code.as_str(), "quota_exceeded");
    }

    #[test]
    fn stats_response_exposes_totals_and_optional_store() {
        let mut stats = ServiceStats {
            shards: vec![
                ShardStats {
                    queue_depth: 0,
                    cache: CacheStats {
                        hits: 2,
                        misses: 1,
                        evictions: 0,
                        bytes: 10,
                        entries: 1,
                    },
                },
                ShardStats {
                    queue_depth: 1,
                    cache: CacheStats {
                        hits: 3,
                        misses: 4,
                        evictions: 2,
                        bytes: 30,
                        entries: 3,
                    },
                },
            ],
            targets: vec!["rm3".to_string()],
            store: None,
        };
        assert_eq!(stats.totals().hits, 5);
        let line = Response::Stats(stats.clone()).to_json(PROTOCOL_VERSION);
        assert!(line.contains("\"hits\":5"), "{line}");
        assert!(line.contains("\"cached_bytes\":40"), "{line}");
        assert!(line.contains("\"targets\":[\"rm3\"]"), "{line}");
        assert!(!line.contains("\"store\""), "{line}");
        stats.store = Some(StoreCounters {
            hits: 1,
            misses: 2,
            corrupt: 0,
            writes: 2,
        });
        let line = Response::Stats(stats).to_json(PROTOCOL_VERSION);
        assert!(
            line.contains(r#""store":{"hits":1,"misses":2,"corrupt":0,"writes":2}"#),
            "{line}"
        );
    }

    #[test]
    fn stats_responses_without_targets_or_store_decode_leniently() {
        // A pre-target daemon's stats line (no `targets`, no `store`) must
        // still decode; the client sees empty advertisements.
        let line = r#"{"ok":true,"op":"stats","hits":0,"misses":0,"evictions":0,"cached_bytes":0,"cached_entries":0,"shards":[]}"#;
        let Response::Stats(stats) = Response::from_json(line).unwrap() else {
            panic!("wrong kind");
        };
        assert!(stats.targets.is_empty());
        assert!(stats.store.is_none());
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
    fn protocol_version_never_reaches_the_cache_key() {
        // The same request spelled as v1 and as v2 must land on one cache
        // entry — the version shapes the error envelope, not the artifact.
        let v1 =
            Request::from_json(r#"{"op":"compile","source":"inputs a\noutput f = a\n"}"#).unwrap();
        let v2 =
            Request::from_json(r#"{"v":2,"op":"compile","source":"inputs a\noutput f = a\n"}"#)
                .unwrap();
        assert_eq!(v1, v2);
        let (Request::Compile(v1), Request::Compile(v2)) = (v1, v2) else {
            panic!("wrong kind");
        };
        assert_eq!(v1.fingerprint(), v2.fingerprint());
        assert_eq!(cache_key(7, &v1), cache_key(7, &v2));
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
        // The target reaches the fingerprint through the 5-part options
        // spec, so a warm cache entry can never serve a different target.
        let mut target = base.clone();
        target.spec.options = target
            .spec
            .options
            .target(plim_compiler::Target::parse("ambit").expect("built-in target"));
        variants.push(("target", target));
        // The rewrite engine reaches the fingerprint through the 6-part
        // options spec, so a warm `arena` artifact can never satisfy an
        // `egraph` request.
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
        // And the three -O levels are pairwise distinct.
        let levels: Vec<u64> = OptLevel::ALL
            .iter()
            .map(|&level| {
                let mut request = base.clone();
                request.spec.options = request.spec.options.opt(level);
                request.fingerprint()
            })
            .collect();
        assert_ne!(levels[0], levels[1]);
        assert_ne!(levels[1], levels[2]);
        assert_ne!(levels[0], levels[2]);
    }
}
