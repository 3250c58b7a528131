//! The wire codec as it was before responses were written from cached
//! artifacts and decoded strings were moved out of the parsed line: the
//! oracle of `protocol::tests`, which requires the same line bytes and
//! the same decoded values and error strings on real and mutated lines.

use plim_compiler::json::Value;
use plim_compiler::store::StoreCounters;
use plim_compiler::{CacheStats, CompilerOptions};

use super::{
    bad_request, CompileRequest, CompileResponse, ErrorCode, Request, Response, ServiceStats,
    WireError, PROTOCOL_VERSION,
};
use crate::pipeline::{self, InputFormat};

/// Encodes a request by building its [`Value`] first.
pub(super) fn request_to_json(request: &Request) -> String {
    match request {
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
        other => other.to_json(),
    }
}

/// Encodes a compile response by building its [`Value`] first.
pub(super) fn compile_to_json(compile: &CompileResponse) -> String {
    Value::object([
        ("ok", Value::Bool(true)),
        ("op", Value::string("compile")),
        ("cached", Value::Bool(compile.cached)),
        ("key", Value::string(compile.key.clone())),
        ("instructions", Value::number(compile.instructions)),
        ("rams", Value::number(compile.rams)),
        ("max_cell_writes", Value::number(compile.max_cell_writes)),
        ("output", Value::string(compile.output.clone())),
    ])
    .to_json()
}

/// Decodes one request line, copying every string out of the value.
pub(super) fn decode(line: &str) -> Result<Request, WireError> {
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

/// The fields of a `compile` request.
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

/// Decodes one response line, copying every string out of the value.
pub(super) fn from_json(line: &str) -> Result<Response, String> {
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
