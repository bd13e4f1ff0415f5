//! `pao serve` — the resident pin access oracle daemon — and `pao call`,
//! its scriptable line-oriented client.
//!
//! The daemon loads LEF/DEF once, analyzes the design into an
//! [`OracleService`] and then answers queries over a Unix domain socket
//! (`--socket PATH`) or TCP (`--tcp ADDR`). The wire protocol is
//! line-delimited JSON-RPC: one request object per line in, one response
//! object per line out, parsed and validated with the in-repo JSON
//! parser (`pao_obs::json`) — no external dependency.
//!
//! ```text
//! -> {"id":1,"method":"get_pin_access","params":{"inst":"u17","pin":"A"}}
//! <- {"id":1,"result":{"inst":"u17","pin":"A","selected":{...},...}}
//! ```
//!
//! Methods: `get_pin_access`, `get_instance_patterns`,
//! `get_cluster_selection`, `eco_update`, `dump_selection`, `stats`,
//! `batch` (params = array of requests, fanned onto the work-stealing
//! executor) and `shutdown`. Queries are pure reads over the service's
//! immutable snapshots, so concurrent connections get byte-identical
//! answers at any thread count; `eco_update` swaps the snapshots
//! copy-on-write behind a write lock.
//!
//! # Hardening (DESIGN.md §17)
//!
//! The wire layer trusts nothing: frames are read through a bounded
//! scanner (`--max-frame-bytes`, oversized input is drained and rejected
//! with `-32002` without ever being buffered), connections are capped
//! (`--max-conns`, excess is shed with `-32001` + a `retry_after_ms`
//! hint), each connection is bounded in requests (`--max-requests` →
//! `-32003`) and lifetime (`--idle-ms`), and concurrently dispatching
//! requests are capped (`--max-inflight` → `-32001`). ECO durability
//! comes from a write-ahead journal (`--checkpoint DIR` or `--journal
//! FILE`): accepted batches are fsynced *before* analysis and replayed
//! with `--resume`, so a `kill -9` restarts bit-identical to a daemon
//! that never died. An ECO whose re-analysis degrades (deadline,
//! watchdog stall, quarantined fault) keeps the previous snapshot
//! serving and answers `-32004` with the degrade breakdown. All of it is
//! counted in the `serve` object of `stats` and summarized at shutdown.

use crate::args::Args;
use crate::{load_world, open_checkpoint, parse_budget_flags, CliError};
use pao_core::parallel::{expect_all, parallel_map, ExecOptions};
use pao_core::{
    EcoJournal, EcoMove, EcoTail, EcoTarget, OracleService, PaoConfig, RunBudget, ServiceError,
    Watchdog,
};
use pao_geom::Point;
use pao_obs::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// JSON-RPC error codes: the standard ones, `1` for typed service errors
/// like "unknown instance" that are the *request's* fault, and the
/// implementation-defined `-32xxx` admission/degradation codes.
const PARSE_ERROR: i64 = -32700;
const INVALID_REQUEST: i64 = -32600;
const METHOD_NOT_FOUND: i64 = -32601;
const INVALID_PARAMS: i64 = -32602;
const INTERNAL_ERROR: i64 = -32603;
const SERVICE_ERROR: i64 = 1;
/// Load shed: too many connections or in-flight requests. The error's
/// `data.retry_after_ms` tells the client when to try again.
const OVERLOADED: i64 = -32001;
/// The request frame exceeded `--max-frame-bytes`; it was drained and
/// discarded, the connection stays usable.
const FRAME_TOO_LARGE: i64 = -32002;
/// The connection served its `--max-requests` budget and is closed.
const REQUEST_CAP: i64 = -32003;
/// An `eco_update` degraded (deadline/watchdog/fault); the previous
/// snapshot is still serving. `data` carries the breakdown.
const DEADLINE_EXCEEDED: i64 = -32004;

/// How long a shed client should wait before retrying, reported in the
/// `-32001` error's `data.retry_after_ms`.
const RETRY_AFTER_MS: u64 = 200;

/// A typed JSON-RPC error: code, message, optional `data` payload
/// (already-serialized JSON).
type RpcError = (i64, String, Option<String>);

fn rpc_err(code: i64, message: impl Into<String>) -> RpcError {
    (code, message.into(), None)
}

/// Admission limits, parsed once from flags (see module docs).
#[derive(Clone, Copy)]
struct Limits {
    max_frame_bytes: usize,
    max_conns: u64,
    max_requests: u64,
    idle: Option<Duration>,
    max_inflight: u64,
}

/// Wire/admission counters. Plain atomics (not `pao_obs` counters)
/// because connection threads outlive any metrics flush point — the
/// `stats` method must read exact values at any instant. Mirrored into
/// `pao_obs` counters as they happen for trace/profile tooling.
#[derive(Default)]
struct ServeCounters {
    requests: AtomicU64,
    active_conns: AtomicU64,
    shed_conns: AtomicU64,
    shed_requests: AtomicU64,
    oversized: AtomicU64,
    request_capped: AtomicU64,
    idle_closed: AtomicU64,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
    eco_degraded: AtomicU64,
    journal_replayed: AtomicU64,
}

impl ServeCounters {
    fn bump(counter: &AtomicU64, obs_name: &'static str) {
        counter.fetch_add(1, Ordering::SeqCst);
        pao_obs::counter_add(obs_name, 1);
    }
}

/// The daemon's listening endpoint. The Unix variant remembers its path
/// so shutdown can unlink the socket file.
enum Listener {
    Unix(UnixListener, String),
    Tcp(TcpListener),
}

/// One accepted (or client-side connected) connection.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    fn endpoint(&self) -> String {
        match self {
            Listener::Unix(_, path) => format!("unix:{path}"),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:?".to_owned(),
            },
        }
    }
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    service: RwLock<OracleService>,
    shutdown: AtomicBool,
    threads: usize,
    /// Default deadline applied to `eco_update` requests that carry no
    /// `deadline_ms` of their own (from `--deadline-ms`).
    eco_deadline: Option<Duration>,
    /// Watchdog armed on ECO re-analyses (stall detection).
    eco_watchdog: Option<Watchdog>,
    limits: Limits,
    counters: ServeCounters,
}

impl Shared {
    /// Read access to the service, recovering from a poisoned lock (a
    /// panicking request must not take the daemon down — snapshots are
    /// swapped atomically, so the state is always consistent).
    fn read(&self) -> RwLockReadGuard<'_, OracleService> {
        match self.service.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, OracleService> {
        match self.service.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Serializes the request's `id` for echoing back (number or string;
/// anything else degrades to `null`).
fn id_token(req: &Value) -> String {
    match req.get("id") {
        Some(Value::Num(_)) => match req.get("id").and_then(Value::as_i64) {
            Some(n) => n.to_string(),
            None => "null".to_owned(),
        },
        Some(Value::Str(s)) => json::quote(s),
        _ => "null".to_owned(),
    }
}

fn ok_resp(id: &str, result: &str) -> String {
    format!("{{\"id\":{id},\"result\":{result}}}")
}

fn err_resp(id: &str, code: i64, message: &str) -> String {
    err_resp_data(id, code, message, None)
}

/// Error response with an optional structured `data` member (`data` must
/// already be serialized JSON).
fn err_resp_data(id: &str, code: i64, message: &str, data: Option<&str>) -> String {
    match data {
        Some(d) => format!(
            "{{\"id\":{id},\"error\":{{\"code\":{code},\"message\":{},\"data\":{d}}}}}",
            json::quote(message)
        ),
        None => format!(
            "{{\"id\":{id},\"error\":{{\"code\":{code},\"message\":{}}}}}",
            json::quote(message)
        ),
    }
}

/// The `-32001` shed response with its retry-after hint.
fn overloaded_resp(id: &str, what: &str) -> String {
    err_resp_data(
        id,
        OVERLOADED,
        &format!("overloaded: {what}"),
        Some(&format!("{{\"retry_after_ms\":{RETRY_AFTER_MS}}}")),
    )
}

/// A required string parameter.
fn str_param<'a>(req: &'a Value, key: &str) -> Result<&'a str, RpcError> {
    req.get("params")
        .and_then(|p| p.get(key))
        .and_then(Value::as_str)
        .ok_or_else(|| rpc_err(INVALID_PARAMS, format!("missing string param `{key}`")))
}

fn svc_err(e: &ServiceError) -> RpcError {
    rpc_err(SERVICE_ERROR, e.to_string())
}

/// One access point as a JSON object (die-frame coordinates, layer by
/// name, coordinate types by their display labels).
fn ap_json(tech: &pao_tech::Tech, ap: &pao_core::AccessPoint) -> String {
    format!(
        "{{\"x\":{},\"y\":{},\"layer\":{},\"pref\":{},\"nonpref\":{},\"vias\":{}}}",
        ap.pos.x,
        ap.pos.y,
        json::quote(&tech.layer(ap.layer).name),
        json::quote(&ap.pref_type.to_string()),
        json::quote(&ap.nonpref_type.to_string()),
        ap.vias.len(),
    )
}

fn usize_list(items: &[usize]) -> String {
    let strs: Vec<String> = items.iter().map(ToString::to_string).collect();
    strs.join(",")
}

/// Parses the `moves` array of an `eco_update` request: each entry names
/// an instance and either an absolute target (`x` + `y`) or a relative
/// one (`dx` / `dy`).
fn parse_moves(req: &Value) -> Result<Vec<EcoMove>, RpcError> {
    let bad = |m: String| rpc_err(INVALID_PARAMS, m);
    let items = req
        .get("params")
        .and_then(|p| p.get("moves"))
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing `moves` array".to_owned()))?;
    let mut moves = Vec::with_capacity(items.len());
    for item in items {
        let inst = item
            .get("inst")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("move missing string `inst`".to_owned()))?
            .to_owned();
        let coord = |key: &str| item.get(key).and_then(Value::as_i64);
        let (x, y) = (coord("x"), coord("y"));
        let (dx, dy) = (coord("dx"), coord("dy"));
        let target = match (x, y, dx.or(dy)) {
            (Some(x), Some(y), None) => EcoTarget::Abs(Point { x, y }),
            (None, None, Some(_)) => EcoTarget::Delta(Point {
                x: dx.unwrap_or(0),
                y: dy.unwrap_or(0),
            }),
            _ => return Err(bad(format!("move for `{inst}` needs either x+y or dx/dy"))),
        };
        moves.push(EcoMove { inst, target });
    }
    Ok(moves)
}

/// The `serve` counters object embedded in `stats` responses.
fn serve_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
    let (journal_entries, degraded_ecos) = {
        let svc = shared.read();
        (
            svc.journal().map_or(0, pao_core::EcoJournal::entries),
            svc.degraded_ecos(),
        )
    };
    format!(
        concat!(
            "{{\"requests\":{},\"active_conns\":{},\"shed_conns\":{},",
            "\"shed_requests\":{},\"oversized\":{},\"request_capped\":{},",
            "\"idle_closed\":{},\"inflight\":{},\"inflight_peak\":{},",
            "\"eco_degraded\":{},\"journal_replayed\":{},\"journal_entries\":{}}}"
        ),
        get(&c.requests),
        get(&c.active_conns),
        get(&c.shed_conns),
        get(&c.shed_requests),
        get(&c.oversized),
        get(&c.request_capped),
        get(&c.idle_closed),
        get(&c.inflight),
        get(&c.inflight_peak),
        get(&c.eco_degraded).max(degraded_ecos),
        get(&c.journal_replayed),
        journal_entries,
    )
}

/// Runs one method and returns its `result` payload.
fn method_result(method: &str, req: &Value, shared: &Shared) -> Result<String, RpcError> {
    match method {
        "get_pin_access" => {
            let inst = str_param(req, "inst")?;
            let pin = str_param(req, "pin")?;
            let svc = shared.read();
            let r = svc.pin_access(inst, pin).map_err(|e| svc_err(&e))?;
            let tech = svc.tech();
            let selected = r
                .selected
                .as_ref()
                .map_or_else(|| "null".to_owned(), |ap| ap_json(tech, ap));
            let candidates: Vec<String> = r.candidates.iter().map(|ap| ap_json(tech, ap)).collect();
            let rejects: Vec<String> = r
                .rejects
                .iter()
                .map(|rc| {
                    format!(
                        "{{\"rule\":{},\"count\":{}}}",
                        json::quote(&rc.rule),
                        rc.count
                    )
                })
                .collect();
            Ok(format!(
                "{{\"inst\":{},\"pin\":{},\"selected\":{},\"from_override\":{},\"candidates\":[{}],\"rejects\":[{}]}}",
                json::quote(&r.inst),
                json::quote(&r.pin),
                selected,
                r.from_override,
                candidates.join(","),
                rejects.join(","),
            ))
        }
        "get_instance_patterns" => {
            let inst = str_param(req, "inst")?;
            let svc = shared.read();
            let r = svc.instance_patterns(inst).map_err(|e| svc_err(&e))?;
            let patterns: Vec<String> = r
                .patterns
                .iter()
                .map(|p| {
                    format!(
                        "{{\"cost\":{},\"validated\":{},\"choice\":[{}]}}",
                        p.cost,
                        p.validated,
                        usize_list(&p.choice),
                    )
                })
                .collect();
            Ok(format!(
                "{{\"inst\":{},\"master\":{},\"unique_index\":{},\"members\":{},\"pin_order\":[{}],\"patterns\":[{}]}}",
                json::quote(&r.inst),
                json::quote(&r.master),
                r.unique_index,
                r.members,
                usize_list(&r.pin_order),
                patterns.join(","),
            ))
        }
        "get_cluster_selection" => {
            let inst = str_param(req, "inst")?;
            let svc = shared.read();
            let r = svc.cluster_selection(inst).map_err(|e| svc_err(&e))?;
            let tech = svc.tech();
            let pattern = r
                .pattern
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let overrides: Vec<String> = r
                .overrides
                .iter()
                .map(|(pin, ap)| format!("{{\"pin\":{pin},\"ap\":{}}}", ap_json(tech, ap)))
                .collect();
            Ok(format!(
                "{{\"inst\":{},\"pattern\":{},\"overrides\":[{}]}}",
                json::quote(&r.inst),
                pattern,
                overrides.join(","),
            ))
        }
        "dump_selection" => {
            let svc = shared.read();
            Ok(format!(
                "{{\"dump\":{}}}",
                json::quote(&svc.selection_dump())
            ))
        }
        "stats" => {
            let serve = serve_json(shared);
            let svc = shared.read();
            let (hits, misses) = svc.cache_stats();
            let sym = pao_tech::symbol_stats();
            pao_obs::gauge_max("symbol.interned", sym.interned as u64);
            pao_obs::gauge_max("symbol.arena_bytes", sym.arena_bytes as u64);
            let stats = &svc.result().stats;
            let fr = svc.fractions().snapshot().0;
            let fr_strs: Vec<String> = fr.iter().map(|f| format!("{f:.4}")).collect();
            Ok(format!(
                concat!(
                    "{{\"design\":{},\"components\":{},\"nets\":{},",
                    "\"unique_instances\":{},\"total_aps\":{},\"failed_pins\":{},",
                    "\"eco_updates\":{},\"eco_tails\":{{\"window\":{},\"full\":{}}},",
                    "\"cache\":{{\"hits\":{},\"misses\":{}}},",
                    "\"symbol\":{{\"interned\":{},\"arena_bytes\":{}}},",
                    "\"server\":{{\"requests\":{}}},\"serve\":{},\"fractions\":[{}]}}"
                ),
                json::quote(&svc.design().name),
                svc.design().components().len(),
                svc.design().nets().len(),
                stats.unique_instances,
                stats.total_aps,
                stats.failed_pins,
                svc.eco_updates(),
                svc.eco_tail_count(EcoTail::Window),
                svc.eco_tail_count(EcoTail::Full),
                hits,
                misses,
                sym.interned,
                sym.arena_bytes,
                shared.counters.requests.load(Ordering::SeqCst),
                serve,
                fr_strs.join(","),
            ))
        }
        "eco_update" => {
            let moves = parse_moves(req)?;
            let deadline = req
                .get("params")
                .and_then(|p| p.get("deadline_ms"))
                .and_then(Value::as_i64)
                .map(|ms| Duration::from_millis(ms.max(0) as u64))
                .or(shared.eco_deadline);
            let mut svc = shared.write();
            match svc.eco_update(&moves, deadline, shared.eco_watchdog) {
                Ok(r) => Ok(format!(
                    concat!(
                        "{{\"moved\":{},\"cache_hits\":{},\"cache_misses\":{},",
                        "\"full_reanalysis\":{},\"tail\":\"{}\",\"groups_resolved\":{},",
                        "\"pins_reprobed\":{},\"failed_pins\":{},\"eco_seq\":{}}}"
                    ),
                    r.moved,
                    r.cache_hits,
                    r.cache_misses,
                    r.full_reanalysis,
                    r.tail.as_str(),
                    r.groups_resolved,
                    r.pins_reprobed,
                    r.failed_pins,
                    r.eco_seq,
                )),
                Err(
                    e @ ServiceError::EcoDegraded {
                        quarantined,
                        skipped,
                        stalls,
                    },
                ) => {
                    ServeCounters::bump(&shared.counters.eco_degraded, "serve.eco_degraded");
                    pao_obs::warn_limited("serve.eco_degraded", Duration::from_secs(5), || {
                        format!("pao serve: {e}")
                    });
                    Ok(String::new()).and(Err((
                        DEADLINE_EXCEEDED,
                        e.to_string(),
                        Some(format!(
                            "{{\"quarantined\":{quarantined},\"skipped\":{skipped},\"stalls\":{stalls}}}"
                        )),
                    )))
                }
                Err(e @ ServiceError::Journal(_)) => Err(rpc_err(INTERNAL_ERROR, e.to_string())),
                Err(e) => Err(svc_err(&e)),
            }
        }
        _ => Err(rpc_err(
            METHOD_NOT_FOUND,
            format!("unknown method `{method}`"),
        )),
    }
}

/// Handles a `batch` request: params is an array of request objects.
/// Read-only batches fan out onto the work-stealing executor (responses
/// come back in input order — the executor preserves it); a batch
/// containing `eco_update` runs sequentially in order, because an ECO
/// must observe the queries before it and be observed by those after.
fn handle_batch(id: &str, req: &Value, shared: &Shared) -> String {
    let Some(items) = req.get("params").and_then(Value::as_array) else {
        return err_resp(
            id,
            INVALID_PARAMS,
            "batch params must be an array of requests",
        );
    };
    pao_obs::hist_record("server.batch_size", items.len() as u64);
    let has_eco = items
        .iter()
        .any(|r| r.get("method").and_then(Value::as_str) == Some("eco_update"));
    let responses: Vec<String> = if has_eco {
        items
            .iter()
            .map(|r| dispatch_request(r, shared, false).0)
            .collect()
    } else {
        let refs: Vec<&Value> = items.iter().collect();
        let (out, _) = parallel_map(
            ExecOptions::new(shared.threads, "serve.batch"),
            refs,
            || (),
            |(), r| dispatch_request(r, shared, false).0,
        );
        expect_all(out)
    };
    ok_resp(id, &format!("[{}]", responses.join(",")))
}

/// Dispatches one parsed request. Returns the response line and whether
/// the daemon should shut down *after* the response is flushed.
/// `allow_control` is false inside a batch: nested `batch`/`shutdown`
/// are rejected there.
fn dispatch_request(req: &Value, shared: &Shared, allow_control: bool) -> (String, bool) {
    let _span = pao_obs::span("server.request");
    pao_obs::counter_add("server.requests", 1);
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    let id = id_token(req);
    let Some(method) = req.get("method").and_then(Value::as_str) else {
        return (
            err_resp(&id, INVALID_REQUEST, "request needs a string `method`"),
            false,
        );
    };
    match method {
        "shutdown" if allow_control => (ok_resp(&id, "{\"ok\":true}"), true),
        "batch" if allow_control => (handle_batch(&id, req, shared), false),
        "shutdown" | "batch" => (
            err_resp(
                &id,
                INVALID_REQUEST,
                "control methods are not allowed in a batch",
            ),
            false,
        ),
        _ => match method_result(method, req, shared) {
            Ok(result) => (ok_resp(&id, &result), false),
            Err((code, message, data)) => {
                (err_resp_data(&id, code, &message, data.as_deref()), false)
            }
        },
    }
}

/// Parses and dispatches one request line.
fn dispatch_line(line: &str, shared: &Shared) -> (String, bool) {
    match json::parse(line) {
        Ok(req) => dispatch_request(&req, shared, true),
        Err(e) => (
            err_resp("null", PARSE_ERROR, &format!("parse error: {e}")),
            false,
        ),
    }
}

/// One bounded frame read (see [`read_frame`]).
enum Frame {
    /// A complete newline-terminated line, lossily decoded (binary
    /// garbage becomes U+FFFD and fails JSON parsing — a request error,
    /// never a dead connection).
    Line(String),
    /// The frame exceeded the size limit; its bytes were drained and
    /// discarded without being buffered.
    Oversized,
    /// No bytes arrived within the idle window.
    Idle,
    /// Peer closed (or the transport failed).
    Eof,
}

/// Reads one `\n`-terminated frame with a hard size cap. Accumulation
/// stops at `max` bytes: the rest of an oversized line is consumed and
/// dropped, so a hostile client cannot grow daemon memory past
/// `max + BufReader` capacity per connection.
fn read_frame(reader: &mut BufReader<Stream>, max: usize) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropping = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Frame::Eof,
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Frame::Idle;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Frame::Eof,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let oversized = dropping || buf.len() + pos > max;
                if !oversized {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                if oversized {
                    return Frame::Oversized;
                }
                return Frame::Line(String::from_utf8_lossy(&buf).into_owned());
            }
            None => {
                let len = chunk.len();
                if !dropping {
                    if buf.len() + len > max {
                        dropping = true;
                        buf = Vec::new();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                reader.consume(len);
            }
        }
    }
}

/// Serves one connection: read a frame, answer a line, until EOF, idle
/// timeout, request cap, or shutdown. Every outgoing line is
/// re-validated with the in-repo JSON parser — an invalid response is a
/// `pao` bug and is reported as one.
fn handle_conn(stream: Stream, shared: &Shared) {
    /// Decrements `active_conns` however the thread exits (including a
    /// request panic unwinding through the dispatch).
    struct ConnGuard<'a>(&'a ServeCounters);
    impl Drop for ConnGuard<'_> {
        fn drop(&mut self) {
            self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let c = &shared.counters;
    let _guard = ConnGuard(c); // incremented by the accept loop
    let _ = stream.set_read_timeout(shared.limits.idle);
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_half);
    let mut served: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (mut resp, shutdown_after, close_after) =
            match read_frame(&mut reader, shared.limits.max_frame_bytes) {
                Frame::Eof => break,
                Frame::Idle => {
                    ServeCounters::bump(&c.idle_closed, "serve.idle_closed");
                    break;
                }
                Frame::Oversized => {
                    ServeCounters::bump(&c.oversized, "serve.oversized");
                    pao_obs::warn_limited("serve.oversized", Duration::from_secs(5), || {
                        format!(
                            "pao serve: oversized frame rejected (limit {} bytes)",
                            shared.limits.max_frame_bytes
                        )
                    });
                    (
                        err_resp(
                            "null",
                            FRAME_TOO_LARGE,
                            &format!(
                                "frame exceeds {} bytes and was discarded",
                                shared.limits.max_frame_bytes
                            ),
                        ),
                        false,
                        false,
                    )
                }
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    served += 1;
                    if served > shared.limits.max_requests {
                        ServeCounters::bump(&c.request_capped, "serve.request_capped");
                        (
                            err_resp(
                                "null",
                                REQUEST_CAP,
                                &format!(
                                    "connection served its {} request budget",
                                    shared.limits.max_requests
                                ),
                            ),
                            false,
                            true,
                        )
                    } else {
                        // In-flight admission: bound the number of requests
                        // dispatching concurrently across all connections.
                        let inflight = c.inflight.fetch_add(1, Ordering::SeqCst) + 1;
                        c.inflight_peak.fetch_max(inflight, Ordering::SeqCst);
                        let out = if inflight > shared.limits.max_inflight {
                            ServeCounters::bump(&c.shed_requests, "serve.shed_requests");
                            pao_obs::warn_limited(
                                "serve.shed_requests",
                                Duration::from_secs(5),
                                || "pao serve: shedding requests (inflight cap)".to_owned(),
                            );
                            let id = json::parse(&line)
                                .map_or_else(|_| "null".to_owned(), |r| id_token(&r));
                            (overloaded_resp(&id, "too many in-flight requests"), false)
                        } else {
                            dispatch_line(&line, shared)
                        };
                        c.inflight.fetch_sub(1, Ordering::SeqCst);
                        (out.0, out.1, false)
                    }
                }
            };
        if let Err(e) = json::validate(&resp) {
            resp = err_resp(
                "null",
                INTERNAL_ERROR,
                &format!("invalid response generated: {e}"),
            );
        }
        resp.push('\n');
        // An accepted shutdown is latched *before* the response write: a
        // client that hangs up without reading the reply must not cancel
        // the shutdown it requested.
        if shutdown_after {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        if writer
            .write_all(resp.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if shutdown_after {
            break;
        }
        if close_after || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Binds the requested endpoint (exactly one of `--socket`/`--tcp`).
/// An existing Unix socket file is probe-connected first: a live daemon
/// answers, so the bind is refused; a dead one leaves a stale file,
/// which is unlinked and reclaimed.
fn bind(args: &Args) -> Result<Listener, CliError> {
    match (args.value("--socket"), args.value("--tcp")) {
        (Some(path), None) => {
            if Path::new(path).exists() {
                match UnixStream::connect(path) {
                    Ok(_) => {
                        return Err(CliError::input(format!(
                            "socket `{path}` is in use by a live daemon (connect it, or remove the file if that is wrong)"
                        )));
                    }
                    Err(_) => {
                        // Stale socket from a killed daemon: reclaim it.
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            UnixListener::bind(path)
                .map(|l| Listener::Unix(l, path.to_owned()))
                .map_err(|e| CliError::input(format!("cannot bind `{path}`: {e}")))
        }
        (None, Some(addr)) => TcpListener::bind(addr)
            .map(Listener::Tcp)
            .map_err(|e| CliError::input(format!("cannot bind `{addr}`: {e}"))),
        _ => Err(CliError::usage(
            "serve requires exactly one of --socket PATH or --tcp ADDR",
        )),
    }
}

/// Parses one `--name N` numeric flag with a default.
pub(crate) fn flag_u64(args: &Args, name: &str, default: u64) -> Result<u64, CliError> {
    match args.value(name) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("{name} expects a number"))),
        None => Ok(default),
    }
}

/// Parses the admission-control flags into [`Limits`].
fn parse_limits(args: &Args) -> Result<Limits, CliError> {
    let idle_ms = flag_u64(args, "--idle-ms", 300_000)?;
    Ok(Limits {
        max_frame_bytes: flag_u64(args, "--max-frame-bytes", 1 << 20)?.max(1) as usize,
        max_conns: flag_u64(args, "--max-conns", 64)?.max(1),
        max_requests: flag_u64(args, "--max-requests", 1_000_000)?.max(1),
        idle: (idle_ms > 0).then(|| Duration::from_millis(idle_ms)),
        max_inflight: flag_u64(args, "--max-inflight", 256)?.max(1),
    })
}

/// Creates or resumes the ECO write-ahead journal. The path comes from
/// `--journal FILE` or defaults to `<checkpoint-dir>/eco.journal`; with
/// neither flag the daemon runs journal-less (ECOs are not durable).
/// Returns the replayed-entry count.
fn setup_journal(args: &Args, service: &mut OracleService) -> Result<u64, CliError> {
    let path: Option<std::path::PathBuf> = match args.value("--journal") {
        Some(p) => Some(p.into()),
        None => args
            .value("--checkpoint")
            .map(|dir| Path::new(dir).join("eco.journal")),
    };
    let Some(path) = path else {
        return Ok(0);
    };
    if args.flag("--resume") {
        let (journal, entries, warn) = EcoJournal::resume(&path).map_err(|e| {
            CliError::input(format!("cannot resume journal `{}`: {e}", path.display()))
        })?;
        if let Some(w) = warn {
            eprintln!("warning: {}", pao_core::PaoError::from(w));
        }
        let replayed = if entries.is_empty() {
            0
        } else {
            eprintln!(
                "pao serve: replaying {} journaled ECO batch(es) …",
                entries.len()
            );
            service
                .replay(&entries)
                .map_err(|e| CliError::input(format!("journal replay failed: {e}")))?
        };
        service.attach_journal(journal);
        Ok(replayed)
    } else {
        let journal = EcoJournal::create(&path).map_err(|e| {
            CliError::input(format!("cannot create journal `{}`: {e}", path.display()))
        })?;
        service.attach_journal(journal);
        Ok(0)
    }
}

/// `pao serve <tech.lef> <design.def> (--socket PATH | --tcp ADDR) …`
pub fn cmd_serve(args: &Args) -> Result<(), CliError> {
    for name in [
        "--socket",
        "--tcp",
        "--threads",
        "--max-frame-bytes",
        "--max-conns",
        "--max-requests",
        "--idle-ms",
        "--max-inflight",
        "--journal",
    ] {
        if args.value_missing(name) {
            return Err(CliError::usage(format!("{name} requires a value")));
        }
    }
    // Endpoint usage errors must fire before the (potentially long)
    // load + analysis; `bind` re-checks when it actually binds.
    if usize::from(args.value("--socket").is_some()) + usize::from(args.value("--tcp").is_some())
        != 1
    {
        return Err(CliError::usage(
            "serve requires exactly one of --socket PATH or --tcp ADDR",
        ));
    }
    let limits = parse_limits(args)?;
    let (tech, design) = load_world(
        args.positional(1).map_err(CliError::Usage)?,
        args.positional(2).map_err(CliError::Usage)?,
    )?;
    pao_obs::enable_metrics();
    let mut cfg = PaoConfig::default();
    if let Some(t) = args.value("--threads") {
        cfg.threads = t
            .parse()
            .map_err(|_| CliError::usage("--threads expects a number"))?;
    }
    let (deadline, watchdog) = parse_budget_flags(args)?;
    // `parse_budget_flags` arms `--inject-stall` immediately; injection
    // on the daemon targets the *first ECO*, not the load — disarm now
    // and re-arm once the service is resident.
    pao_core::fault::disarm();
    let mut store = open_checkpoint(args, &tech, &design, &cfg)?;
    let fractions = store
        .as_ref()
        .and_then(pao_core::AnalysisCache::fractions)
        .unwrap_or_default();
    let budget = RunBudget {
        deadline: None, // the load is not deadline-cut; --deadline-ms bounds ECOs
        fractions,
        watchdog,
        store: store.as_mut(),
    };
    let collect_rejects = !args.flag("--no-ledger");
    eprintln!(
        "pao serve: loading `{}` ({} components) …",
        design.name,
        design.components().len()
    );
    let threads = cfg.threads.max(1);
    let mut service = OracleService::start(tech, design, cfg, budget, collect_rejects);
    let replayed = setup_journal(args, &mut service)?;
    // Chaos arms: deterministic fault/stall injection against the first
    // ECO re-analysis (the load above ran clean).
    if let Some(spec) = args.value("--inject-fault") {
        crate::arm_injected_fault(spec)?;
    }
    if let Some(spec) = args.value("--inject-stall") {
        crate::arm_injected_stall(spec)?;
    }
    let sym = pao_tech::symbol_stats();
    pao_obs::gauge_max("symbol.interned", sym.interned as u64);
    pao_obs::gauge_max("symbol.arena_bytes", sym.arena_bytes as u64);
    let listener = bind(args)?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::Internal(format!("cannot poll listener: {e}")))?;
    eprintln!(
        "pao serve: listening on {} ({} unique instances, {} failed pins)",
        listener.endpoint(),
        service.result().stats.unique_instances,
        service.result().stats.failed_pins,
    );
    let counters = ServeCounters::default();
    counters.journal_replayed.store(replayed, Ordering::SeqCst);
    pao_obs::counter_add("serve.journal_replayed", replayed);
    let shared = Arc::new(Shared {
        service: RwLock::new(service),
        shutdown: AtomicBool::new(false),
        threads,
        eco_deadline: deadline,
        eco_watchdog: watchdog,
        limits,
        counters,
    });
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                // Accepted sockets inherit the listener's non-blocking
                // flag on some platforms; request handling is blocking.
                let _ = stream.set_nonblocking(false);
                let active = shared.counters.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
                if active > shared.limits.max_conns {
                    // Connection-level shed: decline with the typed
                    // overloaded error. The write gets a short timeout so
                    // a client that never reads cannot stall the accept
                    // loop; dropping the stream closes it either way.
                    shared.counters.active_conns.fetch_sub(1, Ordering::SeqCst);
                    ServeCounters::bump(&shared.counters.shed_conns, "serve.shed_conns");
                    pao_obs::warn_limited("serve.shed_conns", Duration::from_secs(5), || {
                        format!(
                            "pao serve: shedding connections (cap {})",
                            shared.limits.max_conns
                        )
                    });
                    let mut s = stream;
                    let _ = s.set_write_timeout(Some(Duration::from_millis(100)));
                    let mut resp = overloaded_resp("null", "too many connections");
                    resp.push('\n');
                    let _ = s.write_all(resp.as_bytes());
                } else {
                    let conn_shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_conn(stream, &conn_shared));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("pao serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    let c = &shared.counters;
    let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
    eprintln!(
        "pao serve: shutdown ({} requests; shed {} conns + {} requests; {} oversized, {} idle-closed, {} request-capped; {} degraded ECOs; {} journal replays)",
        get(&c.requests),
        get(&c.shed_conns),
        get(&c.shed_requests),
        get(&c.oversized),
        get(&c.idle_closed),
        get(&c.request_capped),
        get(&c.eco_degraded),
        get(&c.journal_replayed),
    );
    Ok(())
}

/// The `--timeout-ms` client budget (connect retries *and* each response
/// read), default 15 s.
pub(crate) fn parse_timeout(args: &Args) -> Result<Duration, CliError> {
    Ok(Duration::from_millis(flag_u64(
        args,
        "--timeout-ms",
        15_000,
    )?))
}

/// The endpoint as a display string (also the jitter seed — every client
/// of one endpoint gets the same deterministic backoff schedule, a
/// different endpoint a different one; no wall-clock entropy).
fn endpoint_label(args: &Args) -> String {
    match (args.value("--socket"), args.value("--tcp")) {
        (Some(p), None) => format!("unix:{p}"),
        (None, Some(a)) => format!("tcp:{a}"),
        _ => String::new(),
    }
}

/// Connects to a running daemon, retrying with bounded exponential
/// backoff (10 ms doubling to 500 ms, deterministic seeded jitter, no
/// `rand`) until `--timeout-ms` expires — the daemon may still be
/// loading when the client starts.
pub(crate) fn connect(args: &Args, timeout: Duration) -> Result<Stream, CliError> {
    let attempt = || -> std::io::Result<Stream> {
        match (args.value("--socket"), args.value("--tcp")) {
            (Some(path), None) => UnixStream::connect(path).map(Stream::Unix),
            (None, Some(addr)) => TcpStream::connect(addr).map(Stream::Tcp),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "call requires exactly one of --socket PATH or --tcp ADDR",
            )),
        }
    };
    if usize::from(args.value("--socket").is_some()) + usize::from(args.value("--tcp").is_some())
        != 1
    {
        return Err(CliError::usage(
            "call requires exactly one of --socket PATH or --tcp ADDR",
        ));
    }
    let label = endpoint_label(args);
    let deadline = Instant::now() + timeout;
    let mut rng = pao_ptest::Rng::new(pao_ptest::case_seed(&label, 0));
    let mut backoff_ms: u64 = 10;
    loop {
        match attempt() {
            Ok(s) => return Ok(s),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(CliError::Transport(format!(
                        "cannot connect to {label} within {} ms: {e}",
                        timeout.as_millis()
                    )));
                }
                let jitter = rng.gen_range(0..=backoff_ms / 4);
                let sleep = Duration::from_millis(backoff_ms + jitter).min(deadline - now);
                std::thread::sleep(sleep);
                backoff_ms = (backoff_ms * 2).min(500);
            }
        }
    }
}

/// `pao call (--socket PATH | --tcp ADDR) [REQUEST …]`: sends each
/// request line (positionals, or stdin lines when none are given) and
/// prints the response lines. The scripting end of the serve smoke gate.
///
/// Transport failures — connect timeout, response-read timeout, the
/// server closing mid-exchange — exit 7, distinct from in-band JSON-RPC
/// errors (which print normally and exit 0: the *transport* worked).
pub fn cmd_call(args: &Args) -> Result<(), CliError> {
    for name in ["--socket", "--tcp", "--timeout-ms"] {
        if args.value_missing(name) {
            return Err(CliError::usage(format!("{name} requires a value")));
        }
    }
    let timeout = parse_timeout(args)?;
    let mut stream = connect(args, timeout)?;
    // Per-response read budget: a daemon that accepts a request but
    // never answers must not hang the client.
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| CliError::Transport(format!("cannot set read timeout: {e}")))?;
    let reader_half = stream
        .try_clone()
        .map_err(|e| CliError::Transport(format!("cannot clone connection: {e}")))?;
    let mut reader = BufReader::new(reader_half);
    let mut requests: Vec<String> = Vec::new();
    let mut i = 1;
    while let Ok(p) = args.positional(i) {
        requests.push(p.to_owned());
        i += 1;
    }
    if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| CliError::input(format!("cannot read stdin: {e}")))?;
            requests.push(line);
        }
    }
    for req in requests {
        if req.trim().is_empty() {
            continue;
        }
        stream
            .write_all(req.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .map_err(|e| CliError::Transport(format!("cannot send request: {e}")))?;
        let mut resp = String::new();
        let n = reader.read_line(&mut resp).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                CliError::Transport(format!("no response within {} ms", timeout.as_millis()))
            } else {
                CliError::Transport(format!("cannot read response: {e}"))
            }
        })?;
        if n == 0 {
            return Err(CliError::Transport(
                "server closed the connection".to_owned(),
            ));
        }
        print!("{resp}");
    }
    Ok(())
}

/// `pao profile (--socket PATH | --tcp ADDR)`: queries a *live* daemon's
/// `stats` method and renders its serve counters as a profile section —
/// the observability end of the hardening contract.
pub fn cmd_profile_serve(args: &Args) -> Result<(), CliError> {
    let timeout = parse_timeout(args)?;
    let mut stream = connect(args, timeout)?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| CliError::Transport(format!("cannot set read timeout: {e}")))?;
    let reader_half = stream
        .try_clone()
        .map_err(|e| CliError::Transport(format!("cannot clone connection: {e}")))?;
    let mut reader = BufReader::new(reader_half);
    stream
        .write_all(b"{\"id\":1,\"method\":\"stats\"}\n")
        .and_then(|()| stream.flush())
        .map_err(|e| CliError::Transport(format!("cannot send stats request: {e}")))?;
    let mut resp = String::new();
    let n = reader
        .read_line(&mut resp)
        .map_err(|e| CliError::Transport(format!("cannot read stats response: {e}")))?;
    if n == 0 {
        return Err(CliError::Transport(
            "server closed the connection".to_owned(),
        ));
    }
    let v = json::parse(&resp)
        .map_err(|e| CliError::Internal(format!("daemon sent invalid JSON: {e}")))?;
    let result = v
        .get("result")
        .ok_or_else(|| CliError::Internal(format!("stats request failed: {}", resp.trim())))?;
    let as_i64 = |key: &str| result.get(key).and_then(Value::as_i64).unwrap_or(0);
    let design = result
        .get("design")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_owned();
    let mut out = String::new();
    out.push_str(&format!(
        "profile: live daemon at {} (`{design}`, {} components)\n\n",
        endpoint_label(args),
        as_i64("components"),
    ));
    out.push_str(&format!(
        "eco updates   {:>10}\nfailed pins   {:>10}\ncache hits    {:>10}\ncache misses  {:>10}\n",
        as_i64("eco_updates"),
        as_i64("failed_pins"),
        result
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_i64)
            .unwrap_or(0),
        result
            .get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(Value::as_i64)
            .unwrap_or(0),
    ));
    if let Some(Value::Obj(members)) = result.get("serve") {
        out.push_str("\nserve counters:\n");
        for (k, val) in members {
            if let Some(n) = val.as_i64() {
                out.push_str(&format!("  serve.{k:<18} {n:>10}\n"));
            }
        }
    }
    print!("{out}");
    Ok(())
}
