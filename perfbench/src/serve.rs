//! The `pao serve` daemon under load: spawn, readiness, the two clients,
//! and shutdown.
//!
//! Load comes from this one process over two connections: a closed-loop
//! reader (next request only after the previous reply) and a writer
//! sending `eco_update` batches, either open-loop beside the reader on a
//! fixed schedule (timed from each scheduled send) or alone after it.

use crate::inputs::{eco_request, Files, Mover};
use crate::layers::Query;
use pao_core::EcoMove;
use pao_ptest::Rng;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Daemons spawned so far; each gets its own socket and journal, named
/// relative to the working directory the benchmark and the daemon share
/// (keeps the socket path short).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Read tail and rate are taken per bucket of this much serve time.
const BUCKET: Duration = Duration::from_millis(500);

/// How long a daemon may take to load before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `pao serve --journal` daemon.
pub struct Daemon {
    child: Child,
    socket: String,
}

/// One line-delimited JSON-RPC connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &str) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(READY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and reads its one response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        let mut frame = String::with_capacity(request.len() + 1);
        frame.push_str(request);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line)
    }
}

impl Daemon {
    /// Spawns `pao serve` on `files` with `threads` workers and waits for
    /// its first answered request.
    pub fn spawn(pao: &Path, files: &Files, threads: usize) -> Result<Daemon, String> {
        let n = SPAWNED.fetch_add(1, Ordering::SeqCst);
        let socket = format!("pao-{n}.sock");
        let journal = format!("pao-{n}.journal");
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&journal);
        let log = std::fs::File::create(format!("pao-{n}.log")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(pao)
            .arg("serve")
            .arg(&files.lef)
            .arg(&files.def)
            .args(["--socket", &socket, "--journal", &journal])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", pao.display()))?;
        let mut daemon = Daemon { child, socket };
        loop {
            if let Ok(mut c) = Conn::open(&daemon.socket) {
                if c.call("{\"id\":0,\"method\":\"stats\"}").is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "pao serve exited during load ({status}); see pao-{n}.log"
                ));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err("pao serve did not answer within 120 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket).map_err(|e| format!("connect {}: {e}", self.socket))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.socket) {
            let _ = c.call("{\"id\":0,\"method\":\"shutdown\"}");
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("pao serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("pao serve did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Request id on the wire.
    pub id: u64,
    /// Method name.
    pub method: &'static str,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When the reply arrived.
    pub done: Instant,
    /// The reply passed its checks.
    pub ok: bool,
}

impl Op {
    /// Latency from the due time, in seconds.
    pub fn latency(&self) -> f64 {
        (self.done - self.due).as_secs_f64()
    }
}

/// Everything the mixed serve slices of one run produced.
#[derive(Default)]
pub struct ServeLog {
    /// The reader's requests in order.
    pub reads: Vec<Op>,
    /// The writer's `eco_update` requests in order.
    pub ecos: Vec<Op>,
    /// The batches the daemon applied, in order (the replay input).
    pub applied: Vec<Vec<EcoMove>>,
    /// Indices into `reads` completed in each whole [`BUCKET`] of a
    /// slice (a slice's trailing partial bucket is dropped).
    buckets: Vec<Vec<usize>>,
    /// Total wall time of the slices.
    pub window_s: f64,
}

impl ServeLog {
    /// The reads of each whole [`BUCKET`] of serve time.
    pub fn reads_per_bucket(&self) -> Vec<Vec<&Op>> {
        self.buckets
            .iter()
            .map(|idx| idx.iter().map(|&i| &self.reads[i]).collect())
            .collect()
    }

    /// Reads that overlapped an in-flight ECO.
    pub fn blocked_reads(&self) -> usize {
        self.reads
            .iter()
            .filter(|r| self.ecos.iter().any(|e| r.sent < e.done && e.sent < r.done))
            .count()
    }

    /// Runs one serve slice against `daemon`: the reader for `window`
    /// and the writer as `load` says, appending to the log.
    pub fn drive(
        &mut self,
        daemon: &Daemon,
        queries: &[Query],
        mover: &mut Mover,
        load: EcoLoad,
        window: Duration,
        seed: u64,
    ) -> Result<(), String> {
        let mut reader = daemon.connect()?;
        let mut writer = daemon.connect()?;
        let first_read = self.reads.len() as u64 + 1;
        let first_eco = 1_000_000 + self.ecos.len() as u64;
        let start = Instant::now();
        let end = start + window;
        let (reads, mut ecos) = std::thread::scope(|s| {
            let r = s.spawn(|| {
                let mut rng = Rng::new(seed ^ first_read);
                let mut ops = Vec::new();
                let mut id = first_read;
                while Instant::now() < end {
                    let q = rng.pick(queries);
                    let req = q.request(id);
                    let sent = Instant::now();
                    let resp = reader.call(&req);
                    let done = Instant::now();
                    let ok = resp.is_ok_and(|line| q.check_response(id, &line));
                    ops.push(Op {
                        id,
                        method: q.method(),
                        due: sent,
                        sent,
                        done,
                        ok,
                    });
                    id += 1;
                }
                ops
            });
            let mut ecos = Vec::new();
            if let EcoLoad::Mixed(period) = load {
                for k in 0u32.. {
                    let due = start + period * k;
                    if due >= end {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    ecos.push(eco(&mut writer, mover, first_eco + u64::from(k), due));
                }
            }
            (r.join(), ecos)
        });
        let reads = reads.map_err(|_| "reader thread panicked".to_owned())?;
        let window_s = start.elapsed().as_secs_f64();
        if let EcoLoad::After(n) = load {
            for k in 0..n {
                let due = Instant::now();
                ecos.push(eco(&mut writer, mover, first_eco + u64::from(k), due));
            }
        }
        let base = self.reads.len();
        let width = BUCKET.as_secs_f64();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); (window_s / width).floor() as usize];
        for (i, op) in reads.iter().enumerate() {
            let b = ((op.done - start).as_secs_f64() / width) as usize;
            if let Some(bucket) = buckets.get_mut(b) {
                bucket.push(base + i);
            }
        }
        self.buckets.extend(buckets);
        self.reads.extend(reads);
        for (op, moves) in ecos {
            self.ecos.push(op);
            self.applied.extend(moves);
        }
        self.window_s += window_s;
        Ok(())
    }
}

/// How a serve slice loads the writer.
#[derive(Debug, Clone, Copy)]
pub enum EcoLoad {
    /// Open loop beside the reader: one batch every period, each timed
    /// from its scheduled send.
    Mixed(Duration),
    /// After the reader's window, alone: this many batches back to back.
    After(u32),
}

/// Sends one ECO batch due at `due`. Returns the timed request and the
/// batch when the daemon applied it (any `result`); the request passes
/// only when the batch also left no failed pin.
fn eco(writer: &mut Conn, mover: &mut Mover, id: u64, due: Instant) -> (Op, Option<Vec<EcoMove>>) {
    let moves = mover.batch(2);
    let sent = Instant::now();
    let resp = writer.call(&eco_request(id, &moves));
    let done = Instant::now();
    let failed_pins = resp.ok().and_then(|line| {
        let v = pao_obs::json::parse(&line).ok()?;
        v.get("result")?.get("failed_pins")?.as_i64()
    });
    let op = Op {
        id,
        method: "eco_update",
        due,
        sent,
        done,
        ok: !moves.is_empty() && failed_pins == Some(0),
    };
    (op, failed_pins.is_some().then_some(moves))
}

/// Fetches the daemon's final `dump_selection` text and `total_aps`.
pub fn final_state(daemon: &Daemon) -> Result<(String, usize), String> {
    let mut c = daemon.connect()?;
    let mut field = |req: &str, path: &[&str]| -> Result<pao_obs::json::Value, String> {
        let line = c.call(req).map_err(|e| e.to_string())?;
        let mut v = pao_obs::json::parse(&line).map_err(|e| e.to_string())?;
        for key in path {
            v = v
                .get(key)
                .cloned()
                .ok_or_else(|| format!("reply lacks `{key}`: {line}"))?;
        }
        Ok(v)
    };
    let dump = field(
        "{\"id\":0,\"method\":\"dump_selection\"}",
        &["result", "dump"],
    )?
    .as_str()
    .map(str::to_owned)
    .ok_or("dump is not a string")?;
    let aps = field("{\"id\":0,\"method\":\"stats\"}", &["result", "total_aps"])?
        .as_i64()
        .ok_or("total_aps is not a number")?;
    Ok((dump, aps as usize))
}
