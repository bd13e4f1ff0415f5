//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer (see `layers.rs`), kept in memory, and written once at
//! the end as Chrome trace-event JSON. Each span carries its parent and,
//! for serve calls, the JSON-RPC request id. `pao_obs` spans recorded
//! inside the program (its phase and executor spans) are merged into the
//! same file on their own tracks.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
struct SpanRec {
    /// Layer name, e.g. `select` or `wire.get_pin_access`.
    name: &'static str,
    /// Start time.
    start_ns: u64,
    /// End time.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Request id of a serve call.
    req: Option<u64>,
}

/// In-memory span recorder. Disabled recorders time nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder; `enabled` switches recording on.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured by the caller; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends; children may name it as
    /// their parent in between.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f` as a span named `name` under `parent`; returns its
    /// result and the elapsed seconds (measured whether or not spans are
    /// recorded).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, t0, t1, parent, None);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Self time per span name, in seconds, one sample per span: its
    /// duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out.entry(s.name)
                .or_default()
                .push(dur.saturating_sub(child) as f64 / 1e9);
        }
        out
    }

    /// Chrome trace-event JSON of the benchmark's spans (pid 0) plus the
    /// program's `pao_obs` spans (pid 1, one track per worker), validated
    /// with `pao_obs::json::validate`.
    pub fn to_chrome_json(&self, program: &pao_obs::TraceDump) -> Result<String, String> {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"perfbench\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let req = s.req.map_or_else(|| "null".to_owned(), |r| r.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":{},\"pid\":0,\"tid\":0,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{req}}}}}",
                pao_obs::json::quote(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                dur / 1000,
                dur % 1000,
            );
        }
        for e in &program.events {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"cat\":\"pao\",\"name\":{},\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03}}}",
                pao_obs::json::quote(e.name),
                e.track,
                e.start_ns / 1000,
                e.start_ns % 1000,
                e.dur_ns / 1000,
                e.dur_ns % 1000,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        pao_obs::json::validate(&out).map_err(|e| format!("trace JSON invalid: {e}"))?;
        Ok(out)
    }
}
