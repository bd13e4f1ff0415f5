//! Self-scheduling parallel executor (the paper's future-work item (ii):
//! multi-threading to further reduce runtime).
//!
//! Unique instances, pattern DPs, cluster groups, repair scans and audit
//! shards are all independent units of work with wildly uneven costs (a
//! RAM macro's pin takes orders of magnitude longer than an inverter's).
//! A static chunking scheme stalls on the unlucky worker that drew the
//! expensive chunk; instead every worker *claims* the next unprocessed
//! items from one shared queue, so load balances itself with no external
//! thread-pool dependency — scoped threads and one lock, std only. A
//! claim takes a contiguous block of items (sized from the item count
//! alone: one item below 8192, always at least 4096 claims per phase), so
//! the queue lock is taken once per block, never per item; everything
//! else — isolation, hooks, cancel polls, heartbeats, spans — stays per
//! item.
//!
//! A claim block owns its items and its results: the worker moves the
//! block's items out of the queue and appends their results to its own
//! list, noting the block's first index, and the blocks are put in input
//! order after the join — so output order equals input order regardless
//! of which worker finished what, and callers observe identical output at
//! every thread count. One thread runs the same claim loop on one worker
//! thread; there is no inline mode.
//!
//! [`parallel_map`] is the one entry point. An [`ExecOptions`] value says
//! how the phase runs — worker count, span label, optional budget — and
//! every phase, the ECO window tail's included, goes through it the same
//! way: the analysis runs each of its phases through the run that owns
//! the phase (`budget::PhaseRun::map`), which supplies the worker count,
//! the phase's executor label and its token, and collects its report.

//! **Fault isolation.** Every work item runs under
//! [`std::panic::catch_unwind`], so one panicking item cannot take down
//! the phase: the panic comes back as that item's
//! `Err(ItemFault::Panic)` while every other item completes. Callers
//! whose items must all succeed pass the output to [`expect_all`], which
//! re-raises the first panic only after the full phase has drained.
//! The claim lock recovers from poisoning (`PoisonError::into_inner`) and
//! is never held across an item call, so a fault in one item can never
//! cascade into a panic on another thread.

//! **Deadlines and the watchdog.** A phase run under a [`PhaseBudget`]
//! threads its [`CancelToken`] through the claim loop: every worker polls
//! it *before* starting the next item, so an expired deadline or a
//! tripped watchdog finishes in-flight items and yields the unstarted
//! ones as `Err(ItemFault::Skipped)`. When a [`Watchdog`] is armed, a
//! monitor thread samples per-worker heartbeats and trips the token
//! (recording a [`StallRecord`] and bumping `watchdog.stalls`) when a
//! worker sits in one item for longer than a multiple of the observed
//! per-item time — a hung run becomes a degraded one. The run that owns
//! a phase's token turns its skipped and panicked items into the run's
//! skip and fault records.

use crate::budget::{CancelReason, CancelToken, StallRecord, Watchdog};
use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A caught worker-panic payload.
type Payload = Box<dyn Any + Send + 'static>;

/// Renders a caught panic payload as the quarantine reason string.
fn payload_reason(payload: &Payload) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_owned())
}

/// Why one work item produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemFault {
    /// The item panicked (quarantined); the payload message.
    Panic(String),
    /// The item was never run: the phase's budget expired, the watchdog
    /// tripped, or the token was cancelled before the item started.
    Skipped(CancelReason),
}

impl fmt::Display for ItemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemFault::Panic(reason) => f.write_str(reason),
            ItemFault::Skipped(reason) => write!(f, "skipped ({reason})"),
        }
    }
}

/// The budget under which one phase runs: the cancel token polled
/// between items plus the optional stall watchdog.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBudget<'a> {
    /// Cancellation/deadline token; polled before every item starts.
    pub token: &'a CancelToken,
    /// Stall watchdog configuration (`None` = no monitor thread).
    pub watchdog: Option<Watchdog>,
}

impl<'a> PhaseBudget<'a> {
    /// A budget over `token` with an optional watchdog.
    #[must_use]
    pub fn new(token: &'a CancelToken, watchdog: Option<Watchdog>) -> PhaseBudget<'a> {
        PhaseBudget { token, watchdog }
    }
}

/// How one phase runs on the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Worker threads, clamped to one per item and at least one; `1`
    /// reproduces the paper's single-threaded measurement mode.
    pub threads: usize,
    /// Observability label: when span recording is on
    /// ([`pao_obs::enable_trace`]), every item becomes one span named
    /// `label` on worker `w`'s track `w + 1`. Fault and stall injection
    /// (`crate::fault`) match it too.
    pub label: &'static str,
    /// The budget polled between items; `None` runs every item.
    pub budget: Option<PhaseBudget<'a>>,
}

impl<'a> ExecOptions<'a> {
    /// `threads` workers recording spans as `label`, with no budget.
    #[must_use]
    pub fn new(threads: usize, label: &'static str) -> ExecOptions<'a> {
        ExecOptions {
            threads,
            label,
            budget: None,
        }
    }

    /// These options under `budget` (`None` keeps them unbudgeted).
    #[must_use]
    pub fn with_budget(self, budget: Option<PhaseBudget<'a>>) -> ExecOptions<'a> {
        ExecOptions { budget, ..self }
    }
}

/// What one parallel phase did: how many workers ran and how long each
/// was busy (claimed items, excluding idle/steal time). Powers the
/// per-step parallel-efficiency lines in [`crate::stats::PaoStats`].
///
/// On Linux, per-worker busy time is the worker thread's **on-CPU time**
/// (`/proc/thread-self/schedstat`), capped by its wall-clock item total.
/// Wall clocks alone count involuntary preemption as busy: on a host
/// with fewer cores than workers they inflate `busy_us` by the
/// oversubscription factor even though no extra work ran. Off Linux the
/// wall-clock item total is reported unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Worker threads that participated.
    pub threads: usize,
    /// Busy time per worker, in microseconds: one entry per worker (an
    /// empty input runs one).
    pub busy_us: Vec<u64>,
}

impl ExecReport {
    /// Total busy time across workers, in microseconds.
    #[must_use]
    pub fn total_busy_us(&self) -> u64 {
        self.busy_us.iter().sum()
    }

    /// Merges another report (phases run in several calls — e.g. repair
    /// rounds — accumulate into one report).
    pub fn merge(&mut self, other: &ExecReport) {
        self.threads = self.threads.max(other.threads);
        for (i, &b) in other.busy_us.iter().enumerate() {
            if i < self.busy_us.len() {
                self.busy_us[i] += b;
            } else {
                self.busy_us.push(b);
            }
        }
    }
}

/// Maps `f` over `items` with a self-scheduling pool of up to
/// `opts.threads` workers, preserving order, and reports worker count and
/// per-worker busy time for the phase.
///
/// `init` builds per-worker scratch state: it runs once on each worker
/// thread, and every item call receives that worker's `&mut S`. This is
/// how per-worker arenas (e.g. [`pao_drc::DrcScratch`]) reach
/// fine-grained scans — the repair and audit phases probe one pin per
/// item and would otherwise re-allocate the DRC workspace per probe. The
/// scratch is dropped when its worker finishes; state that must outlive
/// the phase (observability tallies) should be published from inside
/// `f`.
///
/// Every item is fault-isolated: a panicking item yields
/// `Err(ItemFault::Panic(reason))` in its output slot while **every other
/// item completes normally**, and the executor stays fully usable
/// afterwards. A worker whose item panicked gets a fresh scratch (`init`
/// is re-run) before its next item, since the unwind may have left the
/// old one mid-update.
///
/// Under `opts.budget`, every item start polls the token, and an item
/// never started because it tripped yields
/// `Err(ItemFault::Skipped(reason))`. In-flight items always finish, so
/// the `Ok` results form a prefix of the input plus whatever racing
/// workers had already claimed.
///
/// ```
/// use pao_core::parallel::{parallel_map, ExecOptions};
/// let (out, _) = parallel_map(
///     ExecOptions::new(2, "docs.quarantine"),
///     vec![1, 2, 3],
///     || (),
///     |(), x| {
///         assert!(x != 2, "two is right out");
///         x * 10
///     },
/// );
/// assert_eq!(out[0], Ok(10));
/// assert!(out[1].as_ref().unwrap_err().to_string().contains("two is right out"));
/// assert_eq!(out[2], Ok(30));
/// ```
pub fn parallel_map<T, R, S, I, F>(
    opts: ExecOptions<'_>,
    items: Vec<T>,
    init: I,
    f: F,
) -> (Vec<Result<R, ItemFault>>, ExecReport)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let never = CancelToken::never();
    let budget = opts.budget.unwrap_or(PhaseBudget::new(&never, None));
    let label = opts.label;
    let n = items.len();
    // One guarded item call: the armed fault/stall hooks and the item
    // body all run inside the unwind boundary, so an injected or organic
    // panic is contained to this slot.
    let run_one = |scratch: &mut S, i: usize, item: T| -> Result<R, ItemFault> {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            crate::fault::fire(label, i);
            crate::fault::stall_fire(label, i);
            f(scratch, item)
        }))
        .map_err(|payload| ItemFault::Panic(payload_reason(&payload)))
    };
    let threads = opts.threads.clamp(1, n.max(1));
    let block = claim_block(n);

    // Claims hand out contiguous index blocks under one lock — the next
    // unclaimed index and the unclaimed items. A worker moves its block's
    // items into its own buffer and appends their results to its own
    // list, noting each block's first index and length, so nothing is
    // locked per item; the blocks are put in input order after the join.
    // The lock is never held across an item call and recovers from
    // poisoning, so one fault cannot cascade.
    let queue = Mutex::new((0usize, items.into_iter()));
    let tracing = pao_obs::trace_enabled();

    // Watchdog instrumentation. Heartbeats are per-worker counters with
    // claim/finish parity: an odd value means the worker is inside the
    // item recorded in `cur_item`. Only touched when a watchdog is armed,
    // so the unmonitored hot loop pays nothing.
    let monitoring = budget.watchdog.is_some();
    let beats: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let cur_item: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let done_count = AtomicUsize::new(0);
    let finished = Mutex::new(false);
    let finished_cv = Condvar::new();

    let (busy_us, workers) = {
        let (queue, init, run_one) = (&queue, &init, &run_one);
        let (beats, cur_item, done_count) = (&beats, &cur_item, &done_count);
        let (finished, finished_cv) = (&finished, &finished_cv);
        std::thread::scope(|scope| {
            let monitor = budget.watchdog.map(|wd| {
                scope.spawn(move || {
                    monitor_heartbeats(
                        label,
                        wd,
                        budget.token,
                        beats,
                        cur_item,
                        done_count,
                        finished,
                        finished_cv,
                    );
                })
            });
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        if tracing {
                            // Worker w of every phase shares track w + 1,
                            // so one Perfetto row shows a worker's whole run.
                            pao_obs::trace::set_track(w as u32 + 1, &format!("worker {w}"));
                        }
                        let mut scratch = init();
                        let mut busy = Duration::ZERO;
                        let mut claimed: Vec<T> = Vec::with_capacity(block);
                        // Results in claim order, and `(first index,
                        // length)` per block they came from.
                        let mut done: Vec<Result<R, ItemFault>> =
                            Vec::with_capacity(n.div_ceil(threads));
                        let mut blocks: Vec<(usize, usize)> = Vec::new();
                        // Sampled after init() so scratch construction
                        // doesn't count as item work.
                        let cpu_start = pao_obs::thread_cpu_ns();
                        // Cooperative cancellation: poll before claiming,
                        // so in-flight items finish and unclaimed ones
                        // stay unclaimed (the post-pass skips them).
                        while !budget.token.is_cancelled() {
                            // Claim the next unprocessed block of indices;
                            // self-scheduling makes uneven item costs
                            // balance automatically.
                            let lo = {
                                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                                let (next, rest) = &mut *q;
                                let lo = *next;
                                claimed.extend(rest.by_ref().take(block));
                                *next += claimed.len();
                                lo
                            };
                            if claimed.is_empty() {
                                break;
                            }
                            let first = done.len();
                            // One clock read per block; with tracing on,
                            // each item's span runs from the previous
                            // item's end, so the spans tile the block.
                            let start = Instant::now();
                            let mut mark = start;
                            for (i, item) in (lo..).zip(claimed.drain(..)) {
                                // Inside a block the cancel poll stays per
                                // item; a tripped token stays tripped, so
                                // the claim loop's poll then ends the worker.
                                if i > lo && budget.token.is_cancelled() {
                                    break;
                                }
                                if monitoring {
                                    cur_item[w].store(i, Ordering::Relaxed);
                                    beats[w].fetch_add(1, Ordering::Release);
                                }
                                let out = run_one(&mut scratch, i, item);
                                if out.is_err() {
                                    // The unwind may have left the scratch
                                    // arena mid-update; rebuild it.
                                    scratch = init();
                                }
                                if monitoring {
                                    beats[w].fetch_add(1, Ordering::Release);
                                    done_count.fetch_add(1, Ordering::Relaxed);
                                }
                                if tracing {
                                    let now = Instant::now();
                                    pao_obs::record_span_at(label, mark, now - mark);
                                    mark = now;
                                }
                                done.push(out);
                            }
                            busy += if tracing { mark } else { Instant::now() } - start;
                            blocks.push((lo, done.len() - first));
                        }
                        // Scope exit does not wait for TLS destructors;
                        // push buffered spans and metrics out while still
                        // joinable.
                        pao_obs::flush_thread();
                        (worker_busy_us(cpu_start, busy), blocks, done)
                    })
                })
                .collect();
            let mut busy_us = Vec::with_capacity(threads);
            let mut workers = Vec::with_capacity(threads);
            for h in handles {
                match h.join() {
                    Ok((us, blocks, done)) => {
                        busy_us.push(us);
                        workers.push((blocks, done));
                    }
                    // Workers catch item panics, so a join error means the
                    // worker loop itself failed; report idle rather than
                    // abort — its items degrade below.
                    Err(_) => busy_us.push(0),
                }
            }
            if let Some(m) = monitor {
                *finished.lock().unwrap_or_else(PoisonError::into_inner) = true;
                finished_cv.notify_all();
                let _ = m.join();
            }
            (busy_us, workers)
        })
    };

    // Every worker's blocks in input order; a worker claims ascending
    // indices, so each one's results are consumed front to back.
    let mut blocks: Vec<(usize, usize, usize)> = Vec::new();
    let mut results = Vec::with_capacity(workers.len());
    for (w, (worker_blocks, done)) in workers.into_iter().enumerate() {
        blocks.extend(worker_blocks.into_iter().map(|(lo, len)| (lo, len, w)));
        results.push(done.into_iter());
    }
    blocks.sort_unstable();
    let cancel_reason = budget.token.reason();
    let missing = |i: usize| match cancel_reason {
        // Never claimed because the token tripped first.
        Some(reason) => Err(ItemFault::Skipped(reason)),
        None => Err(ItemFault::Panic(format!(
            "executor: result {i} never filled"
        ))),
    };
    let mut out: Vec<Result<R, ItemFault>> = Vec::with_capacity(n);
    for (lo, len, w) in blocks {
        let at = out.len();
        out.extend((at..lo).map(missing));
        out.extend(results[w].by_ref().take(len));
    }
    let at = out.len();
    out.extend((at..n).map(missing));
    (out, ExecReport { threads, busy_us })
}

/// The strict contract, for phases whose items must all succeed: the
/// results of a drained [`parallel_map`] in input order, or a panic that
/// re-raises the first faulted item's message.
///
/// ```
/// use pao_core::parallel::{expect_all, parallel_map, ExecOptions};
/// let opts = ExecOptions::new(4, "docs.squares");
/// let (out, _) = parallel_map(opts, vec![1, 2, 3, 4], || (), |(), x| x * x);
/// assert_eq!(expect_all(out), vec![1, 4, 9, 16]);
/// ```
pub fn expect_all<R>(results: Vec<Result<R, ItemFault>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|fault| panic!("{fault}")))
        .collect()
}

/// Indices a worker claims at once. Claiming is the one step workers
/// contend on, so phases of many tiny items (a fully hinted audit visits
/// every connected pin) claim contiguous blocks. The size depends on the
/// item count only and always leaves at least 4096 claims, so load still
/// balances; phases under 8192 items claim item by item.
fn claim_block(n: usize) -> usize {
    (n / 4096).clamp(1, 256)
}

/// The watchdog monitor loop: samples per-worker heartbeats every
/// `wd.poll` until the phase finishes, and trips `token` with
/// [`CancelReason::Stall`] when a worker has been inside one item for
/// longer than `max(wd.min_stall, wd.multiple × observed mean item
/// time)`. The mean is estimated generously (elapsed × workers /
/// completed items), which biases the watchdog away from false positives
/// on legitimately slow phases. Crucially, "elapsed" is measured up to
/// the *last heartbeat progress*, not the current instant: once every
/// healthy worker has drained, the threshold freezes while the stalled
/// worker's silence keeps growing — otherwise a short phase (few items
/// per worker) could see its threshold outrun the stall forever.
#[allow(clippy::too_many_arguments)]
fn monitor_heartbeats(
    label: &str,
    wd: Watchdog,
    token: &CancelToken,
    beats: &[AtomicU64],
    cur_item: &[AtomicUsize],
    done_count: &AtomicUsize,
    finished: &Mutex<bool>,
    finished_cv: &Condvar,
) {
    let phase_start = Instant::now();
    let mut seen: Vec<(u64, Instant)> = beats.iter().map(|_| (0u64, phase_start)).collect();
    let mut last_progress = phase_start;
    'monitor: loop {
        {
            let guard = finished.lock().unwrap_or_else(PoisonError::into_inner);
            let (guard, _) = finished_cv
                .wait_timeout(guard, wd.poll)
                .unwrap_or_else(PoisonError::into_inner);
            if *guard {
                break 'monitor;
            }
        }
        let now = Instant::now();
        // Refresh per-worker progress stamps first so the mean below is
        // based on when work was last actually moving.
        for (w, beat) in beats.iter().enumerate() {
            let b = beat.load(Ordering::Acquire);
            if b != seen[w].0 {
                seen[w] = (b, now);
                last_progress = now;
            }
        }
        let completed = done_count.load(Ordering::Relaxed);
        let mean = if completed > 0 {
            last_progress
                .duration_since(phase_start)
                .mul_f64(beats.len() as f64 / completed as f64)
        } else {
            Duration::ZERO
        };
        let threshold = wd.min_stall.max(mean.saturating_mul(wd.multiple));
        for (w, &(b, since)) in seen.iter().enumerate() {
            // Odd parity = the worker claimed an item it has not finished.
            if b % 2 == 1 && now.duration_since(since) >= threshold {
                let stalled = now.duration_since(since);
                pao_obs::counter_add("watchdog.stalls", 1);
                token.record_stall(StallRecord {
                    label: label.to_owned(),
                    worker: w,
                    item: cur_item[w].load(Ordering::Relaxed),
                    stalled,
                    threshold,
                });
                token.cancel(CancelReason::Stall);
                // One trip per phase: healthy workers drain cooperatively;
                // the stalled item must eventually return on its own.
                break 'monitor;
            }
        }
    }
    let total_beats: u64 = beats.iter().map(|b| b.load(Ordering::Acquire)).sum();
    pao_obs::gauge_max("watchdog.heartbeats", total_beats);
    pao_obs::flush_thread();
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One worker's reported busy time: its on-CPU time for the phase when
/// the kernel exposes it, capped by the wall-clock item total so the
/// phase's item spans always cover the busy figure. Wall time alone
/// counts scheduler preemption as busy — with more workers than cores
/// it inflates by the oversubscription factor while wall time gains
/// nothing (the apgen "3× busy on one core" artifact). Off Linux the
/// wall-clock total is reported unchanged.
fn worker_busy_us(cpu_start_ns: Option<u64>, wall_busy: Duration) -> u64 {
    let wall_us = duration_us(wall_busy);
    match (cpu_start_ns, pao_obs::thread_cpu_ns()) {
        // A zero delta means the whole worker ran inside one scheduler
        // accounting quantum (schedstat updates on tick/switch); the
        // wall total is the better estimate at that scale.
        (Some(a), Some(b)) if b > a => ((b - a) / 1_000).min(wall_us),
        _ => wall_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch-free strict map: the shape the order tests exercise.
    fn strict<T: Send, R: Send>(
        threads: usize,
        items: Vec<T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let opts = ExecOptions::new(threads, "test.strict");
        expect_all(parallel_map(opts, items, || (), |(), x| f(x)).0)
    }

    /// Options for `threads` workers labelled `label` under `token`.
    fn budgeted<'a>(
        threads: usize,
        label: &'static str,
        token: &'a CancelToken,
        watchdog: Option<Watchdog>,
    ) -> ExecOptions<'a> {
        ExecOptions::new(threads, label).with_budget(Some(PhaseBudget::new(token, watchdog)))
    }

    #[test]
    fn preserves_order() {
        let input: Vec<i64> = (0..1000).collect();
        let expect: Vec<i64> = input.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                strict(threads, input.clone(), |x| x * 2),
                expect,
                "{threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(strict(8, Vec::<i32>::new(), |x| x), Vec::<i32>::new());
        assert_eq!(strict(8, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(strict(100, vec![1, 2, 3], |x| x), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panic_payload() {
        // The original assertion message must survive the worker boundary.
        let _ = strict(2, vec![1, 2, 3, 4], |x| {
            assert!(x != 3, "boom");
            x
        });
    }

    #[test]
    fn balances_uneven_work() {
        // One huge item and many tiny ones: self-scheduling must not leave
        // workers starved behind the huge one. (Functional check only —
        // timing is not asserted; single-CPU CI cannot show speedup.)
        let mut items = vec![200_000u64];
        items.extend(std::iter::repeat_n(10, 63));
        let expect: Vec<u64> = items
            .iter()
            .map(|&spin| (0..spin).fold(0u64, |a, b| a.wrapping_add(b * b)))
            .collect();
        let got = strict(4, items, |spin| {
            (0..spin).fold(0u64, |a, b| a.wrapping_add(b * b))
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn reports_threads_and_busy_time() {
        let opts = ExecOptions::new(3, "test.report");
        let (out, rep) = parallel_map(opts, (0..64).collect::<Vec<u32>>(), || (), |(), x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(rep.threads, 3);
        assert_eq!(rep.busy_us.len(), 3);
        // One thread reports a single worker, an empty input included.
        for items in [vec![1, 2, 3], vec![]] {
            let opts = ExecOptions::new(1, "test.report");
            let (_, rep1) = parallel_map(opts, items, || (), |(), x: u32| x);
            assert_eq!(rep1.threads, 1);
            assert_eq!(rep1.busy_us.len(), 1);
        }
    }

    #[test]
    fn labeled_run_records_spans_covering_busy_time() {
        // One worker and three alike record one span per item, on the
        // worker tracks.
        for threads in [1, 3] {
            pao_obs::enable_trace();
            let (out, rep) = parallel_map(
                ExecOptions::new(threads, "test.core.tick"),
                (0..64u64).collect(),
                || (),
                |(), x| (0..20_000 + x).fold(0u64, |a, b| a.wrapping_add(b * b)),
            );
            pao_obs::disable_all();
            let dump = pao_obs::take_trace();
            assert_eq!(out.len(), 64);
            // Other tests in this binary may record spans concurrently;
            // judge only our own label.
            let ours: Vec<_> = dump
                .events
                .iter()
                .filter(|e| e.name == "test.core.tick")
                .collect();
            assert_eq!(ours.len(), 64, "one span per item at {threads} threads");
            // Spans sit on worker tracks (1..=threads). The span total
            // covers the executor's busy total to µs rounding: the spans
            // reuse the busy-time instants, so coverage is structural.
            assert!(
                ours.iter().all(|e| (1..=threads as u32).contains(&e.track)),
                "worker tracks at {threads} threads"
            );
            let span_ns: u64 = ours.iter().map(|e| e.dur_ns).sum();
            let busy_ns = rep.total_busy_us() * 1000;
            assert!(
                span_ns + 1000 >= busy_ns,
                "span total {span_ns}ns must cover busy total {busy_ns}ns at {threads} threads"
            );
        }
    }

    #[test]
    fn scratch_state_persists_per_worker() {
        for threads in [1, 3] {
            let (out, _) = parallel_map(
                ExecOptions::new(threads, "test.scratch"),
                (0..100u32).collect::<Vec<_>>(),
                || 0u32,
                |seen, x| {
                    *seen += 1;
                    (x, *seen)
                },
            );
            let out = expect_all(out);
            // Order preserved; every worker's counter is monotone from 1.
            assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i as u32));
            assert!(out.iter().all(|&(_, s)| s >= 1));
            let max_seen = out.iter().map(|&(_, s)| s).max().unwrap();
            assert!(
                max_seen as usize >= 100 / threads.max(1),
                "scratch must persist across items on a worker"
            );
        }
    }

    #[test]
    fn quarantine_isolates_panicking_item() {
        for threads in [1, 4] {
            let (out, rep) = parallel_map(
                ExecOptions::new(threads, "test.quarantine"),
                (0..16i64).collect::<Vec<_>>(),
                || (),
                |(), x| {
                    assert!(x != 5, "item five exploded");
                    x * 2
                },
            );
            assert_eq!(out.len(), 16, "{threads}");
            for (i, o) in out.iter().enumerate() {
                if i == 5 {
                    let reason = o.as_ref().expect_err("item 5 must be quarantined");
                    assert!(
                        reason.to_string().contains("item five exploded"),
                        "{reason}"
                    );
                } else {
                    assert_eq!(*o, Ok(i as i64 * 2), "item {i} at {threads} threads");
                }
            }
            assert_eq!(rep.busy_us.len(), rep.threads);
        }
    }

    #[test]
    fn executor_reusable_after_worker_panic() {
        // Regression: a panicking item used to poison the done-slot chain
        // and abort the scope; now the same executor (and the process)
        // keeps working afterwards.
        let (out, _) = parallel_map(
            ExecOptions::new(4, "test.reuse.faulty"),
            (0..32u64).collect::<Vec<_>>(),
            || (),
            |(), x| {
                assert!(x % 7 != 3, "boom {x}");
                x
            },
        );
        assert_eq!(out.iter().filter(|o| o.is_err()).count(), 5);
        // Strict mode right after: must behave exactly as on a fresh
        // process.
        let clean = strict(4, (0..32u64).collect::<Vec<_>>(), |x| x + 1);
        assert_eq!(clean, (1..=32).collect::<Vec<u64>>());
    }

    #[test]
    fn quarantine_reinitializes_scratch_after_panic() {
        // One worker is deterministic: the item after the panic must see
        // a fresh scratch, not one abandoned mid-unwind.
        let (out, _) = parallel_map(
            ExecOptions::new(1, "test.scratch.reinit"),
            vec![10u32, 11, 12],
            || 0u32,
            |seen, x| {
                *seen += 1;
                assert!(x != 11, "poisoned item");
                (x, *seen)
            },
        );
        assert_eq!(out[0], Ok((10, 1)));
        assert!(out[1].is_err());
        assert_eq!(out[2], Ok((12, 1)), "scratch must be rebuilt after a fault");
    }

    #[test]
    fn injected_fault_is_quarantined_at_every_thread_count() {
        let _g = crate::fault::test_lock();
        for threads in [1, 4] {
            crate::fault::arm("test.inject", 2);
            let (out, _) = parallel_map(
                ExecOptions::new(threads, "test.inject"),
                (0..8u32).collect::<Vec<_>>(),
                || (),
                |(), x| x,
            );
            assert!(!crate::fault::armed(), "fault must have fired");
            for (i, o) in out.iter().enumerate() {
                if i == 2 {
                    let reason = o.as_ref().expect_err("armed item quarantined");
                    assert!(reason.to_string().contains("injected fault"), "{reason}");
                } else {
                    assert_eq!(*o, Ok(i as u32), "{threads}");
                }
            }
        }
        crate::fault::disarm();
    }

    #[test]
    fn claim_blocks_follow_the_item_count_only() {
        assert_eq!(claim_block(0), 1);
        assert_eq!(claim_block(8191), 1);
        assert_eq!(claim_block(8192), 2);
        assert_eq!(claim_block(524_166), 127);
        assert_eq!(claim_block(usize::MAX), 256);
        // At least 4096 claims whenever blocks are larger than one item.
        for n in [8192usize, 100_000, 1 << 20, 1 << 24] {
            assert!(n.div_ceil(claim_block(n)) >= 4096, "{n}");
        }
    }

    /// Items per run of the block tests: 64 claims of 16-item blocks.
    const BLOCKED: usize = 16 * 4096;

    #[test]
    fn fault_inside_a_claim_block_quarantines_only_its_item() {
        let _g = crate::fault::test_lock();
        assert_eq!(claim_block(BLOCKED), 16);
        // A mid-block index, its block's first and last, and the last item.
        for at in [16 * 7 + 5, 16 * 9, 16 * 9 + 15, BLOCKED - 1] {
            for threads in [1, 2, 4] {
                crate::fault::arm("test.block_fault", at);
                let (out, _) = parallel_map(
                    ExecOptions::new(threads, "test.block_fault"),
                    (0..BLOCKED).collect::<Vec<_>>(),
                    || 0usize,
                    |seen, x| {
                        *seen += 1;
                        x
                    },
                );
                assert!(!crate::fault::armed(), "fault must have fired");
                for (i, o) in out.iter().enumerate() {
                    if i == at {
                        assert!(o.is_err(), "threads {threads}: item {at} quarantined");
                    } else {
                        assert_eq!(*o, Ok(i), "threads {threads} item {i} (fault at {at})");
                    }
                }
            }
        }
        crate::fault::disarm();
    }

    #[test]
    fn merge_accumulates_reports() {
        let mut a = ExecReport {
            threads: 2,
            busy_us: vec![5, 7],
        };
        a.merge(&ExecReport {
            threads: 4,
            busy_us: vec![1, 1, 2, 3],
        });
        assert_eq!(a.threads, 4);
        assert_eq!(a.busy_us, vec![6, 8, 2, 3]);
    }

    #[test]
    fn pre_cancelled_token_skips_everything_and_executor_stays_usable() {
        for threads in [1, 4] {
            let token = CancelToken::never();
            token.cancel(CancelReason::Deadline);
            let (out, rep) = parallel_map(
                budgeted(threads, "test.precancel", &token, None),
                (0..16u32).collect::<Vec<_>>(),
                || (),
                |(), x| x,
            );
            assert_eq!(out.len(), 16, "{threads}");
            assert!(
                out.iter()
                    .all(|o| *o == Err(ItemFault::Skipped(CancelReason::Deadline))),
                "{threads}: every item skipped"
            );
            assert_eq!(rep.busy_us.len(), rep.threads);
        }
        // The executor (and a fresh token) works normally right after.
        let token = CancelToken::never();
        let (out, _) = parallel_map(
            budgeted(4, "test.precancel.reuse", &token, None),
            (0..8u32).collect::<Vec<_>>(),
            || (),
            |(), x| x + 1,
        );
        assert!(out.iter().enumerate().all(|(i, o)| *o == Ok(i as u32 + 1)));
    }

    #[test]
    fn deadline_finishes_in_flight_items_and_skips_the_rest() {
        let token = CancelToken::after(Duration::from_millis(10));
        let (out, _) = parallel_map(
            budgeted(2, "test.deadline", &token, None),
            (0..64u32).collect::<Vec<_>>(),
            || (),
            |(), x| {
                std::thread::sleep(Duration::from_millis(2));
                x
            },
        );
        assert_eq!(out.len(), 64);
        let done = out.iter().filter(|o| o.is_ok()).count();
        let skipped = out
            .iter()
            .filter(|o| matches!(o, Err(ItemFault::Skipped(CancelReason::Deadline))))
            .count();
        assert_eq!(done + skipped, 64, "no panics, only done or skipped");
        assert!(done >= 1, "items claimed before expiry finish");
        assert!(skipped >= 1, "a 10ms budget cannot cover 128ms of work");
        // Completed results keep input order (prefix + racing claims).
        for (i, o) in out.iter().enumerate() {
            if let Ok(v) = o {
                assert_eq!(*v as usize, i);
            }
        }
    }

    #[test]
    fn watchdog_trips_on_injected_stall() {
        let _g = crate::fault::test_lock();
        crate::fault::arm_stall("test.stall", 1, 400);
        let token = CancelToken::never();
        let wd = Watchdog {
            multiple: 4,
            min_stall: Duration::from_millis(50),
            poll: Duration::from_millis(1),
        };
        let (out, _) = parallel_map(
            budgeted(2, "test.stall", &token, Some(wd)),
            (0..32u32).collect::<Vec<_>>(),
            || (),
            |(), x| {
                std::thread::sleep(Duration::from_millis(5));
                x
            },
        );
        crate::fault::disarm();
        assert!(token.is_cancelled(), "watchdog must trip the token");
        assert_eq!(token.reason(), Some(CancelReason::Stall));
        let stalls = token.take_stalls();
        assert_eq!(stalls.len(), 1, "one stall recorded");
        assert_eq!(stalls[0].item, 1, "the stalled item is identified");
        assert_eq!(stalls[0].label, "test.stall");
        // The stalled item finishes (cooperative model) and healthy items
        // claimed before the trip finish too; the rest are skipped.
        assert_eq!(out[1], Ok(1), "stalled item still returns its result");
        assert!(
            out.iter()
                .any(|o| matches!(o, Err(ItemFault::Skipped(CancelReason::Stall)))),
            "items after the trip are skipped"
        );
        assert!(
            out.iter().all(|o| !matches!(o, Err(ItemFault::Panic(_)))),
            "a stall is a degrade, never an abort"
        );
    }

    #[test]
    fn watchdog_runs_clean_phases_to_completion() {
        // A healthy phase under watchdog: identical output, no stalls.
        let token = CancelToken::never();
        let (out, _) = parallel_map(
            budgeted(1, "test.watchdog.clean", &token, Some(Watchdog::default())),
            (0..16u32).collect::<Vec<_>>(),
            || (),
            |(), x| x * 2,
        );
        assert!(out.iter().enumerate().all(|(i, o)| *o == Ok(i as u32 * 2)));
        assert!(!token.is_cancelled());
        assert!(token.take_stalls().is_empty());
    }
}
