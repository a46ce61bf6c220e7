//! The service core: bounded admission, worker scheduling, retry,
//! journaling, drain and kill.
//!
//! Lifecycle: [`Server::start`] replays the journal (if any) and
//! spawns the worker pool; requests enter through [`Server::call`] /
//! [`Server::submit`] (or the TCP front in [`crate::net`]); the
//! process ends either through [`Server::drain`] — stop admitting,
//! finish in-flight work, flush the journal, report — or through
//! [`Server::kill`], which abandons everything not yet journaled and
//! exists so the crash-recovery suite can simulate a SIGKILL without
//! spawning processes.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cimon_bench::json::FlatObject;
use cimon_bench::report;
use cimon_core::{CicConfig, HashAlgoKind, SimError};
use cimon_faults::{Campaign, CampaignConfig, CampaignResult};
use cimon_sim::engine::{parallel_map_isolated, Artifact, Experiment, ResultRow};
use cimon_sim::{chaos, ckpt, SimConfig};

use crate::backoff;
use crate::journal::{Journal, Record};
use crate::protocol::{CampaignSpec, Request, RequestBody, Response, RunSpec, SweepSpec};
use crate::ServeConfig;

/// Chaos indices per admitted request: attempt `a` of request `n`
/// rolls site `"serve"` at `n * ATTEMPT_SPAN + a`, so a retry rolls a
/// *different* seeded point than the attempt that failed (and can
/// therefore heal), while staying deterministic across runs.
const ATTEMPT_SPAN: usize = 4;

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const KILLED: u8 = 2;

/// What a drain completed and what it shed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime (journal replays
    /// included).
    pub completed: u64,
    /// Queued requests abandoned (only a [`Server::kill`] drops work;
    /// a drain finishes the queue first).
    pub dropped: u64,
    /// Requests rejected while draining or overloaded.
    pub rejected: u64,
}

/// Monotonic service counters.
#[derive(Default)]
struct Metrics {
    admitted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_draining: AtomicU64,
    protocol_errors: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    replayed: AtomicU64,
    dropped: AtomicU64,
    journal_corrupt_dropped: AtomicU64,
    journal_torn: AtomicU64,
    rows_streamed: AtomicU64,
    rows_replayed: AtomicU64,
    streams_shed: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests shed because the queue was full.
    pub rejected_overload: u64,
    /// Requests refused because the server was draining.
    pub rejected_draining: u64,
    /// Lines that failed to parse as requests.
    pub protocol_errors: u64,
    /// Requests answered successfully (rows, campaigns, replays).
    pub completed: u64,
    /// Requests that ended in a typed error response.
    pub failed: u64,
    /// Transient-failure retries performed.
    pub retried: u64,
    /// Results served from the journal instead of simulated.
    pub replayed: u64,
    /// Queued requests abandoned by a kill.
    pub dropped: u64,
    /// Journal records dropped on replay for CRC or syntax damage.
    pub journal_corrupt_dropped: u64,
    /// Whether startup truncated a torn journal tail (0 or 1).
    pub journal_torn: u64,
    /// Sweep row frames actually streamed to a client.
    pub rows_streamed: u64,
    /// Sweep rows served from the durable row journal instead of
    /// simulated in this process lifetime.
    pub rows_replayed: u64,
    /// Sweep streams abandoned for back-pressure: the client stopped
    /// consuming past the bounded buffer's stall budget.
    pub streams_shed: u64,
}

impl MetricsSnapshot {
    /// The snapshot's wire fields (no surrounding braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"admitted\":{},\"rejected_overload\":{},\"rejected_draining\":{},\
             \"protocol_errors\":{},\"completed\":{},\"failed\":{},\"retried\":{},\
             \"replayed\":{},\"dropped\":{},\"journal_corrupt_dropped\":{},\
             \"journal_torn\":{},\"rows_streamed\":{},\"rows_replayed\":{},\
             \"streams_shed\":{}",
            self.admitted,
            self.rejected_overload,
            self.rejected_draining,
            self.protocol_errors,
            self.completed,
            self.failed,
            self.retried,
            self.replayed,
            self.dropped,
            self.journal_corrupt_dropped,
            self.journal_torn,
            self.rows_streamed,
            self.rows_replayed,
            self.streams_shed,
        )
    }

    /// Rebuild a snapshot from a parsed wire object.
    ///
    /// # Errors
    ///
    /// The first missing or malformed counter.
    pub fn from_flat(obj: &FlatObject<'_>) -> Result<MetricsSnapshot, String> {
        Ok(MetricsSnapshot {
            admitted: obj.num("admitted")?,
            rejected_overload: obj.num("rejected_overload")?,
            rejected_draining: obj.num("rejected_draining")?,
            protocol_errors: obj.num("protocol_errors")?,
            completed: obj.num("completed")?,
            failed: obj.num("failed")?,
            retried: obj.num("retried")?,
            replayed: obj.num("replayed")?,
            dropped: obj.num("dropped")?,
            journal_corrupt_dropped: obj.num("journal_corrupt_dropped")?,
            journal_torn: obj.num("journal_torn")?,
            rows_streamed: obj.num("rows_streamed")?,
            rows_replayed: obj.num("rows_replayed")?,
            streams_shed: obj.num("streams_shed")?,
        })
    }
}

/// Where a job's response frames go: the unbounded channel of a unary
/// request, or the bounded channel of a streaming sweep.
enum Sink {
    Unary(Sender<Response>),
    Stream(SyncSender<Response>),
}

impl Sink {
    /// Deliver one frame. Unary sends never block. Stream sends apply
    /// bounded-buffer back-pressure: poll until the buffer accepts the
    /// frame or `stall` elapses; a full-past-deadline or disconnected
    /// stream reports `false` and the caller sheds it.
    fn send(&self, resp: Response, stall: Duration) -> bool {
        match self {
            Sink::Unary(tx) => tx.send(resp).is_ok(),
            Sink::Stream(tx) => {
                let mut frame = resp;
                let deadline = Instant::now() + stall;
                loop {
                    match tx.try_send(frame) {
                        Ok(()) => return true,
                        Err(TrySendError::Disconnected(_)) => return false,
                        Err(TrySendError::Full(back)) => {
                            if Instant::now() >= deadline {
                                return false;
                            }
                            frame = back;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                }
            }
        }
    }
}

/// One queued unit of work.
struct Job {
    req: Request,
    sink: Sink,
    admitted: usize,
}

/// The durable per-row state of one sweep request, mirrored between
/// RAM and the journal's `sweep-row` records.
///
/// `chain` is the raw (uninverted) CRC-32 register state after folding
/// in every accepted row body, seeded with `0xFFFF_FFFF`. Each
/// journaled row carries the chain value *through itself*, so replay
/// can accept exactly the longest contiguous-from-zero prefix whose
/// chain verifies — a surviving record whose predecessor was lost to
/// bit rot cannot be spliced into the wrong position.
#[derive(Clone)]
struct SweepProgress {
    /// Journaled row bodies, indexed by row position.
    bodies: Vec<String>,
    /// CRC chain state through `bodies`.
    chain: u32,
    /// Whether the terminal `sweep-done` record is durable.
    done: bool,
}

impl Default for SweepProgress {
    fn default() -> SweepProgress {
        SweepProgress {
            bodies: Vec::new(),
            chain: CHAIN_SEED,
            done: false,
        }
    }
}

/// The chain seed before any row is folded in.
const CHAIN_SEED: u32 = 0xFFFF_FFFF;

type CampaignKey = (String, usize, HashAlgoKind, u32);

struct Inner {
    cfg: ServeConfig,
    state: AtomicU8,
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    metrics: Metrics,
    admit_counter: AtomicUsize,
    wire_counter: AtomicUsize,
    append_counter: AtomicUsize,
    stream_counter: AtomicUsize,
    journal: Mutex<Option<Journal>>,
    /// Completed results by request key: `(tag, body)`.
    done: Mutex<HashMap<u64, (String, String)>>,
    /// Journaled campaign chunks: `(key, start, end)` → body.
    chunks: Mutex<HashMap<(u64, usize, usize), String>>,
    /// Durable per-row sweep progress by request key.
    sweeps: Mutex<HashMap<u64, SweepProgress>>,
    campaigns: Mutex<HashMap<CampaignKey, Arc<Campaign>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        MetricsSnapshot {
            admitted: m.admitted.load(Ordering::Relaxed),
            rejected_overload: m.rejected_overload.load(Ordering::Relaxed),
            rejected_draining: m.rejected_draining.load(Ordering::Relaxed),
            protocol_errors: m.protocol_errors.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            retried: m.retried.load(Ordering::Relaxed),
            replayed: m.replayed.load(Ordering::Relaxed),
            dropped: m.dropped.load(Ordering::Relaxed),
            journal_corrupt_dropped: m.journal_corrupt_dropped.load(Ordering::Relaxed),
            journal_torn: m.journal_torn.load(Ordering::Relaxed),
            rows_streamed: m.rows_streamed.load(Ordering::Relaxed),
            rows_replayed: m.rows_replayed.load(Ordering::Relaxed),
            streams_shed: m.streams_shed.load(Ordering::Relaxed),
        }
    }

    /// Look a workload up in the engine suite (the shared `Artifact`
    /// cache: one assembly, FHT set and predecode per workload for the
    /// whole process).
    fn artifact(&self, name: &str) -> Result<Arc<Artifact>, SimError> {
        cimon_bench::suite()
            .iter()
            .find(|a| a.name() == name)
            .cloned()
            .ok_or_else(|| SimError::InvalidConfig {
                message: format!("unknown workload `{name}`"),
            })
    }

    /// Append one record, flush it, and rotate the journal if it has
    /// outgrown its limit. Campaign chunks and rows already absorbed
    /// into a final record are compacted away on rotation.
    fn journal_append(&self, record: Record) {
        let idx = self.append_counter.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock(&self.journal);
        if let Some(journal) = guard.as_mut() {
            // An unwritable journal degrades durability, not service:
            // the result still goes out, it just will not survive a
            // restart.
            let _ = journal.append(&record, idx);
            if journal.rotation_due(self.cfg.journal_rotate_bytes) {
                let live = self.live_records();
                let _ = journal.rotate_if_needed(self.cfg.journal_rotate_bytes, &live);
            }
        }
    }

    /// Every record still worth keeping across a rotation: final
    /// results, plus chunks of campaigns that have no final record
    /// yet.
    fn live_records(&self) -> Vec<Record> {
        let done = lock(&self.done);
        let mut live: Vec<Record> = done
            .iter()
            .map(|(&key, (tag, body))| Record {
                key,
                tag: tag.clone(),
                extra: String::new(),
                body: body.clone(),
            })
            .collect();
        for (&(key, start, end), body) in lock(&self.chunks).iter() {
            if !done.contains_key(&key) {
                live.push(Record {
                    key,
                    tag: "chunk".to_string(),
                    extra: format!("{start}..{end}"),
                    body: body.clone(),
                });
            }
        }
        drop(done);
        for (&key, progress) in lock(&self.sweeps).iter() {
            let mut chain = CHAIN_SEED;
            for (i, body) in progress.bodies.iter().enumerate() {
                chain = ckpt::crc32_continue(chain, body.as_bytes());
                live.push(Record {
                    key,
                    tag: "sweep-row".to_string(),
                    extra: format!("{i}|{chain:08x}"),
                    body: body.clone(),
                });
            }
            if progress.done {
                live.push(Record {
                    key,
                    tag: "sweep-done".to_string(),
                    extra: format!("{}|{chain:08x}", progress.bodies.len()),
                    body: String::new(),
                });
            }
        }
        live
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    if self.state() == KILLED {
                        return;
                    }
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.state() == DRAINING {
                        return;
                    }
                    q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.execute(job);
        }
    }

    fn execute(&self, job: Job) {
        let deadline = job
            .req
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_deadline);
        let key = job.req.key();
        let result = match &job.req.body {
            RequestBody::Run(spec) => {
                self.run_request(job.req.id, key, spec, deadline, job.admitted)
            }
            RequestBody::Sweep(spec) => self.sweep_request(&job, key, spec, deadline),
            RequestBody::Campaign(spec) => self.campaign_request(job.req.id, key, spec, deadline),
            // Metrics and drain are answered at admission, never queued.
            RequestBody::Metrics | RequestBody::Drain => return,
        };
        match result {
            Ok(Some(resp)) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                job.sink.send(resp, self.cfg.stream_stall);
            }
            // A kill (or a shed stream) abandoned the request
            // mid-flight: no terminal frame, as if the process died —
            // the receiver sees a closed channel.
            Ok(None) => {
                self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(error) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                job.sink.send(
                    Response::Error {
                        id: job.req.id,
                        error,
                    },
                    self.cfg.stream_stall,
                );
            }
        }
    }

    fn run_request(
        &self,
        id: u64,
        key: u64,
        spec: &RunSpec,
        deadline: Option<Duration>,
        admitted: usize,
    ) -> Result<Option<Response>, SimError> {
        if let Some((_, body)) = lock(&self.done).get(&key).cloned() {
            let row = parse_row(&body)?;
            self.metrics.replayed.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(Response::Row {
                id,
                row,
                replayed: true,
            }));
        }
        let artifact = self.artifact(&spec.workload)?;
        let experiment = Experiment {
            artifact,
            monitored: spec.monitored,
            config: SimConfig {
                iht_entries: spec.iht_entries,
                hash_algo: spec.hash_algo,
                hash_seed: spec.hash_seed,
                policy: spec.policy,
                max_wall: deadline,
                ..SimConfig::default()
            },
        };
        let row = self.run_with_retry(&experiment, admitted * ATTEMPT_SPAN, key)?;
        let body = row_body(&row);
        self.journal_append(Record {
            key,
            tag: "row".to_string(),
            extra: String::new(),
            body: body.clone(),
        });
        lock(&self.done).insert(key, ("row".to_string(), body));
        Ok(Some(Response::Row {
            id,
            row,
            replayed: false,
        }))
    }

    /// One experiment with panic isolation and exactly one jittered
    /// retry on transient failure — shared by unary runs and sweep
    /// rows. Attempt `a` rolls chaos site `"serve"` at `base + a`, so a
    /// retry rolls a *different* seeded point than the attempt that
    /// failed (and can therefore heal) while staying deterministic
    /// across runs. The backoff jitter is seeded by the request key:
    /// decorrelated across requests, reproducible for any one of them.
    fn run_with_retry(
        &self,
        experiment: &Experiment,
        base: usize,
        key: u64,
    ) -> Result<ResultRow, SimError> {
        let mut attempt = 0usize;
        loop {
            let idx = base + attempt;
            let outcome =
                parallel_map_isolated(std::slice::from_ref(experiment), 1, "serve", |_, exp| {
                    chaos::maybe_panic("serve", idx);
                    exp.run()
                })
                .pop()
                .unwrap_or_else(|| {
                    Err(SimError::WorkerPanic {
                        site: "serve",
                        message: "isolated map returned no slot".to_string(),
                    })
                });
            match outcome {
                Ok(Ok(row)) => return Ok(row),
                Ok(Err(err)) | Err(err) => {
                    // Transient faults get exactly one backed-off
                    // retry; deterministic errors never do.
                    if err.is_transient() && attempt + 1 < 2 {
                        self.metrics.retried.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff::jittered(
                            self.cfg.retry_backoff,
                            attempt as u32,
                            self.cfg.retry_jitter_seed ^ key,
                        ));
                        attempt += 1;
                        continue;
                    }
                    return Err(err);
                }
            }
        }
    }

    /// The sweep's experiments in canonical row order: the optional
    /// baseline first, then one monitored row per `(algo, entries)`
    /// pair.
    fn sweep_experiments(
        &self,
        spec: &SweepSpec,
        deadline: Option<Duration>,
    ) -> Result<Vec<Experiment>, SimError> {
        let artifact = self.artifact(&spec.workload)?;
        let mut experiments = Vec::new();
        if spec.baseline {
            experiments.push(Experiment {
                artifact: artifact.clone(),
                monitored: false,
                config: SimConfig {
                    max_wall: deadline,
                    ..SimConfig::default()
                },
            });
        }
        for &algo in &spec.hash_algos {
            for &entries in &spec.iht_entries {
                experiments.push(Experiment {
                    artifact: artifact.clone(),
                    monitored: true,
                    config: SimConfig {
                        iht_entries: entries,
                        hash_algo: algo,
                        hash_seed: spec.hash_seed,
                        policy: spec.policy,
                        max_wall: deadline,
                        ..SimConfig::default()
                    },
                });
            }
        }
        Ok(experiments)
    }

    /// Execute (or resume) one sweep: rows stream through the job's
    /// sink as they complete, and *every* row is journaled under the
    /// incremental CRC chain before its frame is sent — the row-grain
    /// durability point.
    ///
    /// Degradation ladder, finest grain first:
    ///
    /// * a row whose experiment keeps failing is journaled and streamed
    ///   as a poisoned [`ResultRow`] — one bad grid point never fails
    ///   the sweep;
    /// * a client that stops consuming past the stall budget sheds the
    ///   *stream* ([`MetricsSnapshot::streams_shed`]) while the worker
    ///   keeps computing and journaling rows, so the reconnect resumes
    ///   from a further cursor instead of repeating the work;
    /// * a kill abandons the request between rows; everything already
    ///   journaled survives the restart.
    fn sweep_request(
        &self,
        job: &Job,
        key: u64,
        spec: &SweepSpec,
        deadline: Option<Duration>,
    ) -> Result<Option<Response>, SimError> {
        let total = spec.rows();
        let resume_at = match &job.req.resume {
            None => 0,
            Some(resume) => {
                if resume.key != key {
                    return Err(SimError::ResumeMismatch {
                        message: format!(
                            "resume key {:016x} does not match request key {key:016x}",
                            resume.key
                        ),
                    });
                }
                if resume.last_acked_row >= total {
                    return Err(SimError::ResumeMismatch {
                        message: format!(
                            "resume row {} out of range for a {total}-row sweep",
                            resume.last_acked_row
                        ),
                    });
                }
                resume.last_acked_row + 1
            }
        };
        let experiments = self.sweep_experiments(spec, deadline)?;
        let mut streaming = true;
        for (row_index, experiment) in experiments.iter().enumerate() {
            // The kill boundary: a row either completes and is
            // journaled, or the whole request is abandoned as if the
            // process died here.
            if self.state() == KILLED {
                return Ok(None);
            }
            let durable = lock(&self.sweeps)
                .get(&key)
                .and_then(|p| p.bodies.get(row_index).cloned());
            let (row, replayed) = match durable {
                Some(body) => {
                    self.metrics.rows_replayed.fetch_add(1, Ordering::Relaxed);
                    (parse_row(&body)?, true)
                }
                None => {
                    let base = (job.admitted + row_index) * ATTEMPT_SPAN;
                    let fresh = self
                        .run_with_retry(experiment, base, key)
                        .unwrap_or_else(|err| ResultRow::poisoned(experiment, err));
                    let body = row_body(&fresh);
                    // Stream the *durable* form of the row — what the
                    // journal round-trips — so a fresh frame and its
                    // post-restart replay are byte-identical, not just
                    // equivalent. (The wire format intentionally drops
                    // `expected_exit`; canonicalising here keeps the
                    // chaos differentials exact.)
                    let row = parse_row(&body)?;
                    let mut sweeps = lock(&self.sweeps);
                    let progress = sweeps.entry(key).or_default();
                    let chain = ckpt::crc32_continue(progress.chain, body.as_bytes());
                    progress.bodies.push(body.clone());
                    progress.chain = chain;
                    drop(sweeps);
                    self.journal_append(Record {
                        key,
                        tag: "sweep-row".to_string(),
                        extra: format!("{row_index}|{chain:08x}"),
                        body,
                    });
                    (row, false)
                }
            };
            if streaming && (row_index as u64) >= resume_at {
                if job.sink.send(
                    Response::SweepRow {
                        id: job.req.id,
                        row_index: row_index as u64,
                        row,
                        replayed,
                    },
                    self.cfg.stream_stall,
                ) {
                    self.metrics.rows_streamed.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Shed the stream, keep the work: remaining rows
                    // are still computed and journaled so a resumed
                    // request replays instead of re-simulating.
                    self.metrics.streams_shed.fetch_add(1, Ordering::Relaxed);
                    streaming = false;
                }
            }
        }
        let mut sweeps = lock(&self.sweeps);
        let progress = sweeps.entry(key).or_default();
        if !progress.done && progress.bodies.len() as u64 == total {
            progress.done = true;
            let terminal = Record {
                key,
                tag: "sweep-done".to_string(),
                extra: format!("{total}|{:08x}", progress.chain),
                body: String::new(),
            };
            drop(sweeps);
            self.journal_append(terminal);
        }
        if !streaming {
            return Ok(None);
        }
        Ok(Some(Response::SweepDone {
            id: job.req.id,
            row_count: total,
            resumed_from: resume_at,
        }))
    }

    fn campaign_for(
        &self,
        spec: &CampaignSpec,
        artifact: &Arc<Artifact>,
    ) -> Result<Arc<Campaign>, SimError> {
        let cache_key = (
            spec.workload.clone(),
            spec.iht_entries,
            spec.hash_algo,
            spec.hash_seed,
        );
        if let Some(c) = lock(&self.campaigns).get(&cache_key).cloned() {
            return Ok(c);
        }
        let fht =
            artifact
                .fht(spec.hash_algo, spec.hash_seed)
                .map_err(|e| SimError::InvalidConfig {
                    message: format!("hash generation failed: {e}"),
                })?;
        let campaign = Arc::new(Campaign::new(
            artifact.image().clone(),
            CicConfig {
                iht_entries: spec.iht_entries,
                hash_algo: spec.hash_algo,
                hash_seed: spec.hash_seed,
            },
            fht,
        ));
        Ok(lock(&self.campaigns)
            .entry(cache_key)
            .or_insert(campaign)
            .clone())
    }

    fn campaign_request(
        &self,
        id: u64,
        key: u64,
        spec: &CampaignSpec,
        deadline: Option<Duration>,
    ) -> Result<Option<Response>, SimError> {
        if let Some((_, body)) = lock(&self.done).get(&key).cloned() {
            let result = report::campaign_from_json(&format!("{{{body}}}"))
                .map_err(|m| SimError::Protocol { message: m })?;
            self.metrics.replayed.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(Response::Campaign {
                id,
                result,
                replayed: true,
            }));
        }
        let artifact = self.artifact(&spec.workload)?;
        let campaign = self.campaign_for(spec, &artifact)?;
        let (lo, hi) = artifact.image().text_range();
        let started = Instant::now();
        let base = CampaignConfig {
            runs: spec.runs,
            seed: spec.seed,
            model: spec.model,
            site: spec.site,
            targets: (lo..hi).step_by(4).collect(),
            max_cycles: spec.max_cycles,
            max_wall: deadline,
        };
        let chunk = self.cfg.campaign_chunk.max(1);
        let mut merged = CampaignResult::default();
        let mut replayed = true;
        let mut start = 0;
        while start < spec.runs {
            let end = (start + chunk).min(spec.runs);
            // The kill boundary: a chunk either completes and is
            // journaled, or the whole request is abandoned as if the
            // process died here.
            if self.state() == KILLED {
                return Ok(None);
            }
            if let Some(body) = lock(&self.chunks).get(&(key, start, end)).cloned() {
                let r = report::campaign_from_json(&format!("{{{body}}}"))
                    .map_err(|m| SimError::Protocol { message: m })?;
                merged.merge(&r);
                self.metrics.replayed.fetch_add(1, Ordering::Relaxed);
                start = end;
                continue;
            }
            replayed = false;
            let cfg = CampaignConfig {
                // The request's deadline bounds the whole campaign: each
                // chunk gets what is left of it, flowing into the
                // per-run wall-clock watchdog.
                max_wall: deadline.map(|d| d.saturating_sub(started.elapsed())),
                targets: base.targets.clone(),
                ..base
            };
            let r = campaign.run_range_with_workers(&cfg, start..end, self.cfg.engine_workers)?;
            let body = campaign_body(&r);
            self.journal_append(Record {
                key,
                tag: "chunk".to_string(),
                extra: format!("{start}..{end}"),
                body: body.clone(),
            });
            lock(&self.chunks).insert((key, start, end), body);
            merged.merge(&r);
            start = end;
        }
        let body = campaign_body(&merged);
        self.journal_append(Record {
            key,
            tag: "campaign".to_string(),
            extra: String::new(),
            body: body.clone(),
        });
        lock(&self.done).insert(key, ("campaign".to_string(), body));
        Ok(Some(Response::Campaign {
            id,
            result: merged,
            replayed,
        }))
    }
}

/// The flat-object body (no braces) a result row journals as.
fn row_body(row: &ResultRow) -> String {
    let doc = report::to_json(std::slice::from_ref(row));
    match cimon_bench::json::objects(&doc).as_deref() {
        Ok([one]) => (*one).to_string(),
        _ => String::new(),
    }
}

/// Parse a journaled row body back into a result row.
fn parse_row(body: &str) -> Result<ResultRow, SimError> {
    report::rows_from_json(&format!("[{{{body}}}]"))
        .map_err(|m| SimError::Protocol { message: m })?
        .into_iter()
        .next()
        .ok_or(SimError::Protocol {
            message: "journaled row body held no row".to_string(),
        })
}

/// The flat-object body (no braces) a campaign result journals as.
fn campaign_body(result: &CampaignResult) -> String {
    let doc = report::campaign_to_json(result);
    doc.trim_start_matches('{')
        .trim_end_matches('}')
        .to_string()
}

/// The simulation service. See the crate docs for the contract.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    journal_path: Option<PathBuf>,
}

impl Server {
    /// Start a server: replay the journal at `journal_path` (when
    /// given), then spawn the worker pool.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the journal cannot be opened or replayed.
    pub fn start(cfg: ServeConfig, journal_path: Option<&Path>) -> Result<Server, SimError> {
        let mut journal = None;
        let mut done = HashMap::new();
        let mut chunks = HashMap::new();
        let mut sweeps: HashMap<u64, SweepProgress> = HashMap::new();
        let metrics = Metrics::default();
        if let Some(path) = journal_path {
            let (j, replay) = Journal::open(path).map_err(|e| SimError::Io {
                message: format!("journal open failed: {e}"),
            })?;
            metrics
                .journal_corrupt_dropped
                .store(replay.corrupt_dropped as u64, Ordering::Relaxed);
            metrics
                .journal_torn
                .store(u64::from(replay.torn_truncated), Ordering::Relaxed);
            for r in replay.records {
                match r.tag.as_str() {
                    "row" | "campaign" => {
                        done.insert(r.key, (r.tag, r.body));
                    }
                    "chunk" => {
                        if let Some((a, b)) = parse_range(&r.extra) {
                            chunks.insert((r.key, a, b), r.body);
                        }
                    }
                    // Row-grain sweep replay: accept exactly the
                    // longest contiguous-from-zero prefix whose CRC
                    // chain verifies. A record whose index or chain
                    // does not extend the prefix (its predecessor was
                    // corrupt, or records got reordered) is dropped —
                    // the rows behind the gap get recomputed, never
                    // trusted out of position.
                    "sweep-row" => {
                        if let Some((idx, stored)) = parse_chain_extra(&r.extra) {
                            let progress = sweeps.entry(r.key).or_default();
                            let chain = ckpt::crc32_continue(progress.chain, r.body.as_bytes());
                            if idx == progress.bodies.len() as u64 && stored == chain {
                                progress.bodies.push(r.body);
                                progress.chain = chain;
                            }
                        }
                    }
                    "sweep-done" => {
                        if let Some((count, stored)) = parse_chain_extra(&r.extra) {
                            let progress = sweeps.entry(r.key).or_default();
                            if count == progress.bodies.len() as u64 && stored == progress.chain {
                                progress.done = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
            journal = Some(j);
        }
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            state: AtomicU8::new(RUNNING),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            metrics,
            admit_counter: AtomicUsize::new(0),
            wire_counter: AtomicUsize::new(0),
            append_counter: AtomicUsize::new(0),
            stream_counter: AtomicUsize::new(0),
            journal: Mutex::new(journal),
            done: Mutex::new(done),
            chunks: Mutex::new(chunks),
            sweeps: Mutex::new(sweeps),
            campaigns: Mutex::new(HashMap::new()),
        });
        // `workers == 0` spawns no pool: admitted work just queues.
        // Useless in production, invaluable for deterministic
        // back-pressure tests.
        let workers = (0..cfg.workers)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        Ok(Server {
            inner,
            workers: Mutex::new(workers),
            journal_path: journal_path.map(Path::to_path_buf),
        })
    }

    /// The journal path this server persists to, if any.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal_path.as_deref()
    }

    /// Whether the server still admits work.
    pub fn is_running(&self) -> bool {
        self.inner.state() == RUNNING
    }

    /// The next ingest index for wire-level chaos corruption — one per
    /// received request line, whatever becomes of it.
    pub(crate) fn next_wire_index(&self) -> usize {
        self.inner.wire_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The next outgoing stream-frame index for the chaos cut site —
    /// one per frame about to be written to a TCP peer.
    pub(crate) fn next_stream_index(&self) -> usize {
        self.inner.stream_counter.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn count_protocol_error(&self) {
        self.inner
            .metrics
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Submit a request; the response arrives on the returned channel.
    /// Shed load answers immediately: a full queue yields a typed
    /// [`SimError::Overloaded`] error response, a draining server
    /// [`SimError::Draining`]. Metrics requests are answered inline.
    pub fn submit(&self, req: Request) -> Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.admit(req, Sink::Unary(tx));
        rx
    }

    /// Submit a streaming request: response frames arrive on a
    /// *bounded* channel ([`ServeConfig::stream_buffer`] frames), so a
    /// consumer that stops reading back-pressures the worker and —
    /// past [`ServeConfig::stream_stall`] — sheds the stream rather
    /// than the server. A sweep yields one `SweepRow` frame per row
    /// and a terminal `SweepDone`; a shed or killed stream closes the
    /// channel without a terminal frame. Non-sweep requests work too,
    /// delivering their single response as the only frame.
    pub fn submit_stream(&self, req: Request) -> Receiver<Response> {
        let (tx, rx) = mpsc::sync_channel(self.inner.cfg.stream_buffer.max(1));
        self.admit(req, Sink::Stream(tx));
        rx
    }

    fn admit(&self, req: Request, sink: Sink) {
        let id = req.id;
        let stall = self.inner.cfg.stream_stall;
        match &req.body {
            RequestBody::Metrics => {
                sink.send(
                    Response::Metrics {
                        id,
                        metrics: self.metrics(),
                    },
                    stall,
                );
                return;
            }
            RequestBody::Drain => {
                let report = self.drain();
                sink.send(Response::Drained { id, report }, stall);
                return;
            }
            _ => {}
        }
        if let Err((sink, error)) = self.try_enqueue(req, sink) {
            match &error {
                SimError::Overloaded { .. } => {
                    self.inner
                        .metrics
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    self.inner
                        .metrics
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            sink.send(Response::Error { id, error }, stall);
        }
    }

    fn try_enqueue(&self, req: Request, sink: Sink) -> Result<(), (Sink, SimError)> {
        let mut q = lock(&self.inner.queue);
        if self.inner.state() != RUNNING {
            return Err((sink, SimError::Draining));
        }
        if q.len() >= self.inner.cfg.queue_capacity {
            let queued = q.len();
            return Err((
                sink,
                SimError::Overloaded {
                    queued,
                    capacity: self.inner.cfg.queue_capacity,
                },
            ));
        }
        let admitted = self.inner.admit_counter.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        q.push_back(Job {
            req,
            sink,
            admitted,
        });
        drop(q);
        self.inner.wake.notify_one();
        Ok(())
    }

    /// Submit and block for the response. A channel closed without a
    /// response (the server was killed) comes back as a typed
    /// [`SimError::Io`] error response.
    pub fn call(&self, req: Request) -> Response {
        let id = req.id;
        match self.submit(req).recv() {
            Ok(resp) => resp,
            Err(_) => Response::Error {
                id,
                error: SimError::Io {
                    message: "server terminated before responding".to_string(),
                },
            },
        }
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// Graceful shutdown: stop admitting (new work is rejected with
    /// [`SimError::Draining`]), let the workers finish everything
    /// already queued, flush and sync the journal, and report. Safe to
    /// call more than once; later calls just report again.
    pub fn drain(&self) -> DrainReport {
        let _ = self.inner.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.inner.wake.notify_all();
        self.join_workers();
        // With the pool gone, anything still queued (possible only
        // with a zero-worker pool or a panicked worker) will never
        // run: count it dropped rather than leave callers waiting on
        // a channel nobody will answer.
        let stranded = lock(&self.inner.queue).drain(..).count() as u64;
        self.inner
            .metrics
            .dropped
            .fetch_add(stranded, Ordering::Relaxed);
        if let Some(journal) = lock(&self.inner.journal).as_mut() {
            let _ = journal.sync();
        }
        let m = self.metrics();
        DrainReport {
            completed: m.completed,
            dropped: m.dropped,
            rejected: m.rejected_overload + m.rejected_draining,
        }
    }

    /// Simulated crash: stop admitting, abandon the queue and any
    /// request between journal chunk boundaries, and return without
    /// flushing anything beyond what [`Journal::append`] already
    /// pushed to the OS. Everything journaled before the kill is
    /// durable; nothing else is. The crash-recovery suite restarts a
    /// server on the same journal afterwards.
    pub fn kill(&self) {
        self.inner.state.store(KILLED, Ordering::Release);
        self.inner.wake.notify_all();
        let abandoned = lock(&self.inner.queue).len() as u64;
        self.inner
            .metrics
            .dropped
            .fetch_add(abandoned, Ordering::Relaxed);
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn parse_range(extra: &str) -> Option<(usize, usize)> {
    let (a, b) = extra.split_once("..")?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Parse a sweep record's `"{index}|{chain:08x}"` qualifier.
fn parse_chain_extra(extra: &str) -> Option<(u64, u32)> {
    let (idx, chain) = extra.split_once('|')?;
    Some((idx.parse().ok()?, u32::from_str_radix(chain, 16).ok()?))
}
