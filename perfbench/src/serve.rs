//! `serve-mixed`: an in-process `cimon_serve::Server` with a journal,
//! behind `net::serve` on loopback, driven as a closed loop by two
//! client connections with no think time. Each client draws its next
//! request from a seeded mix: one half fresh `run` requests (simulate
//! and journal: a write), one third repeats of its own earlier specs
//! (answered from the result cache: a read), one sixth streamed
//! `sweep` requests (every row journaled). Each server lives for
//! [`GENERATION`] requests; the phase then starts a fresh one.

use std::net::TcpListener;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cimon_core::HashAlgoKind;
use cimon_os::RefillPolicyKind;
use cimon_serve::journal::{Journal, Record};
use cimon_serve::protocol::{parse_request, response_to_line};
use cimon_serve::{
    net, Client, MetricsSnapshot, Request, RequestBody, Response, RunSpec, ServeConfig, Server,
    SweepSpec,
};
use cimon_sim::engine::{parallel_map, Experiment, ResultRow};
use cimon_sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{secs, Tally};

pub const CLIENTS: usize = 2;
const WORKLOADS: u64 = 9;
const SWEEP_FIRST_SIZES: u64 = 32;
const FRESH_SIZES: u64 = 48;

/// Requests each server answers (half per client) before the phase
/// drains it, checks its rows and starts a fresh server on a fresh
/// journal, whose clients replay the same seeded request stream. A
/// server thus ends with the same state in every run whatever the
/// host's speed, so `peak_rss_mb` does not grow with it, and its
/// journal (about 0.6 MiB) stays far below the rotation threshold.
pub const GENERATION: usize = 1000;

/// Seconds at the start of every slice whose requests are sent and
/// checked but not timed. A slice follows steps of the other phases,
/// which leave the server's caches cold and its threads asleep: on
/// `corpus-long`, repeats sent in the first 0.15 s of a slice had a p90
/// of 0.16–0.39 ms against 0.11–0.15 ms later in the same slices, most
/// of it in the first 25–50 ms. A served client under steady load does
/// not pay that restart.
const WARMUP_S: f64 = 0.1;

/// The timed part of a slice that took `wall` seconds.
fn timed(wall: f64) -> f64 {
    (wall - WARMUP_S).max(0.0)
}

/// The server every pass starts: two request workers over a 2-wide
/// engine pool.
pub fn config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        workers: 2,
        engine_workers: 2,
        ..ServeConfig::default()
    }
}

/// The hash seed of spec group `group` in `stream`: the low 16 bits
/// come from the benchmark seed, so distinct streams and groups never
/// share a spec (or a cached FHT).
fn hash_seed(seed: u64, stream: u64, group: u64) -> u32 {
    (seed as u32 & 0xffff) | ((group as u32 & 0xfff) << 16) | ((stream as u32 & 0xf) << 28)
}

/// The `n`-th distinct fresh spec of `stream` under `seed`. Distinct
/// `(stream, n)` pairs give distinct specs, so every one simulates.
fn fresh_spec(seed: u64, stream: u64, n: u64) -> RunSpec {
    let rest = n / WORKLOADS;
    let sizes = rest / 2;
    RunSpec {
        workload: workload((n + seed) % WORKLOADS),
        monitored: true,
        iht_entries: 1 + (sizes % FRESH_SIZES) as usize,
        hash_algo: cimon_bench::GRID_ALGOS[(rest % 2) as usize],
        hash_seed: hash_seed(seed, stream, sizes / FRESH_SIZES),
        policy: RefillPolicyKind::ReplaceHalfLru,
    }
}

/// The `m`-th distinct sweep of `stream` under `seed`: a baseline row
/// plus four monitored IHT sizes.
fn sweep_spec(seed: u64, stream: u64, m: u64) -> SweepSpec {
    let first = 1 + (m / WORKLOADS) % SWEEP_FIRST_SIZES;
    SweepSpec {
        workload: workload((m + seed / 7) % WORKLOADS),
        iht_entries: (0..4).map(|k| (first + 8 * k) as usize).collect(),
        hash_algos: vec![HashAlgoKind::Xor],
        hash_seed: hash_seed(seed, stream + 8, m / (WORKLOADS * SWEEP_FIRST_SIZES)),
        policy: RefillPolicyKind::ReplaceHalfLru,
        baseline: true,
    }
}

fn workload(i: u64) -> String {
    cimon_bench::suite()[i as usize].name().to_string()
}

fn run_experiment(spec: &RunSpec) -> Experiment {
    Experiment {
        artifact: cimon_bench::artifact(&spec.workload),
        monitored: spec.monitored,
        config: SimConfig {
            iht_entries: spec.iht_entries,
            hash_algo: spec.hash_algo,
            hash_seed: spec.hash_seed,
            policy: spec.policy,
            ..SimConfig::default()
        },
    }
}

/// The sweep's experiments in the server's canonical row order.
fn sweep_experiments(spec: &SweepSpec) -> Vec<Experiment> {
    let artifact = cimon_bench::artifact(&spec.workload);
    let mut out = Vec::new();
    if spec.baseline {
        out.push(Experiment::baseline(artifact.clone()));
    }
    for &algo in &spec.hash_algos {
        for &entries in &spec.iht_entries {
            out.push(Experiment::monitored(
                artifact.clone(),
                SimConfig {
                    iht_entries: entries,
                    hash_algo: algo,
                    hash_seed: spec.hash_seed,
                    policy: spec.policy,
                    ..SimConfig::default()
                },
            ));
        }
    }
    out
}

/// Whether `served` equals a clean in-process run of each experiment.
/// The wire format does not carry the expected exit code, so the
/// oracle's is dropped before comparing.
fn oracle_agrees(experiments: &[Experiment], served: &[ResultRow]) -> bool {
    experiments.len() == served.len()
        && experiments.iter().zip(served).all(|(e, got)| {
            e.run().is_ok_and(|want| {
                want.is_clean()
                    && ResultRow {
                        expected_exit: None,
                        ..want
                    } == *got
            })
        })
}

fn request(id: u64, body: RequestBody) -> Request {
    Request {
        id,
        deadline_ms: None,
        resume: None,
        body,
    }
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    requests: usize,
    /// Slice index of every timed request, answered or not.
    done_in: Vec<usize>,
    /// Latency in ms of every answered timed request of each class.
    fresh_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    fresh: Vec<(RunSpec, ResultRow)>,
    sweeps: Vec<(SweepSpec, Vec<ResultRow>)>,
    failures: Vec<String>,
}

/// One client connection and its seeded request stream.
struct ClientState {
    index: usize,
    client: Option<Client>,
    rng: StdRng,
    fresh_n: u64,
    sweep_n: u64,
    log: ClientLog,
}

impl ClientState {
    /// Whether the client has sent its share of the server's lifetime.
    fn spent(&self) -> bool {
        self.client.is_none() || self.log.requests >= GENERATION / CLIENTS
    }

    /// Send requests until `stop(sent in this slice)` holds or the
    /// client is spent, timing those sent after the slice's warm-up.
    fn run_slice(
        &mut self,
        seed: u64,
        stream: u64,
        (slice, start): (usize, Instant),
        stop: &dyn Fn(usize) -> bool,
    ) {
        let c = self.index;
        let log = &mut self.log;
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let mut sent = 0;
        while !stop(sent) && log.requests < GENERATION / CLIENTS {
            let id = ((c as u64) << 40) | log.requests as u64;
            let draw = self.rng.gen_range(0..6u64);
            log.requests += 1;
            sent += 1;
            let timed = secs(start) >= WARMUP_S;
            let t = Instant::now();
            if draw == 5 {
                let spec = sweep_spec(seed, stream, self.sweep_n * CLIENTS as u64 + c as u64);
                self.sweep_n += 1;
                match client.sweep(&request(id, RequestBody::Sweep(spec.clone()))) {
                    Ok(rows) if rows.len() as u64 == spec.rows() => {
                        if timed {
                            log.sweep_ms.push(secs(t) * 1e3);
                        }
                        log.sweeps.push((spec, rows));
                    }
                    other => log.failures.push(format!("sweep {spec:?}: {other:?}")),
                }
            } else if draw >= 3 && !log.fresh.is_empty() {
                let pick = self.rng.gen_range(0..log.fresh.len());
                let (spec, want) = log.fresh[pick].clone();
                match client.request(&request(id, RequestBody::Run(spec.clone()))) {
                    Ok(Response::Row {
                        row,
                        replayed: true,
                        ..
                    }) if row == want => {
                        if timed {
                            log.replay_ms.push(secs(t) * 1e3);
                        }
                    }
                    other => log.failures.push(format!("repeat {spec:?}: {other:?}")),
                }
            } else {
                let spec = fresh_spec(seed, stream, self.fresh_n * CLIENTS as u64 + c as u64);
                self.fresh_n += 1;
                match client.request(&request(id, RequestBody::Run(spec.clone()))) {
                    Ok(Response::Row {
                        row,
                        replayed: false,
                        ..
                    }) => {
                        if timed {
                            log.fresh_ms.push(secs(t) * 1e3);
                        }
                        log.fresh.push((spec, row));
                    }
                    other => log.failures.push(format!("fresh {spec:?}: {other:?}")),
                }
            }
            if timed {
                log.done_in.push(slice);
            }
        }
    }
}

/// What one client of one server was served, by fresh and sweep spec.
#[derive(Debug, Default)]
pub struct Served {
    fresh: Vec<(RunSpec, ResultRow)>,
    sweeps: Vec<(SweepSpec, Vec<ResultRow>)>,
}

#[derive(Debug, Default)]
pub struct ServeOut {
    /// Closed-loop wall over all slices.
    pub wall: f64,
    pub completed: u64,
    /// Wall and timed requests of every slice.
    pub slice_walls: Vec<f64>,
    pub slice_done: Vec<f64>,
    /// Latency in ms of every answered timed request of each class.
    pub fresh_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    /// Largest journal a server left when it stopped, and the slices in
    /// which a server rotated its journal (replaced the file).
    pub journal_bytes: u64,
    pub rotating_slices: usize,
    /// Service counters summed over the servers.
    pub metrics: MetricsSnapshot,
    /// Traced pass only, timed on the first server that answered its
    /// whole lifetime, or on the last server if none did.
    pub probes: Option<ServeProbes>,
}

#[derive(Debug, Default)]
pub struct ServeProbes {
    pub call_ms: Vec<f64>,
    pub call_replay_us: Vec<f64>,
    pub journal_append_us: Vec<f64>,
    /// One compacting rotation of a journal holding every row the loop
    /// served, and that journal's size.
    pub rotation_ms: f64,
    pub rotation_bytes: u64,
    pub parse_request_us: f64,
    pub response_line_us: f64,
}

/// How long a slice of the closed loop runs.
#[derive(Clone, Debug)]
pub enum Slice {
    Seconds(f64),
    /// Exactly this many requests per client: a traced pass repeating
    /// an untraced slice.
    Requests(Vec<usize>),
}

/// A running server and its two clients. The closed loop runs in
/// slices ([`ServePhase::slice`]) so it can interleave with the other
/// phases; the server, its journal and the clients' streams persist
/// across slices.
pub struct ServePhase {
    seed: u64,
    /// Spec stream: the traced pass asks for the same mix under other
    /// hash seeds, so none of its requests hits a result or an FHT the
    /// untraced pass already produced.
    stream: u64,
    traced: bool,
    journal: PathBuf,
    server: Arc<Server>,
    accept: JoinHandle<()>,
    clients: Vec<ClientState>,
    slice_walls: Vec<f64>,
    journal_ino: u64,
    rotating_slices: usize,
}

impl ServePhase {
    pub fn start(
        seed: u64,
        traced: bool,
        generation: usize,
        scratch: &Path,
        tally: &mut Tally,
    ) -> ServePhase {
        let journal = scratch.join(format!("serve-{}-{generation}.jsonl", u8::from(traced)));
        let _ = std::fs::remove_file(&journal);
        let server = Arc::new(Server::start(config(), Some(&journal)).expect("server starts"));
        let journal_ino = std::fs::metadata(&journal).map_or(0, |m| m.ino());
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let accept = net::serve(server.clone(), listener).expect("accept loop starts");
        let clients = (0..CLIENTS)
            .map(|c| ClientState {
                index: c,
                client: Client::connect(addr)
                    .map_err(|e| tally.fail(format!("client {c} cannot connect: {e}")))
                    .ok(),
                rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64 + 1)),
                fresh_n: 0,
                sweep_n: 0,
                log: ClientLog::default(),
            })
            .collect();
        ServePhase {
            seed,
            stream: if traced { 2 } else { 0 },
            traced,
            journal,
            server,
            accept,
            clients,
            slice_walls: Vec::new(),
            journal_ino,
            rotating_slices: 0,
        }
    }

    /// Run one slice of the closed loop; returns the requests each
    /// client sent in it.
    pub fn slice(&mut self, limit: &Slice) -> Vec<usize> {
        let index = self.slice_walls.len();
        let (seed, stream) = (self.seed, self.stream);
        let start = Instant::now();
        let sent: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let limit = limit.clone();
                    s.spawn(move || {
                        let before = client.log.requests;
                        let c = client.index;
                        let stop = move |sent: usize| match &limit {
                            Slice::Seconds(seconds) => secs(start) >= *seconds,
                            Slice::Requests(counts) => sent >= counts[c],
                        };
                        client.run_slice(seed, stream, (index, start), &stop);
                        client.log.requests - before
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        self.slice_walls.push(secs(start));
        let ino = std::fs::metadata(&self.journal).map_or(0, |m| m.ino());
        if ino != self.journal_ino {
            self.rotating_slices += 1;
            self.journal_ino = ino;
        }
        sent
    }

    /// Whether the server has answered its [`GENERATION`] requests.
    pub fn spent(&self) -> bool {
        self.clients.iter().all(ClientState::spent)
    }

    /// Stop the loop, drain the server, and check every served row
    /// against the oracle or, where it repeats one, against `verified`:
    /// per client, the rows of the longest stream the oracle confirmed
    /// so far. A traced phase also times single layers on the server
    /// first when `probe_layers` is set.
    pub fn finish(
        self,
        tally: &mut Tally,
        probe_layers: bool,
        verified: &mut Vec<Served>,
    ) -> ServeOut {
        let logs: Vec<ClientLog> = self
            .clients
            .into_iter()
            .map(|mut c| {
                drop(c.client.take());
                c.log
            })
            .collect();
        let probes = (self.traced && probe_layers).then(|| {
            probe(
                &self.server,
                &logs,
                self.seed,
                self.journal.with_extension("probe"),
            )
        });
        let metrics = self.server.metrics();
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        self.server.drain();
        self.accept.join().expect("accept loop");
        let _ = std::fs::remove_file(&self.journal);

        let mut out = ServeOut {
            wall: self.slice_walls.iter().sum(),
            slice_done: vec![0.0; self.slice_walls.len()],
            slice_walls: self.slice_walls,
            probes,
            metrics,
            journal_bytes,
            rotating_slices: self.rotating_slices,
            ..ServeOut::default()
        };
        let mut served = Vec::new();
        for log in logs {
            for &slice in &log.done_in {
                out.slice_done[slice] += 1.0;
            }
            let failed = log.failures.len();
            for note in log.failures {
                tally.fail(note);
            }
            out.completed += (log.requests - failed) as u64;
            out.fresh_ms.extend(log.fresh_ms);
            out.replay_ms.extend(log.replay_ms);
            out.sweep_ms.extend(log.sweep_ms);
            served.push(Served {
                fresh: log.fresh,
                sweeps: log.sweeps,
            });
        }
        // Every served row must equal a clean in-process run of the same
        // spec; repeats were already compared against the fresh row they
        // repeat. Every server of a pass answers the same request stream,
        // so a row equal to the one an earlier server served for the same
        // spec at the same place in the client's stream, and the oracle
        // then confirmed, is confirmed without simulating it again.
        let mut checked = 0;
        for (c, now) in served.into_iter().enumerate() {
            let known = verified.get(c);
            let fresh_ok = parallel_map(&now.fresh, 2, |i, (spec, row)| {
                known.is_some_and(|k| k.fresh.get(i).is_some_and(|(s, r)| s == spec && r == row))
                    || oracle_agrees(&[run_experiment(spec)], std::slice::from_ref(row))
            });
            let sweeps_ok = parallel_map(&now.sweeps, 2, |i, (spec, rows)| {
                known.is_some_and(|k| k.sweeps.get(i).is_some_and(|(s, r)| s == spec && r == rows))
                    || oracle_agrees(&sweep_experiments(spec), rows)
            });
            for ((spec, _), &ok) in now.fresh.iter().zip(&fresh_ok) {
                tally.check(ok, || {
                    format!("served row for {spec:?} differs from the oracle")
                });
            }
            for ((spec, _), &ok) in now.sweeps.iter().zip(&sweeps_ok) {
                tally.check(ok, || {
                    format!("served sweep {spec:?} differs from the oracle")
                });
            }
            checked += now.fresh.len() + now.sweeps.len();
            let all_ok = fresh_ok.iter().chain(&sweeps_ok).all(|&ok| ok);
            let longer = known.is_none_or(|k| k.fresh.len() < now.fresh.len());
            if all_ok && longer {
                if c < verified.len() {
                    verified[c] = now;
                } else {
                    verified.push(now);
                }
            }
        }
        tally.ok(out.completed - checked as u64);
        out
    }
}

/// In-process and single-layer timings on the live server, after the
/// closed loop.
fn probe(server: &Server, logs: &[ClientLog], seed: u64, journal: PathBuf) -> ServeProbes {
    let mut p = ServeProbes::default();
    for n in 0..40 {
        let req = request(1 << 50 | n, RequestBody::Run(fresh_spec(seed, 1, n)));
        let t = Instant::now();
        let resp = server.call(req);
        p.call_ms.push(secs(t) * 1e3);
        std::hint::black_box(resp);
    }
    let known: Vec<&RunSpec> = logs
        .iter()
        .flat_map(|l| l.fresh.iter().map(|(s, _)| s))
        .collect();
    for (n, spec) in known.iter().cycle().take(200).enumerate() {
        let req = request(2 << 50 | n as u64, RequestBody::Run((*spec).clone()));
        let t = Instant::now();
        let resp = server.call(req);
        p.call_replay_us.push(secs(t) * 1e6);
        std::hint::black_box(resp);
    }

    // Parse and serialise on lines of the mix's shapes.
    let lines: Vec<String> = logs
        .iter()
        .flat_map(|l| {
            let runs = l.fresh.iter().map(|(s, _)| RequestBody::Run(s.clone()));
            let sweeps = l.sweeps.iter().map(|(s, _)| RequestBody::Sweep(s.clone()));
            runs.chain(sweeps).take(100)
        })
        .enumerate()
        .map(|(i, body)| request(i as u64, body).to_line())
        .collect();
    let responses: Vec<Response> = logs
        .iter()
        .flat_map(|l| l.fresh.iter().take(100))
        .enumerate()
        .map(|(i, (_, row))| Response::Row {
            id: i as u64,
            row: row.clone(),
            replayed: false,
        })
        .collect();
    const ROUNDS: usize = 20;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for line in &lines {
            std::hint::black_box(parse_request(line).is_ok());
        }
    }
    p.parse_request_us = secs(t) * 1e6 / (ROUNDS * lines.len().max(1)) as f64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for resp in &responses {
            std::hint::black_box(response_to_line(resp));
        }
    }
    p.response_line_us = secs(t) * 1e6 / (ROUNDS * responses.len().max(1)) as f64;

    // Durable appends of records the size of served rows.
    let path = journal;
    let _ = std::fs::remove_file(&path);
    if let Ok((mut journal, _)) = Journal::open(&path) {
        for (i, resp) in responses.iter().cycle().take(200).enumerate() {
            let record = Record {
                key: i as u64,
                tag: "row".to_string(),
                extra: String::new(),
                body: response_to_line(resp),
            };
            let t = Instant::now();
            let ok = journal.append(&record, i).is_ok() && journal.sync().is_ok();
            p.journal_append_us.push(secs(t) * 1e6);
            std::hint::black_box(ok);
        }
        // What every append costs once the live results outgrow the
        // rotation threshold: a rewrite of all of them.
        let live: Vec<Record> = logs
            .iter()
            .flat_map(|l| {
                let runs = l.fresh.iter().map(|(_, row)| row);
                runs.chain(l.sweeps.iter().flat_map(|(_, rows)| rows))
            })
            .enumerate()
            .map(|(i, row)| Record {
                key: i as u64,
                tag: "row".to_string(),
                extra: String::new(),
                body: response_to_line(&Response::Row {
                    id: i as u64,
                    row: row.clone(),
                    replayed: false,
                }),
            })
            .collect();
        let mut rotations = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let ok = journal.rotate_if_needed(0, &live).is_ok();
            rotations.push(secs(t) * 1e3);
            std::hint::black_box(ok);
        }
        p.rotation_ms = crate::util::median(&rotations);
        p.rotation_bytes = journal.len_bytes();
    }
    let _ = std::fs::remove_file(&path);
    p
}

impl ServeOut {
    /// Fold a later server's output into this one.
    pub fn merge(&mut self, later: ServeOut) {
        self.wall += later.wall;
        self.completed += later.completed;
        self.slice_walls.extend(later.slice_walls);
        self.slice_done.extend(later.slice_done);
        self.fresh_ms.extend(later.fresh_ms);
        self.replay_ms.extend(later.replay_ms);
        self.sweep_ms.extend(later.sweep_ms);
        self.journal_bytes = self.journal_bytes.max(later.journal_bytes);
        self.rotating_slices += later.rotating_slices;
        let (m, n) = (&mut self.metrics, later.metrics);
        m.admitted += n.admitted;
        m.rejected_overload += n.rejected_overload;
        m.rejected_draining += n.rejected_draining;
        m.protocol_errors += n.protocol_errors;
        m.completed += n.completed;
        m.failed += n.failed;
        m.retried += n.retried;
        m.replayed += n.replayed;
        m.dropped += n.dropped;
        m.journal_corrupt_dropped += n.journal_corrupt_dropped;
        m.journal_torn += n.journal_torn;
        m.rows_streamed += n.rows_streamed;
        m.rows_replayed += n.rows_replayed;
        m.streams_shed += n.streams_shed;
        self.probes = self.probes.take().or(later.probes);
    }

    /// Timed requests per second of timed slice wall, over every slice.
    pub fn req_per_s(&self) -> f64 {
        let timed_wall: f64 = self.slice_walls.iter().map(|&w| timed(w)).sum();
        self.slice_done.iter().sum::<f64>() / timed_wall
    }

    /// Slices that ran at under a tenth of the median slice's rate: in
    /// practice, the journal-rotation stalls described in the README.
    pub fn stalled_slices(&self) -> usize {
        let rates: Vec<f64> = self
            .slice_done
            .iter()
            .zip(&self.slice_walls)
            .filter(|(_, &w)| w > WARMUP_S)
            .map(|(n, &w)| n / timed(w))
            .collect();
        let median = crate::util::median(&rates);
        rates.iter().filter(|&&r| r < 0.1 * median).count()
    }
}
