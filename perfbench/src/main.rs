//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-eval|corpus-long|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same three phases — the paper's evaluation,
//! long corpus programs, and a served request mix — and gives its
//! namesake phase the largest share of the time budget, so every
//! end-to-end metric is measured on every workload. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs every step twice in a row,
//! once plain and once with the benchmark's own timers around calls
//! into each layer, and prints the per-layer metrics. The last line of
//! standard output is the JSON result; the line before it is the
//! machine and build metadata. See `perfbench/README.md`.

mod corpus;
mod hostspeed;
mod paper;
mod serve;
mod setup;
mod tracemon;
mod util;

use std::path::{Path, PathBuf};

use corpus::Mode;
use util::{median, quantile, Metrics, Tally};

/// One scheduled unit of work: a paper iteration, a corpus program in
/// all three modes, or a slice of the served closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Paper,
    Corpus,
    Serve,
}

/// Seconds per serve slice.
const SLICE_S: f64 = 1.0;

/// The traced pass's wall, less its measured clock reads, must land on
/// the untraced pass's wall within this share of it.
const CLOSURE_ERROR: f64 = 0.20;

/// The three phases. When tracing, every step runs twice in a row —
/// untraced, then traced — so both passes meet the host in the same
/// state; the traced serve slices go to a server of their own and
/// repeat the untraced slice's request counts. A server that has
/// answered its [`serve::GENERATION`] requests is replaced by a fresh
/// one, its output kept in `served`.
struct Phases {
    paper: paper::PaperPhase,
    corpus: corpus::CorpusPhase,
    serve: serve::ServePhase,
    traced_serve: Option<serve::ServePhase>,
    served: serve::ServeOut,
    traced_served: serve::ServeOut,
    /// Oracle-confirmed rows of each pass (see `ServePhase::finish`).
    verified: [Vec<serve::Served>; 2],
    /// Whether a traced server has had its layers timed.
    probed: bool,
    generation: usize,
    seed: u64,
    scratch: PathBuf,
}

impl Phases {
    /// Run `step` (and its traced copy when tracing); returns the
    /// untraced step's seconds.
    fn run(&mut self, step: Step, tally: &mut Tally) -> f64 {
        let t = std::time::Instant::now();
        let counts = match step {
            Step::Paper => {
                self.paper.step(false, tally);
                Vec::new()
            }
            Step::Corpus => {
                self.corpus.step(false, tally);
                Vec::new()
            }
            Step::Serve => self.serve.slice(&serve::Slice::Seconds(SLICE_S)),
        };
        let spent = util::secs(t);
        if let Some(traced_serve) = self.traced_serve.as_mut() {
            match step {
                Step::Paper => self.paper.step(true, tally),
                Step::Corpus => self.corpus.step(true, tally),
                Step::Serve => {
                    traced_serve.slice(&serve::Slice::Requests(counts));
                }
            }
        }
        if step == Step::Serve && self.serve.spent() {
            self.renew_servers(tally);
        }
        spent
    }

    /// Start the next generation of servers and finish the spent ones.
    fn renew_servers(&mut self, tally: &mut Tally) {
        self.generation += 1;
        let (seed, generation) = (self.seed, self.generation);
        let next = serve::ServePhase::start(seed, false, generation, &self.scratch, tally);
        let spent = std::mem::replace(&mut self.serve, next);
        self.served
            .merge(spent.finish(tally, false, &mut self.verified[0]));
        if let Some(traced) = self.traced_serve.as_mut() {
            let next = serve::ServePhase::start(seed, true, generation, &self.scratch, tally);
            let spent = std::mem::replace(traced, next);
            let probe = !self.probed;
            self.probed = true;
            self.traced_served
                .merge(spent.finish(tally, probe, &mut self.verified[1]));
        }
    }
}

/// Interleave the phases for `budget` seconds, each step going to the
/// phase furthest behind its share of untraced time, so every phase's
/// samples span the whole run rather than one stretch of it. A
/// host-speed sample precedes every step. `batch` runs a set-up batch
/// at each of the run's [`setup::BATCHES`] equal parts after the first.
fn schedule(
    phases: &mut Phases,
    host: &mut hostspeed::HostSpeed,
    shares: [f64; 3],
    budget: f64,
    mut batch: impl FnMut(),
    tally: &mut Tally,
) {
    let mut spent = [0.0f64; 3];
    let mut batches = 1;
    let start = std::time::Instant::now();
    while util::secs(start) < budget {
        let i = (0..3)
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .unwrap_or(0);
        host.sample();
        spent[i] += phases.run([Step::Paper, Step::Corpus, Step::Serve][i], tally);
        let part = budget * batches as f64 / setup::BATCHES as f64;
        if batches < setup::BATCHES && util::secs(start) >= part {
            batch();
            batches += 1;
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperEval,
    CorpusLong,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-eval" => Some(Workload::PaperEval),
            "corpus-long" => Some(Workload::CorpusLong),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::CorpusLong => "corpus-long",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Shares of the time budget for the paper, corpus and serve
    /// phases: the namesake phase gets half.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::PaperEval => [0.5, 0.25, 0.25],
            Workload::CorpusLong => [0.25, 0.5, 0.25],
            Workload::ServeMixed => [0.25, 0.25, 0.5],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: u64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(1..=600).contains(&seconds) {
            return Err("--seconds must be in 1..=600".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Metric names `BENCHMARK.json` declares, end-to-end and per-layer.
fn declared() -> (Vec<String>, Vec<String>) {
    let spec = include_str!("../../BENCHMARK.json");
    let names = |section: &str| -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).unwrap_or(spec.len());
        let body = &spec[start..];
        let end = body.find(']').unwrap_or(body.len());
        body[..end]
            .split("\"name\":")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-eval|corpus-long|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!("perfbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let Run {
        metrics,
        measured,
        tally,
        clock_ns,
        host_msteps,
    } = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");

    let (e2e, layers) = declared();
    let want = if args.trace { layers } else { e2e };
    let got: Vec<String> = metrics.names().iter().map(|s| s.to_string()).collect();
    if got != want {
        eprintln!("perfbench: printed metrics differ from BENCHMARK.json: {got:?} vs {want:?}");
        std::process::exit(3);
    }
    eprint!("{}", metrics.table());
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    let failed = tally.failed + metrics.non_finite() as u64;
    let attempted = tally.attempted.max(1);
    println!(
        "{}",
        util::metadata(
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            clock_ns,
            host_msteps,
            &measured,
        )
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
}

/// What one run reports.
struct Run {
    metrics: Metrics,
    /// The scaled end-to-end metrics as measured, before the host speed
    /// scale (empty for a traced run).
    measured: Metrics,
    tally: Tally,
    clock_ns: f64,
    host_msteps: f64,
}

/// End-to-end metrics: host times and rates are put at the reference
/// host speed (see `hostspeed`), their measured values kept beside.
struct EndToEnd {
    metrics: Metrics,
    measured: Metrics,
    /// The run's time scale.
    scale: f64,
}

impl EndToEnd {
    fn time(&mut self, name: &str, seconds_or_ms: f64, unit: &'static str) {
        self.measured.put(name, seconds_or_ms, unit);
        self.metrics.put(name, seconds_or_ms * self.scale, unit);
    }

    fn rate(&mut self, name: &str, per_second: f64, unit: &'static str) {
        self.measured.put(name, per_second, unit);
        self.metrics.put(name, per_second / self.scale, unit);
    }
}

/// Run the workload; returns its metrics and what the result and
/// metadata lines print beside them.
fn run(args: &Args, scratch: &Path) -> Run {
    let clock_ns = util::clock_ns();
    let mut tally = Tally::default();
    let mut setup = setup::run(scratch);
    paper::warm();

    let mut phases = Phases {
        paper: paper::PaperPhase::new(args.seed),
        corpus: corpus::CorpusPhase::new(setup.corpus.clone(), args.seed),
        serve: serve::ServePhase::start(args.seed, false, 0, scratch, &mut tally),
        traced_serve: None,
        served: serve::ServeOut::default(),
        traced_served: serve::ServeOut::default(),
        verified: Default::default(),
        probed: false,
        generation: 0,
        seed: args.seed,
        scratch: scratch.to_path_buf(),
    };
    if args.trace {
        phases.traced_serve = Some(serve::ServePhase::start(
            args.seed, true, 0, scratch, &mut tally,
        ));
    }
    // One untimed step of each simulating phase first, so the timed
    // steps start with warm caches and a grown heap.
    phases.run(Step::Paper, &mut tally);
    phases.run(Step::Corpus, &mut tally);
    for traced in [false, true] {
        phases.paper.take(traced);
        phases.corpus.take(traced);
    }

    let mut host = hostspeed::HostSpeed::new();
    schedule(
        &mut phases,
        &mut host,
        args.workload.shares(),
        args.seconds as f64,
        || setup.batch(scratch),
        &mut tally,
    );
    let paper = phases.paper.take(false);
    let corpus = phases.corpus.take(false);
    let mut serve = phases.served;
    serve.merge(
        phases
            .serve
            .finish(&mut tally, false, &mut phases.verified[0]),
    );
    eprintln!(
        "phases: paper {:.2}s ({} iterations, {} injections, {} hung), \
         corpus {:.2}s ({} programs x 3 modes), serve {:.2}s ({} requests in {} slices on {} \
         servers, journal {:.2} MiB, rotated in {} slices, {} stalled); host speed {:.1} M steps/s",
        paper.wall,
        paper.iterations,
        paper.injections,
        paper.hung,
        corpus.wall,
        corpus.iterations,
        serve.wall,
        serve.completed,
        serve.slice_walls.len(),
        phases.generation + 1,
        serve.journal_bytes as f64 / (1 << 20) as f64,
        serve.rotating_slices,
        serve.stalled_slices(),
        host.msteps(),
    );

    let mut m = Metrics::default();
    let setup_total = |r: &setup::RepTimes| match args.workload {
        Workload::PaperEval => r.paper.total(),
        Workload::CorpusLong => r.corpus.total(),
        Workload::ServeMixed => r.paper.total() + r.serve_start,
    };
    let Some(traced_serve) = phases.traced_serve.take() else {
        tally.check(
            !serve.fresh_ms.is_empty() && !serve.replay_ms.is_empty() && !serve.sweep_ms.is_empty(),
            || "the serve phase answered no request of some class".into(),
        );
        let mut e = EndToEnd {
            metrics: m,
            measured: Metrics::default(),
            scale: host.time_scale(),
        };
        // Each set-up repetition is scaled by the kernel sample just
        // before it rather than by the run's mean: the repetitions come
        // in batches, each meeting the host in one state.
        e.measured.put("setup_s", setup.median_of(setup_total), "s");
        e.metrics.put(
            "setup_s",
            setup.median_of(|r| setup_total(r) * r.scale),
            "s",
        );
        e.metrics.put(
            "peak_rss_mb",
            util::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        );
        e.metrics.put(
            "ok_ratio",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
        e.rate("grid_rows_per_s", paper.rows_per_s(), "1/s");
        e.rate("injections_per_s", paper.injections_per_s(), "1/s");
        e.metrics.put("cic8_overhead_pct", paper.overhead8, "%");
        e.rate("mips_baseline", corpus.mips(Mode::Baseline), "MIPS");
        e.rate("mips_cic8", corpus.mips(Mode::Cic8), "MIPS");
        e.rate("req_per_s", serve.req_per_s(), "1/s");
        e.time("fresh_p50_ms", quantile(&serve.fresh_ms, 0.5), "ms");
        // A quarter of a run answers about 1,200 fresh requests, so their
        // p99 rests on a dozen waits behind a sweep or a slow journal
        // sync: it spread 0.16-0.37 between runs of the same code.
        e.time("fresh_p90_ms", quantile(&serve.fresh_ms, 0.9), "ms");
        e.time("replay_p50_ms", quantile(&serve.replay_ms, 0.5), "ms");
        // A repeat takes well under 0.1 ms, so its p99 is set by whether
        // the host preempted a vCPU during the run: 0.16 ms in some runs,
        // 1.3 ms in others. The p90 is the tail that repeats.
        e.time("replay_p90_ms", quantile(&serve.replay_ms, 0.9), "ms");
        return Run {
            metrics: e.metrics,
            measured: e.measured,
            tally,
            clock_ns,
            host_msteps: host.msteps(),
        };
    };

    let t_paper = phases.paper.take(true);
    let t_corpus = phases.corpus.take(true);
    let mut t_serve = phases.traced_served;
    t_serve.merge(traced_serve.finish(&mut tally, !phases.probed, &mut phases.verified[1]));
    let probes = paper::probes(args.seed, &mut tally);
    tally.check(t_paper.faults == paper.faults, || {
        "traced campaign counts differ from the untraced ones".into()
    });

    let med = |f: &dyn Fn(&setup::RepTimes) -> f64| setup.median_of(f);
    m.put("workloads.generate_s", med(&|r| r.corpus.generate), "s");
    m.put(
        "asm.assemble_s",
        med(&|r| r.paper.assemble + r.corpus.assemble),
        "s",
    );
    m.put("hashgen.fht_s", med(&|r| r.paper.fht + r.corpus.fht), "s");
    m.put(
        "pipeline.predecode_s",
        med(&|r| r.paper.predecode + r.corpus.predecode),
        "s",
    );
    m.put(
        "pipeline.block_cache_s",
        med(&|r| r.paper.block_cache + r.corpus.block_cache),
        "s",
    );
    m.put("serve.start_s", med(&|r| r.serve_start), "s");
    m.put("pipeline.new_us", probes.new_us, "us");

    // Ablation split of the corpus runs (untraced pass: no clocks
    // inside a run).
    let base = corpus.run_s(Mode::Baseline);
    let cic8 = corpus.run_s(Mode::Cic8);
    let ideal = corpus.run_s(Mode::CicIdeal);
    m.put("pipeline.run_s.baseline", base, "s");
    m.put("pipeline.run_s.cic8", cic8, "s");
    m.put("pipeline.run_s.cic-ideal", ideal, "s");
    m.put(
        "pipeline.mips_cic_ideal",
        corpus.mips(Mode::CicIdeal),
        "MIPS",
    );
    m.put("core.monitor_s", ideal - base, "s");
    m.put("os.refill_s", cic8 - ideal, "s");

    // Sampled hooks over the traced cic8 runs.
    let empty_ns = tracemon::empty_sample_ns();
    let hooks = t_corpus.hooks[1];
    m.put("core.observe_ns", hooks.observe.mean_ns(empty_ns), "ns");
    m.put("core.txn_ns", hooks.txn.mean_ns(empty_ns), "ns");
    m.put("core.check_ns", hooks.check.mean_ns(empty_ns), "ns");
    m.put("os.resolve_ns", hooks.resolve.mean_ns(empty_ns), "ns");
    let runs = t_corpus.iterations.max(1) as f64;
    m.put(
        "core.observe_calls",
        hooks.observe.calls as f64 / runs,
        "count",
    );
    m.put("core.txn_calls", hooks.txn.calls as f64 / runs, "count");
    m.put("core.check_calls", hooks.check.calls as f64 / runs, "count");
    m.put(
        "os.resolve_calls",
        hooks.resolve.calls as f64 / runs,
        "count",
    );

    let b = t_corpus.blocks;
    m.put("pipeline.dispatches", b.dispatches as f64 / runs, "count");
    m.put("pipeline.mean_block", b.mean_block(), "count");
    m.put("pipeline.bailouts", b.bailouts as f64 / runs, "count");
    m.put(
        "pipeline.chain_hit_ratio",
        b.chain_hits as f64 / b.dispatches.max(1) as f64,
        "ratio",
    );

    // Simulated counts: Table 1's CIC8 runs, summed over the registry.
    let s = &probes.cic8;
    let cic = s.cic.unwrap_or_default();
    let os = s.os.unwrap_or_default();
    m.put("pipeline.instructions", s.instructions as f64, "count");
    m.put("pipeline.cycles", s.cycles as f64, "count");
    m.put(
        "pipeline.cpi",
        s.cycles as f64 / s.instructions.max(1) as f64,
        "cycles",
    );
    m.put(
        "pipeline.monitor_stall_cycles",
        s.monitor_stall_cycles as f64,
        "count",
    );
    m.put("core.words_hashed", cic.words_hashed as f64, "count");
    m.put("core.checks", cic.checks as f64, "count");
    m.put(
        "core.hit_ratio",
        cic.hits as f64 / cic.checks.max(1) as f64,
        "ratio",
    );
    m.put("core.misses", cic.misses as f64, "count");
    m.put("core.mismatches", cic.mismatches as f64, "count");
    m.put("os.miss_exceptions", os.miss_exceptions as f64, "count");
    m.put("os.entries_refilled", os.entries_refilled as f64, "count");
    m.put("os.exception_cycles", os.exception_cycles as f64, "count");

    // Engine sweeps.
    let (row50, row90) = paper::row_ms(&t_paper);
    let row_total: f64 = t_paper.row_s.iter().sum();
    m.put("sim.sweep_s", median(&t_paper.sweep_walls), "s");
    m.put("sim.row_ms_p50", row50, "ms");
    m.put("sim.row_ms_p90", row90, "ms");
    m.put(
        "sim.parallel_efficiency",
        row_total / (paper::WORKERS as f64 * t_paper.sweep_s),
        "ratio",
    );
    m.put("sim.rows_poisoned", t_paper.rows_poisoned as f64, "count");

    // Fault campaigns.
    let f = &paper.faults;
    m.put("faults.new_s", median(&t_paper.new_s), "s");
    m.put(
        "faults.run_one_us_p50",
        quantile(&probes.run_one_us, 0.5),
        "us",
    );
    m.put(
        "faults.run_one_us_p90",
        quantile(&probes.run_one_us, 0.9),
        "us",
    );
    m.put(
        "faults.parallel_efficiency",
        probes.faults_efficiency,
        "ratio",
    );
    m.put("pipeline.snapshot_us", probes.snapshot_us, "us");
    m.put("pipeline.restore_us", probes.restore_us, "us");
    m.put("faults.saved_cycles", f.saved_cycles as f64, "count");
    m.put(
        "faults.detected",
        (f.detected_monitor + f.detected_baseline) as f64,
        "count",
    );
    m.put("faults.masked", f.masked as f64, "count");
    m.put("faults.silent", f.silent as f64, "count");
    m.put("faults.quarantined", f.quarantined as f64, "count");

    // Serving.
    let sp = &t_serve.probes.take().unwrap_or_default();
    let replay50 = quantile(&t_serve.replay_ms, 0.5);
    m.put("serve.call_ms_p50", median(&sp.call_ms), "ms");
    m.put(
        "serve.journal_append_us_p50",
        quantile(&sp.journal_append_us, 0.5),
        "us",
    );
    m.put(
        "serve.journal_append_us_p99",
        quantile(&sp.journal_append_us, 0.99),
        "us",
    );
    m.put(
        "serve.net_us_p50",
        replay50 * 1e3 - median(&sp.call_replay_us),
        "us",
    );
    m.put(
        "serve.journal_mb",
        serve.journal_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    m.put(
        "serve.stalled_slices",
        serve.stalled_slices() as f64,
        "count",
    );
    m.put(
        "serve.rotating_slices",
        serve.rotating_slices as f64,
        "count",
    );
    m.put("serve.rotation_ms", sp.rotation_ms, "ms");
    m.put("serve.parse_request_us", sp.parse_request_us, "us");
    m.put("serve.response_line_us", sp.response_line_us, "us");
    m.put("serve.sweep_ms_p50", median(&t_serve.sweep_ms), "ms");
    let sm = &serve.metrics;
    m.put("serve.admitted", sm.admitted as f64, "count");
    m.put("serve.completed", sm.completed as f64, "count");
    m.put("serve.replayed", sm.replayed as f64, "count");
    m.put(
        "serve.replay_ratio",
        sm.replayed as f64 / sm.completed.max(1) as f64,
        "ratio",
    );
    m.put(
        "serve.rejected_overload",
        sm.rejected_overload as f64,
        "count",
    );
    m.put("serve.failed", sm.failed as f64, "count");
    m.put("serve.retried", sm.retried as f64, "count");
    m.put("serve.rows_streamed", sm.rows_streamed as f64, "count");
    m.put("serve.streams_shed", sm.streams_shed as f64, "count");

    // Closure: the traced pass's layer times plus its unattributed glue
    // make its wall; with the measured instrumentation cost removed it
    // must land on the untraced wall. Each traced step ran right after
    // its untraced twin, so the host drifts under both alike.
    let untraced = paper.wall + corpus.wall + serve.wall;
    let traced = t_paper.wall + t_corpus.wall + t_serve.wall;
    let clock_reads = t_paper.clock_reads + t_corpus.clock_reads;
    // Each timed span costs what an empty sample reads.
    let instrumentation = clock_reads as f64 / 2.0 * empty_ns * 1e-9;
    let closure_error = ((traced - instrumentation) - untraced).abs() / untraced;
    tally.check(closure_error <= CLOSURE_ERROR, || {
        format!(
            "traced wall {traced:.3}s less {instrumentation:.3}s of clock reads misses the \
             untraced wall {untraced:.3}s by {closure_error:.3} of it (allowed {CLOSURE_ERROR})"
        )
    });
    let shares = [
        ("trace.share.sim", t_paper.sweep_s),
        ("trace.share.faults", t_paper.campaign_s),
        ("trace.share.pipeline", t_corpus.seconds.iter().sum::<f64>()),
        ("trace.share.serve", t_serve.wall),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    m.put("trace.clock_ns", clock_ns, "ns");
    m.put("trace.overhead_ratio", traced / untraced, "ratio");
    m.put(
        "trace.unattributed_ratio",
        1.0 - attributed / traced,
        "ratio",
    );
    m.put("trace.closure_error_ratio", closure_error, "ratio");
    // Sampled hooks against the ablation, both from the traced pass:
    // hook time over the cic8 runs versus what those runs cost above
    // the baseline runs they were interleaved with. Reported, not
    // checked: the README says why the two do not agree.
    let hook_s = hooks.total_s(empty_ns) / runs;
    let traced_delta = t_corpus.run_s(Mode::Cic8) - t_corpus.run_s(Mode::Baseline);
    m.put(
        "trace.hook_share_of_ablation",
        hook_s / traced_delta,
        "ratio",
    );
    for (name, s) in shares {
        m.put(name, s / traced, "ratio");
    }
    Run {
        metrics: m,
        measured: Metrics::default(),
        tally,
        clock_ns,
        host_msteps: host.msteps(),
    }
}
