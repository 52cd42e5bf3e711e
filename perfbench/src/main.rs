//! The served-path benchmark: drives a release `mine serve` over loopback
//! HTTP with a closed loop of two keep-alive connections, prints every
//! end-to-end metric (or, traced, every per-layer metric) and checks the
//! service's outputs. See README.md for the workloads and the contract.
//!
//! Usage: `mine-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!         --mine PATH --work DIR [--clk-tck HZ] [--rustc TEXT] [--commit TEXT]`

mod layers;
mod node;
mod plan;
mod stats;
mod trace;
mod transport;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mine_itembank::RepositorySnapshot;
use mine_server::AnswerKey;
use mine_store::SyncPolicy;

use node::{get, head_seq, prom, wait_until, Node, Result};
use plan::{sitting_plan, Transport};
use stats::{median, Samples};
use trace::Tracer;
use transport::{ConnTrace, HttpConn, Traffic, TRACE_SLICE};

/// Load-generating connections: fixed, so numbers compare across hosts.
const CONNECTIONS: u64 = 2;
/// Sittings finished during set-up by workloads without a preload.
const WARMUP_SITTINGS: u64 = 40;
/// Analysis reads after the timed phase, on one connection, by workloads
/// that send none in it. They are spread evenly over `PROBE_SPAN`, so a
/// few seconds of host noise cannot decide the read latency.
const READ_PROBE: usize = 1_000;
const PROBE_SPAN: Duration = Duration::from_secs(5);
/// The traced run's in-process replay of that probe.
const REPLAY_PROBE_READS: usize = 200;
/// The share of a connection's timed reads that are compared with the
/// report layers, which are timed at the final class size.
const FINAL_READS: f64 = 0.1;
const ANALYSIS: &str = "/exams/quiz/analysis";

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    questions: usize,
    /// `--fsync` value; `None` keeps the serve default (`interval`).
    fsync: Option<&'static str>,
    /// `--snapshot-every`: 512, the serve default, where compaction is
    /// measured; 0 (never) where it would swamp the layers the workload
    /// is for.
    snapshot_every: u64,
    /// Finished sittings loaded through HTTP during set-up.
    preload: u64,
    reads_per_sitting: usize,
    adaptive: bool,
    follower: bool,
    /// Set-ups per run; `setup_s` is their median. Fewer where the
    /// preload makes one set-up long enough to be steady.
    setup_repeats: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "exam-durable",
        questions: 20,
        fsync: Some("always"),
        snapshot_every: 512,
        preload: WARMUP_SITTINGS,
        reads_per_sitting: 0,
        adaptive: false,
        follower: false,
        setup_repeats: 9,
    },
    Workload {
        name: "report-read",
        questions: 50,
        fsync: Some("never"),
        snapshot_every: 0,
        preload: 1_000,
        reads_per_sitting: 8,
        adaptive: false,
        follower: false,
        setup_repeats: 3,
    },
    Workload {
        name: "cat-quorum",
        questions: 50,
        fsync: None,
        snapshot_every: 0,
        preload: WARMUP_SITTINGS,
        reads_per_sitting: 0,
        adaptive: true,
        follower: true,
        setup_repeats: 9,
    },
];

impl Workload {
    fn policy(&self) -> SyncPolicy {
        SyncPolicy::parse(self.fsync.unwrap_or("interval")).expect("known policy")
    }

    /// Flags every node of the workload runs with.
    fn node_flags(&self) -> Vec<String> {
        vec![
            "--scrub-interval".to_string(),
            "1000".to_string(),
            "--snapshot-every".to_string(),
            self.snapshot_every.to_string(),
        ]
    }

    fn primary_flags(&self) -> Vec<String> {
        let mut flags = self.node_flags();
        if let Some(fsync) = self.fsync {
            flags.extend(["--fsync".to_string(), fsync.to_string()]);
        }
        if self.follower {
            flags.extend(
                ["--repl-addr", "127.0.0.1:0", "--replicate", "ack=quorum"].map(String::from),
            );
        }
        flags
    }
}

/// Metrics in output order, each with its unit and sample count.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str, usize)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: String, value: f64, unit: &'static str, n: usize) {
        self.items.push((name, value, unit, n));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mine: PathBuf,
    work: PathBuf,
    clk_tck: f64,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Args {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number")?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|_| "--seconds needs a number")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        mine: need("--mine")?.into(),
        work: need("--work")?.into(),
        clk_tck: flag("--clk-tck")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100.0),
        rustc: flag("--rustc").unwrap_or_else(|| "unknown".into()),
        commit: flag("--commit").unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// The servers of one set-up and what set-up finished on them.
struct Deployment {
    primary: Node,
    follower: Option<Node>,
    bank: PathBuf,
}

impl Deployment {
    fn nodes(&self) -> impl Iterator<Item = &Node> {
        std::iter::once(&self.primary).chain(self.follower.as_ref())
    }

    fn usage(&self, clk_tck: f64) -> Result<(f64, f64)> {
        let mut cpu = 0.0;
        for node in self.nodes() {
            cpu += node.usage(clk_tck)?.0;
        }
        Ok((cpu, self.primary.usage(clk_tck)?.1))
    }
}

/// What the connections of one closed-loop stretch did.
#[derive(Default)]
struct LoopResult {
    writes: Samples,
    reads: Samples,
    /// The last `FINAL_READS` of each connection's reads: those taken
    /// nearest the final class size.
    final_reads: Samples,
    ok: u64,
    failed: u64,
    finished: u64,
    traffic: Traffic,
    started: Vec<u64>,
    last_end: Option<Instant>,
    errors: Vec<String>,
    spans: Vec<trace::Span>,
    traced_requests: u64,
    untraced_requests: u64,
}

/// How long a closed loop runs: until a deadline, or through a fixed
/// range of sitting indices.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Sittings(u64),
}

/// Runs the closed loop on `CONNECTIONS` threads. Connection `c` sits
/// plans `first + c`, `first + c + CONNECTIONS`, …; after each sitting it
/// reads the report `reads` times.
fn closed_loop(
    addr: &str,
    key: &AnswerKey,
    args: &Args,
    first: u64,
    until: Until,
    reads: usize,
    trace_epoch: Option<(Instant, Instant)>,
) -> LoopResult {
    let workload = args.workload;
    let results: Vec<(HttpConn, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = HttpConn::new(addr);
                    if let Some((epoch, phase_start)) = trace_epoch {
                        conn.trace = Some(ConnTrace {
                            tracer: Tracer::new(epoch, c + 1),
                            phase_start,
                            sitting: 0,
                            next_request: 0,
                            traced_requests: 0,
                            untraced_requests: 0,
                        });
                    }
                    let (mut finished, mut started) = (0, Vec::new());
                    let mut index = first + c;
                    loop {
                        match until {
                            Until::Deadline(at) if Instant::now() >= at => break,
                            Until::Sittings(end) if index >= end => break,
                            _ => {}
                        }
                        let plan = sitting_plan(args.seed, index);
                        started.push(index);
                        let begin = Instant::now();
                        if let Some(t) = &mut conn.trace {
                            t.sitting = if t.in_traced_slice(begin) {
                                t.tracer.reserve()
                            } else {
                                0
                            };
                        }
                        let done = if workload.adaptive {
                            plan::cat_sitting(&mut conn, key, &plan)
                        } else {
                            plan::fixed_sitting(&mut conn, key, &plan)
                        };
                        finished += u64::from(done);
                        for _ in 0..reads {
                            let _ = conn.call("GET", ANALYSIS, "", 200);
                        }
                        if let Some(t) = &mut conn.trace {
                            if t.sitting != 0 {
                                let id = t.sitting;
                                t.tracer.record_as(
                                    id,
                                    "client.sitting",
                                    0,
                                    0,
                                    begin,
                                    Instant::now(),
                                );
                            }
                        }
                        index += CONNECTIONS;
                    }
                    (conn, finished, started)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut out = LoopResult::default();
    for (mut conn, finished, started) in results {
        out.writes.extend(&conn.writes);
        out.reads.extend(&conn.reads);
        out.final_reads.extend(&conn.reads.tail(FINAL_READS));
        out.ok += conn.ok;
        out.failed += conn.failed;
        out.finished += finished;
        out.traffic.merge(&conn.traffic);
        out.started.extend(started);
        out.last_end = out.last_end.max(conn.last_end);
        out.errors.extend(conn.last_error.take());
        if let Some(t) = conn.trace.take() {
            out.spans.extend(t.tracer.spans);
            out.traced_requests += t.traced_requests;
            out.untraced_requests += t.untraced_requests;
        }
    }
    out.started.sort_unstable();
    out
}

/// Starts the workload's servers and finishes its preload sittings.
fn set_up(
    args: &Args,
    key: &AnswerKey,
    bank: &Path,
    dir: &Path,
) -> Result<(Deployment, LoopResult)> {
    let w = args.workload;
    let tmp = args.work.join("tmp");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let primary = Node::start(
        &args.mine,
        &tmp,
        bank,
        &dir.join("primary"),
        &w.primary_flags(),
        &dir.join("primary.log"),
    )?;
    let follower = if w.follower {
        let repl = primary
            .repl_addr
            .clone()
            .ok_or("primary reported no replication address")?;
        Some(Node::start(
            &args.mine,
            &tmp,
            bank,
            &dir.join("follower"),
            &[vec!["--replica-of".to_string(), repl], w.node_flags()].concat(),
            &dir.join("follower.log"),
        )?)
    } else {
        None
    };
    let deployment = Deployment {
        primary,
        follower,
        bank: bank.to_path_buf(),
    };
    wait_until("the primary's /healthz", Duration::from_secs(20), || {
        matches!(get(&deployment.primary.addr, "/healthz"), Ok((200, _)))
    })?;
    if deployment.follower.is_some() {
        wait_until("the follower to attach", Duration::from_secs(20), || {
            get(&deployment.primary.addr, "/metrics")
                .is_ok_and(|(_, text)| prom(&text, "mine_repl_followers") >= 1.0)
        })?;
    }
    let preload = closed_loop(
        &deployment.primary.addr,
        key,
        args,
        0,
        Until::Sittings(w.preload),
        0,
        None,
    );
    if preload.failed > 0 || preload.finished != w.preload {
        return Err(format!(
            "set-up finished {} of {} sittings ({} failed call(s): {:?})",
            preload.finished, w.preload, preload.failed, preload.errors
        ));
    }
    Ok((deployment, preload))
}

fn mine_status(args: &Args, cmd: &[&str]) -> Result<bool> {
    let status = node::command(&args.mine, &args.work.join("tmp"))
        .args(cmd)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running mine {}: {e}", cmd.join(" ")))?;
    Ok(status.success())
}

fn class_size(body: &str) -> Option<u64> {
    let value: serde::Value = serde_json::from_str(body).ok()?;
    match value.get("summary")?.get("students")? {
        serde::Value::Number(serde::Number::PosInt(n)) => Some(*n),
        _ => None,
    }
}

fn run(args: &Args) -> Result<String> {
    let w = args.workload;
    let work = &args.work;
    if work.exists() {
        std::fs::remove_dir_all(work).map_err(|e| format!("clearing {}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(work.join("tmp"))
        .map_err(|e| format!("creating {}: {e}", work.display()))?;

    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc {} kernel {} {} commit {} data-dir filesystem {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
        args.rustc,
        args.commit,
        node::filesystem_of(work),
    );
    println!("# load closed loop, {CONNECTIONS} keep-alive connections, one load process");

    // The bank, calibrated by the CLI the way an operator would.
    let bank = work.join("bank.json");
    RepositorySnapshot::capture(&plan::build_bank(args.seed, w.questions))
        .save(&bank)
        .map_err(|e| format!("saving bank: {e}"))?;
    if !mine_status(
        args,
        &[
            "calibrate",
            bank.to_str().ok_or("non-UTF-8 path")?,
            "--auto",
        ],
    )? {
        return Err("mine calibrate --auto failed".into());
    }
    let key = AnswerKey::from_repository(&layers::load_bank(&bank)?);

    // Set-up, several times; the last deployment serves the timed phase.
    let mut setup_times = Vec::new();
    let mut deployment = None;
    let mut setup_ok = 0;
    for round in 0..w.setup_repeats {
        drop(deployment.take()); // kill the previous round's servers first
        let dir = work.join(format!("setup-{round}"));
        flush_dirty_pages();
        let begin = Instant::now();
        let (deployed, preload) = set_up(args, &key, &bank, &dir)?;
        setup_times.push(begin.elapsed().as_secs_f64());
        setup_ok = preload.ok;
        deployment = Some(deployed);
        if round + 1 < w.setup_repeats {
            let _ = std::fs::remove_dir_all(work.join(format!("setup-{round}")));
        }
    }
    let shown: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    println!("# set-up times (s): {}", shown.join(" "));
    let mut deployment = deployment.expect("at least one set-up");
    let base = w.preload;

    // The timed phase, starting with no earlier writes in flight.
    flush_dirty_pages();
    let addr = deployment.primary.addr.clone();
    let metrics_before = get(&addr, "/metrics")?.1;
    let head_before = head_seq(&addr)?;
    let (cpu_before, _) = deployment.usage(args.clk_tck)?;
    let host_before = host_cpu_ticks();
    let stop_watch = AtomicBool::new(false);
    let trace_epoch = Instant::now();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(args.seconds);
    let (phase, snapshots_seen) = std::thread::scope(|scope| {
        // Traced runs count the snapshots the primary writes by watching
        // its data directory for new snapshot files.
        let watcher = args.trace.then(|| {
            let dir = deployment.primary.dir.clone();
            let stop = &stop_watch;
            scope.spawn(move || {
                let mut seen = BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(entries) = std::fs::read_dir(&dir) {
                        seen.extend(
                            entries
                                .filter_map(std::result::Result::ok)
                                .map(|e| e.file_name().to_string_lossy().into_owned())
                                .filter(|n| n.starts_with("snapshot-") && n.ends_with(".snap")),
                        );
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                seen.len()
            })
        });
        let phase = closed_loop(
            &addr,
            &key,
            args,
            base,
            Until::Deadline(deadline),
            w.reads_per_sitting,
            args.trace.then_some((trace_epoch, phase_start)),
        );
        stop_watch.store(true, Ordering::Relaxed);
        (phase, watcher.map(|h| h.join().expect("watcher")))
    });
    let elapsed = phase
        .last_end
        .map_or(0.0, |end| end.duration_since(phase_start).as_secs_f64());
    let (cpu_after, _) = deployment.usage(args.clk_tck)?;
    let (steal, total) = {
        let after = host_cpu_ticks();
        (after.0 - host_before.0, after.1 - host_before.1)
    };
    println!(
        "# steal {:.1}% of CPU time during the timed phase (the hypervisor ran others)",
        100.0 * steal / total.max(1.0)
    );
    let metrics_after = get(&addr, "/metrics")?.1;
    let head_after = head_seq(&addr)?;

    // Reads of the final report, for workloads that send none while timed.
    let probe = (w.reads_per_sitting == 0).then(|| {
        let mut conn = HttpConn::new(&addr);
        let begin = Instant::now();
        for i in 0..READ_PROBE {
            let due = begin + PROBE_SPAN.mul_f64(i as f64 / READ_PROBE as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let _ = conn.call("GET", ANALYSIS, "", 200);
        }
        conn
    });
    let (_, peak_rss_mb) = deployment.usage(args.clk_tck)?;

    let mut failed = phase.failed;
    let mut attempted = setup_ok + phase.ok + phase.failed;
    let mut reads = phase.reads.clone();
    let mut traffic = phase.traffic.clone();
    let mut errors = phase.errors.clone();
    if let Some(conn) = &probe {
        reads.extend(&conn.reads);
        failed += conn.failed;
        attempted += conn.ok + conn.failed;
        traffic.merge(&conn.traffic);
        errors.extend(conn.last_error.clone());
    }
    let journaled_bytes = node::journal_bytes(&deployment.primary.dir);

    // Correctness checks, outside the timed phase.
    let mut checks: Vec<(String, bool)> = Vec::new();
    checks.push((
        format!("every response had its expected status ({failed} failed)"),
        failed == 0,
    ));
    let live = get(&addr, ANALYSIS)?.1;
    let batch = get(&addr, &format!("{ANALYSIS}?mode=batch"))?.1;
    checks.push((
        "streaming report == ?mode=batch report (bytes)".into(),
        live == batch,
    ));
    let class = class_size(&live);
    let expected_class = base + phase.finished;
    checks.push((
        format!(
            "class size {class:?} == preload {base} + acknowledged finishes {}",
            phase.finished
        ),
        class == Some(expected_class),
    ));
    if w.name == "exam-durable" {
        deployment.primary.kill();
        let dir = work.join(format!("setup-{}", w.setup_repeats - 1));
        let mut restarted = Node::start(
            &args.mine,
            &work.join("tmp"),
            &deployment.bank,
            &deployment.primary.dir,
            &w.primary_flags(),
            &dir.join("restart.log"),
        )?;
        let replayed = get(&restarted.addr, ANALYSIS)?.1;
        restarted.kill();
        checks.push((
            "after SIGKILL + restart, report == live report (bytes)".into(),
            replayed == live,
        ));
        let dir_arg = deployment.primary.dir.to_string_lossy().into_owned();
        checks.push((
            "mine audit <dir> exits 0".into(),
            mine_status(args, &["audit", &dir_arg])?,
        ));
    }
    let quorum_timeouts = prom(&metrics_after, "mine_repl_quorum_timeouts_total")
        - prom(&metrics_before, "mine_repl_quorum_timeouts_total");
    if let Some(follower) = &mut deployment.follower {
        let target = head_seq(&addr)?;
        let caught_up = wait_until("the follower to catch up", Duration::from_secs(30), || {
            head_seq(&follower.addr).is_ok_and(|seq| seq >= target)
        });
        let replica = get(&follower.addr, ANALYSIS)?.1;
        checks.push((
            "follower report == primary report (bytes)".into(),
            caught_up.is_ok() && replica == live,
        ));
        checks.push((
            format!("repl.quorum_timeouts == 0 (saw {quorum_timeouts})"),
            quorum_timeouts == 0.0,
        ));
        follower.kill();
        deployment.primary.kill();
        let (p, f, db) = (
            deployment.primary.dir.to_string_lossy().into_owned(),
            follower.dir.to_string_lossy().into_owned(),
            deployment.bank.to_string_lossy().into_owned(),
        );
        checks.push((
            "mine audit <primary> <follower> --db exits 0".into(),
            mine_status(args, &["audit", &p, &f, "--db", &db])?,
        ));
    }
    deployment.primary.kill();
    let correct = checks.iter().all(|(_, ok)| *ok);

    // Traffic record.
    println!(
        "# traffic: {} requests in {elapsed:.3} s timed, {} sittings finished, {} events journaled, final class size {}",
        phase.ok + phase.failed,
        phase.finished,
        head_after.saturating_sub(head_before),
        class.unwrap_or(0)
    );
    for (route, (n, req, resp)) in &traffic.routes {
        println!("#   {route:<30} requests {n:>7}  request bytes {req:>10}  response body bytes {resp:>11}");
    }
    for (name, ok) in &checks {
        println!("# check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for error in &errors {
        println!("# last error on a connection: {error}");
    }
    let error_ratio = failed as f64 / attempted.max(1) as f64;
    println!("# error_ratio {error_ratio} ratio ({failed} of {attempted})");

    let mut out = Metrics::default();
    let write = phase.writes.summary();
    let read = reads.summary();
    // Printed on every run, but too noisy on a shared host to gate
    // (README, "End-to-end metrics"); traced runs record them per layer.
    println!("# write_p99_ms {} ms (n={})", write.p99, write.n);
    println!("# read_p99_ms {} ms (n={})", read.p99, read.n);
    println!("# server_peak_rss_mb {peak_rss_mb} MB (primary VmHWM)");
    if !args.trace {
        let n = phase.ok as usize;
        out.push(
            "setup_s".into(),
            median(&setup_times),
            "s",
            setup_times.len(),
        );
        out.push("throughput_rps".into(), phase.ok as f64 / elapsed, "1/s", n);
        out.push(
            "sittings_per_s".into(),
            phase.finished as f64 / elapsed,
            "1/s",
            phase.finished as usize,
        );
        out.push("write_p50_ms".into(), write.p50, "ms", write.n);
        out.push("read_p50_ms".into(), read.p50, "ms", read.n);
        out.push(
            "server_cpu_us_per_req".into(),
            (cpu_after - cpu_before) * 1e6 / phase.ok as f64,
            "us",
            n,
        );
    } else {
        let inputs = layers::RunInputs {
            bank: &bank,
            key: &key,
            seed: args.seed,
            adaptive: w.adaptive,
            policy: w.policy(),
            snapshot_every: w.snapshot_every,
            base,
            phase_sittings: phase.started.clone(),
            reads_per_sitting: w.reads_per_sitting,
            probe_reads: if w.reads_per_sitting == 0 {
                REPLAY_PROBE_READS
            } else {
                0
            },
            scratch: work.join("layers"),
        };
        let mut tracer = Tracer::new(trace_epoch, 100);
        let medians = layers::measure(&inputs, &mut tracer, &mut out)?;
        out.push(
            "store.bytes_per_event".into(),
            journaled_bytes as f64 / head_after.max(1) as f64,
            "bytes",
            1,
        );
        out.push(
            "journal.snapshots".into(),
            snapshots_seen.unwrap_or(0) as f64,
            "count",
            1,
        );
        out.push(
            "serve.transport_us".into(),
            write.p50 * 1e3 - medians.handle_write,
            "us",
            write.n,
        );
        let mut scrub = Samples::default();
        for i in 0..5 {
            let (result, us) = tracer.time("scrub.pass", 0, i + 1, || {
                mine_store::scrub_dir(&deployment.primary.dir, None)
            });
            result.map_err(|e| format!("scrub: {e}"))?;
            scrub.push(us / 1e3);
        }
        let s = scrub.summary();
        out.push("scrub.pass_ms.p50".into(), s.p50, "ms", s.n);
        out.push("scrub.pass_ms.p99".into(), s.p99, "ms", s.n);
        let passes = prom(&metrics_after, "mine_scrub_passes_total")
            - prom(&metrics_before, "mine_scrub_passes_total");
        out.push("scrub.passes".into(), passes, "count", 1);
        out.push(
            "share.fsync_of_write_p50".into(),
            medians.fsync / (write.p50 * 1e3),
            "ratio",
            write.n,
        );
        // The report layers are timed at the final class size; so are
        // the probe's reads, and the last reads of the timed phase.
        let final_read = probe
            .as_ref()
            .map_or(&phase.final_reads, |conn| &conn.reads)
            .summary();
        out.push(
            "share.serialize_of_read_p50".into(),
            medians.serialize / (final_read.p50 * 1e3),
            "ratio",
            final_read.n,
        );
        let slices = |odd: bool| -> f64 {
            // Time covered by traced (odd) or untraced (even) slices.
            let slice = TRACE_SLICE.as_secs_f64();
            let mut total = 0.0;
            let mut k = 0;
            while (k as f64) * slice < elapsed {
                if (k % 2 == 1) == odd {
                    total += (elapsed - k as f64 * slice).min(slice);
                }
                k += 1;
            }
            total
        };
        out.push("client.write_p99_ms".into(), write.p99, "ms", write.n);
        out.push("client.read_p99_ms".into(), read.p99, "ms", read.n);
        out.push("serve.peak_rss_mb".into(), peak_rss_mb, "MB", 1);
        out.push(
            "tracing.traced_rps".into(),
            phase.traced_requests as f64 / slices(true),
            "1/s",
            phase.traced_requests as usize,
        );
        out.push(
            "tracing.untraced_rps".into(),
            phase.untraced_requests as f64 / slices(false),
            "1/s",
            phase.untraced_requests as usize,
        );
        out.note(format!(
            "repl.quorum_timeouts {quorum_timeouts} count (served, /metrics delta)"
        ));
        out.note(format!(
            "router.handle_read_us.p50 {:.1} of client read p50 {:.1} us",
            medians.handle_read,
            read.p50 * 1e3
        ));

        let mut spans = phase.spans.clone();
        spans.extend(tracer.spans);
        trace::write_jsonl(&work.join("spans.jsonl"), &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "# self time per span (count, total ms, self ms); spans in {}",
            work.join("spans.jsonl").display()
        );
        for (name, (count, total_us, self_us)) in trace::self_times(&spans) {
            println!(
                "#   {name:<24} {count:>8} {:>12.3} {:>12.3}",
                total_us / 1e3,
                self_us / 1e3
            );
        }
    }
    for (name, value, unit, n) in &out.items {
        println!("# {name} {value} {unit} (n={n})");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let mut bad = Vec::new();
    for (name, value, _, _) in &mut out.items {
        if !value.is_finite() {
            bad.push(name.clone());
            *value = 0.0;
        }
    }
    for name in &bad {
        println!("# check FAILED: metric {name} has no samples");
    }
    let correct = correct && bad.is_empty();
    // The run's data directories are large and useless once checked.
    for round in 0..w.setup_repeats {
        let _ = std::fs::remove_dir_all(work.join(format!("setup-{round}")));
    }
    let _ = std::fs::remove_dir_all(work.join("layers"));
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        out.json()
    ))
}

/// Writes back dirty pages (`sync`), so the disk traffic of an earlier
/// set-up or run does not land in the next timed stretch.
fn flush_dirty_pages() {
    let _ = std::process::Command::new("sync").status();
}

/// (steal, total) CPU ticks of the whole host from `/proc/stat`.
fn host_cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}
