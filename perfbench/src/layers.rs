//! The traced run's per-layer timings: each layer's public function is
//! called in-process with the inputs the workload sent (its sittings,
//! replayed through `Router::handle`, and the WAL payloads that replay
//! journals), one span per call.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mine_adaptive::AdaptiveOptions;
use mine_analysis::AnalysisConfig;
use mine_itembank::{Repository, RepositorySnapshot};
use mine_server::http::{parse_request, Response};
use mine_server::{
    decode_events, open_journaled_state, start_follower, AckMode, AdaptiveSitting, AnswerKey,
    ReplListener, ReplState, Role, Router, ServerImage,
};
use mine_store::{EventStore, StoreOptions, SyncPolicy};
use mine_streamstats::StreamEngine;

use crate::node::{prom, wait_until, Result};
use crate::plan::{self, sitting_plan, EXAM};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::transport::InProc;
use crate::Metrics;

/// Caps that bound the traced run's in-process work.
const MAX_APPENDS: usize = 20_000;
const MAX_FSYNCS: usize = 500;
const MAX_PUBLISHES: usize = 2_000;
const MAX_PARSES: usize = 5_000;
const MAX_CAT_SITTINGS: usize = 300;
const REPORT_REPEATS: usize = 30;
const SNAPSHOT_REPEATS: usize = 5;
/// Wall-clock budget for replaying the timed phase through the router.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

/// What the HTTP run did, as the layer replay needs it.
pub struct RunInputs<'a> {
    pub bank: &'a Path,
    pub key: &'a AnswerKey,
    pub seed: u64,
    pub adaptive: bool,
    pub policy: SyncPolicy,
    pub snapshot_every: u64,
    /// Sittings set up before the timed phase (indices `0..base`).
    pub base: u64,
    /// Sitting indices the timed phase started, in order.
    pub phase_sittings: Vec<u64>,
    /// Analysis reads after each phase sitting (report-read).
    pub reads_per_sitting: usize,
    /// Reads after the phase (the other workloads' read probe).
    pub probe_reads: usize,
    pub scratch: PathBuf,
}

pub fn load_bank(path: &Path) -> Result<Repository> {
    RepositorySnapshot::load(path)
        .map_err(|e| format!("loading bank: {e}"))?
        .restore()
        .map_err(|e| format!("restoring bank: {e}"))
}

fn journaled_router(
    bank: &Path,
    dir: &Path,
    policy: SyncPolicy,
    snapshot_every: u64,
) -> Result<Router> {
    let options = StoreOptions {
        sync: policy,
        ..StoreOptions::default()
    };
    let (state, _) = open_journaled_state(load_bank(bank)?, dir, options, snapshot_every)?;
    Ok(Router::with_state(state))
}

fn summary_into(out: &mut Metrics, name: &str, unit: &'static str, samples: &Samples) {
    let s = samples.summary();
    out.push(format!("{name}.p50"), s.p50, unit, s.n);
    out.push(format!("{name}.p99"), s.p99, unit, s.n);
}

fn replay_sitting(t: &mut InProc, inputs: &RunInputs<'_>, index: u64) -> bool {
    let plan = sitting_plan(inputs.seed, index);
    if inputs.adaptive {
        plan::cat_sitting(t, inputs.key, &plan)
    } else {
        plan::fixed_sitting(t, inputs.key, &plan)
    }
}

fn read(t: &mut InProc) {
    use crate::plan::Transport;
    let _ = t.call("GET", &format!("/exams/{EXAM}/analysis"), "", 200);
}

/// Medians the end-to-end shares are computed from, in µs.
pub struct Medians {
    pub fsync: f64,
    pub serialize: f64,
    pub handle_write: f64,
    pub handle_read: f64,
}

/// Runs every layer measurement into `out`.
pub fn measure(inputs: &RunInputs<'_>, tracer: &mut Tracer, out: &mut Metrics) -> Result<Medians> {
    let scratch = &inputs.scratch;
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;

    // The corpus: every sitting journaled with no fsync and no
    // compaction, so the log holds the run's complete event history.
    let phase = tracer.reserve();
    let phase_start = Instant::now();
    let corpus_dir = scratch.join("corpus");
    let mut corpus = InProc::new(journaled_router(
        inputs.bank,
        &corpus_dir,
        SyncPolicy::Never,
        0,
    )?);
    for index in 0..inputs.base {
        replay_sitting(&mut corpus, inputs, index);
    }
    // The router replay below starts from this preloaded log (replaying
    // the preload under the served compaction cadence would cost as much
    // as the set-up itself).
    let preloaded = scratch.join("replay");
    copy_dir(&corpus_dir, &preloaded)?;
    corpus.log_cap = MAX_PARSES;
    for &index in &inputs.phase_sittings {
        replay_sitting(&mut corpus, inputs, index);
    }
    if corpus.failed > 0 {
        return Err(format!(
            "{} in-process replay call(s) failed",
            corpus.failed
        ));
    }
    tracer.record_as(phase, "replay.corpus", 0, 0, phase_start, Instant::now());
    let copy = scratch.join("corpus-copy");
    copy_dir(&corpus_dir, &copy)?;
    let (_, recovered) = EventStore::open(&copy, never()).map_err(|e| e.to_string())?;
    let payloads: Vec<Vec<u8>> = recovered.events.iter().map(|r| r.payload.clone()).collect();
    let events = decode_events(&recovered)?;

    // journal: event encoding.
    let parent = tracer.reserve();
    let start = Instant::now();
    let mut encode = Samples::default();
    for (seq, event) in events.iter().take(MAX_APPENDS) {
        let (_, us) = tracer.time("journal.encode", parent, *seq, || {
            std::hint::black_box(serde_json::to_string(std::hint::black_box(event)))
        });
        encode.push(us);
    }
    tracer.record_as(parent, "phase.encode", 0, 0, start, Instant::now());
    summary_into(out, "journal.encode_us", "us", &encode);

    // store: append without fsync, then fsync after each append.
    let parent = tracer.reserve();
    let start = Instant::now();
    let (store, _) =
        EventStore::open(scratch.join("append"), never()).map_err(|e| e.to_string())?;
    let mut append = Samples::default();
    for (i, payload) in payloads.iter().take(MAX_APPENDS).enumerate() {
        let (result, us) = tracer.time("store.append", parent, i as u64 + 1, || {
            store.append(payload)
        });
        result.map_err(|e| e.to_string())?;
        append.push(us);
    }
    let (store, _) = EventStore::open(scratch.join("fsync"), never()).map_err(|e| e.to_string())?;
    let mut fsync = Samples::default();
    for (i, payload) in payloads.iter().take(MAX_FSYNCS).enumerate() {
        store.append(payload).map_err(|e| e.to_string())?;
        let (result, us) = tracer.time("store.fsync", parent, i as u64 + 1, || store.sync());
        result.map_err(|e| e.to_string())?;
        fsync.push(us);
    }
    tracer.record_as(parent, "phase.store", 0, 0, start, Instant::now());
    let append_p50 = append.summary().p50;
    let fsync_p50 = fsync.summary().p50;
    summary_into(out, "store.append_us", "us", &append);
    summary_into(out, "store.fsync_us", "us", &fsync);

    // journal: a compacting snapshot of the end state.
    let parent = tracer.reserve();
    let start = Instant::now();
    let state = corpus.router.state();
    let journal = state.journal.as_ref().expect("journaled replay");
    let mut snapshot = Samples::default();
    for i in 0..SNAPSHOT_REPEATS {
        let (result, us) = tracer.time("journal.snapshot", parent, i as u64 + 1, || {
            let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
            journal.write_snapshot(&image)
        });
        result.map_err(|e| e.to_string())?;
        snapshot.push(us / 1e3);
    }
    tracer.record_as(parent, "phase.snapshot", 0, 0, start, Instant::now());
    summary_into(out, "journal.snapshot_ms", "ms", &snapshot);

    // streamstats, serialization and response writing of the report.
    let parent = tracer.reserve();
    let start = Instant::now();
    let records = state.finished.records(EXAM);
    let engine = StreamEngine::new(AnalysisConfig::default());
    let mut apply = Samples::default();
    for (i, record) in records.iter().enumerate() {
        let (_, us) = tracer.time("streamstats.apply", parent, i as u64 + 1, || {
            engine.with_exam(EXAM, |stream| stream.apply(record));
        });
        apply.push(us);
    }
    let (_, problems) = state
        .repository
        .resolve_exam(&EXAM.parse().expect("exam id"))
        .map_err(|e| e.to_string())?;
    let (mut report_t, mut serialize_t, mut write_t) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut body_bytes = 0;
    for i in 0..REPORT_REPEATS as u64 {
        let (report, us) = tracer.time("streamstats.report", parent, i + 1, || {
            engine.report(EXAM, &problems)
        });
        let report = report.map_err(|e| format!("streaming report: {e:?}"))?;
        report_t.push(us);
        let (body, us) = tracer.time("serialize.report", parent, i + 1, || {
            serde_json::to_string(&report)
        });
        let body = body.map_err(|e| e.to_string())?;
        serialize_t.push(us);
        body_bytes = body.len();
        let response = Response::json(200, body);
        let mut wire = Vec::with_capacity(body_bytes + 256);
        let (result, us) = tracer.time("http.write", parent, i + 1, || {
            response.write_to(&mut wire, true)
        });
        result.map_err(|e| e.to_string())?;
        write_t.push(us);
    }
    tracer.record_as(parent, "phase.report", 0, 0, start, Instant::now());
    summary_into(out, "streamstats.apply_us", "us", &apply);
    summary_into(out, "streamstats.report_us", "us", &report_t);
    let serialize_p50 = serialize_t.summary().p50;
    summary_into(out, "serialize.report_us", "us", &serialize_t);
    out.push(
        "serialize.report_bytes".into(),
        body_bytes as f64,
        "bytes",
        REPORT_REPEATS,
    );
    summary_into(out, "http.write_us", "us", &write_t);

    // http: parsing the timed phase's request bytes.
    let parent = tracer.reserve();
    let start = Instant::now();
    let mut parse = Samples::default();
    for (i, bytes) in corpus.log.iter().enumerate() {
        let (parsed, us) = tracer.time("http.parse", parent, i as u64 + 1, || {
            parse_request(&mut std::io::BufReader::new(&bytes[..]))
        });
        if !matches!(parsed, Ok(Some(_))) {
            return Err(format!("request {i} failed to parse"));
        }
        parse.push(us);
    }
    tracer.record_as(parent, "phase.parse", 0, 0, start, Instant::now());
    summary_into(out, "http.parse_us", "us", &parse);
    drop(corpus);

    // router: the run's requests through Router::handle on a journaled
    // state with the served policy (inline compaction included).
    let parent = tracer.reserve();
    let start = Instant::now();
    let mut replay = InProc::new(journaled_router(
        inputs.bank,
        &preloaded,
        inputs.policy,
        inputs.snapshot_every,
    )?);
    replay.tracer = Some((tracer.fork(7), parent));
    let budget = Instant::now() + REPLAY_BUDGET;
    for &index in &inputs.phase_sittings {
        if Instant::now() > budget {
            break;
        }
        replay_sitting(&mut replay, inputs, index);
        for _ in 0..inputs.reads_per_sitting {
            read(&mut replay);
        }
    }
    for _ in 0..inputs.probe_reads {
        read(&mut replay);
    }
    if replay.failed > 0 {
        return Err(format!("{} router replay call(s) failed", replay.failed));
    }
    if let Some((inner, _)) = replay.tracer.take() {
        tracer.spans.extend(inner.spans);
    }
    tracer.record_as(parent, "phase.router", 0, 0, start, Instant::now());
    let handle_write_p50 = replay.writes.summary().p50;
    let handle_read_p50 = replay.reads.summary().p50;
    summary_into(out, "router.handle_write_us", "us", &replay.writes);
    summary_into(out, "router.handle_read_us", "us", &replay.reads);
    drop(replay);

    // adaptive: the estimator step. Workloads without CAT sittings run
    // the same seeded CAT plans over their own (calibrated) bank.
    let parent = tracer.reserve();
    let start = Instant::now();
    let bank = load_bank(inputs.bank)?;
    let (exam, items) = bank
        .resolve_exam(&EXAM.parse().expect("exam id"))
        .map_err(|e| e.to_string())?;
    let cat_indices: Vec<u64> = if inputs.adaptive {
        inputs.phase_sittings.clone()
    } else {
        (0..MAX_CAT_SITTINGS as u64).collect()
    };
    let mut step = Samples::default();
    for &index in cat_indices.iter().take(MAX_CAT_SITTINGS) {
        let plan = sitting_plan(inputs.seed, index);
        let options = AdaptiveOptions {
            seed: plan.session_seed,
            ..AdaptiveOptions::for_bank(items.len())
        };
        let mut sitting = AdaptiveSitting::start(
            exam.id().clone(),
            items.clone(),
            plan.student.parse().map_err(|e| format!("{e}"))?,
            options,
        )
        .map_err(|e| format!("adaptive start: {e:?}"))?;
        let mut rng = StdRng::seed_from_u64(plan.rng_seed);
        while let Some((item, _)) = sitting.current() {
            let (answer, secs) = plan::respond(inputs.key, &mut rng, plan.theta, item.as_str())
                .ok_or("no answer key for a served item")?;
            let (result, us) = tracer.time("adaptive.step", parent, index, || {
                sitting.answer(answer, Duration::from_secs_f64(secs))
            });
            result.map_err(|e| format!("adaptive answer: {e:?}"))?;
            step.push(us);
        }
    }
    tracer.record_as(parent, "phase.adaptive", 0, 0, start, Instant::now());
    summary_into(out, "adaptive.step_us", "us", &step);

    // repl: append-and-publish to one in-process follower, ack=quorum.
    let parent = tracer.reserve();
    let start = Instant::now();
    let (publish, timeouts) = publish_to_follower(inputs.bank, scratch, &payloads, tracer, parent)?;
    tracer.record_as(parent, "phase.repl", 0, 0, start, Instant::now());
    let publish_p50 = publish.summary().p50;
    summary_into(out, "repl.publish_us", "us", &publish);
    out.push(
        "repl.ack_wait_us".into(),
        publish_p50 - append_p50,
        "us",
        publish.len(),
    );
    out.note(format!("in-process repl quorum timeouts: {timeouts}"));
    if timeouts > 0.0 {
        return Err(format!("{timeouts} in-process quorum wait(s) timed out"));
    }

    Ok(Medians {
        fsync: fsync_p50,
        serialize: serialize_p50,
        handle_write: handle_write_p50,
        handle_read: handle_read_p50,
    })
}

fn never() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Never,
        ..StoreOptions::default()
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Times `ReplState::append_and_publish` for the first payloads of the
/// run against a follower started with `start_follower`, both journaled
/// without fsync. Returns the timings and the primary's quorum timeouts.
fn publish_to_follower(
    bank: &Path,
    scratch: &Path,
    payloads: &[Vec<u8>],
    tracer: &mut Tracer,
    parent: u64,
) -> Result<(Samples, f64)> {
    let open = |dir: &str, role: Role| -> Result<Router> {
        let (mut state, _) = open_journaled_state(load_bank(bank)?, scratch.join(dir), never(), 0)?;
        state.repl = Some(Arc::new(ReplState::new(role, AckMode::Quorum)));
        Ok(Router::with_state(state))
    };
    let primary = open("repl-primary", Role::Primary)?;
    let follower = open("repl-follower", Role::Follower)?;
    let listener =
        ReplListener::start("127.0.0.1:0", primary.clone()).map_err(|e| e.to_string())?;
    let puller = start_follower(listener.local_addr().to_string(), follower.clone());
    let repl = primary.state().repl.as_ref().expect("set above");
    let attached = wait_until("the in-process follower", Duration::from_secs(10), || {
        repl.hub().count() > 0
    });
    let mut samples = Samples::default();
    if attached.is_ok() {
        let journal = primary.state().journal.as_ref().expect("journaled");
        for (i, payload) in payloads.iter().take(MAX_PUBLISHES).enumerate() {
            let (result, us) = tracer.time("repl.publish", parent, i as u64 + 1, || {
                repl.append_and_publish(journal, payload, &primary.state().metrics)
            });
            result.map_err(|e| e.to_string())?;
            samples.push(us);
        }
    }
    follower
        .state()
        .repl
        .as_ref()
        .expect("set above")
        .stop_puller();
    puller.join();
    listener.shutdown();
    attached?;
    let exposition = primary.state().metrics.snapshot(0, 0).to_prometheus();
    Ok((
        samples,
        prom(&exposition, "mine_repl_quorum_timeouts_total"),
    ))
}
