//! Perf gate for the streaming engine: at 1000 sittings a report read
//! assembled from the engine's counters must beat a cold batch
//! recompute by a wide margin, the per-finish update must stay well
//! under a millisecond at the tail, and writing the report straight to
//! JSON must beat building and rendering its `Value` tree. The first
//! two thresholds are set far below the measured numbers (see
//! `BENCH_streaming_analysis.json`) so the gate catches structural
//! regressions — an accidental O(n) scan on the read path, a rebuild
//! inside `apply` — without flaking on noisy machines. The writer bar
//! (2x) has less headroom: the report is mostly floats, whose
//! formatting both paths share, so what the writer saves is the tree's
//! allocation; it catches `to_string` falling back to a tree. Set
//! `MINE_SKIP_PERF_SMOKE=1` to skip.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_bench::{standard_problems, standard_record};
use mine_core::ExamRecord;
use mine_itembank::Problem;
use mine_streamstats::ExamStream;

const QUESTIONS: usize = 50;
const CLASS: usize = 1000;

/// Both tests time wall clock; they take this lock so neither measures
/// while the other loads the machine.
static SERIAL: Mutex<()> = Mutex::new(());

fn skipped() -> bool {
    let skip = std::env::var("MINE_SKIP_PERF_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if skip {
        eprintln!("perf smoke skipped via MINE_SKIP_PERF_SMOKE");
    }
    skip
}

/// The 50-question workload at 1000 sittings, rows in `StudentId`
/// order like the server's finished store.
fn workload() -> (Vec<Problem>, ExamRecord) {
    let problems = standard_problems(QUESTIONS);
    let mut record = standard_record(QUESTIONS, CLASS, 4242);
    record.students.sort_by(|a, b| a.student.cmp(&b.student));
    (problems, record)
}

#[test]
fn streaming_read_beats_cold_batch_at_1000_sittings() {
    if skipped() {
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (problems, record) = workload();
    let config = AnalysisConfig::default();

    // Feed the engine the way the finish handler does, one sitting at
    // a time, keeping each call's latency for the tail bound.
    let mut stream = ExamStream::new(config);
    let mut update_ns: Vec<u64> = Vec::with_capacity(CLASS);
    for student in &record.students {
        let start = Instant::now();
        stream.apply(student);
        update_ns.push(start.elapsed().as_nanos() as u64);
    }
    update_ns.sort_unstable();
    let p99 = update_ns[(CLASS * 99).div_ceil(100) - 1];
    assert!(
        p99 < 2_000_000,
        "per-finish update p99 must stay under 2 ms (measured sub-50us in the committed \
         baseline), got {} ns",
        p99
    );

    // Best of three per arm, minimum as the least noisy estimator.
    let batch = BatchAnalyzer::new(config);
    let mut streaming_ns = u128::MAX;
    let mut cold_ns = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let report = stream.report(&problems).expect("streamable workload");
        streaming_ns = streaming_ns.min(start.elapsed().as_nanos());
        assert_eq!(report.summary.exams, 1);

        let start = Instant::now();
        let report = batch
            .analyze_records(std::slice::from_ref(&record), &problems)
            .expect("batch analyzes");
        cold_ns = cold_ns.min(start.elapsed().as_nanos());
        assert_eq!(report.summary.exams, 1);
    }

    let speedup = cold_ns as f64 / streaming_ns as f64;
    assert!(
        speedup >= 25.0,
        "streaming read must be >=25x a cold batch recompute at {CLASS} sittings \
         (the committed baseline shows >=100x), got {speedup:.1}x \
         (streaming {:.1} us, cold {:.1} us)",
        streaming_ns as f64 / 1e3,
        cold_ns as f64 / 1e3,
    );
}

#[test]
fn writing_the_report_beats_rendering_its_tree_at_1000_sittings() {
    if skipped() {
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (problems, record) = workload();
    let mut stream = ExamStream::new(AnalysisConfig::default());
    for student in &record.students {
        stream.apply(student);
    }
    let report = stream.report(&problems).expect("streamable workload");

    let direct = serde_json::to_string(&report).unwrap();
    let via_tree = serde_json::to_string(&serde_json::to_value(&report).unwrap()).unwrap();
    assert_eq!(direct, via_tree, "the writer must render the tree's bytes");

    // Best of eleven per arm, the arms interleaved so both see the same
    // machine noise; minimum as the least noisy estimator.
    let mut direct_ns = u128::MAX;
    let mut tree_ns = u128::MAX;
    for _ in 0..11 {
        let start = Instant::now();
        std::hint::black_box(serde_json::to_string(&report).unwrap());
        direct_ns = direct_ns.min(start.elapsed().as_nanos());

        // The tree is a temporary of this one statement, so its drop
        // is timed too: that is the full price of the old path.
        let start = Instant::now();
        std::hint::black_box(
            serde_json::to_string(&serde_json::to_value(&report).unwrap()).unwrap(),
        );
        tree_ns = tree_ns.min(start.elapsed().as_nanos());
    }
    let speedup = tree_ns as f64 / direct_ns as f64;
    assert!(
        speedup >= 2.0,
        "to_string(&report) must be >=2x to_string(&report.to_value()) at {CLASS} sittings \
         (measured 2.3x in the test build, 2.4-2.8x optimised), got {speedup:.1}x \
         (direct {:.1} us, tree {:.1} us)",
        direct_ns as f64 / 1e3,
        tree_ns as f64 / 1e3,
    );
}
