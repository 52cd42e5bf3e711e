//! Perf: the pooled batch analysis engine vs the frozen naive pipeline.
//!
//! Workload: many sittings of a 50-question exam by 200-student
//! cohorts, all through the full §4 pipeline. `sequential` runs
//! [`mine_bench::baseline::analyze_naive`] exam by exam on one thread —
//! the scan-everything pre-pool pipeline, frozen in this crate and
//! pinned byte-identical to the live analyzer by its oracle test, so
//! the comparison stays honest as the hot path keeps evolving.
//! `batch/Nt` runs the same jobs through `BatchAnalyzer` on the
//! work-stealing pool with an N-thread budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_bench::baseline::analyze_naive;
use mine_bench::{criterion_config, standard_problems, standard_record};
use mine_core::ExamRecord;
use mine_itembank::Problem;

const QUESTIONS: usize = 50;
const CLASS: usize = 200;

fn workload(exams: usize) -> Vec<ExamRecord> {
    (0..exams)
        .map(|i| standard_record(QUESTIONS, CLASS, 1000 + i as u64))
        .collect()
}

/// The baseline: every exam and every question on a single thread,
/// through the frozen scan-everything pipeline the pool replaced.
fn sequential(records: &[ExamRecord], problems: &[Problem]) -> usize {
    let config = AnalysisConfig::default();
    records
        .iter()
        .map(|record| {
            analyze_naive(record, problems, &config)
                .unwrap()
                .questions
                .len()
        })
        .sum()
}

fn bench(c: &mut Criterion) {
    let problems = standard_problems(QUESTIONS);

    println!("=== Batch analysis: {QUESTIONS} questions x {CLASS} students per exam ===");
    let mut group = c.benchmark_group("batch_analysis");
    for exams in [10usize, 100, 1000] {
        let records = workload(exams);
        group.throughput(Throughput::Elements(exams as u64));
        group.bench_with_input(
            BenchmarkId::new("sequential", exams),
            &records,
            |b, records| b.iter(|| sequential(records, &problems)),
        );
        for threads in [1usize, 2, 4, 8] {
            let analyzer = BatchAnalyzer::new(AnalysisConfig::default()).with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("batch/{threads}t"), exams),
                &records,
                |b, records| {
                    b.iter(|| {
                        analyzer
                            .analyze_records(records, &problems)
                            .unwrap()
                            .summary
                            .questions
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Single-thread iterations at 1000 exams run tens of seconds;
    // three samples keep the full sweep affordable.
    config = criterion_config().sample_size(3);
    targets = bench
}
criterion_main!(benches);
