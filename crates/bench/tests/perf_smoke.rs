//! Perf gate: the pooled analyzer must beat the frozen naive baseline
//! by a healthy margin on a realistic batch, or the hot-path work has
//! regressed. Set `MINE_SKIP_PERF_SMOKE=1` to skip (e.g. on heavily
//! loaded or instrumented machines where wall time means nothing).

use std::time::Instant;

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_bench::baseline::analyze_naive;
use mine_bench::{standard_problems, standard_record};

#[test]
fn pooled_4t_beats_the_naive_baseline() {
    if std::env::var("MINE_SKIP_PERF_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        eprintln!("perf smoke skipped via MINE_SKIP_PERF_SMOKE");
        return;
    }
    // 100 sittings, scaled down from the full bench workload so the
    // smoke stays in test-suite territory (~a second, not a minute).
    const QUESTIONS: usize = 30;
    const CLASS: usize = 100;
    let problems = standard_problems(QUESTIONS);
    let records: Vec<_> = (0..100)
        .map(|i| standard_record(QUESTIONS, CLASS, 1000 + i as u64))
        .collect();
    let config = AnalysisConfig::default();
    let analyzer = BatchAnalyzer::new(config).with_threads(4);

    // Best of three per arm: the minimum is the least noisy estimator
    // of the true cost on a machine that might be doing other things.
    let mut naive_ns = u128::MAX;
    let mut pooled_ns = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let questions: usize = records
            .iter()
            .map(|r| {
                analyze_naive(r, &problems, &config)
                    .unwrap()
                    .questions
                    .len()
            })
            .sum();
        naive_ns = naive_ns.min(start.elapsed().as_nanos());
        assert_eq!(questions, 100 * QUESTIONS);

        let start = Instant::now();
        let report = analyzer.analyze_records(&records, &problems).unwrap();
        pooled_ns = pooled_ns.min(start.elapsed().as_nanos());
        assert_eq!(report.summary.exams, 100);
    }

    let speedup = naive_ns as f64 / pooled_ns as f64;
    assert!(
        speedup >= 1.5,
        "pooled 4-thread batch must be >=1.5x the frozen naive baseline on 100 sittings, \
         got {speedup:.2}x (naive {:.1} ms, pooled {:.1} ms)",
        naive_ns as f64 / 1e6,
        pooled_ns as f64 / 1e6,
    );
    eprintln!(
        "perf smoke: pooled 4t is {speedup:.2}x the naive baseline \
         (naive {:.1} ms, pooled {:.1} ms)",
        naive_ns as f64 / 1e6,
        pooled_ns as f64 / 1e6,
    );
}
