//! Pooled analysis must be byte-for-byte identical to a sequential run,
//! whatever thread budget the batch is given.
//!
//! The scheduler writes each question's result into a pre-sized slot by
//! input index, so scheduling order must never leak into the report.
//! These properties pin that down across thread counts, random exam
//! shapes, and per-question costs skewed by wildly different option
//! counts (which is what makes chunks finish out of order).

use proptest::prelude::*;

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{CognitionLevel, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem};
use mine_simulator::{CohortSpec, Simulation};

/// Questions whose per-question analysis cost is deliberately skewed:
/// option counts cycle 2..=6, so option-matrix work differs per item.
fn skewed_problems(n_questions: usize) -> Vec<Problem> {
    (0..n_questions)
        .map(|i| {
            let n_options = 2 + i % 5;
            Problem::multiple_choice(
                format!("q{i}"),
                format!("Question {i}"),
                OptionKey::first(n_options).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::A,
            )
            .unwrap()
            .with_subject(format!("subject{}", i % 3))
            .with_cognition_level(CognitionLevel::ALL[i % 6])
        })
        .collect()
}

fn exam(n_questions: usize) -> Exam {
    let mut builder = Exam::builder("pool-exam").unwrap();
    for i in 0..n_questions {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    builder.build().unwrap()
}

fn analyzer(threads: usize) -> BatchAnalyzer {
    BatchAnalyzer::new(AnalysisConfig::default()).with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One analyzer per thread count, identical serialized reports.
    #[test]
    fn pooled_analysis_is_byte_identical_across_thread_counts(
        class in 8usize..48,
        n_questions in 2usize..12,
        cohorts in 1usize..4,
        seed in 0u64..1000,
    ) {
        let problems = skewed_problems(n_questions);
        let records: Vec<_> = (0..cohorts)
            .map(|i| {
                Simulation::new(exam(n_questions), problems.clone())
                    .cohort(CohortSpec::new(class).seed(seed.wrapping_add(i as u64)))
                    .run()
                    .unwrap()
            })
            .collect();

        let reference = serde_json::to_string(
            &analyzer(1).analyze_records(&records, &problems).unwrap(),
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let pooled = serde_json::to_string(
                &analyzer(threads).analyze_records(&records, &problems).unwrap(),
            )
            .unwrap();
            prop_assert!(
                pooled == reference,
                "report differs between 1 and {} threads", threads
            );
        }
    }

    /// Repeating the same pooled run is stable with itself — scheduling
    /// noise between runs never reaches the report.
    #[test]
    fn pooled_analysis_is_stable_across_runs(
        class in 8usize..32,
        n_questions in 2usize..10,
        seed in 0u64..1000,
    ) {
        let problems = skewed_problems(n_questions);
        let record = Simulation::new(exam(n_questions), problems.clone())
            .cohort(CohortSpec::new(class).seed(seed))
            .run()
            .unwrap();
        let records = vec![record];
        let first = serde_json::to_string(
            &analyzer(8).analyze_records(&records, &problems).unwrap(),
        )
        .unwrap();
        for _ in 0..3 {
            let again = serde_json::to_string(
                &analyzer(8).analyze_records(&records, &problems).unwrap(),
            )
            .unwrap();
            prop_assert!(again == first, "pooled rerun diverged");
        }
    }
}
