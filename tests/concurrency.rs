//! Concurrency stress: many actors and learners hit one shared
//! authoring system from threads — the §5 picture of authors,
//! instructors, tutors, learners, and an administrator working at once.

use std::time::Duration;

use mine_assessment::authoring::AuthoringSystem;
use mine_assessment::core::{Answer, OptionKey};
use mine_assessment::delivery::{DeliveryOptions, MonitorEvent};
use mine_assessment::itembank::{ChoiceOption, Exam, Problem, Query};

fn seed_system() -> AuthoringSystem {
    let system = AuthoringSystem::new();
    for i in 0..10 {
        system
            .author_problem(
                "seed",
                Problem::multiple_choice(
                    format!("q{i}"),
                    format!("Question {i}"),
                    OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                    OptionKey::A,
                )
                .unwrap()
                .with_subject("shared"),
            )
            .unwrap();
    }
    let mut builder = Exam::builder("shared-exam").unwrap();
    for i in 0..10 {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    system
        .author_exam("seed", builder.build().unwrap())
        .unwrap();
    system
}

#[test]
fn authors_learners_and_searchers_run_concurrently() {
    let system = seed_system();
    let mut handles = Vec::new();

    // 4 authors add problems.
    for author in 0..4 {
        let system = system.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                system
                    .author_problem(
                        &format!("author{author}"),
                        Problem::true_false(
                            format!("a{author}-p{i}"),
                            format!("Statement {i} from author {author}"),
                            i % 2 == 0,
                        )
                        .unwrap(),
                    )
                    .unwrap();
            }
        }));
    }

    // 4 learners sit the shared exam concurrently.
    for learner in 0..4 {
        let system = system.clone();
        handles.push(std::thread::spawn(move || {
            let (mut session, mut monitor) = system
                .deliver(
                    &"shared-exam".parse().unwrap(),
                    format!("learner{learner}").parse().unwrap(),
                    DeliveryOptions {
                        seed: learner,
                        resumable: true,
                        time_accommodation: 1.0,
                    },
                )
                .unwrap();
            while session.current().is_some() {
                session
                    .answer(Answer::Choice(OptionKey::A), Duration::from_secs(10))
                    .unwrap();
                monitor.on_answer(session.elapsed());
            }
            let record = session.finish().unwrap();
            monitor.on_finish(record.attempted_count(), record.total_time);
            assert_eq!(record.correct_count(), 10);
        }));
    }

    // 2 tutors search while everything churns.
    for _ in 0..2 {
        let system = system.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let _ = system.search_problems(&Query::text("statement"));
                let _ = system.search_problems(&Query::builder().subject("shared").build());
            }
        }));
    }

    for handle in handles {
        handle.join().unwrap();
    }

    // Everything landed: 10 seed + 100 authored problems.
    assert_eq!(system.repository().problem_count(), 110);
    // Audit saw every mutating action exactly once: 10 + 1 + 100.
    assert_eq!(system.audit().len(), 111);
    // The monitor hub collected all four learners' lifecycles.
    let events = system.monitor_hub().drain();
    let finishes = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::SessionFinished { .. }))
        .count();
    assert_eq!(finishes, 4);
    // Search index reflects the final state.
    assert_eq!(system.search_problems(&Query::text("statement")).len(), 100);
}

#[test]
fn concurrent_edits_to_one_problem_serialize_cleanly() {
    let system = seed_system();
    let id: mine_assessment::core::ProblemId = "q0".parse().unwrap();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let system = system.clone();
            let id = id.clone();
            std::thread::spawn(move || {
                for i in 0..20 {
                    system
                        .edit_problem(&format!("editor{t}"), &id, |p| {
                            p.set_subject(format!("subject-{t}-{i}"));
                            Ok(())
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // 160 edits + initial insert → version 161; no update lost.
    assert_eq!(system.repository().problem_version(&id).unwrap(), 161);
}

#[test]
fn shared_batch_analyzer_survives_hammering_from_many_threads() {
    use mine_assessment::analysis::{AnalysisConfig, BatchAnalyzer, ExamAnalysis};
    use mine_assessment::simulator::{CohortSpec, Simulation};
    use std::sync::Arc;

    let problems: Vec<Problem> = (0..6)
        .map(|i| {
            Problem::multiple_choice(
                format!("q{i}"),
                format!("Question {i}"),
                OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::A,
            )
            .unwrap()
        })
        .collect();
    let mut builder = Exam::builder("hammer").unwrap();
    for i in 0..6 {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    let exam = builder.build().unwrap();
    // 6 distinct sittings analyzed through one shared analyzer, with
    // every thread cycling through all of them.
    let records: Vec<_> = (0..6)
        .map(|seed| {
            Simulation::new(exam.clone(), problems.clone())
                .cohort(CohortSpec::new(20).seed(seed))
                .run()
                .unwrap()
        })
        .collect();
    let expected: Vec<_> = records
        .iter()
        .map(|r| ExamAnalysis::analyze(r, &problems, &AnalysisConfig::default()).unwrap())
        .collect();

    let analyzer = Arc::new(BatchAnalyzer::new(AnalysisConfig::default()));
    let problems = Arc::new(problems);
    let records = Arc::new(records);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let analyzer = Arc::clone(&analyzer);
            let problems = Arc::clone(&problems);
            let records = Arc::clone(&records);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..15 {
                    let i = (t + round) % records.len();
                    let analysis = analyzer.analyze_one(&records[i], &problems).unwrap();
                    assert_eq!(analysis, expected[i], "thread {t} round {round}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}
