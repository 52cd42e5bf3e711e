//! Byte identity of the two serialization paths: for every type the
//! server writes — analysis reports (streaming and batch), the
//! `?indices=alt` body, journaled `SessionEvent`s and the snapshot
//! `ServerImage` — `serde_json::to_string(&x)`, which writes JSON
//! straight from the typed value, must equal rendering the `Value` tree
//! `x.to_value()`. The WAL, snapshot and response bytes are therefore
//! unchanged by which path produced them.

use std::time::Duration;

use proptest::prelude::*;
use serde::{Serialize, Value};

use mine_adaptive::AdaptiveOptions;
use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{Answer, CognitionLevel, ExamId, OptionKey, StudentId};
use mine_delivery::DeliveryOptions;
use mine_itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_server::http::Request;
use mine_server::{Router, ServerImage, SessionEvent};
use mine_simulator::{CohortSpec, ItemParams, Simulation};
use mine_streamstats::{alt_indices, ExamStream};

/// Asserts the writer and the tree agree, returning the bytes.
fn same_bytes<T: Serialize>(value: &T) -> String {
    let direct = serde_json::to_string(value).unwrap();
    let via_tree = serde_json::to_string(&value.to_value()).unwrap();
    assert_eq!(direct, via_tree, "writer and tree disagree");
    direct
}

fn problems(n: usize) -> Vec<Problem> {
    (0..n)
        .map(|i| {
            Problem::multiple_choice(
                format!("q{i:02}"),
                format!("Question {i}: \"pick\" A\\B"),
                OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("option {k}"))),
                OptionKey::A,
            )
            .unwrap()
            .with_subject(["tcp", "routing", "dns"][i % 3])
            .with_cognition_level(CognitionLevel::ALL[i % 6])
        })
        .collect()
}

fn exam(n: usize) -> Exam {
    let mut builder = Exam::builder("quiz").unwrap();
    for i in 0..n {
        builder = builder.entry(format!("q{i:02}").parse().unwrap());
    }
    builder.build().unwrap()
}

/// A text strategy covering escapes, control characters, DEL and
/// multi-byte UTF-8.
const TEXT: &str = "[\u{0}-\u{1f}\u{7f} -~é中🦀]{0,12}";

fn key() -> impl Strategy<Value = OptionKey> {
    (0usize..5).prop_map(|i| OptionKey::from_index(i).unwrap())
}

fn answer() -> impl Strategy<Value = Answer> {
    prop_oneof![
        key().prop_map(Answer::Choice),
        proptest::collection::vec(key(), 0..4).prop_map(Answer::MultiChoice),
        any::<bool>().prop_map(Answer::TrueFalse),
        TEXT.prop_map(Answer::Text),
        proptest::collection::vec(TEXT, 0..3).prop_map(Answer::Completion),
        proptest::collection::vec(any::<usize>(), 0..3).prop_map(Answer::Match),
        Just(Answer::Skipped),
    ]
}

fn time() -> impl Strategy<Value = Duration> {
    (any::<u32>(), 0u32..1_000_000_000).prop_map(|(s, n)| Duration::new(s.into(), n))
}

fn student() -> impl Strategy<Value = StudentId> {
    "[a-z][a-z0-9]{0,7}".prop_map(|s| StudentId::new(s).unwrap())
}

fn exam_id() -> impl Strategy<Value = ExamId> {
    "[a-z][a-z0-9-]{0,7}".prop_map(|s| ExamId::new(s).unwrap())
}

fn event() -> impl Strategy<Value = SessionEvent> {
    let session = "[a-z]{1,6}[#~][a-z0-9]{1,4}@[0-9]{1,3}";
    let delivery = (any::<u64>(), any::<bool>(), 1u32..400).prop_map(|(seed, resumable, pct)| {
        DeliveryOptions {
            seed,
            resumable,
            time_accommodation: f64::from(pct) / 100.0,
        }
    });
    let adaptive = (any::<u64>(), 1usize..5, 5usize..40, 0u32..1000).prop_map(
        |(seed, min_items, max_items, se)| AdaptiveOptions {
            seed,
            min_items,
            max_items,
            se_threshold: f64::from(se) / 997.0,
        },
    );
    prop_oneof![
        (exam_id(), student(), delivery).prop_map(|(exam, student, options)| {
            SessionEvent::Created {
                exam,
                student,
                options,
            }
        }),
        (session, answer(), time()).prop_map(|(session, answer, time_spent)| {
            SessionEvent::Answered {
                session,
                answer,
                time_spent,
            }
        }),
        session.prop_map(|session| SessionEvent::Paused { session }),
        session.prop_map(|session| SessionEvent::Resumed { session }),
        session.prop_map(|session| SessionEvent::Finished { session }),
        (exam_id(), student(), adaptive).prop_map(|(exam, student, options)| {
            SessionEvent::AdaptiveCreated {
                exam,
                student,
                options,
            }
        }),
        (session, answer(), time()).prop_map(|(session, answer, time_spent)| {
            SessionEvent::AdaptiveStep {
                session,
                answer,
                time_spent,
            }
        }),
        session.prop_map(|session| SessionEvent::AdaptiveFinished { session }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn reports_and_alt_indices_write_their_tree_bytes(
        questions in 2usize..10,
        class in 4usize..80,
        seed in any::<u64>(),
    ) {
        let problems = problems(questions);
        let mut simulation = Simulation::new(exam(questions), problems.clone())
            .cohort(CohortSpec::new(class).seed(seed));
        for i in 0..questions {
            let b = (i as f64 / questions as f64) * 3.0 - 1.5;
            simulation = simulation.item_params(
                format!("q{i:02}").parse().unwrap(),
                ItemParams::multiple_choice(1.2, b, 4),
            );
        }
        let mut record = simulation.run().unwrap();
        record.students.sort_by(|a, b| a.student.cmp(&b.student));
        let config = AnalysisConfig::default();

        let batch = BatchAnalyzer::new(config)
            .analyze_records(std::slice::from_ref(&record), &problems)
            .unwrap();
        let mut stream = ExamStream::new(config);
        for student in &record.students {
            stream.apply(student);
        }
        let streaming = stream.report(&problems).unwrap();

        let batch_bytes = same_bytes(&batch);
        prop_assert_eq!(same_bytes(&streaming), batch_bytes);
        same_bytes(&alt_indices(&batch.analyses[0]));
    }

    #[test]
    fn session_events_write_their_tree_bytes(events in proptest::collection::vec(event(), 1..12)) {
        for event in &events {
            let bytes = same_bytes(event);
            let back: SessionEvent = serde_json::from_str(&bytes).unwrap();
            prop_assert_eq!(&back, event);
        }
    }
}

/// A repository with a fixed-form `quiz` and a calibrated CAT exam.
fn repository() -> Repository {
    let repo = Repository::new();
    for problem in problems(3) {
        repo.insert_problem(problem).unwrap();
    }
    repo.insert_exam(exam(3)).unwrap();
    let mut cat = Exam::builder("cat").unwrap();
    for i in 0..6 {
        let id = format!("a{i:02}");
        let item = Problem::multiple_choice(
            id.as_str(),
            format!("Item {i}"),
            [
                ChoiceOption::new(OptionKey::A, "yes"),
                ChoiceOption::new(OptionKey::B, "no"),
            ],
            OptionKey::A,
        )
        .unwrap()
        .with_calibration(Calibration::new(1.1, f64::from(i) - 2.5, 0.15));
        repo.insert_problem(item).unwrap();
        cat = cat.entry(id.parse().unwrap());
    }
    repo.insert_exam(cat.build().unwrap()).unwrap();
    repo
}

fn post(router: &Router, path: &str, body: &str) -> Value {
    let response = router.handle(&Request::new("POST", path, body));
    assert!(
        (200..300).contains(&response.status),
        "POST {path}: {} {}",
        response.status,
        response.body
    );
    serde_json::from_str(&response.body).unwrap()
}

fn field<'v>(value: &'v Value, name: &str) -> &'v str {
    value.get(name).and_then(Value::as_str).unwrap()
}

#[test]
fn a_captured_server_image_writes_its_tree_bytes() {
    let router = Router::new(repository());
    // Fixed-form sittings in every state the image holds: finished,
    // paused (with a checkpoint), and live mid-exam.
    for student in 0..9_usize {
        let started = post(
            &router,
            "/sessions",
            &format!("{{\"exam\":\"quiz\",\"student\":\"s{student}\",\"seed\":{student}}}"),
        );
        let session = field(&started, "session").to_string();
        let answered = if student % 3 == 2 { 1 } else { 3 };
        for (i, problem) in started
            .get("problems")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .take(answered)
            .enumerate()
        {
            let id = field(problem, "id");
            let key = ["A", "B", "C", "D"][(student + i) % 4];
            post(
                &router,
                &format!("/sessions/{session}/answers"),
                &format!(
                    "{{\"answer\":{{\"Choice\":\"{key}\"}},\"time_spent_secs\":{}.25}}",
                    student + i
                ),
            );
            assert!(!id.is_empty());
        }
        match student % 3 {
            0 => drop(post(&router, &format!("/sessions/{session}/finish"), "")),
            1 => drop(post(&router, &format!("/sessions/{session}/pause"), "")),
            _ => {}
        }
    }
    // Two CAT sittings, one step each.
    for student in 0..2 {
        let started = post(
            &router,
            "/sessions",
            &format!(
                "{{\"exam\":\"cat\",\"student\":\"c{student}\",\"seed\":{student},\
                 \"mode\":\"adaptive\",\"min_items\":2,\"max_items\":4}}"
            ),
        );
        let session = field(&started, "session").to_string();
        post(
            &router,
            &format!("/sessions/{session}/answers"),
            "{\"answer\":{\"Choice\":\"A\"},\"time_spent_secs\":3.5}",
        );
    }

    let state = router.state();
    let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
    assert_eq!(image.sessions.len(), 6);
    assert!(image.sessions.iter().any(|slot| slot.checkpoint.is_some()));
    assert_eq!(
        image
            .finished
            .iter()
            .map(|e| e.records.len())
            .sum::<usize>(),
        3
    );
    assert_eq!(image.adaptive.as_ref().map(Vec::len), Some(2));
    let bytes = same_bytes(&image);
    let back: ServerImage = serde_json::from_str(&bytes).unwrap();
    assert_eq!(back, image);
}
