//! What the benchmark sends, derived from `--seed` alone: the item bank,
//! one plan per sitting, and the sitting logic that turns a plan into
//! requests. The logic is generic over [`Transport`], so the HTTP run,
//! the in-process replay and the digest test all send the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Number, Serialize, Value};

use mine_core::{CognitionLevel, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem, Repository};
use mine_server::AnswerKey;

/// The exam every workload sits.
pub const EXAM: &str = "quiz";

/// One request/response exchange. Implementations count a call whose
/// status differs from `expect`, or that fails in transport, as failed
/// and return `None`; the sitting is then abandoned.
pub trait Transport {
    fn call(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<String>;
}

/// A bank of `questions` four-option multiple-choice items and one exam
/// over all of them. The keyed option of every item comes from `seed`.
pub fn build_bank(seed: u64, questions: usize) -> Repository {
    const SUBJECTS: [&str; 4] = ["networking", "databases", "algorithms", "security"];
    const LEVELS: [&str; 6] = ["A", "B", "C", "D", "E", "F"];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6261_6e6b);
    let repository = Repository::new();
    let mut exam = Exam::builder(EXAM)
        .expect("exam id")
        .title("Served-path benchmark");
    for i in 0..questions {
        let id = format!("q{i:03}");
        let correct = OptionKey::from_index(rng.gen_range(0..4_usize)).expect("< 26");
        let options = (0..4).map(|o| {
            ChoiceOption::new(
                OptionKey::from_index(o).expect("< 26"),
                format!("option {o} of item {i}"),
            )
        });
        let level: CognitionLevel = LEVELS[i % LEVELS.len()].parse().expect("level letter");
        let problem =
            Problem::multiple_choice(id.clone(), format!("Question {i}?"), options, correct)
                .expect("valid item")
                .with_subject(SUBJECTS[i % SUBJECTS.len()])
                .with_cognition_level(level);
        repository.insert_problem(problem).expect("unique id");
        exam = exam.entry(id.parse().expect("problem id"));
    }
    repository
        .insert_exam(exam.build().expect("valid exam"))
        .expect("unique exam");
    repository
}

/// Everything one sitting does, fixed by `(seed, index)`.
#[derive(Debug, Clone)]
pub struct SittingPlan {
    pub student: String,
    /// The delivery seed (presentation order; CAT session id).
    pub session_seed: u64,
    /// The respondent's ability, drawn from N(0, 1).
    pub theta: f64,
    /// Seeds the respondent's per-item draws.
    pub rng_seed: u64,
    /// Pause and resume half-way (every third fixed-form sitting).
    pub pause: bool,
}

pub fn sitting_plan(seed: u64, index: u64) -> SittingPlan {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index);
    let session_seed = rng.next_u64() >> 16;
    // Box-Muller: two uniforms, one standard normal ability.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let theta = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    SittingPlan {
        student: format!("s{index:06}"),
        session_seed,
        theta,
        rng_seed: rng.next_u64(),
        pause: index.is_multiple_of(3),
    }
}

/// The simulee's response to `item`: correct with the item's 3PL
/// probability at `theta`, else the key's deterministic wrong answer;
/// plus 2–20 s spent on it.
pub fn respond(
    key: &AnswerKey,
    rng: &mut StdRng,
    theta: f64,
    item: &str,
) -> Option<(mine_core::Answer, f64)> {
    let p = key.p_correct(item, theta)?;
    let correct = rng.gen_range(0.0_f64..1.0) < p;
    let answer = key.answer_for(item, correct)?;
    Some((answer, rng.gen_range(2.0_f64..20.0)))
}

fn answer_body(answer: &mine_core::Answer, time_spent: f64) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("answer".to_string(), answer.to_value()),
        (
            "time_spent_secs".to_string(),
            Value::Number(Number::Float(time_spent)),
        ),
    ]))
    .expect("answer body serializes")
}

/// Drives one fixed-form sitting: start, every question (pause and
/// resume half-way when planned), finish. Returns whether the finish was
/// acknowledged.
pub fn fixed_sitting(t: &mut impl Transport, key: &AnswerKey, plan: &SittingPlan) -> bool {
    let start = format!(
        "{{\"exam\":\"{EXAM}\",\"student\":\"{}\",\"seed\":{}}}",
        plan.student, plan.session_seed
    );
    let Some(started) = t.call("POST", "/sessions", &start, 201) else {
        return false;
    };
    let Ok(started) = serde_json::from_str::<Value>(&started) else {
        return false;
    };
    let Some(session) = started.get("session").and_then(Value::as_str) else {
        return false;
    };
    let items: Vec<String> = started
        .get("problems")
        .and_then(Value::as_array)
        .map(|problems| {
            problems
                .iter()
                .filter_map(|p| p.get("id").and_then(Value::as_str).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let mut rng = StdRng::seed_from_u64(plan.rng_seed);
    for (position, item) in items.iter().enumerate() {
        if plan.pause && position == items.len() / 2 {
            let paused = t.call("POST", &format!("/sessions/{session}/pause"), "", 200);
            if paused.is_none()
                || t.call("POST", &format!("/sessions/{session}/resume"), "", 200)
                    .is_none()
            {
                return false;
            }
        }
        let Some((answer, time_spent)) = respond(key, &mut rng, plan.theta, item) else {
            return false;
        };
        let path = format!("/sessions/{session}/answers");
        if t.call("POST", &path, &answer_body(&answer, time_spent), 200)
            .is_none()
        {
            return false;
        }
    }
    t.call("POST", &format!("/sessions/{session}/finish"), "", 200)
        .is_some()
}

/// Drives one adaptive (CAT) sitting: start, answer whatever item the
/// server selects until its stop rule fires, finish.
pub fn cat_sitting(t: &mut impl Transport, key: &AnswerKey, plan: &SittingPlan) -> bool {
    let start = format!(
        "{{\"exam\":\"{EXAM}\",\"student\":\"{}\",\"seed\":{},\"mode\":\"adaptive\"}}",
        plan.student, plan.session_seed
    );
    let Some(started) = t.call("POST", "/sessions", &start, 201) else {
        return false;
    };
    let Ok(mut status) = serde_json::from_str::<Value>(&started) else {
        return false;
    };
    let Some(session) = status
        .get("session")
        .and_then(Value::as_str)
        .map(str::to_string)
    else {
        return false;
    };
    let mut rng = StdRng::seed_from_u64(plan.rng_seed);
    while !matches!(status.get("done"), Some(Value::Bool(true))) {
        let Some(item) = status
            .get("current")
            .and_then(|current| current.get("id"))
            .and_then(Value::as_str)
        else {
            break;
        };
        let Some((answer, time_spent)) = respond(key, &mut rng, plan.theta, item) else {
            return false;
        };
        let path = format!("/sessions/{session}/answers");
        let Some(reply) = t.call("POST", &path, &answer_body(&answer, time_spent), 200) else {
            return false;
        };
        match serde_json::from_str::<Value>(&reply) {
            Ok(next) => status = next,
            Err(_) => return false,
        }
    }
    t.call("POST", &format!("/sessions/{session}/finish"), "", 200)
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProc;
    use mine_itembank::Calibration;
    use mine_server::Router;

    /// FNV-1a over a byte stream; stable across builds and platforms, unlike
    /// the standard library's hasher.
    #[derive(Debug, Clone, Copy)]
    struct Fnv(u64);

    impl Default for Fnv {
        fn default() -> Self {
            Self(0xcbf2_9ce4_8422_2325)
        }
    }

    impl Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Hashes every request on its way to the inner transport.
    struct Recorder {
        inner: InProc,
        hash: Fnv,
    }

    impl Transport for Recorder {
        fn call(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<String> {
            for part in [method, path, body] {
                self.hash.write(part.as_bytes());
                self.hash.write(&[0]);
            }
            self.inner.call(method, path, body, expect)
        }
    }

    /// The request-stream digest of the first sittings for `seed`, sent
    /// in-process to a server over the seed's bank (calibrated the way
    /// `mine calibrate --auto` does it).
    fn digest(seed: u64, adaptive: bool) -> u64 {
        let bank = build_bank(seed, 12);
        let ids = bank.problem_ids();
        for (i, id) in ids.iter().enumerate() {
            let b = -2.0 + 4.0 * i as f64 / (ids.len() - 1) as f64;
            bank.update_problem(id, |p| {
                p.set_calibration(Some(Calibration::new(1.2, b, 0.15)));
                Ok(())
            })
            .unwrap();
        }
        let key = AnswerKey::from_repository(&bank);
        let mut t = Recorder {
            inner: InProc::new(Router::new(bank)),
            hash: Fnv::default(),
        };
        for index in 0..9 {
            let plan = sitting_plan(seed, index);
            let done = if adaptive {
                cat_sitting(&mut t, &key, &plan)
            } else {
                fixed_sitting(&mut t, &key, &plan)
            };
            assert!(done, "sitting {index} finished");
        }
        assert_eq!(t.inner.failed, 0);
        t.hash.0
    }

    #[test]
    fn same_seed_same_request_stream_other_seed_other_stream() {
        for adaptive in [false, true] {
            assert_eq!(digest(7, adaptive), digest(7, adaptive));
            assert_ne!(digest(7, adaptive), digest(8, adaptive));
        }
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        let (a, b) = (sitting_plan(3, 10), sitting_plan(3, 10));
        assert_eq!(
            (a.session_seed, a.rng_seed, a.theta.to_bits()),
            (b.session_seed, b.rng_seed, b.theta.to_bits())
        );
        assert!(sitting_plan(3, 9).pause && !a.pause);
    }
}
