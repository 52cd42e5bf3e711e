//! The assessment analysis model — the paper's primary contribution (§4).
//!
//! "A good assessment not only offers test, but also analysis test
//! results for a teacher." Given an [`mine_core::ExamRecord`] (every
//! student's graded responses) and the exam's problems, this crate
//! reproduces the paper's full analysis pipeline:
//!
//! **Single-question analysis (§4.1)**
//! 1. sort the class by score, split off the high/low groups
//!    ([`ScoreGroups`], Kelly fractions),
//! 2. per question compute `PH`, `PL`, difficulty `P = (PH+PL)/2` and
//!    discrimination `D = PH − PL` ([`QuestionIndices`], the §4.1.1
//!    "number representation" table),
//! 3. build the per-option response matrix ([`OptionMatrix`], Table 1),
//! 4. run diagnostic Rules 1–4 ([`rules`]),
//! 5. map rules to statuses ([`status`], Table 2) and `D` to a traffic
//!    light with advice ([`signal`], Table 3),
//! 6. render the whole-test signal interface ([`report`], Figure 2).
//!
//! **Whole-test analysis (§4.2)**
//! * the two-way specification table over concepts × Bloom levels
//!   ([`two_way`], Table 4) with concept-lost detection and the
//!   cognition-pyramid check,
//! * the three figure representations ([`figures`]): time vs. questions
//!   answered, test score vs. difficulty, cognition level vs. subject,
//! * the Instructional Sensitivity Index ([`isi`], §3.4-III),
//! * a point-biserial discrimination baseline ([`baseline`]) for
//!   comparing the paper's `D` against Moodle-style item analysis.
//!
//! [`ExamAnalysis::analyze`] runs everything at once.
//!
//! # Examples
//!
//! ```
//! use mine_analysis::{AnalysisConfig, ExamAnalysis};
//! use mine_itembank::{Exam, Problem};
//! use mine_simulator::{CohortSpec, Simulation};
//!
//! let problems = vec![Problem::true_false("q1", "x", true)?];
//! let exam = Exam::builder("quiz")?.entry("q1".parse()?).build()?;
//! let record = Simulation::new(exam.clone(), problems.clone())
//!     .cohort(CohortSpec::new(44).seed(1))
//!     .run()?;
//! let analysis = ExamAnalysis::analyze(&record, &problems, &AnalysisConfig::default())?;
//! assert_eq!(analysis.questions.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod config;
pub mod distraction;
pub mod error;
pub mod exam_analysis;
pub mod figures;
pub mod groups;
pub mod indices;
pub mod isi;
pub mod option_matrix;
pub mod questionnaire;
mod record_index;
pub mod reliability;
pub mod report;
pub mod rules;
pub mod signal;
pub mod status;
pub mod two_way;

pub use baseline::point_biserial;
pub use batch::{BatchAnalyzer, BatchJob, BatchReport, BatchSummary, PrePostReport};
pub use config::AnalysisConfig;
pub use distraction::{analyze_distractors, DistractorReport, DistractorRole};
pub use error::AnalysisError;
pub use exam_analysis::{ExamAnalysis, ExamStatistics, QuestionAnalysis};
pub use figures::{FigurePoint, Figures};
pub use groups::ScoreGroups;
pub use indices::QuestionIndices;
pub use isi::InstructionalSensitivity;
pub use option_matrix::OptionMatrix;
pub use questionnaire::{summarize_questionnaire, QuestionnaireSummary};
pub use reliability::{cronbach_alpha, Reliability};
pub use report::{render_full_report, render_signal_report};
pub use rules::{Rule2Finding, RuleFindings};
pub use signal::{Signal, SignalPolicy};
pub use status::StatusFlags;
pub use two_way::TwoWayTable;
