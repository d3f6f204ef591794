//! The exact-output gate.
//!
//! `pinned.csv` holds one `ds_runner::report_csv_row` per task the
//! benchmark runs, recorded with `ds-gauge --pin`. The row carries
//! simulated cycles, misses, messages and the stage and lens columns,
//! but no host time and no event count, so a change that only makes
//! the simulator faster still passes while a change to any statistic
//! in the row fails. Every report a run produces or is served is checked
//! against its row; a mismatch counts as a failed task or job.

use std::collections::HashMap;

use ds_core::{InputSize, Mode, RunReport, Scenario};
use ds_runner::{report_csv_row, REPORT_CSV_HEADER};
use ds_workloads::{catalog, Benchmark};

/// One simulation the benchmark runs.
#[derive(Debug, Clone)]
pub struct Task {
    /// The catalog benchmark.
    pub bench: Benchmark,
    /// Its input size.
    pub input: InputSize,
    /// The coherence mode.
    pub mode: Mode,
}

impl Task {
    /// `codes` at `input`, each under CCSM and then direct store.
    ///
    /// # Panics
    ///
    /// On a code the catalog does not list (the workload tables are
    /// constants).
    pub fn both_modes(codes: &[&str], input: InputSize) -> Vec<Task> {
        codes
            .iter()
            .flat_map(|code| {
                let bench = catalog::by_code(code).expect("workload codes are catalog codes");
                [Mode::Ccsm, Mode::DirectStore].map(|mode| Task {
                    bench: bench.clone(),
                    input,
                    mode,
                })
            })
            .collect()
    }

    /// `code input mode`: names the task in messages and keys its row.
    pub fn label(&self) -> String {
        format!("{} {} {}", self.bench.code(), self.input, self.mode)
    }

    /// The task's CSV row for `report`.
    pub fn row(&self, report: &RunReport) -> String {
        report_csv_row(
            self.bench.code(),
            &self.bench.suite().to_string(),
            self.bench.uses_shared_memory(),
            self.input,
            report,
        )
    }
}

const PINNED: &str = include_str!("../pinned.csv");

/// The pinned rows, keyed by [`Task::label`].
#[derive(Debug)]
pub struct Pinned {
    rows: HashMap<String, String>,
}

impl Pinned {
    /// Loads `pinned.csv`.
    ///
    /// # Errors
    ///
    /// When its header is not the current `REPORT_CSV_HEADER` (the
    /// row format changed, so every row must be pinned again) or a row
    /// is malformed.
    pub fn load() -> Result<Pinned, String> {
        let mut lines = PINNED.lines();
        if lines.next() != Some(REPORT_CSV_HEADER) {
            return Err("pinned.csv header differs from REPORT_CSV_HEADER; re-pin".into());
        }
        let mut rows = HashMap::new();
        for line in lines {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() < 5 {
                return Err(format!("malformed pinned row {line:?}"));
            }
            rows.insert(format!("{} {} {}", f[0], f[3], f[4]), line.to_string());
        }
        Ok(Pinned { rows })
    }

    /// Checks `report` against `task`'s pinned row.
    ///
    /// # Errors
    ///
    /// A message naming the task when its row is missing or differs.
    pub fn check(&self, task: &Task, report: &RunReport) -> Result<(), String> {
        let Some(pinned) = self.rows.get(&task.label()) else {
            return Err(format!("{}: no pinned row", task.label()));
        };
        let row = task.row(report);
        if &row == pinned {
            Ok(())
        } else {
            Err(format!(
                "{}: output differs from its pinned row\n  pinned {pinned}\n  got    {row}",
                task.label()
            ))
        }
    }
}

/// Prints `pinned.csv` for `tasks`, simulating each once.
pub fn pin(tasks: &[Task]) -> Result<(), String> {
    println!("{REPORT_CSV_HEADER}");
    for task in tasks {
        let build = crate::sweep::build(task)?;
        let report = ds_core::System::new(ds_core::SystemConfig::paper_default(), task.mode)
            .run(build.program, build.kernels);
        println!("{}", task.row(&report));
    }
    Ok(())
}
