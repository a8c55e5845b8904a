//! NoCAlert benchmark driver. Run it through `run.py`, which builds it and
//! `nocalertd`; see README.md for the workloads and metrics.
//!
//! ```text
//! nocalert-perfbench --workload W --seed N --seconds S --trace 0|1
//!     --nocalertd PATH --work-dir DIR --expected FILE
//!     --spans-dir DIR
//! nocalert-perfbench --record --nocalertd PATH --work-dir DIR --expected FILE
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod expected;
mod layers;
mod mixed;
mod probe;
mod service;
mod sweep;
mod trace;
mod workload;

use expected::{Expected, Record};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, VARIANTS};

/// Everything a run needs.
pub struct Ctx {
    pub workload: Workload,
    /// The seed's input variant: the first of the run's rotation, and the
    /// one the traced run's layer probes use.
    pub variant: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nocalertd: PathBuf,
    pub work_dir: PathBuf,
    /// The recorded outputs; empty while recording.
    pub expected: Expected,
}

impl Ctx {
    /// The record for this workload at `variant`, if any.
    pub fn recorded(&self, variant: u64) -> Option<&Record> {
        self.expected
            .records
            .get(&expected::key(self.workload.name(), variant))
    }
}

/// Correctness bookkeeping: units (or jobs) attempted and failed, and
/// what went wrong.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    /// Records `n` units that failed for `why`.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// A problem that is no unit's failure but makes the run incorrect
    /// (a probe that disagrees with its engine, a counter that moved).
    pub fn flag(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Checks a job digest against the one recorded for `variant`; a
    /// mismatch fails all `units` of the job.
    pub fn digest(&mut self, ctx: &Ctx, variant: u64, label: &str, got: &str, units: u64) {
        let want = ctx.recorded(variant).and_then(|r| r.digests.get(label));
        if let Some(want) = want.filter(|w| *w != got) {
            self.fail(
                units,
                format!("{label}/{variant}: digest {got} differs from the recorded {want}"),
            );
        }
    }

    /// Checks that a job at another thread count did the recorded work.
    pub fn work(&mut self, ctx: &Ctx, variant: u64, label: &str, got: &BTreeMap<String, u64>) {
        let Some(rec) = ctx.recorded(variant) else {
            return;
        };
        for (k, v) in got {
            if rec.counters.get(k).is_some_and(|want| want != v) {
                self.flag(format!(
                    "{label}/{variant}: {k} = {v} differs from the recorded run"
                ));
            }
        }
    }

    /// Checks exact counters against a recount at the other thread count.
    pub fn recount(&mut self, got: &BTreeMap<String, u64>, recount: &BTreeMap<String, u64>) {
        for (k, v) in got {
            if recount.get(k) != Some(v) {
                self.flag(format!(
                    "counter {k} = {v} but {:?} at the other thread count",
                    recount.get(k)
                ));
            }
        }
    }

    /// Checks exact counters against the values recorded at this seed.
    pub fn recorded(&mut self, ctx: &Ctx, got: &BTreeMap<String, u64>) {
        let Some(rec) = ctx.recorded(ctx.variant) else {
            return;
        };
        for (k, want) in &rec.counters {
            if got.get(k) != Some(want) {
                self.flag(format!(
                    "counter {k} = {:?} but {want} was recorded",
                    got.get(k)
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Metrics in output order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The exact work counters, as traced-run metrics.
pub fn put_counters(m: &mut Metrics, counters: &BTreeMap<String, u64>) {
    for name in [
        "noc-sim.forwarded_flits",
        "core.assertions",
        "noc-sim.transport.retransmits",
        "golden.units",
        "golden.sim_cycles",
    ] {
        m.put(
            name,
            counters.get(name).copied().unwrap_or(0) as f64,
            "count",
        );
    }
}

/// A workload's result: metrics, exact counters and the span log.
pub struct Outcome {
    pub metrics: Metrics,
    pub counters: BTreeMap<String, u64>,
    pub tracer: Option<trace::Tracer>,
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    nocalertd: PathBuf,
    work_dir: PathBuf,
    spans_dir: PathBuf,
    expected: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
        nocalertd: PathBuf::new(),
        work_dir: PathBuf::new(),
        spans_dir: PathBuf::new(),
        expected: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            cli.record = true;
            continue;
        }
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {val:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(Workload::parse(&val).ok_or(bad("workload"))?),
            "--seed" => cli.seed = val.parse().map_err(|_| bad("seed"))?,
            "--seconds" => cli.seconds = val.parse().map_err(|_| bad("duration"))?,
            "--trace" => cli.trace = val != "0",
            "--nocalertd" => cli.nocalertd = PathBuf::from(val),
            "--work-dir" => cli.work_dir = PathBuf::from(val),
            "--spans-dir" => cli.spans_dir = PathBuf::from(val),
            "--expected" => cli.expected = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

fn run(ctx: &Ctx, check: &mut Checker) -> Result<Outcome, String> {
    match ctx.workload {
        Workload::TransientSweep | Workload::RecoverySweep => sweep::run(ctx, check),
        Workload::ServiceMixed => mixed::run(ctx, check),
    }
}

/// Recomputes every (workload, variant) record from reference runs and
/// traced probes and writes the file.
fn record(cli: &Cli) -> Result<(), String> {
    let mut out = Expected::default();
    for variant in 0..VARIANTS {
        for w in Workload::ALL {
            let ctx = Ctx {
                workload: w,
                variant,
                seconds: 0.0,
                trace: true,
                nocalertd: cli.nocalertd.clone(),
                work_dir: cli.work_dir.join(format!("record-{}-{variant}", w.name())),
                expected: Expected::default(),
            };
            let mut check = Checker::default();
            let rec = match w {
                Workload::TransientSweep | Workload::RecoverySweep => {
                    sweep::record(&ctx, &mut check)?
                }
                Workload::ServiceMixed => mixed::record(&ctx, &mut check)?,
            };
            if !check.correct() {
                return Err(format!("{}/{variant}: {:?}", w.name(), check.problems));
            }
            eprintln!("[perfbench] recorded {}/{variant}", w.name());
            out.records.insert(expected::key(w.name(), variant), rec);
        }
    }
    std::fs::write(&cli.expected, out.to_json())
        .map_err(|e| format!("cannot write {}: {e}", cli.expected.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    if cli.record {
        return match record(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench] record failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(workload) = cli.workload else {
        eprintln!("[perfbench] --workload is required");
        return ExitCode::from(2);
    };
    let variant = cli.seed % VARIANTS;
    let expected = match Expected::load(&cli.expected) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = (0..VARIANTS).find(|&v| {
        !expected
            .records
            .contains_key(&expected::key(workload.name(), v))
    }) {
        eprintln!(
            "[perfbench] no recorded outputs for {}/{v}",
            workload.name()
        );
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload,
        variant,
        seconds: cli.seconds,
        trace: cli.trace,
        nocalertd: cli.nocalertd.clone(),
        work_dir: cli.work_dir.clone(),
        expected,
    };
    let mut check = Checker::default();
    let outcome = match run(&ctx, &mut check) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[perfbench] {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some(tr) = &outcome.tracer {
        let path = cli
            .spans_dir
            .join(format!("{}-seed{}.jsonl", workload.name(), cli.seed));
        let mut log = tr.to_jsonl();
        for (k, v) in &outcome.counters {
            log.push_str(&format!("{{\"counter\":\"{k}\",\"value\":{v}}}\n"));
        }
        let written =
            std::fs::create_dir_all(&cli.spans_dir).and_then(|()| std::fs::write(&path, log));
        match written {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[perfbench] cannot write {}: {e}", path.display()),
        }
    }
    if check.attempted == 0 {
        check.flag("no unit was attempted".into());
    }
    for p in &check.problems {
        eprintln!("[perfbench] CHECK FAILED: {p}");
    }
    let mut parts = Vec::new();
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("[perfbench] {:<40} {:>16.6} {unit}", name, value);
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.correct(),
        check.attempted,
        check.failed,
        parts.join(", ")
    );
    ExitCode::SUCCESS
}
