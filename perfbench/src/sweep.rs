//! The two in-process sweep workloads: one memory-only `JobDriver` job
//! per input variant at two worker threads, in rotations for the run's
//! duration.

use crate::expected::Record;
use crate::layers::{self, sweep_opts, sweep_start, Shape};
use crate::trace::{median, peak_rss_mb, quantile, Tracer};
use crate::workload::{self, rotation, sweep_job, Job, Workload};
use crate::{Checker, Ctx, Metrics, Outcome};
use golden::recovery::{standard_recovery_specs, RecoveryCampaign, RecoveryCampaignConfig};
use golden::{CampaignConfig, GoldenCache, JobDriver};
use noc_types::{JobEvent, JobKind, JobResult, JobSpec};
use std::collections::BTreeMap;
use std::time::Instant;

fn campaign_config(spec: &JobSpec) -> CampaignConfig {
    let mut cc = CampaignConfig::paper_defaults(spec.noc.clone(), spec.warmup);
    cc.active_window = spec.window;
    cc
}

/// Times the work a job does before its first rollout can be timed: for
/// transient sweeps the golden reference build (a miss in `cache`), site
/// enumeration and one rollout, which builds the campaign's lazy golden
/// trajectory; for recovery sweeps the engine constructor and work-list
/// enumeration.
fn setup_once(job: &Job, cache: &GoldenCache) -> Result<f64, String> {
    let t = Instant::now();
    if job.spec.kind == JobKind::Transient {
        let campaign = cache
            .get(&campaign_config(&job.spec))
            .map_err(|e| e.to_string())?;
        let sites = fault::enumerate_sites(&job.spec.noc);
        std::hint::black_box(campaign.run_many(&sites[..1], 1));
    } else {
        let engine = RecoveryCampaign::try_new(RecoveryCampaignConfig {
            noc: job.spec.noc.clone(),
            opts: sweep_opts(&job.spec),
        })
        .map_err(|e| e.to_string())?;
        let specs = standard_recovery_specs(&job.spec.noc, sweep_start(&job.spec), 50, 10);
        std::hint::black_box((engine, specs));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs `job` through `JobDriver::run`. With a tracer, the call is a
/// `golden.job` span, and each of the driver's `Progress` events closes a
/// `golden.job.chunk` span opened at the previous event (or the call); the
/// first one is also `golden.job.first_progress`.
fn run_once(
    driver: &JobDriver,
    job: &Job,
    tr: Option<&mut Tracer>,
    id: u32,
) -> Result<JobResult, String> {
    let result = match tr {
        None => driver.run(&job.spec, &mut |_| {}),
        Some(tr) => {
            let span = tr.begin("golden.job", id);
            let start = Instant::now();
            let mut last = start;
            let r = driver.run(&job.spec, &mut |e| {
                if matches!(e, JobEvent::Progress { .. }) {
                    let now = Instant::now();
                    if last == start {
                        tr.record("golden.job.first_progress", id, start, now);
                    }
                    tr.record("golden.job.chunk", id, last, now);
                    last = now;
                }
            });
            tr.end(span);
            r
        }
    };
    result.map_err(|e| format!("{}: {e}", job.label))
}

/// What a finished job is checked and counted by.
struct Done {
    digest: String,
    units: u64,
    cycles: u64,
    crashed: u64,
    interrupted: bool,
}

impl Done {
    fn of(spec: &JobSpec, r: &JobResult) -> Done {
        Done {
            digest: r.digest.clone(),
            units: workload::units(r),
            cycles: workload::sim_cycles(spec, r),
            crashed: workload::crashed(r),
            interrupted: r.interrupted,
        }
    }

    fn work(&self) -> BTreeMap<String, u64> {
        BTreeMap::from([
            ("golden.units".to_string(), self.units),
            ("golden.sim_cycles".to_string(), self.cycles),
        ])
    }
}

/// Checks one job against the recorded one-thread run of its spec.
fn check_result(ctx: &Ctx, check: &mut Checker, variant: u64, job: &Job, r: &Done) {
    let units = r.units;
    check.attempted += units;
    check.digest(ctx, variant, job.label, &r.digest, units);
    check.work(ctx, variant, job.label, &r.work());
    let crashed = r.crashed;
    if crashed > 0 {
        check.fail(
            crashed,
            format!("{}/{variant}: {crashed} rollouts crashed", job.label),
        );
    }
    if r.interrupted {
        check.fail(
            units,
            format!("{}/{variant}: job was interrupted", job.label),
        );
    }
}

/// One rotation of a pass: the wall time of each of its jobs, one per
/// variant, and the work they completed.
#[derive(Default)]
struct Lap {
    times: Vec<f64>,
    units: u64,
    cycles: u64,
    jobs: u64,
}

/// The rotations of a pass and the exact work counters of its first job.
#[derive(Default)]
struct Pass {
    laps: Vec<Lap>,
    first_work: BTreeMap<String, u64>,
}

impl Pass {
    fn times(&self) -> impl Iterator<Item = f64> + '_ {
        self.laps.iter().flat_map(|l| l.times.iter().copied())
    }

    /// Completed work per second of the jobs' wall time; the jobs run one
    /// after another, so that is the pass's wall time without the set-up
    /// samples.
    fn per_s(&self, work: impl Fn(&Lap) -> u64) -> f64 {
        self.laps.iter().map(work).sum::<u64>() as f64 / self.times().sum::<f64>()
    }

    /// The median wall time of all the pass's jobs. Every rotation visits
    /// every variant once, so each weighs the same.
    fn p50(&self) -> f64 {
        median(&self.times().collect::<Vec<_>>())
    }

    /// The 90th percentile of a rotation's job wall times, median over the
    /// rotations. One variant's transient jobs take about twice as long as
    /// the others', so the 90th percentile of all jobs pooled lands at the
    /// lower edge of that variant's cluster and moves by tens of percent
    /// with a job or two more or less; per rotation it always falls
    /// between the same two ranks (the slowest two of eight).
    fn p90(&self) -> f64 {
        let per_lap: Vec<f64> = self.laps.iter().map(|l| quantile(&l.times, 0.9)).collect();
        median(&per_lap)
    }
}

/// Timed jobs per set-up sample. Coprime to the rotation length, so the
/// samples visit every variant in turn.
const SETUP_EVERY: usize = 3;

/// Runs whole rotations of `jobs` through `JobDriver::run` for about
/// `seconds`, stopping at the rotation boundary nearest to it. With
/// `setup`, every `SETUP_EVERY`-th job is followed by one set-up of its
/// variant, into a fresh cache that is dropped right after: the host
/// alternates between fast and slow stretches of a few seconds, and
/// samples spread evenly over the run see them in the same proportion as
/// the jobs do.
fn pass(
    ctx: &Ctx,
    check: &mut Checker,
    driver: &JobDriver,
    jobs: &[(u64, Job)],
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    mut setup: Option<&mut Vec<f64>>,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut p = Pass::default();
    let mut last_rotation_s = 0.0;
    while p.laps.is_empty() || start.elapsed().as_secs_f64() + last_rotation_s / 2.0 < seconds {
        let rotation = Instant::now();
        let mut lap = Lap::default();
        for (variant, job) in jobs {
            let id = (p.times().count() + lap.times.len()) as u32 + 1;
            let t = Instant::now();
            let out = run_once(driver, job, tr.as_deref_mut(), id);
            lap.times.push(t.elapsed().as_secs_f64());
            match out {
                Ok(r) => {
                    let r = Done::of(&job.spec, &r);
                    check_result(ctx, check, *variant, job, &r);
                    if id == 1 {
                        p.first_work = r.work();
                    }
                    lap.units += r.units;
                    lap.cycles += r.cycles;
                    lap.jobs += 1;
                }
                Err(e) => {
                    let units = u64::from(job.spec.limit.unwrap_or(1));
                    check.attempted += units;
                    check.fail(units, format!("{}/{variant}: {e}", job.label));
                }
            }
            if let Some(samples) = setup.as_mut().filter(|_| id as usize % SETUP_EVERY == 0) {
                samples.push(setup_once(job, &GoldenCache::new())?);
            }
        }
        p.laps.push(lap);
        last_rotation_s = rotation.elapsed().as_secs_f64();
    }
    Ok(p)
}

fn shape(w: Workload, spec: &JobSpec, service_probe: bool) -> Shape {
    Shape {
        spec: spec.clone(),
        transient_sites: if w == Workload::TransientSweep { 8 } else { 4 },
        recovery_specs: if w == Workload::RecoverySweep { 6 } else { 2 },
        transient_journal: w == Workload::TransientSweep,
        service_probe,
    }
}

/// The digest and exact counters of this workload at `ctx.variant`, from
/// a one-thread run and the layer probes.
pub fn record(ctx: &Ctx, check: &mut Checker) -> Result<Record, String> {
    let job = sweep_job(ctx.workload, ctx.variant, 1);
    let r = Done::of(&job.spec, &run_once(&JobDriver::default(), &job, None, 0)?);
    let mut counters = r.work();
    let mut tr = Tracer::new(Instant::now());
    layers::run(
        ctx,
        &shape(ctx.workload, &job.spec, false),
        &mut tr,
        check,
        &mut Metrics::default(),
        &mut counters,
    )?;
    Ok(Record {
        digests: BTreeMap::from([(job.label.to_string(), r.digest)]),
        counters,
    })
}

pub fn run(ctx: &Ctx, check: &mut Checker) -> Result<Outcome, String> {
    let jobs: Vec<(u64, Job)> = rotation(ctx.variant)
        .into_iter()
        .map(|v| (v, sweep_job(ctx.workload, v, 2)))
        .collect();
    // The first set-up of each variant fills the driver's cache (and
    // builds each golden trajectory) before timing starts.
    let driver = JobDriver::default();
    let mut setup = Vec::new();
    for (_, job) in &jobs {
        setup.push(setup_once(job, &driver.cache)?);
    }

    let mut m = Metrics::default();
    if !ctx.trace {
        let p = pass(
            ctx,
            check,
            &driver,
            &jobs,
            ctx.seconds,
            None,
            Some(&mut setup),
        )?;
        eprintln!(
            "[perfbench] {} rotations, {} jobs, {} units in {:.2} s of jobs; {} set-up samples",
            p.laps.len(),
            p.times().count(),
            p.laps.iter().map(|l| l.units).sum::<u64>(),
            p.times().sum::<f64>(),
            setup.len()
        );
        m.put("units_per_s", p.per_s(|l| l.units), "1/s");
        m.put("setup_s", median(&setup), "s");
        m.put("sim_cycles_per_s", p.per_s(|l| l.cycles), "1/s");
        m.put("job_latency_p50_s", p.p50(), "s");
        m.put("job_latency_p90_s", p.p90(), "s");
        m.put("jobs_per_s", p.per_s(|l| l.jobs), "1/s");
        m.put("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB");
        return Ok(Outcome {
            metrics: m,
            counters: BTreeMap::new(),
            tracer: None,
        });
    }

    let mut tr = Tracer::new(Instant::now());
    let half = ctx.seconds / 2.0;
    let plain = pass(ctx, check, &driver, &jobs, half, None, None)?;
    let traced = pass(ctx, check, &driver, &jobs, half, Some(&mut tr), None)?;
    m.put("e2e.untraced.units_per_s", plain.per_s(|l| l.units), "1/s");
    m.put("e2e.traced.units_per_s", traced.per_s(|l| l.units), "1/s");
    m.put("e2e.untraced.job_latency_p50_s", plain.p50(), "s");
    m.put("e2e.traced.job_latency_p50_s", traced.p50(), "s");
    // The work of the traced pass's first job (two threads, at the run's
    // first variant), checked below against the recorded one-thread run.
    let mut counters = traced.first_work;
    layers::run(
        ctx,
        &shape(ctx.workload, &jobs[0].1.spec, true),
        &mut tr,
        check,
        &mut m,
        &mut counters,
    )?;
    crate::put_counters(&mut m, &counters);
    check.recorded(ctx, &counters);
    Ok(Outcome {
        metrics: m,
        counters,
        tracer: Some(tr),
    })
}
