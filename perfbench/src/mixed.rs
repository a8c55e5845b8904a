//! The service workload: a `nocalertd serve --workers 2` child process
//! and a closed loop of two clients, each submitting the next job of its
//! fixed sequence only after the previous one's SSE `done` frame.

use crate::expected::Record;
use crate::layers::{self, Shape};
use crate::service::{self, Daemon, Seen};
use crate::trace::{median, quantile, Tracer};
use crate::workload::{self, service_jobs, Job, CLIENT_SEQUENCES, VARIANTS};
use crate::{Checker, Ctx, Metrics, Outcome};
use golden::JobDriver;
use noc_types::JobResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// Daemon starts before and again after the closed loop; `setup_s` is the
/// median spawn-to-first-healthz time of all of them. A single start takes
/// 1–2 ms and varies by tens of percent, so it takes many to steady it.
const SETUP_REPS: usize = 20;

/// Starts `SETUP_REPS` daemons one after another, recording each one's
/// spawn-to-first-healthz time, and keeps the last one running.
fn spawn_daemons(ctx: &Ctx, tag: &str, setup: &mut Vec<f64>) -> Result<Daemon, String> {
    let mut last = None;
    for i in 0..SETUP_REPS {
        let dir = ctx.work_dir.join(format!("daemon-{tag}-{i}"));
        let (d, dt) = Daemon::spawn(&ctx.nocalertd, &dir)?;
        setup.push(dt.as_secs_f64());
        last = Some(d);
    }
    last.ok_or_else(|| "no daemon started".to_string())
}

/// Runs every distinct job in process, at `threads` workers, through one
/// shared driver (so its golden cache behaves as the daemon's).
fn in_process(jobs: &[Job], threads: u32) -> Result<BTreeMap<&'static str, JobResult>, String> {
    let driver = JobDriver::default();
    let mut out = BTreeMap::new();
    for job in jobs {
        let mut spec = job.spec.clone();
        spec.threads = threads;
        let r = driver
            .run(&spec, &mut |_| {})
            .map_err(|e| format!("{}: {e}", job.label))?;
        out.insert(job.label, r);
    }
    Ok(out)
}

/// Units and simulated cycles of one pass over the distinct jobs.
fn work_counters(
    jobs: &[Job],
    results: &BTreeMap<&'static str, JobResult>,
) -> BTreeMap<String, u64> {
    let (mut units, mut cycles) = (0, 0);
    for job in jobs {
        if let Some(r) = results.get(job.label) {
            units += workload::units(r);
            cycles += workload::sim_cycles(&job.spec, r);
        }
    }
    BTreeMap::from([
        ("golden.units".to_string(), units),
        ("golden.sim_cycles".to_string(), cycles),
    ])
}

fn shape(jobs: &[Job]) -> Shape {
    Shape {
        spec: jobs[1].spec.clone(),
        transient_sites: 8,
        recovery_specs: 4,
        transient_journal: false,
        service_probe: false,
    }
}

/// The digests and exact counters of this workload at `ctx.variant`.
pub fn record(ctx: &Ctx, check: &mut Checker) -> Result<Record, String> {
    let jobs = service_jobs(ctx.variant);
    let results = in_process(&jobs, 1)?;
    let mut counters = work_counters(&jobs, &results);
    let mut tr = Tracer::new(Instant::now());
    layers::run(
        ctx,
        &shape(&jobs),
        &mut tr,
        check,
        &mut Metrics::default(),
        &mut counters,
    )?;
    Ok(Record {
        digests: results
            .iter()
            .map(|(l, r)| (l.to_string(), r.digest.clone()))
            .collect(),
        counters,
    })
}

/// Jobs, units and simulated cycles one client completed in one pass over
/// its sequence, and the wall time of that pass: from the end of its
/// previous pass (or the loop's start) to its last result, so submission,
/// the SSE feed, the result fetch and the gaps between jobs all count.
#[derive(Default)]
struct Lap {
    jobs: u64,
    units: u64,
    cycles: u64,
    wall_s: f64,
}

/// What one closed-loop pass measured.
#[derive(Default)]
struct Pass {
    latencies: Vec<f64>,
    by_label: BTreeMap<&'static str, Vec<f64>>,
    /// Every client's laps, in order.
    laps: Vec<Vec<Lap>>,
}

impl Pass {
    /// Completed work per second of the closed loop: for each client the
    /// median over its laps of the lap's work divided by its wall time,
    /// summed over the clients. Every lap runs the same job kinds, and the
    /// median keeps a stretch of host slowdown that hits a lap or two from
    /// moving the figure.
    fn per_s(&self, work: impl Fn(&Lap) -> u64) -> f64 {
        self.laps
            .iter()
            .map(|laps| {
                let rates: Vec<f64> = laps.iter().map(|l| work(l) as f64 / l.wall_s).collect();
                median(&rates)
            })
            .sum()
    }
}

/// The job client `c` submits `n`-th: its fixed label sequence, with the
/// variant advancing once per job so a run visits every variant.
fn nth_job(c: usize, n: usize, first_variant: u64) -> (&'static str, u64) {
    let seq = CLIENT_SEQUENCES[c];
    let variant = (first_variant + (n + 4 * c) as u64) % VARIANTS;
    (seq[n % seq.len()], variant)
}

/// One client's jobs, keyed by (label, variant), each with the loop time
/// its result arrived at, and its spans.
type ClientLog = (Vec<((&'static str, u64), Seen, f64)>, Option<Tracer>);

/// Runs the closed loop for `seconds`; each client then finishes the lap
/// it is in, so every lap is whole.
fn closed_loop(
    ctx: &Ctx,
    check: &mut Checker,
    addr: &str,
    seconds: f64,
    tr: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let mut specs: BTreeMap<(&str, u64), (Job, String)> = BTreeMap::new();
    for v in 0..VARIANTS {
        for job in service_jobs(v) {
            let json = serde_json::to_string(&job.spec).map_err(|e| e.to_string())?;
            specs.insert((job.label, v), (job, json));
        }
    }
    let traced = tr.is_some();
    let start = Instant::now();
    let per_client: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_SEQUENCES.len())
            .map(|c| {
                let specs = &specs;
                s.spawn(move || {
                    let mut ctr = traced.then(|| Tracer::new(start));
                    let mut seen = Vec::new();
                    for n in 0.. {
                        let lap_start = n % CLIENT_SEQUENCES[c].len() == 0;
                        if lap_start && start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let key = nth_job(c, n, ctx.variant);
                        let id = (c * 100_000 + n) as u32;
                        let t = ctr.as_mut().map(|t| (t, id));
                        let s = service::run_job(addr, &specs[&key].1, t);
                        seen.push((key, s, start.elapsed().as_secs_f64()));
                    }
                    (seen, ctr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut pass = Pass::default();
    let mut tracers = Vec::new();
    for (c, (seen, ctr)) in per_client.into_iter().enumerate() {
        tracers.extend(ctr);
        let mut laps = Vec::new();
        let (mut lap, mut lap_start) = (Lap::default(), 0.0);
        for (n, ((label, variant), s, at)) in seen.into_iter().enumerate() {
            check.attempted += 1;
            pass.latencies.push(s.done.as_secs_f64());
            let job = &specs[&(label, variant)].0;
            pass.by_label
                .entry(job.label)
                .or_default()
                .push(s.done.as_secs_f64());
            match (&s.error, &s.result) {
                (None, Some(r)) => {
                    let before = check.failed;
                    check.digest(ctx, variant, label, &r.digest, 1);
                    if check.failed == before && workload::crashed(r) > 0 {
                        check.fail(1, format!("{label}/{variant}: a rollout crashed"));
                    }
                    lap.jobs += 1;
                    lap.units += workload::units(r);
                    lap.cycles += workload::sim_cycles(&job.spec, r);
                }
                (Some(e), _) => check.fail(1, format!("{label}/{variant}: {e}")),
                (None, None) => check.fail(1, format!("{label}/{variant}: no result")),
            }
            if (n + 1) % CLIENT_SEQUENCES[c].len() == 0 {
                lap.wall_s = at - lap_start;
                laps.push(std::mem::take(&mut lap));
                lap_start = at;
            }
        }
        pass.laps.push(laps);
    }
    let laps = pass.laps.iter().flatten();
    eprintln!(
        "[perfbench] closed loop: {} laps, {} jobs, {} units in {wall_s:.2} s",
        laps.clone().count(),
        laps.clone().map(|l| l.jobs).sum::<u64>(),
        laps.map(|l| l.units).sum::<u64>(),
    );
    for (label, l) in &pass.by_label {
        eprintln!(
            "[perfbench]   {label:>2}: {} jobs, latency p50 {:.4} s, p90 {:.4} s",
            l.len(),
            median(l),
            quantile(l, 0.9)
        );
    }
    if let Some(tr) = tr {
        for t in tracers {
            tr.absorb(t);
        }
    }
    Ok(pass)
}

pub fn run(ctx: &Ctx, check: &mut Checker) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let daemon = spawn_daemons(ctx, "before", &mut setup)?;
    let addr = daemon.addr.clone();

    let mut m = Metrics::default();
    if !ctx.trace {
        let pass = closed_loop(ctx, check, &addr, ctx.seconds, None)?;
        let rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
        drop(daemon);
        spawn_daemons(ctx, "after", &mut setup)?;
        m.put("units_per_s", pass.per_s(|l| l.units), "1/s");
        m.put("setup_s", median(&setup), "s");
        m.put("sim_cycles_per_s", pass.per_s(|l| l.cycles), "1/s");
        m.put("job_latency_p50_s", median(&pass.latencies), "s");
        m.put("job_latency_p90_s", quantile(&pass.latencies, 0.9), "s");
        m.put("jobs_per_s", pass.per_s(|l| l.jobs), "1/s");
        m.put("peak_rss_mb", rss, "MB");
        return Ok(Outcome {
            metrics: m,
            counters: BTreeMap::new(),
            tracer: None,
        });
    }

    let mut tr = Tracer::new(Instant::now());
    let half = ctx.seconds / 2.0;
    let plain = closed_loop(ctx, check, &addr, half, None)?;
    let traced = closed_loop(ctx, check, &addr, half, Some(&mut tr))?;
    m.put("e2e.untraced.units_per_s", plain.per_s(|l| l.units), "1/s");
    m.put("e2e.traced.units_per_s", traced.per_s(|l| l.units), "1/s");
    m.put(
        "e2e.untraced.job_latency_p50_s",
        median(&plain.latencies),
        "s",
    );
    m.put(
        "e2e.traced.job_latency_p50_s",
        median(&traced.latencies),
        "s",
    );
    let bad = service::healthz(&addr, 20, &mut tr);
    if bad > 0 {
        check.flag(format!("{bad} healthz calls failed"));
    }
    drop(daemon);

    // Every daemon digest was checked against the recorded one-thread
    // in-process run; the same specs at two workers must match it too.
    let jobs = service_jobs(ctx.variant);
    let two = in_process(&jobs, 2)?;
    for (label, r) in &two {
        check.digest(ctx, ctx.variant, label, &r.digest, 0);
    }
    let mut counters = work_counters(&jobs, &two);
    layers::run(ctx, &shape(&jobs), &mut tr, check, &mut m, &mut counters)?;
    crate::put_counters(&mut m, &counters);
    check.recorded(ctx, &counters);
    Ok(Outcome {
        metrics: m,
        counters,
        tracer: Some(tr),
    })
}
