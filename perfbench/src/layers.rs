//! The traced run's layer suite: every per-layer metric, measured with
//! spans around public calls into each crate.
//!
//! Each workload runs the whole suite so that every metric is present in
//! every traced run. The suite is shaped by the workload: the probes use
//! the workload's network and job geometry, and the probe sizes favour
//! the layers the workload's own jobs exercise. Layers a workload's jobs
//! bypass (the attack and aging engines for the sweeps, the daemon for
//! the in-process sweeps) are still probed once at the service
//! workload's 4×4 scale; README.md lists which layers are on which
//! workload's path.

use crate::probe::{self, Counts};
use crate::service::{self, Daemon};
use crate::trace::{median, quantile, Tracer};
use crate::workload::{service_jobs, Job};
use crate::{Checker, Ctx, Metrics};
use fault::FaultSpec;
use golden::attack::{standard_cells, AttackHarness};
use golden::campaign::jsonl::{load_shards, Appender};
use golden::recovery::{standard_recovery_specs, RecoveryHarness, RecoveryOptions};
use golden::{CampaignConfig, GoldenCache, JobDriver};
use noc_sim::Network;
use noc_types::{JobEvent, JobResult, JobSpec, NocConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// How large each probe is for one workload.
pub struct Shape {
    /// The workload's network and window geometry.
    pub spec: JobSpec,
    pub transient_sites: usize,
    pub recovery_specs: usize,
    /// Journal the transient probe's rows (else the recovery probe's).
    pub transient_journal: bool,
    /// Start a daemon for the `service.*` metrics (the service workload
    /// measures them in its own traced pass instead).
    pub service_probe: bool,
}

/// The options `JobDriver` gives recovery and attack sweeps.
pub fn sweep_opts(spec: &JobSpec) -> RecoveryOptions {
    RecoveryOptions {
        warmup: spec.warmup,
        active_window: spec.window,
        ..RecoveryOptions::paper_defaults()
    }
}

/// The injection instant `JobDriver` gives recovery and attack sweeps.
pub fn sweep_start(spec: &JobSpec) -> u64 {
    spec.warmup + (spec.window / 4).max(1)
}

/// The first `n` specs of the standard recovery work-list for `spec`.
pub fn recovery_specs(spec: &JobSpec, n: usize) -> Vec<FaultSpec> {
    let mut specs = standard_recovery_specs(&spec.noc, sweep_start(spec), 50, 10);
    specs.truncate(n);
    specs
}

fn ms(xs: &[f64]) -> f64 {
    median(xs) * 1e3
}

fn us(xs: &[f64]) -> f64 {
    median(xs) * 1e6
}

/// Times `n` calls of `f` and returns the median, in seconds.
fn median_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn merge(into: &mut BTreeMap<String, u64>, c: &Counts) {
    for (k, v) in c {
        *into.entry(k.to_string()).or_insert(0) += v;
    }
}

fn to_owned(c: &Counts) -> BTreeMap<String, u64> {
    c.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Appends `rows` (each `reps` times) through one journal shard, timing
/// every append, then reloads the shard directory. Returns the journal's
/// byte count and row count.
fn journal<T: Serialize + Deserialize>(
    tr: &mut Tracer,
    dir: &Path,
    rows: &[T],
    reps: usize,
) -> Result<(u64, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut app = Appender::open_shard(dir, 0).map_err(|e| e.to_string())?;
    for _ in 0..reps {
        for row in rows {
            tr.span("golden.jsonl.append", 0, || app.append(row))
                .map_err(|e| e.to_string())?;
        }
    }
    drop(app);
    let written = (rows.len() * reps) as u64;
    for _ in 0..3 {
        let (loaded, corrupt) = tr
            .span("golden.jsonl.load_shards", 0, || load_shards::<T>(dir))
            .map_err(|e| e.to_string())?;
        if loaded.len() as u64 != written || corrupt != 0 {
            return Err(format!(
                "journal reload returned {} rows ({corrupt} torn) for {written} written",
                loaded.len()
            ));
        }
    }
    let bytes = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok((bytes, written))
}

/// Runs `job` in process, timing its `Progress` events; returns the result
/// and the gaps between consecutive events (the first measured from the
/// call), in seconds.
fn driver_run(driver: &JobDriver, job: &Job) -> Result<(JobResult, Vec<f64>), String> {
    let mut marks = vec![Instant::now()];
    let result = driver
        .run(&job.spec, &mut |e| {
            if matches!(e, JobEvent::Progress { .. }) {
                marks.push(Instant::now());
            }
        })
        .map_err(|e| format!("{}: {e}", job.label))?;
    let gaps = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    Ok((result, gaps))
}

/// Runs the layer suite, adding every per-layer metric except the
/// `e2e.*` pair, `golden.units` and `golden.sim_cycles` (the workloads
/// supply those) and the exact counters to `counters`.
pub fn run(
    ctx: &Ctx,
    shape: &Shape,
    tr: &mut Tracer,
    check: &mut Checker,
    m: &mut Metrics,
    counters: &mut BTreeMap<String, u64>,
) -> Result<(), String> {
    let spec = &shape.spec;
    let noc: &NocConfig = &spec.noc;

    // Golden cache: one cold build, then hits.
    let mut cc = CampaignConfig::paper_defaults(noc.clone(), spec.warmup);
    cc.active_window = spec.window;
    let cache = GoldenCache::new();
    let campaign = tr
        .span("golden.cache.build", 0, || cache.get(&cc))
        .map_err(|e| e.to_string())?;
    let build = tr.durations("golden.cache.build");
    for _ in 0..20 {
        let _ = tr.span("golden.cache.get.hit", 0, || cache.get(&cc));
    }
    m.put("golden.cache.build_s", median(&build), "s");
    m.put(
        "golden.cache.hit_us",
        us(&tr.durations("golden.cache.get.hit")),
        "us",
    );

    let enumerate = median_of(5, || fault::enumerate_sites(noc));
    m.put("fault.enumerate_ms", enumerate * 1e3, "ms");
    let sites = fault::sample::stride(&fault::enumerate_sites(noc), shape.transient_sites);

    // Transient rollouts under timed observers, checked against the
    // scalar engine; then the batched engine on the same sites.
    let (t_times, t_counts, t_rows) = probe::transient_rollouts(tr, &campaign, &sites, true)?;
    let t_recount = probe::recount_two_threads(&sites, |part| {
        probe::transient_rollouts(&mut Tracer::new(Instant::now()), &campaign, part, false)
            .map(|(_, c, _)| c)
    })?;
    check.recount(&to_owned(&t_counts), &to_owned(&t_recount));
    let scalar = tr.durations("golden.campaign.run_site_in");
    m.put(
        "golden.campaign.scalar_units_per_s",
        scalar.len() as f64 / scalar.iter().sum::<f64>(),
        "1/s",
    );
    // The first `run_many` on a fresh campaign builds its lazy golden
    // trajectory (the golden run log and checkpoint ladder).
    let _ = tr.span("golden.campaign.trajectory_build", 0, || {
        campaign.run_many(&sites[..1], 1)
    });
    m.put(
        "golden.campaign.trajectory_build_s",
        median(&tr.durations("golden.campaign.trajectory_build")),
        "s",
    );
    let batched = tr.span("golden.campaign.run_many", 0, || {
        campaign.run_many(&sites, 1)
    });
    let batched_s = tr.durations("golden.campaign.run_many")[0];
    m.put(
        "golden.campaign.batched_units_per_s",
        sites.len() as f64 / batched_s,
        "1/s",
    );
    let scalar_results: Vec<_> = t_rows
        .iter()
        .filter_map(|r| r.outcome.run_result())
        .collect();
    if batched.iter().collect::<Vec<_>>() != scalar_results {
        check.flag("batched engine results differ from the scalar engine's".into());
    }

    // Recovery rollouts under timed observers, checked against the harness.
    let harness =
        RecoveryHarness::try_new(noc.clone(), sweep_opts(spec)).map_err(|e| e.to_string())?;
    let r_specs = recovery_specs(spec, shape.recovery_specs);
    let (r_times, r_counts, r_rows) = probe::recovery_rollouts(tr, &harness, noc, &r_specs, true)?;
    let r_recount = probe::recount_two_threads(&r_specs, |part| {
        probe::recovery_rollouts(&mut Tracer::new(Instant::now()), &harness, noc, part, false)
            .map(|(_, c, _)| c)
    })?;
    check.recount(&to_owned(&r_counts), &to_owned(&r_recount));
    let rollouts = tr.durations("golden.recovery.run");
    m.put("golden.recovery.rollout_ms_p50", ms(&rollouts), "ms");
    m.put(
        "golden.recovery.rollout_ms_p90",
        quantile(&rollouts, 0.9) * 1e3,
        "ms",
    );

    let step_ns = t_times.step.ns + r_times.step.ns;
    let observed_ns = t_times.bank_ns
        + t_times.forever_ns
        + t_times.runlog_ns
        + r_times.bank_ns
        + r_times.transport_ns;
    let router_cycles = (t_times.step.router_cycles + r_times.step.router_cycles) as f64;
    m.put(
        "noc-sim.step_ns_per_router_cycle",
        step_ns.saturating_sub(observed_ns) as f64 / router_cycles,
        "ns",
    );
    m.put(
        "noc-sim.transport_ns_per_cycle",
        (r_times.transport_ns + r_times.post_ns) as f64 / r_times.step.cycles as f64,
        "ns",
    );
    m.put(
        "core.bank_ns_per_router_cycle",
        (t_times.bank_ns + r_times.bank_ns) as f64 / router_cycles,
        "ns",
    );
    m.put(
        "forever.ns_per_router_cycle",
        t_times.forever_ns as f64 / t_times.step.router_cycles as f64,
        "ns",
    );
    m.put(
        "golden.oracle.runlog_ns_per_cycle",
        t_times.runlog_ns as f64 / t_times.step.cycles as f64,
        "ns",
    );
    m.put(
        "golden.oracle.classify_us",
        us(&tr.durations("golden.oracle.classify")),
        "us",
    );
    merge(counters, &t_counts);
    merge(counters, &r_counts);

    // The simulator alone, without an observer: `Network::run`.
    let mut net = Network::try_new(noc.clone()).map_err(|e| e.to_string())?;
    net.run(spec.warmup);
    let bare_cycles = 2_000u64;
    let bare = median_of(3, || {
        let mut n = net.clone();
        n.run(bare_cycles);
        n.cycle()
    });
    m.put(
        "noc-sim.bare_cycles_per_s",
        bare_cycles as f64 / bare,
        "1/s",
    );

    // Attack and aging engines at the service workload's scale.
    let svc = service_jobs(ctx.variant);
    let attack_spec = &svc
        .iter()
        .find(|j| j.label == "A")
        .ok_or("no attack job")?
        .spec;
    let a = attack_spec;
    let cells = standard_cells(
        &a.noc,
        &(0..a.noc.mesh.len() as u16).collect::<Vec<_>>(),
        1,
        sweep_start(a),
        a.noc.seed,
    );
    let attack = AttackHarness::try_new(a.noc.clone(), sweep_opts(a)).map_err(|e| e.to_string())?;
    for cell in cells.iter().take(2) {
        tr.span("golden.attack.run", 0, || {
            attack.run(&cell.spec, cell.fault.as_ref())
        })
        .map_err(|e| e.to_string())?;
    }
    m.put(
        "golden.attack.cell_ms",
        ms(&tr.durations("golden.attack.run")),
        "ms",
    );
    let aging = svc.iter().find(|j| j.label == "G").ok_or("no G job")?;
    let (aging_result, epochs) = driver_run(&JobDriver::default(), aging)?;
    m.put("golden.aging.epoch_ms", ms(&epochs), "ms");

    // The workloads' job spans, recorded before the daemon probe adds its
    // own job to the trace.
    let first = tr.durations("golden.job.first_progress");
    m.put("golden.job.first_progress_s", median(&first), "s");
    m.put(
        "golden.job.chunk_ms",
        ms(&tr.durations("golden.job.chunk")),
        "ms",
    );

    // Journal: the probe rows through `Appender::append`, then reloads.
    let dir = ctx.work_dir.join("journal");
    let (bytes, rows) = if shape.transient_journal {
        journal(tr, &dir, &t_rows, 64usize.div_ceil(t_rows.len()))?
    } else {
        journal(tr, &dir, &r_rows, 64usize.div_ceil(r_rows.len()))?
    };
    let appends = tr.durations("golden.jsonl.append");
    m.put("golden.jsonl.append_us_p50", us(&appends), "us");
    m.put(
        "golden.jsonl.append_us_p90",
        quantile(&appends, 0.9) * 1e6,
        "us",
    );
    m.put(
        "golden.jsonl.load_ms",
        ms(&tr.durations("golden.jsonl.load_shards")),
        "ms",
    );
    m.put(
        "golden.jsonl.bytes_per_unit",
        bytes as f64 / rows as f64,
        "B",
    );
    counters.insert("golden.jsonl.bytes".into(), bytes);
    counters.insert("golden.jsonl.rows".into(), rows);

    // serde: the spec the server parses, the result the client parses.
    let spec_json = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    let result_json = serde_json::to_string(&aging_result).map_err(|e| e.to_string())?;
    let parse = median_of(200, || serde_json::from_str::<JobSpec>(&spec_json));
    m.put("serde.spec_parse_us", parse * 1e6, "us");
    let parse = median_of(20, || serde_json::from_str::<JobResult>(&result_json));
    m.put("serde.result_parse_ms", parse * 1e3, "ms");

    if shape.service_probe {
        let (daemon, _) = Daemon::spawn(&ctx.nocalertd, &ctx.work_dir.join("probe-daemon"))?;
        let t = svc.iter().find(|j| j.label == "T").ok_or("no T job")?;
        let json = serde_json::to_string(&t.spec).map_err(|e| e.to_string())?;
        for id in 0..2 {
            let seen = service::run_job(&daemon.addr, &json, Some((&mut *tr, 1_000 + id)));
            let want = ctx
                .expected
                .records
                .get(&crate::expected::key("service-mixed", ctx.variant))
                .and_then(|r| r.digests.get("T"));
            match (seen.error, seen.result) {
                (Some(e), _) => check.flag(format!("service probe: {e}")),
                (None, Some(r)) if want.is_some_and(|w| *w != r.digest) => check.flag(format!(
                    "service probe: T digest {} is not the recorded one",
                    r.digest
                )),
                _ => {}
            }
        }
        let bad = service::healthz(&daemon.addr, 20, tr);
        if bad > 0 {
            check.flag(format!("service probe: {bad} healthz calls failed"));
        }
    }
    m.put(
        "service.submit_ms",
        ms(&tr.durations("service.submit")),
        "ms",
    );
    m.put(
        "service.queue_wait_ms",
        ms(&tr.durations("service.queue_wait")),
        "ms",
    );
    m.put("service.run_ms", ms(&tr.durations("service.run")), "ms");
    m.put(
        "service.result_ms",
        ms(&tr.durations("service.result")),
        "ms",
    );
    m.put(
        "service.healthz_us",
        us(&tr.durations("service.healthz")),
        "us",
    );
    Ok(())
}
