//! Layer probes: rollouts re-driven through each crate's public calls so
//! every layer boundary can be timed from outside the program.
//!
//! A campaign engine steps its networks internally, so its observer stack
//! cannot be timed through the engine. The probes rebuild the same
//! rollouts from the same public pieces — `Network::step_observed`, the
//! `AlertBank` / `Forever` / `RunLog` / `Transport` observers,
//! `Transport::post_step` and the oracle — with every observer wrapped in
//! a [`Timed`] timer, and check each rebuilt rollout against the engine's
//! own result for the same fault, so the per-layer times describe the
//! work the engines really do.

use crate::trace::{StepClock, Timed, Tracer};
use fault::FaultSpec;
use forever::Forever;
use golden::campaign::{RunOutcome, SiteReport};
use golden::recovery::{RecoveryHarness, RecoverySiteReport};
use golden::{classify, Campaign, RunLog};
use noc_sim::{Network, Transport};
use noc_types::site::SiteRef;
use nocalert::{info, AlertBank};
use std::collections::BTreeMap;

/// Exact work counters of a probe pass; they must not depend on timing or
/// on how the pass was split across threads.
pub type Counts = BTreeMap<&'static str, u64>;

fn bump(c: &mut Counts, k: &'static str, v: u64) {
    *c.entry(k).or_insert(0) += v;
}

/// Busy times of one probe pass, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Times {
    pub step: StepClock,
    pub bank_ns: u64,
    pub forever_ns: u64,
    pub runlog_ns: u64,
    pub transport_ns: u64,
    /// `Transport::post_step`, which runs between `step_observed` calls.
    pub post_ns: u64,
}

impl Times {
    fn merge(&mut self, o: &Times) {
        self.step.ns += o.step.ns;
        self.step.cycles += o.step.cycles;
        self.step.router_cycles += o.step.router_cycles;
        self.bank_ns += o.bank_ns;
        self.forever_ns += o.forever_ns;
        self.runlog_ns += o.runlog_ns;
        self.transport_ns += o.transport_ns;
        self.post_ns += o.post_ns;
    }
}

/// Transient rollouts of `sites`, rebuilt from the campaign's public
/// configuration: warm-up under the full observer stack, then per site
/// arm, active window, drain and ForEVeR coda, and the oracle's verdict.
///
/// With `check`, each rollout is also run through
/// `Campaign::run_site_in` (the scalar engine, timed as
/// `golden.campaign.run_site_in`) and must agree on the oracle verdict,
/// both detectors and the asserted checkers.
pub fn transient_rollouts(
    tr: &mut Tracer,
    campaign: &Campaign,
    sites: &[SiteRef],
    check: bool,
) -> Result<(Times, Counts, Vec<SiteReport>), String> {
    let cc = campaign.config();
    let mut net = Network::try_new(cc.noc.clone()).map_err(|e| e.to_string())?;
    let mut obs = (
        Timed::new(AlertBank::new(&cc.noc)),
        Timed::new(Forever::new(&cc.noc, cc.forever_epoch)),
        Timed::new(RunLog::new()),
    );
    let mut warm = StepClock::default();
    for _ in 0..cc.warmup {
        warm.step(&mut net, &mut obs);
    }
    let (snap_net, snap_obs) = (net.clone(), obs.clone());
    let base_forwarded = snap_net.stats().forwarded_flits;
    let mut arena = campaign.arena();
    let mut times = Times::default();
    let mut counts = Counts::new();
    let mut rows = Vec::new();
    for &site in sites {
        net.clone_from(&snap_net);
        obs.clone_from(&snap_obs);
        let spec = FaultSpec::transient(site, campaign.injection_cycle());
        let mut step = StepClock::default();
        net.arm_fault(spec.site, spec.kind, spec.start);
        for _ in 0..cc.active_window {
            step.step(&mut net, &mut obs);
        }
        net.set_injection_enabled(false);
        let drain_end = net.cycle() + cc.drain_deadline;
        let mut drained = false;
        while net.cycle() < drain_end {
            if net.is_drained() {
                drained = true;
                break;
            }
            step.step(&mut net, &mut obs);
        }
        let coda = 2 * cc.forever_epoch + 1;
        if !net.try_fast_forward_quiescent(coda, &mut obs) {
            for _ in 0..coda {
                step.step(&mut net, &mut obs);
            }
        }
        let log = &obs.2.inner;
        let verdict = tr.span("golden.oracle.classify", 0, || {
            classify(campaign.golden(), log, drained)
        });
        let (bank, fv) = (&obs.0.inner, &obs.1.inner);
        if check {
            let r = tr.span("golden.campaign.run_site_in", 0, || {
                campaign.run_site_in(&mut arena, site)
            });
            if r.verdict != verdict
                || r.nocalert.detected != bank.any_asserted()
                || r.forever.detected != fv.any_detected()
                || r.checkers != bank.asserted_set()
            {
                return Err(format!(
                    "transient probe diverged from the engine at {site:?}"
                ));
            }
            rows.push(SiteReport {
                spec,
                outcome: RunOutcome::Completed(r),
                determinism: None,
            });
        }
        times.merge(&Times {
            step,
            bank_ns: obs.0.ns - snap_obs.0.ns,
            forever_ns: obs.1.ns - snap_obs.1.ns,
            runlog_ns: obs.2.ns - snap_obs.2.ns,
            ..Times::default()
        });
        bump(
            &mut counts,
            "noc-sim.forwarded_flits",
            net.stats().forwarded_flits - base_forwarded,
        );
        bump(
            &mut counts,
            "core.assertions",
            bank.assertions().len() as u64,
        );
    }
    Ok((times, counts, rows))
}

/// Closed-loop recovery rollouts of `specs`, rebuilt step by step: the
/// network under the checker bank and the transport, fresh alerts handed
/// to containment, then `Transport::post_step`. With `check`, each
/// rollout also runs through `RecoveryHarness::run` (timed as
/// `golden.recovery.run`) and must agree on end cycle, alert count and
/// transport counters.
pub fn recovery_rollouts(
    tr: &mut Tracer,
    harness: &RecoveryHarness,
    noc: &noc_types::NocConfig,
    specs: &[FaultSpec],
    check: bool,
) -> Result<(Times, Counts, Vec<RecoverySiteReport>), String> {
    let opts = *harness.options();
    let mut times = Times::default();
    let mut counts = Counts::new();
    let mut rows = Vec::new();
    for spec in specs {
        let mut net = Network::try_new(noc.clone()).map_err(|e| e.to_string())?;
        net.enable_recovery(opts.policy);
        let mut bank = Timed::new(AlertBank::new(noc));
        let mut transport = Timed::new(Transport::new(noc, opts.arq));
        net.arm_fault(spec.site, spec.kind, spec.start);
        let mut step = StepClock::default();
        let mut post_ns = 0u64;
        let mut consumed = 0usize;
        let mut step_once =
            |net: &mut Network, bank: &mut Timed<AlertBank>, transport: &mut Timed<Transport>| {
                step.step(net, &mut (&mut *bank, &mut *transport));
                let fresh = bank.inner.events_since(consumed);
                for ev in fresh {
                    if let Some(module) = info(ev.checker).module {
                        net.notify_alert(ev.router, ev.port, ev.vc, module.port_is_output());
                    }
                }
                consumed = bank.inner.assertions().len();
                let t = std::time::Instant::now();
                transport.inner.post_step(net);
                post_ns += t.elapsed().as_nanos() as u64;
            };
        let dog = opts.watchdog;
        let active_end = harness.active_end();
        let mut hung = false;
        while net.cycle() < active_end {
            if net.cycle() >= dog.cycle_budget {
                hung = true;
                break;
            }
            step_once(&mut net, &mut bank, &mut transport);
        }
        if !hung {
            net.set_injection_enabled(false);
            let mut sig = net.progress_signature();
            let mut stalled = 0u64;
            loop {
                if net.is_drained() && transport.inner.quiescent() {
                    break;
                }
                if net.cycle() >= dog.cycle_budget
                    || (transport.inner.quiescent() && stalled >= dog.stall_window)
                {
                    break;
                }
                step_once(&mut net, &mut bank, &mut transport);
                let now = net.progress_signature();
                if now == sig {
                    stalled += 1;
                } else {
                    sig = now;
                    stalled = 0;
                }
            }
        }
        let stats = transport.inner.stats();
        let alerts = bank.inner.assertions().len() as u64;
        if check {
            let run = tr.span("golden.recovery.run", 0, || harness.run(Some(spec)));
            if run.end_cycle != net.cycle() || run.alerts != alerts || run.transport != stats {
                return Err(format!(
                    "recovery probe diverged from the harness at {:?}",
                    spec.site
                ));
            }
            rows.push(RecoverySiteReport { spec: *spec, run });
        }
        times.merge(&Times {
            step,
            bank_ns: bank.ns,
            transport_ns: transport.ns,
            post_ns,
            ..Times::default()
        });
        bump(
            &mut counts,
            "noc-sim.forwarded_flits",
            net.stats().forwarded_flits,
        );
        bump(&mut counts, "core.assertions", alerts);
        bump(
            &mut counts,
            "noc-sim.transport.retransmits",
            stats.retransmits,
        );
    }
    Ok((times, counts, rows))
}

/// Re-runs a probe's rollouts split round-robin over two threads and
/// returns the summed counters, for comparison with the one-thread pass.
pub fn recount_two_threads<T: Copy + Send + Sync>(
    items: &[T],
    pass: impl Fn(&[T]) -> Result<Counts, String> + Sync,
) -> Result<Counts, String> {
    let halves: [Vec<T>; 2] = [
        items.iter().copied().step_by(2).collect(),
        items.iter().copied().skip(1).step_by(2).collect(),
    ];
    let pass = &pass;
    let parts: Vec<Result<Counts, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = halves.iter().map(|h| s.spawn(move || pass(h))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("recount thread panicked".into()))
            })
            .collect()
    });
    let mut total = Counts::new();
    for part in parts {
        for (k, v) in part? {
            bump(&mut total, k, v);
        }
    }
    Ok(total)
}
