//! Closed-loop recovery evaluation: detection driving containment, with
//! ARQ transport restoring end-to-end delivery (DESIGN.md §11).
//!
//! The detection campaigns ([`crate::campaign`]) keep NoCAlert purely
//! observational, exactly as the paper evaluates it. This module closes
//! the loop the paper defers to "an accompanying recovery mechanism":
//! every [`nocalert::AssertionEvent`] raised by the checker bank is
//! translated to a containment notification for the simulator's per-router
//! recovery controllers, and the NIC-level ARQ transport retransmits
//! whatever containment destroys. The harness then holds the system to a
//! *delivery* oracle — every offered application message arrives exactly
//! once, uncorrupted — rather than the flit-level golden diff, which by
//! design would flag the (expected, benign) retransmissions.
//!
//! Alert translation: a checker's [`nocalert::CheckerInfo::module`] says
//! whether its port context addresses an input or an output port
//! ([`noc_types::site::ModuleClass::port_is_output`]); output-side alerts
//! are mapped across the link to the downstream input VC inside
//! `Network::notify_alert`. The network-level end-to-end invariance 32
//! (`module == None`) is detection without localization and is not fed to
//! containment. The turn/progress checkers (invariances 1 and 3) stay
//! armed throughout: they are region-aware — once a port is fenced (or
//! fault-region tables install detours), each RC execution is excused
//! only when its output matches the active routing function's answer,
//! re-derived from the recorded fence/region registers — so a misroute
//! inside a degraded route is still caught.

use crate::campaign::jsonl;
use crate::campaign::resilience::catch_payload;
use crate::campaign::CampaignError;
use fault::{FaultSpec, Hang, HangKind, Watchdog};
use noc_sim::{
    ArqConfig, ContainmentEvent, DeliveryRecord, Network, RecoveryPolicy, RecoveryStats, Transport,
    TransportStats,
};
use noc_types::{Cycle, NocConfig, SimError};
use nocalert::{info, AlertBank};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Everything configurable about one recovery rollout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOptions {
    /// Containment escalation thresholds.
    pub policy: RecoveryPolicy,
    /// Retransmission policy of the end-to-end transport.
    pub arq: ArqConfig,
    /// Fault-free warm-up cycles before the measurement window.
    pub warmup: Cycle,
    /// Measured cycles with injection enabled (faults are active here).
    pub active_window: Cycle,
    /// Hang detection: total cycle budget and drain stall window.
    pub watchdog: Watchdog,
}

impl RecoveryOptions {
    /// Defaults matching the detection campaigns' scale: short warm-up, a
    /// measurement window long enough for several ARQ round trips, and the
    /// stock watchdog.
    pub fn paper_defaults() -> RecoveryOptions {
        RecoveryOptions {
            policy: RecoveryPolicy::default_policy(),
            arq: ArqConfig::default_policy(),
            warmup: 500,
            active_window: 6_000,
            watchdog: Watchdog {
                cycle_budget: 200_000,
                stall_window: 2_000,
            },
        }
    }

    /// Validates every nested policy.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid nested policy
    /// ([`noc_types::SimError::ArqInvalid`] /
    /// [`noc_types::SimError::WatchdogInvalid`]).
    pub fn validate(&self) -> Result<(), SimError> {
        self.policy.validate()?;
        self.arq.validate()?;
        self.watchdog.validate()
    }
}

/// How a recovery rollout ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// The network drained and the transport reached quiescence (every
    /// message acknowledged or given up on) inside the watchdog budget.
    Quiescent,
    /// A watchdog tripped first.
    Hung(Hang),
    /// The fault-region map reports a true network partition: the live
    /// graph split into this many components. Cross-partition traffic is
    /// unreachable by construction, so this is a terminal topology state
    /// — reported explicitly, never as a hang.
    Partitioned {
        /// Live components remaining.
        components: u32,
    },
    /// The rollout panicked (only produced by [`RecoveryHarness::run_isolated`]).
    Crashed(String),
}

/// The delivery oracle's judgement of one rollout.
///
/// Retransmissions are expected; what is *not* tolerated is silent loss,
/// duplication towards the application, or a corrupted copy being
/// delivered (corrupted completes are NACKed and never enter the record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryVerdict {
    /// Every offered message was delivered exactly once, uncorrupted.
    ExactlyOnce,
    /// End-to-end delivery was violated.
    Violated {
        /// Offered messages never delivered (in flight at the end or
        /// abandoned).
        undelivered: u64,
        /// Messages the sender abandoned after `max_retries`.
        gave_up: u64,
        /// Application-level duplicate deliveries (dedup failure).
        duplicates: u64,
    },
}

/// Full result of one closed-loop rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRun {
    /// The injected fault, if any.
    pub spec: Option<FaultSpec>,
    /// How the rollout ended.
    pub outcome: RecoveryOutcome,
    /// The delivery oracle's judgement.
    pub verdict: DeliveryVerdict,
    /// Transport counters (offered/delivered/retransmits/ACK overhead…).
    pub transport: TransportStats,
    /// Containment counters (squashes/resets/disables/fenced ports…).
    pub recovery: RecoveryStats,
    /// Every containment action, in order.
    pub trace: Vec<ContainmentEvent>,
    /// Every exactly-once delivery, in arrival order (latency data).
    pub deliveries: Vec<DeliveryRecord>,
    /// Assertions the checker bank raised.
    pub alerts: u64,
    /// Distinct checker ids that asserted, ascending (Table-1 numbering).
    pub checkers: Vec<u8>,
    /// Cycle of the first bank assertion, if any fired.
    pub first_alert_at: Option<Cycle>,
    /// Observable fault activations.
    pub fault_hits: u64,
    /// Final simulation cycle.
    pub end_cycle: Cycle,
}

impl RecoveryRun {
    /// Delivered-to-offered ratio in `[0, 1]` (1.0 when nothing was
    /// offered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.transport.offered == 0 {
            1.0
        } else {
            self.transport.delivered as f64 / self.transport.offered as f64
        }
    }

    /// Wire overhead beyond one transmission per message: retransmissions
    /// plus control packets, per offered message.
    pub fn overhead_per_message(&self) -> f64 {
        if self.transport.offered == 0 {
            return 0.0;
        }
        let extra =
            self.transport.retransmits + self.transport.acks_sent + self.transport.nacks_sent;
        extra as f64 / self.transport.offered as f64
    }
}

/// Judges the transport's end state against exactly-once semantics.
///
/// This is a *delivery* oracle: it asks whether the application saw every
/// offered message exactly once. Whether the network itself drained (it
/// may hold quarantined garbage flits forever under a permanent fault) is
/// the rollout outcome's business, not the verdict's.
pub fn verify_delivery(transport: &Transport) -> DeliveryVerdict {
    let s = transport.stats();
    let mut apps = BTreeSet::new();
    let mut duplicates = 0u64;
    for rec in transport.records() {
        if !apps.insert(rec.app) {
            duplicates += 1;
        }
    }
    let undelivered = s.offered.saturating_sub(s.delivered);
    if undelivered == 0 && duplicates == 0 {
        DeliveryVerdict::ExactlyOnce
    } else {
        DeliveryVerdict::Violated {
            undelivered,
            gave_up: s.gave_up,
            duplicates,
        }
    }
}

/// True when faults on `signal` are *containment-covered*: localizable to
/// one input VC by the checkers that observe them, and fully masked by the
/// VC-granular escalation machine (empirically verified across all four
/// fault classes at every such site).
///
/// What is excluded, and why:
///
/// * `RcDestX`/`RcDestY` — the destination wires feed the minimal-routing
///   checker's *own input cone*, so a corrupted destination routes
///   "correctly" toward the wrong node; only the unlocalized end-to-end
///   invariance fires, and containment has no target.
/// * `VcStateCode` — some stuck-at values wedge the VC state machine in a
///   legal-looking state that raises no alert at all.
/// * `VcOutPort`/`VcOutVc` — bit-flipped but *valid* encodings misroute
///   through legal turns; alerts accumulate too slowly downstream to
///   localize the source VC reliably.
/// * Arbitration and crossbar wires (`Va*`, `Sa*`, `Xbar*`) — the faulty
///   hardware is port-granular; disabling suspect input VCs cannot mask a
///   broken arbiter that corrupts every VC behind its port.
///
/// Faults at non-covered sites remain *detected* (the detection campaigns
/// are unchanged); they are just not guaranteed survivable, and the
/// recovery campaign reports their delivered ratio separately.
pub fn containment_covered(signal: noc_types::site::SignalKind) -> bool {
    // The canonical set lives in `noc-types` so the static detectability
    // prover (`noc-lint --pass detect`) and this harness agree by
    // construction.
    noc_types::site::containment_covered(signal)
}

/// The closed-loop harness: one instance, many rollouts.
#[derive(Debug, Clone)]
pub struct RecoveryHarness {
    cfg: NocConfig,
    opts: RecoveryOptions,
}

impl RecoveryHarness {
    /// Builds a harness after validating `opts`.
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryOptions::validate`] failures.
    pub fn try_new(cfg: NocConfig, opts: RecoveryOptions) -> Result<RecoveryHarness, SimError> {
        opts.validate()?;
        Ok(RecoveryHarness { cfg, opts })
    }

    /// The options the harness runs with.
    pub fn options(&self) -> &RecoveryOptions {
        &self.opts
    }

    /// The cycle at which the measurement window ends and draining begins.
    pub fn active_end(&self) -> Cycle {
        self.opts.warmup.saturating_add(self.opts.active_window)
    }

    /// One closed-loop rollout: inject `spec` (or nothing, for the
    /// baseline), feed every alert to containment, retransmit end to end,
    /// and drain until the transport is quiescent or a watchdog trips.
    pub fn run(&self, spec: Option<&FaultSpec>) -> RecoveryRun {
        self.run_prepared(spec, |_| {})
    }

    /// [`RecoveryHarness::run`] with a pre-damaged topology: `prepare`
    /// runs before the first cycle and may sever links or quarantine
    /// routers outright — how the partition-classification tests build a
    /// mesh that is already split when traffic starts.
    pub fn run_prepared(
        &self,
        spec: Option<&FaultSpec>,
        prepare: impl FnOnce(&mut Network),
    ) -> RecoveryRun {
        let mut lp = self.fresh_loop();
        prepare(&mut lp.net);
        self.finish(spec, lp)
    }

    /// [`RecoveryHarness::run`] behind the campaign panic-isolation
    /// boundary: a panicking rollout becomes a `Crashed` report instead of
    /// taking the sweep down.
    pub fn run_isolated(&self, spec: Option<&FaultSpec>) -> RecoveryRun {
        isolate(spec, || self.run(spec))
    }

    /// The closed loop at cycle 0: a network with containment enabled,
    /// the full checker bank and the ARQ transport.
    fn fresh_loop(&self) -> ClosedLoop {
        let mut net = Network::new(self.cfg.clone());
        net.enable_recovery(self.opts.policy);
        ClosedLoop {
            net,
            // The full bank stays armed: the turn/progress checkers (inv
            // 1/3) are region-aware — degraded routes around fenced ports
            // and fault-region detours are excused per-RC-execution
            // against the recorded routing registers, not by disarming the
            // checkers.
            bank: AlertBank::new(&self.cfg),
            transport: Transport::new(&self.cfg, self.opts.arq),
            consumed: 0,
        }
    }

    /// Whether rollouts injecting at `start` may fork from a shared
    /// fault-free prefix. Up to `start` such a rollout only runs the
    /// active-window loop below both of its exits (the window end and the
    /// cycle budget), so the prefix and a from-scratch rollout step the
    /// very same cycles.
    fn forkable(&self, start: Cycle) -> bool {
        start <= self.active_end().min(self.opts.watchdog.cycle_budget)
    }

    /// The fault-free closed loop stepped to cycle `start` — the state
    /// every [`RecoveryHarness::forkable`] rollout injecting at `start`
    /// shares. Forking from it is exact: before its start an armed fault
    /// is inert ([`noc_sim::FaultPlane::xf`] is the identity and counts
    /// no hits, register upsets fire only at the start cycle itself).
    fn prefix(&self, start: Cycle) -> ClosedLoop {
        let mut lp = self.fresh_loop();
        while lp.net.cycle() < start {
            self.step_once(&mut lp);
        }
        lp
    }

    /// Arms `spec` (or nothing, for the baseline) on `lp` and runs the
    /// rest of the rollout: the active window, the drain under the
    /// watchdog, and the verdict. `lp` is a fresh loop or a fork of a
    /// shared prefix that has not reached `spec`'s start.
    fn finish(&self, spec: Option<&FaultSpec>, mut lp: ClosedLoop) -> RecoveryRun {
        if let Some(s) = spec {
            lp.net.arm_fault(s.site, s.kind, s.start);
        }

        let dog = self.opts.watchdog;
        let active_end = self.active_end();
        let mut hang: Option<Hang> = None;

        while lp.net.cycle() < active_end {
            if lp.net.cycle() >= dog.cycle_budget {
                hang = Some(Hang {
                    kind: HangKind::CycleBudget,
                    at_cycle: lp.net.cycle(),
                    stalled_for: 0,
                });
                break;
            }
            self.step_once(&mut lp);
        }

        if hang.is_none() {
            lp.net.set_injection_enabled(false);
            let mut sig = lp.net.progress_signature();
            let mut stalled: Cycle = 0;
            loop {
                if lp.net.is_drained() && lp.transport.quiescent() {
                    break;
                }
                if lp.net.cycle() >= dog.cycle_budget {
                    hang = Some(Hang {
                        kind: HangKind::CycleBudget,
                        at_cycle: lp.net.cycle(),
                        stalled_for: stalled,
                    });
                    break;
                }
                // A non-quiescent transport is waiting on an armed
                // retransmission timer — progress resumes by construction,
                // so the stall check only applies once it has nothing left.
                if lp.transport.quiescent() && stalled >= dog.stall_window {
                    hang = Some(Hang {
                        kind: HangKind::NoProgress,
                        at_cycle: lp.net.cycle(),
                        stalled_for: stalled,
                    });
                    break;
                }
                self.step_once(&mut lp);
                let now = lp.net.progress_signature();
                if now == sig {
                    stalled += 1;
                } else {
                    sig = now;
                    stalled = 0;
                }
            }
        }

        let ClosedLoop {
            net,
            bank,
            transport,
            ..
        } = lp;
        let verdict = verify_delivery(&transport);
        // Partition classification outranks the watchdog: a mesh split in
        // two genuinely cannot deliver cross-partition traffic, and
        // reporting that as `Hung` would blame the routing for a topology
        // fact.
        let partition = net
            .fault_region_map()
            .filter(|m| m.partitioned())
            .map(|m| m.live_components());
        let outcome = match (partition, hang) {
            (Some(components), _) => RecoveryOutcome::Partitioned { components },
            (None, Some(h)) => RecoveryOutcome::Hung(h),
            (None, None) => RecoveryOutcome::Quiescent,
        };
        RecoveryRun {
            spec: spec.copied(),
            outcome,
            verdict,
            transport: transport.stats(),
            recovery: net.recovery_stats(),
            trace: net.recovery_trace().to_vec(),
            deliveries: transport.records().to_vec(),
            alerts: bank.assertions().len() as u64,
            checkers: bank.asserted_set().iter().map(|c| c.0).collect(),
            first_alert_at: bank.assertions().first().map(|e| e.cycle),
            fault_hits: net.fault_hits(),
            end_cycle: net.cycle(),
        }
    }

    /// One simulated cycle of the closed loop: step the network under the
    /// checker bank and the transport, hand fresh alerts to containment
    /// (applied by the network at the start of the next cycle — the
    /// one-cycle reaction latency of a real alert wire), then let the
    /// transport fabricate control packets and fire timers.
    fn step_once(&self, lp: &mut ClosedLoop) {
        lp.net.step_observed(&mut (&mut lp.bank, &mut lp.transport));
        let fresh = lp.bank.events_since(lp.consumed);
        lp.consumed = lp.bank.assertions().len();
        for ev in fresh {
            if let Some(module) = info(ev.checker).module {
                lp.net
                    .notify_alert(ev.router, ev.port, ev.vc, module.port_is_output());
            }
        }
        lp.transport.post_step(&mut lp.net);
    }
}

/// The closed loop between two cycles: the network, its checker bank,
/// the ARQ transport, and how many bank assertions containment has
/// already consumed. Cloning it forks a rollout.
#[derive(Debug, Clone)]
struct ClosedLoop {
    net: Network,
    bank: AlertBank,
    transport: Transport,
    consumed: usize,
}

/// Runs one rollout behind the campaign panic-isolation boundary: a
/// panic becomes a `Crashed` report for `spec` instead of taking the
/// sweep down.
fn isolate(spec: Option<&FaultSpec>, rollout: impl FnOnce() -> RecoveryRun) -> RecoveryRun {
    match catch_payload(rollout) {
        Ok(run) => run,
        Err(panic) => RecoveryRun {
            spec: spec.copied(),
            outcome: RecoveryOutcome::Crashed(panic),
            verdict: DeliveryVerdict::Violated {
                undelivered: 0,
                gave_up: 0,
                duplicates: 0,
            },
            transport: TransportStats::default(),
            recovery: RecoveryStats::default(),
            trace: Vec::new(),
            deliveries: Vec::new(),
            alerts: 0,
            checkers: Vec::new(),
            first_alert_at: None,
            fault_hits: 0,
            end_cycle: 0,
        },
    }
}

/// The standard recovery work-list: every containment-covered fault
/// site crossed with all five fault classes (transient, intermittent,
/// permanent, stuck-at-0, stuck-at-1), site-major. The five specs of a
/// site carry distinct [`noc_types::FaultKind`]s, so each spec is a
/// unique journal key. `start` is the injection instant; `period`/`duty`
/// shape the intermittent class.
pub fn standard_recovery_specs(
    cfg: &NocConfig,
    start: Cycle,
    period: u32,
    duty: u32,
) -> Vec<FaultSpec> {
    fault::enumerate_sites(cfg)
        .into_iter()
        .filter(|s| containment_covered(s.signal))
        .flat_map(|site| {
            [
                FaultSpec::transient(site, start),
                FaultSpec::intermittent(site, period, duty, start),
                FaultSpec::permanent(site, start),
                FaultSpec::stuck_at(site, false, start),
                FaultSpec::stuck_at(site, true, start),
            ]
        })
        .collect()
}

/// Everything that identifies a recovery campaign: rollouts computed
/// under different configurations cannot be mixed, so the journal
/// refuses a directory whose config differs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCampaignConfig {
    /// Network configuration.
    pub noc: NocConfig,
    /// Closed-loop rollout options.
    pub opts: RecoveryOptions,
}

/// One journal line: a fault spec and its completed rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySiteReport {
    /// The injected fault.
    pub spec: FaultSpec,
    /// Its rollout result.
    pub run: RecoveryRun,
}

/// Aggregated campaign result, in input-spec order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCampaignReport {
    /// One report per input spec (specs missing after a cancelled sweep
    /// are absent and flagged via `interrupted`).
    pub reports: Vec<RecoverySiteReport>,
    /// Specs restored from the journal instead of re-run.
    pub resumed: usize,
    /// Torn trailing journal lines skipped on resume (mid-shard
    /// corruption is refused as a structured error, never skipped).
    pub corrupt_lines: usize,
    /// True when cancellation stopped the sweep before every spec ran.
    pub interrupted: bool,
}

impl RecoveryCampaignReport {
    /// Rollouts whose delivery verdict was exactly-once.
    pub fn exactly_once(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.run.verdict == DeliveryVerdict::ExactlyOnce)
            .count()
    }
}

/// Resilience knobs of the recovery sweep (mirrors
/// [`crate::campaign::ResilienceOptions`]).
#[derive(Debug, Default)]
pub struct RecoveryCampaignOptions {
    /// Journal directory for kill-safe incremental progress.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load previously completed specs from the journal instead of
    /// refusing a populated directory.
    pub resume: bool,
    /// Cooperative cancellation flag, checked between rollouts.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RecoveryCampaignOptions {
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// The recovery journal: `meta.json` pins the configuration,
/// `shard-w<worker>.jsonl` holds one [`RecoverySiteReport`] per line.
/// Durability semantics are the shared [`jsonl`] substrate's.
#[derive(Debug, Clone)]
struct RecoveryJournal {
    dir: PathBuf,
}

impl RecoveryJournal {
    fn open(
        dir: impl Into<PathBuf>,
        cc: &RecoveryCampaignConfig,
    ) -> Result<RecoveryJournal, CampaignError> {
        let dir = dir.into();
        jsonl::ensure_meta(&dir, 1, cc)?;
        Ok(RecoveryJournal { dir })
    }
}

/// A shared fault-free prefix and the injection cycle it was stepped
/// to; `None` when building it panicked.
type SharedPrefix = (Cycle, Option<Arc<ClosedLoop>>);

/// The recovery sweep driver: panic isolation per rollout, optional
/// JSONL journalling with resume, cooperative cancellation, and
/// round-robin worker sharding. Reports are reassembled in input-spec
/// order, so the aggregate is bit-identical for any worker count.
///
/// Rollouts that inject at the same cycle fork from one shared
/// fault-free prefix instead of each re-simulating it (DESIGN.md §11).
/// The prefix is built by the first [`RecoveryCampaign::run_specs`] call
/// that can use it and lives exactly as long as the campaign.
#[derive(Debug)]
pub struct RecoveryCampaign {
    cc: RecoveryCampaignConfig,
    harness: RecoveryHarness,
    prefix: Mutex<Option<SharedPrefix>>,
}

impl RecoveryCampaign {
    /// Builds the campaign after validating the rollout options.
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryOptions::validate`] failures.
    pub fn try_new(cc: RecoveryCampaignConfig) -> Result<RecoveryCampaign, CampaignError> {
        let harness =
            RecoveryHarness::try_new(cc.noc.clone(), cc.opts).map_err(CampaignError::Substrate)?;
        Ok(RecoveryCampaign {
            cc,
            harness,
            prefix: Mutex::new(None),
        })
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &RecoveryCampaignConfig {
        &self.cc
    }

    /// The shared prefix for `todo`: the cached one while some spec of
    /// `todo` still injects at its cycle, else one built for the first
    /// forkable spec (replacing the cache). The build runs behind the
    /// panic boundary; a panicking build is cached as `None`, so those
    /// specs run from cycle 0 through [`RecoveryHarness::run_isolated`]
    /// and crash there exactly as they would have without a prefix.
    fn shared_prefix(&self, todo: &[FaultSpec]) -> Option<(Cycle, Arc<ClosedLoop>)> {
        let mut slot = self.prefix.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = slot
            .as_ref()
            .is_some_and(|(start, _)| todo.iter().any(|s| s.start == *start));
        if !cached {
            let start = todo
                .iter()
                .map(|s| s.start)
                .find(|&start| self.harness.forkable(start))?;
            let built = catch_payload(|| self.harness.prefix(start)).ok();
            *slot = Some((start, built.map(Arc::new)));
        }
        let (start, lp) = slot.as_ref()?;
        Some((*start, Arc::clone(lp.as_ref()?)))
    }

    /// Runs every spec, `threads`-wide. One report per input spec, in
    /// input order; specs already present in a resumed journal are not
    /// re-run.
    ///
    /// # Errors
    ///
    /// Journal I/O and configuration-mismatch failures; per-rollout
    /// crashes are *outcomes*, not errors.
    pub fn run_specs(
        &self,
        specs: &[FaultSpec],
        threads: usize,
        opts: &RecoveryCampaignOptions,
    ) -> Result<RecoveryCampaignReport, CampaignError> {
        let journal = match &opts.checkpoint_dir {
            Some(dir) => Some(RecoveryJournal::open(dir, &self.cc)?),
            None => None,
        };
        let mut done: HashMap<FaultSpec, RecoverySiteReport> = HashMap::new();
        let mut corrupt_lines = 0usize;
        if let Some(j) = &journal {
            let (reports, corrupt) = jsonl::load_shards::<RecoverySiteReport>(&j.dir)?;
            if !opts.resume && !reports.is_empty() {
                return Err(CampaignError::Checkpoint {
                    path: j.dir.clone(),
                    detail: format!(
                        "directory already holds {} completed rollouts; pass resume=true to continue or point at a fresh directory",
                        reports.len()
                    ),
                });
            }
            if opts.resume {
                corrupt_lines = corrupt;
                for r in reports {
                    done.insert(r.spec, r); // later shards win on duplicates
                }
            }
        }
        let resumed = specs.iter().filter(|s| done.contains_key(s)).count();
        let todo: Vec<FaultSpec> = specs
            .iter()
            .copied()
            .filter(|s| !done.contains_key(s))
            .collect();

        let prefix = self.shared_prefix(&todo);
        let run_spec = |spec: &FaultSpec| -> RecoverySiteReport {
            let run = match &prefix {
                Some((start, lp)) if spec.start == *start => isolate(Some(spec), || {
                    self.harness.finish(Some(spec), ClosedLoop::clone(lp))
                }),
                _ => self.harness.run_isolated(Some(spec)),
            };
            RecoverySiteReport { spec: *spec, run }
        };

        // Round-robin sharding, like the fault campaigns: worker `w` takes
        // specs `w`, `w+workers`, …, so the shard a rollout lands in is a
        // pure function of its index and the worker count.
        let workers = threads.min(todo.len()).max(1);
        let writers = (0..workers)
            .map(|i| {
                journal
                    .as_ref()
                    .map(|j| jsonl::Appender::open_shard(&j.dir, i))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shard = |w: usize, mut writer: Option<jsonl::Appender>| {
            let mut out = Vec::new();
            for spec in todo.iter().skip(w).step_by(workers) {
                if opts.cancelled() {
                    break;
                }
                let rep = run_spec(spec);
                if let Some(wr) = &mut writer {
                    wr.append(&rep)?;
                }
                out.push(rep);
            }
            Ok::<_, CampaignError>(out)
        };
        let shard = &shard;
        let results = std::thread::scope(|scope| {
            let mut writers = writers.into_iter().enumerate();
            let first = writers.next().and_then(|(_, w)| w);
            let handles: Vec<_> = writers
                .map(|(w, writer)| scope.spawn(move || shard(w, writer)))
                .collect();
            // The calling thread is worker 0: one thread (and one allocator
            // arena) fewer than a spawned pool.
            let mut results = vec![panic::catch_unwind(AssertUnwindSafe(|| shard(0, first)))];
            for h in handles {
                results.push(h.join());
            }
            results
        });
        for r in results {
            match r {
                Ok(Ok(fresh)) => done.extend(fresh.into_iter().map(|r| (r.spec, r))),
                Ok(Err(e)) => return Err(e),
                Err(p) => {
                    return Err(CampaignError::WorkerLost {
                        detail: format!("{p:?}"),
                    })
                }
            }
        }
        let mut reports = Vec::with_capacity(specs.len());
        let mut interrupted = false;
        for spec in specs {
            match done.get(spec) {
                Some(r) => reports.push(r.clone()),
                None => interrupted = true,
            }
        }
        Ok(RecoveryCampaignReport {
            reports,
            resumed,
            corrupt_lines,
            interrupted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> RecoveryOptions {
        RecoveryOptions {
            warmup: 200,
            active_window: 1_500,
            watchdog: Watchdog {
                cycle_budget: 60_000,
                stall_window: 1_500,
            },
            ..RecoveryOptions::paper_defaults()
        }
    }

    #[test]
    fn options_validation_propagates() {
        let mut opts = RecoveryOptions::paper_defaults();
        assert!(opts.validate().is_ok());
        opts.watchdog.cycle_budget = 0;
        assert!(opts.validate().is_err());
        opts = RecoveryOptions::paper_defaults();
        opts.arq.ack_timeout = 0;
        assert!(opts.validate().is_err());
        opts = RecoveryOptions::paper_defaults();
        opts.policy.reset_threshold = 0;
        assert!(opts.validate().is_err());
    }

    #[test]
    fn fault_free_baseline_is_exactly_once_with_no_containment() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        let h = RecoveryHarness::try_new(cfg, small_opts()).expect("valid options");
        let run = h.run(None);
        assert_eq!(run.outcome, RecoveryOutcome::Quiescent);
        assert_eq!(run.verdict, DeliveryVerdict::ExactlyOnce);
        assert_eq!(run.alerts, 0, "fault-free runs never assert");
        assert_eq!(run.recovery.alerts_consumed, 0);
        assert!(run.trace.is_empty());
        assert!(run.transport.offered > 0);
        assert_eq!(run.transport.retransmits, 0);
        assert_eq!(run.delivery_ratio(), 1.0);
    }

    #[test]
    fn campaign_resume_is_bit_identical_at_any_worker_count() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        let cc = RecoveryCampaignConfig {
            noc: cfg.clone(),
            opts: small_opts(),
        };
        let campaign = RecoveryCampaign::try_new(cc).expect("valid");
        let specs: Vec<FaultSpec> = standard_recovery_specs(&cfg, 1_200, 50, 10)
            .into_iter()
            .take(4)
            .collect();
        assert_eq!(specs.len(), 4);
        let dir = std::env::temp_dir().join(format!("nocalert-rcamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RecoveryCampaignOptions {
            checkpoint_dir: Some(dir.clone()),
            ..RecoveryCampaignOptions::default()
        };
        let first = campaign.run_specs(&specs, 2, &opts).expect("first run");
        assert_eq!(first.reports.len(), 4);
        assert!(!first.interrupted);

        // Populated dir without resume is refused.
        let err = campaign.run_specs(&specs, 1, &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err:?}");

        // Resume at a different worker count restores everything
        // bit-identically without re-running.
        let resumed = campaign
            .run_specs(
                &specs,
                3,
                &RecoveryCampaignOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    cancel: None,
                },
            )
            .expect("resume");
        assert_eq!(resumed.resumed, 4);
        assert_eq!(resumed.reports, first.reports);

        // A memory-only run at yet another worker count agrees too.
        let direct = campaign
            .run_specs(&specs, 1, &RecoveryCampaignOptions::default())
            .expect("direct");
        assert_eq!(direct.reports, first.reports);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_keeps_one_prefix_keyed_by_injection_cycle() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        let campaign = RecoveryCampaign::try_new(RecoveryCampaignConfig {
            noc: cfg.clone(),
            opts: small_opts(),
        })
        .expect("valid");
        let at = |start: Cycle| -> Vec<FaultSpec> {
            standard_recovery_specs(&cfg, start, 50, 10)
                .into_iter()
                .take(2)
                .collect()
        };
        let cached = || {
            let slot = campaign.prefix.lock().expect("unpoisoned");
            slot.as_ref().map(|(start, lp)| {
                let lp = Arc::clone(lp.as_ref().expect("prefix built"));
                assert_eq!(lp.net.cycle(), *start, "prefix stepped to its key");
                (*start, lp)
            })
        };
        let none = RecoveryCampaignOptions::default();
        assert!(cached().is_none(), "the constructor builds no prefix");

        campaign.run_specs(&at(500), 2, &none).expect("sweep");
        let (start, first) = cached().expect("built on first use");
        assert_eq!(start, 500);

        // Still in use by part of the next work-list: kept, not rebuilt.
        let mixed = [at(800), at(500)].concat();
        campaign.run_specs(&mixed, 1, &none).expect("sweep");
        let (start, kept) = cached().expect("kept");
        assert_eq!(start, 500);
        assert!(Arc::ptr_eq(&first, &kept));

        // No spec past the active window can use a prefix: cache untouched.
        let late = at(campaign.harness.active_end() + 1);
        campaign.run_specs(&late, 1, &none).expect("sweep");
        assert!(Arc::ptr_eq(&first, &cached().expect("kept").1));

        campaign.run_specs(&at(800), 1, &none).expect("sweep");
        assert_eq!(cached().expect("re-keyed").0, 800);
    }

    #[test]
    fn a_panicking_prefix_build_falls_back_to_isolated_rollouts() {
        let cfg = NocConfig::small_test();
        let specs: Vec<FaultSpec> = standard_recovery_specs(&cfg, 500, 50, 10)
            .into_iter()
            .take(3)
            .collect();
        // Invalid traffic: `Network::new` panics in every rollout and in
        // the prefix build alike.
        let mut broken = cfg;
        broken.injection_rate = 2.0;
        let campaign = RecoveryCampaign::try_new(RecoveryCampaignConfig {
            noc: broken.clone(),
            opts: small_opts(),
        })
        .expect("options are valid");
        let report = campaign
            .run_specs(&specs, 2, &RecoveryCampaignOptions::default())
            .expect("crashes are outcomes");
        let harness = RecoveryHarness::try_new(broken, small_opts()).expect("valid options");
        for (spec, rep) in specs.iter().zip(&report.reports) {
            assert!(matches!(rep.run.outcome, RecoveryOutcome::Crashed(_)));
            assert_eq!(rep.run, harness.run_isolated(Some(spec)));
        }
        let slot = campaign.prefix.lock().expect("unpoisoned");
        assert!(matches!(slot.as_ref(), Some((500, None))));
    }

    #[test]
    fn crashed_runs_are_contained() {
        // The harness itself should not panic on a degenerate zero-node
        // exercise of run_isolated's happy path; the Crashed arm is
        // exercised indirectly by the campaign resilience tests.
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.02;
        let h = RecoveryHarness::try_new(cfg, small_opts()).expect("valid options");
        let run = h.run_isolated(None);
        assert_eq!(run.outcome, RecoveryOutcome::Quiescent);
    }
}
