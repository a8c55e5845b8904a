//! Shared-prefix forking of recovery rollouts (DESIGN.md §11).
//!
//! A [`RecoveryCampaign`] steps the fault-free closed loop once up to
//! the injection cycle and forks every rollout from a clone of that
//! state. These tests pin that a forked rollout is indistinguishable from
//! a from-scratch [`RecoveryHarness::run`] — the whole [`RecoveryRun`],
//! down to the delivery log and the containment trace — and that every
//! spec the fork does not apply to (mixed starts, injection after the
//! active window or at/after the cycle budget) falls back to the
//! from-scratch path with the same result. The job-level test pins that
//! a recovery job's digest is unchanged across worker counts and a
//! checkpoint resume.

use fault::FaultSpec;
use noc_types::site::SignalKind;
use noc_types::{Cycle, JobKind, JobSpec, NocConfig};
use nocalert_golden::{
    containment_covered, digest_rows, standard_recovery_specs, DeliveryVerdict, JobDriver,
    RecoveryCampaign, RecoveryCampaignConfig, RecoveryCampaignOptions, RecoveryHarness,
    RecoveryOptions, RecoveryOutcome, RecoveryRun, RecoverySiteReport,
};
use std::collections::BTreeSet;

/// The canonical 8×8 / 2-VC sweep mesh of the recovery and perf sweeps.
fn sweep_noc() -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc
}

fn small_noc() -> NocConfig {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.05;
    noc
}

/// Short windows and a tight watchdog keep the debug-build test
/// affordable; rollouts that outlive `budget` end `Hung`, which is one
/// more path the fork must reproduce.
fn opts(warmup: Cycle, window: Cycle, budget: Cycle) -> RecoveryOptions {
    let mut o = RecoveryOptions::paper_defaults();
    o.warmup = warmup;
    o.active_window = window;
    o.watchdog.cycle_budget = budget;
    o.watchdog.stall_window = 1_000;
    o
}

/// One site per containment-covered signal (the middle one of its
/// instances, so it sits on a router that carries traffic) × all five
/// fault classes, injected at `start`.
fn covered_specs(noc: &NocConfig, start: Cycle) -> Vec<FaultSpec> {
    let sites = fault::enumerate_sites(noc);
    let signals: BTreeSet<SignalKind> = sites
        .iter()
        .map(|s| s.signal)
        .filter(|&sig| containment_covered(sig))
        .collect();
    assert_eq!(signals.len(), 5, "every containment-covered signal");
    signals
        .into_iter()
        .flat_map(|sig| {
            let of_sig: Vec<_> = sites.iter().filter(|s| s.signal == sig).collect();
            let site = *of_sig[of_sig.len() / 2];
            [
                FaultSpec::transient(site, start),
                FaultSpec::intermittent(site, 50, 10, start),
                FaultSpec::permanent(site, start),
                FaultSpec::stuck_at(site, false, start),
                FaultSpec::stuck_at(site, true, start),
            ]
        })
        .collect()
}

/// Runs `specs` through the campaign (forked where eligible) and checks
/// every report against a from-scratch harness rollout. Returns how many
/// rollouts saw the fault flip a wire, so callers can insist the sweep
/// exercised post-injection dynamics rather than only vacuous faults.
fn assert_campaign_matches_harness(
    campaign: &RecoveryCampaign,
    harness: &RecoveryHarness,
    specs: &[FaultSpec],
    threads: usize,
) -> usize {
    let report = campaign
        .run_specs(specs, threads, &RecoveryCampaignOptions::default())
        .expect("memory-only sweep");
    assert_eq!(report.reports.len(), specs.len());
    assert!(!report.interrupted);
    // The from-scratch references, computed on two threads.
    let scratch: Vec<RecoveryRun> = std::thread::scope(|scope| {
        let (a, b) = specs.split_at(specs.len() / 2);
        let other = scope.spawn(|| b.iter().map(|s| harness.run(Some(s))).collect::<Vec<_>>());
        let mut runs: Vec<RecoveryRun> = a.iter().map(|s| harness.run(Some(s))).collect();
        runs.extend(other.join().expect("reference worker"));
        runs
    });
    let mut hit = 0;
    for ((spec, rep), scratch) in specs.iter().zip(&report.reports).zip(scratch) {
        assert_eq!(rep.spec, *spec);
        // The whole run, including the delivery log and containment trace.
        assert_eq!(rep.run, scratch, "{spec:?}");
        hit += usize::from(scratch.fault_hits > 0);
    }
    hit
}

/// Every covered signal × every fault class at the three characteristic
/// injection cycles: the first active cycle, the sweeps' start (a quarter
/// into the window), and the window's end.
fn assert_forks_exact(noc: NocConfig, warmup: Cycle, window: Cycle, budget: Cycle) {
    let o = opts(warmup, window, budget);
    let harness = RecoveryHarness::try_new(noc.clone(), o).expect("valid options");
    // One campaign for all three starts: each call re-keys its prefix.
    let campaign = RecoveryCampaign::try_new(RecoveryCampaignConfig {
        noc: noc.clone(),
        opts: o,
    })
    .expect("valid options");
    let mut hit = 0;
    for start in [warmup, warmup + window / 4, warmup + window] {
        hit += assert_campaign_matches_harness(&campaign, &harness, &covered_specs(&noc, start), 2);
    }
    assert!(hit > 0, "no rollout activated its fault");
}

#[test]
fn forked_rollouts_equal_scratch_rollouts_on_small_test() {
    assert_forks_exact(small_noc(), 200, 600, 10_000);
}

#[test]
fn forked_rollouts_equal_scratch_rollouts_on_the_8x8_sweep_config() {
    assert_forks_exact(sweep_noc(), 100, 400, 2_500);
}

#[test]
fn mixed_and_ineligible_starts_fall_back_to_scratch_rollouts() {
    let noc = small_noc();
    let o = opts(200, 1_200, 10_000);
    let harness = RecoveryHarness::try_new(noc.clone(), o).expect("valid options");
    let campaign = RecoveryCampaign::try_new(RecoveryCampaignConfig {
        noc: noc.clone(),
        opts: o,
    })
    .expect("valid options");
    let base = covered_specs(&noc, 0);
    let at = |i: usize, start: Cycle| FaultSpec { start, ..base[i] };
    let active_end = harness.active_end();
    // Interleaved starts: one of them forks, the others run from cycle 0;
    // two are past the active window, where no prefix applies.
    let specs = [
        at(0, 500),
        at(1, 300),
        at(2, 500),
        at(3, active_end + 150),
        at(4, 300),
        at(5, active_end + 1),
    ];
    assert_campaign_matches_harness(&campaign, &harness, &specs, 2);
    // A spec list with no forkable start at all.
    assert_campaign_matches_harness(&campaign, &harness, &specs[3..4], 1);
}

#[test]
fn injection_at_or_after_the_cycle_budget_matches_scratch_rollouts() {
    let noc = small_noc();
    let mut o = opts(200, 1_200, 10_000);
    // A budget inside the active window: the rollout hangs on it before
    // the window ends, whether or not the fault ever starts.
    o.watchdog.cycle_budget = 900;
    let harness = RecoveryHarness::try_new(noc.clone(), o).expect("valid options");
    let campaign = RecoveryCampaign::try_new(RecoveryCampaignConfig {
        noc: noc.clone(),
        opts: o,
    })
    .expect("valid options");
    let base = covered_specs(&noc, 0);
    for start in [899, 900, 901, 5_000] {
        let specs: Vec<FaultSpec> = base[..5]
            .iter()
            .map(|s| FaultSpec { start, ..*s })
            .collect();
        assert_campaign_matches_harness(&campaign, &harness, &specs, 2);
        let run = harness.run(Some(&specs[0]));
        assert!(
            matches!(run.outcome, RecoveryOutcome::Hung(ref h) if h.at_cycle == 900),
            "{:?}",
            run.outcome
        );
    }
}

#[test]
fn recovery_job_digest_is_unchanged_across_worker_counts_and_resume() {
    let mut noc = NocConfig::paper_baseline();
    noc.mesh = noc_types::Mesh::new(3, 3);
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    let spec = |limit: u32, threads: u32| JobSpec {
        kind: JobKind::Recovery,
        noc: noc.clone(),
        warmup: 200,
        window: 1_200,
        limit: Some(limit),
        threads,
    };
    let run = |driver: &JobDriver, s: &JobSpec| driver.run(s, &mut |_| {}).expect("job runs");

    let reference = run(&JobDriver::default(), &spec(10, 1));
    assert!(!reference.interrupted);
    assert_eq!(reference.incidents.len(), 10);
    assert_eq!(
        run(&JobDriver::default(), &spec(10, 3)).digest,
        reference.digest
    );

    // The same rollouts from scratch, one harness run each, journal order.
    let o = RecoveryOptions {
        warmup: 200,
        active_window: 1_200,
        ..RecoveryOptions::paper_defaults()
    };
    let harness = RecoveryHarness::try_new(noc.clone(), o).expect("valid options");
    let specs: Vec<FaultSpec> = standard_recovery_specs(&noc, 200 + 300, 50, 10)
        .into_iter()
        .take(10)
        .collect();
    let rows: Vec<_> = specs
        .iter()
        .map(|s| RecoverySiteReport {
            spec: *s,
            run: harness.run(Some(s)),
        })
        .collect();
    assert!(rows
        .iter()
        .any(|r| r.run.verdict == DeliveryVerdict::ExactlyOnce));
    assert_eq!(digest_rows(&rows), reference.digest);

    // Kill-and-resume: a job that stopped after 3 rollouts is resumed by a
    // fresh driver (and a fresh campaign, so a fresh prefix) at a different
    // worker count.
    let dir = std::env::temp_dir().join(format!("nocalert-rfork-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = JobDriver {
        checkpoint_dir: Some(dir.clone()),
        ..JobDriver::default()
    };
    run(&first, &spec(3, 1));
    let resumed_driver = JobDriver {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..JobDriver::default()
    };
    let resumed = run(&resumed_driver, &spec(10, 2));
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.digest, reference.digest);
    std::fs::remove_dir_all(&dir).expect("clean up journal");
}
