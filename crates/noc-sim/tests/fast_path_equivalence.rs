//! Live-VC fast path ↔ full-wire reference.
//!
//! A router with no fault or probe armed steps through identity wires and
//! visits only its busy VCs (or is skipped outright when quiescent). A
//! router with a fault or probe armed steps through the fault plane and
//! scans every VC. Arming an inert pass-through probe on *every* router
//! therefore forces the whole mesh onto the full scan: that copy is the
//! reference. Each test steps a reference and an unprobed copy in lockstep
//! and demands the same per-router `CycleRecord`s every cycle, the same
//! injections and ejections, and (without recovery) equal final state.
//!
//! The faulted runs arm one real fault, on both copies, on a router in the
//! middle of the mesh: that router takes the full scan in both, and its
//! clean neighbours in the fast copy receive its corrupted output — VC ids
//! out of range, stale replays, body flits arriving at idle VCs.

use noc_sim::vc::VirtualChannel;
use noc_sim::{ArmedFault, Network, Observer, RecoveryPolicy};
use noc_types::{
    BufferPolicy, Coord, Cycle, CycleRecord, Direction, EjectEvent, FaultKind, Flit, Mesh,
    NocConfig, RoutingAlgorithm, SignalKind, SiteRef,
};

/// Everything one cycle showed an observer, in order.
#[derive(Default)]
struct Tape {
    records: Vec<CycleRecord>,
    injects: Vec<Flit>,
    ejects: Vec<EjectEvent>,
}

impl Tape {
    fn clear(&mut self) {
        self.records.clear();
        self.injects.clear();
        self.ejects.clear();
    }
}

impl Observer for Tape {
    fn on_cycle_record(&mut self, _cycle: Cycle, rec: &CycleRecord) {
        self.records.push(rec.clone());
    }
    fn on_inject(&mut self, _cycle: Cycle, flit: &Flit) {
        self.injects.push(*flit);
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        self.ejects.push(ev.clone());
    }
}

/// A probe on every router that can never fire (its start is the end of
/// time): it changes no wire and counts nothing, but marks the router
/// armed, so the router takes the full-scan fault-plane path.
fn inert_probes(cfg: &NocConfig) -> Vec<ArmedFault> {
    (0..cfg.mesh.len() as u16)
        .map(|router| ArmedFault {
            site: SiteRef {
                router,
                port: Direction::Local.index() as u8,
                vc: 0,
                signal: SignalKind::RcOutDir,
                bit: 0,
            },
            kind: FaultKind::Transient,
            start: Cycle::MAX,
        })
        .collect()
}

/// Totals a lockstep run saw, for the tests' coverage assertions.
#[derive(Debug, Default)]
struct Seen {
    /// Non-quiet records on routers with nothing armed in the fast copy.
    clean_active_records: u64,
    /// Reads of an empty buffer on such routers (stale replays).
    clean_stale_reads: u64,
    /// Body flits written into an idle VC of such routers.
    clean_orphan_writes: u64,
    ejections: u64,
}

/// The fast copy and its full-wire reference, stepped in lockstep.
struct Pair {
    fast: Network,
    reference: Network,
    armed: Option<u16>,
    seen: Seen,
    tapes: (Tape, Tape),
}

impl Pair {
    fn new(cfg: &NocConfig) -> Pair {
        let fast = Network::new(cfg.clone());
        let mut reference = Network::new(cfg.clone());
        reference.arm_probes(&inert_probes(cfg));
        Pair {
            fast,
            reference,
            armed: None,
            seen: Seen::default(),
            tapes: (Tape::default(), Tape::default()),
        }
    }

    fn both(&mut self, f: impl Fn(&mut Network)) {
        f(&mut self.fast);
        f(&mut self.reference);
    }

    fn arm(&mut self, site: SiteRef, kind: FaultKind, start: Cycle) {
        self.both(|n| n.arm_fault(site, kind, start));
        self.armed = Some(site.router);
    }

    fn step(&mut self) {
        let cy = self.fast.cycle();
        let (tf, tr) = &mut self.tapes;
        tf.clear();
        tr.clear();
        self.fast.step_observed(tf);
        self.reference.step_observed(tr);
        assert_eq!(tf.records.len(), tr.records.len(), "cycle {cy}");
        for (f, r) in tf.records.iter().zip(&tr.records) {
            assert_eq!(f, r, "router {} record differs at cycle {cy}", f.router);
            if Some(f.router) != self.armed && !f.is_quiet() {
                self.seen.clean_active_records += 1;
                self.seen.clean_stale_reads +=
                    f.reads.iter().filter(|e| e.was_empty).count() as u64;
                self.seen.clean_orphan_writes += f
                    .writes
                    .iter()
                    .filter(|e| !e.is_head && e.vc_was_free)
                    .count() as u64;
            }
        }
        assert_eq!(tf.injects, tr.injects, "injections differ at cycle {cy}");
        assert_eq!(tf.ejects, tr.ejects, "ejections differ at cycle {cy}");
        self.seen.ejections += tf.ejects.len() as u64;
    }

    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The final-state check for runs without recovery.
    fn assert_state_eq(&self) {
        assert!(self.fast.state_eq(&self.reference), "final state differs");
        assert_eq!(self.fast.fault_hits(), self.reference.fault_hits());
        assert!(self.reference.probe_hits().iter().all(|&h| h == 0));
    }
}

/// The canonical 8×8 / 2-VC / one-class sweep network.
fn sweep_noc() -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc
}

fn fault_free(cfg: NocConfig, cycles: u64) -> Seen {
    let mut pair = Pair::new(&cfg);
    pair.run(cycles);
    pair.assert_state_eq();
    // Stop injecting and drain, so the quiescent skip is exercised on the
    // way down too.
    pair.both(|n| n.set_injection_enabled(false));
    pair.run(300);
    pair.assert_state_eq();
    assert!(pair.seen.ejections > 0 && pair.seen.clean_active_records > 0);
    pair.seen
}

#[test]
fn fault_free_small_test_matches_the_full_scan() {
    fault_free(NocConfig::small_test(), 1_500);
}

#[test]
fn fault_free_sweep_network_matches_the_full_scan() {
    fault_free(sweep_noc(), 400);
}

#[test]
fn speculative_and_non_atomic_routers_match_the_full_scan() {
    let mut spec = NocConfig::small_test();
    spec.speculative = true;
    fault_free(spec, 1_000);
    let mut non_atomic = NocConfig::small_test();
    non_atomic.buffer_policy = BufferPolicy::NonAtomic;
    fault_free(non_atomic, 1_000);
}

#[test]
fn four_vcs_two_classes_at_high_load_match_the_full_scan() {
    let mut cfg = sweep_noc();
    cfg.mesh = Mesh::new(4, 4);
    cfg.vcs_per_port = 4;
    cfg.message_classes = 2;
    cfg.packet_lengths = vec![5, 3];
    cfg.injection_rate = 0.25;
    fault_free(cfg, 1_000);
}

#[test]
fn fault_region_routing_around_a_quarantined_router_matches_the_full_scan() {
    let mut cfg = NocConfig::small_test();
    cfg.routing = RoutingAlgorithm::FaultRegion;
    let mut pair = Pair::new(&cfg);
    pair.run(200);
    pair.both(|n| n.quarantine_router(5));
    pair.run(1_000);
    pair.assert_state_eq();
    assert!(pair.fast.recovery_stats().reroutes_taken > 0);
}

/// One fault per fault class on a centre router's wires, chosen so the
/// corruption leaves the router: out-of-range output VC ids, spurious and
/// suppressed buffer reads (stale replays, lost flits), crossbar columns
/// (duplicated flits), empty/state wires (phantom worms).
#[test]
fn clean_neighbours_of_a_faulty_router_match_the_full_scan() {
    let cfg = NocConfig::small_test();
    let centre = cfg.mesh.node(Coord::new(1, 1)).0;
    let east = Direction::East.index() as u8;
    let local = Direction::Local.index() as u8;
    let kinds = [
        FaultKind::Transient,
        FaultKind::Permanent,
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::Intermittent { period: 7, duty: 2 },
    ];
    let sites = [
        (local, 0, SignalKind::VcOutVc, 2),
        (local, 1, SignalKind::BufRead, 0),
        (east, 0, SignalKind::XbarCol, 4),
        (local, 0, SignalKind::BufEmpty, 0),
        (local, 2, SignalKind::VcStateCode, 1),
    ];
    let mut hits = 0;
    let mut orphans = 0;
    for kind in kinds {
        for &(port, vc, signal, bit) in &sites {
            let site = SiteRef {
                router: centre,
                port,
                vc,
                signal,
                bit,
            };
            let mut pair = Pair::new(&cfg);
            pair.run(200);
            pair.arm(site, kind, 201);
            pair.run(500);
            pair.assert_state_eq();
            hits += pair.fast.fault_hits();
            orphans += pair.seen.clean_orphan_writes;
        }
    }
    assert!(hits > 0, "no fault ever flipped a wire");
    assert!(
        orphans > 0,
        "no clean router received a body flit at an idle VC"
    );
}

/// Containment under recovery, driven by alerts raised each cycle on
/// the input VCs of routers 5 and 10 that `target` picks. Recovery
/// networks are never `state_eq`, so records, injections, ejections and
/// the containment trace are compared.
fn recovery_run(policy: RecoveryPolicy, target: impl Fn(&VirtualChannel) -> bool) -> Pair {
    let cfg = NocConfig::small_test();
    let mut pair = Pair::new(&cfg);
    pair.both(|n| n.enable_recovery(policy));
    pair.run(200);
    for _ in 0..800 {
        let mut targets = Vec::new();
        for r in [5u16, 10] {
            for d in Direction::ALL {
                let p = d.index() as u8;
                for v in 0..cfg.vcs_per_port {
                    if target(pair.fast.router(r).input_vc(p, v)) {
                        targets.push((r, p, v));
                    }
                }
            }
        }
        for &(r, p, v) in &targets {
            pair.both(|n| n.notify_alert(r, p, v, false));
        }
        pair.step();
    }
    pair.run(600);
    assert_eq!(pair.fast.recovery_trace(), pair.reference.recovery_trace());
    assert_eq!(pair.fast.recovery_stats(), pair.reference.recovery_stats());
    pair
}

#[test]
fn squash_reset_and_disable_match_the_full_scan() {
    // Squash only, aimed at VCs whose last buffered flit is a tail: the
    // squash pops it and returns the VC to idle, often right under the
    // switch read SA latched for it last cycle. That read fires on an
    // idle, empty VC and must replay stale data.
    let squash_only = RecoveryPolicy {
        reset_threshold: u32::MAX,
        disable_threshold: u32::MAX,
        ..RecoveryPolicy::default_policy()
    };
    let lone_tail =
        |vc: &VirtualChannel| vc.buffer.len() == 1 && vc.buffer.peek().is_some_and(Flit::is_tail);
    let squashing = recovery_run(squash_only, lone_tail);
    assert!(squashing.fast.recovery_stats().squashes > 0);
    assert!(
        squashing.seen.clean_stale_reads > 0,
        "no squash left a latched read on an emptied VC"
    );
    // The paper-shaped ladder on sparse alerts: squash, worm teardown,
    // quarantine.
    let sparse = |vc: &VirtualChannel| vc.buffer.len() >= 4;
    let escalating = recovery_run(RecoveryPolicy::default_policy(), sparse);
    let s = escalating.fast.recovery_stats();
    assert!(s.squashes > 0 && s.resets > 0 && s.disables > 0, "{s:?}");
}
