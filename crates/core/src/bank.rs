//! The checker bank: every Table-1 invariance evaluated on every router's
//! cycle record, plus the end-to-end network checker at the NIs.
//!
//! [`AlertBank`] implements `noc_sim::Observer`; attach it to a network via
//! [`noc_sim::Network::step_observed`] and it raises [`AssertionEvent`]s in
//! the very cycle an illegal wire combination appears — the hardware-
//! assertion behaviour of the paper. The bank is purely observational: it
//! never influences the simulation (checkers "never interfere with — or
//! interrupt — the operation of the NoC").

use crate::batched::{ArbiterPack, ArbiterPackResult, VcOrderPack};
use crate::predicates::{check_arbiter_wires, vc_order_violated};
use crate::table::{info, CheckerId, Risk, TABLE1};
use noc_sim::routing::{productive, route_avoiding, turn_legal};
use noc_sim::Observer;
use noc_types::config::{BufferPolicy, NocConfig};
use noc_types::geometry::{Coord, Direction, NodeId};
use noc_types::record::{CycleRecord, EjectEvent, RcEvent, XbarEvent, REGION_NONE};
use noc_types::{Cycle, Flit};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The output direction the *active* (degraded) routing function demands
/// for this RC execution, or `None` when the router is on the baseline
/// happy path (no fenced ports, no fault-region tables) and the plain
/// turn/progress model applies unmodified.
///
/// Mirrors the router's RC precedence exactly: an installed region-table
/// entry wins (its no-route sentinel decodes to a local eject), otherwise
/// a non-empty fence mask selects the fence-avoiding routing function.
/// Both are recomputed from the same post-fault destination wires the RC
/// unit consumed, so on a fault-free detour the recorded output always
/// equals this expectation and the checkers raise nothing — while a fault
/// that diverts the worm off the detour path disagrees with it and stays
/// detectable.
fn degraded_expectation(
    e: &RcEvent,
    alg: noc_types::config::RoutingAlgorithm,
    mesh: noc_types::geometry::Mesh,
    cur: Coord,
    dest: Coord,
) -> Option<Direction> {
    if e.region_next != REGION_NONE {
        return Some(Direction::from_bits(e.region_next as u64).unwrap_or(Direction::Local));
    }
    if e.avoid_mask != 0 {
        let mut avoid = [false; Direction::ALL.len()];
        for (i, a) in avoid.iter_mut().enumerate() {
            *a = e.avoid_mask >> i & 1 == 1;
        }
        return Some(route_avoiding(alg, mesh, cur, dest, &avoid));
    }
    None
}

/// One raised hardware assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssertionEvent {
    /// Which invariance fired.
    pub checker: CheckerId,
    /// Cycle of the violation.
    pub cycle: Cycle,
    /// Router (or NI node, for the end-to-end checker) that raised it.
    pub router: u16,
    /// Port context (input or output port depending on the checker).
    pub port: u8,
    /// VC context where applicable.
    pub vc: u8,
}

impl fmt::Display for AssertionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{} n{} p{}v{} {} ({})",
            self.cycle,
            self.router,
            self.port,
            self.vc,
            self.checker,
            info(self.checker).name
        )
    }
}

/// Per-packet end-to-end tracking state at the destination NIs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct E2eEntry {
    node: Option<NodeId>,
    next_seq: u16,
    tail_seen: bool,
}

/// The distributed NoCAlert checker array for one network.
///
/// # Example
///
/// ```
/// use noc_sim::Network;
/// use noc_types::NocConfig;
/// use nocalert::AlertBank;
///
/// let cfg = NocConfig::small_test();
/// let mut net = Network::new(cfg.clone());
/// let mut bank = AlertBank::new(&cfg);
/// for _ in 0..500 {
///     net.step_observed(&mut bank);
/// }
/// assert!(bank.assertions().is_empty(), "fault-free runs never assert");
/// ```
#[derive(Debug)]
pub struct AlertBank {
    cfg: NocConfig,
    enabled: [bool; CheckerId::COUNT],
    events: Vec<AssertionEvent>,
    counts: [u64; CheckerId::COUNT],
    first_cycle: Option<Cycle>,
    first_cycle_normal_risk: Option<Cycle>,
    /// Distinct checkers asserted during the first detection cycle.
    first_cycle_checkers: Vec<CheckerId>,
    /// End-to-end tracking, a dense slab indexed by the (monotone)
    /// `PacketId` so the per-ejection path is a bounds check away from the
    /// entry instead of a hash lookup.
    e2e: Vec<E2eEntry>,
    /// Reused scratch for the invariance-8 cross-arbiter check.
    va2_granted: Vec<(u8, u8)>,
    max_events: usize,
}

// Manual impl so `clone_from` (the campaign arena's per-run reset) reuses
// the event log and the e2e slab instead of reallocating them each run.
impl Clone for AlertBank {
    fn clone(&self) -> AlertBank {
        AlertBank {
            cfg: self.cfg.clone(),
            enabled: self.enabled,
            events: self.events.clone(),
            counts: self.counts,
            first_cycle: self.first_cycle,
            first_cycle_normal_risk: self.first_cycle_normal_risk,
            first_cycle_checkers: self.first_cycle_checkers.clone(),
            e2e: self.e2e.clone(),
            va2_granted: self.va2_granted.clone(),
            max_events: self.max_events,
        }
    }

    fn clone_from(&mut self, src: &AlertBank) {
        self.cfg.clone_from(&src.cfg);
        self.enabled = src.enabled;
        self.events.clone_from(&src.events);
        self.counts = src.counts;
        self.first_cycle = src.first_cycle;
        self.first_cycle_normal_risk = src.first_cycle_normal_risk;
        self.first_cycle_checkers
            .clone_from(&src.first_cycle_checkers);
        self.e2e.clone_from(&src.e2e);
        self.va2_granted.clone_from(&src.va2_granted);
        self.max_events = src.max_events;
    }
}

impl AlertBank {
    /// Creates a bank wired for `cfg`, with every applicable checker
    /// enabled (invariance 26 xor 27 depending on the buffer policy).
    pub fn new(cfg: &NocConfig) -> AlertBank {
        let mut enabled = [true; CheckerId::COUNT];
        for e in &TABLE1 {
            enabled[e.id.index()] = e.applicability.applies(cfg.buffer_policy);
        }
        AlertBank {
            cfg: cfg.clone(),
            enabled,
            events: Vec::new(),
            counts: [0; CheckerId::COUNT],
            first_cycle: None,
            first_cycle_normal_risk: None,
            first_cycle_checkers: Vec::new(),
            e2e: Vec::new(),
            va2_granted: Vec::new(),
            max_events: 100_000,
        }
    }

    /// Disables one checker (ablation studies; e.g. measuring which faults
    /// escape when a checker is removed).
    pub fn disable(&mut self, id: CheckerId) {
        self.enabled[id.index()] = false;
    }

    /// Clears all recorded state, keeping the enable mask.
    pub fn reset(&mut self) {
        self.events.clear();
        self.counts = [0; CheckerId::COUNT];
        self.first_cycle = None;
        self.first_cycle_normal_risk = None;
        self.first_cycle_checkers.clear();
        self.e2e.clear();
    }

    /// All raised assertions, in order (capped at an internal maximum to
    /// bound memory under permanently asserting faults).
    pub fn assertions(&self) -> &[AssertionEvent] {
        &self.events
    }

    /// The assertions raised at or after index `from` — the tail a
    /// closed-loop consumer (e.g. the recovery harness) has not drained
    /// yet. Out-of-range indices yield an empty slice.
    pub fn events_since(&self, from: usize) -> &[AssertionEvent] {
        self.events.get(from..).unwrap_or(&[])
    }

    /// Per-checker assertion counts (`counts()[id.index()]`).
    pub fn counts(&self) -> &[u64; CheckerId::COUNT] {
        &self.counts
    }

    /// True if any assertion has been raised.
    pub fn any_asserted(&self) -> bool {
        self.first_cycle.is_some()
    }

    /// Cycle of the first assertion, if any.
    pub fn first_detection(&self) -> Option<Cycle> {
        self.first_cycle
    }

    /// Cycle of the first assertion at or after cycle `at` — the
    /// detection instant relative to a later disturbance (an attacker
    /// going live mid-run, an aging epoch boundary), where assertions
    /// raised before `at` belong to earlier history. Events accumulate in
    /// cycle order, so this is the first matching event in the log.
    pub fn first_detection_since(&self, at: Cycle) -> Option<Cycle> {
        self.events.iter().find(|e| e.cycle >= at).map(|e| e.cycle)
    }

    /// Cycle of the first *normal-risk* assertion — the detection instant
    /// of the "NoCAlert Cautious" policy of Observation 2, which defers
    /// lone low-risk (invariances 1/3) assertions.
    pub fn first_detection_cautious(&self) -> Option<Cycle> {
        self.first_cycle_normal_risk
    }

    /// Distinct checkers that asserted within the first detection cycle
    /// (the Figure-9 "simultaneously asserted checkers" statistic).
    pub fn first_cycle_checkers(&self) -> &[CheckerId] {
        &self.first_cycle_checkers
    }

    /// Structural equality of the accumulated detection state: events,
    /// per-checker counts, first-detection bookkeeping and the end-to-end
    /// tracking slab. The configuration, enable mask and reused scratch
    /// are excluded — two banks attached to the same campaign share those
    /// by construction. Equality here means the banks are
    /// indistinguishable through every public accessor and will react
    /// identically to identical future records.
    pub fn state_eq(&self, other: &AlertBank) -> bool {
        self.counts == other.counts
            && self.first_cycle == other.first_cycle
            && self.first_cycle_normal_risk == other.first_cycle_normal_risk
            && self.first_cycle_checkers == other.first_cycle_checkers
            && self.events == other.events
            && self.e2e == other.e2e
    }

    /// The set of distinct checkers that asserted at least once.
    pub fn asserted_set(&self) -> Vec<CheckerId> {
        CheckerId::all()
            .filter(|c| self.counts[c.index()] > 0)
            .collect()
    }

    fn raise(&mut self, id: CheckerId, cycle: Cycle, router: u16, port: u8, vc: u8) {
        if !self.enabled[id.index()] {
            return;
        }
        self.counts[id.index()] += 1;
        if self.first_cycle.is_none() {
            self.first_cycle = Some(cycle);
        }
        if self.first_cycle == Some(cycle) && !self.first_cycle_checkers.contains(&id) {
            self.first_cycle_checkers.push(id);
        }
        if self.first_cycle_normal_risk.is_none() && info(id).risk == Risk::Normal {
            self.first_cycle_normal_risk = Some(cycle);
        }
        if self.events.len() < self.max_events {
            self.events.push(AssertionEvent {
                checker: id,
                cycle,
                router,
                port,
                vc,
            });
        }
    }

    #[inline]
    fn head_kind_is_head(kind: u64) -> bool {
        kind == 0 || kind == 3 // Head or HeadTail encodings
    }

    /// Raises invariances 4/5/6 for the arbiter event at pack position
    /// `idx`, consuming the position. The verdict comes from the wide
    /// bit-lane evaluation when the event was packed; otherwise the same
    /// scalar predicate is applied to the raw `(req, grant)` wires — one
    /// definition of the arbiter invariances either way, shared with the
    /// static prover (see `crate::predicates` and `crate::batched`).
    fn raise_arbiter_at(
        &mut self,
        res: &ArbiterPackResult,
        idx: &mut usize,
        cycle: Cycle,
        router: u16,
        port: u8,
        wires: (u64, u64),
    ) {
        let check = match res.lane(*idx) {
            Some(c) => c,
            None => check_arbiter_wires(wires.0, wires.1),
        };
        *idx += 1;
        if check.grant_without_request {
            self.raise(CheckerId(4), cycle, router, port, 0);
        }
        if check.grant_to_nobody {
            self.raise(CheckerId(5), cycle, router, port, 0);
        }
        if check.multiple_grants {
            self.raise(CheckerId(6), cycle, router, port, 0);
        }
    }
}

impl Observer for AlertBank {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        // The bank is memoryless across records (see
        // `on_quiescent_cycles`): a record with every event list empty and
        // an all-zero crossbar summary trips no checker, so it is skipped
        // outright. `is_quiet` alone is not enough: a quiet record can
        // still carry a crossbar matrix or counts (a faulty column with no
        // flit on it) that invariances 14–16 must see.
        if rec.is_quiet() && rec.xbar == XbarEvent::default() {
            return;
        }
        let router = rec.router;
        let mesh = self.cfg.mesh;
        let cur = mesh.coord(NodeId(router));
        let alg = self.cfg.routing;
        let vcs = self.cfg.vcs_per_port;

        // ---- RC checkers: 1, 2, 3, 20, 21, 31 ----
        let mut rc_per_port = [0u8; 8];
        for e in &rec.rc {
            rc_per_port[(e.port & 7) as usize] += 1;
            match Direction::from_bits(e.out_dir) {
                None => self.raise(CheckerId(2), cycle, router, e.port, e.vc),
                Some(out) => {
                    if !mesh.port_live(NodeId(router), out) {
                        self.raise(CheckerId(2), cycle, router, e.port, e.vc);
                    } else {
                        let in_dir = Direction::ALL[(e.port as usize).min(4)];
                        let dest = Coord::new(e.dest_x as u8, e.dest_y as u8);
                        // Region-aware bound: under degraded routing
                        // (fenced ports, fault-region detours) the legal
                        // output is re-derived from the recorded routing
                        // registers, and only that exact direction is
                        // excused from the XY turn/progress model — the
                        // checkers stay armed off the happy path instead
                        // of disarming wholesale, so a misroute *inside* a
                        // detour region is still caught.
                        let excused = match degraded_expectation(e, alg, mesh, cur, dest) {
                            Some(expected) => out == expected,
                            None => false,
                        };
                        if !turn_legal(alg, in_dir, out) && !excused {
                            self.raise(CheckerId(1), cycle, router, e.port, e.vc);
                        }
                        if e.head_valid
                            && !e.buf_empty
                            && !productive(mesh, cur, dest, out)
                            && !excused
                        {
                            self.raise(CheckerId(3), cycle, router, e.port, e.vc);
                        }
                    }
                }
            }
            if !e.head_valid {
                self.raise(CheckerId(20), cycle, router, e.port, e.vc);
            }
            if e.buf_empty {
                self.raise(CheckerId(21), cycle, router, e.port, e.vc);
            }
        }
        for (p, &n) in rc_per_port.iter().enumerate() {
            if n > 1 {
                self.raise(CheckerId(31), cycle, router, p as u8, 0);
            }
        }

        // ---- Local arbiters: 4, 5, 6 (+7 on SA1 credits) ----
        // Every arbiter event in this record — VA1, SA1, VA2 and SA2 —
        // is packed into bit-lanes and invariances 4/5/6 evaluated for
        // all of them in one wide pass; `raise_arbiter_at` then hands
        // each event its lane verdict back in push order, falling back
        // to the scalar predicate for any event that could not be
        // packed (see `crate::batched`). Assertion order is untouched:
        // verdicts are consumed exactly where the per-event calls were.
        let mut pack = ArbiterPack::new();
        for e in &rec.va1 {
            pack.push(e.req, e.grant);
        }
        for e in &rec.sa1 {
            pack.push(e.req, e.grant);
        }
        for e in &rec.va2 {
            pack.push(e.req, e.grant);
        }
        for e in &rec.sa2 {
            pack.push(e.req, e.grant);
        }
        let arb = pack.evaluate();
        let mut arb_idx = 0usize;
        for e in &rec.va1 {
            self.raise_arbiter_at(&arb, &mut arb_idx, cycle, router, e.port, (e.req, e.grant));
        }
        for e in &rec.sa1 {
            self.raise_arbiter_at(&arb, &mut arb_idx, cycle, router, e.port, (e.req, e.grant));
            if e.grant & !e.credit_ok != 0 {
                self.raise(CheckerId(7), cycle, router, e.port, 0);
            }
        }

        // ---- VA2: 4, 5, 6, 7, 8, 10, 12, 19 ----
        // Reconstruct each input port's VA1 winner for the one-to-one check.
        let mut va1_winner = [None::<u8>; 8];
        for e in &rec.va1 {
            if e.grant != 0 {
                va1_winner[(e.port & 7) as usize] = Some(e.grant.trailing_zeros() as u8);
            }
        }
        self.va2_granted.clear();
        for e in &rec.va2 {
            self.raise_arbiter_at(
                &arb,
                &mut arb_idx,
                cycle,
                router,
                e.out_port,
                (e.req, e.grant),
            );
            if e.grant != 0 {
                // Grant to an occupied downstream VC (invariance 7).
                if (e.free_mask >> e.out_vc) & 1 == 0 {
                    self.raise(CheckerId(7), cycle, router, e.out_port, e.out_vc as u8);
                }
                // Out-of-range or out-of-class VC value (invariance 19).
                if e.out_vc >= vcs as u64 {
                    self.raise(CheckerId(19), cycle, router, e.out_port, e.out_vc as u8);
                } else if let Some(class) = e.winner_class {
                    if self.cfg.class_of_vc(e.out_vc as u8) != class {
                        self.raise(CheckerId(19), cycle, router, e.out_port, e.out_vc as u8);
                    }
                }
                for p in 0..8u8 {
                    if (e.grant >> p) & 1 == 1 {
                        if let Some(v) = va1_winner[p as usize] {
                            self.va2_granted.push((p, v));
                        }
                    }
                }
            }
            if let Some(rc_port) = e.winner_rc_port {
                if rc_port != e.out_port as u64 {
                    self.raise(CheckerId(10), cycle, router, e.out_port, 0);
                }
            }
            if e.grant != 0 && e.winner.is_some() && !e.winner_won_va1 {
                self.raise(CheckerId(12), cycle, router, e.out_port, 0);
            }
        }
        // Invariance 8: the same input VC allocated by two VA2 arbiters.
        self.va2_granted.sort_unstable();
        for i in 1..self.va2_granted.len() {
            if self.va2_granted[i - 1] == self.va2_granted[i] {
                let (p, v) = self.va2_granted[i];
                self.raise(CheckerId(8), cycle, router, p, v);
            }
        }

        // ---- SA2: 4, 5, 6, 7, 9, 11, 13 ----
        let mut port_grants = [0u32; 8];
        for e in &rec.sa2 {
            self.raise_arbiter_at(
                &arb,
                &mut arb_idx,
                cycle,
                router,
                e.out_port,
                (e.req, e.grant),
            );
            for p in 0..8u8 {
                if (e.grant >> p) & 1 == 1 {
                    port_grants[p as usize] += 1;
                }
            }
            if let Some(rc_port) = e.winner_rc_port {
                if rc_port != e.out_port as u64 {
                    self.raise(CheckerId(11), cycle, router, e.out_port, 0);
                }
            }
            if e.grant != 0 && e.winner.is_some() {
                if !e.winner_won_sa1 {
                    self.raise(CheckerId(13), cycle, router, e.out_port, 0);
                }
                if !e.winner_credit_ok {
                    self.raise(CheckerId(7), cycle, router, e.out_port, 0);
                }
            }
        }
        for (p, &n) in port_grants.iter().enumerate() {
            if n > 1 {
                self.raise(CheckerId(9), cycle, router, p as u8, 0);
            }
        }

        // ---- Crossbar: 14, 15, 16 ----
        for o in 0..5u8 {
            if rec.xbar.col(o).count_ones() > 1 {
                self.raise(CheckerId(14), cycle, router, o, 0);
            }
        }
        for p in 0..5u8 {
            if rec.xbar.row(p, 5).count_ones() > 1 {
                self.raise(CheckerId(15), cycle, router, p, 0);
            }
        }
        if rec.xbar.in_count != rec.xbar.out_count {
            self.raise(CheckerId(16), cycle, router, 0, 0);
        }

        // ---- VC state: 17, 22, 23 + continuous register monitoring ----
        // Pipeline order: RC completes from Routing(1), VA from
        // VaPending(2), SA fires only on Active(3).
        // In the speculative design of Section 4.4, SA may legally
        // succeed while VA is still pending — invariance 17 is altered
        // "so as not to raise an assertion if SA succeeds before VA is
        // done". The predicate is shared with the static prover; all of
        // the record's VC events are evaluated in one bit-lane pass
        // (scalar fallback for any event past the lane capacity).
        let mut vpack = VcOrderPack::new();
        for e in &rec.vc {
            vpack.push(e.state_before, e.ev_rc_done, e.ev_va_done, e.ev_sa_won);
        }
        let vres = vpack.evaluate(self.cfg.speculative);
        for (vi, e) in rec.vc.iter().enumerate() {
            let s = e.state_before;
            let order_violated = match vres.lane(vi) {
                Some(f) => f,
                None => vc_order_violated(
                    s,
                    e.ev_rc_done,
                    e.ev_va_done,
                    e.ev_sa_won,
                    self.cfg.speculative,
                ),
            };
            if order_violated {
                self.raise(CheckerId(17), cycle, router, e.port, e.vc);
            }
            if e.ev_va_done {
                if e.empty {
                    self.raise(CheckerId(23), cycle, router, e.port, e.vc);
                } else if !Self::head_kind_is_head(e.head_kind) {
                    self.raise(CheckerId(22), cycle, router, e.port, e.vc);
                }
            }
            // The latched RC/VA results are register outputs and the
            // corresponding checkers hang off them permanently: an upset
            // that parks an invalid encoding in the status table is caught
            // even between pipeline events.
            if e.state_after >= 2 {
                // RC result latched (VaPending or Active).
                let bad_dir = match Direction::from_bits(e.out_port) {
                    None => true,
                    Some(d) => !mesh.port_live(NodeId(router), d),
                };
                if bad_dir {
                    self.raise(CheckerId(2), cycle, router, e.port, e.vc);
                }
            }
            if e.state_after == 3 {
                // VA result latched (Active).
                if e.out_vc >= vcs as u64
                    || self.cfg.class_of_vc(e.out_vc as u8) != self.cfg.class_of_vc(e.vc)
                {
                    self.raise(CheckerId(19), cycle, router, e.port, e.vc);
                }
            }
        }

        // ---- Buffers: 18, 24, 25, 26, 27, 28 + port-level 29, 30 ----
        let atomic = self.cfg.buffer_policy == BufferPolicy::Atomic;
        let mut writes_per_port = [0u8; 8];
        for e in &rec.writes {
            writes_per_port[(e.port & 7) as usize] += 1;
            if e.buf_was_full {
                self.raise(CheckerId(25), cycle, router, e.port, e.vc);
            }
            if !e.is_head && e.vc_was_free {
                self.raise(CheckerId(18), cycle, router, e.port, e.vc);
            }
            if atomic {
                if e.is_head && !e.vc_was_free {
                    self.raise(CheckerId(26), cycle, router, e.port, e.vc);
                }
            } else {
                // Mixing in a non-atomic buffer: a tail must be followed
                // by a header, and a header may only follow a tail (or
                // enter a free VC, which invariance 18 already covers).
                let mixing = !e.vc_was_free && (e.prev_written_was_tail != e.is_head);
                if mixing {
                    self.raise(CheckerId(27), cycle, router, e.port, e.vc);
                }
            }
            if (e.is_tail && e.arrived_count != e.expected_len) || e.arrived_count > e.expected_len
            {
                self.raise(CheckerId(28), cycle, router, e.port, e.vc);
            }
        }
        let mut reads_per_port = [0u8; 8];
        for e in &rec.reads {
            reads_per_port[(e.port & 7) as usize] += 1;
            if e.was_empty {
                self.raise(CheckerId(24), cycle, router, e.port, e.vc);
            }
        }
        for p in 0..8usize {
            if reads_per_port[p] > 1 {
                self.raise(CheckerId(29), cycle, router, p as u8, 0);
            }
            if writes_per_port[p] > 1 {
                self.raise(CheckerId(30), cycle, router, p as u8, 0);
            }
        }
    }

    fn on_quiescent_cycles(&self, _cycle: Cycle, _n: u64) -> bool {
        // The bank is memoryless across cycles: an empty record trips no
        // checker (all event vectors empty, the crossbar matrix zero) and
        // quiescent cycles deliver no ejections, so skipping them never
        // changes any accumulator.
        true
    }

    fn on_eject(&mut self, ev: &EjectEvent) {
        // ---- End-to-end network-level invariance 32 ----
        let node = ev.node;
        let f: &Flit = &ev.flit;
        let mut bad = f.dest != node;
        let idx = f.packet.0 as usize;
        if idx >= self.e2e.len() {
            self.e2e.resize_with(idx + 1, E2eEntry::default);
        }
        let entry = &mut self.e2e[idx];
        match entry.node {
            None => entry.node = Some(node),
            Some(n) if n != node => bad = true,
            _ => {}
        }
        if entry.tail_seen || f.seq != entry.next_seq {
            bad = true;
        }
        entry.next_seq = entry.next_seq.max(f.seq.saturating_add(1));
        if f.is_tail() {
            entry.tail_seen = true;
        }
        // A corrupted payload is flagged by the (assumed) end-to-end EDC at
        // the NI — part of the network-level protective blanket.
        if f.corrupted {
            bad = true;
        }
        if bad {
            self.raise(
                CheckerId(32),
                ev.cycle,
                node.0,
                Direction::Local.index() as u8,
                0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::Network;
    use noc_types::flit::{make_packet, FlitKind};
    use noc_types::PacketId;

    fn eject(bank: &mut AlertBank, node: u16, cycle: Cycle, flit: Flit) {
        bank.on_eject(&EjectEvent {
            node: NodeId(node),
            cycle,
            flit,
        });
    }

    #[test]
    fn fault_free_small_mesh_never_asserts() {
        let cfg = NocConfig::small_test();
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        for _ in 0..3_000 {
            net.step_observed(&mut bank);
        }
        assert!(
            bank.assertions().is_empty(),
            "spurious assertions: {:?}",
            &bank.assertions()[..bank.assertions().len().min(5)]
        );
    }

    #[test]
    fn fault_free_paper_baseline_never_asserts() {
        let mut cfg = NocConfig::paper_baseline();
        cfg.injection_rate = 0.15;
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        for _ in 0..2_000 {
            net.step_observed(&mut bank);
        }
        assert!(bank.assertions().is_empty());
    }

    #[test]
    fn fault_free_non_atomic_never_asserts() {
        let mut cfg = NocConfig::small_test();
        cfg.buffer_policy = BufferPolicy::NonAtomic;
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        for _ in 0..3_000 {
            net.step_observed(&mut bank);
        }
        assert!(
            bank.assertions().is_empty(),
            "spurious: {:?}",
            &bank.assertions()[..bank.assertions().len().min(5)]
        );
    }

    #[test]
    fn e2e_flags_misdelivery() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(7), 0, 1, 0);
        eject(&mut bank, 3, 10, flits[0]); // delivered to node 3, dest 7
        assert_eq!(bank.asserted_set(), vec![CheckerId(32)]);
    }

    #[test]
    fn first_detection_since_skips_earlier_history() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        assert_eq!(bank.first_detection_since(0), None);
        let early = make_packet(PacketId(1), 1, NodeId(0), NodeId(7), 0, 1, 0);
        eject(&mut bank, 3, 10, early[0]); // misdelivery at cycle 10
        let late = make_packet(PacketId(2), 2, NodeId(0), NodeId(7), 0, 1, 0);
        eject(&mut bank, 4, 50, late[0]); // misdelivery at cycle 50
        assert_eq!(bank.first_detection_since(0), Some(10));
        assert_eq!(bank.first_detection_since(10), Some(10));
        assert_eq!(bank.first_detection_since(11), Some(50));
        assert_eq!(bank.first_detection_since(51), None);
    }

    #[test]
    fn e2e_flags_out_of_order_and_continuation() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        let flits = make_packet(PacketId(2), 1, NodeId(0), NodeId(5), 0, 3, 0);
        eject(&mut bank, 5, 10, flits[0]);
        eject(&mut bank, 5, 11, flits[2]); // skipped seq 1
        assert!(bank.any_asserted());
        bank.reset();
        eject(&mut bank, 5, 10, flits[0]);
        eject(&mut bank, 5, 11, flits[1]);
        eject(&mut bank, 5, 12, flits[2]);
        assert!(!bank.any_asserted());
        // Continuation after tail.
        let stray = Flit {
            seq: 3,
            kind: FlitKind::Body,
            ..flits[1]
        };
        eject(&mut bank, 5, 13, stray);
        assert!(bank.any_asserted());
    }

    #[test]
    fn e2e_flags_corrupted_flit() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        let mut f = make_packet(PacketId(3), 1, NodeId(0), NodeId(5), 0, 1, 0)[0];
        f.corrupted = true;
        eject(&mut bank, 5, 10, f);
        assert!(bank.any_asserted());
    }

    #[test]
    fn disabled_checker_stays_silent() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        bank.disable(CheckerId(32));
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(7), 0, 1, 0);
        eject(&mut bank, 3, 10, flits[0]);
        assert!(!bank.any_asserted());
    }

    #[test]
    fn cautious_mode_ignores_lone_low_risk() {
        let cfg = NocConfig::small_test();
        let mut bank = AlertBank::new(&cfg);
        // Fabricate a lone invariance-3 event through raise().
        bank.raise(CheckerId(3), 100, 0, 0, 0);
        assert_eq!(bank.first_detection(), Some(100));
        assert_eq!(bank.first_detection_cautious(), None);
        bank.raise(CheckerId(16), 120, 0, 0, 0);
        assert_eq!(bank.first_detection_cautious(), Some(120));
        assert_eq!(bank.first_cycle_checkers(), &[CheckerId(3)]);
    }

    #[test]
    fn policy_gates_26_vs_27() {
        let atomic = AlertBank::new(&NocConfig::small_test());
        assert!(atomic.enabled[CheckerId(26).index()]);
        assert!(!atomic.enabled[CheckerId(27).index()]);
        let mut cfg = NocConfig::small_test();
        cfg.buffer_policy = BufferPolicy::NonAtomic;
        let non_atomic = AlertBank::new(&cfg);
        assert!(!non_atomic.enabled[CheckerId(26).index()]);
        assert!(non_atomic.enabled[CheckerId(27).index()]);
    }
}
