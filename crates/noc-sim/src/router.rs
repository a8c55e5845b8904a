//! The five-stage input-buffered VC router (Section 3.1 of the paper).
//!
//! Pipeline: **RC → VA → SA → ST(XBAR) → LT**, with VA and SA each split
//! into a local (per-input-port) and a global (per-output-port) sub-stage.
//! Header flits take all stages; body/tail flits start at SA. Wormhole
//! switching with credit-based flow control; atomic or non-atomic VCs.
//!
//! ## Evaluation order and timing
//!
//! Within one cycle the stages are evaluated in *reverse* pipeline order —
//! ST, then SA, then VA, then RC, then buffer-write (BW) — so a flit
//! advances at most one stage per cycle, giving the classical 5-cycle
//! per-hop latency (RC, VA, SA, ST, LT) for headers and 3 cycles for body
//! flits, plus queueing.
//!
//! ## Fault honesty
//!
//! Every module-boundary wire is routed through [`Wires::xf`] and the
//! *transformed* value drives both the downstream logic and the observation
//! record. Consequences are modelled physically rather than sanitized:
//!
//! * reading an "empty" FIFO replays the stale slot (new-flit generation),
//! * a non-one-hot crossbar column ORs two flits into a corrupted one,
//! * a non-one-hot crossbar row duplicates a flit (multicast),
//! * an overrun buffer write destroys the oldest flit,
//! * a suppressed read-enable silently keeps a flit that the crossbar
//!   expected, and so on.
//!
//! ## Live-VC fast path
//!
//! [`Router::step`] is generic over its [`Wires`]. A router with a fault or
//! probe armed steps through the [`FaultPlane`](crate::FaultPlane) and
//! every stage scans every VC, because a fault can fire on an idle VC's
//! wires. Every other router steps through
//! [`IdentityWires`](crate::IdentityWires), where an idle, empty VC
//! provably does nothing in any stage, so each stage visits only the
//! *busy* VCs (non-idle or non-empty, not quarantined) plus the few it
//! must: ST the latched reads (a containment squash can leave one on a VC
//! that is now idle and empty, and it still replays stale data), BW the
//! addressed VC, and the state table the VCs BW wrote. Both paths emit the
//! same records (DESIGN.md §12).

use crate::arbiter::RoundRobin;
use crate::fault_plane::Wires;
use crate::routing::route;
use crate::vc::{state, OutputPort, VirtualChannel};
use noc_types::config::{BufferPolicy, NocConfig};
use noc_types::flit::{Flit, FlitOrigin};
use noc_types::geometry::{Coord, Direction};
use noc_types::record::{
    CycleRecord, LocalArbEvent, RcEvent, ReadEvent, Sa2Event, Va2Event, VcEvent, WriteEvent,
};
use noc_types::site::SignalKind;
use noc_types::Cycle;
use serde::{Deserialize, Serialize};

/// Number of ports of the canonical router.
pub const P: usize = Direction::COUNT;

/// A flit in flight on a link, tagged with the downstream VC the upstream
/// VA stage assigned (the "VC id" field of the flit's control overhead).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlit {
    /// The flit.
    pub flit: Flit,
    /// Raw downstream VC index (normally `< vcs_per_port`).
    pub vc: u8,
}

/// A credit returning upstream: "input port `port` of the sender popped a
/// flit out of VC `vc`; `tail` tells whether that flit's kind wire said
/// tail" (which, in atomic mode, releases the upstream allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditMsg {
    /// Port index (meaning depends on hop: see `Network` routing of
    /// credits).
    pub port: u8,
    /// VC index.
    pub vc: u8,
    /// The popped flit was a tail.
    pub tail: bool,
}

/// One router: five input ports × V VCs, five output ports, the arbiters,
/// the SA→ST latches and the link-side registers.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Router {
    id: u16,
    coord: Coord,
    live: [bool; P],
    /// Output directions fenced by the recovery controller; when any bit is
    /// set the RC stage falls back to degraded (detouring) routing.
    avoid: [bool; P],
    /// `inputs[port][vc]`.
    inputs: Vec<Vec<VirtualChannel>>,
    /// `outputs[port]` — downstream allocation + credit bookkeeping.
    pub(crate) outputs: Vec<OutputPort>,
    rc_rr: Vec<RoundRobin>,
    va1: Vec<RoundRobin>,
    sa1: Vec<RoundRobin>,
    va2: Vec<RoundRobin>,
    sa2: Vec<RoundRobin>,
    /// SA results latched for next cycle's ST: per input port, VC read mask.
    st_read: [u64; P],
    /// SA2 grant vectors latched for next cycle's crossbar control.
    st_grant: [u64; P],
    /// Stale "result bus" registers (what a spurious latch-enable captures).
    rc_bus: Vec<u64>,
    va_bus: Vec<u64>,
    va2_bus: Vec<u64>,
    /// Link-input registers: flit arriving this cycle per input port.
    pub(crate) incoming: Vec<Option<LinkFlit>>,
    /// Credits arriving this cycle, addressed to output ports.
    pub(crate) incoming_credits: Vec<CreditMsg>,
    /// Staged link outputs (moved to neighbours by the network).
    pub(crate) out_flits: Vec<Option<LinkFlit>>,
    /// Staged credit returns (port = *input* port where the pop happened).
    pub(crate) out_credits: Vec<CreditMsg>,
    /// Stale link-data registers per input port (spurious writes replay
    /// these).
    last_arrival: Vec<Option<LinkFlit>>,
    /// Per-input-port bitmask of quarantined VCs. A disabled input VC is
    /// skipped by every pipeline stage — its wires are never read, so a
    /// fault armed on them can no longer activate and replay stale state.
    input_disabled: [u64; P],
    /// Fault-region next-hop row for the free (may-still-go-up) phase,
    /// indexed by destination node id: direction bits, or the sentinel 7
    /// (no route → eject locally). Empty while the region map is
    /// disengaged — the RC stage then falls through to the baseline
    /// algorithm, keeping fault-free behaviour bit-identical.
    region_next_up: Vec<u8>,
    /// Fault-region next-hop row once committed downward.
    region_next_down: Vec<u8>,
    /// Per arrival port: `true` when the hop *into* this router over that
    /// port was a down hop (the packet is committed; consult
    /// `region_next_down`).
    region_down_in: [bool; P],
    /// RC decisions where the region tables overrode the baseline route.
    region_reroutes: u64,
}

// Manual impl so `clone_from` (the arena reset path) reuses every nested
// allocation — per-VC buffers, output-port bookkeeping, link registers —
// instead of rebuilding the router from scratch each campaign run.
impl Clone for Router {
    fn clone(&self) -> Router {
        Router {
            id: self.id,
            coord: self.coord,
            live: self.live,
            avoid: self.avoid,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            rc_rr: self.rc_rr.clone(),
            va1: self.va1.clone(),
            sa1: self.sa1.clone(),
            va2: self.va2.clone(),
            sa2: self.sa2.clone(),
            st_read: self.st_read,
            st_grant: self.st_grant,
            rc_bus: self.rc_bus.clone(),
            va_bus: self.va_bus.clone(),
            va2_bus: self.va2_bus.clone(),
            incoming: self.incoming.clone(),
            incoming_credits: self.incoming_credits.clone(),
            out_flits: self.out_flits.clone(),
            out_credits: self.out_credits.clone(),
            last_arrival: self.last_arrival.clone(),
            input_disabled: self.input_disabled,
            region_next_up: self.region_next_up.clone(),
            region_next_down: self.region_next_down.clone(),
            region_down_in: self.region_down_in,
            region_reroutes: self.region_reroutes,
        }
    }

    fn clone_from(&mut self, src: &Router) {
        self.id = src.id;
        self.coord = src.coord;
        self.live = src.live;
        self.avoid = src.avoid;
        self.inputs.clone_from(&src.inputs);
        self.outputs.clone_from(&src.outputs);
        self.rc_rr.clone_from(&src.rc_rr);
        self.va1.clone_from(&src.va1);
        self.sa1.clone_from(&src.sa1);
        self.va2.clone_from(&src.va2);
        self.sa2.clone_from(&src.sa2);
        self.st_read = src.st_read;
        self.st_grant = src.st_grant;
        self.rc_bus.clone_from(&src.rc_bus);
        self.va_bus.clone_from(&src.va_bus);
        self.va2_bus.clone_from(&src.va2_bus);
        self.incoming.clone_from(&src.incoming);
        self.incoming_credits.clone_from(&src.incoming_credits);
        self.out_flits.clone_from(&src.out_flits);
        self.out_credits.clone_from(&src.out_credits);
        self.last_arrival.clone_from(&src.last_arrival);
        self.input_disabled = src.input_disabled;
        self.region_next_up.clone_from(&src.region_next_up);
        self.region_next_down.clone_from(&src.region_next_down);
        self.region_down_in = src.region_down_in;
        self.region_reroutes = src.region_reroutes;
    }
}

/// Per-cycle scratch shared across stages; lives in the network and is
/// reused for every router to avoid allocation in the hot loop.
#[derive(Debug, Default, Clone)]
pub struct RouterScratch {
    ev_rc: [[bool; 16]; P],
    ev_va: [[bool; 16]; P],
    ev_sa: [[bool; 16]; P],
    rc_result: [[Option<u64>; 16]; P],
    va_result: [[Option<u64>; 16]; P],
    state_snap: [[u64; 16]; P],
    /// SA1's per-VC `(out_port, out_vc)` wire reads for the port being
    /// arbitrated; valid only where that port's target mask says so, so
    /// it is never cleared.
    sa_target: [(u64, u64); 16],
    row_flit: [Option<(Flit, u8)>; P],
    /// Deferred wormhole teardowns queued by the ST stage (reused so the
    /// hot loop never allocates).
    tail_release: Vec<(u8, u8)>,
}

impl RouterScratch {
    /// Clears only the `0..vcs` rows each stage may have written: entries
    /// at or beyond `vcs` are never touched by any stage, so a partial
    /// clear leaves the arrays exactly as a full default would.
    fn reset(&mut self, vcs: u8) {
        let v = vcs as usize;
        for p in 0..P {
            self.ev_rc[p][..v].fill(false);
            self.ev_va[p][..v].fill(false);
            self.ev_sa[p][..v].fill(false);
            self.rc_result[p][..v].fill(None);
            self.va_result[p][..v].fill(None);
            self.state_snap[p][..v].fill(0);
        }
        self.row_flit = [None; P];
        self.tail_release.clear();
    }
}

impl Router {
    /// Creates the router for node `id` at `coord` with liveness derived
    /// from the mesh position.
    pub fn new(cfg: &NocConfig, id: u16) -> Router {
        let node = noc_types::geometry::NodeId(id);
        let coord = cfg.mesh.coord(node);
        let mut live = [false; P];
        for d in Direction::ALL {
            live[d.index()] = cfg.mesh.port_live(node, d);
        }
        let v = cfg.vcs_per_port;
        Router {
            id,
            coord,
            live,
            avoid: [false; P],
            inputs: (0..P)
                .map(|_| {
                    (0..v)
                        .map(|_| VirtualChannel::new(cfg.buffer_depth))
                        .collect()
                })
                .collect(),
            outputs: (0..P)
                .map(|p| OutputPort::new(live[p], v, cfg.buffer_depth))
                .collect(),
            rc_rr: (0..P).map(|_| RoundRobin::new(v)).collect(),
            va1: (0..P).map(|_| RoundRobin::new(v)).collect(),
            sa1: (0..P).map(|_| RoundRobin::new(v)).collect(),
            va2: (0..P).map(|_| RoundRobin::new(P as u8)).collect(),
            sa2: (0..P).map(|_| RoundRobin::new(P as u8)).collect(),
            st_read: [0; P],
            st_grant: [0; P],
            rc_bus: vec![0; P],
            va_bus: vec![0; P],
            va2_bus: vec![0; P],
            incoming: vec![None; P],
            incoming_credits: Vec::new(),
            out_flits: vec![None; P],
            out_credits: Vec::new(),
            last_arrival: vec![None; P],
            input_disabled: [0; P],
            region_next_up: Vec::new(),
            region_next_down: Vec::new(),
            region_down_in: [false; P],
            region_reroutes: 0,
        }
    }

    /// Router (node) id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Port liveness mask.
    pub fn live(&self) -> &[bool; P] {
        &self.live
    }

    /// Immutable view of an input VC (diagnostics and tests).
    pub fn input_vc(&self, port: u8, vc: u8) -> &VirtualChannel {
        &self.inputs[port as usize][vc as usize]
    }

    /// Immutable view of an output port (diagnostics and tests).
    pub fn output_port(&self, port: u8) -> &OutputPort {
        &self.outputs[port as usize]
    }

    /// Total flits buffered in this router (input buffers only).
    pub fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|port| port.iter())
            .map(|vc| vc.buffer.len())
            .sum()
    }

    /// True when no flit is buffered, latched or staged anywhere.
    pub fn is_empty(&self) -> bool {
        self.buffered_flits() == 0
            && self.incoming.iter().all(Option::is_none)
            && self.out_flits.iter().all(Option::is_none)
            && self.st_read.iter().all(|&m| m == 0)
    }

    /// Per input port, the VCs holding pipeline work: non-idle or
    /// non-empty, and not quarantined. Every other VC is idle and empty,
    /// and an idle, empty VC behind identity wires does nothing in any
    /// pipeline stage.
    pub(crate) fn busy_vcs(&self) -> [u64; P] {
        let mut busy = [0u64; P];
        for (p, port) in self.inputs.iter().enumerate() {
            if !self.live[p] {
                continue;
            }
            for (v, vc) in port.iter().enumerate() {
                if vc.state != state::IDLE || !vc.buffer.is_empty() {
                    busy[p] |= 1 << v;
                }
            }
            busy[p] &= !self.input_disabled[p];
        }
        busy
    }

    /// True when nothing is pending on the router's links or latches: no
    /// credit or flit arriving, no latched switch read/grant, no staged
    /// output.
    pub(crate) fn links_quiet(&self) -> bool {
        self.incoming_credits.is_empty()
            && self.st_read.iter().all(|&m| m == 0)
            && self.st_grant.iter().all(|&m| m == 0)
            && self.incoming.iter().all(Option::is_none)
            && self.out_flits.iter().all(Option::is_none)
    }

    /// True when this cycle's control step is provably a no-op: links and
    /// latches quiet ([`Router::links_quiet`]) and no busy input VC
    /// ([`Router::busy_vcs`]). Arbiters do not rotate on zero requests
    /// and the state table only writes on events, so the network may skip
    /// [`Router::step`] entirely for such a router (as long as no fault is
    /// armed on it) and the outcome — state *and* emitted record — is
    /// bit-identical.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.links_quiet() && self.busy_vcs() == [0; P]
    }

    /// The uid of the flit at the head of input VC `(port, vc)`, or `None`
    /// when the buffer is empty (or the address is out of range). The
    /// recovery layer's worm-age monitor samples this each cycle: an
    /// unchanged head uid means the worm has made no forward progress.
    pub(crate) fn input_head_uid(&self, port: u8, vc: u8) -> Option<u64> {
        let (p, v) = (port as usize, vc as usize);
        self.inputs
            .get(p)
            .and_then(|vcs| vcs.get(v))
            .and_then(|slot| slot.buffer.peek())
            .map(|f| f.uid)
    }

    // --- Recovery-controller containment primitives (DESIGN.md §11) ---

    /// L1 squash: destroys the suspect flit at the head of input VC
    /// `(port, vc)` and stages the upstream credit its read would have
    /// produced, so flow control stays consistent. Returns flits dropped
    /// (0 or 1).
    pub(crate) fn squash_input_vc(&mut self, port: u8, vc: u8) -> usize {
        let (p, v) = (port as usize, vc as usize);
        if p >= P || !self.live[p] || v >= self.inputs[p].len() {
            return 0;
        }
        let Some(flit) = self.inputs[p][v].buffer.pop() else {
            return 0;
        };
        self.out_credits.push(CreditMsg {
            port,
            vc,
            tail: flit.is_tail(),
        });
        if flit.is_tail() {
            // The worm ended with the squashed flit: tear the VC down as a
            // normal tail read would.
            let vcref = &mut self.inputs[p][v];
            vcref.release();
            if let Some(next) = vcref.buffer.peek() {
                if next.is_head() {
                    vcref.state = state::ROUTING;
                }
            }
        }
        1
    }

    /// L2 teardown, input side: destroys every flit buffered in input VC
    /// `(port, vc)`, cancels its pending switch read and clears an
    /// in-flight link arrival addressed to it. Returns flits dropped.
    pub(crate) fn hard_reset_input_vc(&mut self, port: u8, vc: u8) -> usize {
        let (p, v) = (port as usize, vc as usize);
        if p >= P || v >= self.inputs[p].len() {
            return 0;
        }
        self.st_read[p] &= !(1 << v);
        let mut dropped = self.inputs[p][v].hard_reset();
        if self.incoming[p].is_some_and(|lf| lf.vc == vc) {
            self.incoming[p] = None;
            dropped += 1;
        }
        dropped
    }

    /// L2 teardown, link side: destroys a staged outbound flit headed for
    /// downstream VC `vc` of output `port`. Returns flits dropped.
    pub(crate) fn clear_out_flit_to(&mut self, port: u8, vc: u8) -> usize {
        let p = port as usize;
        if p < P && self.out_flits[p].is_some_and(|lf| lf.vc == vc) {
            self.out_flits[p] = None;
            1
        } else {
            0
        }
    }

    /// The local input `(port, vc)` currently holding the allocation of
    /// downstream VC `vc` at output `port` (for worm-chain teardown).
    pub(crate) fn output_owner(&self, port: u8, vc: u8) -> Option<(u8, u8)> {
        self.outputs
            .get(port as usize)?
            .owner
            .get(vc as usize)
            .copied()
            .flatten()
    }

    /// L2 teardown, output side: restores output VC bookkeeping to reset
    /// values (full credits, free unless quarantined).
    pub(crate) fn reset_output_vc(&mut self, port: u8, vc: u8, depth: u8) {
        if let Some(op) = self.outputs.get_mut(port as usize) {
            op.reset_vc(vc, depth);
        }
    }

    /// L3 quarantine of downstream VC `vc` at output `port`.
    pub(crate) fn disable_output_vc(&mut self, port: u8, vc: u8) {
        if let Some(op) = self.outputs.get_mut(port as usize) {
            op.disable(vc);
        }
    }

    /// L3 quarantine of *input* VC `(port, vc)`: every pipeline stage skips
    /// the VC from now on. Disabling the upstream output VC alone is not
    /// enough — the read side here would keep sampling the (possibly still
    /// faulty) buffer-status wires of the drained VC, and an intermittent
    /// `BufEmpty` flip on an empty quarantined buffer replays stale flits
    /// as zombie worms. Callers drain the VC first (`hard_reset_input_vc`).
    pub(crate) fn disable_input_vc(&mut self, port: u8, vc: u8) {
        let (p, v) = (port as usize, vc as usize);
        if p < P && v < self.inputs[p].len() {
            self.input_disabled[p] |= 1 << v;
        }
    }

    /// True when input VC `(port, vc)` has been quarantined.
    #[inline]
    pub(crate) fn input_vc_disabled(&self, port: u8, vc: u8) -> bool {
        (self.input_disabled[port as usize] >> vc) & 1 == 1
    }

    /// True when every downstream VC of output `port` is quarantined.
    /// True when every VC of output `port` in the half-open range
    /// `lo..hi` is disabled — a message class starved of paths through
    /// this direction (the fence trigger for degraded routing).
    pub(crate) fn output_class_starved(&self, port: u8, lo: u8, hi: u8) -> bool {
        self.outputs.get(port as usize).is_some_and(|op| {
            op.disabled
                .get(lo as usize..(hi as usize).min(op.disabled.len()))
                .is_some_and(|cls| !cls.is_empty() && cls.iter().all(|&d| d))
        })
    }

    /// Fences (or unfences) output direction `port` for degraded routing.
    pub(crate) fn set_avoid(&mut self, port: u8, fenced: bool) {
        if (port as usize) < P {
            self.avoid[port as usize] = fenced;
        }
    }

    /// Installs (or clears, with empty slices) the fault-region
    /// next-hop rows and arrival-phase flags for this router. The network
    /// pushes fresh rows after every region-map rebuild; buffers are
    /// reused so resyncs never allocate once sized.
    pub(crate) fn install_region_rows(&mut self, up: &[u8], down: &[u8], down_in: [bool; P]) {
        self.region_next_up.clear();
        self.region_next_up.extend_from_slice(up);
        self.region_next_down.clear();
        self.region_next_down.extend_from_slice(down);
        self.region_down_in = down_in;
    }

    /// RC decisions where the fault-region tables overrode the baseline
    /// route (cumulative).
    pub fn region_reroutes(&self) -> u64 {
        self.region_reroutes
    }

    /// Bitmask of output directions currently fenced for degraded routing.
    pub fn avoid_mask(&self) -> u64 {
        self.avoid
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .fold(0, |m, (i, _)| m | 1 << i)
    }

    /// Applies a single-event upset directly to a stored state-table bit
    /// (see `SignalKind::is_register`). Returns whether a register was
    /// actually flipped.
    pub(crate) fn apply_register_upset(&mut self, site: &noc_types::site::SiteRef) -> bool {
        let p = site.port as usize;
        let v = site.vc as usize;
        if p >= P || !self.live[p] || v >= self.inputs[p].len() {
            return false;
        }
        let vc = &mut self.inputs[p][v];
        match site.signal {
            SignalKind::VcStateCode => {
                vc.state = (vc.state ^ (1 << site.bit)) & 0b11;
                true
            }
            SignalKind::VcOutPort => {
                vc.out_port = (vc.out_port ^ (1 << site.bit)) & 0b111;
                true
            }
            SignalKind::VcOutVc => {
                vc.out_vc ^= 1 << site.bit;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn state_wire<W: Wires>(&self, pl: &mut W, cy: Cycle, p: u8, v: u8) -> u64 {
        pl.xf(
            cy,
            self.id,
            p,
            v,
            SignalKind::VcStateCode,
            self.inputs[p as usize][v as usize].state,
        ) & 0b11
    }

    /// One full cycle of the router's control logic. `rec` must already be
    /// reset to this router.
    ///
    /// `busy` carries [`Router::busy_vcs`] across steps: on entry a
    /// superset of the busy VCs, on exit exactly the busy VCs. Through
    /// [`IdentityWires`](crate::IdentityWires) the stages visit only those
    /// (see the module docs); through a [`FaultPlane`](crate::FaultPlane)
    /// they scan every VC and ignore the entry value.
    pub fn step<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
        busy: &mut [u64; P],
    ) {
        let vcs = cfg.vcs_per_port;
        scratch.reset(vcs);
        let all = (1u64 << vcs) - 1;
        let mut scan = [0u64; P];
        for p in 0..P {
            if self.live[p] {
                let cand = if W::IDENTITY { busy[p] } else { all };
                scan[p] = cand & !self.input_disabled[p];
            }
        }

        self.apply_credits(cfg, cy);
        self.stage_st(cfg, cy, pl, scratch, rec);
        // Snapshot the state wires between ST and SA: this is the
        // "state_before" the pipeline-order checkers reason about. Faulty
        // wires are sampled on quarantined VCs too (a fault there still
        // counts its hits). Identity wires skip every VC outside `scan`:
        // it is idle, and the reset snapshot already reads idle.
        for p in 0..P as u8 {
            let snap = match (W::IDENTITY, self.live[p as usize]) {
                (true, _) => scan[p as usize],
                (false, true) => all,
                (false, false) => 0,
            };
            for v in bits(snap) {
                scratch.state_snap[p as usize][v as usize] = self.state_wire(pl, cy, p, v);
            }
        }
        self.stage_sa(cfg, cy, pl, scratch, rec, &scan);
        self.stage_va(cfg, cy, pl, scratch, rec, &scan);
        self.stage_rc(cfg, cy, pl, scratch, rec, &scan);
        let written = self.stage_bw(cfg, cy, pl, rec);
        for p in 0..P {
            scan[p] |= written[p];
        }
        *busy = self.state_table_update(cy, pl, scratch, rec, &scan);
    }

    /// Applies credits that arrived on the reverse links. Drained in place
    /// (disjoint-field borrow) so the queue keeps its capacity.
    fn apply_credits(&mut self, cfg: &NocConfig, _cy: Cycle) {
        let atomic = cfg.buffer_policy == BufferPolicy::Atomic;
        let Router {
            incoming_credits,
            outputs,
            ..
        } = self;
        for c in incoming_credits.drain(..) {
            let op = &mut outputs[c.port as usize];
            op.return_credit(c.vc as u64, cfg.buffer_depth);
            if c.tail && atomic {
                op.release(c.vc as u64);
            }
        }
    }

    /// ST stage: execute last cycle's SA decisions — buffer reads, port
    /// muxes, crossbar traversal, link launch, credit returns.
    fn stage_st<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
    ) {
        let all = (1u64 << cfg.vcs_per_port) - 1;
        let non_atomic = cfg.buffer_policy == BufferPolicy::NonAtomic;
        let read_latch = std::mem::replace(&mut self.st_read, [0; P]);
        let grant_latch = std::mem::replace(&mut self.st_grant, [0; P]);

        // Per-port buffer reads + port mux. Tail-triggered wormhole
        // teardown is deferred until after crossbar traversal: the VC state
        // table's outputs (out_port / out_vc) are still driving the switch
        // during this cycle. An identity read-enable fires exactly on the
        // latched VCs — busy or not: a squash can leave a latched read on a
        // VC that is now idle and empty, and it replays stale data.
        for p in 0..P as u8 {
            if !self.live[p as usize] {
                continue;
            }
            let cand = if W::IDENTITY {
                read_latch[p as usize]
            } else {
                all
            };
            let mut mux: Option<(Flit, u8)> = None;
            for v in bits(cand & !self.input_disabled[p as usize]) {
                let mut enabled = (read_latch[p as usize] >> v) & 1 == 1;
                if enabled && cfg.speculative {
                    // Speculative switch allocation: the bid was made while
                    // VC allocation was (possibly) still pending. Squash
                    // the traversal unless allocation succeeded and a
                    // credit is available for the allocated VC.
                    let st = self.state_wire(pl, cy, p, v);
                    if st != state::ACTIVE {
                        enabled = false;
                    } else {
                        let op = pl.xf(
                            cy,
                            self.id,
                            p,
                            v,
                            SignalKind::VcOutPort,
                            self.inputs[p as usize][v as usize].out_port,
                        ) & 0b111;
                        let ovc = pl.xf(
                            cy,
                            self.id,
                            p,
                            v,
                            SignalKind::VcOutVc,
                            self.inputs[p as usize][v as usize].out_vc,
                        );
                        if (op as usize) >= P
                            || !self.live[op as usize]
                            || !self.outputs[op as usize].has_credit(ovc)
                        {
                            enabled = false;
                        }
                    }
                }
                let rd = pl.xf_bool(cy, self.id, p, v, SignalKind::BufRead, enabled);
                if !rd {
                    continue;
                }
                let vcref = &mut self.inputs[p as usize][v as usize];
                let was_empty = vcref.buffer.is_empty();
                rec.reads.push(ReadEvent {
                    port: p,
                    vc: v,
                    was_empty,
                });
                let flit = match vcref.buffer.pop() {
                    Some(f) => f,
                    None => vcref.buffer.read_stale(),
                };
                // Credit pulse travels upstream per read-enable, with the
                // tail wire decoded from the read data.
                self.out_credits.push(CreditMsg {
                    port: p,
                    vc: v,
                    tail: flit.is_tail(),
                });
                if flit.is_tail() {
                    scratch.tail_release.push((p, v));
                }
                // Port output mux: the lowest-indexed read wins; any other
                // concurrently popped flit is physically lost at the mux
                // (invariance 29 is the checker for this).
                if mux.is_none() {
                    mux = Some((flit, v));
                }
            }
            scratch.row_flit[p as usize] = mux;
        }

        // Crossbar control + traversal.
        let mut matrix = 0u64;
        let mut out_valid = 0u64;
        let mut out_count = 0u8;
        for o in 0..P as u8 {
            if !self.live[o as usize] || (W::IDENTITY && grant_latch[o as usize] == 0) {
                continue;
            }
            let gr_in = pl.xf(
                cy,
                self.id,
                o,
                0,
                SignalKind::XbarGrantIn,
                grant_latch[o as usize],
            );
            let col = pl.xf(cy, self.id, o, 0, SignalKind::XbarCol, gr_in) & 0b11111;
            for p in 0..P as u8 {
                if (col >> p) & 1 == 1 {
                    matrix |= 1 << (o * 8 + p);
                }
            }
            // Gather the valid rows this column connects to.
            let mut first: Option<u8> = None;
            let mut extra = false;
            for p in 0..P as u8 {
                if (col >> p) & 1 == 1 && scratch.row_flit[p as usize].is_some() {
                    if first.is_none() {
                        first = Some(p);
                    } else {
                        extra = true;
                    }
                }
            }
            let Some(src_p) = first else { continue };
            let (mut flit, src_v) = scratch.row_flit[src_p as usize]
                .expect("src_p was selected only among rows holding a flit");
            if extra {
                // Two drivers on one column: the payloads collide. EDC on
                // the datapath would flag the damage, but the control-level
                // outcome is a corrupted flit continuing downstream.
                flit.corrupted = true;
            }
            let ovc = pl.xf(
                cy,
                self.id,
                src_p,
                src_v,
                SignalKind::VcOutVc,
                self.inputs[src_p as usize][src_v as usize].out_vc,
            );
            self.outputs[o as usize].consume_credit(ovc);
            if flit.is_tail() && non_atomic {
                self.outputs[o as usize].release(ovc);
            }
            self.out_flits[o as usize] = Some(LinkFlit {
                flit,
                vc: ovc as u8,
            });
            out_valid |= 1 << o;
            out_count += 1;
        }

        // Deferred wormhole teardown at the input side.
        for &(p, v) in &scratch.tail_release {
            let vcref = &mut self.inputs[p as usize][v as usize];
            vcref.release();
            if let Some(next) = vcref.buffer.peek() {
                if next.is_head() {
                    vcref.state = state::ROUTING;
                }
            }
        }

        let mut in_valid = 0u64;
        for p in 0..P as u8 {
            if scratch.row_flit[p as usize].is_some() {
                in_valid |= 1 << p;
            }
        }
        rec.xbar.matrix = matrix;
        rec.xbar.in_valid = in_valid;
        rec.xbar.out_valid = out_valid;
        rec.xbar.in_count = in_valid.count_ones() as u8;
        rec.xbar.out_count = out_count;
    }

    /// SA stage: SA1 per input port (credits are checked here, per the
    /// paper), SA2 per output port; winners are latched for next cycle's ST.
    fn stage_sa<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
        scan: &[u64; P],
    ) {
        let vcs = cfg.vcs_per_port;
        // Per input port: the SA1 winner VC and its (out_port, out_vc).
        let mut sa1_winner: [Option<(u8, u64, u64)>; P] = [None; P];
        let mut sa2_req = [0u64; P];
        let mut sa2_cand: [[Option<u8>; P]; P] = [[None; P]; P];

        for p in 0..P as u8 {
            if !self.live[p as usize] || (W::IDENTITY && scan[p as usize] == 0) {
                continue;
            }
            let mut req = 0u64;
            let mut credit_mask = 0u64;
            let mut any_interest = false;
            let mut targeted = 0u64;
            for v in bits(scan[p as usize]) {
                let st = self.state_wire(pl, cy, p, v);
                let empty = pl.xf_bool(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::BufEmpty,
                    self.inputs[p as usize][v as usize].buffer.is_empty(),
                );
                let speculating = cfg.speculative && st == state::VA_PENDING;
                if (st != state::ACTIVE && !speculating) || empty {
                    continue;
                }
                any_interest = true;
                let op = pl.xf(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::VcOutPort,
                    self.inputs[p as usize][v as usize].out_port,
                ) & 0b111;
                let ovc = pl.xf(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::VcOutVc,
                    self.inputs[p as usize][v as usize].out_vc,
                );
                scratch.sa_target[v as usize] = (op, ovc);
                targeted |= 1 << v;
                let credit = if speculating {
                    // Speculative bids cannot know the output VC yet; the
                    // credit gate moves to switch traversal (the squash).
                    true
                } else {
                    (op as usize) < P
                        && self.live[op as usize]
                        && self.outputs[op as usize].has_credit(ovc)
                };
                if credit {
                    credit_mask |= 1 << v;
                    req |= 1 << v;
                }
            }
            let req_w = pl.xf(cy, self.id, p, 0, SignalKind::Sa1Req, req);
            let g_int = self.sa1[p as usize].arbitrate(req_w);
            let g = pl.xf(cy, self.id, p, 0, SignalKind::Sa1Grant, g_int);
            if req_w != 0 || g != 0 || any_interest {
                rec.sa1.push(LocalArbEvent {
                    port: p,
                    req: req_w,
                    grant: g,
                    credit_ok: credit_mask,
                });
            }
            // The port's winner path latches the lowest granted VC.
            if g != 0 {
                let v = g.trailing_zeros() as u8;
                if v < vcs {
                    let (op, ovc) = if (targeted >> v) & 1 == 1 {
                        scratch.sa_target[v as usize]
                    } else {
                        // A granted VC that never qualified: the port
                        // control reads its (stale) target wires now.
                        let op = pl.xf(
                            cy,
                            self.id,
                            p,
                            v,
                            SignalKind::VcOutPort,
                            self.inputs[p as usize][v as usize].out_port,
                        ) & 0b111;
                        let ovc = pl.xf(
                            cy,
                            self.id,
                            p,
                            v,
                            SignalKind::VcOutVc,
                            self.inputs[p as usize][v as usize].out_vc,
                        );
                        (op, ovc)
                    };
                    sa1_winner[p as usize] = Some((v, op, ovc));
                    if (op as usize) < P && self.live[op as usize] {
                        sa2_req[op as usize] |= 1 << p;
                        sa2_cand[op as usize][p as usize] = Some(v);
                    }
                }
            }
        }

        for o in 0..P as u8 {
            if !self.live[o as usize] || (W::IDENTITY && sa2_req[o as usize] == 0) {
                continue;
            }
            let req_w = pl.xf(cy, self.id, o, 0, SignalKind::Sa2Req, sa2_req[o as usize]);
            let g_int = self.sa2[o as usize].arbitrate(req_w);
            let g = pl.xf(cy, self.id, o, 0, SignalKind::Sa2Grant, g_int);
            self.st_grant[o as usize] = g;
            let mut winner: Option<(u8, u8)> = None;
            let mut winner_rc_port = None;
            let mut winner_won_sa1 = false;
            let mut winner_credit_ok = false;
            for p in 0..P as u8 {
                if (g >> p) & 1 == 0 {
                    continue;
                }
                if let Some((v, op, ovc)) = sa1_winner[p as usize] {
                    self.st_read[p as usize] |= 1 << v;
                    scratch.ev_sa[p as usize][v as usize] = true;
                    if winner.is_none() {
                        winner = Some((p, v));
                        winner_rc_port = Some(op);
                        winner_won_sa1 = sa2_cand[o as usize][p as usize] == Some(v);
                        // A speculative bid has no allocated VC yet: its
                        // credit gate moves to switch traversal, so the
                        // wire checkers treat it as satisfied (the paper's
                        // Section-4.4 invariance adaptation).
                        let speculating =
                            cfg.speculative && self.state_wire(pl, cy, p, v) == state::VA_PENDING;
                        winner_credit_ok = speculating
                            || ((op as usize) < P
                                && self.live[op as usize]
                                && self.outputs[op as usize].has_credit(ovc));
                    }
                }
            }
            if req_w != 0 || g != 0 {
                rec.sa2.push(Sa2Event {
                    out_port: o,
                    req: req_w,
                    grant: g,
                    winner,
                    winner_rc_port,
                    winner_won_sa1,
                    winner_credit_ok,
                });
            }
        }
    }

    /// VA stage: VA1 per input port, VA2 per output port; winners get a
    /// downstream VC.
    fn stage_va<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
        scan: &[u64; P],
    ) {
        let vcs = cfg.vcs_per_port;
        let mut va1_winner: [Option<u8>; P] = [None; P];
        let mut va2_req = [0u64; P];
        let mut va2_cand: [[Option<u8>; P]; P] = [[None; P]; P];

        for p in 0..P as u8 {
            if !self.live[p as usize] || (W::IDENTITY && scan[p as usize] == 0) {
                continue;
            }
            let mut req = 0u64;
            for v in bits(scan[p as usize]) {
                if self.state_wire(pl, cy, p, v) == state::VA_PENDING {
                    req |= 1 << v;
                }
            }
            let req_w = pl.xf(cy, self.id, p, 0, SignalKind::Va1Req, req);
            let g_int = self.va1[p as usize].arbitrate(req_w);
            let g = pl.xf(cy, self.id, p, 0, SignalKind::Va1Grant, g_int);
            if req_w != 0 || g != 0 {
                rec.va1.push(LocalArbEvent {
                    port: p,
                    req: req_w,
                    grant: g,
                    credit_ok: req_w,
                });
            }
            if g != 0 {
                let v = g.trailing_zeros() as u8;
                if v < vcs {
                    va1_winner[p as usize] = Some(v);
                    let op = pl.xf(
                        cy,
                        self.id,
                        p,
                        v,
                        SignalKind::VcOutPort,
                        self.inputs[p as usize][v as usize].out_port,
                    ) & 0b111;
                    if (op as usize) < P && self.live[op as usize] {
                        va2_req[op as usize] |= 1 << p;
                        va2_cand[op as usize][p as usize] = Some(v);
                    }
                }
            }
        }

        for o in 0..P as u8 {
            if !self.live[o as usize] || (W::IDENTITY && va2_req[o as usize] == 0) {
                continue;
            }
            // Only requests whose message class has a free downstream VC
            // are eligible.
            let mut elig = 0u64;
            for p in 0..P as u8 {
                if (va2_req[o as usize] >> p) & 1 == 0 {
                    continue;
                }
                let v = va2_cand[o as usize][p as usize].expect("request implies candidate");
                let class = cfg.class_of_vc(v);
                let (lo, hi) = cfg.vc_range_of_class(class);
                if self.outputs[o as usize].lowest_free_in(lo, hi).is_some() {
                    elig |= 1 << p;
                }
            }
            let req_w = pl.xf(cy, self.id, o, 0, SignalKind::Va2Req, elig);
            let g_int = self.va2[o as usize].arbitrate(req_w);
            let g = pl.xf(cy, self.id, o, 0, SignalKind::Va2Grant, g_int);
            if req_w == 0 && g == 0 {
                continue;
            }
            // The VC-select bus: computed for the internal winner; a
            // spurious grant latches whatever the bus last carried.
            let chosen = g_int
                .checked_trailing_zeros_lt(P as u32)
                .and_then(|p_int| va2_cand[o as usize][p_int as usize])
                .map(|v| {
                    let class = cfg.class_of_vc(v);
                    let (lo, hi) = cfg.vc_range_of_class(class);
                    self.outputs[o as usize].lowest_free_in(lo, hi).unwrap_or(0) as u64
                })
                .unwrap_or(self.va2_bus[o as usize]);
            self.va2_bus[o as usize] = chosen;
            let out_vc_w = pl.xf(cy, self.id, o, 0, SignalKind::Va2OutVc, chosen);
            let free_mask = self.outputs[o as usize].free_mask();

            let mut winner = None;
            let mut winner_rc_port = None;
            let mut winner_class = None;
            let mut winner_won_va1 = false;
            for p in 0..P as u8 {
                if (g >> p) & 1 == 0 {
                    continue;
                }
                if let Some(v) = va1_winner[p as usize] {
                    scratch.va_result[p as usize][v as usize] = Some(out_vc_w);
                    scratch.ev_va[p as usize][v as usize] = true;
                    self.va_bus[p as usize] = out_vc_w;
                    self.outputs[o as usize].allocate(out_vc_w, (p, v));
                    if winner.is_none() {
                        winner = Some((p, v));
                        winner_rc_port = Some(
                            pl.xf(
                                cy,
                                self.id,
                                p,
                                v,
                                SignalKind::VcOutPort,
                                self.inputs[p as usize][v as usize].out_port,
                            ) & 0b111,
                        );
                        winner_class = Some(cfg.class_of_vc(v));
                        winner_won_va1 = va2_cand[o as usize][p as usize] == Some(v);
                    }
                }
            }
            rec.va2.push(Va2Event {
                out_port: o,
                req: req_w,
                grant: g,
                out_vc: out_vc_w,
                free_mask,
                winner,
                winner_rc_port,
                winner_class,
                winner_won_va1,
            });
        }
    }

    /// RC stage: one routing computation per input port per cycle.
    fn stage_rc<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
        scan: &[u64; P],
    ) {
        for p in 0..P as u8 {
            if !self.live[p as usize] {
                continue;
            }
            let mut pending = 0u64;
            for v in bits(scan[p as usize]) {
                if self.state_wire(pl, cy, p, v) == state::ROUTING {
                    pending |= 1 << v;
                }
            }
            if pending == 0 {
                continue;
            }
            let pick = self.rc_rr[p as usize].arbitrate(pending);
            let v = pick.trailing_zeros() as u8;
            let vcref = &self.inputs[p as usize][v as usize];
            let head = vcref.buffer.peek().copied();
            let wire_flit = head.unwrap_or_else(|| vcref.buffer.read_stale());
            let dest = cfg.mesh.coord(noc_types::geometry::NodeId(
                wire_flit.dest.0 % cfg.mesh.len() as u16,
            ));
            let dx = pl.xf(cy, self.id, p, v, SignalKind::RcDestX, dest.x as u64);
            let dy = pl.xf(cy, self.id, p, v, SignalKind::RcDestY, dest.y as u64);
            let head_valid = pl.xf_bool(
                cy,
                self.id,
                p,
                v,
                SignalKind::RcHeadValid,
                head.map(|f| f.is_head()).unwrap_or(false),
            );
            let dest_c = Coord::new(
                (dx as u8).min(cfg.mesh.width().saturating_sub(1).max(dx as u8)),
                (dy as u8).min(cfg.mesh.height().saturating_sub(1).max(dy as u8)),
            );
            let region_bits = if self.region_next_up.is_empty() {
                noc_types::record::REGION_NONE
            } else {
                // Fault-region tables installed: phase is derived from the
                // arrival port (a down-hop arrival commits the packet),
                // with injections always free. The destination index is
                // clamp-guarded — a fault-corrupted dest wire decodes to
                // the no-route sentinel, never out of bounds.
                let di = dest_c.y as usize * cfg.mesh.width() as usize + dest_c.x as usize;
                let committed =
                    p != Direction::Local.index() as u8 && self.region_down_in[p as usize];
                let row = if committed {
                    &self.region_next_down
                } else {
                    &self.region_next_up
                };
                row.get(di)
                    .copied()
                    .unwrap_or(crate::fault_region::NO_ROUTE)
            };
            let region_dir = if region_bits == noc_types::record::REGION_NONE {
                None
            } else {
                // The sentinel decodes to None → eject locally: the flit
                // is unroutable (destination absorbed or partitioned off)
                // and black-holing it at the ingress hands the loss to the
                // ARQ transport instead of wedging a region boundary.
                Some(Direction::from_bits(region_bits as u64).unwrap_or(Direction::Local))
            };
            let dir = if let Some(d) = region_dir {
                if d != route(cfg.routing, self.coord, dest_c) {
                    self.region_reroutes += 1;
                }
                d
            } else if self.avoid.iter().any(|&a| a) {
                crate::routing::route_avoiding(
                    cfg.routing,
                    cfg.mesh,
                    self.coord,
                    dest_c,
                    &self.avoid,
                )
            } else {
                route(cfg.routing, self.coord, dest_c)
            };
            let out_raw = pl.xf(cy, self.id, p, v, SignalKind::RcOutDir, dir.bits()) & 0b111;
            scratch.rc_result[p as usize][v as usize] = Some(out_raw);
            scratch.ev_rc[p as usize][v as usize] = true;
            self.rc_bus[p as usize] = out_raw;
            let empty_w = pl.xf_bool(
                cy,
                self.id,
                p,
                v,
                SignalKind::BufEmpty,
                vcref.buffer.is_empty(),
            );
            // The degraded-routing registers the checkers re-derive the
            // active routing function from (DESIGN.md §13): the fence mask
            // and the region-table entry RC consulted this cycle.
            let mut avoid_mask = 0u8;
            for (i, &a) in self.avoid.iter().enumerate() {
                if a {
                    avoid_mask |= 1 << i;
                }
            }
            rec.rc.push(RcEvent {
                port: p,
                vc: v,
                dest_x: dx,
                dest_y: dy,
                head_valid,
                buf_empty: empty_w,
                out_dir: out_raw,
                avoid_mask,
                region_next: region_bits,
            });
        }
    }

    /// BW stage: write arriving link flits into the addressed VC buffers.
    /// Returns, per input port, the VCs written.
    fn stage_bw<W: Wires>(
        &mut self,
        cfg: &NocConfig,
        cy: Cycle,
        pl: &mut W,
        rec: &mut CycleRecord,
    ) -> [u64; P] {
        let vcs = cfg.vcs_per_port;
        let mut written = [0u64; P];
        for p in 0..P as u8 {
            if !self.live[p as usize] || (W::IDENTITY && self.incoming[p as usize].is_none()) {
                continue;
            }
            let arrival = self.incoming[p as usize].take();
            if let Some(lf) = arrival {
                self.last_arrival[p as usize] = Some(lf);
            }
            // Identity write-enables fire only on the addressed VC; a VC id
            // out of range (corrupted upstream) addresses none.
            let cand = match (W::IDENTITY, arrival) {
                (false, _) => (1u64 << vcs) - 1,
                (true, Some(lf)) if lf.vc < vcs => 1 << lf.vc,
                (true, _) => 0,
            };
            for v in bits(cand & !self.input_disabled[p as usize]) {
                let addressed = arrival.map(|lf| lf.vc == v).unwrap_or(false);
                let wr = pl.xf_bool(cy, self.id, p, v, SignalKind::BufWrite, addressed);
                if !wr {
                    continue;
                }
                let flit = if addressed {
                    arrival
                        .expect("addressed implies a link arrival this cycle")
                        .flit
                } else {
                    // Spurious write-enable: the buffer captures whatever
                    // the link data register holds — a stale replay.
                    match self.last_arrival[p as usize] {
                        Some(lf) => {
                            let mut f = lf.flit;
                            f.origin = FlitOrigin::StaleReplay;
                            f
                        }
                        None => {
                            let mut f = crate::buffer::VcBuffer::new(cfg.buffer_depth).read_stale();
                            f.origin = FlitOrigin::StaleReplay;
                            f
                        }
                    }
                };
                let was_free = self.state_wire(pl, cy, p, v) == state::IDLE;
                let vcref = &mut self.inputs[p as usize][v as usize];
                let was_full = pl.xf_bool(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::BufFull,
                    vcref.buffer.is_full(),
                );
                if flit.is_head() {
                    vcref.arrived = 1;
                } else {
                    vcref.arrived = vcref.arrived.saturating_add(1);
                }
                rec.writes.push(WriteEvent {
                    port: p,
                    vc: v,
                    kind: flit.kind.bits(),
                    is_head: flit.is_head(),
                    is_tail: flit.is_tail(),
                    vc_was_free: was_free,
                    buf_was_full: was_full,
                    prev_written_was_tail: vcref.prev_written_was_tail,
                    arrived_count: vcref.arrived,
                    expected_len: cfg.packet_len(cfg.class_of_vc(v)),
                });
                vcref.prev_written_was_tail = flit.is_tail();
                let _lost = vcref.buffer.push(flit);
                if flit.is_head() && was_free {
                    vcref.state = state::ROUTING;
                }
                written[p as usize] |= 1 << v;
            }
        }
        written
    }

    /// End-of-cycle state-table update: latch RC/VA results through the
    /// (possibly faulty) event wires and emit the VC snapshots checkers use.
    /// Visits the VCs in `scan` and returns the busy ones among them; every
    /// VC outside `scan` is idle and empty (see [`Router::step`]).
    fn state_table_update<W: Wires>(
        &mut self,
        cy: Cycle,
        pl: &mut W,
        scratch: &mut RouterScratch,
        rec: &mut CycleRecord,
        scan: &[u64; P],
    ) -> [u64; P] {
        let mut busy = [0u64; P];
        for p in 0..P as u8 {
            for v in bits(scan[p as usize]) {
                let pi = p as usize;
                let vi = v as usize;
                let ev_rc = pl.xf_bool(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::VcEvRcDone,
                    scratch.ev_rc[pi][vi],
                );
                let ev_va = pl.xf_bool(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::VcEvVaDone,
                    scratch.ev_va[pi][vi],
                );
                let ev_sa = pl.xf_bool(
                    cy,
                    self.id,
                    p,
                    v,
                    SignalKind::VcEvSaWon,
                    scratch.ev_sa[pi][vi],
                );
                let before = scratch.state_snap[pi][vi];
                {
                    let vcref = &mut self.inputs[pi][vi];
                    if ev_rc {
                        vcref.state = state::VA_PENDING;
                        vcref.out_port =
                            scratch.rc_result[pi][vi].unwrap_or(self.rc_bus[pi]) & 0b111;
                    }
                    if ev_va {
                        vcref.state = state::ACTIVE;
                        vcref.out_vc = scratch.va_result[pi][vi].unwrap_or(self.va_bus[pi]);
                    }
                }
                let vcref = &self.inputs[pi][vi];
                let after = vcref.state;
                if after != state::IDLE || !vcref.buffer.is_empty() {
                    busy[pi] |= 1 << v;
                }
                let interesting = ev_rc
                    || ev_va
                    || ev_sa
                    || before != state::IDLE
                    || after != state::IDLE
                    || !vcref.buffer.is_empty();
                if interesting {
                    let head_kind = pl.xf(
                        cy,
                        self.id,
                        p,
                        v,
                        SignalKind::BufHeadKind,
                        vcref.buffer.head_kind_wire().bits(),
                    ) & 0b11;
                    let empty = pl.xf_bool(
                        cy,
                        self.id,
                        p,
                        v,
                        SignalKind::BufEmpty,
                        vcref.buffer.is_empty(),
                    );
                    let out_port =
                        pl.xf(cy, self.id, p, v, SignalKind::VcOutPort, vcref.out_port) & 0b111;
                    let out_vc = pl.xf(cy, self.id, p, v, SignalKind::VcOutVc, vcref.out_vc);
                    rec.vc.push(VcEvent {
                        port: p,
                        vc: v,
                        state_before: before,
                        state_after: after,
                        ev_rc_done: ev_rc,
                        ev_va_done: ev_va,
                        ev_sa_won: ev_sa,
                        head_kind,
                        empty,
                        out_port,
                        out_vc,
                    });
                }
            }
        }
        busy
    }
}

/// The set bits of `m`, lowest first.
#[inline]
pub(crate) fn bits(mut m: u64) -> impl Iterator<Item = u8> {
    std::iter::from_fn(move || {
        if m == 0 {
            return None;
        }
        let b = m.trailing_zeros() as u8;
        m &= m - 1;
        Some(b)
    })
}

/// `u64` helper: `trailing_zeros` as `Option`, bounded by `limit`.
trait CheckedTz {
    fn checked_trailing_zeros_lt(self, limit: u32) -> Option<u32>;
}

impl CheckedTz for u64 {
    #[inline]
    fn checked_trailing_zeros_lt(self, limit: u32) -> Option<u32> {
        if self == 0 {
            return None;
        }
        let tz = self.trailing_zeros();
        (tz < limit).then_some(tz)
    }
}
