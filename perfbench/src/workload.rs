//! The workloads' inputs: every `JobSpec` a run submits is generated here
//! from the run's seed, and nothing else reaches the program.

use noc_types::{JobKind, JobResult, JobSpec, Mesh, NocConfig};

/// Input variants (traffic seeds), each with digests recorded in
/// `expected.json`. The cost of a job differs by up to 40% between
/// variants, so every run cycles through all of them and runs differ only
/// in where the rotation starts.
pub const VARIANTS: u64 = 8;

/// The variants in the order a run with `seed` visits them.
pub fn rotation(seed: u64) -> Vec<u64> {
    (0..VARIANTS).map(|k| (seed + k) % VARIANTS).collect()
}

/// Base of the traffic seeds the variants use.
const TRAFFIC_SEED_BASE: u64 = 0x6e6f_6300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TransientSweep,
    RecoverySweep,
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TransientSweep,
        Workload::RecoverySweep,
        Workload::ServiceMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TransientSweep => "transient-sweep",
            Workload::RecoverySweep => "recovery-sweep",
            Workload::ServiceMixed => "service-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One job of a workload: a label the expected digests are keyed by, and
/// the spec.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: &'static str,
    pub spec: JobSpec,
}

/// The canonical sweep network (`perf`'s `sweep_noc`): 8×8, 2 VCs, one
/// message class, 5-flit packets, 0.05 flits/node/cycle.
fn sweep_noc(variant: u64) -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc.seed = TRAFFIC_SEED_BASE + variant;
    noc
}

/// The same network shrunk to 4×4: the service workload's jobs.
fn service_noc(variant: u64) -> NocConfig {
    let mut noc = sweep_noc(variant);
    noc.mesh = Mesh::new(4, 4);
    noc
}

fn spec(kind: JobKind, noc: NocConfig, warmup: u64, window: u64, limit: u32) -> JobSpec {
    JobSpec {
        kind,
        noc,
        warmup,
        window,
        limit: Some(limit),
        threads: 1,
    }
}

/// The job a sweep workload repeats, at `threads` workers.
pub fn sweep_job(w: Workload, variant: u64, threads: u32) -> Job {
    let (label, kind, limit) = match w {
        Workload::TransientSweep => ("transient", JobKind::Transient, 16),
        Workload::RecoverySweep => ("recovery", JobKind::Recovery, 8),
        Workload::ServiceMixed => unreachable!("service-mixed has no sweep job"),
    };
    let mut spec = spec(kind, sweep_noc(variant), 500, 2_000, limit);
    spec.threads = threads;
    Job { label, spec }
}

/// The distinct jobs of the service workload, all at one worker thread.
pub fn service_jobs(variant: u64) -> Vec<Job> {
    let noc = service_noc(variant);
    vec![
        Job {
            label: "T",
            spec: spec(JobKind::Transient, noc.clone(), 300, 1_000, 16),
        },
        Job {
            label: "R",
            spec: spec(JobKind::Recovery, noc.clone(), 300, 1_000, 4),
        },
        Job {
            label: "A",
            spec: spec(JobKind::Attack, noc.clone(), 300, 1_000, 1),
        },
        // Smoke-scale aging: the job driver picks smoke defaults for meshes
        // up to 4×4 and keeps only the traffic seed, warm-up and window.
        Job {
            label: "G",
            spec: spec(JobKind::Aging, noc, 300, 1_500, 2),
        },
    ]
}

/// The fixed job order of each closed-loop client; both repeat the
/// transient configuration so the golden cache serves hits. The mix keeps
/// each latency percentile inside one job kind's cluster (p50 among the
/// transient jobs, 60% of the loop; p90 among the attack jobs, 20%), so a
/// job or two more of one kind does not move it from one cluster to the
/// next.
pub const CLIENT_SEQUENCES: [[&str; 5]; 2] = [["T", "R", "T", "A", "T"], ["T", "G", "T", "A", "T"]];

/// Work units a result covers: fault sites, rollouts, cells or epochs.
pub fn units(result: &JobResult) -> u64 {
    result.incidents.len() as u64
}

/// Simulated cycles a result covers. Recovery and attack rollouts each
/// simulate from cycle 0 to their end cycle; aging epochs share one
/// continuous simulation. A transient rollout's drain length is not in
/// its result, so each site counts its injection point plus the active
/// window.
pub fn sim_cycles(spec: &JobSpec, result: &JobResult) -> u64 {
    let ends = result.incidents.iter().map(|i| i.last_cycle);
    match spec.kind {
        JobKind::Transient => units(result) * (spec.warmup + spec.window),
        JobKind::Recovery | JobKind::Attack => ends.sum(),
        JobKind::Aging => ends.max().unwrap_or(0),
    }
}

/// Units whose rollout crashed inside the engine's panic boundary.
pub fn crashed(result: &JobResult) -> u64 {
    result
        .incidents
        .iter()
        .filter(|i| i.delivery.to_ascii_lowercase().starts_with("crashed"))
        .count() as u64
}
