//! The four workloads: seeded input generation (set-up), one job (the timed
//! call into the program), and the check of a job's outputs, which runs
//! outside the timed interval.

use crate::host::fnv1a64;
use crate::trace::Tracer;
use cluster_booster::presets::deep_er_prototype;
use cluster_booster::resources::AllocationPolicy;
use cluster_booster::{Launcher, System, SystemBuilder};
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeId, SimTime};
use obs::HostMetrics;
use psmpi::{JobReport, PoolStats, Tag, Universe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{
    generate, report_metrics, ArrivalModel, CheckpointPolicy, Engine, EngineConfig, EngineReport,
    TraceJob, WorkloadConfig,
};
use scr::{FailureModel, ScrConfig, ScrManager};
use simnet::{Fabric, FaultPlan, Topology};
use sionio::ParallelFs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xpic::{run_mode, CkptMode, Mode, RecoveryConfig, ResilientReport, XpicConfig, XpicReport};

/// Tag of the ring messages.
const TAG_RING: Tag = 7001;
/// Booster-node MTBF of the xpic_ckpt fault plan.
const CKPT_NODE_MTBF_S: f64 = 0.05;
/// Seed of the xpic_ckpt fault plan. The plan is part of the workload's
/// definition, not of its seeded inputs: with per-seed plans the number of
/// recoveries, and so the host work of a job, would change with the seed.
const CKPT_FAULT_SEED: u64 = 2;
/// Lock ratio of the node-locked scheduling policy.
const LOCK_RATIO: u32 = 2;
/// Per-node MTBF of the scheduler trace's fault plan (about 250 h).
const SCHED_NODE_MTBF_S: f64 = 900_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XpicCb,
    XpicCkpt,
    RingP2p,
    SchedTrace,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::XpicCb,
        Workload::XpicCkpt,
        Workload::RingP2p,
        Workload::SchedTrace,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::XpicCb => "xpic_cb",
            Workload::XpicCkpt => "xpic_ckpt",
            Workload::RingP2p => "ring_p2p",
            Workload::SchedTrace => "sched_trace",
        }
    }

    /// The name `work_per_s` goes by on this workload.
    pub fn throughput_name(self) -> &'static str {
        match self {
            Workload::XpicCb | Workload::XpicCkpt => "particle_steps_per_s",
            Workload::RingP2p => "msgs_per_s",
            Workload::SchedTrace => "trace_jobs_per_s",
        }
    }
}

/// Problem sizes. [`Shape::full`] is the benchmark; the self-tests run the
/// same code on [`Shape::small`].
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub xpic_grid: usize,
    pub xpic_ppc: usize,
    pub xpic_nodes: usize,
    pub xpic_cb_steps: u32,
    pub xpic_ckpt_steps: u32,
    pub ring_cn: u32,
    pub ring_bn: u32,
    pub ring_rounds: usize,
    pub ring_elems: usize,
    pub sched_cn: u32,
    pub sched_bn: u32,
    pub sched_jobs: usize,
}

impl Shape {
    pub fn full() -> Shape {
        Shape {
            xpic_grid: 128,
            xpic_ppc: 16,
            xpic_nodes: 2,
            xpic_cb_steps: 10,
            xpic_ckpt_steps: 12,
            ring_cn: 32,
            ring_bn: 32,
            ring_rounds: 5000,
            ring_elems: 1024,
            sched_cn: 64,
            sched_bn: 128,
            sched_jobs: 12_000,
        }
    }

    #[cfg(test)]
    pub fn small() -> Shape {
        Shape {
            xpic_grid: 128,
            xpic_ppc: 16,
            xpic_nodes: 2,
            xpic_cb_steps: 3,
            xpic_ckpt_steps: 12,
            ring_cn: 4,
            ring_bn: 4,
            ring_rounds: 20,
            ring_elems: 64,
            sched_cn: 64,
            sched_bn: 128,
            sched_jobs: 300,
        }
    }
}

/// The xPic configuration of both xpic workloads: `paper_bench` model
/// scale, one kernel thread (rank threads already fill the cores).
pub fn xpic_config(shape: &Shape, seed: u64, steps: u32) -> XpicConfig {
    let mut cfg = XpicConfig::paper_bench(steps);
    cfg.nx = shape.xpic_grid;
    cfg.ny = shape.xpic_grid;
    cfg.sim_particles_per_cell = shape.xpic_ppc;
    cfg.threads = 1;
    cfg.seed = seed;
    cfg
}

/// The generated inputs of one workload.
pub enum Inputs {
    XpicCb {
        launcher: Launcher,
        cfg: XpicConfig,
        nodes: usize,
    },
    XpicCkpt {
        cfg: XpicConfig,
        nodes: usize,
        plan: FaultPlan,
    },
    Ring {
        universe: Universe,
        placements: Vec<NodeId>,
        payloads: Arc<Vec<Vec<f64>>>,
        rounds: usize,
    },
    Sched {
        trace: Vec<TraceJob>,
        faults: FaultPlan,
        system_mtbf: SimTime,
        cn: u32,
        bn: u32,
    },
}

/// What one job returned, before it is checked.
pub enum Raw {
    Xpic(XpicReport, PoolStats),
    Ckpt(ResilientReport, PoolStats),
    Ring {
        report: JobReport,
        pool: PoolStats,
        bad_rounds: u64,
        finals: Vec<Vec<f64>>,
    },
    Sched {
        independent: EngineReport,
        node_locked: EngineReport,
    },
}

/// A checked job: its virtual outputs as one line, the physics part of
/// them (compared against a fault-free run where one exists), and every
/// check that failed.
pub struct Checked {
    pub virt: String,
    pub physics: String,
    pub problems: Vec<String>,
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        reclaim_failures: after.reclaim_failures - before.reclaim_failures,
    }
}

/// The Booster nodes the xpic_ckpt solver world runs on.
fn ckpt_nodes(launcher: &Launcher, nodes: usize) -> Vec<NodeId> {
    launcher.system().booster_nodes()[..nodes].to_vec()
}

/// The ring's machine: `cn` Cluster nodes followed by `bn` Booster nodes,
/// one rank each.
pub fn ring_fabric(cn: u32, bn: u32) -> (Fabric, Vec<NodeId>) {
    let mut topo = Topology::new();
    let mut nodes = topo.add_nodes(cn, &deep_er_cluster_node());
    nodes.extend(topo.add_nodes(bn, &deep_er_booster_node()));
    (Fabric::with_model(topo, Default::default()), nodes)
}

/// The scheduler benchmark's machine.
pub fn sched_system(cn: u32, bn: u32) -> System {
    SystemBuilder::new("sched-load")
        .cluster_nodes(cn)
        .booster_nodes(bn)
        .build()
}

fn sched_engine_config(policy: AllocationPolicy, system_mtbf: SimTime) -> EngineConfig {
    EngineConfig {
        policy,
        threads: 1,
        ckpt: Some(CheckpointPolicy::derive(
            SimTime::from_secs(30.0),
            SimTime::from_secs(120.0),
            SimTime::from_secs(600.0),
            system_mtbf,
        )),
        repair_after: Some(SimTime::from_secs(4.0 * 3600.0)),
        ..EngineConfig::default()
    }
}

/// The bursty trace and fault plan of the scheduler workload, generated as
/// the repository's `sched` benchmark binary generates them.
pub fn sched_inputs(
    seed: u64,
    jobs: usize,
    cn: u32,
    bn: u32,
) -> (Vec<TraceJob>, FaultPlan, SimTime) {
    let mut wl = WorkloadConfig::bursty(seed, jobs, cn as usize / 2, bn as usize / 2);
    wl.arrivals = ArrivalModel::Bursty {
        base_rate_per_hour: 12.0,
        burst_rate_per_hour: 120.0,
        burst_every: SimTime::from_secs(4.0 * 3600.0),
        burst_len: SimTime::from_secs(1800.0),
    };
    let trace = generate(&wl);
    let span = trace
        .iter()
        .map(|j| j.submit)
        .max()
        .unwrap_or(SimTime::ZERO);
    let system = sched_system(cn, bn);
    let fm = FailureModel::new(SimTime::from_secs(SCHED_NODE_MTBF_S));
    let system_mtbf = fm.system_mtbf(system.total_nodes());
    let mut frng = StdRng::seed_from_u64(seed ^ 0x5EED_FA17);
    let mut all_nodes = system.cluster_nodes();
    all_nodes.extend(system.booster_nodes());
    let faults = fm.fault_plan(
        &mut frng,
        &all_nodes,
        span + SimTime::from_secs(6.0 * 3600.0),
    );
    (trace, faults, system_mtbf)
}

/// Run both scheduling policies over a trace, each call in its own span
/// (its units are the events it processed).
pub fn run_sched(
    tr: &mut Tracer,
    trace: &[TraceJob],
    faults: &FaultPlan,
    system_mtbf: SimTime,
    cn: u32,
    bn: u32,
) -> (EngineReport, EngineReport) {
    let mut run = |name, policy| {
        let span = tr.begin(name);
        let eng = Engine::new(
            sched_system(cn, bn),
            sched_engine_config(policy, system_mtbf),
        );
        let r = eng.run(trace, faults);
        tr.end(span, r.events.len() as f64);
        r
    };
    let independent = run("sched.independent.run", AllocationPolicy::Independent);
    let node_locked = run(
        "sched.node_locked.run",
        AllocationPolicy::NodeLocked { ratio: LOCK_RATIO },
    );
    (independent, node_locked)
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn setup(workload: Workload, seed: u64, shape: &Shape) -> Inputs {
        match workload {
            Workload::XpicCb => Inputs::XpicCb {
                launcher: Launcher::new(deep_er_prototype()),
                cfg: xpic_config(shape, seed, shape.xpic_cb_steps),
                nodes: shape.xpic_nodes,
            },
            Workload::XpicCkpt => {
                let launcher = Launcher::new(deep_er_prototype());
                let nodes = ckpt_nodes(&launcher, shape.xpic_nodes);
                let mtbf = SimTime::from_secs(CKPT_NODE_MTBF_S);
                let mut rng = StdRng::seed_from_u64(CKPT_FAULT_SEED);
                let plan = FailureModel::new(mtbf).fault_plan(&mut rng, &nodes, mtbf * 4.0);
                Inputs::XpicCkpt {
                    cfg: xpic_config(shape, seed, shape.xpic_ckpt_steps),
                    nodes: shape.xpic_nodes,
                    plan,
                }
            }
            Workload::RingP2p => {
                let (fabric, placements) = ring_fabric(shape.ring_cn, shape.ring_bn);
                let mut rng = StdRng::seed_from_u64(seed);
                let payloads = (0..placements.len())
                    .map(|_| {
                        (0..shape.ring_elems)
                            .map(|_| 2.0 * rng.gen::<f64>() - 1.0)
                            .collect()
                    })
                    .collect();
                Inputs::Ring {
                    universe: Universe::new(fabric),
                    placements,
                    payloads: Arc::new(payloads),
                    rounds: shape.ring_rounds,
                }
            }
            Workload::SchedTrace => {
                let (trace, faults, system_mtbf) =
                    sched_inputs(seed, shape.sched_jobs, shape.sched_cn, shape.sched_bn);
                Inputs::Sched {
                    trace,
                    faults,
                    system_mtbf,
                    cn: shape.sched_cn,
                    bn: shape.sched_bn,
                }
            }
        }
    }

    /// Units of work one job does: simulated particles × configured steps,
    /// delivered messages, or trace jobs scheduled under both policies.
    pub fn work(&self) -> f64 {
        match self {
            Inputs::XpicCb { cfg, .. } | Inputs::XpicCkpt { cfg, .. } => {
                cfg.sim_particles() as f64 * cfg.steps as f64
            }
            Inputs::Ring {
                placements, rounds, ..
            } => (placements.len() * rounds) as f64,
            Inputs::Sched { trace, .. } => 2.0 * trace.len() as f64,
        }
    }

    /// Digest of the generated inputs the program receives.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let text = match self {
            Inputs::XpicCb { cfg, nodes, .. } => format!("{cfg:?} nodes={nodes}"),
            Inputs::XpicCkpt { cfg, nodes, plan } => {
                format!("{cfg:?} nodes={nodes} faults={:?}", plan.node_faults())
            }
            Inputs::Ring {
                placements,
                payloads,
                rounds,
                ..
            } => {
                let bits: Vec<u64> = payloads.iter().flatten().map(|v| v.to_bits()).collect();
                format!("{placements:?} rounds={rounds} payload={bits:?}")
            }
            Inputs::Sched { trace, faults, .. } => {
                format!("{trace:?} faults={:?}", faults.node_faults())
            }
        };
        fnv1a64(text.as_bytes())
    }

    /// One resilient xPic job on a fresh launcher and SCR manager
    /// (checkpoint state and the fault plan are per job).
    fn ckpt_job(
        cfg: &XpicConfig,
        nodes: usize,
        plan: Option<FaultPlan>,
        recorder: Option<obs::Recorder>,
    ) -> (ResilientReport, PoolStats, ScrManager) {
        let launcher = Launcher::new(deep_er_prototype());
        if let Some(rec) = recorder {
            launcher.universe().attach_obs(rec);
        }
        let ranks = ckpt_nodes(&launcher, nodes);
        let specs = ranks
            .iter()
            .map(|&n| {
                launcher
                    .system()
                    .fabric()
                    .node(n)
                    .expect("booster node spec")
                    .clone()
            })
            .collect();
        let scr = ScrManager::new(ScrConfig::default(), ranks, specs, ParallelFs::deep_er());
        let recovery = RecoveryConfig {
            checkpoint_every: 2,
            max_recoveries: 32,
            ckpt_mode: CkptMode::AsyncDelta,
            ..RecoveryConfig::default()
        };
        let pool = launcher.universe().router().buffer_pool();
        let before = pool.stats();
        let report = xpic::run_resilient(&launcher, nodes, cfg, &scr, &recovery, plan);
        (report, pool_delta(pool.stats(), before), scr)
    }

    /// Run one job: the timed call into the program.
    pub fn run(&self, tr: &mut Tracer) -> Raw {
        match self {
            Inputs::XpicCb {
                launcher,
                cfg,
                nodes,
            } => {
                let pool = launcher.universe().router().buffer_pool();
                let before = pool.stats();
                let span = tr.begin("xpic.run_mode");
                let report = run_mode(launcher, Mode::ClusterBooster, *nodes, cfg);
                tr.end(span, self.work());
                Raw::Xpic(report, pool_delta(pool.stats(), before))
            }
            Inputs::XpicCkpt { cfg, nodes, plan } => {
                let span = tr.begin("xpic.run_resilient");
                let (report, pool, _) = Inputs::ckpt_job(cfg, *nodes, Some(plan.clone()), None);
                tr.end(span, self.work());
                Raw::Ckpt(report, pool)
            }
            Inputs::Ring {
                universe,
                placements,
                payloads,
                rounds,
            } => {
                let n = placements.len();
                let bad = Arc::new(AtomicU64::new(0));
                let finals = Arc::new(Mutex::new(vec![Vec::new(); n]));
                let (bad_in, finals_in, payloads_in) =
                    (bad.clone(), finals.clone(), payloads.clone());
                let rounds = *rounds;
                let pool = universe.router().buffer_pool();
                let before = pool.stats();
                let span = tr.begin("psmpi.launch_ring");
                let report = universe.launch(placements, move |rank| {
                    let n = rank.world().size();
                    let me = rank.rank();
                    let next = (me + 1) % n;
                    let prev = (me + n - 1) % n;
                    let (mine, theirs) = (&payloads_in[me], &payloads_in[prev]);
                    let last = theirs.len() - 1;
                    let mut inbox = vec![0.0f64; theirs.len()];
                    let mut bad_rounds = 0;
                    for _ in 0..rounds {
                        // A buffered send completes locally, so send-then-recv
                        // cannot deadlock around the ring.
                        rank.send_slice(next, TAG_RING, mine).expect("ring send");
                        rank.recv_into(Some(prev), Some(TAG_RING), &mut inbox)
                            .expect("ring receive");
                        if inbox[0].to_bits() != theirs[0].to_bits()
                            || inbox[last].to_bits() != theirs[last].to_bits()
                        {
                            bad_rounds += 1;
                        }
                    }
                    bad_in.fetch_add(bad_rounds, Ordering::Relaxed);
                    finals_in.lock().expect("ring result lock")[me] = inbox;
                });
                tr.end(span, self.work());
                let pool = pool_delta(pool.stats(), before);
                let finals = std::mem::take(&mut *finals.lock().expect("ring result lock"));
                Raw::Ring {
                    report,
                    pool,
                    bad_rounds: bad.load(Ordering::Relaxed),
                    finals,
                }
            }
            Inputs::Sched {
                trace,
                faults,
                system_mtbf,
                cn,
                bn,
            } => {
                let (independent, node_locked) =
                    run_sched(tr, trace, faults, *system_mtbf, *cn, *bn);
                Raw::Sched {
                    independent,
                    node_locked,
                }
            }
        }
    }

    /// The fault-free outcome an xpic_ckpt job must reproduce bit for bit.
    pub fn reference_physics(&self) -> Option<String> {
        match self {
            Inputs::XpicCkpt { cfg, nodes, .. } => {
                let (r, _, _) = Inputs::ckpt_job(cfg, *nodes, None, None);
                Some(ckpt_physics(&r))
            }
            _ => None,
        }
    }

    /// One xpic job on a fresh launcher, with an `obs::Recorder` attached
    /// if `attach`: host seconds of the job, and the messages and bytes the
    /// recorder counted (zero when detached).
    pub fn run_fresh(&self, attach: bool) -> Option<(f64, u64, u64)> {
        let rec = attach.then(obs::Recorder::new);
        let secs = match self {
            Inputs::XpicCb { cfg, nodes, .. } => {
                let launcher = Launcher::new(deep_er_prototype());
                if let Some(rec) = &rec {
                    launcher.universe().attach_obs(rec.clone());
                }
                let t0 = Instant::now();
                run_mode(&launcher, Mode::ClusterBooster, *nodes, cfg);
                t0.elapsed().as_secs_f64()
            }
            Inputs::XpicCkpt { cfg, nodes, plan } => {
                let t0 = Instant::now();
                Inputs::ckpt_job(cfg, *nodes, Some(plan.clone()), rec.clone());
                t0.elapsed().as_secs_f64()
            }
            _ => return None,
        };
        let (msgs, bytes) = rec.as_ref().map_or((0, 0), sent);
        Some((secs, msgs, bytes))
    }

    /// Check one job's outputs and, when tracing, record its counts.
    /// `deep` adds the checks too slow to repeat on every job (the
    /// scheduler's reservation replay is quadratic in the event log); the
    /// other jobs must then agree with the deep-checked one bit for bit.
    pub fn check(&self, raw: &Raw, deep: bool, tr: &mut Tracer) -> Checked {
        let mut problems = Vec::new();
        let (virt, physics) = match (self, raw) {
            (Inputs::XpicCb { cfg, .. }, Raw::Xpic(r, pool)) => {
                if !(r.field_energy.is_finite() && r.kinetic_energy.is_finite()) {
                    problems.push("non-finite energies".to_string());
                }
                if r.steps != cfg.steps || r.cg_iters == 0 {
                    problems.push(format!(
                        "ran {} steps with {} CG iterations",
                        r.steps, r.cg_iters
                    ));
                }
                tr.count("xpic.cg_iters", r.cg_iters as f64);
                count_pool(tr, pool);
                let physics = format!(
                    "fe={:016x} ke={:016x} charge={:016x}",
                    r.field_energy.to_bits(),
                    r.kinetic_energy.to_bits(),
                    r.total_charge.to_bits()
                );
                let virt = format!(
                    "{physics} cg={} total={:016x}",
                    r.cg_iters,
                    r.total.as_secs().to_bits()
                );
                (virt, physics)
            }
            (Inputs::XpicCkpt { cfg, .. }, Raw::Ckpt(r, pool)) => {
                if r.steps != cfg.steps {
                    problems.push(format!("completed {} of {} steps", r.steps, cfg.steps));
                }
                if r.recoveries == 0 {
                    problems.push("the fault plan forced no recovery".to_string());
                }
                tr.count("scr.recoveries", r.recoveries as f64);
                tr.count("scr.ckpts_taken", r.ckpts_taken as f64);
                count_pool(tr, pool);
                let physics = ckpt_physics(r);
                let virt = format!(
                    "{physics} recoveries={} resumed={:?} ckpts={} makespan={:016x}",
                    r.recoveries,
                    r.resume_steps,
                    r.ckpts_taken,
                    r.makespan.as_secs().to_bits()
                );
                (virt, physics)
            }
            (
                Inputs::Ring {
                    placements,
                    payloads,
                    rounds,
                    ..
                },
                Raw::Ring {
                    report,
                    pool,
                    bad_rounds,
                    finals,
                },
            ) => {
                let n = placements.len();
                if *bad_rounds > 0 {
                    problems.push(format!("{bad_rounds} rounds delivered a wrong payload"));
                }
                for (me, got) in finals.iter().enumerate() {
                    let want = &payloads[(me + n - 1) % n];
                    let same = got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        problems.push(format!("rank {me} holds a corrupted final payload"));
                    }
                }
                let want_msgs = (n * rounds) as u64;
                if report.total_msgs_sent() != want_msgs {
                    problems.push(format!(
                        "sent {} messages, want {want_msgs}",
                        report.total_msgs_sent()
                    ));
                }
                tr.count("psmpi.msgs_per_job", report.total_msgs_sent() as f64);
                tr.count("psmpi.bytes_per_job", report.total_bytes_sent() as f64);
                count_pool(tr, pool);
                let bits: Vec<u8> = finals
                    .iter()
                    .flatten()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                let physics = format!("payload={:016x}", fnv1a64(&bits));
                let virt = format!(
                    "{physics} msgs={} bytes={} makespan={:016x}",
                    report.total_msgs_sent(),
                    report.total_bytes_sent(),
                    report.makespan().as_secs().to_bits()
                );
                (virt, physics)
            }
            (
                Inputs::Sched { trace, .. },
                Raw::Sched {
                    independent,
                    node_locked,
                },
            ) => {
                let mut m = HostMetrics::new();
                for (label, r) in [("independent.", independent), ("node_locked.", node_locked)] {
                    if r.completed != trace.len() {
                        problems.push(format!(
                            "{label} completed {} of {} jobs",
                            r.completed,
                            trace.len()
                        ));
                    }
                    let violations = if deep {
                        r.reservation_violations().len()
                    } else {
                        0
                    };
                    if violations > 0 {
                        problems.push(format!("{label} violated {violations} head reservations"));
                    }
                    report_metrics(r, label, &mut m);
                }
                let sum = |f: fn(&EngineReport) -> usize| (f(independent) + f(node_locked)) as f64;
                tr.count("sched.events", sum(|r| r.events.len()));
                tr.count("sched.backfill_starts", sum(|r| r.backfill_starts));
                tr.count("sched.requeues", sum(|r| r.requeues));
                let physics = format!("metrics={:016x}", fnv1a64(m.to_json().as_bytes()));
                let virt = format!(
                    "{physics} makespans={:016x},{:016x} events={},{}",
                    independent.makespan.as_secs().to_bits(),
                    node_locked.makespan.as_secs().to_bits(),
                    independent.events.len(),
                    node_locked.events.len()
                );
                (virt, physics)
            }
            _ => unreachable!("a job's result always matches its inputs"),
        };
        Checked {
            virt,
            physics,
            problems,
        }
    }
}

/// The full per-rank states of every checkpoint a fault-free xpic_ckpt
/// job takes, in step order: `(step, one packed state per rank)`.
pub fn checkpoint_states(cfg: &XpicConfig, nodes: usize) -> Vec<(u64, Vec<Vec<u8>>)> {
    let (_, _, scr) = Inputs::ckpt_job(cfg, nodes, None, None);
    (1..=u64::from(cfg.steps))
        .filter_map(|id| {
            (0..nodes)
                .map(|r| scr.local_blob(id, r))
                .collect::<Option<Vec<_>>>()
                .map(|blobs| (id, blobs))
        })
        .collect()
}

fn ckpt_physics(r: &ResilientReport) -> String {
    format!(
        "fe={:016x} ke={:016x} steps={}",
        r.field_energy.to_bits(),
        r.kinetic_energy.to_bits(),
        r.steps
    )
}

fn count_pool(tr: &mut Tracer, pool: &PoolStats) {
    tr.count("psmpi.pool_hits", pool.hits as f64);
    tr.count("psmpi.pool_gets", (pool.hits + pool.misses) as f64);
}

/// Messages and bytes every track of `rec` sent.
fn sent(rec: &obs::Recorder) -> (u64, u64) {
    let trace = rec.snapshot();
    let total = |key: &str| -> u64 {
        trace
            .tracks
            .iter()
            .map(|t| t.counters.get(key).copied().unwrap_or(0))
            .sum()
    };
    (total("msgs_sent"), total("bytes_sent"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed argument is honoured: another seed gives other inputs, the
    /// same seed gives the same inputs and bit-identical virtual outputs.
    #[test]
    fn seed_selects_inputs_and_fixes_outputs() {
        let shape = Shape::small();
        let mut off = Tracer::new(false);
        for w in Workload::ALL {
            let a = Inputs::setup(w, 1, &shape);
            let b = Inputs::setup(w, 1, &shape);
            let c = Inputs::setup(w, 2, &shape);
            assert_eq!(
                a.digest(),
                b.digest(),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_ne!(
                a.digest(),
                c.digest(),
                "{}: another seed, other inputs",
                w.name()
            );
            let ra = a.check(&a.run(&mut off), true, &mut off);
            let rb = b.check(&b.run(&mut off), true, &mut off);
            assert!(ra.problems.is_empty(), "{}: {:?}", w.name(), ra.problems);
            assert_eq!(ra.virt, rb.virt, "{}: same seed, same outputs", w.name());
        }
    }

    #[test]
    fn workloads_match_the_registry() {
        let registered = crate::registry::WORKLOADS.iter().map(|w| w.name);
        assert!(Workload::ALL.iter().map(|w| w.name()).eq(registered));
    }

    #[test]
    fn recovered_checkpoint_run_matches_the_fault_free_run() {
        let mut off = Tracer::new(false);
        let inputs = Inputs::setup(Workload::XpicCkpt, 1, &Shape::small());
        let got = inputs.check(&inputs.run(&mut off), true, &mut off);
        assert!(got.problems.is_empty(), "{:?}", got.problems);
        assert_eq!(inputs.reference_physics(), Some(got.physics));
    }

    #[test]
    fn a_corrupted_ring_payload_fails_the_check() {
        let mut off = Tracer::new(false);
        let inputs = Inputs::setup(Workload::RingP2p, 1, &Shape::small());
        let mut raw = inputs.run(&mut off);
        if let Raw::Ring { finals, .. } = &mut raw {
            finals[3][7] += 1.0;
        }
        assert!(!inputs.check(&raw, true, &mut off).problems.is_empty());
    }
}
