//! Layer probes for the traced pass: each times calls into one layer's
//! public functions, from outside the program, on inputs generated from
//! the workload seed at the benchmark's shapes. Every timed call is a span
//! whose units are the work it did.

use crate::trace::Tracer;
use crate::workloads::{
    checkpoint_states, ring_fabric, run_sched, sched_inputs, sched_system, xpic_config, Shape,
    Workload,
};
use cluster_booster::presets::deep_er_prototype;
use cluster_booster::ResourceManager;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{CostModel, SimTime};
use psmpi::{ReduceOp, Tag, Universe};
use scr::{CheckpointLevel, ScrConfig, ScrManager};
use simnet::max_min_shares;
use sionio::ParallelFs;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xpic::fields::{FieldSolver, SerialComm};
use xpic::resilience::{pack_state, unpack_state};
use xpic::{Grid, Moments, XpicConfig};

/// Timed repetitions of each probe; metrics are medians over them.
const REPS: usize = 7;
/// Calls per repetition of the cheap per-call probes.
const CALLS: usize = 2000;
/// Jobs of the trace behind the fabric-share and allocation probes, and
/// behind the engine probe of workloads other than sched_trace.
const PROBE_SCHED_JOBS: usize = 1500;
const TAG_PROBE: Tag = 7002;

/// Run every probe, under the innermost open span of `tr`.
pub fn run_all(tr: &mut Tracer, workload: Workload, seed: u64, shape: &Shape) {
    let cfg = xpic_config(shape, seed, shape.xpic_ckpt_steps);
    xpic_and_scr(tr, &cfg, shape);
    psmpi_probes(tr);
    simnet_p2p(tr);
    hwmodel_cost(tr, &cfg);

    let jobs = shape.sched_jobs.min(PROBE_SCHED_JOBS);
    let (trace, faults, mtbf) = sched_inputs(seed, jobs, shape.sched_cn, shape.sched_bn);
    max_min(tr, &trace);
    core_alloc_release(tr, &trace, shape);
    if workload != Workload::SchedTrace {
        // sched_trace times the engine in its own jobs.
        run_sched(tr, &trace, &faults, mtbf, shape.sched_cn, shape.sched_bn);
    }
}

/// Kernel, state-packing and SCR probes on the states a fault-free
/// xpic_ckpt job checkpoints: the per-rank packed states at every
/// checkpointed step.
fn xpic_and_scr(tr: &mut Tracer, cfg: &XpicConfig, shape: &Shape) {
    let nodes = shape.xpic_nodes;
    let states = checkpoint_states(cfg, nodes);
    assert!(states.len() >= 2, "the job took fewer than two checkpoints");
    let grids: Vec<Grid> = (0..nodes)
        .map(|r| Grid::slab(cfg.nx, cfg.ny, r, nodes))
        .collect();

    // Delta frames between consecutive checkpoints of each rank: a frame
    // is useful when it came out smaller than a keyframe.
    let (mut useful, mut attempts) = (0u32, 0u32);
    for pair in states.windows(2) {
        let ((base_id, base), (_, cur)) = (&pair[0], &pair[1]);
        for (b, c) in base.iter().zip(cur) {
            let s = tr.begin("scr.encode_delta");
            let frame = scr::delta::encode_delta(b, c, *base_id);
            tr.end(s, c.len() as f64);
            attempts += 1;
            useful += u32::from(scr::delta::is_delta(&frame));
        }
    }
    tr.count("scr.delta_useful", f64::from(useful));
    tr.count("scr.delta_attempts", f64::from(attempts));

    for (_, blobs) in &states {
        for (blob, grid) in blobs.iter().zip(&grids) {
            let s = tr.begin("xpic.unpack_state");
            let (species, fields) = unpack_state(blob, grid);
            tr.end(s, blob.len() as f64);
            let s = tr.begin("xpic.pack_state");
            let packed = pack_state(&species, &fields);
            tr.end(s, packed.len() as f64);
            assert!(packed == *blob, "pack_state(unpack_state(x)) != x");
        }
    }

    // One step's kernels on rank 0's first checkpointed state.
    let grid = grids[0];
    let (mut species, fields) = unpack_state(&states[0].1[0], &grid);
    let electrons = &mut species[0];
    let n = electrons.len() as f64;
    let mut moments = Moments::zeros(&grid);
    let solver = FieldSolver::new(grid, cfg);
    for _ in 0..REPS {
        let s = tr.begin("xpic.boris_push");
        xpic::mover::boris_push(&grid, &fields, electrons, cfg.dt);
        tr.end(s, n);

        moments.clear();
        let s = tr.begin("xpic.deposit");
        xpic::moments::deposit(&grid, electrons, &mut moments);
        tr.end(s, n);

        // One Helmholtz component solve set up as calculate_e sets it up:
        // κ from the charge density, E − Δtθ·J on the right-hand side.
        let c1 = cfg.dt * cfg.theta;
        let f = (0.5 * c1).powi(2);
        let kappa: Vec<f64> = moments.rho.iter().map(|r| f * r.abs()).collect();
        let rhs: Vec<f64> = fields
            .ex
            .iter()
            .zip(&moments.jx)
            .map(|(e, j)| e - c1 * j)
            .collect();
        let mut x = fields.ex.clone();
        let s = tr.begin("xpic.solve_component");
        let iters = solver.solve_component(&kappa, &rhs, &mut x, &mut SerialComm);
        tr.end(s, (grid.cells() as u64 * u64::from(iters.max(1))) as f64);
    }

    // An async buddy checkpoint drained to completion, then a restart.
    let system = deep_er_prototype();
    let ranks = system.booster_nodes()[..nodes].to_vec();
    let specs = ranks
        .iter()
        .map(|&n| system.fabric().node(n).expect("booster node spec").clone())
        .collect();
    let manager = ScrManager::new(ScrConfig::default(), ranks, specs, ParallelFs::deep_er());
    for (id, blobs) in &states {
        let bytes = blobs.iter().map(Vec::len).sum::<usize>() as f64;
        let s = tr.begin("scr.checkpoint");
        let (pending, _) = manager
            .checkpoint_async(*id, CheckpointLevel::Buddy, blobs)
            .expect("probe checkpoint");
        manager
            .complete_drain(pending, SimTime::ZERO)
            .expect("probe drain");
        tr.end(s, bytes);

        let s = tr.begin("scr.restart");
        let (got, _, data, _) = manager.restart().expect("probe restart");
        tr.end(s, bytes);
        assert!(
            got == *id && data == *blobs,
            "restart returned another checkpoint"
        );
        manager.prune(1);
    }
}

type Spans = Arc<Mutex<Vec<(Instant, Instant)>>>;

fn record_all(tr: &mut Tracer, name: &'static str, spans: &Spans, units: f64) {
    for &(a, b) in spans.lock().expect("probe span lock").iter() {
        tr.record(name, a, b, units);
    }
}

/// Self-send, launch, allreduce and spawn, timed inside the rank threads.
fn psmpi_probes(tr: &mut Tracer) {
    let (fabric, nodes) = ring_fabric(32, 32);
    let universe = Universe::new(fabric);

    let spans: Spans = Arc::default();
    let out = spans.clone();
    universe.launch(&nodes[..1], move |rank| {
        let payload = vec![1.5f64; 1024];
        let mut inbox = vec![0.0f64; 1024];
        for _ in 0..REPS {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                rank.send_slice(0, TAG_PROBE, &payload).expect("self send");
                rank.recv_into(Some(0), Some(TAG_PROBE), &mut inbox)
                    .expect("self receive");
            }
            out.lock()
                .expect("probe span lock")
                .push((t0, Instant::now()));
        }
        assert_eq!(inbox, payload, "self-send payload");
    });
    record_all(tr, "psmpi.self_send", &spans, CALLS as f64);

    for (name, ranks) in [("psmpi.launch_at4", 4), ("psmpi.launch_at64", 64)] {
        for _ in 0..REPS {
            let s = tr.begin(name);
            universe.launch(&nodes[..ranks], |_| {});
            tr.end(s, ranks as f64);
        }
    }

    for (name, ranks) in [("psmpi.allreduce_at2", 2), ("psmpi.allreduce_at4", 4)] {
        let spans: Spans = Arc::default();
        let out = spans.clone();
        universe.launch(&nodes[..ranks], move |rank| {
            let world = rank.world();
            let n = world.size() as f64;
            for _ in 0..REPS {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    let sum = rank
                        .allreduce(&world, &[1.0, 2.0], ReduceOp::Sum)
                        .expect("allreduce");
                    assert_eq!(sum, [n, 2.0 * n], "allreduce result");
                }
                if rank.rank() == 0 {
                    out.lock()
                        .expect("probe span lock")
                        .push((t0, Instant::now()));
                }
            }
        });
        record_all(tr, name, &spans, CALLS as f64);
    }

    let spans: Spans = Arc::default();
    let out = spans.clone();
    let children = nodes[32..34].to_vec();
    universe.launch(&nodes[..1], move |rank| {
        for _ in 0..REPS {
            let t0 = Instant::now();
            rank.spawn_world(&children, |_| {}).expect("comm_spawn");
            out.lock()
                .expect("probe span lock")
                .push((t0, Instant::now()));
        }
    });
    record_all(tr, "psmpi.comm_spawn", &spans, 1.0);
}

/// `Fabric::p2p_time` over the ring's neighbour pairs, 8 KiB each.
fn simnet_p2p(tr: &mut Tracer) {
    let (fabric, nodes) = ring_fabric(32, 32);
    let n = nodes.len();
    for _ in 0..REPS {
        let s = tr.begin("simnet.p2p_time");
        let mut total = SimTime::ZERO;
        for i in 0..CALLS {
            let (a, b) = (nodes[i % n], nodes[(i + 1) % n]);
            total += fabric.p2p_time(a, b, 8192).expect("ring path");
        }
        tr.end(s, CALLS as f64);
        black_box(total);
    }
}

/// `CostModel::time` on the xPic kernel work descriptors, CN and BN.
fn hwmodel_cost(tr: &mut Tracer, cfg: &XpicConfig) {
    let works = [
        cfg.work_push(),
        cfg.work_moments(),
        cfg.work_cg_iter(),
        cfg.work_curl(),
        cfg.work_cpy(),
    ];
    let nodes = [deep_er_cluster_node(), deep_er_booster_node()];
    let model = CostModel;
    for _ in 0..REPS {
        let s = tr.begin("hwmodel.cost_time");
        let mut total = SimTime::ZERO;
        for i in 0..CALLS {
            let (node, work) = (&nodes[i % 2], &works[(i / 2) % works.len()]);
            total += model.time(black_box(node), black_box(work));
        }
        tr.end(s, CALLS as f64);
        black_box(total);
    }
}

/// `max_min_shares` over windows of the trace's combined-job demands, at
/// the engine's default fabric capacity.
fn max_min(tr: &mut Tracer, trace: &[sched::TraceJob]) {
    const WINDOW: usize = 16;
    let demands: Vec<f64> = trace
        .iter()
        .map(|j| j.fabric_demand_gbs)
        .filter(|&d| d > 0.0)
        .collect();
    assert!(demands.len() >= WINDOW, "trace has too few combined jobs");
    let capacity = sched::EngineConfig::default().fabric_capacity_gbs;
    let windows = demands.len() - WINDOW + 1;
    for _ in 0..REPS {
        let s = tr.begin("simnet.max_min_shares");
        let mut total = 0.0;
        for i in 0..CALLS {
            let w = &demands[i % windows..][..WINDOW];
            total += max_min_shares(black_box(w), capacity)[0];
        }
        tr.end(s, CALLS as f64);
        black_box(total);
    }
}

/// `ResourceManager::allocate` + `release` at the trace's request sizes on
/// the scheduler benchmark's machine.
fn core_alloc_release(tr: &mut Tracer, trace: &[sched::TraceJob], shape: &Shape) {
    let rm = ResourceManager::new(&sched_system(shape.sched_cn, shape.sched_bn));
    for _ in 0..REPS {
        let s = tr.begin("core.alloc_release");
        for i in 0..CALLS {
            let j = &trace[i % trace.len()];
            let a = rm
                .allocate(j.cn, j.bn_max)
                .expect("request fits an idle machine");
            rm.release(&a).expect("release");
        }
        tr.end(s, CALLS as f64);
    }
}
