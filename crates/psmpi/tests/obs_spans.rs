//! Observability across `comm_spawn`: spans stay well-nested on both sides
//! of the inter-communicator, teardown under *active* spans is counted
//! rather than lost, and the critical path crosses the intercomm into the
//! spawned world. The runtime's own p2p spans keep their labels:
//! blocking calls stamp `Send`/"send" and `Recv`/"recv", posted ones
//! stamp `Wait`/"wait-send" and `Wait`/"wait-recv".

use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeId, SimTime};
use obs::{Category, Recorder, TrackKey};
use psmpi::{MpiError, MpiRequest, Rank, RetryPolicy, Universe};
use simnet::{Fabric, FaultPlan, Topology};

fn universe(cn: u32, bn: u32) -> Universe {
    let mut t = Topology::new();
    t.add_nodes(cn, &deep_er_cluster_node());
    t.add_nodes(bn, &deep_er_booster_node());
    Universe::new(Fabric::new(t))
}

fn work(name: &str) -> hwmodel::WorkSpec {
    hwmodel::WorkSpec::named(name)
        .flops(1e8)
        .parallel_fraction(0.9)
        .build()
}

#[test]
fn spawn_teardown_under_active_spans() {
    // Parent opens a phase span, spawns a child world, exchanges messages
    // with it while both sides hold open spans, disconnects, and closes.
    let u = universe(1, 1);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());

    u.launch(&[NodeId(0)], |rank| {
        let phase = rank.obs_open(Category::Phase, "parent-phase");
        let ic = rank
            .spawn_world(&[NodeId(1)], |child: &mut Rank| {
                let cphase = child.obs_open(Category::Phase, "child-phase");
                let parent = child.parent().unwrap();
                child.compute(&work("child-kernel"));
                child.send((&parent, 0), 3, &41u64).unwrap();
                let (v, _) = child.recv::<u64>((&parent, Some(0)), Some(4)).unwrap();
                assert_eq!(v, 42);
                child.obs_close(cphase);
                // A second span is *left open* at teardown on purpose.
                let _leak = child.obs_open(Category::Wait, "left-open");
            })
            .unwrap();
        let (v, _) = rank.recv::<u64>((&ic, Some(0)), Some(3)).unwrap();
        rank.send((&ic, 0), 4, &(v + 1)).unwrap();
        rank.obs_close(phase);
        ic.disconnect();
    });

    let trace = rec.snapshot();
    assert_eq!(trace.tracks.len(), 2, "one track per rank per world");

    let parent = &trace.tracks[0];
    let child = &trace.tracks[1];
    assert!(parent.key.world != child.key.world, "distinct worlds");
    assert_eq!(parent.unclosed, 0, "parent closed everything");
    assert_eq!(
        child.unclosed, 1,
        "the deliberately leaked guard is counted, not lost"
    );

    // Parent side: the comm_spawn offload span nests inside parent-phase.
    let p_phase = parent
        .spans
        .iter()
        .find(|s| s.name == "parent-phase")
        .unwrap();
    let p_spawn = parent
        .spans
        .iter()
        .find(|s| s.name == "comm_spawn")
        .unwrap();
    assert_eq!(p_phase.depth, 0);
    assert!(p_spawn.depth > p_phase.depth);
    assert!(p_spawn.start >= p_phase.start && p_spawn.end <= p_phase.end);

    // Child side: its track carries the spawn origin back to the parent,
    // its phase span is closed, and runtime spans nested within it.
    assert_eq!(child.origin, Some(parent.key));
    let c_phase = child
        .spans
        .iter()
        .find(|s| s.name == "child-phase")
        .unwrap();
    assert!(c_phase.end > c_phase.start);
    let c_kernel = child
        .spans
        .iter()
        .find(|s| s.name == "child-kernel")
        .unwrap();
    assert!(c_kernel.depth > c_phase.depth);

    // Every span on both sides is within its track's lifetime.
    for tr in &trace.tracks {
        for s in &tr.spans {
            assert!(s.start >= tr.start && s.end <= tr.final_clock);
        }
    }
}

#[test]
fn critical_path_crosses_the_intercomm() {
    // The child does the only real work; the parent just waits for the
    // result. The critical path must end on the parent but run through the
    // child world — two worlds in the walk.
    let u = universe(1, 1);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());

    u.launch(&[NodeId(0)], |rank| {
        let ic = rank
            .spawn_world(&[NodeId(1)], |child: &mut Rank| {
                let parent = child.parent().unwrap();
                child.compute(&work("heavy"));
                child.send((&parent, 0), 9, &7u64).unwrap();
            })
            .unwrap();
        let (v, _) = rank.recv::<u64>((&ic, Some(0)), Some(9)).unwrap();
        assert_eq!(v, 7);
    });

    let trace = rec.snapshot();
    let cp = trace.critical_path();

    assert_eq!(cp.end, TrackKey { world: 0, rank: 0 }, "ends on the parent");
    assert_eq!(cp.worlds.len(), 2, "walk crosses the intercomm: {cp:?}");
    assert!(!cp.hops.is_empty());
    // Category shares telescope to the makespan.
    let diff = (cp.total().as_secs() - trace.makespan().as_secs()).abs();
    assert!(
        diff < 1e-9,
        "sum {} vs makespan {}",
        cp.total(),
        trace.makespan()
    );
    // The child's compute leg is on the path.
    assert!(cp.share("compute") > 0.0);
}

#[test]
fn traces_are_identical_across_runs() {
    // Two identical jobs on fresh universes must export byte-identical
    // Chrome traces and reports.
    let run = || {
        let u = universe(2, 2);
        let rec = Recorder::new();
        u.attach_obs(rec.clone());
        u.launch(&[NodeId(0), NodeId(1)], |rank| {
            let w = rank.world();
            let phase = rank.obs_open(Category::Phase, "step");
            rank.compute(&work("k"));
            let _ = rank
                .allreduce_scalar(&w, 1.0, psmpi::ReduceOp::Sum)
                .unwrap();
            rank.obs_close(phase);
        });
        let t = rec.snapshot();
        (t.chrome_json(), t.report())
    };
    let (json_a, rep_a) = run();
    let (json_b, rep_b) = run();
    assert_eq!(json_a, json_b, "chrome trace is deterministic");
    assert_eq!(rep_a, rep_b, "text report is deterministic");
    assert!(json_a.contains("\"ph\":\"X\""));
    assert!(rep_a.contains("critical path"));
    let _ = SimTime::ZERO;
}

/// Two cluster nodes under `plan`, with a recorder attached.
fn traced(plan: FaultPlan, node: &hwmodel::NodeSpec) -> (Universe, Recorder) {
    let mut t = Topology::new();
    t.add_nodes(2, node);
    let fabric = Fabric::new(t);
    fabric.set_fault_plan(plan);
    let u = Universe::new(fabric);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());
    (u, rec)
}

/// (category, name, start, end) of every span on world rank `rank`.
fn spans_of(rec: &Recorder, rank: u64) -> Vec<(Category, String, SimTime, SimTime)> {
    let trace = rec.snapshot();
    let track = trace
        .tracks
        .iter()
        .find(|t| t.key.rank == rank)
        .expect("track of the rank");
    track
        .spans
        .iter()
        .map(|s| (s.cat, s.name.clone(), s.start, s.end))
        .collect()
}

#[test]
fn blocking_send_and_recv_keep_their_span_labels_through_backoff() {
    // The link is down for the first 250 µs: the send backs off 100 µs
    // then 200 µs before injecting. Its one span covers backoff plus NIC.
    let mut plan = FaultPlan::new();
    plan.add_link_fault(
        NodeId(0),
        NodeId(1),
        SimTime::ZERO,
        SimTime::from_micros(250.0),
    );
    let node = deep_er_cluster_node();
    let done = SimTime::from_micros(300.0) + node.nic_send_overhead;
    let (u, rec) = traced(plan, &node);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 0 {
            rank.send_slice(1, 7, &[1.0f64; 8]).unwrap();
            assert_eq!(rank.now(), done);
        } else {
            let mut inbox = [0.0f64; 8];
            rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
        }
    });
    assert_eq!(
        spans_of(&rec, 0),
        vec![(Category::Send, "send".to_string(), SimTime::ZERO, done)]
    );
    let recv = spans_of(&rec, 1);
    assert_eq!(recv.len(), 1, "{recv:?}");
    assert_eq!((recv[0].0, recv[0].1.as_str()), (Category::Recv, "recv"));
}

#[test]
fn zero_length_blocking_send_still_emits_its_span() {
    let mut node = deep_er_cluster_node();
    node.nic_send_overhead = SimTime::ZERO;
    let (u, rec) = traced(FaultPlan::new(), &node);
    u.launch(&[NodeId(0)], |rank| {
        rank.send_slice::<f64>(0, 7, &[]).unwrap();
        let mut empty: [f64; 0] = [];
        rank.recv_into(Some(0), Some(7), &mut empty).unwrap();
    });
    let spans = spans_of(&rec, 0);
    assert_eq!(spans.len(), 2, "{spans:?}");
    assert_eq!(
        spans[0],
        (
            Category::Send,
            "send".to_string(),
            SimTime::ZERO,
            SimTime::ZERO
        )
    );
    assert_eq!((spans[1].0, spans[1].1.as_str()), (Category::Recv, "recv"));
}

#[test]
fn failed_blocking_send_emits_no_span() {
    // Three retries (100 + 200 + 400 µs) against a link that stays down:
    // the send gives up at 700 µs, its clock stops there, and the track
    // records nothing for it.
    let mut plan = FaultPlan::new();
    plan.add_link_fault(
        NodeId(0),
        NodeId(1),
        SimTime::ZERO,
        SimTime::from_secs(100.0),
    );
    let (u, rec) = traced(plan, &deep_er_cluster_node());
    let base = SimTime::from_micros(100.0);
    let gave_up = base + base * 2.0 + base * 4.0;
    u.router().set_retry_policy(RetryPolicy {
        max_retries: 3,
        base_backoff: base,
        give_up_after: SimTime::from_secs(10.0),
    });
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 0 {
            let err = rank.send_slice(1, 7, &[1.0f64; 8]).unwrap_err();
            assert!(matches!(err, MpiError::LinkDown { .. }), "{err}");
            assert_eq!(rank.now(), gave_up);
        }
    });
    assert_eq!(spans_of(&rec, 0), vec![]);
}

#[test]
fn posted_send_and_recv_emit_wait_spans() {
    let node = deep_er_cluster_node();
    let (u, rec) = traced(FaultPlan::new(), &node);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() == 0 {
            let req = rank.isend_slice(1, 7, &[1.0f64; 8]).unwrap();
            req.wait(rank).unwrap();
        } else {
            let mut inbox = [0.0f64; 8];
            let req = rank.irecv_into(Some(0), Some(7), &mut inbox).unwrap();
            req.wait(rank).unwrap();
        }
    });
    assert_eq!(
        spans_of(&rec, 0),
        vec![(
            Category::Wait,
            "wait-send".to_string(),
            SimTime::ZERO,
            node.nic_send_overhead
        )]
    );
    let recv = spans_of(&rec, 1);
    assert_eq!(recv.len(), 1, "{recv:?}");
    assert_eq!(
        (recv[0].0, recv[0].1.as_str()),
        (Category::Wait, "wait-recv")
    );
}
