//! Request-engine tests: the nonblocking p2p surface defers exactly the
//! sender-side NIC charge to `wait`, parks fault outcomes at post and
//! surfaces them at completion, keeps `test` non-advancing on a miss, and
//! completes `waitall` batches in posted order — deterministically across
//! host schedules.

use hwmodel::presets::deep_er_cluster_node;
use hwmodel::{NodeId, SimTime};
use psmpi::{MpiError, MpiRequest, Universe, UniverseBuilder};
use simnet::{Fabric, FaultPlan, Topology};
use std::sync::{Arc, Mutex};

fn faulted_universe(n: u32, plan: FaultPlan) -> Universe {
    let mut t = Topology::new();
    t.add_nodes(n, &deep_er_cluster_node());
    let fabric = Fabric::new(t);
    fabric.set_fault_plan(plan);
    Universe::new(fabric)
}

fn s(x: f64) -> SimTime {
    SimTime::from_secs(x)
}

#[test]
fn isend_post_is_free_and_wait_charges_nic_serialization() {
    let overhead = deep_er_cluster_node().nic_send_overhead;
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(move |rank| {
            if rank.rank() == 0 {
                let payload = vec![1.0f64; 1024];
                let t0 = rank.now();
                let req = rank.isend_slice(1, 7, &payload).unwrap();
                assert_eq!(rank.now(), t0, "posting a send must not move the clock");
                req.wait(rank).unwrap();
                assert_eq!(
                    rank.now(),
                    t0 + overhead,
                    "wait applies exactly the deferred NIC serialization"
                );
            } else {
                let mut inbox = vec![0.0f64; 1024];
                rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
                assert!(inbox.iter().all(|&x| x == 1.0));
            }
        });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn compute_between_post_and_wait_hides_the_nic_charge() {
    // The overlap contract: a send posted before compute that outlasts its
    // NIC serialization costs the poster nothing at wait.
    let overhead = deep_er_cluster_node().nic_send_overhead;
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(move |rank| {
            if rank.rank() == 0 {
                let payload = vec![2.0f64; 1024];
                let req = rank.isend_slice(1, 7, &payload).unwrap();
                rank.advance(overhead + overhead); // "compute" past completion
                let t1 = rank.now();
                req.wait(rank).unwrap();
                assert_eq!(rank.now(), t1, "fully-hidden send adds zero wait");
            } else {
                let mut inbox = vec![0.0f64; 1024];
                rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
            }
        });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn irecv_wait_is_max_of_clock_and_arrival() {
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(|rank| {
            if rank.rank() == 0 {
                rank.send_slice(1, 7, &[3.0f64; 512]).unwrap();
                rank.send_slice(1, 8, &[4.0f64; 512]).unwrap();
            } else {
                // Early wait: the clock advances to the arrival.
                let mut a = vec![0.0f64; 512];
                let req = rank.irecv_into(Some(0), Some(7), &mut a).unwrap();
                let t0 = rank.now();
                req.wait(rank).unwrap();
                assert!(rank.now() > t0, "waiting early pays the transfer");

                // Late wait: compute already covered the arrival, so the
                // transfer is fully hidden and wait adds nothing.
                let mut b = vec![0.0f64; 512];
                let req = rank.irecv_into(Some(0), Some(8), &mut b).unwrap();
                rank.advance(s(1.0));
                let t1 = rank.now();
                req.wait(rank).unwrap();
                assert_eq!(rank.now(), t1, "hidden transfer adds zero wait");
                assert!(a.iter().all(|&x| x == 3.0));
                assert!(b.iter().all(|&x| x == 4.0));
            }
        });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn isend_then_wait_matches_blocking_send_exactly() {
    // Post + immediate wait must be indistinguishable from the blocking
    // send — same final clocks, same counters, same received bits, same
    // error — on a clean fabric, through link-fault backoff, and when the
    // link stays down past the retry budget.
    let mut backoff = FaultPlan::new();
    backoff.add_link_fault(NodeId(0), NodeId(1), SimTime::ZERO, s(250e-6));
    let mut down = FaultPlan::new();
    down.add_link_fault(NodeId(0), NodeId(1), SimTime::ZERO, s(100.0));
    let run = |plan: FaultPlan, delivered: bool, nonblocking: bool| {
        let errors = Arc::new(Mutex::new(Vec::new()));
        let sink = errors.clone();
        let report = faulted_universe(2, plan).launch(&[NodeId(0), NodeId(1)], move |rank| {
            if rank.rank() == 0 {
                let payload: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
                let res = if nonblocking {
                    let req = rank.isend_slice(1, 7, &payload).unwrap();
                    req.wait(rank)
                } else {
                    rank.send_slice(1, 7, &payload)
                };
                if let Err(e) = res {
                    sink.lock().unwrap().push(e.to_string());
                }
            } else if delivered {
                let mut inbox = vec![0.0f64; 256];
                rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
                assert_eq!(inbox[255].to_bits(), (255.0f64 * 0.5).to_bits());
            }
        });
        let mut o: Vec<_> = report
            .outcomes()
            .iter()
            .map(|o| (o.rank, o.clock, o.comm_time, o.bytes_sent, o.msgs_sent))
            .collect();
        o.sort_by_key(|a| a.0);
        let errors = errors.lock().unwrap().clone();
        (o, errors)
    };
    for (plan, delivered) in [(FaultPlan::new(), true), (backoff, true), (down, false)] {
        let blocking = run(plan.clone(), delivered, false);
        assert_eq!(blocking, run(plan, delivered, true));
        assert_eq!(blocking.1.is_empty(), delivered, "{:?}", blocking.1);
    }
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn irecv_from_out_of_range_intercomm_rank_is_rejected_at_post() {
    // An intercomm receive names a rank of the *remote* group; one past
    // its end has no endpoint and no sender can ever match it, so the
    // post must fail instead of waiting forever.
    let u = faulted_universe(2, FaultPlan::new());
    u.launch(&[NodeId(0)], |rank| {
        let ic = rank.spawn_world(&[NodeId(1)], |_child| {}).unwrap();
        let n = ic.remote_size();
        let invalid = |e: MpiError| matches!(e, MpiError::InvalidRank { rank, size } if (rank, size) == (n, n));
        assert!(invalid(rank.irecv_bytes((&ic, Some(n)), Some(7)).err().unwrap()));
        assert!(invalid(rank.irecv::<u64>((&ic, Some(n)), Some(7)).err().unwrap()));
        let mut out = [0.0f64; 4];
        assert!(invalid(rank.irecv_into((&ic, Some(n)), Some(7), &mut out).err().unwrap()));
        // The in-range rank and the wildcard still post.
        let ok = rank.irecv_bytes((&ic, Some(n - 1)), Some(7)).unwrap();
        let any = rank.irecv_bytes((&ic, None), Some(7)).unwrap();
        assert!(ok.test(rank).unwrap().is_err() && any.test(rank).unwrap().is_err());
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn send_fault_is_parked_at_post_and_surfaced_at_wait() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return; // the victim's thread exists but does nothing
        }
        let t0 = rank.now();
        // The post succeeds: the fault outcome is parked on the handle.
        let req = rank.isend_slice(1, 7, &[9.0f64; 64]).unwrap();
        assert_eq!(rank.now(), t0, "the fault must not be charged at post");
        let err = req.wait(rank).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn irecv_wait_aborts_when_the_awaited_sender_dies() {
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 1 {
            let at = rank
                .planned_fault_in(SimTime::ZERO, s(1.0))
                .expect("plan kills this node");
            rank.fail_here(at);
            return;
        }
        let req = rank.irecv_bytes(Some(1), Some(7)).unwrap();
        let err = req.wait(rank).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, fault_at);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
        assert!(
            rank.now() >= fault_at,
            "learning of the death cannot predate it"
        );
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn test_misses_without_moving_the_clock_then_completes_on_a_hit() {
    UniverseBuilder::new()
        .add_nodes(1, &deep_er_cluster_node())
        .run(|rank| {
            let req = rank.irecv_bytes(Some(0), Some(7)).unwrap();
            let t0 = rank.now();
            // Nothing queued: the request comes back untouched, clock still.
            let req = match req.test(rank).unwrap() {
                Ok(_) => panic!("nothing was sent yet"),
                Err(req) => req,
            };
            assert_eq!(rank.now(), t0, "a test miss never moves the clock");
            // Self-send makes the message matchable; now test completes.
            rank.send_slice(0, 7, &[5.0f64; 8]).unwrap();
            match req.test(rank).unwrap() {
                Ok((bytes, st)) => {
                    assert_eq!(st.source, 0);
                    assert_eq!(bytes.len(), 64);
                }
                Err(_) => panic!("queued message must complete a test"),
            }
        });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn waitall_completes_in_posted_order() {
    UniverseBuilder::new()
        .add_nodes(3, &deep_er_cluster_node())
        .run(|rank| {
            match rank.rank() {
                1 => rank.send_slice(0, 7, &[1.0f64]).unwrap(),
                2 => rank.send_slice(0, 7, &[2.0f64]).unwrap(),
                _ => {
                    // Post in the order 2 then 1: waitall must yield the
                    // payloads in that posted order, not arrival order.
                    let reqs = vec![
                        rank.irecv_bytes(Some(2), Some(7)).unwrap(),
                        rank.irecv_bytes(Some(1), Some(7)).unwrap(),
                    ];
                    let got = rank.waitall(reqs).unwrap();
                    assert_eq!(got[0].1.source, 2);
                    assert_eq!(got[1].1.source, 1);
                }
            }
        });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn waitall_surfaces_the_first_deferred_fault() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(2))]);
    let u = faulted_universe(3, plan);
    u.launch(&[NodeId(0), NodeId(1), NodeId(2)], |rank| {
        match rank.rank() {
            1 => {
                let mut inbox = vec![0.0f64; 8];
                rank.recv_into(Some(0), Some(9), &mut inbox).unwrap();
            }
            2 => {} // dead on arrival
            _ => {
                // A healthy send and a doomed one, posted healthy-first:
                // waitall drains in posted order and errors on the second.
                let reqs = vec![
                    rank.isend_slice(1, 9, &[0.0f64; 8]).unwrap(),
                    rank.isend_slice(2, 9, &[0.0f64; 8]).unwrap(),
                ];
                let err = rank.waitall(reqs).unwrap_err();
                assert!(matches!(err, MpiError::NodeFailed { node, .. } if node == NodeId(2)));
            }
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn inam_put_post_is_free_and_wait_charges_rdma_time() {
    // One NAM device on the fabric: the put's storage effect is immediate
    // (nothing active on the far side), the initiator pays the full RDMA
    // time only at wait — and compute posted in between hides it.
    let mut t = Topology::new();
    t.add_nodes(2, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let expect = fabric.nam_rdma_time(NodeId(0), 0, 4096).unwrap();
    let region = nam.alloc(4096).unwrap();
    let nam_probe = nam.clone();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        let data = vec![0xABu8; 4096];
        let t0 = rank.now();
        let req = rank.inam_put(0, region, 0, &data, None).unwrap();
        assert_eq!(rank.now(), t0, "posting a NAM put must not move the clock");
        assert_eq!(
            nam_probe.get(region, 0, 4096).unwrap(),
            data,
            "storage effect is immediate at post time"
        );
        req.wait(rank).unwrap();
        assert_eq!(
            rank.now(),
            t0 + expect,
            "wait charges exactly the modelled NAM RDMA time"
        );
        // A second put fully hidden behind compute costs nothing at wait.
        let req = rank.inam_put(0, region, 0, &data, None).unwrap();
        rank.advance(expect * 2.0);
        let t1 = rank.now();
        req.wait(rank).unwrap();
        assert_eq!(rank.now(), t1, "fully-hidden NAM put adds zero wait");
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn inam_put_sized_charges_the_wire_size_not_the_blob() {
    // The `_sized` idiom: a delta frame stands in for the blob it
    // reconstructs — the region holds the full bytes, the clock pays for
    // the frame.
    let mut t = Topology::new();
    t.add_nodes(1, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let full = fabric.nam_rdma_time(NodeId(0), 0, 1 << 20).unwrap();
    let frame = fabric.nam_rdma_time(NodeId(0), 0, 2048).unwrap();
    let region = nam.alloc(1 << 20).unwrap();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        let data = vec![7u8; 1 << 20];
        let t0 = rank.now();
        let req = rank.inam_put(0, region, 0, &data, Some(2048)).unwrap();
        req.wait(rank).unwrap();
        assert_eq!(rank.now(), t0 + frame);
        assert!(frame < full);
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn inam_put_rejects_unknown_device_and_bad_region() {
    let mut t = Topology::new();
    t.add_nodes(1, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let region = nam.alloc(16).unwrap();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        assert!(matches!(
            rank.inam_put(7, region, 0, &[0u8; 4], None),
            Err(MpiError::Nam(_))
        ));
        assert!(matches!(
            rank.inam_put(0, region, 12, &[0u8; 8], None),
            Err(MpiError::Nam(simnet::nam::NamError::OutOfBounds { .. }))
        ));
    });
    psmpi::lockcheck::assert_acyclic();
}
