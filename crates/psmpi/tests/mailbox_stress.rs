//! Stress tests for the mailbox arrival index under high fan-in.
//!
//! The per-`(comm, src, tag)` index deques are what make fully-specified
//! receives O(1) under incast; these tests drive them with the 1000-sender
//! fan-in the scale benchmark simulates and check the two guarantees the
//! router build on top of them relies on:
//!
//! 1. **Non-overtaking** — one sender's envelopes are matched in send
//!    order, both through the exact-match index and through wildcard
//!    receives that bypass it.
//! 2. **Probe earliest-arrival** — `probe_blocking_either` reports the tag
//!    of the *earliest* queued envelope from the awaited sender and never
//!    dequeues anything, even when it blocks across a concurrent push.
//! 3. **No lost wake-up** — a deposit only notifies when a receiver parked
//!    since the last wake-up, so a receiver that parks must always be
//!    reached by a later matching push, whichever blocking call it is in.

use bytes::Bytes;
use hwmodel::SimTime;
use psmpi::envelope::EndpointId;
use psmpi::router::Mailbox;
use psmpi::{CommId, Envelope, Tag};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const COMM: CommId = CommId(1);
const TAG: Tag = 5;

/// Build an envelope from `sender` whose payload encodes `(sender, i)` so
/// the receiver can check ordering independently of the `seq` field.
fn env(sender: usize, tag: Tag, i: u64) -> Envelope {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&(sender as u64).to_le_bytes());
    payload.extend_from_slice(&i.to_le_bytes());
    Envelope {
        comm: COMM,
        src_rank: sender,
        tag,
        payload: Bytes::from(payload),
        send_stamp: SimTime::from_secs(i as f64 * 1e-9),
        src_endpoint: EndpointId(sender as u64),
        seq: i,
        virtual_size: None,
    }
}

fn decode(payload: &Bytes) -> (usize, u64) {
    let s = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let i = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    (s as usize, i)
}

/// 1000 sender threads fan into one mailbox while a receiver concurrently
/// drains it with a fully-wildcard receive; every sender's envelopes must
/// come out in that sender's send order.
#[test]
fn thousand_senders_preserve_per_sender_order_under_wildcard_drain() {
    const SENDERS: usize = 1000;
    const PER_SENDER: u64 = 8;

    let mbox = Arc::new(Mailbox::default());

    // Receiver races the senders: it starts before any envelope exists and
    // blocks on the condvar whenever it outruns the producers.
    let receiver = {
        let mbox = mbox.clone();
        thread::spawn(move || {
            let mut next = vec![0u64; SENDERS];
            for _ in 0..SENDERS as u64 * PER_SENDER {
                let e = mbox.recv_match(COMM, None, None);
                let (s, i) = decode(&e.payload);
                assert_eq!(e.src_rank, s, "payload sender matches envelope");
                assert_eq!(
                    i, next[s],
                    "sender {s} overtaken: got message {i}, expected {}",
                    next[s]
                );
                next[s] += 1;
            }
            next
        })
    };

    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let mbox = mbox.clone();
            thread::spawn(move || {
                for i in 0..PER_SENDER {
                    mbox.push(env(s, TAG, i));
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }

    let next = receiver.join().unwrap();
    assert!(next.iter().all(|&n| n == PER_SENDER));
    assert!(mbox.is_empty(), "wildcard drain consumed everything");
    psmpi::lockcheck::assert_acyclic();
}

/// Same fan-in, drained through the exact-match index: a fully-specified
/// `(comm, src, tag)` receive per sender must also see send order, and
/// interleaving the drain across senders must not disturb any class.
#[test]
fn thousand_senders_preserve_order_through_exact_match_index() {
    const SENDERS: usize = 1000;
    const PER_SENDER: u64 = 4;

    let mbox = Arc::new(Mailbox::default());
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let mbox = mbox.clone();
            thread::spawn(move || {
                for i in 0..PER_SENDER {
                    mbox.push(env(s, TAG, i));
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }
    assert_eq!(mbox.len(), SENDERS * PER_SENDER as usize);

    // Round-robin across senders so each class's deque is popped with
    // arbitrary other-class traffic interleaved between its pops.
    for i in 0..PER_SENDER {
        for s in 0..SENDERS {
            let e = mbox.recv_match(COMM, Some(s), Some(TAG));
            let (ps, pi) = decode(&e.payload);
            assert_eq!((ps, pi), (s, i), "class ({s}, {TAG}) popped out of order");
        }
    }
    assert!(mbox.is_empty());
    psmpi::lockcheck::assert_acyclic();
}

/// The request engine on top of the same fan-in: the receiver posts one
/// `irecv` per sender up front, drains the whole batch with `waitall`,
/// and 1000 concurrent senders race the posts. Completion order must be
/// posted order (not host arrival order), every payload must land with
/// its own request, and the receiver's final virtual state must be
/// identical run over run — `waitall` is a pure function of the virtual
/// state, so host scheduling cannot leak into it.
#[test]
fn waitall_over_thousand_concurrent_senders_is_deterministic() {
    use hwmodel::presets::deep_er_cluster_node;
    use psmpi::UniverseBuilder;

    const SENDERS: usize = 1000;

    let run = || {
        let outcome = Arc::new(parking_lot::Mutex::new((SimTime::ZERO, 0u64)));
        let o2 = outcome.clone();
        UniverseBuilder::new()
            .add_nodes(SENDERS as u32 + 1, &deep_er_cluster_node())
            .run(move |rank| {
                if rank.rank() > 0 {
                    let me = rank.rank() as u64;
                    rank.send_slice(0, TAG, &[me as f64, me as f64 * 0.5])
                        .unwrap();
                    return;
                }
                // Post fully-specified receives in reverse sender order so
                // posted order visibly differs from rank order, then drain.
                let reqs: Vec<_> = (1..=SENDERS)
                    .rev()
                    .map(|s| rank.irecv_bytes(Some(s), Some(TAG)).unwrap())
                    .collect();
                let got = rank.waitall(reqs).unwrap();
                let mut sum = 0u64;
                for (i, (payload, st)) in got.iter().enumerate() {
                    let expect = SENDERS - i; // posted order, not arrival
                    assert_eq!(st.source, expect, "completion follows posted order");
                    let v = f64::from_le_bytes(payload[0..8].try_into().unwrap());
                    assert_eq!(v, expect as f64, "payload stayed with its request");
                    sum = sum.wrapping_mul(31).wrapping_add(v.to_bits());
                }
                *o2.lock() = (rank.now(), sum);
            });
        let o = *outcome.lock();
        o
    };

    let first = run();
    assert!(first.0 > SimTime::ZERO);
    for _ in 0..3 {
        assert_eq!(run(), first, "virtual outcome independent of host schedule");
    }
    psmpi::lockcheck::assert_acyclic();
}

const TAG_A: Tag = 10;
const TAG_B: Tag = 20;

/// `probe_blocking_either` with both tags already queued returns whichever
/// arrived first, in either queueing order, and dequeues nothing.
#[test]
fn probe_blocking_either_reports_earliest_arrival_without_dequeue() {
    let mbox = Mailbox::default();
    mbox.push(env(0, TAG_B, 0));
    mbox.push(env(0, TAG_A, 1));
    assert_eq!(mbox.probe_blocking_either(COMM, 0, TAG_A, TAG_B), TAG_B);
    assert_eq!(mbox.len(), 2, "probe must not consume");

    // Reversed arrival order, same argument order.
    let mbox = Mailbox::default();
    mbox.push(env(0, TAG_A, 0));
    mbox.push(env(0, TAG_B, 1));
    assert_eq!(mbox.probe_blocking_either(COMM, 0, TAG_A, TAG_B), TAG_A);
    assert_eq!(mbox.len(), 2);
    psmpi::lockcheck::assert_acyclic();
}

/// Race `probe_blocking_either` against a concurrent sender: the prober
/// blocks on an empty mailbox, the sender then queues TAG_B before TAG_A.
/// Whenever the prober wakes it must answer TAG_B (the earlier arrival) —
/// seeing TAG_A alone is impossible because B is pushed first — and the
/// mailbox must still hold both envelopes afterwards.
#[test]
fn probe_blocking_either_race_with_concurrent_sender() {
    for _ in 0..50 {
        let mbox = Arc::new(Mailbox::default());
        let prober = {
            let mbox = mbox.clone();
            thread::spawn(move || mbox.probe_blocking_either(COMM, 7, TAG_A, TAG_B))
        };
        let sender = {
            let mbox = mbox.clone();
            thread::spawn(move || {
                mbox.push(env(7, TAG_B, 0));
                mbox.push(env(7, TAG_A, 1));
            })
        };
        sender.join().unwrap();
        assert_eq!(prober.join().unwrap(), TAG_B, "earliest arrival wins");
        assert_eq!(mbox.len(), 2, "probe left both envelopes queued");
        // The probe's answer must still be receivable in arrival order.
        let e = mbox.recv_match(COMM, Some(7), Some(TAG_B));
        assert_eq!(decode(&e.payload), (7, 0));
    }
    psmpi::lockcheck::assert_acyclic();
}

/// Run `body` on its own thread and fail the test if it has not finished
/// within `limit`: a lost wake-up parks a receiver forever, and this turns
/// that hang into a test failure.
fn under_watchdog<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: a parked receiver was never woken")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("stress body panicked"),
    }
}

/// Tag of a producer's `i`-th envelope: alternating, so exact receives and
/// `probe_blocking_either` both have a class to wait on.
fn tag_of(i: u64) -> Tag {
    if i.is_multiple_of(2) {
        TAG_A
    } else {
        TAG_B
    }
}

/// Eight producers push 10k envelopes each into one mailbox while a single
/// consumer cycles through an exact receive from one producer, a full
/// wildcard receive, and a `probe_blocking_either` on one producer followed
/// by the receive it names. The exact and probe calls park on one sender
/// while the others keep depositing non-matching envelopes, which is where
/// a wake-up spent on the wrong deposit would strand the consumer.
#[test]
fn mixed_receives_never_lose_a_wake_up_under_eight_producers() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: u64 = 10_000;

    let next = under_watchdog(Duration::from_secs(60), || {
        let mbox = Arc::new(Mailbox::default());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mbox = mbox.clone();
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        mbox.push(env(p, tag_of(i), i));
                        // Short bursts let the consumer catch up and park.
                        if i % 64 == 63 {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let mut next = [0u64; PRODUCERS];
        let mut turn = 0usize;
        for n in 0..PRODUCERS as u64 * PER_PRODUCER {
            // Round-robin over the producers that still owe envelopes.
            let p = loop {
                let p = turn % PRODUCERS;
                turn += 1;
                if next[p] < PER_PRODUCER {
                    break p;
                }
            };
            let e = match n % 3 {
                0 => mbox.recv_match(COMM, Some(p), Some(tag_of(next[p]))),
                1 => mbox.recv_match(COMM, None, None),
                _ => {
                    let tag = mbox.probe_blocking_either(COMM, p, TAG_A, TAG_B);
                    assert_eq!(tag, tag_of(next[p]), "probe saw producer {p} out of order");
                    mbox.recv_match(COMM, Some(p), Some(tag))
                }
            };
            let (s, i) = decode(&e.payload);
            assert_eq!(e.src_rank, s, "payload sender matches envelope");
            assert_eq!(i, next[s], "producer {s} overtaken");
            next[s] += 1;
        }
        for h in producers {
            h.join().unwrap();
        }
        assert!(mbox.is_empty(), "every envelope consumed");
        next
    });
    assert!(next.iter().all(|&n| n == PER_PRODUCER));
    psmpi::lockcheck::assert_acyclic();
}
