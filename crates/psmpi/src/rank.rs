//! The per-process handle: point-to-point messaging, virtual time, compute
//! charging. One [`Rank`] is owned by each rank thread.

use crate::comm::{CommId, Communicator, Group, Intercomm};
use crate::datatype::{
    pod_to_bytes_pooled, read_pod_into_exact, CodecError, FixedWidth, MpiDatatype,
};
use crate::envelope::{EndpointId, Envelope, Status, Tag, TAG_REVOKED};
use crate::pool::BufferPool;
use crate::router::{EndpointEntry, Mailbox, RecvAbort, Router};
use bytes::{BufMut, Bytes, BytesMut};
use hwmodel::{CostModel, NodeId, NodeSpec, SimTime, WorkSpec};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Errors surfaced by the messaging API. `Clone` because a deferred
/// fault can be parked inside a request handle at post time and surfaced
/// (or inspected) at wait time.
#[derive(Debug, Clone)]
pub enum PsmpiError {
    /// Payload failed to decode as the requested type.
    Codec(CodecError),
    /// A rank index was out of range for the communicator.
    InvalidRank { rank: usize, size: usize },
    /// The calling endpoint is not a member of the communicator it used.
    NotInCommunicator,
    /// Spawn failed (e.g. no nodes given).
    Spawn(String),
    /// The peer's node died (at the given virtual time) before the
    /// operation could complete. Recoverable: restart the lost ranks from
    /// a checkpoint (see `xpic::resilience`).
    NodeFailed { node: NodeId, at: SimTime },
    /// The link to the peer stayed down through every retry.
    LinkDown {
        src: NodeId,
        dst: NodeId,
        at: SimTime,
    },
    /// Retry/backoff on a transient link fault exceeded the give-up bound.
    Timeout { waited: SimTime },
    /// An endpoint id with no registered mailbox/node (stale handle, or a
    /// message addressed into a torn-down world).
    UnknownEndpoint(u64),
    /// No fabric route between two nodes (unregistered in the topology).
    NoRoute { src: NodeId, dst: NodeId },
    /// A NAM RDMA operation was rejected by the device (out of capacity,
    /// out-of-bounds access, or stale region handle).
    Nam(simnet::nam::NamError),
}

impl std::fmt::Display for PsmpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsmpiError::Codec(e) => write!(f, "{e}"),
            PsmpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            PsmpiError::NotInCommunicator => write!(f, "caller not in communicator"),
            PsmpiError::Spawn(s) => write!(f, "spawn failed: {s}"),
            PsmpiError::NodeFailed { node, at } => {
                write!(f, "node {} failed at t={}", node.0, at)
            }
            PsmpiError::LinkDown { src, dst, at } => {
                write!(f, "link {}<->{} down at t={}", src.0, dst.0, at)
            }
            PsmpiError::Timeout { waited } => {
                write!(f, "operation timed out after waiting {waited}")
            }
            PsmpiError::UnknownEndpoint(ep) => write!(f, "endpoint {ep} not registered"),
            PsmpiError::NoRoute { src, dst } => {
                write!(f, "no fabric route between nodes {} and {}", src.0, dst.0)
            }
            PsmpiError::Nam(e) => write!(f, "NAM rdma: {e}"),
        }
    }
}

impl std::error::Error for PsmpiError {}

impl From<CodecError> for PsmpiError {
    fn from(e: CodecError) -> Self {
        PsmpiError::Codec(e)
    }
}

/// Where a point-to-point operation goes to or comes from: a rank of the
/// world, a rank of an intra-communicator, or a rank of an
/// inter-communicator's *remote* group (MPI inter-communicator
/// addressing, used for Cluster↔Booster exchange after spawn). `R` is
/// `usize` for a send's destination and `Option<usize>` for a receive's
/// source, where `None` matches any source.
///
/// Targets are built by conversion, so every messaging call takes one
/// target argument: a bare rank addresses the world, `(&comm, r)` an
/// intra-communicator and `(&intercomm, r)` an inter-communicator. The
/// rank is range-checked against the addressed group when the operation
/// is posted, for every kind alike ([`PsmpiError::InvalidRank`]).
///
/// ```
/// use psmpi::UniverseBuilder;
/// use hwmodel::presets::deep_er_cluster_node;
///
/// UniverseBuilder::new()
///     .add_nodes(2, &deep_er_cluster_node())
///     .run(|rank| {
///         let w = rank.world();
///         if rank.rank() == 0 {
///             rank.send(1, 7, &1u64).unwrap(); // world rank 1
///             rank.send((&w, 1), 8, &2u64).unwrap(); // rank 1 of `w`
///         } else {
///             let (a, _) = rank.recv::<u64>(Some(0), Some(7)).unwrap();
///             let (b, _) = rank.recv::<u64>((&w, None), Some(8)).unwrap();
///             assert_eq!((a, b), (1, 2));
///         }
///     });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Target<'a, R = usize> {
    on: On<'a>,
    rank: R,
}

/// The communicator a [`Target`] names its rank in.
#[derive(Debug, Clone, Copy)]
enum On<'a> {
    World,
    Comm(&'a Communicator),
    Inter(&'a Intercomm),
}

impl<R> From<R> for Target<'_, R> {
    fn from(rank: R) -> Self {
        Target {
            on: On::World,
            rank,
        }
    }
}

impl<'a, R> From<(&'a Communicator, R)> for Target<'a, R> {
    fn from((comm, rank): (&'a Communicator, R)) -> Self {
        Target {
            on: On::Comm(comm),
            rank,
        }
    }
}

impl<'a, R> From<(&'a Intercomm, R)> for Target<'a, R> {
    fn from((ic, rank): (&'a Intercomm, R)) -> Self {
        Target {
            on: On::Inter(ic),
            rank,
        }
    }
}

/// A raw payload for the `*_bytes` sends: the buffer, plus optionally
/// the size the wire model charges instead of the buffer's length
/// (model-scale exchanges over reduced-scale data). A plain [`Bytes`]
/// converts into a payload charged at its own length.
#[derive(Debug, Clone)]
pub struct Payload {
    bytes: Bytes,
    wire_size: Option<usize>,
}

impl Payload {
    /// `bytes` travels, `wire_size` bytes are charged on the wire.
    pub fn sized(bytes: Bytes, wire_size: usize) -> Self {
        Payload {
            bytes,
            wire_size: Some(wire_size),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(bytes: Bytes) -> Self {
        Payload {
            bytes,
            wire_size: None,
        }
    }
}

/// How a posted send resolved. Everything here is computed at post time
/// from the sender's virtual state — what is *deferred* is the charge:
/// the poster's clock does not move until the send completes.
#[derive(Debug, Clone)]
enum SendOutcome {
    /// The injection cleared the fault checks; NIC serialization (plus
    /// any link-retry backoff walked through first) finishes at
    /// `completion`.
    Done { completion: SimTime },
    /// A fault path fired while posting. Surfaced at completion, with the
    /// clock advanced to where the sender gave up.
    Failed { err: PsmpiError, at: SimTime },
}

/// Which obs spans a completion stamps. Every blocking call is a post
/// followed by an immediate completion with `Blocking` labels, which keep
/// the historical spans: a `Send`/"send" span on every successful send
/// (even a zero-length one; none when the send fails) and
/// `Recv`/"recv" or "recv-aborted" on receives. Request completions stamp
/// request-scoped `Wait` spans ("wait-send" whenever the clock moved,
/// "wait-recv", "wait-aborted") so overlap wins are legible in the
/// per-module profile.
#[derive(Debug, Clone, Copy)]
enum Spans {
    Blocking,
    Wait,
}

/// Common completion surface of the request handles ([`SendRequest`],
/// [`RecvRequest`], [`TypedRecvRequest`], [`RecvIntoRequest`]). `wait`
/// completes the operation on the calling rank and advances its clock to
/// the completion timestamp; `test` completes only if that can happen
/// without blocking. [`Rank::waitall`] drains a homogeneous batch in
/// posted order.
pub trait MpiRequest {
    /// What completion yields: `()` for sends, payload + status for
    /// receives.
    type Output;
    /// Block until the operation completes. Advances the caller's clock
    /// only to the request's completion timestamp and surfaces any
    /// deferred fault error ([`PsmpiError::NodeFailed`],
    /// [`PsmpiError::LinkDown`], [`PsmpiError::Timeout`]).
    fn wait(self, rank: &mut Rank) -> Result<Self::Output, PsmpiError>;
    /// Complete the operation if it is ready now, otherwise hand the
    /// request back untouched (a miss never moves the clock).
    fn test(self, rank: &mut Rank) -> Result<Result<Self::Output, Self>, PsmpiError>
    where
        Self: Sized;
}

/// A posted send ([`Rank::isend`], [`Rank::isend_bytes`],
/// [`Rank::isend_slice`], [`Rank::inam_put`]).
///
/// The envelope was deposited with the receiver at post time (buffered
/// semantics: the message is matchable immediately, stamped exactly as
/// the blocking path would have stamped it), but the sender-side costs
/// were not charged — NIC serialization and link-retry backoff accrue to
/// this handle and land on the poster's clock at [`MpiRequest::wait`].
/// Dropping the handle without `wait`/`test` silently loses that charge;
/// deepcheck lint M003 flags statement-level discards.
#[must_use = "a dropped send request never charges its NIC time (deepcheck M003)"]
pub struct SendRequest {
    outcome: SendOutcome,
}

impl MpiRequest for SendRequest {
    type Output = ();

    fn wait(self, rank: &mut Rank) -> Result<(), PsmpiError> {
        rank.complete_send(self.outcome, Spans::Wait)
    }

    fn test(self, rank: &mut Rank) -> Result<Result<(), Self>, PsmpiError> {
        // A buffered send is complete the moment its deferred charge is
        // applied — test never hands the request back.
        Ok(Ok(self.wait(rank)?))
    }
}

/// A posted raw-payload receive ([`Rank::irecv_bytes`]).
///
/// Posting records the matching criteria only — in virtual time a post
/// is free, and the payoff comes from waiting late: completion sets the
/// clock to `max(clock at wait, arrival)`, so compute done between post
/// and wait hides the transfer. Completion surfaces sender death as
/// [`PsmpiError::NodeFailed`].
#[must_use = "an irecv only matches at wait/test (deepcheck M003)"]
pub struct RecvRequest {
    comm: CommId,
    src: Option<usize>,
    tag: Option<Tag>,
    /// Awaited sender's endpoint (resolved at post time); lets the
    /// receive abort if that endpoint's node dies.
    src_ep: Option<EndpointId>,
}

impl RecvRequest {
    fn complete(self, rank: &mut Rank, spans: Spans) -> Result<(Bytes, Status), PsmpiError> {
        rank.complete_recv(self.comm, self.src, self.tag, self.src_ep, spans)
    }

    /// Whether a matching message is already queued (completion would not
    /// block).
    fn ready(&self, rank: &Rank) -> bool {
        rank.mailbox
            .probe_match(self.comm, self.src, self.tag)
            .is_some()
    }
}

impl MpiRequest for RecvRequest {
    type Output = (Bytes, Status);

    fn wait(self, rank: &mut Rank) -> Result<(Bytes, Status), PsmpiError> {
        self.complete(rank, Spans::Wait)
    }

    fn test(self, rank: &mut Rank) -> Result<Result<(Bytes, Status), Self>, PsmpiError> {
        if self.ready(rank) {
            Ok(Ok(self.wait(rank)?))
        } else {
            Ok(Err(self))
        }
    }
}

/// A posted typed receive ([`Rank::irecv`]): decodes the payload as `T`
/// at completion and recycles the wire buffer.
#[must_use = "an irecv only matches at wait/test (deepcheck M003)"]
pub struct TypedRecvRequest<T: MpiDatatype> {
    inner: RecvRequest,
    _t: PhantomData<T>,
}

impl<T: MpiDatatype> TypedRecvRequest<T> {
    fn complete(self, rank: &mut Rank, spans: Spans) -> Result<(T, Status), PsmpiError> {
        let (bytes, st) = self.inner.complete(rank, spans)?;
        let value = T::from_bytes(bytes.clone())?;
        // Return the payload allocation to the pool — a no-op whenever the
        // decode (e.g. `Raw`) or another rank still holds a reference.
        rank.router.buffer_pool().recycle(bytes);
        Ok((value, st))
    }
}

impl<T: MpiDatatype> MpiRequest for TypedRecvRequest<T> {
    type Output = (T, Status);

    fn wait(self, rank: &mut Rank) -> Result<(T, Status), PsmpiError> {
        self.complete(rank, Spans::Wait)
    }

    fn test(self, rank: &mut Rank) -> Result<Result<(T, Status), Self>, PsmpiError> {
        if self.inner.ready(rank) {
            Ok(Ok(self.wait(rank)?))
        } else {
            Ok(Err(self))
        }
    }
}

/// A posted in-place typed receive ([`Rank::irecv_into`]): borrows the
/// caller's output slice for the request's lifetime and bulk-decodes
/// straight into it at completion (the message's element count must
/// match the slice length exactly).
#[must_use = "an irecv only matches at wait/test (deepcheck M003)"]
pub struct RecvIntoRequest<'a, T: FixedWidth> {
    inner: RecvRequest,
    out: &'a mut [T],
}

impl<T: FixedWidth> RecvIntoRequest<'_, T> {
    fn complete(self, rank: &mut Rank, spans: Spans) -> Result<Status, PsmpiError> {
        let (bytes, st) = self.inner.complete(rank, spans)?;
        read_pod_into_exact(&bytes, self.out)?;
        rank.router.buffer_pool().recycle(bytes);
        Ok(st)
    }
}

impl<T: FixedWidth> MpiRequest for RecvIntoRequest<'_, T> {
    type Output = Status;

    fn wait(self, rank: &mut Rank) -> Result<Status, PsmpiError> {
        self.complete(rank, Spans::Wait)
    }

    fn test(self, rank: &mut Rank) -> Result<Result<Status, Self>, PsmpiError> {
        if self.inner.ready(rank) {
            Ok(Ok(self.wait(rank)?))
        } else {
            Ok(Err(self))
        }
    }
}

/// Wire form of a revoke-marker payload: failed node id (u32 LE) + virtual
/// death time in seconds (f64 LE).
fn encode_revoke_marker(node: NodeId, at: SimTime) -> Bytes {
    let mut b = BytesMut::with_capacity(12);
    b.put_u32_le(node.0);
    b.put_f64_le(at.as_secs());
    b.freeze()
}

fn decode_revoke_marker(b: &Bytes) -> Option<(NodeId, SimTime)> {
    if b.len() != 12 {
        return None;
    }
    let node = u32::from_le_bytes(b[0..4].try_into().ok()?);
    let secs = f64::from_le_bytes(b[4..12].try_into().ok()?);
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((NodeId(node), SimTime::from_secs(secs)))
}

/// The handle each rank thread owns.
pub struct Rank {
    router: Arc<Router>,
    endpoint: EndpointId,
    /// This rank's own mailbox, resolved once at construction: every
    /// receive lands here, and a self-addressed send is pushed straight in
    /// without consulting the router's endpoint table at all.
    mailbox: Arc<Mailbox>,
    /// This rank's own routing record (incast bookkeeping target).
    self_entry: Arc<EndpointEntry>,
    /// Lazily-built cache of peer routing records. Entries are immutable
    /// and never removed from the router, so a cached `Arc` stays valid for
    /// the life of the universe; after the first message to/from a peer,
    /// the hot paths never touch the router's sharded table again.
    entries: BTreeMap<EndpointId, Arc<EndpointEntry>>,
    /// This rank's index per communicator context, so repeated sends on
    /// the same communicator skip [`crate::Group::rank_of`]'s O(n)
    /// endpoint scan (quadratic per exchange step at 1000 ranks). The
    /// world is answered from `my_rank` without touching the map.
    comm_ranks: BTreeMap<CommId, usize>,
    /// The fault schedule, resolved once at construction (plans are
    /// installed before rank threads launch and immutable afterwards —
    /// see [`simnet::Fabric::set_fault_plan`]). `None` makes every
    /// sender-side fault check a single branch.
    fault_plan: Option<Arc<simnet::FaultPlan>>,
    node_id: NodeId,
    node: Arc<NodeSpec>,
    world: Communicator,
    my_rank: usize,
    parent: Option<Intercomm>,
    clock: SimTime,
    start_clock: SimTime,
    cost: CostModel,
    seq: u64,
    /// Cores of the node available to this rank (node cores divided by the
    /// ranks placed on the node).
    cores: u32,
    bytes_sent: u64,
    msgs_sent: u64,
    compute_time: SimTime,
    comm_time: SimTime,
    /// Observability track, present when a recorder is attached to the
    /// universe. All runtime spans/edges are stamped with the virtual
    /// clock, never wall time.
    obs: Option<obs::TrackHandle>,
}

impl Rank {
    /// Used by the universe/spawner; not public API.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        router: Arc<Router>,
        endpoint: EndpointId,
        node_id: NodeId,
        node: Arc<NodeSpec>,
        world: Communicator,
        my_rank: usize,
        parent: Option<Intercomm>,
        start_clock: SimTime,
        cores: u32,
        obs_origin: Option<obs::TrackKey>,
    ) -> Self {
        let self_entry = router
            .entry(endpoint)
            .expect("rank endpoint is registered at construction");
        let mailbox = self_entry.mailbox().clone();
        let fault_plan = router.fabric().fault_plan();
        let obs = router.obs_recorder().map(|rec| {
            rec.register(
                obs::TrackKey {
                    world: world.id.0,
                    rank: my_rank as u64,
                },
                router.kind_of(endpoint).label(),
                endpoint.0,
                start_clock,
                obs_origin,
            )
        });
        Rank {
            router,
            endpoint,
            mailbox,
            self_entry,
            entries: BTreeMap::new(),
            comm_ranks: BTreeMap::new(),
            fault_plan,
            node_id,
            node,
            world,
            my_rank,
            parent,
            clock: start_clock,
            start_clock,
            cost: CostModel,
            seq: 0,
            cores,
            bytes_sent: 0,
            msgs_sent: 0,
            compute_time: SimTime::ZERO,
            comm_time: SimTime::ZERO,
            obs,
        }
    }

    /// This rank's observability track, when a recorder is attached.
    /// Applications can add their own spans/counters through it; prefer
    /// [`Rank::obs_open`]/[`Rank::obs_close`], which stamp the virtual
    /// clock for you.
    pub fn obs(&self) -> Option<&obs::TrackHandle> {
        self.obs.as_ref()
    }

    /// Open an application span at the current virtual time. Returns
    /// `None` when no recorder is attached; close with [`Rank::obs_close`].
    pub fn obs_open(&self, cat: obs::Category, name: &str) -> Option<obs::SpanGuard> {
        let now = self.clock;
        self.obs.as_ref().map(|t| t.open_span(cat, name, now))
    }

    /// Close a span opened with [`Rank::obs_open`] at the current virtual
    /// time.
    pub fn obs_close(&self, guard: Option<obs::SpanGuard>) {
        if let Some(g) = guard {
            g.close(self.clock);
        }
    }

    /// This rank's index in its world (MPI_Comm_rank on MPI_COMM_WORLD).
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// World size (MPI_Comm_size on MPI_COMM_WORLD).
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The world communicator.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// The parent inter-communicator, if this world was spawned
    /// (MPI_Comm_get_parent).
    pub fn parent(&self) -> Option<Intercomm> {
        self.parent.clone()
    }

    /// Node this rank runs on.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Hardware model of this rank's node.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Cores available to this rank.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Virtual time spent in `compute` calls so far.
    pub fn compute_time(&self) -> SimTime {
        self.compute_time
    }

    /// Virtual time spent communicating (clock advanced inside messaging
    /// calls) so far.
    pub fn comm_time(&self) -> SimTime {
        self.comm_time
    }

    /// The shared router (used by sibling modules: collectives, spawn).
    pub(crate) fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The universe-wide encode-buffer pool. Applications encoding raw
    /// payloads for [`Rank::send_bytes`] can stage through it to reuse
    /// retired allocations on hot exchange paths.
    pub fn buffer_pool(&self) -> &BufferPool {
        self.router.buffer_pool()
    }

    /// This rank's mailbox (collectives dispatch on queued tags).
    pub(crate) fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    /// Routing record of a peer endpoint, from this rank's private cache
    /// (filled on first use; see the `entries` field).
    fn entry_of(&mut self, ep: EndpointId) -> Result<Arc<EndpointEntry>, PsmpiError> {
        if let Some(e) = self.entries.get(&ep) {
            return Ok(e.clone());
        }
        let e = self.router.entry(ep)?;
        self.entries.insert(ep, e.clone());
        Ok(e)
    }

    /// This rank's index within `comm`, cached per communicator context.
    /// The world answers from `my_rank` directly; other communicators pay
    /// [`crate::Group::rank_of`]'s linear scan exactly once.
    pub(crate) fn comm_rank(&mut self, comm: &Communicator) -> Result<usize, PsmpiError> {
        if comm.id == self.world.id {
            return Ok(self.my_rank);
        }
        if let Some(&r) = self.comm_ranks.get(&comm.id) {
            return Ok(r);
        }
        let r = comm
            .group
            .rank_of(self.endpoint)
            .ok_or(PsmpiError::NotInCommunicator)?;
        self.comm_ranks.insert(comm.id, r);
        Ok(r)
    }

    /// This rank's index within the local group of `ic`, cached by context
    /// id (an endpoint belongs to exactly one side of an inter-comm, so the
    /// shared [`CommId`] keyspace with intra-comms is unambiguous).
    pub(crate) fn inter_local_rank(&mut self, ic: &Intercomm) -> Result<usize, PsmpiError> {
        if let Some(&r) = self.comm_ranks.get(&ic.id) {
            return Ok(r);
        }
        let r = ic
            .local
            .rank_of(self.endpoint)
            .ok_or(PsmpiError::NotInCommunicator)?;
        self.comm_ranks.insert(ic.id, r);
        Ok(r)
    }

    /// Advance the virtual clock unconditionally (used for modelled waits,
    /// I/O completion times from `sionio`, etc.).
    pub fn advance(&mut self, t: SimTime) {
        self.clock += t;
    }

    /// Execute (charge) a unit of computational work on this node. Returns
    /// the modelled duration. The work's core limit is additionally capped
    /// by the cores available to this rank.
    pub fn compute(&mut self, work: &WorkSpec) -> SimTime {
        let mut w = work.clone();
        w.max_cores = Some(w.max_cores.map_or(self.cores, |m| m.min(self.cores)));
        let pre = self.clock;
        let t = self.cost.time(&self.node, &w);
        self.clock += t;
        self.compute_time += t;
        if let Some(track) = &self.obs {
            track.span(obs::Category::Compute, work.name.as_str(), pre, self.clock);
        }
        t
    }

    // ---- point-to-point ----
    //
    // Three payload families share one engine: typed values
    // ([`MpiDatatype`], framed codec), raw [`Bytes`] (zero-copy: the
    // handle is refcount-cloned into the envelope and `recv_bytes` hands
    // back the very same allocation) and POD slices (bulk-encoded into a
    // pooled buffer on send, decoded into a caller-owned slice on receive,
    // so steady-state `&[f64]` p2p does no per-message heap allocation;
    // the wire is the unframed POD layout, so both sides must agree on
    // the element count). Each family has a blocking and a posted send
    // and receive, and every call takes one [`Target`].
    //
    // A posted send deposits the envelope at once (buffered semantics:
    // the message is matchable immediately) but charges nothing to the
    // caller — link-retry backoff and NIC serialization accrue to the
    // returned [`SendRequest`] and land on the clock at `wait`. A posted
    // receive records matching criteria; the receive happens at `wait`,
    // advancing the clock only to `max(clock, arrival)`. Both give MPI's
    // overlap payoff in virtual time while keeping every timestamp a pure
    // function of virtual state, so thread-count invariance holds; fault
    // paths surface at completion as `NodeFailed`/`LinkDown`/`Timeout`.
    // A blocking call is the same post completed at once, with the
    // blocking span labels (see [`Spans`]).

    /// Blocking standard send of `value` to `to` with `tag`. Buffered
    /// semantics: completes locally after injection.
    pub fn send<'a, T: MpiDatatype>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        value: &T,
    ) -> Result<(), PsmpiError> {
        let req = self.isend(to, tag, value)?;
        self.complete_send(req.outcome, Spans::Blocking)
    }

    /// Posted send of `value`; complete with [`MpiRequest::wait`].
    pub fn isend<'a, T: MpiDatatype>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        value: &T,
    ) -> Result<SendRequest, PsmpiError> {
        self.post_send(to.into(), tag, |pool| value.to_wire(pool).into())
    }

    /// Blocking receive of a `T` from `from` (or any source) with `tag`
    /// (or any tag).
    pub fn recv<'a, T: MpiDatatype>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
    ) -> Result<(T, Status), PsmpiError> {
        self.irecv(from, tag)?.complete(self, Spans::Blocking)
    }

    /// Posted receive of a `T`; complete with [`MpiRequest::wait`].
    pub fn irecv<'a, T: MpiDatatype>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
    ) -> Result<TypedRecvRequest<T>, PsmpiError> {
        Ok(TypedRecvRequest {
            inner: self.irecv_bytes(from, tag)?,
            _t: PhantomData,
        })
    }

    /// Blocking zero-copy send of a raw payload (optionally charged at a
    /// modelled wire size, see [`Payload::sized`]).
    pub fn send_bytes<'a>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        payload: impl Into<Payload>,
    ) -> Result<(), PsmpiError> {
        let req = self.isend_bytes(to, tag, payload)?;
        self.complete_send(req.outcome, Spans::Blocking)
    }

    /// Posted zero-copy send; complete with [`MpiRequest::wait`].
    pub fn isend_bytes<'a>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        payload: impl Into<Payload>,
    ) -> Result<SendRequest, PsmpiError> {
        let payload = payload.into();
        self.post_send(to.into(), tag, |_| payload)
    }

    /// Blocking zero-copy receive: the returned [`Bytes`] is the sender's
    /// buffer (shared allocation), not a copy.
    pub fn recv_bytes<'a>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
    ) -> Result<(Bytes, Status), PsmpiError> {
        self.irecv_bytes(from, tag)?.complete(self, Spans::Blocking)
    }

    /// Posted zero-copy receive; complete with [`MpiRequest::wait`].
    /// Posting is free in virtual time — the win comes from computing
    /// between post and wait.
    pub fn irecv_bytes<'a>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
    ) -> Result<RecvRequest, PsmpiError> {
        let from = from.into();
        let (comm, group) = self.route(from.on);
        let src_ep = from.rank.map(|s| peer_endpoint(group, s)).transpose()?;
        Ok(RecvRequest {
            comm,
            src: from.rank,
            tag,
            src_ep,
        })
    }

    /// Blocking send of a POD slice, bulk-encoded into a pooled buffer
    /// (no intermediate `Vec`).
    pub fn send_slice<'a, T: FixedWidth>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        data: &[T],
    ) -> Result<(), PsmpiError> {
        let req = self.isend_slice(to, tag, data)?;
        self.complete_send(req.outcome, Spans::Blocking)
    }

    /// Posted POD-slice send; complete with [`MpiRequest::wait`].
    pub fn isend_slice<'a, T: FixedWidth>(
        &mut self,
        to: impl Into<Target<'a>>,
        tag: Tag,
        data: &[T],
    ) -> Result<SendRequest, PsmpiError> {
        self.post_send(to.into(), tag, |pool| {
            pod_to_bytes_pooled(pool, data).into()
        })
    }

    /// Blocking in-place receive: decodes the payload directly into `out`
    /// (whose length must match the message's element count exactly) and
    /// recycles the wire buffer. No allocation on the steady-state path.
    pub fn recv_into<'a, T: FixedWidth>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
        out: &mut [T],
    ) -> Result<Status, PsmpiError> {
        self.irecv_into(from, tag, out)?
            .complete(self, Spans::Blocking)
    }

    /// Posted in-place receive: `out` is borrowed until the request is
    /// waited and filled at completion.
    pub fn irecv_into<'a, 'o, T: FixedWidth>(
        &mut self,
        from: impl Into<Target<'a, Option<usize>>>,
        tag: Option<Tag>,
        out: &'o mut [T],
    ) -> Result<RecvIntoRequest<'o, T>, PsmpiError> {
        Ok(RecvIntoRequest {
            inner: self.irecv_bytes(from, tag)?,
            out,
        })
    }

    // ---- probes ----

    /// Blocking probe: wait until a matching message is available and
    /// return its status without receiving it.
    pub fn probe(&mut self, comm: &Communicator, src: Option<usize>, tag: Option<Tag>) -> Status {
        let (src_rank, tag, bytes, stamp, src_ep) = self.mailbox.probe_blocking(comm.id, src, tag);
        let arrival = stamp + self.probe_transfer(src_ep, bytes);
        Status {
            source: src_rank,
            tag,
            bytes,
            arrival,
        }
    }

    /// Nonblocking probe.
    pub fn iprobe(
        &mut self,
        comm: &Communicator,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Status> {
        self.mailbox
            .probe_match(comm.id, src, tag)
            .map(|(src_rank, tag, bytes, stamp, src_ep)| {
                let arrival = stamp + self.probe_transfer(src_ep, bytes);
                Status {
                    source: src_rank,
                    tag,
                    bytes,
                    arrival,
                }
            })
    }

    /// Transfer time a probe reports: zero for a self-send (which never
    /// touches the fabric), the modelled fabric time otherwise.
    fn probe_transfer(&self, src_ep: EndpointId, bytes: usize) -> SimTime {
        if src_ep == self.endpoint {
            SimTime::ZERO
        } else {
            // A probe of a message from a torn-down endpoint cannot time the
            // transfer; report zero rather than failing the status query.
            self.router
                .transfer_time(src_ep, self.endpoint, bytes)
                .unwrap_or(SimTime::ZERO)
        }
    }

    /// Post a one-sided RDMA put of `data` into `region` on the fabric's
    /// NAM device `nam_index`, at byte `offset` within the region.
    /// `wire_size`, when given, is the size charged on the wire instead
    /// of `data.len()`: e.g. a delta checkpoint frame serializes only the
    /// frame bytes while the region holds the reconstructed blob.
    ///
    /// The storage effect is immediate — the NAM has no active remote
    /// component (paper §II-B), so nothing on the far side has to
    /// schedule the write — but the initiator-side charge (NIC
    /// injection, the slower of the wire and HMC streams, the FPGA
    /// pipeline latency; see [`simnet::Fabric::nam_rdma_time`]) accrues
    /// to the returned request and lands on the poster's clock at
    /// [`MpiRequest::wait`], exactly like a posted send: compute done
    /// between post and wait hides the transfer in virtual time.
    ///
    /// The device has no host node, so no node-death clearance applies;
    /// an unknown `nam_index` surfaces as [`PsmpiError::Nam`] with a
    /// stale-region error.
    pub fn inam_put(
        &mut self,
        nam_index: usize,
        region: simnet::nam::NamRegion,
        offset: u64,
        data: &[u8],
        wire_size: Option<usize>,
    ) -> Result<SendRequest, PsmpiError> {
        let post = self.clock;
        let fabric = self.router.fabric().clone();
        let nam = fabric
            .nams()
            .get(nam_index)
            .ok_or(PsmpiError::Nam(simnet::nam::NamError::StaleRegion))?
            .clone();
        nam.put(region, offset, data).map_err(PsmpiError::Nam)?;
        let size = wire_size.unwrap_or(data.len());
        let completion = fabric
            .nam_rdma_time(self.node_id, nam_index, size)
            .map(|t| post + t)
            .map_err(|_| PsmpiError::NoRoute {
                src: self.node_id,
                dst: self.node_id,
            })?;
        self.bytes_sent += size as u64;
        self.msgs_sent += 1;
        if let Some(track) = &self.obs {
            track.add("bytes_sent", size as u64);
            track.add("msgs_sent", 1);
        }
        Ok(SendRequest {
            outcome: SendOutcome::Done { completion },
        })
    }

    /// Complete a batch of requests in *posted order* and collect their
    /// outputs.
    ///
    /// Determinism of the completion order: each `wait` is a pure
    /// function of the rank's virtual state (clock, mailbox contents
    /// ordered by per-sender FIFO, static fault plan), so completing the
    /// vector front-to-back yields the same clocks and payloads on every
    /// host schedule. Posted order is also the order MPI guarantees
    /// non-overtaking for, so `waitall(v)` is equivalent to waiting each
    /// element in sequence — there is no reordering a "first completed"
    /// policy could exploit that would not break reproducibility.
    ///
    /// On the first error the remaining requests are dropped: unmatched
    /// receives are only matching criteria (nothing leaks), and a dropped
    /// send request only abandons its deferred charge, which the failed
    /// run no longer accounts anyway.
    pub fn waitall<R: MpiRequest>(&mut self, reqs: Vec<R>) -> Result<Vec<R::Output>, PsmpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            out.push(r.wait(self)?);
        }
        Ok(out)
    }

    // ---- request engine ----

    /// The context id a target's communicator matches on, and the group
    /// its rank indexes: the remote group for an inter-communicator. The
    /// world is read in place, never cloned.
    fn route<'s>(&'s self, on: On<'s>) -> (CommId, &'s Group) {
        match on {
            On::World => (self.world.id, &self.world.group),
            On::Comm(c) => (c.id, &c.group),
            On::Inter(ic) => (ic.id, &ic.remote),
        }
    }

    /// Post half of every send: resolve the target, encode the payload
    /// once the target has checked out, run the fault clearance from the
    /// current clock *without* applying it, deposit the envelope (stamped
    /// at the clearance time) and hand back the deferred charge.
    fn post_send(
        &mut self,
        to: Target<'_>,
        tag: Tag,
        encode: impl FnOnce(&BufferPool) -> Payload,
    ) -> Result<SendRequest, PsmpiError> {
        let (comm, group) = self.route(to.on);
        let dst_ep = peer_endpoint(group, to.rank)?;
        let src_rank = match to.on {
            On::World => self.my_rank,
            On::Comm(c) => self.comm_rank(c)?,
            On::Inter(ic) => self.inter_local_rank(ic)?,
        };
        let Payload { bytes, wire_size } = encode(self.router.buffer_pool());
        let post = self.clock;
        let failed = |err, at| SendRequest {
            outcome: SendOutcome::Failed { err, at },
        };
        // Resolve the destination's routing record once, from this rank's
        // private cache; a self-send goes straight into our own mailbox
        // and never meets the fabric or its faults.
        let dst_entry = if dst_ep == self.endpoint {
            None
        } else {
            match self.entry_of(dst_ep) {
                Ok(e) => Some(e),
                Err(e) => {
                    self.router.buffer_pool().recycle(bytes);
                    return Ok(failed(e, post));
                }
            }
        };
        let cleared = match &dst_entry {
            None => post,
            Some(entry) => {
                let (t, err) = self.destination_clearance(entry.node(), post);
                if let Some(err) = err {
                    // The encode buffer never reached an envelope; reclaim
                    // it (a no-op if anyone else still holds a reference).
                    self.router.buffer_pool().recycle(bytes);
                    return Ok(failed(err, t));
                }
                t
            }
        };
        let size = wire_size.unwrap_or(bytes.len());
        let env = Envelope {
            comm,
            src_rank,
            tag,
            payload: bytes,
            send_stamp: cleared,
            src_endpoint: self.endpoint,
            seq: self.seq,
            virtual_size: wire_size,
        };
        self.seq += 1;
        self.bytes_sent += size as u64;
        self.msgs_sent += 1;
        if let Some(track) = &self.obs {
            track.add("bytes_sent", size as u64);
            track.add("msgs_sent", 1);
        }
        match dst_entry {
            None => self.mailbox.push(env),
            Some(entry) => entry.mailbox().push(env),
        }
        Ok(SendRequest {
            outcome: SendOutcome::Done {
                completion: cleared + self.node.nic_send_overhead,
            },
        })
    }

    /// Apply a posted send's deferred charge: advance the clock to the
    /// completion timestamp (never backwards) and surface any deferred
    /// fault, stamping the span `spans` asks for.
    fn complete_send(&mut self, outcome: SendOutcome, spans: Spans) -> Result<(), PsmpiError> {
        let pre = self.clock;
        let (upto, res) = match outcome {
            SendOutcome::Done { completion } => (completion, Ok(())),
            SendOutcome::Failed { err, at } => (at, Err(err)),
        };
        self.clock = self.clock.max(upto);
        self.comm_time += self.clock - pre;
        if let Some(track) = &self.obs {
            match spans {
                Spans::Blocking if res.is_ok() => {
                    track.span(obs::Category::Send, "send", pre, self.clock);
                }
                Spans::Wait if self.clock > pre => {
                    track.span(obs::Category::Wait, "wait-send", pre, self.clock);
                }
                _ => {}
            }
        }
        res
    }

    /// Sender-side fault checks, consulted before a remote injection, as
    /// a pure clock transform: starting at `start`, walk the retry/backoff
    /// schedule against the static plan and return the virtual time at
    /// which the fabric accepts the injection — or the error plus the
    /// time at which the sender gives up. The charge lands on the clock
    /// when the send completes.
    ///
    /// Determinism: the node check reads only the *static* fault plan (plus
    /// the repairs map, quiescent while ranks run) against the sender's own
    /// virtual clock — never the dynamic dead set, whose update timing
    /// depends on host scheduling. The retry/backoff loop is equally a
    /// pure function of the plan and the clock.
    fn destination_clearance(
        &self,
        dst_node: NodeId,
        start: SimTime,
    ) -> (SimTime, Option<PsmpiError>) {
        let Some(plan) = self.fault_plan.as_deref() else {
            return (start, None);
        };
        let mut clock = start;
        if let Some(at) = self.router.planned_dead(dst_node, clock) {
            return (clock, Some(PsmpiError::NodeFailed { node: dst_node, at }));
        }
        if plan.link_fault_at(self.node_id, dst_node, clock).is_some() {
            let policy = self.router.retry_policy();
            let mut backoff = policy.base_backoff;
            let mut tries = 0u32;
            while plan.link_fault_at(self.node_id, dst_node, clock).is_some() {
                if clock - start >= policy.give_up_after {
                    return (
                        clock,
                        Some(PsmpiError::Timeout {
                            waited: clock - start,
                        }),
                    );
                }
                if tries >= policy.max_retries {
                    return (
                        clock,
                        Some(PsmpiError::LinkDown {
                            src: self.node_id,
                            dst: dst_node,
                            at: clock,
                        }),
                    );
                }
                clock += backoff;
                backoff = backoff * 2.0;
                tries += 1;
            }
            // The destination may have died while we were backing off.
            if let Some(at) = self.router.planned_dead(dst_node, clock) {
                return (clock, Some(PsmpiError::NodeFailed { node: dst_node, at }));
            }
        }
        (clock, None)
    }

    /// Receive half of every receive: match in the mailbox (aborting if
    /// the awaited sender's node dies or a revoke marker arrives), advance
    /// the clock to the modelled arrival and stamp the span `spans` asks
    /// for. Blocking receives stamp `Recv`/"recv", request completions
    /// stamp `Wait`/"wait-recv" *instead* (not around it — a `Wait` span
    /// wrapping a `Recv` span would get zero exclusive time under the
    /// profile's innermost-cover attribution).
    fn complete_recv(
        &mut self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<Tag>,
        src_ep: Option<EndpointId>,
        spans: Spans,
    ) -> Result<(Bytes, Status), PsmpiError> {
        let (cat, name, abort_name) = match spans {
            Spans::Blocking => (obs::Category::Recv, "recv", "recv-aborted"),
            Spans::Wait => (obs::Category::Wait, "wait-recv", "wait-aborted"),
        };
        let pre = self.clock;
        // Resolve the watched sender's node up front so the abort closure
        // only consults the lock-free `any_dead` screen, never the endpoint
        // table. An unknown endpoint maps to "nothing to watch", matching
        // the old `dead_node_of` behaviour.
        let src_node = src_ep.and_then(|ep| self.entry_of(ep).ok().map(|e| e.node()));
        let router = &self.router;
        let env = match self.mailbox.recv_match_abortable(comm, src, tag, || {
            src_node.and_then(|n| router.dead_time_of(n).map(|at| (n, at)))
        }) {
            Ok(env) => env,
            Err(abort) => {
                let (node, at) = match abort {
                    RecvAbort::Dead(node, at) => (node, at),
                    RecvAbort::Revoked(marker) => {
                        decode_revoke_marker(&marker).ok_or_else(|| {
                            PsmpiError::Codec(CodecError("malformed revoke marker".into()))
                        })?
                    }
                };
                // The receiver learns of the death no earlier than it
                // happened; aligning the clock keeps recovery timing a
                // function of the plan alone.
                self.clock = self.clock.max(at);
                self.comm_time += self.clock - pre;
                if let Some(track) = &self.obs {
                    track.span(cat, abort_name, pre, self.clock);
                }
                return Err(PsmpiError::NodeFailed { node, at });
            }
        };
        if env.src_endpoint == self.endpoint {
            // Self-receive: the message never touched the fabric — no
            // loopback transfer time, no incast queueing, no trace entry,
            // no obs edge (a self-send can never block: its stamp is in
            // the receiver's past). The clock only respects causality
            // with the send.
            self.clock = self.clock.max(env.send_stamp);
        } else {
            let src_node = self.entry_of(env.src_endpoint)?.node();
            let transfer =
                self.router
                    .transfer_time_nodes(src_node, self.node_id, env.wire_size())?;
            let arrival = self.router.incast_adjust(
                &self.self_entry,
                env.send_stamp + transfer,
                env.wire_size(),
            );
            self.clock = self.clock.max(arrival);
            self.router.trace_delivery(
                src_node,
                self.node_id,
                env.wire_size(),
                env.send_stamp,
                arrival,
            );
            if let Some(track) = &self.obs {
                // The dependency edge the critical-path walk follows.
                track.edge(
                    env.src_endpoint.0,
                    env.send_stamp,
                    pre,
                    self.clock,
                    env.wire_size() as u64,
                );
            }
        }
        self.comm_time += self.clock - pre;
        if let Some(track) = &self.obs {
            track.span(cat, name, pre, self.clock);
        }
        let st = Status {
            source: env.src_rank,
            tag: env.tag,
            bytes: env.payload.len(),
            arrival: self.clock,
        };
        Ok((env.payload, st))
    }

    // ---- fault protocol ----

    /// Whether the static fault plan kills this rank's node in the window
    /// `(after, upto]`. This is the victim's own step-granularity check:
    /// call it with the step's start/end clocks, then [`Rank::fail_here`]
    /// and return from the rank function.
    pub fn planned_fault_in(&self, after: SimTime, upto: SimTime) -> Option<SimTime> {
        self.router
            .fabric()
            .fault_plan()?
            .node_fault_in(self.node_id, after, upto)
    }

    /// Die: declare this rank's node down as of virtual time `at` and wake
    /// every blocked receiver. Call *after* the last send this rank will
    /// ever make — the deposit-before-declare order on this thread is what
    /// makes every peer's match-vs-abort decision deterministic. The rank
    /// function should return immediately afterwards.
    pub fn fail_here(&mut self, at: SimTime) {
        self.clock = self.clock.max(at);
        if let Some(track) = &self.obs {
            track.span(obs::Category::Failure, "node-failure", at, self.clock);
        }
        self.router.declare_down(self.node_id, at);
    }

    /// Repair `node` at virtual time `at` (supervisor-side, between child
    /// worlds): clears the death declaration and marks planned faults up to
    /// `at` as spent so the respawned world can talk to the node again.
    pub fn repair_node(&self, node: NodeId, at: SimTime) {
        self.router.repair(node, at);
    }

    /// Deposit a revoke marker for `(node, at)` to every other member of
    /// `comm`: after observing a failure, an aborting rank calls this so
    /// peers blocked on *it* (not on the victim) unblock too — the abort
    /// chain resolves transitively. Markers ride the ordinary mailbox
    /// channel, so each peer sees this rank's real messages before the
    /// marker, and are peeked rather than consumed, so one marker serves
    /// every later receive. Delivery to already-dead endpoints is a no-op.
    pub fn revoke_comm(&mut self, comm: &Communicator, node: NodeId, at: SimTime) {
        let Some(me) = comm.group.rank_of(self.endpoint) else {
            return;
        };
        for (r, &ep) in comm.group.endpoints.iter().enumerate() {
            if r == me {
                continue;
            }
            let env = Envelope {
                comm: comm.id,
                src_rank: me,
                tag: TAG_REVOKED,
                payload: encode_revoke_marker(node, at),
                send_stamp: self.clock,
                src_endpoint: self.endpoint,
                seq: self.seq,
                virtual_size: None,
            };
            let _ = self.router.deliver(ep, env);
        }
    }

    /// [`Rank::revoke_comm`] toward the remote group of an
    /// inter-communicator (e.g. a child world notifying its parent).
    pub fn revoke_inter(&mut self, ic: &Intercomm, node: NodeId, at: SimTime) {
        let Some(me) = ic.local.rank_of(self.endpoint) else {
            return;
        };
        for &ep in ic.remote.endpoints.iter() {
            let env = Envelope {
                comm: ic.id,
                src_rank: me,
                tag: TAG_REVOKED,
                payload: encode_revoke_marker(node, at),
                send_stamp: self.clock,
                src_endpoint: self.endpoint,
                seq: self.seq,
                virtual_size: None,
            };
            let _ = self.router.deliver(ep, env);
        }
    }

    /// Finalize: build the outcome record. Called by the runtime when the
    /// rank function returns.
    pub(crate) fn into_outcome(self) -> crate::router::RankOutcome {
        if let Some(track) = &self.obs {
            track.set_final(self.clock);
        }
        // Energy accrues only while the rank exists (a spawned child's node
        // is not part of the job before the spawn).
        let wall = self.clock - self.start_clock;
        let energy_joules = hwmodel::power::energy_joules(&self.node, wall, self.compute_time);
        crate::router::RankOutcome {
            world: self.world.id,
            rank: self.my_rank,
            node: self.node_id,
            clock: self.clock,
            bytes_sent: self.bytes_sent,
            msgs_sent: self.msgs_sent,
            compute_time: self.compute_time,
            comm_time: self.comm_time,
            energy_joules,
        }
    }
}

/// The endpoint of rank `rank` in `group`, range-checked: the one check
/// every target kind goes through.
fn peer_endpoint(group: &Group, rank: usize) -> Result<EndpointId, PsmpiError> {
    group
        .endpoints
        .get(rank)
        .copied()
        .ok_or(PsmpiError::InvalidRank {
            rank,
            size: group.len(),
        })
}
