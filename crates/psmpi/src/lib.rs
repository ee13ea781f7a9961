//! # psmpi — a ParaStation-MPI-like message-passing runtime
//!
//! The DEEP projects run a *global heterogeneous MPI* (ParaStation MPI)
//! across Cluster and Booster: programs may run entirely inside one module,
//! or span both, and the MPI-2 `MPI_Comm_spawn` call implements the offload
//! mechanism — a group of processes on one module collectively spawns a
//! child world on the other module and talks to it through an
//! inter-communicator (paper §III-A, Fig. 4).
//!
//! This crate reimplements that model in Rust:
//!
//! * every rank is a real OS thread; payloads really move (as [`bytes::Bytes`])
//!   through a matching engine with MPI semantics (communicator + tag +
//!   source matching, wildcards, FIFO per pair);
//! * point-to-point ([`Rank::send`]/[`Rank::recv`] and the nonblocking
//!   [`Rank::isend`]/[`Rank::irecv`]/[`MpiRequest::wait`], plus raw-`Bytes`
//!   and POD-slice forms of each), addressed by one [`Target`] — a world
//!   rank, a communicator rank or an inter-communicator remote rank — and
//!   the usual collectives (implemented as real binomial-tree / pairwise
//!   algorithms on top of point-to-point, exactly like an MPI library);
//! * [`Rank::spawn`] — the offload call: collectively starts a child world
//!   on a chosen set of nodes and returns an [`Intercomm`], while the
//!   children find their parent via [`Rank::parent`];
//! * **virtual time**: each rank carries a virtual clock; compute is charged
//!   through the `hwmodel` cost model ([`Rank::compute`]) and every message
//!   carries a timestamp so that receive clocks advance by the `simnet`
//!   fabric model. A job's virtual runtime is the maximum final clock over
//!   its ranks ([`JobReport`]). This is how the reproduction predicts the
//!   DEEP-ER prototype's performance (Figs. 3, 7, 8) while the application
//!   code really executes.
//!
//! ## Quick example
//!
//! ```
//! use psmpi::UniverseBuilder;
//! use hwmodel::presets::deep_er_cluster_node;
//!
//! let report = UniverseBuilder::new()
//!     .add_nodes(2, &deep_er_cluster_node())
//!     .run(|rank| {
//!         if rank.rank() == 0 {
//!             rank.send(1, 7, &vec![1.0f64, 2.0]).unwrap();
//!         } else {
//!             let (v, _st) = rank.recv::<Vec<f64>>(Some(0), Some(7)).unwrap();
//!             assert_eq!(v, vec![1.0, 2.0]);
//!         }
//!     });
//! assert!(report.makespan().as_secs() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod collectives_ext;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod lockcheck;
pub mod pingpong;
pub mod pool;
pub mod rank;
pub mod router;
pub mod spawn;
pub mod universe;

pub use comm::{CommId, Communicator, Intercomm};
pub use datatype::{FixedWidth, MpiDatatype, Raw, ReduceOp};
pub use envelope::{Envelope, Status, Tag, ANY_SOURCE, ANY_TAG, TAG_REVOKED};
pub use pool::{BufferPool, PoolStats, DEFAULT_MAX_POOLED_BUFFERS};
pub use rank::{
    MpiRequest, Payload, PsmpiError, Rank, RecvIntoRequest, RecvRequest, SendRequest, Target,
    TypedRecvRequest,
};
pub use router::{RecvAbort, RetryPolicy};

/// MPI-flavoured alias for [`PsmpiError`]: the typed error surface a dead
/// node, downed link or exhausted retry budget shows up as.
pub use rank::PsmpiError as MpiError;
pub use universe::{JobReport, Universe, UniverseBuilder};
