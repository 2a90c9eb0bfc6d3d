//! # wgrap-service — WGRAP as a long-running assignment service
//!
//! The paper's JRA scenario is inherently *online*: journal queries arrive
//! one at a time against a standing reviewer pool, papers and reviewers
//! come and go, and a batch CRA run is an occasional heavyweight consumer
//! of the same data. This crate turns the one-shot
//! [`wgrap_core::engine`] into that service, in four layers:
//!
//! 1. **Versioned store** ([`store`]) — epoch-numbered copy-on-write
//!    snapshots over an owned [`ScoreContext`](wgrap_core::engine::ScoreContext)
//!    plus its untruncated candidate set. An [`Update`] batch (add paper,
//!    add reviewer, retire reviewer, patch scores) is applied
//!    *incrementally* — new papers extend the flat CSR paper view and get
//!    their candidate row through the topic → reviewers inverted index;
//!    reviewer changes splice exactly the affected candidate lists —
//!    and the result is proptested **bit-identical** to rebuilding from
//!    the final instance, for every scoring. The write path is two-phase:
//!    [`VersionedStore::begin_update`] builds off the read path,
//!    [`PendingUpdate::publish`] is a bare `Arc` swap — so admissions
//!    never wait on a build.
//! 2. **Typed request API** ([`api`]) — the one entry point everything
//!    else routes through: a [`SolveRequest`] plans into a [`Plan`]
//!    ([`Service::plan`]: admitted epoch, resolved solver and pruning,
//!    and a stable, hashable [`RequestKey`]) and executes to an
//!    [`Outcome`] (answer + epoch/cache/timing diagnostics). Planning runs
//!    every per-query JRA check, so a bad query fails before it takes a
//!    solve slot or probes the cache. Results go through a **per-epoch
//!    result cache** whose hits are bit-identical to cold solves and which
//!    every publish invalidates.
//! 3. **Query executor** ([`Service::execute_plan`]) — a plan runs against
//!    the snapshot it was admitted at, so a long solve never blocks
//!    updates and an update never changes an admitted answer. A JRA
//!    request's cache misses fan out on the engine's deterministic
//!    work-stealing substrate (`rayon` feature); positional writes keep a
//!    batch's answers bit-identical to one-at-a-time solves under any
//!    worker count.
//! 4. **Concurrent front-end** ([`frontend`] + [`server`]) — `wgrap
//!    serve`: newline-delimited JSON over stdin/stdout, plain `std::net`
//!    TCP (thread per connection), or a deterministic multi-session
//!    harness ([`serve_multi`]), exposing `jra`, `batch`, `update`,
//!    `assign` and `stats` in two protocol versions: v1 (byte-identical
//!    to the pre-`api` server, golden-tested) and v2 (`"v":2` —
//!    cache/key/loss diagnostics and stats counters). A [`Frontend`]
//!    adds admission control: every `jra`, `batch` and `assign` takes one
//!    solve slot through [`Frontend::permit`], with bounded in-flight
//!    solves, one bounded waiting room and structured `"busy"`
//!    rejections. The result cache is LRU-bounded
//!    ([`ServeOptions::cache_cap`]). The same
//!    wire layer serves the sharding [`Router`] (`wgrap serve --router`,
//!    see [`shard`]) through the [`Backend`] trait. See `src/README.md`
//!    for the migration guide and tuning flags.
//!
//! ```
//! use wgrap_core::prelude::*;
//! use wgrap_core::topic::TopicVector;
//! use wgrap_service::{Answer, PaperRef, Service, SolveRequest, Update};
//!
//! let inst = Instance::new(
//!     vec![TopicVector::new(vec![0.6, 0.4])],
//!     vec![TopicVector::new(vec![0.9, 0.1]), TopicVector::new(vec![0.2, 0.8])],
//!     1,
//!     2,
//! )?;
//! let service = Service::new(inst, Scoring::WeightedCoverage, 42);
//!
//! // An online query, planned (admitted and checked) at epoch 0 ...
//! let query = SolveRequest::jra(PaperRef::Adhoc(TopicVector::new(vec![0.1, 0.9])));
//! let plan = service.plan(&query);
//!
//! // ... an incremental update publishes epoch 1 ...
//! let update = SolveRequest::Update(vec![Update::AddReviewer {
//!     name: None,
//!     expertise: TopicVector::new(vec![0.1, 0.9]),
//! }]);
//! assert_eq!(service.execute(&update)?.diag.epoch, 1);
//!
//! // ... and the planned query still answers at the epoch it was admitted
//! // at, without the new reviewer 2 that would cover the paper fully.
//! let outcome = service.execute_plan(plan)?;
//! assert_eq!(outcome.diag.epoch, 0);
//! let Answer::Jra(answers) = &outcome.answer else { unreachable!() };
//! assert_eq!(answers[0].as_ref().unwrap().results[0].group, vec![1]);
//! # Ok::<(), wgrap_core::error::Error>(())
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod durable;
pub mod frontend;
pub mod json;
pub mod server;
pub mod shard;
pub mod store;
pub mod telemetry;
#[doc(hidden)]
pub mod testutil;

pub use api::{
    Answer, CraAnswer, Diagnostics, JraAnswer, JraSpec, Outcome, PaperRef, Plan, RequestKey,
    ServeOptions, Service, SolveRequest, StatsAnswer, UpdateAnswer,
};
pub use durable::{DurabilityStats, DurableOptions, FsyncPolicy, RecoveryInfo};
pub use frontend::{Frontend, FrontendCounters, FrontendOptions, JraOutcome};
pub use server::{
    serve_connection, serve_metrics, serve_multi, serve_stdio, serve_tcp, Backend, Protocol,
};
pub use shard::{Link, Router, ShardPlan};
pub use store::{PendingUpdate, Snapshot, StoreStats, Update, VersionedStore};
pub use telemetry::{MetricsSnapshot, Telemetry};
pub use wgrap_core::error::{Error, Result};
