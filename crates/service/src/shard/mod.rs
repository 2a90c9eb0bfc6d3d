//! Shard-by-paper scale-out: one scatter-gather [`Router`] in front of
//! shards that are each a plain server over a slice of the papers.
//!
//! # Why papers are the shard key
//!
//! Everything per-paper in the engine is self-contained: candidate lists,
//! CSR rows, COI masks and the result-cache key all hang off one paper id,
//! and no score ever crosses papers. Reviewers, by contrast, are global —
//! every paper may draw from the whole pool. The plan therefore partitions
//! **papers into contiguous ranges** ([`ShardPlan`]) and **replicates the
//! reviewer pool** on every shard. A shard is then a complete, valid
//! sub-instance: the same reviewers, a slice of the papers, the same
//! `δp`/`δr`. Because a JRA query targets exactly one paper, routing it to
//! the owning shard reproduces the unsharded solve *bit for bit* — same
//! candidate row, same forbidden mask, same branch-and-bound trace — so
//! the router forwards request lines and returns the shard's reply bytes.
//!
//! # Module map
//!
//! * [`plan`] — [`ShardPlan`]: contiguous paper ranges and sub-instance
//!   construction (`wgrap shard` writes one file per range).
//! * [`router`] — [`Router`]: the [`Backend`](crate::server::Backend)
//!   behind `wgrap serve --router`. Its shards are [`Link`]s: shard
//!   processes over TCP, or in-process front-ends called through the same
//!   wire layer. An unreachable shard degrades to a structured
//!   `"shard_down"` error.
//! * [`merge`] — the cross-shard capacity-reconciliation pass behind
//!   the router's `assign`.

pub mod merge;
pub mod plan;
pub mod router;

pub use plan::ShardPlan;
pub use router::{Link, Router};
