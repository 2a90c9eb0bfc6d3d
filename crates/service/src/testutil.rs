//! Shared test support for the `apply ≡ rebuild` contract — used by both
//! the in-crate unit tests and the integration proptests, so the bitwise
//! snapshot comparison and the reference update-replay exist exactly once —
//! and the round-trip timer the wire-framing tests share.
//! Hidden from docs; not part of the supported API surface.

use crate::store::{Snapshot, Update};
use crate::Result;
use std::time::{Duration, Instant};
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;

/// Replay `updates` on a plain [`Instance`] (the reference applier the
/// incremental path is certified against) and rebuild from scratch.
/// Mirrors [`VersionedStore::apply`](crate::VersionedStore::apply)'s
/// semantics — including rejecting the whole batch on the first invalid
/// update — but via full rebuilds.
pub fn reference_apply(
    inst: &Instance,
    scoring: Scoring,
    seed: u64,
    updates: &[Update],
) -> Result<Snapshot> {
    let mut inst = inst.clone();
    for u in updates {
        match u {
            Update::AddPaper { name, topics, coi } => {
                for &r in coi {
                    if r as usize >= inst.num_reviewers() {
                        return Err(crate::Error::InvalidInstance("coi out of range".into()));
                    }
                }
                let p = inst.push_paper(name.clone(), topics.clone())?;
                for &r in coi {
                    inst.add_coi(r as usize, p);
                }
            }
            Update::AddReviewer { name, expertise } => {
                inst.push_reviewer(name.clone(), expertise.clone())?;
            }
            Update::RetireReviewer { reviewer } => {
                inst.set_reviewer_vector(
                    *reviewer as usize,
                    TopicVector::zeros(inst.num_topics()),
                )?;
            }
            Update::PatchScores { reviewer, expertise } => {
                inst.set_reviewer_vector(*reviewer as usize, expertise.clone())?;
            }
        }
    }
    Ok(Snapshot::build(inst, scoring, seed))
}

/// Bitwise equality of every observable (and hidden-index) part of two
/// snapshots, epoch aside: flat rows, totals, CSR, candidate rows with
/// bounds and supports, COIs, and the inverted indexes. Panics with a
/// located message on the first divergence.
pub fn assert_snapshot_bit_eq(got: &Snapshot, want: &Snapshot) {
    let (gx, wx) = (got.ctx(), want.ctx());
    assert_eq!(gx.num_papers(), wx.num_papers());
    assert_eq!(gx.num_reviewers(), wx.num_reviewers());
    assert_eq!(gx.num_topics(), wx.num_topics());
    for r in 0..gx.num_reviewers() {
        for (t, (x, y)) in gx.reviewer_row(r).iter().zip(wx.reviewer_row(r)).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "reviewer {r} topic {t}");
        }
    }
    for p in 0..gx.num_papers() {
        for (x, y) in gx.paper_row(p).iter().zip(wx.paper_row(p)) {
            assert_eq!(x.to_bits(), y.to_bits(), "paper {p} row");
        }
        assert_eq!(gx.paper_total(p).to_bits(), wx.paper_total(p).to_bits(), "paper {p} total");
        assert_eq!(
            gx.paper_inv_total(p).to_bits(),
            wx.paper_inv_total(p).to_bits(),
            "paper {p} 1/total"
        );
        let ((gi, gv), (wi, wv)) = (gx.paper_sparse(p), wx.paper_sparse(p));
        assert_eq!(gi, wi, "paper {p} CSR topics");
        for (x, y) in gv.iter().zip(wv) {
            assert_eq!(x.to_bits(), y.to_bits(), "paper {p} CSR values");
        }
    }
    let (gc, wc) = (got.candidates(), want.candidates());
    assert_eq!(gc.num_papers(), wc.num_papers());
    assert_eq!(gc.num_reviewers(), wc.num_reviewers());
    for p in 0..gc.num_papers() {
        let ((grs, gss), (wrs, wss)) = (gc.candidates(p), wc.candidates(p));
        assert_eq!(grs, wrs, "paper {p} candidate ids");
        for (x, y) in gss.iter().zip(wss) {
            assert_eq!(x.to_bits(), y.to_bits(), "paper {p} candidate scores");
        }
        assert_eq!(gc.bound(p).to_bits(), wc.bound(p).to_bits(), "paper {p} bound");
        assert_eq!(gc.support(p), wc.support(p), "paper {p} support");
    }
    for r in 0..gx.num_reviewers() {
        for p in 0..gx.num_papers() {
            assert_eq!(got.instance().is_coi(r, p), want.instance().is_coi(r, p), "coi ({r},{p})");
        }
    }
    assert_eq!(got.indexes(), want.indexes(), "inverted indexes");
}

/// The median wall time of `n` sequential calls of `round_trip`.
pub fn median_time(n: usize, mut round_trip: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let start = Instant::now();
            round_trip();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[n / 2]
}
