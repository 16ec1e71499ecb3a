//! Branch prediction for the out-of-order core.
//!
//! The paper's core uses an LTAGE predictor with a 4096-entry BTB and a
//! 16-entry return address stack (Table 1). This crate implements that
//! family: a TAGE direction predictor ([`Tage`]) with a bimodal base table
//! and four tagged geometric-history tables, a loop predictor
//! ([`LoopPredictor`]) layered on top as in LTAGE, a branch target buffer
//! ([`Btb`]), and a checkpointable return address stack ([`Ras`]).
//!
//! [`BranchPredictor`] composes all four behind the interface the fetch
//! stage uses: predict a direction and target, speculatively update
//! history, and repair on squash from a [`Checkpoint`].
//!
//! # Examples
//!
//! ```
//! use pl_predictor::BranchPredictor;
//! use pl_isa::Pc;
//!
//! let mut bp = BranchPredictor::new(4096, 16);
//! let pc = Pc(100);
//! let (pred, ckpt) = bp.predict_cond(pc);
//! // ... branch resolves taken ...
//! bp.update_cond(pc, true, pred, &ckpt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod loop_pred;
pub mod ras;
pub mod tage;

pub use btb::Btb;
pub use loop_pred::LoopPredictor;
pub use ras::Ras;
pub use tage::{Tage, TagePrediction};

use pl_isa::Pc;

/// Snapshot of speculative predictor state taken at prediction time and
/// restored on a squash.
///
/// Contains the global history register and the full RAS image. Cheap to
/// copy (the RAS has 16 entries), so every in-flight control instruction
/// can carry one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Global branch history register at prediction time.
    pub ghr: u64,
    /// Return-address-stack snapshot.
    pub ras: Ras,
}

/// The composed LTAGE-class branch predictor.
///
/// Owns the TAGE tables, loop predictor, BTB, RAS, and the speculative
/// global history register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    tage: Tage,
    loop_pred: LoopPredictor,
    btb: Btb,
    ras: Ras,
    ghr: u64,
}

impl BranchPredictor {
    /// Creates a predictor with the given BTB and RAS capacities.
    ///
    /// # Panics
    ///
    /// Panics if `btb_entries` is zero or not a power of two, or if
    /// `ras_entries` is zero.
    pub fn new(btb_entries: usize, ras_entries: usize) -> BranchPredictor {
        BranchPredictor {
            tage: Tage::default_tables(),
            loop_pred: LoopPredictor::new(64),
            btb: Btb::new(btb_entries),
            ras: Ras::new(ras_entries),
            ghr: 0,
        }
    }

    /// Predicts the direction of the conditional branch at `pc` and
    /// speculatively updates the global history.
    ///
    /// Returns the prediction and a [`Checkpoint`] capturing pre-update
    /// state, to be restored if this branch (or an older instruction)
    /// squashes.
    pub fn predict_cond(&mut self, pc: Pc) -> (bool, Checkpoint) {
        let ckpt = self.checkpoint();
        let tage_pred = self.tage.predict(pc, self.ghr);
        let pred = match self.loop_pred.predict(pc) {
            Some(loop_taken) => loop_taken,
            None => tage_pred.taken,
        };
        self.ghr = (self.ghr << 1) | u64::from(pred);
        (pred, ckpt)
    }

    /// Trains the predictor when the conditional branch at `pc` resolves.
    ///
    /// `predicted` is the direction returned by [`predict_cond`]; `ckpt`
    /// is the checkpoint taken then (its `ghr` field reflects pre-branch
    /// history, which TAGE needs for correct index recomputation).
    ///
    /// [`predict_cond`]: BranchPredictor::predict_cond
    pub fn update_cond(&mut self, pc: Pc, taken: bool, predicted: bool, ckpt: &Checkpoint) {
        self.tage.update(pc, ckpt.ghr, taken, predicted);
        self.loop_pred.update(pc, taken);
    }

    /// Predicts the target of the control instruction at `pc` from the
    /// BTB, or `None` on a BTB miss.
    pub fn predict_target(&self, pc: Pc) -> Option<Pc> {
        self.btb.lookup(pc)
    }

    /// Installs or refreshes a BTB entry after a control instruction
    /// resolves.
    pub fn update_target(&mut self, pc: Pc, target: Pc) {
        self.btb.insert(pc, target);
    }

    /// Pushes a return address for a call at fetch time.
    pub fn push_return(&mut self, return_to: Pc) {
        self.ras.push(return_to);
    }

    /// Pops the predicted return target for a `ret` at fetch time.
    pub fn pop_return(&mut self) -> Option<Pc> {
        self.ras.pop()
    }

    /// Captures the current speculative state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            ghr: self.ghr,
            ras: self.ras.clone(),
        }
    }

    /// Restores speculative state after a squash, rewinding the global
    /// history register and the RAS to `ckpt`, then applying the actual
    /// outcome `resolved_taken` of the squashing branch (if it was a
    /// conditional branch) so post-recovery history is correct.
    pub fn recover(&mut self, ckpt: &Checkpoint, resolved_taken: Option<bool>) {
        self.ghr = ckpt.ghr;
        self.ras = ckpt.ras.clone();
        if let Some(taken) = resolved_taken {
            self.ghr = (self.ghr << 1) | u64::from(taken);
        }
    }

    /// Compares two boundary snapshots of the same predictor one spin
    /// period apart. Returns the loop-predictor replay deltas when the
    /// pair is spin-compatible — everything except unconfident loop trip
    /// counters must be *exactly* equal (a steady spin saturates TAGE
    /// counters and repeats the same 64-outcome history window, so any
    /// other difference means training has not settled yet).
    pub fn spin_delta(
        base: &BranchPredictor,
        probe: &BranchPredictor,
    ) -> Option<Vec<(usize, u32)>> {
        if base.tage != probe.tage
            || base.btb != probe.btb
            || base.ras != probe.ras
            || base.ghr != probe.ghr
        {
            return None;
        }
        LoopPredictor::spin_delta(&base.loop_pred, &probe.loop_pred)
    }

    /// Replays `k` spin periods' worth of the deltas returned by
    /// [`BranchPredictor::spin_delta`].
    pub fn spin_advance(&mut self, k: u64, deltas: &[(usize, u32)]) {
        self.loop_pred.spin_advance(k, deltas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_branch() {
        let mut bp = BranchPredictor::new(64, 4);
        let pc = Pc(10);
        let mut correct = 0;
        for _ in 0..200 {
            let (pred, ckpt) = bp.predict_cond(pc);
            if pred {
                correct += 1;
            }
            bp.update_cond(pc, true, pred, &ckpt);
        }
        assert!(correct > 180, "only {correct}/200 correct on always-taken");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = BranchPredictor::new(64, 4);
        let pc = Pc(20);
        let mut correct_late = 0;
        for i in 0..600 {
            let taken = i % 2 == 0;
            let (pred, ckpt) = bp.predict_cond(pc);
            if i >= 300 && pred == taken {
                correct_late += 1;
            }
            bp.update_cond(pc, taken, pred, &ckpt);
        }
        assert!(
            correct_late > 250,
            "only {correct_late}/300 correct on alternating"
        );
    }

    #[test]
    fn recover_rewinds_history_and_ras() {
        let mut bp = BranchPredictor::new(64, 4);
        bp.push_return(Pc(111));
        let (_, ckpt) = bp.predict_cond(Pc(1));
        // wrong-path activity
        bp.push_return(Pc(999));
        let _ = bp.predict_cond(Pc(2));
        bp.recover(&ckpt, Some(true));
        assert_eq!(bp.pop_return(), Some(Pc(111)));
        assert_eq!(bp.ghr & 1, 1, "resolved outcome appended to history");
    }

    #[test]
    fn btb_round_trip() {
        let mut bp = BranchPredictor::new(64, 4);
        assert_eq!(bp.predict_target(Pc(5)), None);
        bp.update_target(Pc(5), Pc(42));
        assert_eq!(bp.predict_target(Pc(5)), Some(Pc(42)));
    }

    /// One spin iteration: the backward branch at `pc` taken `takens`
    /// times, never exiting.
    fn spin_period(bp: &mut BranchPredictor, pc: Pc, takens: usize) {
        for _ in 0..takens {
            let (pred, ckpt) = bp.predict_cond(pc);
            bp.update_cond(pc, true, pred, &ckpt);
        }
    }

    #[test]
    fn spin_delta_replay_matches_live_training() {
        let mut bp = BranchPredictor::new(64, 4);
        let pc = Pc(40);
        // Teach the loop predictor a finite trip count first so the spin
        // phase has a live (but unconfident, post-reset) loop entry whose
        // taken counter grows every period.
        for _ in 0..6 {
            spin_period(&mut bp, pc, 3);
            let (pred, ckpt) = bp.predict_cond(pc);
            bp.update_cond(pc, false, pred, &ckpt);
        }
        // Warm up far past TAGE saturation and history fill.
        for _ in 0..200 {
            spin_period(&mut bp, pc, 2);
        }
        let base = bp.clone();
        spin_period(&mut bp, pc, 2);
        let deltas = BranchPredictor::spin_delta(&base, &bp)
            .expect("steady always-taken spin must be compatible");
        assert!(!deltas.is_empty(), "loop trip counter grows each period");
        // Replay 10 periods in bulk vs. live, from the same point.
        let mut live = bp.clone();
        for _ in 0..10 {
            spin_period(&mut live, pc, 2);
        }
        bp.spin_advance(10, &deltas);
        assert_eq!(bp, live);
    }

    #[test]
    fn spin_delta_rejects_diverged_state() {
        let mut bp = BranchPredictor::new(64, 4);
        for _ in 0..200 {
            spin_period(&mut bp, Pc(40), 3);
        }
        let base = bp.clone();
        // A mispredicted branch perturbs TAGE: incompatible.
        let (pred, ckpt) = bp.predict_cond(Pc(7777));
        bp.update_cond(Pc(7777), !pred, pred, &ckpt);
        assert!(BranchPredictor::spin_delta(&base, &bp).is_none());
    }
}
