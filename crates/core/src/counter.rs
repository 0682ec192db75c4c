//! Checkpoint counters — the local view `c(u)` of Table I, split into the
//! components the extensions adjust.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vcount_roadnet::EdgeId;

/// All counter state of one checkpoint. Plain data, like the
/// [`crate::CheckpointState`] that holds it: a snapshot's checkpoint table
/// stores each field in a column.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// `c(u, v)` — raw phase-5 counts per inbound direction; a direction
    /// nothing was counted on has no entry (never a zero).
    pub per_inbound: BTreeMap<EdgeId, u64>,
    /// Net overtake corrections (Alg. 3 lines 5–8), may be negative.
    pub overtake_adjust: i64,
    /// −1 per failed label handoff (Alg. 3 line 3).
    pub loss_compensation: u64,
    /// +1 per vehicle entering from outside at this border checkpoint
    /// (Alg. 5, inbound interaction). Never stops.
    pub interaction_in: u64,
    /// +1 per vehicle leaving to the outside here (applied as −1 to the
    /// population view). Never stops.
    pub interaction_out: u64,
}

impl Counters {
    /// Increments `c(u, via)` for a phase-5 count.
    pub fn count_inbound(&mut self, via: EdgeId) {
        *self.per_inbound.entry(via).or_insert(0) += 1;
    }

    /// Raw count of one inbound direction.
    pub fn inbound(&self, via: EdgeId) -> u64 {
        self.per_inbound.get(&via).copied().unwrap_or(0)
    }

    /// Applies a net overtake adjustment.
    pub fn adjust_overtake(&mut self, delta: i64) {
        self.overtake_adjust += delta;
    }

    /// Records one failed label handoff (−1 compensation).
    pub fn compensate_loss(&mut self) {
        self.loss_compensation += 1;
    }

    /// Records an inbound interaction (+1).
    pub fn count_interaction_in(&mut self) {
        self.interaction_in += 1;
    }

    /// Records an outbound interaction (−1 to the population view).
    pub fn count_interaction_out(&mut self) {
        self.interaction_out += 1;
    }

    /// The stabilizable non-interaction local count:
    /// `Σ_v c(u,v) + overtake adjustments − loss compensations`.
    pub fn local_count(&self) -> i64 {
        let raw: u64 = self.per_inbound.values().sum();
        raw as i64 + self.overtake_adjust - self.loss_compensation as i64
    }

    /// Net interaction contribution to the live population
    /// (`in − out`; Alg. 5).
    pub fn interaction_net(&self) -> i64 {
        self.interaction_in as i64 - self.interaction_out as i64
    }

    /// Total overtake adjustment applied so far.
    pub fn overtake_total(&self) -> i64 {
        self.overtake_adjust
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_count_combines_components() {
        let mut c = Counters::default();
        c.count_inbound(EdgeId(0));
        c.count_inbound(EdgeId(0));
        c.count_inbound(EdgeId(1));
        assert_eq!(c.inbound(EdgeId(0)), 2);
        assert_eq!(c.inbound(EdgeId(1)), 1);
        assert_eq!(c.local_count(), 3);
        c.adjust_overtake(2);
        c.adjust_overtake(-1);
        assert_eq!(c.local_count(), 4);
        c.compensate_loss();
        assert_eq!(c.local_count(), 3);
        assert_eq!(c.overtake_total(), 1);
    }

    #[test]
    fn interaction_is_separate_from_local_count() {
        let mut c = Counters::default();
        c.count_interaction_in();
        c.count_interaction_in();
        c.count_interaction_out();
        assert_eq!(c.local_count(), 0);
        assert_eq!(c.interaction_net(), 1);
    }

    #[test]
    fn local_count_can_go_negative_transiently() {
        let mut c = Counters::default();
        c.compensate_loss();
        assert_eq!(c.local_count(), -1);
    }

    #[test]
    fn unknown_edge_counts_zero() {
        let c = Counters::default();
        assert_eq!(c.inbound(EdgeId(9)), 0);
    }
}
