//! Protocol configuration.

use serde::{Deserialize, Serialize};
use vcount_v2x::{AdjustMode, ClassFilter};

/// Which of the paper's algorithm stacks a checkpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProtocolVariant {
    /// Alg. 1 + Alg. 2: closed, simple road model (FIFO traffic,
    /// bidirectional segments, lossless exchanges).
    Simple,
    /// Alg. 3 + Alg. 4: closed system with overtakes, multi-lane, lossy
    /// communication, one-way streets, optional patrol support.
    #[default]
    Extended,
    /// Alg. 5 (+ Alg. 4 for collection): open road system with border
    /// interaction counting.
    Open,
}

impl ProtocolVariant {
    /// Whether border interaction counters are active in this variant.
    pub fn counts_interaction(self) -> bool {
        matches!(self, ProtocolVariant::Open)
    }
}

/// Per-checkpoint protocol options. One config is shared by every
/// checkpoint in a deployment ("everyone" model: each site runs the same
/// generic process).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Algorithm stack.
    pub variant: ProtocolVariant,
    /// Which vehicles to count (the specified-type extension); defaults to
    /// every civilian vehicle.
    pub filter: ClassFilter,
    /// Overtake-adjustment accounting mode (used by the harness when
    /// finalizing segment watches; recorded here so a deployment is fully
    /// described by one config value).
    pub adjust_mode: AdjustMode,
    /// Apply the −1 compensation of Alg. 3 line 3 on failed label
    /// handoffs. Disabling this is an ablation reproducing the
    /// double-counting the paper's lossy-communication extension exists to
    /// prevent.
    pub compensate_loss: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            variant: ProtocolVariant::Extended,
            filter: ClassFilter::ALL,
            adjust_mode: AdjustMode::NetInversion,
            compensate_loss: true,
        }
    }
}

impl CheckpointConfig {
    /// Convenience constructor for a variant with default options.
    pub fn for_variant(variant: ProtocolVariant) -> Self {
        CheckpointConfig {
            variant,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_open_counts_interaction() {
        assert!(!ProtocolVariant::Simple.counts_interaction());
        assert!(!ProtocolVariant::Extended.counts_interaction());
        assert!(ProtocolVariant::Open.counts_interaction());
    }

    #[test]
    fn default_config_is_extended_net_mode() {
        let c = CheckpointConfig::default();
        assert_eq!(c.variant, ProtocolVariant::Extended);
        assert_eq!(c.adjust_mode, AdjustMode::NetInversion);
        assert!(c.compensate_loss);
    }
}
