//! The ground-truth correctness oracle.
//!
//! The paper validates its scheme by checking the aggregate count. This
//! oracle is stronger: it tracks every +1/−1 the protocol attributes to
//! every individual vehicle — direct phase-5 counts, border interaction
//! counts, overtake adjustments, and lossy-handoff compensations — and at
//! convergence asserts the per-vehicle invariant behind Theorems 1/2 and
//! Corollaries 1/2:
//!
//! * a matching civilian **inside** the region has net attribution **1**
//!   (counted exactly once),
//! * a matching civilian **outside** has net attribution **0** (its entry
//!   and exit cancelled, or it was never counted),
//!
//! which implies the aggregate check `Σ_u c(u) (+ interaction) == inside
//! population` but also catches compensating-error pairs the aggregate
//! would miss.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vcount_v2x::VehicleId;

/// Why an attribution was recorded (kept for diagnostics and error
/// reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Attribution {
    /// Phase-5 count at a checkpoint.
    Counted,
    /// Inbound interaction (+1) at a border checkpoint.
    InteractionIn,
    /// Outbound interaction (−1) at a border checkpoint.
    InteractionOut,
    /// Overtake adjustment +1 (fell behind a label).
    AdjustPlus,
    /// Overtake adjustment −1 (jumped ahead of a label).
    AdjustMinus,
    /// Lossy handoff compensation −1 (Alg. 3 line 3).
    LossCompensation,
}

impl Attribution {
    /// The attribution's code in a snapshot's [`LedgerTable`]: `Counted`
    /// 0, `InteractionIn` 1, `InteractionOut` 2, `AdjustPlus` 3,
    /// `AdjustMinus` 4, `LossCompensation` 5.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The attribution whose [`Attribution::code`] is `code`, or `None`
    /// past 5.
    pub fn from_code(code: u8) -> Option<Self> {
        use Attribution::*;
        let all = [
            Counted,
            InteractionIn,
            InteractionOut,
            AdjustPlus,
            AdjustMinus,
            LossCompensation,
        ];
        all.get(usize::from(code)).copied()
    }

    /// The counter delta this attribution carries.
    pub fn delta(self) -> i64 {
        match self {
            Attribution::Counted | Attribution::InteractionIn | Attribution::AdjustPlus => 1,
            Attribution::InteractionOut
            | Attribution::AdjustMinus
            | Attribution::LossCompensation => -1,
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The vehicle whose ledger is wrong.
    pub vehicle: VehicleId,
    /// Net attribution found.
    pub net: i64,
    /// Net attribution expected (1 inside, 0 outside).
    pub expected: i64,
    /// The ledger entries, in order.
    pub history: Vec<Attribution>,
}

/// The attribution ledger.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    ledger: BTreeMap<VehicleId, Vec<Attribution>>,
}

/// The attribution ledger as a snapshot stores it, in two columns: how
/// many attributions each vehicle of the population holds, and every
/// attribution's code, vehicle by vehicle in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerTable {
    /// Per vehicle: its number of attributions.
    pub len: Vec<u32>,
    /// Each attribution's [`Attribution::code`].
    pub code: Vec<u8>,
}

impl Oracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger as a snapshot stores it, over a population of
    /// `population` vehicles (every vehicle it names is one of them).
    pub fn table(&self, population: usize) -> LedgerTable {
        let mut t = LedgerTable {
            len: vec![0; population],
            code: Vec::new(),
        };
        for (v, history) in &self.ledger {
            t.len[v.index()] = history.len() as u32;
            t.code.extend(history.iter().map(|a| a.code()));
        }
        t
    }

    /// Rebuilds an oracle from a snapshot's ledger over a population of
    /// `population` vehicles. Refused: a `len` column that is not one
    /// entry per vehicle, lengths that do not sum to the `code` column's,
    /// and an unknown code.
    pub fn from_table(table: &LedgerTable, population: usize) -> Result<Self, String> {
        if table.len.len() != population {
            return Err(format!(
                "ledger len has {} entries for the {population} vehicles",
                table.len.len()
            ));
        }
        let total: u64 = table.len.iter().map(|&n| u64::from(n)).sum();
        if total != table.code.len() as u64 {
            return Err(format!(
                "ledger len sums to {total} attributions, ledger code has {}",
                table.code.len()
            ));
        }
        let mut codes = table.code.iter().enumerate();
        let mut ledger = BTreeMap::new();
        for (v, &n) in table.len.iter().enumerate().filter(|(_, &n)| n > 0) {
            let history = codes.by_ref().take(n as usize).map(|(i, &code)| {
                Attribution::from_code(code)
                    .ok_or_else(|| format!("ledger code[{i}] = {code} is not an attribution code"))
            });
            ledger.insert(VehicleId(v as u64), history.collect::<Result<_, _>>()?);
        }
        Ok(Oracle { ledger })
    }

    /// Records one attribution for `vehicle`.
    pub fn record(&mut self, vehicle: VehicleId, a: Attribution) {
        self.ledger.entry(vehicle).or_default().push(a);
    }

    /// Net attribution of a vehicle so far.
    pub fn net(&self, vehicle: VehicleId) -> i64 {
        self.ledger
            .get(&vehicle)
            .map(|h| h.iter().map(|a| a.delta()).sum())
            .unwrap_or(0)
    }

    /// Whether the vehicle has ever received a direct count (phase 5 or
    /// interaction-in). Used by the per-event adjustment ablation.
    pub fn ever_counted(&self, vehicle: VehicleId) -> bool {
        self.ledger.get(&vehicle).is_some_and(|h| {
            h.iter()
                .any(|a| matches!(a, Attribution::Counted | Attribution::InteractionIn))
        })
    }

    /// Sum of net attributions over all vehicles — must equal the
    /// protocol's aggregate count.
    pub fn total(&self) -> i64 {
        self.ledger.keys().map(|v| self.net(*v)).sum()
    }

    /// Final verification: `population` maps every matching civilian that
    /// ever existed to whether it is currently inside the region. Returns
    /// all per-vehicle violations (empty = Theorems 1/2 hold on this run).
    pub fn verify(
        &self,
        population: impl IntoIterator<Item = (VehicleId, bool)>,
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (vehicle, inside) in population {
            let expected = i64::from(inside);
            let net = self.net(vehicle);
            if net != expected {
                violations.push(Violation {
                    vehicle,
                    net,
                    expected,
                    history: self.ledger.get(&vehicle).cloned().unwrap_or_default(),
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: VehicleId = VehicleId(1);

    #[test]
    fn clean_single_count_passes() {
        let mut o = Oracle::new();
        o.record(V, Attribution::Counted);
        assert!(o.verify([(V, true)]).is_empty());
        assert_eq!(o.total(), 1);
    }

    #[test]
    fn uncounted_inside_vehicle_is_a_miscount() {
        let o = Oracle::new();
        let v = o.verify([(V, true)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].net, 0);
        assert_eq!(v[0].expected, 1);
    }

    #[test]
    fn double_count_is_flagged() {
        let mut o = Oracle::new();
        o.record(V, Attribution::Counted);
        o.record(V, Attribution::Counted);
        assert_eq!(o.verify([(V, true)]).len(), 1);
    }

    #[test]
    fn compensated_double_count_passes() {
        // Failed handoff: count, −1 compensation, second count downstream.
        let mut o = Oracle::new();
        o.record(V, Attribution::Counted);
        o.record(V, Attribution::LossCompensation);
        o.record(V, Attribution::Counted);
        assert!(o.verify([(V, true)]).is_empty());
    }

    #[test]
    fn entered_and_left_open_system_nets_zero() {
        let mut o = Oracle::new();
        o.record(V, Attribution::InteractionIn);
        o.record(V, Attribution::InteractionOut);
        assert!(o.verify([(V, false)]).is_empty());
    }

    #[test]
    fn overtake_adjustments_balance() {
        // Fell behind a label after being counted-and-compensated.
        let mut o = Oracle::new();
        o.record(V, Attribution::Counted);
        o.record(V, Attribution::LossCompensation);
        o.record(V, Attribution::AdjustPlus);
        assert!(o.verify([(V, true)]).is_empty());
    }

    #[test]
    fn never_seen_vehicle_outside_is_fine() {
        let o = Oracle::new();
        assert!(o.verify([(V, false)]).is_empty());
        assert!(!o.ever_counted(V));
    }
}
