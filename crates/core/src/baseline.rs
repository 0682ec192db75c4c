//! Baseline counters the paper argues against (Section II).
//!
//! Neither baseline synchronizes checkpoints, so both fail in exactly the
//! ways the paper predicts; the `ablation_baseline` bench quantifies the
//! error against the synchronized protocol.
//!
//! * [`NaiveIntervalCounter`] — every checkpoint independently counts every
//!   matching vehicle entering during an observation window. "Some vehicles
//!   might have traveled many sites and may have been counted multiple
//!   times, i.e., double-counting."
//! * [`ClassDedupCounter`] — a central aggregator deduplicates sightings by
//!   exterior characteristics (the image-recognition approach): vehicles of
//!   the same color/brand/type collapse into one, so it *undercounts*;
//!   "adopting image recognition to avoid double-counting is costly and
//!   cannot ensure 100% accuracy."

use serde::{Deserialize, Serialize};
use vcount_v2x::{ClassFilter, VehicleClass};

/// Independent per-checkpoint interval counting (double-counts).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NaiveIntervalCounter {
    filter: ClassFilter,
    total: u64,
}

impl NaiveIntervalCounter {
    /// Creates the baseline with a class filter.
    pub fn new(filter: ClassFilter) -> Self {
        NaiveIntervalCounter { filter, total: 0 }
    }

    /// Observes one vehicle entering any checkpoint.
    pub fn observe(&mut self, class: &VehicleClass) {
        if self.filter.matches(class) {
            self.total += 1;
        }
    }

    /// The (inflated) count.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Central dedup-by-appearance counting (undercounts on class collisions).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassDedupCounter {
    filter: ClassFilter,
    /// The [`VehicleClass::code`] of each class seen, ascending.
    seen: Vec<u8>,
}

impl ClassDedupCounter {
    /// Creates the baseline with a class filter.
    pub fn new(filter: ClassFilter) -> Self {
        ClassDedupCounter {
            filter,
            seen: Vec::new(),
        }
    }

    /// Observes one vehicle entering any checkpoint.
    pub fn observe(&mut self, class: &VehicleClass) {
        if self.filter.matches(class) {
            let code = class.code();
            if let Err(at) = self.seen.binary_search(&code) {
                self.seen.insert(at, code);
            }
        }
    }

    /// The (deflated) count of distinct appearances.
    pub fn total(&self) -> u64 {
        self.seen.len() as u64
    }

    /// The check of a counter from outside the process (a snapshot's):
    /// each seen entry is a class code, and the codes strictly ascend, so
    /// decoding then encoding is the identity.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(i) = self
            .seen
            .iter()
            .position(|&c| VehicleClass::from_code(c).is_none())
        {
            return Err(format!("seen[{i}] = {} is not a class code", self.seen[i]));
        }
        match self.seen.windows(2).position(|w| w[0] >= w[1]) {
            Some(i) => Err(format!("seen[{}] is out of order or listed twice", i + 1)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcount_v2x::{BodyType, Brand, Color};

    const CAR: VehicleClass = VehicleClass {
        color: Color::Red,
        brand: Brand::Apex,
        body: BodyType::Sedan,
    };
    const OTHER: VehicleClass = VehicleClass {
        color: Color::Blue,
        brand: Brand::Apex,
        body: BodyType::Suv,
    };

    #[test]
    fn naive_counter_double_counts_repeat_sightings() {
        let mut n = NaiveIntervalCounter::new(ClassFilter::ALL);
        for _ in 0..3 {
            n.observe(&CAR); // same physical vehicle at three checkpoints
        }
        assert_eq!(n.total(), 3);
    }

    #[test]
    fn dedup_counter_collapses_identical_classes() {
        let mut d = ClassDedupCounter::new(ClassFilter::ALL);
        d.observe(&CAR);
        d.observe(&CAR); // a *different* red Apex sedan — lost
        d.observe(&OTHER);
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn dedup_validation_refuses_what_a_live_counter_cannot_hold() {
        let mut d = ClassDedupCounter::new(ClassFilter::ALL);
        d.observe(&OTHER);
        d.observe(&CAR);
        d.observe(&CAR);
        assert_eq!(d.seen, [CAR.code(), OTHER.code()]);
        assert_eq!(d.validate(), Ok(()));
        for (seen, want) in [
            (vec![245], "seen[0] = 245 is not a class code"),
            (vec![9, 3], "seen[1] is out of order or listed twice"),
            (vec![3, 3], "seen[1] is out of order or listed twice"),
        ] {
            d.seen = seen;
            assert_eq!(d.validate(), Err(want.to_string()));
        }
    }

    #[test]
    fn both_respect_the_filter_and_skip_patrol() {
        let mut n = NaiveIntervalCounter::new(ClassFilter::white_vans());
        let mut d = ClassDedupCounter::new(ClassFilter::white_vans());
        n.observe(&CAR);
        d.observe(&CAR);
        n.observe(&VehicleClass::PATROL);
        d.observe(&VehicleClass::PATROL);
        n.observe(&VehicleClass::WHITE_VAN);
        d.observe(&VehicleClass::WHITE_VAN);
        assert_eq!(n.total(), 1);
        assert_eq!(d.total(), 1);
    }
}
