//! Simulator and demand configuration.

use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Time steps a run may take, seconds. Below the range a run's step count
/// grows without bound as the step shrinks; above it a vehicle crosses
/// whole blocks in one step.
pub const DT_S: RangeInclusive<f64> = 0.01..=10.0;
/// Open-border arrival rates per inbound node at 100% volume,
/// vehicles/second: a few lanes' saturation flow at most.
pub const SPAWN_RATE_HZ: RangeInclusive<f64> = 0.0..=2.0;
/// Traffic volumes, percent of the average (the paper sweeps 10..=100).
pub const VOLUME_PCT: RangeInclusive<f64> = 0.0..=500.0;
/// Densities at 100% volume, vehicles per lane-km: up to jam density.
pub const VEHICLES_PER_LANE_KM: RangeInclusive<f64> = 0.0..=200.0;
/// The fraction of vehicles that are white vans.
pub const WHITE_VAN_FRACTION: RangeInclusive<f64> = 0.0..=1.0;

/// `Ok` when `value` lies in `range` (so is not NaN), else an error
/// naming `what`, the range and the value.
fn check_range(what: &str, value: f64, range: &RangeInclusive<f64>) -> Result<(), String> {
    if range.contains(&value) {
        Ok(())
    } else {
        Err(format!(
            "{what} must be in [{:?}, {:?}], got {value:?}",
            range.start(),
            range.end()
        ))
    }
}

/// Microsimulator parameters.
///
/// The defaults reproduce the paper's extended road model: multiple lanes
/// with overtakes, several vehicles admitted into an intersection per step,
/// and heterogeneous driver speeds (slow trucks get overtaken). Set
/// [`SimConfig::simple_model`] for the Alg. 1 setting (single admission,
/// FIFO, homogeneous speeds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Time step, seconds.
    pub dt_s: f64,
    /// Vehicles admitted into a plain intersection per step and per node.
    /// 1 reproduces the simple model's "only one vehicle is allowed to
    /// enter the intersection" rule when combined with a large `dt_s`.
    pub admit_per_step: usize,
    /// Vehicles admitted into a roundabout per step (multi-target
    /// tracking allows several simultaneously).
    pub admit_per_step_roundabout: usize,
    /// Minimum bumper-to-bumper spacing, metres.
    pub min_gap_m: f64,
    /// Probability per step that a blocked vehicle attempts a lane change
    /// (0 disables overtaking regardless of lane count).
    pub lane_change_prob: f64,
    /// Desired-speed factor range `[lo, hi]` (multiplies the edge speed
    /// limit). A spread below 1.0 creates slow vehicles that get overtaken.
    pub speed_factor_range: (f64, f64),
    /// Probability that a vehicle admitted at an outbound-interaction node
    /// leaves the open system.
    pub exit_prob: f64,
    /// Probability that a vehicle takes an immediate U-turn even when other
    /// directions exist. Real traffic contains occasional U-turns; with 0,
    /// a segment whose tail intersection is fed only by its own twin is a
    /// structural "orphan" no vehicle ever joins — the odd-traffic-pattern
    /// deadlock of Section IV-B that requires patrol support (Theorem 3).
    pub u_turn_prob: f64,
    /// Poisson arrival rate per inbound-interaction node, vehicles/second,
    /// at 100% volume (scaled linearly with volume).
    pub spawn_rate_hz: f64,
    /// Emit [`crate::events::TrafficEvent::Overtake`] events (needed only
    /// by the per-event adjustment ablation; costs extra bookkeeping).
    pub detect_overtakes: bool,
    /// RNG seed: identical config + seed ⇒ identical trajectory stream.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt_s: 0.5,
            admit_per_step: 2,
            admit_per_step_roundabout: 4,
            min_gap_m: 7.0,
            lane_change_prob: 0.25,
            speed_factor_range: (0.6, 1.0),
            exit_prob: 0.25,
            u_turn_prob: 0.02,
            spawn_rate_hz: 0.05,
            detect_overtakes: false,
            seed: 1,
        }
    }
}

impl SimConfig {
    /// The simple road model of Alg. 1: strictly FIFO traffic. One vehicle
    /// enters an intersection at a time, no lane changes, and homogeneous
    /// speeds so no vehicle ever catches up with another on a segment.
    pub fn simple_model(seed: u64) -> Self {
        SimConfig {
            admit_per_step: 1,
            lane_change_prob: 0.0,
            speed_factor_range: (1.0, 1.0),
            seed,
            ..Default::default()
        }
    }

    /// Validates parameter ranges; called by the simulator constructor.
    pub fn validate(&self) -> Result<(), String> {
        check_range("dt_s", self.dt_s, &DT_S)?;
        if self.admit_per_step == 0 || self.admit_per_step_roundabout == 0 {
            return Err("admission rates must be at least 1".into());
        }
        if self.min_gap_m.is_nan() || self.min_gap_m <= 0.0 {
            return Err("min_gap_m must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.lane_change_prob) {
            return Err("lane_change_prob must be in [0,1]".into());
        }
        let (lo, hi) = self.speed_factor_range;
        if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
            return Err("speed_factor_range must satisfy 0 < lo <= hi < infinity".into());
        }
        if !(0.0..=1.0).contains(&self.exit_prob) {
            return Err("exit_prob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.u_turn_prob) {
            return Err("u_turn_prob must be in [0,1]".into());
        }
        check_range("spawn_rate_hz", self.spawn_rate_hz, &SPAWN_RATE_HZ)
    }
}

/// Traffic demand: how many vehicles populate the network.
///
/// The paper sweeps "traffic volumes changing from 10% to 100% of the
/// average"; [`Demand::volume_pct`] is that knob. The initial population is
/// `volume_pct/100 × vehicles_per_lane_km × total lane-km`, and open-system
/// arrival rates scale the same way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Demand {
    /// Percentage of the average daily traffic (the paper sweeps 10..=100).
    pub volume_pct: f64,
    /// Density at 100% volume, vehicles per lane-kilometre.
    pub vehicles_per_lane_km: f64,
    /// Fraction of spawned/placed vehicles that are white vans (for the
    /// specified-type extension; the rest draw from a generic mix).
    pub white_van_fraction: f64,
}

impl Default for Demand {
    fn default() -> Self {
        Demand {
            volume_pct: 50.0,
            vehicles_per_lane_km: 12.0,
            white_van_fraction: 0.05,
        }
    }
}

impl Demand {
    /// Demand at a given volume percentage with default density.
    pub fn at_volume(volume_pct: f64) -> Self {
        Demand {
            volume_pct,
            ..Default::default()
        }
    }

    /// Initial vehicle count for a network with `lane_km` total lane-km,
    /// before the cast to a count saturates it: what a bound is checked
    /// against.
    pub fn initial_population(&self, lane_km: f64) -> f64 {
        ((self.volume_pct / 100.0) * self.vehicles_per_lane_km * lane_km).round()
    }

    /// Initial vehicle count for a network with `lane_km` total lane-km.
    pub fn initial_vehicles(&self, lane_km: f64) -> usize {
        self.initial_population(lane_km) as usize
    }

    /// Volume scaling factor applied to spawn rates.
    pub fn volume_factor(&self) -> f64 {
        self.volume_pct / 100.0
    }

    /// Validates the demand against its physical ranges ([`VOLUME_PCT`],
    /// [`VEHICLES_PER_LANE_KM`], [`WHITE_VAN_FRACTION`]).
    pub fn validate(&self) -> Result<(), String> {
        check_range("volume_pct", self.volume_pct, &VOLUME_PCT)?;
        check_range(
            "vehicles_per_lane_km",
            self.vehicles_per_lane_km,
            &VEHICLES_PER_LANE_KM,
        )?;
        check_range(
            "white_van_fraction",
            self.white_van_fraction,
            &WHITE_VAN_FRACTION,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        SimConfig::default().validate().unwrap();
        SimConfig::simple_model(7).validate().unwrap();
    }

    #[test]
    fn simple_model_is_fifo() {
        let c = SimConfig::simple_model(1);
        assert_eq!(c.admit_per_step, 1);
        assert_eq!(c.lane_change_prob, 0.0);
        assert_eq!(c.speed_factor_range, (1.0, 1.0));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let c = SimConfig {
            dt_s: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            admit_per_step: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            speed_factor_range: (0.8, 0.5),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            exit_prob: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        for dt_s in [1e300, 1e-300, f64::NAN] {
            let c = SimConfig {
                dt_s,
                ..Default::default()
            };
            assert!(c.validate().unwrap_err().starts_with("dt_s must be in"));
        }
    }

    #[test]
    fn demand_outside_its_physical_ranges_is_rejected() {
        Demand::default().validate().unwrap();
        let bad = [
            Demand::at_volume(1e300),
            Demand::at_volume(-1.0),
            Demand {
                vehicles_per_lane_km: f64::INFINITY,
                ..Default::default()
            },
            Demand {
                white_van_fraction: 1.5,
                ..Default::default()
            },
        ];
        for d in bad {
            assert!(d.validate().is_err(), "{d:?} passed");
        }
    }

    #[test]
    fn demand_scales_linearly() {
        let d = Demand::at_volume(100.0);
        let n100 = d.initial_vehicles(100.0);
        let d = Demand::at_volume(10.0);
        let n10 = d.initial_vehicles(100.0);
        assert_eq!(n100, 1200);
        assert_eq!(n10, 120);
        assert!((d.volume_factor() - 0.1).abs() < 1e-12);
    }
}
