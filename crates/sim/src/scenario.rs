//! Scenario descriptions: everything needed to reproduce one run, as plain
//! serializable data.

use serde::{Deserialize, Serialize};
use vcount_core::CheckpointConfig;
use vcount_roadnet::builders::{
    directed_ring, fig1_triangle, grid, manhattan, random_city, ManhattanConfig, RandomCityConfig,
};
use vcount_roadnet::RoadNetwork;
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

/// Which map a scenario runs on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MapSpec {
    /// The synthetic midtown-Manhattan map (the paper's evaluation region).
    Manhattan(ManhattanConfig),
    /// A plain bidirectional grid.
    Grid {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
        /// Spacing between intersections, metres.
        spacing_m: f64,
        /// Lanes per direction.
        lanes: u8,
        /// Speed limit, m/s.
        speed_mps: f64,
    },
    /// The 3-intersection closed system of Fig. 1.
    Fig1Triangle {
        /// Segment length, metres.
        segment_m: f64,
        /// Speed limit, m/s.
        speed_mps: f64,
    },
    /// A fully one-way ring (one-way street extension).
    DirectedRing {
        /// Number of intersections.
        nodes: usize,
        /// Segment length, metres.
        spacing_m: f64,
        /// Speed limit, m/s.
        speed_mps: f64,
    },
    /// A random irregular city.
    Random(RandomCityConfig),
}

impl MapSpec {
    /// Builds the road network. `closed` removes all border interaction
    /// (the paper's "close the traffic lanes along the border").
    pub fn build(&self, closed: bool) -> RoadNetwork {
        let mut net = match self {
            MapSpec::Manhattan(cfg) => manhattan(cfg),
            MapSpec::Grid {
                cols,
                rows,
                spacing_m,
                lanes,
                speed_mps,
            } => grid(*cols, *rows, *spacing_m, *lanes, *speed_mps),
            MapSpec::Fig1Triangle {
                segment_m,
                speed_mps,
            } => fig1_triangle(*segment_m, 1, *speed_mps),
            MapSpec::DirectedRing {
                nodes,
                spacing_m,
                speed_mps,
            } => directed_ring(*nodes, *spacing_m, 1, *speed_mps),
            MapSpec::Random(cfg) => random_city(cfg),
        };
        if closed {
            net.close_border();
        }
        net
    }
}

/// Seed checkpoint selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SeedSpec {
    /// `count` seeds drawn uniformly from all checkpoints (the paper:
    /// "randomly selected from the available checkpoints").
    Random {
        /// Number of seeds (the paper sweeps 1..=10).
        count: usize,
    },
    /// Explicit node indices.
    Explicit(Vec<u32>),
    /// Every border checkpoint is a seed/sink — the costly deployment the
    /// paper's observation 6 weighs against a single sink. Falls back to
    /// one random seed when the map has no border (closed system).
    AllBorder,
}

impl Default for SeedSpec {
    fn default() -> Self {
        SeedSpec::Random { count: 1 }
    }
}

/// How collection messages (reports, predecessor announcements) travel when
/// no vehicle can physically carry them along the required direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransportMode {
    /// Reports ride vehicles along the `u -> p(u)` segment when it exists;
    /// one-way reverse deliveries use the directional multi-hop V2V relay
    /// of ref \[7\], modelled as a distance-proportional delay.
    VehicleWithRelayFallback {
        /// Relay propagation speed, m/s (radio hops are much faster than
        /// traffic).
        relay_speed_mps: f64,
    },
    /// Everything via the relay (latency ablation).
    RelayOnly {
        /// Relay propagation speed, m/s.
        relay_speed_mps: f64,
    },
    /// One-way reverse deliveries wait for a patrol car (Alg. 4's
    /// circuitous route); requires patrol cars in the scenario.
    VehicleWithPatrolFallback,
}

impl Default for TransportMode {
    fn default() -> Self {
        TransportMode::VehicleWithRelayFallback {
            relay_speed_mps: 50.0,
        }
    }
}

/// Most patrol cars a scenario may deploy: each car holds its own copy of
/// the patrol cycle, so the fleet is bounded before any is built.
pub const MAX_PATROL_CARS: usize = 1000;

/// Largest map a scenario may ask for, in node-lanes: a grid's nodes times
/// its lanes per direction, and the nodes of every other map, whose
/// builder fixes one lane (two on midtown's two-way streets). Checked
/// before the map is built.
pub const MAX_MAP_NODE_LANES: usize = 100_000;

/// The lower cap on a random city's nodes (one lane each): its builder
/// holds a node-pair table, sorts every other node per node and scans all
/// pairs once per bridge it adds, so its time grows faster than the
/// square of the nodes.
pub const MAX_RANDOM_CITY_NODES: usize = 500;

/// Most steps a run may take: `max_time_s / dt_s`. The paper's presets,
/// the longest runs in use, take 57,600 (8 h at the default 0.5 s).
pub const MAX_STEPS: u32 = 100_000;

/// Police patrol deployment (Theorems 3/4).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PatrolSpec {
    /// Number of patrol cars, evenly spaced along an edge-covering cycle.
    pub cars: usize,
}

/// A complete, reproducible run description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The map.
    pub map: MapSpec,
    /// Close the border (overrides the map's interaction flags).
    pub closed: bool,
    /// Microsimulator parameters (incl. the traffic RNG seed).
    pub sim: SimConfig,
    /// Traffic demand (volume %).
    pub demand: Demand,
    /// Protocol options shared by every checkpoint.
    pub protocol: CheckpointConfig,
    /// Wireless loss model for label handoffs.
    pub channel: ChannelKind,
    /// Seed checkpoints.
    pub seeds: SeedSpec,
    /// Collection transport.
    pub transport: TransportMode,
    /// Patrol cars (0 = none).
    pub patrol: PatrolSpec,
    /// Give up after this much simulated time, seconds.
    pub max_time_s: f64,
}

impl Scenario {
    /// The one check of a scenario from outside the process (a file, a
    /// wire `Start`, a snapshot, an action trace), returning its built map:
    /// the map sizes the builders assert on, the map itself
    /// ([`RoadNetwork::validate`]), explicit seeds inside it and listed
    /// once, the traffic config ([`SimConfig::validate`]), the demand
    /// ([`Demand::validate`]), the time budget ([`MAX_STEPS`]), the patrol
    /// fleet ([`MAX_PATROL_CARS`]) and every channel probability. A
    /// scenario that passes assembles into a `vcountd` tenant without a
    /// panic, and its traffic runs in steps of bounded size and count. The
    /// map size ([`MAX_MAP_NODE_LANES`], [`MAX_RANDOM_CITY_NODES`]) is
    /// checked before the map is built.
    pub fn validate(&self) -> Result<RoadNetwork, String> {
        if self.patrol.cars > MAX_PATROL_CARS {
            return Err(format!(
                "scenario patrol needs cars <= {MAX_PATROL_CARS}, got {}",
                self.patrol.cars
            ));
        }
        let (mins, size, cap) = match &self.map {
            MapSpec::Grid {
                cols, rows, lanes, ..
            } => (
                vec![
                    ("cols", *cols, 1),
                    ("rows", *rows, 1),
                    ("lanes", (*lanes).into(), 1),
                ],
                cols.saturating_mul(*rows).saturating_mul((*lanes).into()),
                MAX_MAP_NODE_LANES,
            ),
            MapSpec::DirectedRing { nodes, .. } => {
                (vec![("nodes", *nodes, 2)], *nodes, MAX_MAP_NODE_LANES)
            }
            MapSpec::Manhattan(cfg) => (
                vec![("avenues", cfg.avenues, 2), ("streets", cfg.streets, 2)],
                cfg.avenues.saturating_mul(cfg.streets),
                MAX_MAP_NODE_LANES,
            ),
            MapSpec::Random(cfg) => (vec![], cfg.nodes, MAX_RANDOM_CITY_NODES),
            MapSpec::Fig1Triangle { .. } => (vec![], 3, MAX_MAP_NODE_LANES),
        };
        if let Some((name, size, min)) = mins.into_iter().find(|&(_, size, min)| size < min) {
            return Err(format!("scenario map needs {name} >= {min}, got {size}"));
        }
        if size > cap {
            return Err(format!(
                "scenario map has {size} node-lanes, more than its cap of {cap}"
            ));
        }
        let net = self.map.build(self.closed);
        net.validate()
            .map_err(|e| format!("scenario map is invalid: {e}"))?;
        let n = net.node_count();
        if let SeedSpec::Explicit(list) = &self.seeds {
            let mut listed = vec![false; n];
            for &seed in list {
                match listed.get_mut(seed as usize) {
                    None => {
                        return Err(format!(
                            "scenario seed {seed} is not a node of the {n}-node map"
                        ))
                    }
                    Some(true) => return Err(format!("scenario seed {seed} is listed twice")),
                    Some(slot) => *slot = true,
                }
            }
        }
        self.sim
            .validate()
            .map_err(|e| format!("invalid simulator config: {e}"))?;
        let budget_s = f64::from(MAX_STEPS) * self.sim.dt_s;
        if !(self.max_time_s > 0.0 && self.max_time_s <= budget_s) {
            return Err(format!(
                "scenario max_time_s must be in (0, {budget_s:?}] ({MAX_STEPS} steps of dt_s {:?}), got {:?}",
                self.sim.dt_s, self.max_time_s
            ));
        }
        self.demand
            .validate()
            .map_err(|e| format!("invalid demand: {e}"))?;
        let probabilities = match self.channel {
            ChannelKind::Perfect => vec![],
            ChannelKind::Bernoulli(p) => vec![p],
            ChannelKind::Burst {
                p_good,
                p_bad,
                p_g2b,
                p_b2g,
            } => vec![p_good, p_bad, p_g2b, p_b2g],
        };
        if let Some(p) = probabilities.iter().find(|p| !(0.0..=1.0).contains(*p)) {
            return Err(format!(
                "channel {:?}: probability {p} is outside [0, 1]",
                self.channel
            ));
        }
        Ok(net)
    }

    /// The paper's closed-system evaluation on the midtown map at a given
    /// traffic volume, seed count, and RNG seed: 30% lossy channel,
    /// extended protocol (Alg. 3 + Alg. 4). The 100%-volume density is
    /// calibrated to 30 vehicles per lane-km (a realistic Manhattan daily
    /// average; below ~15 the 10%-volume sweep point starves rare one-way
    /// directions of label carriers — see EXPERIMENTS.md).
    pub fn paper_closed(
        map: ManhattanConfig,
        volume_pct: f64,
        seeds: usize,
        rng_seed: u64,
    ) -> Self {
        Scenario {
            map: MapSpec::Manhattan(map),
            closed: true,
            sim: SimConfig {
                seed: rng_seed,
                ..Default::default()
            },
            demand: Demand {
                vehicles_per_lane_km: 30.0,
                ..Demand::at_volume(volume_pct)
            },
            protocol: CheckpointConfig::for_variant(vcount_core::ProtocolVariant::Extended),
            channel: ChannelKind::PAPER,
            seeds: SeedSpec::Random { count: seeds },
            transport: TransportMode::default(),
            patrol: PatrolSpec::default(),
            // Low-volume cells have a long starvation tail (rare one-way
            // directions wait for a label carrier); 8 simulated hours covers
            // the whole paper grid.
            max_time_s: 8.0 * 3600.0,
        }
    }

    /// The paper's open-system evaluation (Alg. 5 + Alg. 4).
    pub fn paper_open(map: ManhattanConfig, volume_pct: f64, seeds: usize, rng_seed: u64) -> Self {
        Scenario {
            closed: false,
            protocol: CheckpointConfig::for_variant(vcount_core::ProtocolVariant::Open),
            ..Scenario::paper_closed(map, volume_pct, seeds, rng_seed)
        }
    }

    /// The Fig. 1 walkthrough setting: the 3-intersection closed triangle
    /// with a perfect channel and an explicit seed at intersection 0 —
    /// shared by the `three_intersections` example, the golden-trace test,
    /// and the CLI's `fig1` preset.
    pub fn fig1_walkthrough(rng_seed: u64) -> Self {
        Scenario {
            map: MapSpec::Fig1Triangle {
                segment_m: 200.0,
                speed_mps: 6.7,
            },
            closed: true,
            sim: SimConfig {
                seed: rng_seed,
                ..Default::default()
            },
            demand: Demand::at_volume(60.0),
            protocol: CheckpointConfig::default(),
            channel: ChannelKind::Perfect,
            seeds: SeedSpec::Explicit(vec![0]),
            transport: TransportMode::default(),
            patrol: PatrolSpec::default(),
            max_time_s: 3600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_build_removes_interaction() {
        let spec = MapSpec::Manhattan(ManhattanConfig::small());
        assert!(spec.build(false).is_open());
        assert!(!spec.build(true).is_open());
    }

    #[test]
    fn paper_scenarios_round_trip_through_json() {
        let s = Scenario::paper_open(ManhattanConfig::small(), 40.0, 3, 9);
        let js = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&js).unwrap();
        assert_eq!(back.demand.volume_pct, 40.0);
        assert!(matches!(back.seeds, SeedSpec::Random { count: 3 }));
        assert!(!back.closed);
    }

    #[test]
    fn every_map_spec_builds_valid_networks() {
        let specs = [
            MapSpec::Grid {
                cols: 3,
                rows: 3,
                spacing_m: 100.0,
                lanes: 1,
                speed_mps: 6.7,
            },
            MapSpec::Fig1Triangle {
                segment_m: 200.0,
                speed_mps: 6.7,
            },
            MapSpec::DirectedRing {
                nodes: 5,
                spacing_m: 100.0,
                speed_mps: 6.7,
            },
            MapSpec::Random(RandomCityConfig::default()),
            MapSpec::Manhattan(ManhattanConfig::small()),
        ];
        for spec in specs {
            spec.build(true).validate().unwrap();
        }
    }
}
