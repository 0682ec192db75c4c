//! The checkpoint table: every checkpoint's [`CheckpointState`] in one
//! set of columns, the form a snapshot stores them in. Each fact is
//! stored once. A per-node scalar is one entry of a column indexed by
//! node id. A per-direction state is one entry of a column indexed by
//! edge id: every edge is exactly one node's inbound direction (at its
//! head) and one node's outbound direction (at its tail), so a column of
//! the map's length holds each direction once, and no direction can be
//! missing or listed twice. The two neighbour maps are sparse rows.

use crate::counter::Counters;
use crate::machine::{CheckpointState, InboundState, LabelState};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vcount_roadnet::{EdgeId, NodeId, RoadNetwork};

/// Bit of [`CheckpointTable::flags`]: the checkpoint is active.
pub const ACTIVE: u8 = 1;
/// Bit of [`CheckpointTable::flags`]: the checkpoint was activated as a
/// seed.
pub const SEED: u8 = 2;

/// Every checkpoint's dynamic state, one column per field. See the
/// module docs for the three kinds of column.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointTable {
    /// Per node: [`ACTIVE`] | [`SEED`].
    pub flags: Vec<u8>,
    /// Per node: `p(u)`, the spanning-tree predecessor.
    pub pred: Vec<Option<NodeId>>,
    /// Per node: the seed whose wave activated it.
    pub wave_seed: Vec<Option<NodeId>>,
    /// Per node: net overtake corrections.
    pub overtake_adjust: Vec<i64>,
    /// Per node: failed-handoff compensations.
    pub loss_compensation: Vec<u64>,
    /// Per node: inbound interactions.
    pub interaction_in: Vec<u64>,
    /// Per node: outbound interactions.
    pub interaction_out: Vec<u64>,
    /// Per node: the last subtree total reported upward.
    pub last_report: Vec<Option<i64>>,
    /// Per node: the next outgoing report sequence number.
    pub report_seq: Vec<u32>,
    /// Per node: the collected tree total.
    pub tree_total: Vec<Option<i64>>,
    /// Per node: activation time, seconds.
    pub activated_at: Vec<Option<f64>>,
    /// Per node: local stabilization time, seconds.
    pub stable_at: Vec<Option<f64>>,
    /// Per node: collection time, seconds.
    pub collected_at: Vec<Option<f64>>,
    /// Per edge: the [`InboundState::code`] of the direction at its head.
    pub inbound_state: Vec<u8>,
    /// Per edge: the [`LabelState::code`] of the direction at its tail.
    pub label_state: Vec<u8>,
    /// Per edge: the phase-5 count at its head (0 when nothing was
    /// counted on it).
    pub per_inbound: Vec<u64>,
    /// `[node, neighbour, the neighbour's predecessor]`, one row per
    /// learned predecessor, in (node, neighbour) order.
    pub known_preds: Vec<(NodeId, NodeId, Option<NodeId>)>,
    /// `[node, child, seq, total]`, one row per child report held, in
    /// (node, child) order.
    pub child_reports: Vec<(NodeId, NodeId, u32, i64)>,
}

impl CheckpointTable {
    /// The table of `states`, node `i`'s state the `i`-th, on a map of
    /// `edges` edges.
    pub fn of<'a>(states: impl IntoIterator<Item = &'a CheckpointState>, edges: usize) -> Self {
        let mut t = CheckpointTable {
            inbound_state: vec![0; edges],
            label_state: vec![0; edges],
            per_inbound: vec![0; edges],
            ..CheckpointTable::default()
        };
        for (i, st) in states.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let c = &st.counters;
            t.flags
                .push((u8::from(st.active) * ACTIVE) | (u8::from(st.is_seed) * SEED));
            t.pred.push(st.pred);
            t.wave_seed.push(st.wave_seed);
            t.overtake_adjust.push(c.overtake_adjust);
            t.loss_compensation.push(c.loss_compensation);
            t.interaction_in.push(c.interaction_in);
            t.interaction_out.push(c.interaction_out);
            t.last_report.push(st.last_report);
            t.report_seq.push(st.report_seq);
            t.tree_total.push(st.tree_total);
            t.activated_at.push(st.activated_at);
            t.stable_at.push(st.stable_at);
            t.collected_at.push(st.collected_at);
            for (e, s) in &st.inbound_state {
                t.inbound_state[e.index()] = s.code();
            }
            for (e, s) in &st.label_state {
                t.label_state[e.index()] = s.code();
            }
            for (e, n) in &c.per_inbound {
                t.per_inbound[e.index()] = *n;
            }
            let preds = st.known_preds.iter().map(|(w, p)| (node, *w, *p));
            t.known_preds.extend(preds);
            let reports = st.child_reports.iter();
            t.child_reports
                .extend(reports.map(|(c, (seq, total))| (node, *c, *seq, *total)));
        }
        t
    }

    /// The states this table holds for the nodes of `net`, each passing
    /// [`CheckpointState::check`]. Refused: a per-node column that is not
    /// one entry per node, a per-edge column that is not one entry per
    /// edge, an unknown flag bit or state code, and rows out of order or
    /// listed twice (so that decoding then encoding is the identity). The
    /// error names the field.
    pub fn states(&self, net: &RoadNetwork) -> Result<Vec<CheckpointState>, String> {
        let (nodes, edges) = (net.node_count(), net.edge_count());
        let per_node = [
            ("flags", self.flags.len()),
            ("pred", self.pred.len()),
            ("wave_seed", self.wave_seed.len()),
            ("overtake_adjust", self.overtake_adjust.len()),
            ("loss_compensation", self.loss_compensation.len()),
            ("interaction_in", self.interaction_in.len()),
            ("interaction_out", self.interaction_out.len()),
            ("last_report", self.last_report.len()),
            ("report_seq", self.report_seq.len()),
            ("tree_total", self.tree_total.len()),
            ("activated_at", self.activated_at.len()),
            ("stable_at", self.stable_at.len()),
            ("collected_at", self.collected_at.len()),
        ];
        let per_edge = [
            ("inbound_state", self.inbound_state.len()),
            ("label_state", self.label_state.len()),
            ("per_inbound", self.per_inbound.len()),
        ];
        let fits = |columns: &[(&str, usize)], want: usize, per: &str| match columns
            .iter()
            .find(|(_, len)| *len != want)
        {
            Some((field, len)) => Err(format!(
                "{field} has {len} entries for the {want}-{per} map"
            )),
            None => Ok(()),
        };
        fits(&per_node, nodes, "node")?;
        fits(&per_edge, edges, "edge")?;
        if let Some(i) = self.flags.iter().position(|f| f & !(ACTIVE | SEED) != 0) {
            return Err(format!("flags[{i}] = {} is not a flag set", self.flags[i]));
        }
        let preds = self.known_preds.iter().map(|&(u, w, _)| (u, w));
        check_rows("known_preds", preds, nodes)?;
        let reports = self.child_reports.iter().map(|&(u, c, ..)| (u, c));
        check_rows("child_reports", reports, nodes)?;

        let mut states: Vec<CheckpointState> = (0..nodes)
            .map(|i| CheckpointState {
                active: self.flags[i] & ACTIVE != 0,
                is_seed: self.flags[i] & SEED != 0,
                pred: self.pred[i],
                wave_seed: self.wave_seed[i],
                inbound_state: BTreeMap::new(),
                label_state: BTreeMap::new(),
                counters: Counters {
                    per_inbound: BTreeMap::new(),
                    overtake_adjust: self.overtake_adjust[i],
                    loss_compensation: self.loss_compensation[i],
                    interaction_in: self.interaction_in[i],
                    interaction_out: self.interaction_out[i],
                },
                known_preds: BTreeMap::new(),
                child_reports: BTreeMap::new(),
                last_report: self.last_report[i],
                report_seq: self.report_seq[i],
                tree_total: self.tree_total[i],
                activated_at: self.activated_at[i],
                stable_at: self.stable_at[i],
                collected_at: self.collected_at[i],
            })
            .collect();
        for e in net.edge_ids() {
            let i = e.index();
            let (head, tail) = (net.edge(e).to.index(), net.edge(e).from.index());
            let inbound = InboundState::from_code(self.inbound_state[i])
                .ok_or_else(|| unknown_code("inbound_state", e, self.inbound_state[i]))?;
            let label = LabelState::from_code(self.label_state[i])
                .ok_or_else(|| unknown_code("label_state", e, self.label_state[i]))?;
            states[head].inbound_state.insert(e, inbound);
            states[tail].label_state.insert(e, label);
            if self.per_inbound[i] != 0 {
                states[head]
                    .counters
                    .per_inbound
                    .insert(e, self.per_inbound[i]);
            }
        }
        for &(u, w, p) in &self.known_preds {
            states[u.index()].known_preds.insert(w, p);
        }
        for &(u, c, seq, total) in &self.child_reports {
            states[u.index()].child_reports.insert(c, (seq, total));
        }
        for (node, st) in net.node_ids().zip(&states) {
            st.check(net, node)
                .map_err(|e| format!("node {}: {e}", node.0))?;
        }
        Ok(states)
    }
}

/// Checks sparse rows keyed by `(node, neighbour)`: each row's node is on
/// the map, and the keys strictly ascend.
fn check_rows(
    field: &str,
    keys: impl Iterator<Item = (NodeId, NodeId)>,
    nodes: usize,
) -> Result<(), String> {
    let mut last = None;
    for (k, (u, w)) in keys.enumerate() {
        if u.index() >= nodes {
            return Err(format!(
                "{field}[{k}] names node {} outside the {nodes}-node map",
                u.0
            ));
        }
        if last >= Some((u, w)) {
            return Err(format!(
                "{field}[{k}] is out of (node, neighbour) order or listed twice"
            ));
        }
        last = Some((u, w));
    }
    Ok(())
}

/// The error for an unknown state code of direction `e`.
fn unknown_code(field: &str, e: EdgeId, code: u8) -> String {
    format!("{field}[{}] = {code} is not a state code", e.0)
}
