//! The central collector: per-host report slots with sequence checking,
//! and the hierarchical deterministic rollup.
//!
//! The rollup is a **collection tree**: hosts group into leaf
//! aggregators of `fan_in` hosts each, leaf aggregates merge into
//! internal nodes of `fan_in` children, and so on to a single root.
//! Every tree edge carries one [`AggregateReport`] — merged integer
//! counters, merged histogram cells, one merged Top-K sketch, and a
//! Top-K row list — O(K) bytes regardless of how many hosts or
//! distinct entities sit below it. Because every merged quantity is
//! either an exact integer sum, an exact order-statistic selection, or
//! a sketch whose matrix sums exactly, the root report is bitwise
//! identical at any worker count, and the shipped configurations pin it
//! byte-identical across fan-ins too.
//!
//! The tree's first internal level is built where the reports are. A
//! level-1 `Node` covers `fan_in × max(fan_in, 2)` consecutive hosts;
//! it holds their merged aggregate, their [`HostRow`]s and the union of
//! their sketches' candidate keys, which is everything the rollup reads
//! of them. A fleet run builds each node on the worker that simulated
//! its hosts and then drops their reports, so its collector arrives
//! *sealed*: slots keep only their bookkeeping. A collector fed through
//! [`Collector::receive`] builds the same nodes from its slots when it
//! rolls up, with the same function.

use kscope_core::{Log2Hist, RawCounters, StackDelay, TopKSketch};
use kscope_simcore::parallel::map_indexed;
use kscope_simcore::Nanos;

use crate::host::ReportEnvelope;

/// Collector-side state for one host.
///
/// A slot's state depends only on its own host's arrival order, so a
/// fleet run folds each host's arrivals into its slot on the worker
/// that simulated the host, and the collector only places the slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostSlot {
    /// Highest sequence number accepted.
    pub last_seq: Option<u64>,
    /// The latest (by sequence) envelope accepted, until the slot's
    /// level-1 node is sealed: a fleet run's collector holds `None` here,
    /// and the envelope's contribution lives in the node. Boxed so a slot
    /// is 56 bytes rather than 1.4 KB.
    pub latest: Option<Box<ReportEnvelope>>,
    /// Envelopes accepted (forward progress).
    pub accepted: u64,
    /// Envelopes that arrived with `seq <= last_seq` — reordered behind a
    /// newer report and discarded (their payload is subsumed).
    pub stale: u64,
    /// Sequence numbers skipped at accept time: reports that were dropped,
    /// shed, or overtaken in flight. A late arrival is counted here *and*
    /// in `stale` — `gaps` is "missing when needed", not "lost forever".
    pub gaps: u64,
    /// Arrival time of the latest accepted envelope.
    pub last_arrival: Nanos,
}

impl HostSlot {
    /// Folds one of this host's envelopes, arriving at `now`, into the
    /// slot: accept forward progress, discard stale (reordered) reports
    /// — safe because payloads are cumulative, so the newer report
    /// already subsumes the older one.
    pub fn receive(&mut self, envelope: ReportEnvelope, now: Nanos) {
        match self.last_seq {
            Some(last) if envelope.seq <= last => {
                self.stale += 1;
            }
            _ => {
                let expected = self.last_seq.map(|s| s + 1).unwrap_or(0);
                self.gaps += envelope.seq - expected;
                self.last_seq = Some(envelope.seq);
                self.accepted += 1;
                self.last_arrival = now;
                self.latest = Some(Box::new(envelope));
            }
        }
    }
}

/// Fleet-level report accounting: what the senders and channel did
/// (ground truth, filled in by the run) next to what the collector saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Reports produced across all hosts.
    pub produced: u64,
    /// Reports shed by the per-host inflight bound.
    pub shed: u64,
    /// Reports offered to the control channel.
    pub offered: u64,
    /// Reports the channel delivered.
    pub channel_delivered: u64,
    /// Reports the channel dropped.
    pub channel_dropped: u64,
    /// Reports the collector accepted.
    pub accepted: u64,
    /// Reports the collector discarded as stale (reordered).
    pub stale: u64,
    /// Sequence gaps the collector observed at accept time.
    pub gaps: u64,
}

/// The control channel's byte ledger (ground truth, filled in by the
/// run): topology-dependent transport facts, kept apart from the
/// fan-in-invariant "rollup" section of the report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Transport {
    /// Report bytes offered to the channel across all hosts.
    pub bytes_offered: u64,
    /// Report bytes the channel delivered.
    pub bytes_delivered: u64,
    /// Modeled wire size of one report envelope — constant per config,
    /// O(K) in the sketch capacity, independent of entity count.
    pub report_wire_bytes: u64,
    /// Delivered bytes per host per observation window.
    pub bytes_per_host_per_window: f64,
}

/// One host's row in the rollup, in host-id order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRow {
    /// Host id.
    pub host: u32,
    /// Latest accepted sequence, `None` for silent hosts.
    pub seq: Option<u64>,
    /// Windows covered by the latest accepted report.
    pub windows: u64,
    /// Cumulative Eq. 1 rate from the host's merged counters.
    pub rps: Option<f64>,
    /// Latest poll-slack headroom.
    pub headroom: Option<f64>,
    /// Whether either saturation signal fired in the latest report.
    pub saturated: bool,
    /// Deterministic saturation score used for the Top-K ranking.
    pub score: f64,
}

/// One entity in the merged sketch's Top-K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRow {
    /// The entity key (`pid_tgid` of the serving thread).
    pub entity: u64,
    /// The merged Count-Min estimate of its fleet-wide request count
    /// (never below the true count over the reported streams).
    pub estimate: u64,
}

/// The O(K) payload one collection-tree edge carries: everything a
/// parent needs from a subtree, in constant space.
///
/// Merging is associative, commutative, and (for every integer-derived
/// field) exactly equal to aggregating the subtree's hosts directly —
/// the counters and histogram are wrapping sums, the row Top-K is an
/// exact selection under a total order, and the sketch's Count-Min
/// matrix sums cell-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReport {
    /// Hosts covered by this subtree.
    pub hosts: usize,
    /// Hosts below with at least one accepted report.
    pub reporting: usize,
    /// Merged cumulative counters of every reporting host below.
    pub merged: RawCounters,
    /// Merged poll-duration histogram cells.
    pub hist: Log2Hist,
    /// Merged time-in-stack state of every reporting host below.
    pub stack: StackDelay,
    /// Merged entity sketch (`None` when no host below has reported).
    pub sketch: Option<TopKSketch>,
    /// The subtree's `top_k` highest-scoring host rows (score desc,
    /// host id asc) — an exact partial selection, so the root's Top-K
    /// equals the Top-K over all hosts at any fan-in.
    pub top_rows: Vec<HostRow>,
    /// Envelopes accepted below.
    pub accepted: u64,
    /// Envelopes discarded as stale below.
    pub stale: u64,
    /// Sequence gaps observed below.
    pub gaps: u64,
}

impl AggregateReport {
    fn empty(shift: u32) -> AggregateReport {
        AggregateReport {
            hosts: 0,
            reporting: 0,
            merged: RawCounters::new(shift),
            hist: Log2Hist::new(shift),
            stack: StackDelay::new(shift),
            sketch: None,
            top_rows: Vec::new(),
            accepted: 0,
            stale: 0,
            gaps: 0,
        }
    }

    /// Merges `children` into one aggregate, keeping the row Top-K at
    /// `top_k`. Order- and grouping-invariant in every integer-derived
    /// field.
    pub fn merge<'a>(
        children: impl IntoIterator<Item = &'a AggregateReport>,
        shift: u32,
        top_k: usize,
    ) -> AggregateReport {
        let mut out = AggregateReport::empty(shift);
        let mut sketches: Vec<&TopKSketch> = Vec::new();
        for child in children {
            out.hosts += child.hosts;
            out.reporting += child.reporting;
            out.merged.merge(&child.merged);
            out.hist.merge(&child.hist);
            out.stack.merge(&child.stack);
            out.accepted += child.accepted;
            out.stale += child.stale;
            out.gaps += child.gaps;
            out.top_rows.extend(child.top_rows.iter().copied());
            sketches.extend(child.sketch.as_ref());
        }
        out.sketch = TopKSketch::merge_all(sketches);
        rank_rows(&mut out.top_rows, top_k);
        out
    }

    /// Modeled wire size of this aggregate: the envelope-shaped payload
    /// plus `top_k` host rows — O(K), independent of `hosts`.
    pub fn wire_bytes(&self) -> usize {
        const ROW_BYTES: usize = 4 + 8 + 8 + 8 + 8 + 1 + 8;
        crate::host::ENVELOPE_FIXED_BYTES
            + self
                .sketch
                .as_ref()
                .map(TopKSketch::wire_bytes)
                .unwrap_or(0)
            + self.top_rows.len() * ROW_BYTES
    }
}

/// Sorts rows by (score desc, host asc) and keeps the first `top_k` —
/// the exact selection both the leaves and internal nodes apply.
fn rank_rows(rows: &mut Vec<HostRow>, top_k: usize) {
    rows.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.host.cmp(&b.host))
    });
    rows.truncate(top_k);
}

/// Splits `0..len` into consecutive `(lo, hi)` groups of `size` (the
/// last one possibly shorter).
fn groups(len: usize, size: usize) -> Vec<(usize, usize)> {
    (0..len.div_ceil(size))
        .map(|g| (g * size, ((g + 1) * size).min(len)))
        .collect()
}

/// One internal tree level: `children` merged `node_fan_in` at a time,
/// in index order, on up to `jobs` workers.
fn merge_level<C: Sync>(
    children: &[C],
    aggregate: impl Fn(&C) -> &AggregateReport + Sync,
    jobs: usize,
    shape: NodeShape,
) -> Vec<AggregateReport> {
    let size = shape.node_fan_in();
    map_indexed(&groups(children.len(), size), jobs, |_, &(lo, hi)| {
        AggregateReport::merge(
            children[lo..hi].iter().map(&aggregate),
            shape.shift,
            shape.top_k,
        )
    })
}

/// What building a level-1 node takes besides its hosts' slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeShape {
    shift: u32,
    min_send_samples: u64,
    fan_in: usize,
    top_k: usize,
}

impl NodeShape {
    /// The shape of a tree of `fan_in` (at least 1) keeping `top_k` host
    /// rows, over counters that use `shift`.
    pub(crate) fn new(shift: u32, min_send_samples: u64, fan_in: usize, top_k: usize) -> NodeShape {
        NodeShape {
            shift,
            min_send_samples,
            fan_in: fan_in.max(1),
            top_k,
        }
    }

    /// Internal nodes' fan-in: a fan-in of 1 still merges pairs, so the
    /// tree terminates.
    fn node_fan_in(&self) -> usize {
        self.fan_in.max(2)
    }

    /// Each level-1 node's hosts `(lo, hi)` in a fleet of `hosts`:
    /// `node_fan_in` leaves of `fan_in` consecutive hosts each.
    pub(crate) fn nodes(&self, hosts: usize) -> Vec<(usize, usize)> {
        groups(hosts, self.fan_in * self.node_fan_in())
    }
}

/// One level-1 node of the collection tree: what the rollup needs from
/// its hosts, in O(K) space plus one row per host.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Its leaves' aggregates, merged.
    aggregate: AggregateReport,
    /// Each host's row, in host-id order.
    rows: Vec<HostRow>,
    /// Every reporting host's sketch candidates as
    /// [`TopKSketch::candidate_words`], sorted and deduplicated: the
    /// second round picks from these under the root matrix.
    keys: Vec<u128>,
}

impl Node {
    /// Builds the node over `slots`, the hosts from `first` on: one leaf
    /// aggregate per `fan_in` hosts, merged at once.
    pub(crate) fn build(slots: &[HostSlot], first: usize, shape: NodeShape) -> Node {
        let rows: Vec<HostRow> = slots
            .iter()
            .zip(first..)
            .map(|(slot, host)| host_row(slot, host, shape.min_send_samples))
            .collect();
        let leaves: Vec<AggregateReport> = groups(slots.len(), shape.fan_in)
            .into_iter()
            .map(|(lo, hi)| aggregate_leaf(&slots[lo..hi], &rows[lo..hi], shape))
            .collect();
        let mut keys: Vec<u128> = slots
            .iter()
            .filter_map(|slot| slot.latest.as_deref())
            .flat_map(|env| env.sketch.candidate_words())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        Node {
            aggregate: AggregateReport::merge(&leaves, shape.shift, shape.top_k),
            rows,
            keys,
        }
    }
}

/// Host `host`'s row, read from its slot's latest envelope.
fn host_row(slot: &HostSlot, host: usize, min_send_samples: u64) -> HostRow {
    match &slot.latest {
        Some(env) => {
            let rps = (env.cum.send.count >= min_send_samples)
                .then(|| env.cum.send.mean())
                .flatten()
                .filter(|&m| m > 0.0)
                .map(|m| 1e9 / m);
            let headroom = env.slack.map(|s| s.headroom);
            let sat_flag = env.saturation.map(|s| s.saturated).unwrap_or(false);
            let slack_flag = env.slack.map(|s| s.saturated).unwrap_or(false);
            let score = f64::from(u8::from(sat_flag))
                + f64::from(u8::from(slack_flag))
                + headroom.map(|h| (1.0 - h).clamp(0.0, 1.0)).unwrap_or(0.0);
            HostRow {
                host: host as u32,
                seq: slot.last_seq,
                windows: env.windows_observed,
                rps,
                headroom,
                saturated: sat_flag || slack_flag,
                score,
            }
        }
        None => HostRow {
            host: host as u32,
            seq: None,
            windows: 0,
            rps: None,
            headroom: None,
            saturated: false,
            score: 0.0,
        },
    }
}

/// A leaf aggregator: merges `slots` (whose rows are `rows`) into one
/// O(K) aggregate.
fn aggregate_leaf(slots: &[HostSlot], rows: &[HostRow], shape: NodeShape) -> AggregateReport {
    let mut out = AggregateReport::empty(shape.shift);
    out.hosts = slots.len();
    let mut sketches: Vec<&TopKSketch> = Vec::new();
    for slot in slots {
        out.accepted += slot.accepted;
        out.stale += slot.stale;
        out.gaps += slot.gaps;
        if let Some(env) = &slot.latest {
            out.reporting += 1;
            out.merged.merge(&env.cum);
            out.hist.merge(&env.hist);
            out.stack.merge(&env.stack);
            sketches.push(&env.sketch);
        }
    }
    out.sketch = TopKSketch::merge_all(sketches);
    out.top_rows = rows.to_vec();
    rank_rows(&mut out.top_rows, shape.top_k);
    out
}

/// The drop-aware fleet rollup (the root of the collection tree, plus
/// locally-derived per-host detail).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRollup {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Hosts with at least one accepted report.
    pub reporting_hosts: usize,
    /// Hosts the collector has never heard from.
    pub silent_hosts: usize,
    /// Fleet throughput: reporting hosts × Eq. 1 over the *merged*
    /// stream (1e9 / merged mean inter-send delta) — derived from
    /// exactly-merged integer cells only, so it is identical at any
    /// fan-in and worker count.
    pub fleet_rps: f64,
    /// Send deltas across the merged fleet stream.
    pub fleet_send_count: u64,
    /// Mean inter-send delta of the merged stream (ns).
    pub fleet_mean_delta_ns: Option<f64>,
    /// Variance of the merged stream's inter-send deltas (ns²).
    pub fleet_var_delta_ns2: Option<f64>,
    /// Matched syscall exits across the fleet.
    pub fleet_events: u64,
    /// p50 of the merged poll-duration histogram (ns).
    pub slack_p50_ns: Option<f64>,
    /// p90 of the merged poll-duration histogram (ns).
    pub slack_p90_ns: Option<f64>,
    /// p99 of the merged poll-duration histogram (ns).
    pub slack_p99_ns: Option<f64>,
    /// Completed NIC-to-drain samples in the merged stack-delay state.
    pub stack_samples: u64,
    /// Drain events whose rx entry was missing, fleet-wide.
    pub stack_misses: u64,
    /// Mean time-in-stack of the merged fleet stream (ns).
    pub stack_mean_ns: Option<f64>,
    /// p50 of the merged time-in-stack histogram (ns).
    pub stack_p50_ns: Option<f64>,
    /// p90 of the merged time-in-stack histogram (ns).
    pub stack_p90_ns: Option<f64>,
    /// p99 of the merged time-in-stack histogram (ns).
    pub stack_p99_ns: Option<f64>,
    /// The `top_k` highest-scoring hosts (score desc, host id asc).
    pub top_saturated: Vec<HostRow>,
    /// The merged sketch's heaviest entities (estimate desc, key asc).
    pub top_entities: Vec<EntityRow>,
    /// Total weight folded into the merged sketch: the fleet-wide
    /// request count the reporting hosts' probes observed.
    pub sketch_total_weight: u64,
    /// Every host's row, in host-id order (collector-local detail; this
    /// never travels a tree edge).
    pub per_host: Vec<HostRow>,
    /// Collector-side accounting (`accepted`/`stale`/`gaps` only; the
    /// run's report fills in the sender/channel ground truth).
    pub accounting: Accounting,
    /// Channel byte ledger (filled in by the run; zeroed in a bare
    /// collector rollup).
    pub transport: Transport,
}

/// The central collector.
#[derive(Debug, Clone)]
pub struct Collector {
    shift: u32,
    min_send_samples: u64,
    slots: Vec<HostSlot>,
    /// The level-1 nodes a fleet run built from the slots, and the shape
    /// they were built to; `None` while the slots hold the envelopes.
    sealed: Option<(NodeShape, Vec<Node>)>,
    unknown_host_reports: u64,
}

impl Collector {
    /// A collector expecting `hosts` hosts whose counters use `shift`.
    pub fn new(hosts: usize, shift: u32, min_send_samples: u64) -> Collector {
        Collector::from_slots(vec![HostSlot::default(); hosts], shift, min_send_samples)
    }

    /// A collector over already-folded `slots`, one per host in host-id
    /// order.
    pub(crate) fn from_slots(slots: Vec<HostSlot>, shift: u32, min_send_samples: u64) -> Collector {
        Collector {
            shift,
            min_send_samples,
            slots,
            sealed: None,
            unknown_host_reports: 0,
        }
    }

    /// A collector over sealed `slots`, one per host in host-id order,
    /// whose level-1 `nodes` were built to `shape`.
    pub(crate) fn sealed(slots: Vec<HostSlot>, nodes: Vec<Node>, shape: NodeShape) -> Collector {
        Collector {
            sealed: Some((shape, nodes)),
            ..Collector::from_slots(slots, shape.shift, shape.min_send_samples)
        }
    }

    /// Per-host slots, in host-id order.
    pub fn slots(&self) -> &[HostSlot] {
        &self.slots
    }

    /// Envelopes dropped because their host id was outside the fleet.
    /// Kept out of the rollup, so a hostile sender cannot change the
    /// report bytes.
    pub fn unknown_host_reports(&self) -> u64 {
        self.unknown_host_reports
    }

    /// Handles one arriving envelope by folding it into its host's slot
    /// ([`HostSlot::receive`]). An envelope naming a host outside the
    /// fleet is dropped and counted in
    /// [`Collector::unknown_host_reports`].
    ///
    /// # Panics
    ///
    /// Panics on a sealed collector (one a fleet run returned): its
    /// nodes no longer hold the reports an arrival would supersede.
    pub fn receive(&mut self, envelope: ReportEnvelope, now: Nanos) {
        assert!(
            self.sealed.is_none(),
            "a sealed collector takes no further arrivals"
        );
        match self.slots.get_mut(envelope.host as usize) {
            Some(slot) => slot.receive(envelope, now),
            None => self.unknown_host_reports += 1,
        }
    }

    /// Rolls the fleet up through a collection tree of the given
    /// `fan_in` on up to `jobs` worker threads, reporting the
    /// `top_entities` heaviest entities of the merged sketch.
    ///
    /// Determinism: hosts map to level-1 nodes and their leaves by id
    /// range, each tree level is built with `map_indexed` (deterministic
    /// in input order) and merged child-group by child-group in index
    /// order, and every floating-point value is derived from
    /// exactly-merged integer cells — so the result (and its JSON
    /// rendering) is bitwise identical for any `jobs`, including 1, and
    /// whether the nodes were sealed by a fleet run or are built here.
    ///
    /// # Panics
    ///
    /// Panics on a sealed collector asked for another `fan_in` or
    /// `top_k` than its nodes were built to.
    pub fn rollup(
        &self,
        jobs: usize,
        fan_in: usize,
        top_k: usize,
        top_entities: usize,
    ) -> FleetRollup {
        let shape = NodeShape::new(self.shift, self.min_send_samples, fan_in, top_k);
        let hosts = self.slots.len();

        // Level 1: the sealed nodes, or each node's work item builds its
        // leaves and merges them at once, so at most `jobs × fan_in` leaf
        // aggregates are live, never one per leaf.
        let built: Vec<Node>;
        let nodes: &[Node] = match &self.sealed {
            Some((sealed, nodes)) => {
                assert_eq!(
                    *sealed, shape,
                    "the collector's level-1 nodes were sealed to another tree shape"
                );
                nodes
            }
            None => {
                built = map_indexed(&shape.nodes(hosts), jobs, |_, &(lo, hi)| {
                    Node::build(&self.slots[lo..hi], lo, shape)
                });
                &built
            }
        };

        // Internal levels: merge `node_fan_in` children at a time until
        // one root remains.
        let mut level = merge_level(nodes, |node| &node.aggregate, jobs, shape);
        while level.len() > 1 {
            level = merge_level(&level, |child| child, jobs, shape);
        }
        let mut root = match level.pop() {
            Some(root) => root,
            None => AggregateReport::empty(self.shift),
        };

        // Second aggregation round: pass 1's matrix is exact at any
        // grouping, but candidate truncation at inner nodes used
        // subtree-local estimates, so the surviving key set can depend
        // on the fan-in. Re-select the root candidates under the global
        // (root-matrix) order: each level-1 node keeps its top-`capacity`
        // keys by that order (still O(K) per edge), and the root selects
        // over the node unions — provably equal to flat selection over
        // every host's keys, hence byte-identical at any fan-in and
        // `jobs`.
        if let Some(mut sketch) = root.sketch.take() {
            let cap = sketch.state().capacity() as usize;
            let node_keys: Vec<Vec<u128>> = map_indexed(nodes, jobs, |_, node| {
                sketch.select_keys(node.keys.iter().copied(), cap)
            });
            sketch.reselect_candidates(node_keys.into_iter().flatten());
            root.sketch = Some(sketch);
        }

        // Collector-local detail: every host's row (never on the wire).
        let per_host: Vec<HostRow> = nodes
            .iter()
            .flat_map(|node| node.rows.iter().copied())
            .collect();

        let top_entity_rows: Vec<EntityRow> = root
            .sketch
            .as_ref()
            .map(|s| {
                s.top_k(top_entities)
                    .into_iter()
                    .map(|(key, estimate)| {
                        let mut bytes = [0u8; 8];
                        bytes.copy_from_slice(&key);
                        EntityRow {
                            entity: u64::from_le_bytes(bytes),
                            estimate,
                        }
                    })
                    .collect()
            })
            .unwrap_or_default();
        let sketch_total_weight = root
            .sketch
            .as_ref()
            .map(TopKSketch::total_weight)
            .unwrap_or(0);

        let fleet_rps = (root.merged.send.count >= self.min_send_samples)
            .then(|| root.merged.send.mean())
            .flatten()
            .filter(|&m| m > 0.0)
            .map(|m| root.reporting as f64 * 1e9 / m)
            .unwrap_or(0.0);

        let quantile = |q: f64| Log2Hist::quantile(root.hist.buckets(), self.shift, q);
        let stack_quantile =
            |q: f64| Log2Hist::quantile(root.stack.hist().buckets(), self.shift, q);
        FleetRollup {
            hosts,
            reporting_hosts: root.reporting,
            silent_hosts: hosts - root.reporting,
            fleet_rps,
            fleet_send_count: root.merged.send.count,
            fleet_mean_delta_ns: root.merged.send.mean(),
            fleet_var_delta_ns2: root.merged.send.variance(),
            fleet_events: root.merged.events,
            slack_p50_ns: quantile(0.50),
            slack_p90_ns: quantile(0.90),
            slack_p99_ns: quantile(0.99),
            stack_samples: root.stack.count(),
            stack_misses: root.stack.misses(),
            stack_mean_ns: root.stack.mean_ns(),
            stack_p50_ns: stack_quantile(0.50),
            stack_p90_ns: stack_quantile(0.90),
            stack_p99_ns: stack_quantile(0.99),
            top_saturated: root.top_rows,
            top_entities: top_entity_rows,
            sketch_total_weight,
            per_host,
            accounting: Accounting {
                accepted: root.accepted,
                stale: root.stale,
                gaps: root.gaps,
                ..Accounting::default()
            },
            transport: Transport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_core::{ScaledAcc, StackCounters};

    fn envelope(host: u32, seq: u64, delta_ns: u64, n: u64) -> ReportEnvelope {
        let mut cum = RawCounters::new(0);
        cum.send = {
            let mut acc = ScaledAcc::new(0);
            for _ in 0..n {
                acc.push(delta_ns);
            }
            acc
        };
        let mut hist = Log2Hist::new(0);
        let mut sketch = TopKSketch::new(8, 8);
        for i in 0..n {
            hist.record(delta_ns / 2);
            // A small entity stream: entity (i % 3) of this host's pid.
            sketch.record(&(u64::from(host) << 32 | (i % 3)).to_le_bytes(), 1);
        }
        // A plausible stack-delay block: every request spent `delta_ns/4`
        // in the ingress stack, plus one rx-less drain.
        let in_stack = (delta_ns / 4).max(1);
        let mut stack_buckets = [0u64; 64];
        stack_buckets[Log2Hist::bucket_of(0, in_stack)] += n;
        let stack = StackDelay::from_parts(
            0,
            stack_buckets,
            StackCounters {
                count: n,
                sum: n * in_stack,
                sumsq: n * in_stack * in_stack,
                misses: 1,
            },
        );
        ReportEnvelope {
            host,
            seq,
            sent_at: Nanos::ZERO,
            windows_observed: seq + 1,
            cum,
            hist,
            sketch,
            stack,
            latest_rps: None,
            saturation: None,
            slack: None,
        }
    }

    #[test]
    fn stale_reports_are_discarded() {
        let mut c = Collector::new(2, 0, 1);
        c.receive(envelope(0, 1, 1_000, 10), Nanos::from_millis(1));
        c.receive(envelope(0, 0, 1_000, 5), Nanos::from_millis(2));
        let slot = &c.slots()[0];
        assert_eq!(slot.accepted, 1);
        assert_eq!(slot.stale, 1);
        // Seq 0 was missing when seq 1 was accepted.
        assert_eq!(slot.gaps, 1);
        assert_eq!(slot.latest.as_ref().map(|e| e.seq), Some(1));
    }

    #[test]
    fn unknown_host_reports_are_dropped_and_counted() {
        let mut c = Collector::new(2, 0, 1);
        c.receive(envelope(0, 0, 1_000, 10), Nanos::ZERO);
        let before = c.rollup(1, 2, 2, 4);
        c.receive(envelope(2, 0, 1_000, 10), Nanos::from_millis(1));
        c.receive(envelope(u32::MAX, 5, 1_000, 10), Nanos::from_millis(2));
        assert_eq!(c.unknown_host_reports(), 2);
        assert_eq!(c.slots().len(), 2);
        assert_eq!(c.slots()[1], HostSlot::default());
        // The count stays out of the rollup.
        assert_eq!(c.rollup(1, 2, 2, 4), before);
    }

    #[test]
    fn gaps_count_skipped_sequence_numbers() {
        let mut c = Collector::new(1, 0, 1);
        c.receive(envelope(0, 0, 1_000, 10), Nanos::ZERO);
        c.receive(envelope(0, 3, 1_000, 40), Nanos::from_millis(5));
        assert_eq!(c.slots()[0].gaps, 2);
        assert_eq!(c.slots()[0].accepted, 2);
    }

    #[test]
    fn rollup_rates_and_merged_streams() {
        let mut c = Collector::new(3, 0, 1);
        // Hosts 0 and 1 report 1ms deltas (1000 rps each); host 2 silent.
        c.receive(envelope(0, 0, 1_000_000, 100), Nanos::ZERO);
        c.receive(envelope(1, 0, 1_000_000, 100), Nanos::ZERO);
        let r = c.rollup(1, 2, 2, 4);
        assert_eq!(r.reporting_hosts, 2);
        assert_eq!(r.silent_hosts, 1);
        // reporting × 1e9 / merged mean = 2 × 1e9 / 1e6.
        assert!((r.fleet_rps - 2_000.0).abs() < 1e-9, "{}", r.fleet_rps);
        assert_eq!(r.fleet_send_count, 200);
        assert_eq!(r.per_host.len(), 3);
        assert_eq!(r.top_saturated.len(), 2);
        assert!(r.slack_p50_ns.is_some());
        // Both hosts' sketches merged: 200 requests total.
        assert_eq!(r.sketch_total_weight, 200);
        assert!(!r.top_entities.is_empty() && r.top_entities.len() <= 4);
        // Both hosts' stack blocks merged: 200 samples, one miss each.
        assert_eq!(r.stack_samples, 200);
        assert_eq!(r.stack_misses, 2);
        assert!((r.stack_mean_ns.unwrap() - 250_000.0).abs() < 1e-9);
        assert!(r.stack_p50_ns.is_some());
    }

    #[test]
    fn rollup_is_identical_across_jobs() {
        let mut c = Collector::new(16, 0, 1);
        for h in 0..16u32 {
            for seq in 0..3 {
                c.receive(
                    envelope(h, seq, 500_000 + u64::from(h) * 1_000, 50 * (seq + 1)),
                    Nanos::from_millis(seq),
                );
            }
        }
        let a = c.rollup(1, 8, 5, 8);
        let b = c.rollup(4, 8, 5, 8);
        let d = c.rollup(32, 8, 5, 8);
        assert_eq!(a, b);
        assert_eq!(a, d);
    }

    #[test]
    fn rollup_is_identical_across_fan_ins() {
        let mut c = Collector::new(24, 0, 1);
        for h in 0..24u32 {
            for seq in 0..2 {
                c.receive(
                    envelope(h, seq, 400_000 + u64::from(h) * 2_000, 40 * (seq + 1)),
                    Nanos::from_millis(seq),
                );
            }
        }
        // Trees of depth 1 (fan-in ≥ hosts) through deep binary trees:
        // every integer-derived root quantity is exactly invariant.
        let wide = c.rollup(1, 24, 5, 8);
        for fan_in in [1, 2, 3, 4, 8, 16] {
            let other = c.rollup(2, fan_in, 5, 8);
            assert_eq!(wide, other, "fan_in={fan_in} changed the root rollup");
        }
    }

    #[test]
    fn aggregate_wire_bytes_independent_of_subtree_size() {
        let mut c = Collector::new(32, 0, 1);
        for h in 0..32u32 {
            c.receive(envelope(h, 0, 1_000_000, 60), Nanos::ZERO);
        }
        let shape = NodeShape::new(0, 1, 8, 3);
        let leaf = |hosts: usize| {
            let slots = &c.slots()[..hosts];
            let rows: Vec<HostRow> = (0..hosts).map(|h| host_row(&slots[h], h, 1)).collect();
            aggregate_leaf(slots, &rows, shape)
        };
        let small = leaf(4);
        let large = leaf(32);
        assert_eq!(small.top_rows.len(), 3, "rows truncate to top_k");
        assert_eq!(small.wire_bytes(), large.wire_bytes());
        assert_eq!(large.hosts, 32);
    }
}
