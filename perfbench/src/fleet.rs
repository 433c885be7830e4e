//! The storage application path: `fleet_ycsb` and `chain_put_get`.
//!
//! Both run rounds. A round builds a fresh world, runs one seeded batch
//! of operations through it, and checks every answer. Every round of a
//! run replays the same seed, so the simulation's tick results repeat
//! exactly and only the wall-clock figures vary; a run repeats rounds
//! until its time is up and reports medians over them.
//!
//! The untraced world is the program's own [`Fleet`]. The traced world
//! is [`Mirror`]: the same public parts, stepped the way `Fleet::step`
//! steps them, with a span around each call. A traced pass must
//! reproduce the untraced pass's tick results exactly, which shows the
//! mirror is faithful.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use veros_blockstore::Response;
use veros_cluster::node::{COORD_PORT, NODE_CTRL};
use veros_cluster::workload::{self, Arrival, WorkloadConfig};
use veros_cluster::{
    Coordinator, Fleet, FleetClient, FleetConfig, FleetNode, Op, OpResult, ShardMap,
};
use veros_net::ip::IpAddr;
use veros_net::sim::{FaultPlan, Network};
use veros_telemetry::HistogramSnapshot;

use crate::report::{end_to_end, percentile, tail_percentile, Metric, Outcome, Slices, SETUPS};
use crate::rng::Rng;
use crate::trace::{LayerSplit, Tracer};

/// Operations in one `fleet_ycsb` round.
pub const YCSB_ROUND_OPS: usize = 16_000;

/// Put-then-get pairs in one `chain_put_get` round. More puts than a
/// 4 MiB journal holds at 1 KiB, so the round runs into the journal's
/// "no space left" defect; those puts count as failed.
pub const CHAIN_ROUND_PAIRS: usize = 2000;

/// Distinct keys of both workloads.
const KEYS: u64 = 512;

/// `chain_put_get` value size: the largest power of two the wire
/// carries (see [`max_fleet_value_bytes`]).
const CHAIN_VALUE_BYTES: usize = 1024;

/// Ticks after the last arrival before a `fleet_ycsb` round stops
/// waiting; operations still open then count as failed.
const DRAIN_BUDGET: u64 = 200_000;

/// Ticks a blocking operation may take before it counts as failed.
const OP_BUDGET: u64 = 20_000;

/// Ticks the failover probe's put and read may each take: twice the
/// failover ceiling `blockstore_hotpath` gates on. An operation still
/// open then counts as failed.
const PROBE_BUDGET: u64 = 2_000;

/// The `fleet_ycsb` geometry: the `blockstore_hotpath` fleet (1000
/// clients, 8 nodes, 3-way chains, 64 shards, 2 MiB disks) on a
/// lightly lossy wire.
pub fn ycsb_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        nodes: 8,
        replication: 3,
        shards: 64,
        vnodes: 16,
        clients: 1000,
        plan: FaultPlan {
            loss: (1, 100),
            duplicate: (1, 200),
            reorder: false,
        },
        seed,
        sectors: 1 << 12,
    }
}

/// The `fleet_ycsb` schedule: zipf 0.99 over 512 keys, 80/18/2
/// get/put/delete, 128 B values.
pub fn ycsb_workload(seed: u64, ops: usize) -> WorkloadConfig {
    WorkloadConfig {
        client_hosts: 1000,
        keyspace: KEYS as u32,
        ops,
        seed,
        ..WorkloadConfig::default()
    }
}

/// The `chain_put_get` geometry: one 3-way chain over 3 nodes, default
/// 4 MiB disks, a reliable wire, one client.
pub fn chain_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        nodes: 3,
        replication: 3,
        shards: 1,
        vnodes: 8,
        clients: 1,
        plan: FaultPlan::reliable(),
        seed,
        ..FleetConfig::default()
    }
}

// --- the world, untraced and traced -------------------------------------

/// What a round needs from a world.
pub trait World {
    /// One tick.
    fn step(&mut self);
    /// Current tick.
    fn now(&self) -> u64;
    /// The client hosts.
    fn clients(&mut self) -> &mut [FleetClient];
    /// Fail-stops node `i`.
    fn kill_node(&mut self, i: u16);
    /// The chain serving `key`.
    fn chain_for_key(&self, key: &str) -> Vec<u16>;
    /// Submits `op` on client `c` and steps until it completes.
    fn run_op(&mut self, c: usize, op: Op, budget: u64) -> Option<OpResult>;
}

impl World for Fleet {
    fn step(&mut self) {
        Fleet::step(self);
    }
    fn now(&self) -> u64 {
        Fleet::now(self)
    }
    fn clients(&mut self) -> &mut [FleetClient] {
        &mut self.clients
    }
    fn kill_node(&mut self, i: u16) {
        Fleet::kill_node(self, i);
    }
    fn chain_for_key(&self, key: &str) -> Vec<u16> {
        Fleet::chain_for_key(self, key)
    }
    fn run_op(&mut self, c: usize, op: Op, budget: u64) -> Option<OpResult> {
        Fleet::run_op(self, c, op, budget)
    }
}

/// Layers of a traced fleet pass.
const L_NET: usize = 0;
const L_COORD: usize = 1;
const L_NODE: usize = 2;
const L_CLIENT: usize = 3;
const LAYERS: usize = 4;

/// The traced world: `Fleet` rebuilt from its public parts, with a span
/// around `Network::step`, `Coordinator::step`, each `FleetNode::poll`
/// and each sweep of `FleetClient::poll` over all clients. One span per
/// sweep, not per client: a thousand idle polls of ~40 ns each would
/// otherwise cost as much to time as to run.
pub struct Mirror {
    net: Network,
    nodes: Vec<FleetNode>,
    coordinator: Coordinator,
    clients: Vec<FleetClient>,
    map: ShardMap,
    alive: Vec<bool>,
    now: u64,
    tr: Tracer,
}

impl Mirror {
    /// Builds the world exactly as `Fleet::new` does.
    pub fn new(cfg: FleetConfig) -> Self {
        let n = cfg.nodes;
        let mut net = Network::new_fleet(n + 1 + cfg.clients, n + 1, cfg.plan, cfg.seed);
        let map = ShardMap::new(n, cfg.replication, cfg.shards, cfg.vnodes);
        let coord_addr = (IpAddr::host(n), COORD_PORT);
        let nodes = (0..n)
            .map(|i| {
                let store = veros_blockstore::BlockStore::format(cfg.sectors);
                FleetNode::new(i, store, map.clone(), net.host(i as usize), coord_addr)
            })
            .collect();
        let csock = net
            .host(n as usize)
            .bind(COORD_PORT)
            .expect("coordinator port is free");
        let targets = (0..n).map(|i| (IpAddr::host(i), NODE_CTRL)).collect();
        let coordinator = Coordinator::new(csock, n, targets);
        let clients = (0..cfg.clients)
            .map(|c| FleetClient::new(n + 1 + c, map.clone(), net.host((n + 1 + c) as usize)))
            .collect();
        Self {
            net,
            nodes,
            coordinator,
            clients,
            map,
            alive: vec![true; n as usize],
            now: 0,
            tr: Tracer::new(LAYERS, &[]),
        }
    }
}

impl World for Mirror {
    fn step(&mut self) {
        let Self {
            net,
            nodes,
            coordinator,
            clients,
            alive,
            now,
            tr,
            ..
        } = self;
        let n = nodes.len();
        tr.span(L_NET, || net.step());
        tr.span(L_COORD, || coordinator.step(net.host(n), *now));
        for (i, node) in nodes.iter_mut().enumerate() {
            if alive[i] {
                tr.span(L_NODE, || node.poll(net.host(i), *now));
            }
        }
        tr.span(L_CLIENT, || {
            for (c, client) in clients.iter_mut().enumerate() {
                client.poll(net.host(n + 1 + c), *now);
            }
        });
        *now += 1;
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn clients(&mut self) -> &mut [FleetClient] {
        &mut self.clients
    }
    fn kill_node(&mut self, i: u16) {
        self.alive[i as usize] = false;
    }
    fn chain_for_key(&self, key: &str) -> Vec<u16> {
        self.map.chain_for_key(key, &self.coordinator.view().live)
    }
    fn run_op(&mut self, c: usize, op: Op, budget: u64) -> Option<OpResult> {
        let done = self.clients[c].results.len();
        let now = self.now;
        self.clients[c].submit(now, op);
        for _ in 0..budget {
            self.step();
            if self.clients[c].results.len() > done {
                return self.clients[c].results.last().cloned();
            }
        }
        None
    }
}

/// The tick-level outcome of one operation; a traced pass must match
/// the untraced one on every field.
pub type TickRecord = (u64, u64, bool, u32);

fn tick_record(r: &OpResult) -> TickRecord {
    (r.issued_at, r.completed_at, r.ok, r.retries)
}

// --- fleet_ycsb -----------------------------------------------------------

/// One `fleet_ycsb` round.
pub struct YcsbRound {
    /// Operations scheduled, plus the failover probe's put and read.
    pub attempted: u64,
    /// Attempted operations that completed successfully.
    pub ok: u64,
    /// Completed operations, in completion order per client.
    pub results: Vec<OpResult>,
    /// Wall-clock stamp at the start of each tick, plus one after the
    /// last, relative to the start of the round's stepping.
    pub tick_ns: Vec<u64>,
    /// Wall time of the scheduled phase (arrivals until drained).
    pub wall: Duration,
    /// Wall time of the failover probe after it.
    pub probe_wall: Duration,
    /// Ticks from the chain-tail kill to the answered read.
    pub failover_ticks: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
}

/// Runs the scheduled operations of one round on `world`, then the
/// failover probe.
pub fn ycsb_round<W: World>(world: &mut W, sched: Vec<Arrival>) -> YcsbRound {
    let ops = sched.len();
    let attempted = ops as u64 + 2;
    let last_arrival = sched.last().map_or(0, |a| a.tick);
    for a in sched {
        world.clients()[a.client].submit(a.tick, a.op);
    }
    let t0 = Instant::now();
    let mut tick_ns = Vec::with_capacity(2 * ops + 1);
    while world.now() < last_arrival + DRAIN_BUDGET {
        tick_ns.push(t0.elapsed().as_nanos() as u64);
        world.step();
        if world.now().is_multiple_of(16) && world.clients().iter().all(FleetClient::idle) {
            break;
        }
    }
    tick_ns.push(t0.elapsed().as_nanos() as u64);
    let wall = t0.elapsed();
    let results: Vec<OpResult> = world
        .clients()
        .iter()
        .flat_map(|c| c.results.iter().cloned())
        .collect();
    let mut errors = check_ycsb(&results);
    let mut ok = results.iter().filter(|r| r.ok).count() as u64;

    // Failover: write the hottest key, fail-stop the tail serving its
    // reads, and read it back through the promoted chain.
    let probe_start = Instant::now();
    let hot = "ycsb-0".to_string();
    let payload = vec![0xfa; 128];
    let acked = world
        .run_op(
            0,
            Op::Put {
                key: hot.clone(),
                data: payload.clone(),
            },
            PROBE_BUDGET,
        )
        .is_some_and(|r| r.ok);
    let tail = world.chain_for_key(&hot).last().copied().unwrap_or(0);
    let killed_at = world.now();
    world.kill_node(tail);
    let read = world.run_op(0, Op::Get { key: hot }, PROBE_BUDGET);
    let failover_ticks = world.now() - killed_at;
    let probe_wall = probe_start.elapsed();
    ok += u64::from(acked);
    if let Some(r) = read.filter(|r| r.ok) {
        ok += 1;
        if acked && r.read.as_deref() != Some(&payload[..]) {
            errors.push(format!(
                "failover probe: read after the tail died returned {:?}",
                r.resp
            ));
        }
    }
    YcsbRound {
        attempted,
        ok,
        results,
        tick_ns,
        wall,
        probe_wall,
        failover_ticks,
        errors,
    }
}

/// Every successful get returns `NotFound` or its key's fill pattern
/// (`rank % 251`, the schedule's only value for that key).
pub fn check_ycsb(results: &[OpResult]) -> Vec<String> {
    let mut errors = Vec::new();
    for r in results.iter().filter(|r| r.ok) {
        let Op::Get { key } = &r.op else { continue };
        let ok = match &r.resp {
            Response::NotFound { .. } => true,
            Response::GetOk { .. } => {
                let rank: u64 = key.trim_start_matches("ycsb-").parse().unwrap_or(u64::MAX);
                r.read.as_deref() == Some(&vec![(rank % 251) as u8; 128][..])
            }
            _ => false,
        };
        if !ok && errors.len() < 4 {
            errors.push(format!(
                "fleet_ycsb: get {key} returned {:?} / {:?}",
                r.resp, r.read
            ));
        }
    }
    errors
}

impl YcsbRound {
    fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Wall latency of each successful operation, µs: from the start of
    /// its scheduled arrival tick to the end of its completion tick.
    fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.results.iter().filter(|r| r.ok).map(|r| {
            let end = self.tick_ns[(r.completed_at + 1) as usize];
            (end - self.tick_ns[r.issued_at as usize]) as f64 / 1e3
        })
    }

    fn ticks(&self) -> u64 {
        self.tick_ns.len() as u64 - 1
    }
}

/// The untraced `fleet_ycsb` run.
pub fn ycsb_run(seed: u64, budget: Duration) -> Outcome {
    let setup = || {
        (
            Fleet::new(ycsb_fleet(seed)),
            workload::schedule(&ycsb_workload(seed, YCSB_ROUND_OPS)),
        )
    };
    rounds(budget, setup, |(mut fleet, sched), out, lat| {
        let round = ycsb_round(&mut fleet, sched);
        out.attempted += round.attempted;
        out.failed += round.failed();
        round.errors.iter().for_each(|e| out.error(e.clone()));
        round.latencies_us().for_each(|v| lat.push(v));
        (
            round.results.iter().filter(|r| r.ok).count() as u64,
            round.wall,
        )
    })
}

/// Sets up and runs rounds until another would overrun `budget`, each
/// round one latency slice; `round` returns its successful operations
/// and measured time. Times at least [`SETUPS`] set-ups.
fn rounds<S>(
    budget: Duration,
    setup: impl Fn() -> S,
    mut round: impl FnMut(S, &mut Outcome, &mut Slices) -> (u64, Duration),
) -> Outcome {
    let start = Instant::now();
    let (mut out, mut lat) = (Outcome::default(), Slices::default());
    let (mut setups, mut done, mut busy) = (Vec::new(), 0, Duration::ZERO);
    // Another round fits when the mean round so far still fits.
    let fits = |rounds: usize| {
        let spent = start.elapsed();
        spent + spent / rounds as u32 <= budget
    };
    while setups.is_empty() || fits(setups.len()) {
        let t = Instant::now();
        let world = setup();
        setups.push(t.elapsed().as_secs_f64());
        let (ok, secs) = round(world, &mut out, &mut lat);
        done += ok;
        busy += secs;
        lat.close();
    }
    while setups.len() < SETUPS {
        let t = Instant::now();
        drop(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    end_to_end(&mut out, &mut setups, done, busy.as_secs_f64(), &lat);
    out
}

/// Telemetry counters a traced fleet pass reads, before and after.
struct FleetCounters {
    retransmits: u64,
    stalls: u64,
    wal_bytes: u64,
    put: HistogramSnapshot,
    get: HistogramSnapshot,
    delete: HistogramSnapshot,
    lag: HistogramSnapshot,
}

impl FleetCounters {
    fn read() -> Self {
        Self {
            retransmits: veros_net::metrics::RETRANSMITS.get(),
            stalls: veros_net::metrics::WINDOW_STALLS.get(),
            wal_bytes: veros_fs::metrics::WAL_BYTES.get(),
            put: veros_blockstore::metrics::PUT_LATENCY.snapshot(),
            get: veros_blockstore::metrics::GET_LATENCY.snapshot(),
            delete: veros_blockstore::metrics::DELETE_LATENCY.snapshot(),
            lag: veros_cluster::metrics::REPLICATION_LAG.snapshot(),
        }
    }

    /// Store time (ns) recorded since `earlier`.
    fn store_ns(&self, earlier: &Self) -> u64 {
        self.put.diff(&earlier.put).sum
            + self.get.diff(&earlier.get).sum
            + self.delete.diff(&earlier.delete).sum
    }
}

/// Splits a mirror's fleet spans into layer self times: the store's
/// time, read from its latency histograms, runs inside node polls.
fn fleet_self_times(m: &mut Mirror, store_ns: u64) -> Vec<(&'static str, u64)> {
    let node = m.tr.layer(L_NODE).ns;
    vec![
        ("net.sim", m.tr.layer(L_NET).ns),
        ("cluster.coordinator", m.tr.layer(L_COORD).ns),
        ("cluster.node", node.saturating_sub(store_ns)),
        ("blockstore.store", store_ns),
        ("cluster.client", m.tr.layer(L_CLIENT).ns),
    ]
}

/// The traced `fleet_ycsb` pass: one untraced and one traced round on
/// the same seed, the tick results compared, and the layer split.
pub fn ycsb_trace(seed: u64, ops: usize) -> Outcome {
    let mut out = Outcome::default();
    let sched = workload::schedule(&ycsb_workload(seed, ops));
    let plain = ycsb_round(&mut Fleet::new(ycsb_fleet(seed)), sched.clone());
    let mut mirror = Mirror::new(ycsb_fleet(seed));
    let before = FleetCounters::read();
    let traced = ycsb_round(&mut mirror, sched);
    let after = FleetCounters::read();
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed() + traced.failed();
    plain
        .errors
        .iter()
        .chain(&traced.errors)
        .for_each(|e| out.error(e.clone()));
    if !plain
        .results
        .iter()
        .map(tick_record)
        .eq(traced.results.iter().map(tick_record))
        || plain.failover_ticks != traced.failover_ticks
    {
        out.error("fleet_ycsb: the traced pass did not reproduce the untraced tick results".into());
    }

    let s = workload::stats(&plain.results, plain.ticks());
    let done = s.completed.max(1) as f64;
    let ticks = traced.ticks() as f64;
    // The spans cover the failover probe's ticks too.
    let stepped = mirror.now() as f64;
    let (delivered, dropped) = mirror.net.wire_stats();
    let store_ns = after.store_ns(&before);
    let client_ns = mirror.tr.layer(L_CLIENT).ns as f64;
    let node_ns = mirror.tr.layer(L_NODE).ns as f64;
    let net_ns = mirror.tr.layer(L_NET).ns as f64;
    let lag = after.lag.diff(&before.lag);
    let clients = ycsb_fleet(seed).clients as f64;
    const OPS: &str = "ops_per_s on fleet_ycsb";
    const TAIL: &str = "p90_us on fleet_ycsb";
    out.metrics.extend([
        Metric::new(
            "fleet_ycsb.p50_ticks",
            s.p50 as f64,
            "ticks",
            s.completed as usize,
        ),
        Metric::new(
            "fleet_ycsb.p99_ticks",
            s.p99 as f64,
            "ticks",
            s.completed as usize,
        ),
        Metric::new(
            "fleet_ycsb.failover_ticks",
            plain.failover_ticks as f64,
            "ticks",
            1,
        ),
        Metric::new(
            "fleet_ycsb.failed_ratio",
            plain.failed() as f64 / plain.attempted as f64,
            "ratio",
            plain.attempted as usize,
        ),
        Metric::layer(
            "cluster.fleet.step_us",
            plain.wall.as_secs_f64() * 1e6 / plain.ticks() as f64,
            "us",
            plain.ticks() as usize,
            OPS,
        ),
        Metric::layer(
            "cluster.client.poll_us_per_tick",
            client_ns / 1e3 / stepped,
            "us",
            stepped as usize,
            OPS,
        ),
        Metric::layer(
            "cluster.client.polls_per_op",
            clients * ticks / done,
            "count",
            s.completed as usize,
            OPS,
        ),
        Metric::layer(
            "cluster.node.poll_us_per_tick",
            node_ns / 1e3 / stepped,
            "us",
            stepped as usize,
            OPS,
        ),
        Metric::layer(
            "cluster.client.retries_per_op",
            s.retries as f64 / done,
            "count",
            s.completed as usize,
            TAIL,
        ),
        Metric::layer(
            "cluster.replication.lag_p99_ticks",
            bucket_quantile(&lag, 0.99),
            "ticks",
            lag.count as usize,
            TAIL,
        ),
        Metric::layer(
            "net.sim.step_us_per_tick",
            net_ns / 1e3 / stepped,
            "us",
            stepped as usize,
            OPS,
        ),
        Metric::layer(
            "net.sim.frames_per_op",
            delivered as f64 / done,
            "count",
            s.completed as usize,
            OPS,
        ),
        Metric::layer(
            "net.sim.drops_per_op",
            dropped as f64 / done,
            "count",
            s.completed as usize,
            OPS,
        ),
        Metric::layer(
            "net.rdt.retransmits_per_op",
            (after.retransmits - before.retransmits) as f64 / done,
            "count",
            s.completed as usize,
            TAIL,
        ),
        Metric::layer(
            "net.rdt.window_stalls",
            (after.stalls - before.stalls) as f64,
            "count",
            1,
            TAIL,
        ),
    ]);
    let self_ns = fleet_self_times(&mut mirror, store_ns);
    // The spans cover the failover probe's steps too.
    LayerSplit {
        workload: "fleet_ycsb",
        self_ns,
        traced_wall: traced.wall + traced.probe_wall,
        untraced_wall: plain.wall + plain.probe_wall,
        ops: traced.attempted,
    }
    .report(&mut out);
    out
}

/// Upper bound of the log2 bucket holding quantile `q` of a histogram
/// delta (0 when it is empty).
pub fn bucket_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let target = (q * h.count as f64).ceil() as u64;
    let mut seen = 0;
    for &(bucket, n) in &h.buckets {
        seen += n;
        if seen >= target.max(1) {
            return veros_telemetry::histogram::bucket_upper_bound(bucket) as f64;
        }
    }
    0.0
}

// --- chain_put_get ----------------------------------------------------------

/// One `chain_put_get` round: `pairs` times, a put of a 1 KiB value to
/// a uniform key, then a get of another uniform key.
pub struct ChainRound {
    /// `(put, get)` results and their wall latencies; `None` when the
    /// operation never completed.
    pub pairs: Vec<[(Option<OpResult>, Duration); 2]>,
    /// Wall time of the round's operations.
    pub wall: Duration,
    /// Output-check failures.
    pub errors: Vec<String>,
}

/// The value of the `version`-th put to `key`.
fn chain_value(key: u64, version: u64) -> Vec<u8> {
    (0..CHAIN_VALUE_BYTES as u64)
        .map(|i| (key * 31 + version * 7 + i) as u8)
        .collect()
}

/// The operations of one round: `pairs` times a put to a uniform key
/// and a get of another uniform key.
pub fn chain_ops(seed: u64, pairs: usize) -> Vec<[Op; 2]> {
    let mut rng = Rng::new(seed, 2);
    let mut versions = vec![0u64; KEYS as usize];
    (0..pairs)
        .map(|_| {
            let k = rng.below(KEYS);
            versions[k as usize] += 1;
            let put = Op::Put {
                key: format!("chain-{k}"),
                data: chain_value(k, versions[k as usize]),
            };
            [
                put,
                Op::Get {
                    key: format!("chain-{}", rng.below(KEYS)),
                },
            ]
        })
        .collect()
}

/// Runs one round's operations on `world`, closed loop on one client.
pub fn chain_round<W: World>(world: &mut W, ops: Vec<[Op; 2]>) -> ChainRound {
    let mut out = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    for [put, get] in ops {
        let t = Instant::now();
        let p = world.run_op(0, put, OP_BUDGET);
        let put_lat = t.elapsed();
        let t = Instant::now();
        let g = world.run_op(0, get, OP_BUDGET);
        out.push([(p, put_lat), (g, t.elapsed())]);
    }
    let wall = t0.elapsed();
    let errors = check_chain(&out);
    ChainRound {
        pairs: out,
        wall,
        errors,
    }
}

/// The single-map oracle: every get returns the last acknowledged put
/// to its key, or `NotFound` when there is none.
pub fn check_chain(pairs: &[[(Option<OpResult>, Duration); 2]]) -> Vec<String> {
    let mut oracle: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut errors = Vec::new();
    for [(put, _), (get, _)] in pairs {
        if let Some(r) = put.as_ref().filter(|r| r.ok) {
            if let Op::Put { key, data } = &r.op {
                oracle.insert(key.clone(), data.clone());
            }
        }
        let Some(r) = get.as_ref().filter(|r| r.ok) else {
            continue;
        };
        let expect = oracle.get(r.op.key());
        let ok = match &r.resp {
            Response::GetOk { .. } => expect.is_some() && r.read.as_ref() == expect,
            Response::NotFound { .. } => expect.is_none(),
            _ => false,
        };
        if !ok && errors.len() < 4 {
            errors.push(format!(
                "chain_put_get: get {} returned {:?} ({} bytes), oracle holds {} bytes",
                r.op.key(),
                r.resp,
                r.read.as_ref().map_or(0, Vec::len),
                expect.map_or(0, Vec::len)
            ));
        }
    }
    errors
}

impl ChainRound {
    fn ok(op: &(Option<OpResult>, Duration)) -> bool {
        op.0.as_ref().is_some_and(|r| r.ok)
    }

    /// Operations that completed successfully.
    pub fn ok_ops(&self) -> u64 {
        self.pairs
            .iter()
            .flatten()
            .filter(|op| Self::ok(op))
            .count() as u64
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        2 * self.pairs.len() as u64
    }

    /// Wall latencies (µs) of successful operations of one side
    /// (0 = put, 1 = get).
    fn side_us(&self, side: usize) -> Vec<f64> {
        self.pairs
            .iter()
            .map(|p| &p[side])
            .filter(|op| Self::ok(op))
            .map(|op| op.1.as_secs_f64() * 1e6)
            .collect()
    }

    fn records(&self) -> Vec<Option<TickRecord>> {
        self.pairs
            .iter()
            .flatten()
            .map(|(r, _)| r.as_ref().map(tick_record))
            .collect()
    }
}

/// The untraced `chain_put_get` run. A request is one put and the get
/// after it, so its latency is their sum; only pairs whose two
/// operations both succeeded have one.
pub fn chain_run(seed: u64, budget: Duration) -> Outcome {
    let setup = || {
        (
            Fleet::new(chain_fleet(seed)),
            chain_ops(seed, CHAIN_ROUND_PAIRS),
        )
    };
    rounds(budget, setup, |(mut fleet, ops), out, lat| {
        let round = chain_round(&mut fleet, ops);
        out.attempted += round.attempted();
        out.failed += round.attempted() - round.ok_ops();
        round.errors.iter().for_each(|e| out.error(e.clone()));
        for p in round.pairs.iter().filter(|p| p.iter().all(ChainRound::ok)) {
            lat.push((p[0].1 + p[1].1).as_secs_f64() * 1e6);
        }
        (round.ok_ops(), round.wall)
    })
}

/// The traced `chain_put_get` pass.
pub fn chain_trace(seed: u64, pairs: usize) -> Outcome {
    let mut out = Outcome::default();
    let ops = chain_ops(seed, pairs);
    let plain = chain_round(&mut Fleet::new(chain_fleet(seed)), ops.clone());
    let mut mirror = Mirror::new(chain_fleet(seed));
    let before = FleetCounters::read();
    let traced = chain_round(&mut mirror, ops);
    let after = FleetCounters::read();
    out.attempted = plain.attempted() + traced.attempted();
    out.failed = out.attempted - plain.ok_ops() - traced.ok_ops();
    plain
        .errors
        .iter()
        .chain(&traced.errors)
        .for_each(|e| out.error(e.clone()));
    if plain.records() != traced.records() {
        out.error(
            "chain_put_get: the traced pass did not reproduce the untraced tick results".into(),
        );
    }
    let (mut put, mut get) = (plain.side_us(0), plain.side_us(1));
    let (n_put, n_get) = (put.len(), get.len());
    let puts_acked = traced.side_us(0).len() as f64;
    let user_bytes = puts_acked * CHAIN_VALUE_BYTES as f64 * chain_fleet(seed).replication as f64;
    let wal = (after.wal_bytes - before.wal_bytes) as f64;
    let disk_bytes = chain_fleet(seed).sectors as f64 * 512.0;
    let store_ns = after.store_ns(&before);
    let (tail_put, tail_get) = (tail_percentile(99.0, n_put), tail_percentile(99.0, n_get));
    out.metrics.extend([
        Metric::new(
            "chain_put_get.put_p50_us",
            percentile(&mut put, 50.0),
            "us",
            n_put,
        ),
        Metric::new(
            "chain_put_get.put_p99_us",
            percentile(&mut put, tail_put),
            "us",
            n_put,
        ),
        Metric::new(
            "chain_put_get.get_p50_us",
            percentile(&mut get, 50.0),
            "us",
            n_get,
        ),
        Metric::new(
            "chain_put_get.get_p99_us",
            percentile(&mut get, tail_get),
            "us",
            n_get,
        ),
        Metric::new(
            "chain_put_get.failed_ratio",
            (plain.attempted() - plain.ok_ops()) as f64 / plain.attempted() as f64,
            "ratio",
            plain.attempted() as usize,
        ),
        Metric::layer(
            "fs.journal.wal_bytes_per_user_byte",
            wal / user_bytes.max(1.0),
            "ratio",
            puts_acked as usize,
            "p50_us on chain_put_get",
        ),
        // Every node of the one chain journals every put, so each
        // node's journal fills alike: the fullest is the mean.
        Metric::layer(
            "fs.journal.fill_ratio_max",
            wal / chain_fleet(seed).nodes as f64 / disk_bytes,
            "ratio",
            chain_fleet(seed).nodes as usize,
            "attempted/failed on chain_put_get and fleet_ycsb",
        ),
    ]);
    let self_ns = fleet_self_times(&mut mirror, store_ns);
    LayerSplit {
        workload: "chain_put_get",
        self_ns,
        traced_wall: traced.wall,
        untraced_wall: plain.wall,
        ops: traced.attempted(),
    }
    .report(&mut out);
    out
}

/// The largest put value a throwaway [`Fleet::pair`] completes within a
/// bounded budget, found by bisection. Larger values are silently
/// dropped by the NIC and wedge the client.
pub fn max_fleet_value_bytes(seed: u64) -> u64 {
    let completes = |bytes: u64| {
        let mut f = Fleet::pair(FaultPlan::reliable(), seed);
        let op = Op::Put {
            key: "probe".into(),
            data: vec![0x5a; bytes as usize],
        };
        f.run_op(0, op, 2_000).is_some_and(|r| r.ok)
    };
    let (mut lo, mut hi) = (1u64, 1 << 16);
    if !completes(lo) {
        return 0;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if completes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}
