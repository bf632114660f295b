//! Per-layer drivers: loops over each layer's public functions, outside
//! any engine, that time one call. Every driver runs at least ten
//! batches and reports the median batch, as ns, us or ms per call.
//!
//! The inputs are fixed (own seed, sizes taken from the workloads that
//! load the layer), so two commits time the same calls. A driver binds
//! to the layer's public API as it is today; the list of those bindings
//! is in the README.

use std::hint::black_box;
use std::time::Instant;

use gnutella::topology::Topology;
use gnutella::wavefront::{self, VisitTable};
use guess::addr::{AddrAllocator, PeerAddr, SlotId};
use guess::bad_registry::BadRegistry;
use guess::capacity::CapacityMeter;
use guess::entry::CacheEntry;
use guess::link_cache::CacheArena;
use guess::policy::{self, ProbeQueue, ReplacementPolicy, SelectionPolicy};
use guess::push::{Interest, PushPlane};
use guess_bench::experiments;
use guess_bench::runner::Ctx;
use guess_bench::scale::Scale;
use simkit::dist::{DiscreteDist, Zipf};
use simkit::event::EventQueue;
use simkit::lanes::{LaneCtx, LaneKernel, LaneSimulation};
use simkit::rng::RngStream;
use simkit::sim::{Kernel, KernelParams, SimCtx, Simulation};
use simkit::stats::{Histogram, Summary};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{NullSink, TraceSink};
use workload::content::{Catalog, CatalogParams, LibraryArena};
use workload::lifetime::LifetimeModel;
use workload::query::QueryModel;

use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::LayerValue;

/// Seed of every driver's inputs; drivers time fixed calls, so `--seed`
/// does not reach them.
const SEED: u64 = 0xD21E;

/// How much work a driver run does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches per driver; the median batch is reported.
    batches: usize,
    /// Divisor of every batch size and structure size.
    shrink: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batches: 11,
        shrink: 1,
    };
    /// `--smoke`: every driver still runs, on a tenth of the work.
    pub const SMOKE: Effort = Effort {
        batches: 3,
        shrink: 10,
    };

    fn n(self, full: usize) -> usize {
        (full / self.shrink).max(1)
    }

    /// Median over the batches of `batch() / calls`, where `batch`
    /// returns the seconds it timed.
    fn per_call(self, calls: usize, mut batch: impl FnMut() -> f64) -> f64 {
        let samples: Vec<f64> = (0..self.batches).map(|_| batch() / calls as f64).collect();
        median(&samples)
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// A driver times one layer's calls and returns them under their
/// registered names.
type Driver = fn(Effort) -> Vec<LayerValue>;

/// Runs every driver, one span each, and returns the timings under
/// their registered names.
pub fn run_drivers(effort: Effort, tracer: &mut Tracer) -> Vec<LayerValue> {
    tracer.set_workload("drivers");
    let drivers: [(&str, Driver); 18] = [
        ("simkit.event", event_queue),
        ("simkit.sim", kernel_dispatch),
        ("simkit.lanes", lane_kernel),
        ("simkit.rng", rng),
        ("simkit.dist", dist),
        ("simkit.stats", stats),
        ("workload.content", content),
        ("workload.lifetime", lifetime),
        ("guess.policy", policy),
        ("guess.link_cache", link_cache),
        ("guess.push", push_plane),
        ("guess.bad_registry", bad_registry),
        ("guess.capacity", capacity),
        ("guess.graph", graph),
        ("gnutella.wavefront", wavefront),
        ("gnutella.topology", topology),
        ("bench.runner", runner),
        ("bench.report", report),
    ];
    tracer.span("drivers", |tracer| {
        let mut out = Vec::new();
        for (layer, driver) in drivers {
            out.extend(tracer.span(layer, |_| driver(effort)));
        }
        out
    })
}

/// `hold`: pop the earliest event and schedule it again one ping
/// interval (30 s) later, with `pending` events in the queue — the
/// classic priority-queue hold model on GUESS's timer shape.
fn hold_ns(effort: Effort, pending: usize, holds: usize) -> f64 {
    let mut rng = RngStream::from_seed(SEED, "hold");
    let mut queue: EventQueue<u32> = EventQueue::new();
    // Latest first: the untimed fill then appends to each bucket.
    let mut times: Vec<f64> = (0..pending).map(|_| rng.f64() * 30.0).collect();
    times.sort_by(|a, b| b.total_cmp(a));
    for (i, at) in times.into_iter().enumerate() {
        queue.schedule(SimTime::from_secs(at), i as u32);
    }
    let delta = SimDuration::from_secs(30.0);
    effort.per_call(holds, || {
        timed(|| {
            for _ in 0..holds {
                let (now, ev) = queue.pop().expect("queue stays full");
                queue.schedule(now + delta, black_box(ev));
            }
        })
    }) * NS
}

fn event_queue(effort: Effort) -> Vec<LayerValue> {
    let cancels = effort.n(20_000);
    let cancel = effort.per_call(cancels, || {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let handles: Vec<_> = (0..cancels)
            .map(|i| queue.schedule(SimTime::from_secs(i as f64 * 0.01), i as u32))
            .collect();
        timed(|| {
            for h in handles {
                black_box(queue.cancel(h));
            }
        })
    }) * NS;
    vec![
        (
            "simkit.event.hold_ns_1k",
            hold_ns(effort, 1_000, effort.n(100_000)),
        ),
        (
            "simkit.event.hold_ns_1m",
            hold_ns(effort, effort.n(1_000_000), effort.n(20_000)),
        ),
        ("simkit.event.cancel_ns", cancel),
    ]
}

/// The least an engine can be: every event schedules itself again.
struct Ticker;

impl<T: TraceSink> Simulation<T> for Ticker {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, ctx: &mut SimCtx<'_, u32, T>) {
        ctx.schedule(now + SimDuration::from_secs(1.0), ev);
    }
}

fn kernel_dispatch(effort: Effort) -> Vec<LayerValue> {
    const TICKERS: usize = 64;
    let events = effort.n(200_000);
    let ns = effort.per_call(events, || {
        let horizon = (events / TICKERS) as f64 - 0.5;
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(horizon)), NullSink);
        for i in 0..TICKERS {
            kernel
                .ctx()
                .schedule(SimTime::from_secs(i as f64 / TICKERS as f64), i as u32);
        }
        timed(|| kernel.run(&mut Ticker))
    }) * NS;
    vec![("simkit.sim.dispatch_ns", ns)]
}

/// A lane engine that forwards every event to the next lane, one window
/// later.
struct Relay {
    latency: SimDuration,
}

impl<T: TraceSink> LaneSimulation<T> for Relay {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, ctx: &mut LaneCtx<'_, u32, T>) {
        let next = (ctx.lane() + 1) % ctx.lane_count();
        ctx.send(next, now + self.latency, ev);
    }
}

const LANES: usize = 8;

/// Seconds to run `windows` one-second windows over eight lanes, each
/// lane starting with `per_lane` events that every window relays on.
fn lane_run(windows: usize, per_lane: usize, threads: usize) -> f64 {
    let window = SimDuration::from_secs(1.0);
    let params = KernelParams::new(SimDuration::from_secs(windows as f64 - 0.5));
    let mut kernel: LaneKernel<u32> = LaneKernel::new(params, window, vec![NullSink; LANES]);
    for lane in 0..LANES {
        for i in 0..per_lane {
            kernel.ctx(lane).schedule(SimTime::from_secs(0.5), i as u32);
        }
    }
    let mut sims: Vec<Relay> = (0..LANES).map(|_| Relay { latency: window }).collect();
    timed(|| kernel.run(&mut sims, threads))
}

fn lane_kernel(effort: Effort) -> Vec<LayerValue> {
    let windows = effort.n(1_000);
    let barrier_us =
        |threads: usize| effort.per_call(windows, || lane_run(windows, 0, threads)) * US;
    let (relay_windows, per_lane) = (effort.n(20), 500);
    let messages = relay_windows * LANES * per_lane;
    vec![
        ("simkit.lanes.barrier_us_t1", barrier_us(1)),
        ("simkit.lanes.barrier_us_t2", barrier_us(2)),
        (
            "simkit.lanes.cross_msg_ns",
            effort.per_call(messages, || lane_run(relay_windows, per_lane, 1)) * NS,
        ),
    ]
}

fn rng(effort: Effort) -> Vec<LayerValue> {
    let mut rng = RngStream::from_seed(SEED, "rng");
    let draws = effort.n(2_000_000);
    let next_u64 = effort.per_call(draws, || {
        timed(|| {
            let mut acc = 0u64;
            for _ in 0..draws {
                acc ^= rng.next_u64();
            }
            black_box(acc);
        })
    }) * NS;
    let picks = effort.n(200_000);
    let sample_indices = effort.per_call(picks, || {
        timed(|| {
            for _ in 0..picks {
                black_box(rng.sample_indices(black_box(100), 5));
            }
        })
    }) * NS;
    vec![
        ("simkit.rng.next_u64_ns", next_u64),
        ("simkit.rng.sample_indices_ns", sample_indices),
    ]
}

fn dist(effort: Effort) -> Vec<LayerValue> {
    let catalog = CatalogParams::default();
    let zipf = Zipf::new(catalog.items, catalog.replication_exponent).expect("valid zipf");
    let mut rng = RngStream::from_seed(SEED, "dist");
    let draws = effort.n(1_000_000);
    let ns = effort.per_call(draws, || {
        timed(|| {
            let mut acc = 0usize;
            for _ in 0..draws {
                acc ^= zipf.sample_index(&mut rng);
            }
            black_box(acc);
        })
    }) * NS;
    vec![("simkit.dist.zipf_sample_ns", ns)]
}

fn stats(effort: Effort) -> Vec<LayerValue> {
    let records = effort.n(1_000_000);
    let summary = effort.per_call(records, || {
        let mut summary = Summary::new();
        timed(|| {
            for i in 0..records {
                summary.record(black_box(i as f64));
            }
            black_box(summary.mean());
        })
    }) * NS;
    let histogram = effort.per_call(records, || {
        let mut histogram = Histogram::new();
        timed(|| {
            for i in 0..records {
                histogram.record(black_box(i as f64));
            }
            black_box(histogram.count());
        })
    }) * NS;
    vec![
        ("simkit.stats.summary_record_ns", summary),
        ("simkit.stats.histogram_record_ns", histogram),
    ]
}

fn content(effort: Effort) -> Vec<LayerValue> {
    let builds = effort.n(5);
    let catalog_build = effort.per_call(builds, || {
        timed(|| {
            for _ in 0..builds {
                black_box(Catalog::new(black_box(CatalogParams::default())).expect("valid"));
            }
        })
    }) * MS;

    let model = QueryModel::new(Catalog::new(CatalogParams::default()).expect("valid"));
    let mut rng = RngStream::from_seed(SEED, "content");
    let mut arena = LibraryArena::new();
    // A library is built at every birth and freed at the death.
    let libraries = effort.n(10_000);
    let build_library = effort.per_call(libraries, || {
        timed(|| {
            for _ in 0..libraries {
                let h = model.catalog().build_library_in(100, &mut rng, &mut arena);
                arena.free(black_box(h));
            }
        })
    }) * NS;

    let handles: Vec<_> = (0..1000)
        .map(|_| model.catalog().build_library_in(100, &mut rng, &mut arena))
        .collect();
    let targets: Vec<_> = (0..1024).map(|_| model.sample_target(&mut rng)).collect();
    let rounds = effort.n(200);
    let answers = effort.per_call(rounds * handles.len(), || {
        timed(|| {
            let mut hits = 0u32;
            for round in 0..rounds {
                let target = targets[round % targets.len()];
                for &h in &handles {
                    hits += u32::from(model.answers_in(&arena, h, target));
                }
            }
            black_box(hits);
        })
    }) * NS;
    vec![
        ("workload.content.catalog_build_ms", catalog_build),
        ("workload.content.build_library_ns", build_library),
        ("workload.content.answers_ns", answers),
    ]
}

fn lifetime(effort: Effort) -> Vec<LayerValue> {
    let model = LifetimeModel::saroiu_like(1.0);
    let mut rng = RngStream::from_seed(SEED, "lifetime");
    let draws = effort.n(1_000_000);
    let ns = effort.per_call(draws, || {
        timed(|| {
            let mut acc = 0.0;
            for _ in 0..draws {
                acc += model.sample_lifetime(&mut rng).as_secs();
            }
            black_box(acc);
        })
    }) * NS;
    vec![("workload.lifetime.lifetime_sample_ns", ns)]
}

/// `n` cache entries with distinct addresses and varied metadata, as a
/// warm link cache holds them.
fn entries(n: usize, alloc: &mut AddrAllocator, rng: &mut RngStream) -> Vec<CacheEntry> {
    (0..n)
        .map(|_| {
            CacheEntry::from_pong(
                alloc.allocate(),
                SimTime::from_secs(rng.f64() * 1000.0),
                rng.below(500) as u32,
                rng.below(5) as u32,
            )
        })
        .collect()
}

/// `CacheSize` and `PongSize` of the paper's defaults.
const CACHE: usize = 100;
const PONG: usize = 5;

fn policy(effort: Effort) -> Vec<LayerValue> {
    let mut rng = RngStream::from_seed(SEED, "policy");
    let cache = entries(CACHE, &mut AddrAllocator::new(), &mut rng);
    let calls = effort.n(5_000);
    let mut select = |policy: SelectionPolicy| {
        effort.per_call(calls, || {
            timed(|| {
                for _ in 0..calls {
                    black_box(policy::select_top_k(
                        policy,
                        black_box(&cache),
                        PONG,
                        &mut rng,
                    ));
                }
            })
        }) * NS
    };
    let mut out = vec![
        (
            "guess.policy.select_top_k_ns.random",
            select(SelectionPolicy::Random),
        ),
        (
            "guess.policy.select_top_k_ns.mru",
            select(SelectionPolicy::Mru),
        ),
        (
            "guess.policy.select_top_k_ns.mfs",
            select(SelectionPolicy::Mfs),
        ),
        (
            "guess.policy.select_top_k_ns.mr",
            select(SelectionPolicy::Mr),
        ),
    ];
    let mut victim = |policy: ReplacementPolicy| {
        effort.per_call(calls, || {
            timed(|| {
                for _ in 0..calls {
                    black_box(policy::eviction_victim(policy, black_box(&cache), &mut rng));
                }
            })
        }) * NS
    };
    out.push((
        "guess.policy.eviction_victim_ns.lfs",
        victim(ReplacementPolicy::Lfs),
    ));
    out.push((
        "guess.policy.eviction_victim_ns.lru",
        victim(ReplacementPolicy::Lru),
    ));
    // One push and one pop: a query queues its whole cache, then probes.
    let fills = effort.n(500);
    let probe_queue = effort.per_call(fills * CACHE, || {
        timed(|| {
            for _ in 0..fills {
                let mut queue = ProbeQueue::new(SelectionPolicy::Mfs);
                for e in &cache {
                    queue.push(*e, &mut rng);
                }
                while let Some(e) = queue.pop() {
                    black_box(e);
                }
            }
        })
    }) * NS;
    out.push(("guess.policy.probe_queue_ns", probe_queue));
    out
}

/// The engine's cache store: full 100-entry blocks of a `CacheArena`
/// under the default `Random` replacement.
fn link_cache(effort: Effort) -> Vec<LayerValue> {
    const BLOCKS: usize = 64;
    let mut rng = RngStream::from_seed(SEED, "link_cache");
    let mut alloc = AddrAllocator::new();
    let mut arena = CacheArena::with_peer_capacity(CACHE, BLOCKS);
    let blocks: Vec<_> = (0..BLOCKS).map(|_| arena.alloc()).collect();
    let policy = ReplacementPolicy::Random;
    for &h in &blocks {
        for e in entries(CACHE, &mut alloc, &mut rng) {
            arena.offer(h, e, policy, &mut rng);
        }
    }
    let now = SimTime::from_secs(2000.0);

    let offers = effort.n(100_000);
    let offer_full = effort.per_call(offers, || {
        // Addresses no cache holds yet, so every offer is a contest.
        let fresh = entries(offers, &mut alloc, &mut rng);
        timed(|| {
            for (i, e) in fresh.iter().enumerate() {
                black_box(arena.offer(blocks[i % BLOCKS], *e, policy, &mut rng));
            }
        })
    }) * NS;

    let residents: Vec<Vec<PeerAddr>> = blocks
        .iter()
        .map(|&h| arena.entries(h).iter().map(CacheEntry::addr).collect())
        .collect();
    let resident = |i: usize| residents[i % BLOCKS][(i / BLOCKS) % CACHE];
    let offer_dup = effort.per_call(offers, || {
        timed(|| {
            for i in 0..offers {
                let e = CacheEntry::new(resident(i), now, 1);
                black_box(arena.offer(blocks[i % BLOCKS], e, policy, &mut rng));
            }
        })
    }) * NS;
    let touch = effort.per_call(offers, || {
        timed(|| {
            for i in 0..offers {
                black_box(arena.touch(blocks[i % BLOCKS], resident(i), now));
            }
        })
    }) * NS;
    let remove = effort.per_call(BLOCKS * CACHE, || {
        let secs = timed(|| {
            for (&h, addrs) in blocks.iter().zip(&residents) {
                for &addr in addrs {
                    black_box(arena.remove(h, addr));
                }
            }
        });
        for (&h, addrs) in blocks.iter().zip(&residents) {
            for &addr in addrs {
                arena.offer(h, CacheEntry::new(addr, now, 1), policy, &mut rng);
            }
        }
        secs
    }) * NS;
    // A death frees the block its replacement allocates.
    let cycles = effort.n(1_000_000);
    let alloc_free = effort.per_call(cycles, || {
        timed(|| {
            for _ in 0..cycles {
                let h = arena.alloc();
                arena.free(black_box(h));
            }
        })
    }) * NS;
    vec![
        ("guess.link_cache.offer_ns.full", offer_full),
        ("guess.link_cache.offer_ns.dup", offer_dup),
        ("guess.link_cache.touch_ns", touch),
        ("guess.link_cache.remove_ns", remove),
        ("guess.link_cache.arena_alloc_free_ns", alloc_free),
    ]
}

fn push_plane(effort: Effort) -> Vec<LayerValue> {
    const SLOTS: usize = 4_000;
    let cap = guess::PushParams::default().interest_cap;
    let mut alloc = AddrAllocator::new();
    // Twice the cap per slot: the second half evicts the oldest watcher.
    let watchers: Vec<Interest> = (0..effort.n(SLOTS * cap * 2))
        .map(|i| Interest {
            slot: SlotId((i % SLOTS) as u32),
            addr: alloc.allocate(),
        })
        .collect();
    let mut plane = PushPlane::new(cap, SLOTS);
    let register = effort.per_call(watchers.len(), || {
        plane = PushPlane::new(cap, SLOTS);
        timed(|| {
            for (i, w) in watchers.iter().enumerate() {
                black_box(plane.register(SlotId((i % SLOTS) as u32), *w));
            }
        })
    }) * NS;
    let take_interest = effort.per_call(SLOTS, || {
        for (i, w) in watchers.iter().enumerate() {
            plane.register(SlotId((i % SLOTS) as u32), *w);
        }
        timed(|| {
            for slot in 0..SLOTS {
                black_box(plane.take_interest(SlotId(slot as u32)));
            }
        })
    }) * NS;
    vec![
        ("guess.push.register_ns", register),
        ("guess.push.take_interest_ns", take_interest),
    ]
}

fn bad_registry(effort: Effort) -> Vec<LayerValue> {
    const SLOTS: usize = 1_000;
    let mut alloc = AddrAllocator::new();
    let addrs: Vec<PeerAddr> = (0..SLOTS).map(|_| alloc.allocate()).collect();
    let mut registry = BadRegistry::new(SLOTS);
    let rounds = effort.n(200);
    let ns = effort.per_call(rounds * SLOTS, || {
        timed(|| {
            for _ in 0..rounds {
                for (slot, &addr) in addrs.iter().enumerate() {
                    registry.insert(SlotId(slot as u32), addr);
                }
                for (slot, &addr) in addrs.iter().enumerate() {
                    black_box(registry.remove(SlotId(slot as u32), addr));
                }
            }
        })
    }) * NS;
    vec![("guess.bad_registry.insert_remove_ns", ns)]
}

fn capacity(effort: Effort) -> Vec<LayerValue> {
    let limit = guess::SystemParams::default().max_probes_per_second;
    let mut meter = CapacityMeter::with_limit(limit);
    let probes = effort.n(2_000_000);
    let ns = effort.per_call(probes, || {
        timed(|| {
            for i in 0..probes {
                // 200 probes a second against a limit of 100: half refused.
                black_box(meter.admit(SimTime::from_secs(i as f64 * 0.005)));
            }
        })
    }) * NS;
    vec![("guess.capacity.admit_ns", ns)]
}

fn graph(effort: Effort) -> Vec<LayerValue> {
    const PEERS: usize = 1_000;
    let mut rng = RngStream::from_seed(SEED, "graph");
    // The overlay a connectivity sweep walks: every cache entry an edge.
    let edges: Vec<(usize, usize)> = (0..PEERS)
        .flat_map(|u| (0..CACHE).map(move |_| u))
        .map(|u| (u, rng.below(PEERS)))
        .collect();
    let sweeps = effort.n(20);
    let ms = effort.per_call(sweeps, || {
        timed(|| {
            for _ in 0..sweeps {
                black_box(guess::graph::largest_component(
                    PEERS,
                    edges.iter().copied(),
                ));
            }
        })
    }) * MS;
    vec![("guess.graph.largest_component_ms", ms)]
}

/// Size, degree and TTL of the `gnutella-flood` overlay.
const OVERLAY: (usize, usize, usize) = (2_000, 4, 7);

fn overlay() -> Topology {
    let mut rng = RngStream::from_seed(SEED, "topology");
    Topology::random_regular(OVERLAY.0, OVERLAY.1, &mut rng)
}

fn wavefront(effort: Effort) -> Vec<LayerValue> {
    let topo = overlay();
    let mut visits = VisitTable::new(topo.len());
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    let floods = effort.n(200);
    let mut edges = 0u64;
    let total = effort.per_call(1, || {
        edges = 0;
        timed(|| {
            for src in 0..floods {
                let token = visits.token();
                visits.visit(src as u32, token);
                frontier.clear();
                frontier.push(src as u32);
                while !frontier.is_empty() {
                    next.clear();
                    edges += wavefront::advance(
                        &frontier,
                        &mut next,
                        &mut visits,
                        token,
                        |u| topo.neighbors(u as usize),
                        |_, _| {},
                    );
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
        })
    });
    vec![(
        "gnutella.wavefront.advance_ns_per_edge",
        total / black_box(edges) as f64 * NS,
    )]
}

fn topology(effort: Effort) -> Vec<LayerValue> {
    let builds = effort.n(20);
    let build = effort.per_call(builds, || {
        timed(|| {
            for _ in 0..builds {
                black_box(overlay());
            }
        })
    }) * MS;
    let topo = overlay();
    let searches = effort.n(200);
    let bfs = effort.per_call(searches, || {
        timed(|| {
            for src in 0..searches {
                black_box(topo.bfs_within(src % topo.len(), OVERLAY.2));
            }
        })
    }) * MS;
    vec![
        ("gnutella.topology.topology_build_ms", build),
        ("gnutella.topology.bfs_within_ms", bfs),
    ]
}

fn runner(effort: Effort) -> Vec<LayerValue> {
    let ctx = Ctx::new(Scale::Quick, crate::workloads::THREADS);
    let maps = effort.n(50);
    let us = effort.per_call(maps, || {
        timed(|| {
            for _ in 0..maps {
                black_box(ctx.map((0..64u64).collect(), |i| i));
            }
        })
    }) * US;
    vec![("bench.runner.map_overhead_us", us)]
}

fn report(effort: Effort) -> Vec<LayerValue> {
    // A real report to render: Figure 6's, cheap to produce.
    let experiment = experiments::find("fig6").expect("registry has fig6");
    let report = (experiment.run)(&Ctx::new(Scale::Quick, crate::workloads::THREADS));
    let renders = effort.n(1_000);
    let text = effort.per_call(renders, || {
        timed(|| {
            for _ in 0..renders {
                black_box(report.render_text());
            }
        })
    }) * US;
    let json = effort.per_call(renders, || {
        timed(|| {
            for _ in 0..renders {
                black_box(report.render_json(experiment.name, experiment.description, "Quick"));
            }
        })
    }) * US;
    vec![
        ("bench.report.render_text_us", text),
        ("bench.report.render_json_us", json),
    ]
}
