//! Lane-partitioned conservative parallel kernel.
//!
//! The serial [`Kernel`](crate::sim::Kernel) drives one event queue on
//! one thread. This module adds intra-run parallelism without giving up
//! the workspace's determinism contract: the simulated population is
//! split into a fixed number of **lanes** — a config knob, independent
//! of thread count, exactly how `--shard i/m` is seed-addressed — and
//! each lane owns its own calendar queue, trace sink, and (engine-side)
//! RNG streams. Lanes execute in **bounded time windows** sized by the
//! minimum cross-lane event latency (the *lookahead*: a cross-lane
//! probe round-trip); within a window lanes share nothing, so any
//! number of worker threads may process them in any order. Cross-lane
//! events are staged in per-lane outboxes and exchanged when the window
//! closes as one **sorted boundary batch**, merged on the calling
//! thread in `(dst lane, time, src lane, emission order)` order before
//! the next window opens.
//!
//! There is one window loop ([`LaneKernel::run`]). Per window it splits
//! the lanes into `threads` contiguous chunks, runs the first chunk on
//! the calling thread and each other chunk on a thread scoped to that
//! window, and merges once the scope has joined them. `threads = 1` is
//! the same loop with nothing to spawn. The scope hands each worker an
//! exclusive `&mut` to its chunk, so there are no locks and no barrier,
//! and a lane handler that panics unwinds out of `run` instead of
//! leaving other threads waiting for it.
//!
//! # Determinism contract
//!
//! The output of [`LaneKernel::run`] is a pure function of the engine
//! state handed to it and of the lane count — **never** of `threads`:
//!
//! * within a window, a lane touches only its own queue, sink, and
//!   outbox — there is no shared mutable state to race on;
//! * [`LaneCtx::send`] asserts every cross-lane event lands at or after
//!   the window boundary (`at >= window_end`), so no event a worker has
//!   not yet seen can influence the window it is currently processing;
//! * the boundary batch is drained in lane-index order and stably
//!   sorted by `(dst, time)` before insertion, so destination-queue
//!   sequence numbers — and therefore same-instant tie-breaks — are
//!   identical no matter which worker ran which lane;
//! * the window schedule itself (`w_k = k·window`) is computed once
//!   per window on the calling thread, from `k` by multiplication,
//!   never by accumulation, so the boundary instants are a function of
//!   `k` alone.
//!
//! Byte-identical output across `threads = 1..N` is checked by tests at
//! every layer above.
//!
//! The lane kernel does not support scenario timelines (a
//! [`Scenario`](crate::scenario::Scenario) intervenes on global state,
//! which has no lane-local meaning); engines keep scenarios on the
//! serial path.

use crate::event::EventQueue;
use crate::sim::{sample_tick, KernelEvent, KernelParams, SimCtx};
use crate::time::{SimDuration, SimTime};
use crate::trace::{NullSink, TraceSink};

/// A cross-lane event staged in a lane's outbox until its window
/// closes.
#[derive(Debug)]
struct Boundary<E> {
    dst: u32,
    at: SimTime,
    event: E,
}

/// One lane: its own calendar queue, trace sink, and boundary outbox.
#[derive(Debug)]
struct LaneState<E, T: TraceSink> {
    queue: EventQueue<KernelEvent<E>>,
    sink: T,
    outbox: Vec<Boundary<E>>,
}

/// What an engine sees while handling an event inside a lane: the
/// familiar [`SimCtx`] surface for lane-local scheduling plus
/// [`LaneCtx::send`] for cross-lane traffic.
pub struct LaneCtx<'a, E, T: TraceSink> {
    inner: SimCtx<'a, E, T>,
    lane: u32,
    lane_count: u32,
    window_end: SimTime,
    outbox: &'a mut Vec<Boundary<E>>,
}

impl<'a, E, T: TraceSink> LaneCtx<'a, E, T> {
    /// The lane-local scheduling/trace surface — identical to what the
    /// serial kernel hands [`Simulation::handle`](crate::sim::Simulation::handle),
    /// so ported engines pass it straight to their existing handlers.
    pub fn inner(&mut self) -> &mut SimCtx<'a, E, T> {
        &mut self.inner
    }

    /// This lane's index.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Total number of lanes in the run.
    #[must_use]
    pub fn lane_count(&self) -> u32 {
        self.lane_count
    }

    /// End of the current time window — the earliest instant a
    /// cross-lane event may land at.
    #[must_use]
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// True once `now` has passed the warm-up boundary.
    #[must_use]
    pub fn after_warmup(&self, now: SimTime) -> bool {
        self.inner.after_warmup(now)
    }

    /// Stages an event for another lane, delivered at absolute time
    /// `at` when the current window closes.
    ///
    /// # Panics
    ///
    /// Panics when `dst_lane` is this lane or out of range, or when
    /// `at` is earlier than the window boundary — the conservative
    /// lookahead invariant the whole determinism argument rests on.
    pub fn send(&mut self, dst_lane: u32, at: SimTime, event: E) {
        assert!(
            dst_lane != self.lane,
            "lane {dst_lane} sent a boundary event to itself; use schedule()"
        );
        assert!(
            dst_lane < self.lane_count,
            "boundary event for lane {dst_lane} of {}",
            self.lane_count
        );
        assert!(
            at >= self.window_end,
            "cross-lane event at {at} violates the lookahead window (ends {})",
            self.window_end
        );
        self.outbox.push(Boundary {
            dst: dst_lane,
            at,
            event,
        });
    }
}

/// An engine the lane kernel can drive: one instance per lane, handling
/// its lane's events through a [`LaneCtx`].
pub trait LaneSimulation<T: TraceSink> {
    /// The engine's event alphabet (shared by all lanes).
    type Event;

    /// Handles one popped event of this lane.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut LaneCtx<'_, Self::Event, T>);

    /// Called at each of this lane's sample ticks that falls after
    /// warm-up.
    fn sample(&mut self, _now: SimTime) {}

    /// Live peers of this lane, reported in [`crate::trace::TraceRecord::Sample`]
    /// ticks (queried only when tracing).
    fn live_peers(&self) -> u64 {
        0
    }
}

/// The lane-partitioned kernel: `n` lanes advancing in lockstep time
/// windows, executed by up to `threads` workers.
///
/// Construction order mirrors the serial kernel: create the kernel,
/// let each lane's engine schedule its initial events through
/// [`LaneKernel::ctx`], then call [`LaneKernel::run`] — the first
/// sample tick of every lane is scheduled at that point, after all
/// init events.
#[derive(Debug)]
pub struct LaneKernel<E, T: TraceSink = NullSink> {
    lanes: Vec<LaneState<E, T>>,
    params: KernelParams,
    window: SimDuration,
    started: bool,
}

impl<E, T: TraceSink> LaneKernel<E, T> {
    /// Creates a kernel with one empty lane per sink.
    ///
    /// `window` is the lookahead: the minimum latency of any cross-lane
    /// event the engines will [`LaneCtx::send`].
    ///
    /// # Panics
    ///
    /// Panics on an empty sink list or a non-positive window.
    #[must_use]
    pub fn new(params: KernelParams, window: SimDuration, sinks: Vec<T>) -> Self {
        assert!(!sinks.is_empty(), "lane kernel needs at least one lane");
        assert!(
            window.as_secs() > 0.0,
            "lookahead window must be positive, got {window}"
        );
        LaneKernel {
            lanes: sinks
                .into_iter()
                .map(|sink| LaneState {
                    queue: EventQueue::new(),
                    sink,
                    outbox: Vec::new(),
                })
                .collect(),
            params,
            window,
            started: false,
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The run parameters.
    #[must_use]
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// A context for init-time scheduling into one lane (before
    /// [`LaneKernel::run`]).
    pub fn ctx(&mut self, lane: usize) -> SimCtx<'_, E, T> {
        let state = &mut self.lanes[lane];
        SimCtx::from_parts(&mut state.queue, self.params.warmup_end, &mut state.sink)
    }

    /// Kernel events popped so far, summed over lanes.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.lanes.iter().map(|l| l.queue.events_processed()).sum()
    }

    /// Drives every lane to the horizon in lockstep windows, using up
    /// to `threads` threads (clamped to the lane count), the calling
    /// thread included. `sims[i]` is lane `i`'s engine. Output is
    /// independent of `threads`.
    ///
    /// # Panics
    ///
    /// Panics when `sims` does not have exactly one engine per lane,
    /// and when a lane's handler panics (on whichever thread ran it).
    pub fn run<S>(&mut self, sims: &mut [S], threads: usize)
    where
        S: LaneSimulation<T, Event = E> + Send,
        E: Send,
        T: Send,
    {
        assert_eq!(sims.len(), self.lanes.len(), "one engine per lane required");
        if !self.started {
            self.started = true;
            if let Some(interval) = self.params.sample_interval {
                for state in &mut self.lanes {
                    state
                        .queue
                        .schedule(state.queue.now() + interval, KernelEvent::Sample);
                }
            }
        }
        let (lane_count, params, window) = (self.lanes.len(), self.params, self.window);
        // Contiguous lanes per worker; the last worker's chunk may be short.
        let per_worker = lane_count.div_ceil(threads.clamp(1, lane_count));
        let mut batch: Vec<Boundary<E>> = Vec::new();
        let mut k = 0u64;
        loop {
            // Computed by multiplication so the boundary instants carry
            // no accumulation drift.
            let w_start = SimTime::ZERO + window * k as f64;
            if w_start > params.end {
                break;
            }
            let w_end = w_start + window;
            let run_chunk = |first: usize, lanes: &mut [LaneState<E, T>], sims: &mut [S]| {
                for (i, (state, sim)) in lanes.iter_mut().zip(sims).enumerate() {
                    let lane = (first + i) as u32;
                    process_window(lane, lane_count as u32, state, sim, w_end, &params);
                }
            };
            std::thread::scope(|scope| {
                let mut chunks = self
                    .lanes
                    .chunks_mut(per_worker)
                    .zip(sims.chunks_mut(per_worker))
                    .enumerate();
                let (_, (own_lanes, own_sims)) = chunks.next().expect("at least one lane");
                for (c, (lanes, sims)) in chunks {
                    scope.spawn(move || run_chunk(c * per_worker, lanes, sims));
                }
                run_chunk(0, own_lanes, own_sims);
            });
            for state in &mut self.lanes {
                batch.append(&mut state.outbox);
            }
            merge_batch(&mut batch, &mut self.lanes);
            k += 1;
        }
    }
}

/// Drains one lane's boundary batch (already concatenated in lane-index
/// order) into the destination queues in `(dst, time)` order. The sort
/// is stable, so same-instant ties keep `(src lane, emission order)` —
/// the sequence numbers the destination queue assigns are a pure
/// function of lane count.
fn merge_batch<E, T: TraceSink>(batch: &mut Vec<Boundary<E>>, lanes: &mut [LaneState<E, T>]) {
    batch.sort_by_key(|b| (b.dst, b.at));
    for b in batch.drain(..) {
        lanes[b.dst as usize]
            .queue
            .schedule(b.at, KernelEvent::User(b.event));
    }
}

/// Pops one lane's events with `t < w_end && t <= end`, dispatching
/// exactly like the serial kernel (user events to the engine, sample
/// ticks gated on warm-up and rescheduled). Events at or past the
/// window boundary stay queued for a later window.
fn process_window<E, T, S>(
    lane: u32,
    lane_count: u32,
    state: &mut LaneState<E, T>,
    sim: &mut S,
    w_end: SimTime,
    params: &KernelParams,
) where
    T: TraceSink,
    S: LaneSimulation<T, Event = E>,
{
    while let Some(t) = state.queue.peek_time() {
        if t >= w_end || t > params.end {
            break;
        }
        let (now, event) = state.queue.pop().expect("peeked event present");
        match event {
            KernelEvent::User(ev) => {
                let mut ctx = LaneCtx {
                    inner: SimCtx::from_parts(&mut state.queue, params.warmup_end, &mut state.sink),
                    lane,
                    lane_count,
                    window_end: w_end,
                    outbox: &mut state.outbox,
                };
                sim.handle(now, ev, &mut ctx);
            }
            KernelEvent::Sample => sample_tick(
                now,
                params,
                &mut state.queue,
                &mut state.sink,
                sim,
                S::sample,
                S::live_peers,
            ),
            KernelEvent::Control(generation) => {
                // The lane kernel never schedules control events;
                // scenarios stay on the serial path.
                debug_assert!(false, "control event {generation} popped by a lane run");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Kernel, Simulation};

    /// A counting engine that bounces an event to the next lane with a
    /// one-window latency, and self-schedules a local tick every 0.25s.
    struct Bouncer {
        handled: u64,
        remote: u64,
        sampled: u64,
        latency: SimDuration,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Local,
        Hop(u64),
    }

    impl<T: TraceSink> LaneSimulation<T> for Bouncer {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut LaneCtx<'_, Ev, T>) {
            self.handled += 1;
            match ev {
                Ev::Local => {
                    ctx.inner()
                        .schedule(now + SimDuration::from_secs(0.25), Ev::Local);
                }
                Ev::Hop(n) => {
                    self.remote += n;
                    let dst = (ctx.lane() + 1) % ctx.lane_count();
                    if dst != ctx.lane() {
                        ctx.send(dst, now + self.latency, Ev::Hop(n + 1));
                    }
                }
            }
        }

        fn sample(&mut self, _now: SimTime) {
            self.sampled += 1;
        }
    }

    fn bouncers(n: usize, latency_secs: f64) -> Vec<Bouncer> {
        (0..n)
            .map(|_| Bouncer {
                handled: 0,
                remote: 0,
                sampled: 0,
                latency: SimDuration::from_secs(latency_secs),
            })
            .collect()
    }

    fn run_bounce(lanes: usize, threads: usize) -> Vec<(u64, u64, u64)> {
        let params = KernelParams::new(SimDuration::from_secs(20.0))
            .with_warmup(SimDuration::from_secs(5.0))
            .with_sampling(SimDuration::from_secs(1.0));
        let mut kernel =
            LaneKernel::new(params, SimDuration::from_secs(1.0), vec![NullSink; lanes]);
        for i in 0..lanes {
            kernel.ctx(i).schedule(SimTime::ZERO, Ev::Local);
        }
        kernel.ctx(0).schedule(SimTime::ZERO, Ev::Hop(1));
        let mut sims = bouncers(lanes, 1.0);
        kernel.run(&mut sims, threads);
        sims.iter()
            .map(|s| (s.handled, s.remote, s.sampled))
            .collect()
    }

    #[test]
    fn identical_across_thread_counts() {
        // 5 lanes do not divide by 2, 3 or 4 workers: the last
        // contiguous chunk is short (or, at 4, there are only 3 chunks).
        for lanes in [4, 5] {
            let baseline = run_bounce(lanes, 1);
            for threads in 2..=6 {
                assert_eq!(
                    run_bounce(lanes, threads),
                    baseline,
                    "lanes = {lanes}, threads = {threads}"
                );
            }
            // The hop crossed a lane boundary every simulated second.
            assert!(baseline.iter().map(|&(_, r, _)| r).sum::<u64>() > 0);
        }
    }

    #[test]
    fn lane_count_changes_the_trajectory_threads_do_not() {
        assert_ne!(run_bounce(2, 1), run_bounce(4, 1));
        assert_eq!(run_bounce(2, 1), run_bounce(2, 8));
    }

    #[test]
    fn single_lane_matches_serial_kernel() {
        // The same engine driven by the serial kernel through a shim.
        struct Shim(Bouncer);
        impl<T: TraceSink> Simulation<T> for Shim {
            type Event = Ev;
            fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut SimCtx<'_, Ev, T>) {
                self.0.handled += 1;
                if let Ev::Local = ev {
                    ctx.schedule(now + SimDuration::from_secs(0.25), Ev::Local);
                }
            }
            fn sample(&mut self, _now: SimTime) {
                self.0.sampled += 1;
            }
        }

        let params = KernelParams::new(SimDuration::from_secs(10.0))
            .with_warmup(SimDuration::from_secs(2.0))
            .with_sampling(SimDuration::from_secs(1.0));

        let mut serial = Shim(bouncers(1, 1.0).pop().unwrap());
        let mut kernel = Kernel::new(params, NullSink);
        kernel.ctx().schedule(SimTime::ZERO, Ev::Local);
        kernel.run(&mut serial);

        let mut laned = bouncers(1, 1.0);
        let mut lk = LaneKernel::new(params, SimDuration::from_secs(1.0), vec![NullSink]);
        lk.ctx(0).schedule(SimTime::ZERO, Ev::Local);
        lk.run(&mut laned, 4);

        assert_eq!(serial.0.handled, laned[0].handled);
        assert_eq!(serial.0.sampled, laned[0].sampled);
    }

    #[test]
    fn events_processed_sums_lanes() {
        let params = KernelParams::new(SimDuration::from_secs(2.0));
        let mut kernel = LaneKernel::new(params, SimDuration::from_secs(1.0), vec![NullSink; 3]);
        for i in 0..3 {
            kernel.ctx(i).schedule(SimTime::ZERO, Ev::Local);
        }
        let mut sims = bouncers(3, 1.0);
        kernel.run(&mut sims, 2);
        // Each lane: local ticks at 0, 0.25, …, 2.0 = 9 events.
        assert_eq!(kernel.events_processed(), 27);
    }

    /// A lane that sends below the lookahead; lane 0 runs on the
    /// calling thread at any `threads`.
    fn eager_send(threads: usize) {
        struct Eager;
        impl<T: TraceSink> LaneSimulation<T> for Eager {
            type Event = ();
            fn handle(&mut self, now: SimTime, (): (), ctx: &mut LaneCtx<'_, (), T>) {
                // Latency below the window: the conservative invariant
                // must reject this at the send site.
                ctx.send(1, now + SimDuration::from_secs(0.1), ());
            }
        }
        let params = KernelParams::new(SimDuration::from_secs(5.0));
        let mut kernel = LaneKernel::new(params, SimDuration::from_secs(1.0), vec![NullSink; 2]);
        kernel.ctx(0).schedule(SimTime::ZERO, ());
        kernel.run(&mut [Eager, Eager], threads);
    }

    #[test]
    #[should_panic(expected = "violates the lookahead window")]
    fn early_cross_lane_send_panics() {
        eager_send(1);
    }

    /// With a helper thread alive the panic must still surface (a
    /// barrier-synchronized loop would strand the other threads).
    #[test]
    #[should_panic(expected = "violates the lookahead window")]
    fn early_cross_lane_send_panics_threaded() {
        eager_send(2);
    }
}
