//! The shared simulation kernel.
//!
//! Every discrete-event engine in the workspace needs the same three
//! pieces on top of [`EventQueue`]: the pop-dispatch loop with an
//! end-of-run guard, warm-up gating, and periodic metric sampling. This
//! module owns all three:
//!
//! * [`Simulation`] — the engine-side trait: an event type plus a
//!   `handle` method that receives each popped event and a [`SimCtx`]
//!   for scheduling follow-ups and emitting trace records;
//! * [`Kernel`] — the driver that owns the queue, the clock horizon,
//!   the warm-up boundary, and the periodic sample tick;
//! * the trace layer ([`crate::trace`]) threaded through [`SimCtx`], so
//!   every engine gets structured observability without touching its
//!   hot path (the default [`NullSink`] monomorphizes to nothing).
//!
//! Peer churn is not the kernel's: the engines' peers live and die on
//! the `workload` crate's shared clocks, which schedule through
//! [`SimCtx`] like any other engine event.
//!
//! The kernel preserves the workspace's determinism contract: it draws
//! no randomness of its own, schedules in a fixed order (engine init
//! first, then the first sample tick), and inherits the event queue's
//! no-time-travel invariant — scheduling into the past panics.
//!
//! # Adding an engine
//!
//! Define an `Event` enum; implement [`Simulation`] for every
//! `T: TraceSink` through per-method generic helpers, so the engine
//! struct stays non-generic; and implement [`Runnable`]'s one required method,
//! `run_scenario_traced`, which builds [`KernelParams`], seeds the
//! initial events through `kernel.ctx()` and calls
//! [`Kernel::run_scenario`]. `run`, `run_traced` and `run_scenario` are
//! provided; a plain run is the empty timeline.
//!
//! # Example: a counting engine on the kernel
//!
//! ```
//! use simkit::sim::{Kernel, KernelParams, SimCtx, Simulation};
//! use simkit::time::{SimDuration, SimTime};
//! use simkit::trace::{NullSink, TraceSink};
//!
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl<T: TraceSink> Simulation<T> for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), ctx: &mut SimCtx<'_, (), T>) {
//!         self.ticks += 1;
//!         ctx.schedule(now + SimDuration::from_secs(1.0), ());
//!     }
//! }
//!
//! let params = KernelParams::new(SimDuration::from_secs(10.0));
//! let mut kernel = Kernel::new(params, NullSink);
//! kernel.ctx().schedule(SimTime::ZERO, ());
//! let mut sim = Ticker { ticks: 0 };
//! kernel.run(&mut sim);
//! assert_eq!(sim.ticks, 11); // t = 0, 1, …, 10
//! ```

use crate::event::{EventHandle, EventQueue};
use crate::scenario::{Intervenable, Intervention, Partition, Scenario, ScenarioError};
use crate::time::{SimDuration, SimTime};
use crate::trace::{NullSink, ProbeKind, ProbeOutcome, TraceRecord, TraceSink};

/// The unified run surface every engine exposes.
///
/// The three simulators (GUESS, Gnutella, gossip) construct differently
/// — each has its own validated config — but once built they all run
/// the same way: consume `self`, drive the kernel to the horizon, and
/// return the engine's aggregate report. This trait pins that shape so
/// driver code (`repro`, the repo benchmark, cross-engine tests) can
/// dispatch engines generically instead of tracking per-engine method
/// names.
///
/// `run_scenario_traced` is the one required method: a plain run is the
/// empty timeline (byte-identical by construction — an empty scenario
/// schedules no control event), and the untraced forms pass a
/// [`NullSink`], which monomorphizes the traced body down to the bare
/// loop.
pub trait Runnable: Sized {
    /// Aggregated results of a completed run.
    type Report;

    /// Runs to completion under a [`Scenario`] timeline with a
    /// caller-provided trace sink, returning both the report and the
    /// sink for inspection.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when an intervention names a knob the
    /// engine does not have, fails config re-validation, or carries a
    /// malformed partition spec.
    fn run_scenario_traced<T: TraceSink>(
        self,
        scenario: &Scenario,
        sink: T,
    ) -> Result<(Self::Report, T), ScenarioError>;

    /// Runs to completion with a caller-provided trace sink and no
    /// scenario.
    fn run_traced<T: TraceSink>(self, sink: T) -> (Self::Report, T) {
        self.run_scenario_traced(&Scenario::new(), sink)
            .expect("an empty timeline cannot fail")
    }

    /// Runs to completion untraced.
    #[must_use]
    fn run(self) -> Self::Report {
        self.run_traced(NullSink).0
    }

    /// Runs to completion under a [`Scenario`] timeline, untraced.
    ///
    /// # Errors
    ///
    /// As [`Runnable::run_scenario_traced`].
    fn run_scenario(self, scenario: &Scenario) -> Result<Self::Report, ScenarioError> {
        Ok(self.run_scenario_traced(scenario, NullSink)?.0)
    }
}

/// What every engine report can tell the harness about the run itself,
/// independent of the engine's domain metrics.
pub trait SimReport {
    /// Kernel events processed over the whole run (warm-up included) —
    /// the numerator of the benchmark's `events_per_s`
    /// (`benchmark/README.md`).
    fn events_processed(&self) -> u64;
}

/// The kernel's own event wrapper: engine events, the periodic sample
/// tick the kernel drives itself, and scenario control events. A
/// control event carries the generation stamp of its compiled timeline
/// entry ([`Scenario::compile`]); plain [`Kernel::run`] never schedules
/// one. Crate-visible so the lane-partitioned kernel
/// ([`crate::lanes`]) can drive per-lane queues of the same alphabet.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KernelEvent<E> {
    User(E),
    Sample,
    Control(u32),
}

/// Clock horizon, warm-up boundary, and sampling cadence of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelParams {
    /// Events after this instant are not processed.
    pub end: SimTime,
    /// Instant at which measurement starts ([`SimCtx::after_warmup`],
    /// [`Simulation::sample`] gating). `SimTime::ZERO` disables
    /// warm-up exclusion.
    pub warmup_end: SimTime,
    /// Cadence of the kernel-driven sample tick; `None` disables
    /// sampling entirely (no tick events are ever scheduled).
    pub sample_interval: Option<SimDuration>,
}

impl KernelParams {
    /// Params for a run of `duration` with no warm-up and no sampling.
    #[must_use]
    pub fn new(duration: SimDuration) -> Self {
        KernelParams {
            end: SimTime::ZERO + duration,
            warmup_end: SimTime::ZERO,
            sample_interval: None,
        }
    }

    /// Sets the warm-up span (measured from the start of the run).
    #[must_use]
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup_end = SimTime::ZERO + warmup;
        self
    }

    /// Enables the periodic sample tick.
    #[must_use]
    pub fn with_sampling(mut self, interval: SimDuration) -> Self {
        self.sample_interval = Some(interval);
        self
    }
}

/// What the engine sees while handling an event: the scheduler, the
/// warm-up boundary, and the trace sink.
pub struct SimCtx<'a, E, T: TraceSink> {
    queue: &'a mut EventQueue<KernelEvent<E>>,
    warmup_end: SimTime,
    sink: &'a mut T,
}

impl<'a, E, T: TraceSink> SimCtx<'a, E, T> {
    /// Assembles a context over a caller-owned queue — how the
    /// lane-partitioned kernel ([`crate::lanes`]) hands each lane the
    /// same engine-facing surface the serial kernel builds internally.
    pub(crate) fn from_parts(
        queue: &'a mut EventQueue<KernelEvent<E>>,
        warmup_end: SimTime,
        sink: &'a mut T,
    ) -> Self {
        SimCtx {
            queue,
            warmup_end,
            sink,
        }
    }

    /// Schedules an engine event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock (the queue's
    /// no-time-travel invariant).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        self.queue.schedule(at, KernelEvent::User(event))
    }

    /// Cancels a previously scheduled engine event.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// The current simulation instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// True once `now` has passed the warm-up boundary — the gate for
    /// recording query metrics.
    #[must_use]
    pub fn after_warmup(&self, now: SimTime) -> bool {
        now >= self.warmup_end
    }

    /// True when the trace sink wants records. Emission sites guard
    /// record construction behind this so the [`NullSink`] path costs
    /// nothing.
    #[inline]
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// Emits one trace record (a no-op for disabled sinks).
    #[inline]
    pub fn emit(&mut self, at: SimTime, rec: TraceRecord) {
        if self.sink.enabled() {
            self.sink.record(at, rec);
        }
    }

    /// Emits one [`TraceRecord::Probe`] per `(target, outcome)` pair —
    /// all on behalf of the same query, kind, and instant. Engines that
    /// process whole message batches per event (e.g. a flood hop) stage
    /// the pairs in a reusable scratch buffer and hand them over in one
    /// call instead of constructing records per message. A no-op for
    /// disabled sinks.
    #[inline]
    pub fn emit_probes(
        &mut self,
        at: SimTime,
        query: u64,
        kind: ProbeKind,
        probes: &[(u64, ProbeOutcome)],
    ) {
        if self.sink.enabled() {
            self.sink.record_probes(at, query, kind, probes);
        }
    }
}

/// One popped sample tick — the rule the serial loop and the lane
/// windows ([`crate::lanes`]) must agree on: `sample` fires only after
/// warm-up, the trace sees every tick, and the tick reschedules itself.
/// `sample` and `live_peers` are the driving trait's methods
/// ([`Simulation`] or [`LaneSimulation`](crate::lanes::LaneSimulation)).
pub(crate) fn sample_tick<E, T: TraceSink, S>(
    now: SimTime,
    params: &KernelParams,
    queue: &mut EventQueue<KernelEvent<E>>,
    sink: &mut T,
    sim: &mut S,
    sample: impl FnOnce(&mut S, SimTime),
    live_peers: impl FnOnce(&S) -> u64,
) {
    if now >= params.warmup_end {
        sample(sim, now);
    }
    if sink.enabled() {
        sink.record(
            now,
            TraceRecord::Sample {
                live: live_peers(sim),
            },
        );
    }
    let interval = params
        .sample_interval
        .expect("sample tick only exists when sampling is on");
    queue.schedule(now + interval, KernelEvent::Sample);
}

/// An engine the kernel can drive, generic over the trace sink so the
/// disabled path monomorphizes away.
pub trait Simulation<T: TraceSink> {
    /// The engine's event alphabet.
    type Event;

    /// Handles one popped event. All follow-up scheduling and trace
    /// emission goes through `ctx`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut SimCtx<'_, Self::Event, T>);

    /// Called at each kernel sample tick that falls after warm-up.
    /// Engines take their periodic metric snapshots here; the default
    /// does nothing.
    fn sample(&mut self, _now: SimTime) {}

    /// Number of currently live peers, reported in the kernel's
    /// [`TraceRecord::Sample`] ticks (queried only when tracing).
    fn live_peers(&self) -> u64 {
        0
    }
}

/// The kernel-owned event-loop driver.
///
/// Construction order matters for byte-identical replays: create the
/// kernel, let the engine schedule its initial events through
/// [`Kernel::ctx`], then call [`Kernel::run`] — `run` schedules the
/// first sample tick (if sampling is on) before popping anything, so
/// the tick's sequence number lands after all engine init events,
/// exactly where the ported engines used to put it.
#[derive(Debug)]
pub struct Kernel<E, T: TraceSink = NullSink> {
    queue: EventQueue<KernelEvent<E>>,
    params: KernelParams,
    sink: T,
    started: bool,
}

impl<E, T: TraceSink> Kernel<E, T> {
    /// Creates a kernel with an empty queue.
    #[must_use]
    pub fn new(params: KernelParams, sink: T) -> Self {
        Kernel {
            queue: EventQueue::new(),
            params,
            sink,
            started: false,
        }
    }

    /// The run parameters.
    #[must_use]
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// Events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// A context for init-time scheduling (before [`Kernel::run`]).
    pub fn ctx(&mut self) -> SimCtx<'_, E, T> {
        SimCtx {
            queue: &mut self.queue,
            warmup_end: self.params.warmup_end,
            sink: &mut self.sink,
        }
    }

    /// Drives the loop to completion: pops events in `(time, seq)`
    /// order, stops past `params.end`, dispatches engine events to
    /// [`Simulation::handle`], and owns the sample tick — gating
    /// [`Simulation::sample`] on warm-up, emitting a
    /// [`TraceRecord::Sample`] when tracing, and rescheduling.
    pub fn run<S>(&mut self, sim: &mut S)
    where
        S: Simulation<T, Event = E>,
    {
        let Ok(()) = self.dispatch(sim, |_, _, generation, _| {
            // Plain runs never schedule control events; one here
            // means a caller mixed `run` into a scenario run.
            debug_assert!(false, "control event {generation} popped by a plain run");
            Ok::<(), std::convert::Infallible>(())
        });
    }

    /// As [`Kernel::run`], but first schedules one control event per
    /// entry of the compiled `scenario` timeline (entries past the
    /// horizon are dropped) and dispatches each to
    /// [`Intervenable::intervene`] as it fires. Control events are
    /// scheduled before anything is popped, so an empty timeline leaves
    /// the event sequence — and therefore the run — byte-identical to
    /// [`Kernel::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadPartition`] before anything is
    /// scheduled or run if any timeline entry — past the horizon or
    /// not — partitions into fewer than two groups. Otherwise aborts
    /// the run and returns the first [`ScenarioError`] an intervention
    /// raises.
    pub fn run_scenario<S>(&mut self, sim: &mut S, scenario: &Scenario) -> Result<(), ScenarioError>
    where
        S: Intervenable<T, Event = E>,
    {
        let compiled = scenario.compile();
        for entry in &compiled {
            if let Intervention::Partition { groups } = entry.action {
                Partition::new(groups)?;
            }
        }
        for (generation, entry) in compiled.iter().enumerate() {
            if entry.at <= self.params.end {
                let stamp = u32::try_from(generation).expect("timeline fits u32");
                self.queue.schedule(entry.at, KernelEvent::Control(stamp));
            }
        }
        self.dispatch(sim, |sim, now, generation, ctx| {
            sim.intervene(now, &compiled[generation as usize].action, ctx)
        })
    }

    /// The one serial event loop behind [`Kernel::run`] and
    /// [`Kernel::run_scenario`]; they differ only in what a popped
    /// [`KernelEvent::Control`] does, which `control` supplies.
    fn dispatch<S, X>(
        &mut self,
        sim: &mut S,
        mut control: impl FnMut(&mut S, SimTime, u32, &mut SimCtx<'_, E, T>) -> Result<(), X>,
    ) -> Result<(), X>
    where
        S: Simulation<T, Event = E>,
    {
        if !self.started {
            self.started = true;
            if let Some(interval) = self.params.sample_interval {
                self.queue
                    .schedule(self.queue.now() + interval, KernelEvent::Sample);
            }
        }
        while let Some((now, event)) = self.queue.pop() {
            if now > self.params.end {
                break;
            }
            match event {
                KernelEvent::User(ev) => {
                    let mut ctx = SimCtx {
                        queue: &mut self.queue,
                        warmup_end: self.params.warmup_end,
                        sink: &mut self.sink,
                    };
                    sim.handle(now, ev, &mut ctx);
                }
                KernelEvent::Sample => sample_tick(
                    now,
                    &self.params,
                    &mut self.queue,
                    &mut self.sink,
                    sim,
                    S::sample,
                    S::live_peers,
                ),
                KernelEvent::Control(generation) => {
                    let mut ctx = SimCtx {
                        queue: &mut self.queue,
                        warmup_end: self.params.warmup_end,
                        sink: &mut self.sink,
                    };
                    control(sim, now, generation, &mut ctx)?;
                }
            }
        }
        Ok(())
    }

    /// Consumes the kernel, returning the trace sink for inspection.
    pub fn into_sink(self) -> T {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Param;
    use crate::stats::CounterSet;
    use crate::trace::{CountingSink, RecordingSink};

    /// A minimal engine: every event reschedules itself after `gap`
    /// until `limit` events have been handled; `sample` counts ticks.
    struct Echo {
        handled: u32,
        sampled: u32,
        limit: u32,
        gap: SimDuration,
        partition: Option<Partition>,
        counters: CounterSet,
    }

    impl Echo {
        fn new(limit: u32, gap_secs: f64) -> Self {
            Echo {
                handled: 0,
                sampled: 0,
                limit,
                gap: SimDuration::from_secs(gap_secs),
                partition: None,
                counters: CounterSet::new(),
            }
        }
    }

    impl<T: TraceSink> Simulation<T> for Echo {
        type Event = u32;

        fn handle(&mut self, now: SimTime, ev: u32, ctx: &mut SimCtx<'_, u32, T>) {
            self.handled += 1;
            if self.handled < self.limit {
                ctx.schedule(now + self.gap, ev + 1);
            }
        }

        fn sample(&mut self, _now: SimTime) {
            self.sampled += 1;
        }

        fn live_peers(&self) -> u64 {
            42
        }
    }

    #[test]
    fn runs_until_horizon() {
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let mut sim = Echo::new(u32::MAX, 1.0);
        kernel.run(&mut sim);
        // Events at t = 0..=5 are in range; the t = 6 event is past the end.
        assert_eq!(sim.handled, 6);
    }

    #[test]
    fn sample_ticks_fire_after_warmup_only() {
        let params = KernelParams::new(SimDuration::from_secs(10.0))
            .with_warmup(SimDuration::from_secs(5.0))
            .with_sampling(SimDuration::from_secs(1.0));
        let mut kernel = Kernel::new(params, NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let mut sim = Echo::new(1, 1.0);
        kernel.run(&mut sim);
        // Ticks at 1..=10; those at 5..=10 are post-warm-up.
        assert_eq!(sim.sampled, 6);
    }

    #[test]
    fn sample_trace_records_cover_warmup_too() {
        let params = KernelParams::new(SimDuration::from_secs(10.0))
            .with_warmup(SimDuration::from_secs(5.0))
            .with_sampling(SimDuration::from_secs(1.0));
        let mut kernel = Kernel::new(params, RecordingSink::new());
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let mut sim = Echo::new(1, 1.0);
        kernel.run(&mut sim);
        let sink = kernel.into_sink();
        let samples: Vec<_> = sink
            .select(|r| matches!(r, TraceRecord::Sample { .. }))
            .collect();
        assert_eq!(samples.len(), 10, "trace sees every tick, warm-up included");
        for (_, r) in samples {
            assert_eq!(*r, TraceRecord::Sample { live: 42 });
        }
    }

    #[test]
    fn no_sampling_means_no_ticks() {
        let mut kernel = Kernel::new(
            KernelParams::new(SimDuration::from_secs(10.0)),
            CountingSink::new(),
        );
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let mut sim = Echo::new(3, 1.0);
        kernel.run(&mut sim);
        assert_eq!(sim.sampled, 0);
        assert_eq!(kernel.into_sink().samples, 0);
    }

    /// Echo has no peers and no knobs: a query is one extra engine
    /// event, joins and leaves do nothing, and every flip is rejected.
    impl<T: TraceSink> Intervenable<T> for Echo {
        const ENGINE: &'static str = "echo";
        type Config = ();

        fn join_one(&mut self, _: SimTime, _: &mut SimCtx<'_, u32, T>) {}

        fn kill_one(&mut self, _: SimTime, _: &mut SimCtx<'_, u32, T>) {}

        fn query_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, u32, T>) {
            ctx.schedule(now, 0);
        }

        fn config(&self) -> &() {
            &()
        }

        fn set_param((): &mut (), _: Param) -> bool {
            false
        }

        fn install(&mut self, (): ()) -> Result<(), String> {
            Ok(())
        }

        fn partition_mut(&mut self) -> &mut Option<Partition> {
            &mut self.partition
        }

        fn counters_mut(&mut self) -> &mut CounterSet {
            &mut self.counters
        }
    }

    #[test]
    fn empty_scenario_matches_plain_run() {
        let mut plain = Echo::new(u32::MAX, 1.0);
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        kernel.run(&mut plain);

        let mut scen = Echo::new(u32::MAX, 1.0);
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        kernel
            .run_scenario(&mut scen, &Scenario::new())
            .expect("empty scenario cannot fail");
        assert_eq!(plain.handled, scen.handled);
    }

    #[test]
    fn control_events_fire_at_their_instant() {
        let mut sim = Echo::new(u32::MAX, 10.0); // one self-event at t=0 only
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let scenario = Scenario::new().at(2.0).flash_crowd(3);
        kernel.run_scenario(&mut sim, &scenario).expect("supported");
        // t=0 seed event + 3 injected at t=2 (each reschedules at t=12,
        // past the horizon).
        assert_eq!(sim.handled, 4);
    }

    #[test]
    fn control_events_past_the_horizon_are_dropped() {
        let mut sim = Echo::new(u32::MAX, 10.0);
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let scenario = Scenario::new().at(50.0).flash_crowd(3);
        kernel.run_scenario(&mut sim, &scenario).expect("dropped");
        assert_eq!(sim.handled, 1, "late control event never fires");
    }

    #[test]
    fn unsupported_intervention_aborts_the_run() {
        let mut sim = Echo::new(u32::MAX, 1.0);
        let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(5.0)), NullSink);
        kernel.ctx().schedule(SimTime::ZERO, 0);
        let scenario = Scenario::new()
            .at(2.0)
            .param_flip(Param::Fanout(2))
            .at(3.0)
            .flash_crowd(1);
        let err = kernel.run_scenario(&mut sim, &scenario).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "echo",
                action: "fanout",
            }
        );
        assert_eq!(sim.counters.get("interventions"), 1, "the flash never ran");
        assert!(sim.handled >= 2, "ran up to the failing control event");
        assert!(sim.handled < 6, "aborted before the horizon");
    }

    /// An engine that must never be reached.
    struct Untouchable;

    impl<T: TraceSink> Simulation<T> for Untouchable {
        type Event = ();

        fn handle(&mut self, _: SimTime, (): (), _: &mut SimCtx<'_, (), T>) {
            panic!("an event ran under a malformed timeline");
        }
    }

    impl<T: TraceSink> Intervenable<T> for Untouchable {
        const ENGINE: &'static str = "untouchable";
        type Config = ();

        fn join_one(&mut self, _: SimTime, _: &mut SimCtx<'_, (), T>) {
            panic!("a join was delivered from a malformed timeline");
        }

        fn kill_one(&mut self, _: SimTime, _: &mut SimCtx<'_, (), T>) {
            panic!("a leave was delivered from a malformed timeline");
        }

        fn query_one(&mut self, _: SimTime, _: &mut SimCtx<'_, (), T>) {
            panic!("a query was delivered from a malformed timeline");
        }

        fn config(&self) -> &() {
            &()
        }

        fn set_param((): &mut (), _: Param) -> bool {
            panic!("a flip was delivered from a malformed timeline");
        }

        fn install(&mut self, (): ()) -> Result<(), String> {
            panic!("a flip was delivered from a malformed timeline");
        }

        fn partition_mut(&mut self) -> &mut Option<Partition> {
            panic!("a partition was delivered from a malformed timeline");
        }

        fn counters_mut(&mut self) -> &mut CounterSet {
            panic!("an intervention was delivered from a malformed timeline");
        }
    }

    #[test]
    fn bad_partition_is_rejected_before_anything_runs() {
        // On the timeline proper, and past the horizon where the control
        // event would never have been scheduled.
        for at in [5.0, 50.0] {
            let mut kernel = Kernel::new(KernelParams::new(SimDuration::from_secs(10.0)), NullSink);
            kernel.ctx().schedule(SimTime::ZERO, ());
            let scenario = Scenario::new().at(at).partition(1);
            let err = kernel.run_scenario(&mut Untouchable, &scenario);
            assert_eq!(err, Err(ScenarioError::BadPartition { groups: 1 }));
            assert_eq!(kernel.events_processed(), 0);
        }
    }

    #[test]
    fn ctx_warmup_gate() {
        let params = KernelParams::new(SimDuration::from_secs(10.0))
            .with_warmup(SimDuration::from_secs(4.0));
        let mut kernel: Kernel<(), NullSink> = Kernel::new(params, NullSink);
        let ctx = kernel.ctx();
        assert!(!ctx.after_warmup(SimTime::from_secs(3.9)));
        assert!(ctx.after_warmup(SimTime::from_secs(4.0)));
    }
}
