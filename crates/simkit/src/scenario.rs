//! Scenario timelines: scripted mid-run interventions.
//!
//! The interesting failure modes of the protocols under study — cache
//! staleness, malicious takeover, churn recovery — are *dynamic*
//! phenomena. A [`Scenario`] is a timeline of [`Intervention`]s
//! (join/leave waves, query flash crowds, parameter flips, network
//! partitions) that the kernel delivers to the engine at scripted
//! simulation instants, through the [`Intervenable`] trait.
//!
//! # Event model
//!
//! `Scenario::compile` stable-sorts the timeline by instant and stamps
//! each entry with its post-sort index — its *generation*. The kernel
//! ([`crate::sim::Kernel::run_scenario`]) schedules one control event
//! per generation **before** popping anything, so control events
//! interleave with engine events purely by `(time, seq)` order and the
//! run stays deterministic. Carrying the earliest sequence numbers, a
//! control fires before every engine event at its instant, including
//! those an earlier control at that instant scheduled: a flash crowd's
//! flood hops pop after a join wave right behind it on the timeline, so
//! a control can land between the hops of a flood. An empty timeline
//! schedules nothing, so running through the scenario path with it is
//! byte-identical to a plain run.
//!
//! # The `Intervenable` contract
//!
//! [`Intervenable::intervene`] is written once, here; an engine
//! supplies only hooks. Join and leave waves and flash crowds call the
//! engine's `join_one` / `kill_one` / `query_one` once per peer or
//! query, so every draw stays interleaved with its birth, death or
//! query exactly as in the engine's own churn and workload paths — a
//! scenario can never put an engine into a state an ordinary run could
//! not reach. A parameter flip is applied to a clone of the engine's
//! config, and `install` validates the clone and rebuilds what depends
//! on it before anything is written — so a flip can never install a
//! value `validate()` would reject, and a rejected flip installs
//! nothing.
//!
//! Partition validity is a property of the timeline, not of the engine:
//! [`crate::sim::Kernel::run_scenario`] rejects a partition into fewer
//! than two groups over the compiled timeline, before the run starts,
//! through the same [`Partition::new`] rule engines install with. What a
//! partition means, and which [`Param`]s an engine flips, is each
//! engine's own: see its `scenario_ops` module.
//!
//! # Example
//!
//! ```
//! use simkit::scenario::{Intervention, Param, Scenario};
//!
//! let s = Scenario::new()
//!     .at(100.0)
//!     .mass_join(50)
//!     .at(200.0)
//!     .flash_crowd(400)
//!     .at(300.0)
//!     .param_flip(Param::QueryRate(0.05))
//!     .at(400.0)
//!     .partition(2)
//!     .at(500.0)
//!     .heal();
//! assert_eq!(s.len(), 5);
//! ```

use std::num::NonZeroU32;

use crate::sim::{SimCtx, Simulation};
use crate::stats::CounterSet;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceSink;

/// How an engine keeps its cached peer state fresh.
///
/// `Pull` is the classic poll-until-stale model (GUESS Ping/Pong);
/// `Push` replaces most polling with CUP-style pushed invalidations and
/// refreshes along interest edges; `Hybrid` keeps full-rate polling and
/// adds pushed invalidations on top. Engines without a maintenance
/// plane reject flips of this parameter as unsupported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MaintenanceMode {
    /// Poll-only freshness: periodic pings discover stale state.
    #[default]
    Pull,
    /// Push-dominant: subjects push invalidations and refreshes to
    /// interested holders; polling runs at a stretched interval.
    Push,
    /// Full-rate polling plus pushed invalidations.
    Hybrid,
}

impl MaintenanceMode {
    /// Stable lowercase name, used in reports and CLI surfaces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceMode::Pull => "pull",
            MaintenanceMode::Push => "push",
            MaintenanceMode::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for MaintenanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime-flippable parameter, engine-agnostic.
///
/// Each engine supports the subset that names one of its own knobs and
/// rejects the rest with [`ScenarioError::Unsupported`]. Flips are
/// re-validated through the engine's existing config validation before
/// they take effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// Per-peer query rate (queries/sec). All three engines.
    QueryRate(f64),
    /// Fraction of newborn peers that are malicious (GUESS).
    BadPeerFraction(f64),
    /// Interval between a peer's periodic pings (GUESS).
    PingInterval(SimDuration),
    /// Probes issued concurrently per query (GUESS).
    ParallelProbes(usize),
    /// Contacts per spreader per round (gossip).
    Fanout(usize),
    /// Rounds a rumor may spread before retirement (gossip).
    RoundTtl(u32),
    /// Probability a duplicate push triggers a pull (gossip).
    PullProbability(f64),
    /// Flood TTL in hops (Gnutella).
    FloodTtl(usize),
    /// Neighbor-count target the overlay repairs toward (Gnutella).
    TargetDegree(usize),
    /// Cache maintenance mode: pull, push, or hybrid (GUESS).
    MaintenanceMode(MaintenanceMode),
}

impl Param {
    /// Stable display name of the flipped knob.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Param::QueryRate(_) => "query_rate",
            Param::BadPeerFraction(_) => "bad_peer_fraction",
            Param::PingInterval(_) => "ping_interval",
            Param::ParallelProbes(_) => "parallel_probes",
            Param::Fanout(_) => "fanout",
            Param::RoundTtl(_) => "round_ttl",
            Param::PullProbability(_) => "pull_probability",
            Param::FloodTtl(_) => "flood_ttl",
            Param::TargetDegree(_) => "target_degree",
            Param::MaintenanceMode(_) => "maintenance_mode",
        }
    }
}

/// One scripted intervention, delivered at its timeline instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intervention {
    /// Grow the network by `count` newborn peers at once.
    MassJoin {
        /// Peers to add.
        count: usize,
    },
    /// Kill `count` uniformly chosen live peers at once (the engine's
    /// normal death path runs for each, replacements included where the
    /// engine's churn model prescribes them).
    MassLeave {
        /// Peers to kill.
        count: usize,
    },
    /// Inject `queries` extra queries immediately, from uniformly
    /// chosen live sources, through the normal query path.
    FlashCrowd {
        /// Queries to inject.
        queries: usize,
    },
    /// Flip one runtime parameter (re-validated before taking effect).
    ParamFlip(Param),
    /// Split the network into `groups` groups (peer `i` belongs to
    /// group `i % groups`); cross-group messages are dropped until
    /// [`Intervention::Heal`].
    Partition {
        /// Number of groups (must be ≥ 2).
        groups: u32,
    },
    /// Remove the active partition.
    Heal,
}

impl Intervention {
    /// Stable display label of the intervention kind.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Intervention::MassJoin { .. } => "mass_join",
            Intervention::MassLeave { .. } => "mass_leave",
            Intervention::FlashCrowd { .. } => "flash_crowd",
            Intervention::ParamFlip(_) => "param_flip",
            Intervention::Partition { .. } => "partition",
            Intervention::Heal => "heal",
        }
    }
}

/// Why a scenario could not be applied to an engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A [`Param`] flip failed the engine's config validation. Carries
    /// the engine's own validation message.
    InvalidParam(String),
    /// The engine has no knob matching the requested intervention.
    Unsupported {
        /// The rejecting engine.
        engine: &'static str,
        /// The label of the rejected action or parameter.
        action: &'static str,
    },
    /// A partition spec that does not describe ≥ 2 groups.
    BadPartition {
        /// The offending group count.
        groups: u32,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidParam(msg) => {
                write!(f, "scenario: parameter flip rejected: {msg}")
            }
            ScenarioError::Unsupported { engine, action } => {
                write!(f, "scenario: {engine} does not support {action}")
            }
            ScenarioError::BadPartition { groups } => {
                write!(f, "scenario: a partition needs >= 2 groups, got {groups}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One compiled timeline entry: instant + action. Its position in the
/// compiled vector is its generation stamp — the payload of the control
/// event the kernel schedules for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledEvent {
    pub(crate) at: SimTime,
    pub(crate) action: Intervention,
}

/// A timeline of interventions, built fluently.
///
/// [`Scenario::at`] moves the cursor; every action method appends an
/// intervention at the cursor. See the [module docs](self) for a full
/// example. The empty scenario is the identity: running through the
/// scenario machinery with it is byte-identical to a plain run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    events: Vec<(SimTime, Intervention)>,
    cursor: SimTime,
}

impl Scenario {
    /// An empty timeline with the cursor at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Moves the cursor to `secs` seconds of simulation time.
    #[must_use]
    pub fn at(mut self, secs: f64) -> Self {
        self.cursor = SimTime::from_secs(secs);
        self
    }

    /// Appends an arbitrary intervention at the cursor.
    #[must_use]
    pub fn intervene(mut self, action: Intervention) -> Self {
        self.events.push((self.cursor, action));
        self
    }

    /// Appends a [`Intervention::MassJoin`] of `count` peers.
    #[must_use]
    pub fn mass_join(self, count: usize) -> Self {
        self.intervene(Intervention::MassJoin { count })
    }

    /// Appends a [`Intervention::MassLeave`] of `count` peers.
    #[must_use]
    pub fn mass_leave(self, count: usize) -> Self {
        self.intervene(Intervention::MassLeave { count })
    }

    /// Appends a [`Intervention::FlashCrowd`] of `queries` queries.
    #[must_use]
    pub fn flash_crowd(self, queries: usize) -> Self {
        self.intervene(Intervention::FlashCrowd { queries })
    }

    /// Appends a [`Intervention::ParamFlip`].
    #[must_use]
    pub fn param_flip(self, param: Param) -> Self {
        self.intervene(Intervention::ParamFlip(param))
    }

    /// Appends a [`Intervention::Partition`] into `groups` groups.
    #[must_use]
    pub fn partition(self, groups: u32) -> Self {
        self.intervene(Intervention::Partition { groups })
    }

    /// Appends a [`Intervention::Heal`].
    #[must_use]
    pub fn heal(self) -> Self {
        self.intervene(Intervention::Heal)
    }

    /// Number of interventions on the timeline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the timeline is empty (the identity scenario).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timeline entries in insertion order (instant, action).
    #[must_use]
    pub fn events(&self) -> &[(SimTime, Intervention)] {
        &self.events
    }

    /// Compiles the timeline: stable-sorts by instant (insertion order
    /// breaks ties) and stamps each entry with its index — the
    /// generation carried by the kernel's control events.
    pub(crate) fn compile(&self) -> Vec<CompiledEvent> {
        let mut compiled: Vec<CompiledEvent> = self
            .events
            .iter()
            .map(|&(at, action)| CompiledEvent { at, action })
            .collect();
        compiled.sort_by_key(|entry| entry.at);
        compiled
    }
}

/// An active network partition: peer slot `i` belongs to group
/// `i % groups`, and peers in different groups cannot exchange
/// messages. Engines hold an `Option<Partition>`; `None` is the fully
/// connected network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    groups: NonZeroU32,
}

impl Partition {
    /// A partition into `groups` groups.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadPartition`] for fewer than two groups.
    pub fn new(groups: u32) -> Result<Self, ScenarioError> {
        match NonZeroU32::new(groups) {
            Some(nz) if groups >= 2 => Ok(Partition { groups: nz }),
            _ => Err(ScenarioError::BadPartition { groups }),
        }
    }

    /// True when slots `a` and `b` are in the same group.
    #[inline]
    #[must_use]
    pub fn same_side(self, a: u32, b: u32) -> bool {
        a % self.groups == b % self.groups
    }
}

/// An engine that accepts mid-run interventions.
///
/// The engine supplies hooks; [`Intervenable::intervene`] is provided
/// and turns every [`Intervention`] into hook calls (see the
/// [module docs](self)). Actions the engine cannot express return a
/// [`ScenarioError`]; the kernel aborts the run and surfaces the error.
pub trait Intervenable<T: TraceSink>: Simulation<T> {
    /// Engine name carried by [`ScenarioError::Unsupported`].
    const ENGINE: &'static str;

    /// The engine's validated configuration.
    type Config: Clone;

    /// Adds one newborn peer through the engine's birth path.
    fn join_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Self::Event, T>);

    /// Draws one live victim and kills it through the engine's death
    /// path, replacement included where the churn model prescribes one.
    /// The victim's own scheduled death must then be ignored as stale.
    fn kill_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Self::Event, T>);

    /// Draws one live source and starts one query from it through the
    /// engine's query path.
    fn query_one(&mut self, now: SimTime, ctx: &mut SimCtx<'_, Self::Event, T>);

    /// The installed configuration.
    fn config(&self) -> &Self::Config;

    /// Writes `param` into `cfg`; `false` when the engine has no such
    /// knob.
    fn set_param(cfg: &mut Self::Config, param: Param) -> bool;

    /// Validates `cfg`, rebuilds whatever depends on it, and installs
    /// it. On error nothing is installed.
    ///
    /// # Errors
    ///
    /// Returns the engine's validation message.
    fn install(&mut self, cfg: Self::Config) -> Result<(), String>;

    /// The engine's active partition.
    fn partition_mut(&mut self) -> &mut Option<Partition>;

    /// The engine's run counters; each intervention counts once under
    /// `interventions`.
    fn counters_mut(&mut self) -> &mut CounterSet;

    /// Applies one intervention at instant `now`. Follow-up scheduling
    /// and trace emission go through `ctx`, exactly as in
    /// [`Simulation::handle`].
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the action names a knob the
    /// engine does not have or fails the engine's config validation.
    fn intervene(
        &mut self,
        now: SimTime,
        action: &Intervention,
        ctx: &mut SimCtx<'_, Self::Event, T>,
    ) -> Result<(), ScenarioError> {
        self.counters_mut().incr("interventions");
        match *action {
            Intervention::MassJoin { count } => (0..count).for_each(|_| self.join_one(now, ctx)),
            Intervention::MassLeave { count } => (0..count).for_each(|_| self.kill_one(now, ctx)),
            Intervention::FlashCrowd { queries } => {
                (0..queries).for_each(|_| self.query_one(now, ctx));
            }
            Intervention::ParamFlip(param) => {
                let mut cfg = self.config().clone();
                if !Self::set_param(&mut cfg, param) {
                    return Err(ScenarioError::Unsupported {
                        engine: Self::ENGINE,
                        action: param.name(),
                    });
                }
                self.install(cfg).map_err(ScenarioError::InvalidParam)?;
            }
            Intervention::Partition { groups } => {
                *self.partition_mut() = Some(Partition::new(groups)?)
            }
            Intervention::Heal => *self.partition_mut() = None,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_at_the_cursor() {
        let s = Scenario::new()
            .at(10.0)
            .mass_join(5)
            .mass_leave(3)
            .at(20.0)
            .flash_crowd(100);
        let ev = s.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].0, SimTime::from_secs(10.0));
        assert_eq!(ev[1].0, SimTime::from_secs(10.0), "cursor sticks");
        assert_eq!(ev[2].0, SimTime::from_secs(20.0));
        assert_eq!(ev[2].1, Intervention::FlashCrowd { queries: 100 });
    }

    #[test]
    fn compile_is_a_stable_sort_by_time() {
        // Inserted out of order; ties keep insertion order.
        let s = Scenario::new()
            .at(30.0)
            .heal()
            .at(10.0)
            .partition(2)
            .at(10.0)
            .mass_join(1);
        let c = s.compile();
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].at, SimTime::from_secs(10.0));
        assert_eq!(c[0].action, Intervention::Partition { groups: 2 });
        assert_eq!(c[1].at, SimTime::from_secs(10.0));
        assert_eq!(c[1].action, Intervention::MassJoin { count: 1 });
        assert_eq!(c[2].action, Intervention::Heal);
    }

    #[test]
    fn empty_scenario_compiles_to_nothing() {
        let s = Scenario::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.compile().is_empty());
    }

    #[test]
    fn labels_and_param_names_are_stable() {
        assert_eq!(Intervention::Heal.label(), "heal");
        assert_eq!(Intervention::MassJoin { count: 1 }.label(), "mass_join");
        assert_eq!(
            Intervention::ParamFlip(Param::QueryRate(0.1)).label(),
            "param_flip"
        );
        assert_eq!(Param::Fanout(2).name(), "fanout");
        assert_eq!(Param::FloodTtl(5).name(), "flood_ttl");
        assert_eq!(
            Param::MaintenanceMode(MaintenanceMode::Push).name(),
            "maintenance_mode"
        );
    }

    #[test]
    fn maintenance_mode_defaults_to_pull_and_names_are_stable() {
        assert_eq!(MaintenanceMode::default(), MaintenanceMode::Pull);
        assert_eq!(MaintenanceMode::Pull.name(), "pull");
        assert_eq!(MaintenanceMode::Push.name(), "push");
        assert_eq!(MaintenanceMode::Hybrid.name(), "hybrid");
        assert_eq!(MaintenanceMode::Hybrid.to_string(), "hybrid");
    }

    #[test]
    fn partition_needs_two_groups_and_groups_by_slot_modulo() {
        for groups in [0, 1] {
            assert_eq!(
                Partition::new(groups),
                Err(ScenarioError::BadPartition { groups })
            );
        }
        let p = Partition::new(3).unwrap();
        assert!(p.same_side(1, 7));
        assert!(p.same_side(0, 0));
        assert!(!p.same_side(2, 3));
        assert!(p.same_side(u32::MAX, 0), "u32::MAX is divisible by 3");
        assert_eq!(std::mem::size_of::<Option<Partition>>(), 4);
    }

    #[test]
    fn errors_display_their_cause() {
        let e = ScenarioError::Unsupported {
            engine: "gossip",
            action: "ping_interval",
        };
        assert!(e.to_string().contains("gossip"));
        assert!(e.to_string().contains("ping_interval"));
        let p = ScenarioError::BadPartition { groups: 1 };
        assert!(p.to_string().contains(">= 2"));
        let v = ScenarioError::InvalidParam("rate must be positive".into());
        assert!(v.to_string().contains("rate must be positive"));
    }
}
