//! The benchmark's vocabulary: every workload and metric name, with its
//! unit and direction. `BENCHMARK.json` at the repo root must list
//! exactly these (a unit test compares them), and later issues refer to
//! workloads and metrics by these names.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A simulated statistic: it repeats exactly for a seed, so two
    /// result files are compared on it for equality. Host timings, and
    /// ratios of host timings, are not exact.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        better: Better::Higher,
        ..lower(name, unit)
    }
}

/// A simulated statistic (see [`MetricDef::exact`]).
const fn exact(def: MetricDef) -> MetricDef {
    MetricDef { exact: true, ..def }
}

const fn count(name: &'static str) -> MetricDef {
    exact(lower(name, "count"))
}

/// `(name, why)` of the seven workloads, in run order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "paper-quick",
        "all 30 registry experiments at quick scale, jobs 2: what users run; engine set-up, runner scheduling and report rendering matter; checked against the golden manifest",
    ),
    (
        "guess-query",
        "serial GUESS, N=1000, cache 100, queries on: state fits in cache, so policy, link-cache reads and query execution do the work and the event queue almost none",
    ),
    (
        "guess-maint-large",
        "serial GUESS, N=250000, queries off: working set far beyond the caches; event queue, ping/pong cache writes, churn, arena memory and set-up dominate; bypasses the query path",
    ),
    (
        "guess-churn-push",
        "serial GUESS, N=4000, cache 20, lifespan x0.2, push maintenance: eviction, arena alloc/free, newborn seeding and the push plane are the busy parts",
    ),
    (
        "guess-lanes",
        "GUESS on the lane kernel, N=4000, 8 lanes, 2 threads: the only workload that runs window barriers, cross-lane batches and remote spills",
    ),
    (
        "gnutella-flood",
        "dynamic Gnutella flooding, N=2000: wavefront floods do the work and no GUESS layer runs, so it is the bypass workload for every GUESS optimisation",
    ),
    (
        "gossip-epidemic",
        "push/pull gossip, N=8000: smallest work per event, cache-resident, so kernel dispatch and queue push/pop take their largest share",
    ),
];

/// End-to-end metrics that carry a bound in `BENCHMARK.json`. The sixth
/// end-to-end metric, `failed_frac`, is 0 at HEAD and therefore cannot
/// carry a relative bound; the harness prints it, and the driver line
/// carries it as `attempted`/`failed`.
pub const END_TO_END: [MetricDef; 5] = [
    lower("run_s", "s"),
    lower("setup_s", "s"),
    higher("events_per_s", "1/s"),
    higher("msgs_per_s", "1/s"),
    lower("peak_heap_mb", "MiB"),
];

/// The end-to-end metric without a bound (see [`END_TO_END`]).
pub const FAILED_FRAC: MetricDef = lower("failed_frac", "ratio");

/// Per-layer metrics, grouped by the module that is the layer. Timings
/// come from the layer drivers; counts and ratios from the traced run of
/// the workload at hand, and read 0 on a workload that bypasses the
/// layer.
pub const PER_LAYER: [MetricDef; 76] = [
    lower("simkit.event.hold_ns_1k", "ns"),
    lower("simkit.event.hold_ns_1m", "ns"),
    lower("simkit.event.cancel_ns", "ns"),
    count("simkit.sim.events"),
    count("simkit.sim.joins"),
    count("simkit.sim.deaths"),
    lower("simkit.sim.dispatch_ns", "ns"),
    lower("simkit.lanes.barrier_us_t1", "us"),
    lower("simkit.lanes.barrier_us_t2", "us"),
    lower("simkit.lanes.cross_msg_ns", "ns"),
    higher("simkit.lanes.thread_speedup", "ratio"),
    lower("simkit.rng.next_u64_ns", "ns"),
    lower("simkit.rng.sample_indices_ns", "ns"),
    lower("simkit.dist.zipf_sample_ns", "ns"),
    lower("simkit.stats.summary_record_ns", "ns"),
    lower("simkit.stats.histogram_record_ns", "ns"),
    count("simkit.trace.records"),
    lower("simkit.trace.overhead_frac", "ratio"),
    lower("workload.content.catalog_build_ms", "ms"),
    lower("workload.content.build_library_ns", "ns"),
    lower("workload.content.answers_ns", "ns"),
    lower("workload.lifetime.lifetime_sample_ns", "ns"),
    lower("guess.policy.select_top_k_ns.random", "ns"),
    lower("guess.policy.select_top_k_ns.mru", "ns"),
    lower("guess.policy.select_top_k_ns.mfs", "ns"),
    lower("guess.policy.select_top_k_ns.mr", "ns"),
    lower("guess.policy.eviction_victim_ns.lfs", "ns"),
    lower("guess.policy.eviction_victim_ns.lru", "ns"),
    lower("guess.policy.probe_queue_ns", "ns"),
    lower("guess.link_cache.offer_ns.full", "ns"),
    lower("guess.link_cache.offer_ns.dup", "ns"),
    lower("guess.link_cache.touch_ns", "ns"),
    lower("guess.link_cache.remove_ns", "ns"),
    lower("guess.link_cache.arena_alloc_free_ns", "ns"),
    count("guess.link_cache.evictions"),
    lower("guess.push.register_ns", "ns"),
    lower("guess.push.take_interest_ns", "ns"),
    count("guess.push.invalidate_probes"),
    count("guess.push.refresh_probes"),
    count("guess.push.dropped"),
    lower("guess.bad_registry.insert_remove_ns", "ns"),
    lower("guess.capacity.admit_ns", "ns"),
    lower("guess.graph.largest_component_ms", "ms"),
    lower("guess.engine.new_ms_per_kpeer", "ms"),
    count("guess.engine.queries"),
    count("guess.engine.query_probes"),
    count("guess.engine.good_probes"),
    count("guess.engine.dead_probes"),
    count("guess.engine.refused_probes"),
    count("guess.engine.ping_probes"),
    exact(higher("guess.engine.useful_probe_frac", "ratio")),
    exact(lower("guess.engine.probes_per_query", "msgs/query")),
    exact(lower("guess.engine.unsatisfied_frac", "ratio")),
    lower("guess.engine.ns_per_msg", "ns"),
    lower("guess.engine.bytes_per_peer", "B"),
    count("guess.engine.lanes.remote_probes"),
    count("guess.engine.lanes.remote_spills"),
    lower("guess.engine.lanes.ns_per_msg", "ns"),
    exact(lower("guess.engine.lanes.probes_per_query", "msgs/query")),
    exact(lower("guess.engine.lanes.unsatisfied_frac", "ratio")),
    lower("gnutella.wavefront.advance_ns_per_edge", "ns"),
    lower("gnutella.topology.topology_build_ms", "ms"),
    lower("gnutella.topology.bfs_within_ms", "ms"),
    count("gnutella.dynamic.flood_probes"),
    exact(lower("gnutella.dynamic.msgs_per_query", "msgs/query")),
    lower("gnutella.dynamic.ns_per_msg", "ns"),
    count("gossip.engine.push_probes"),
    count("gossip.engine.pull_probes"),
    exact(lower("gossip.engine.dedup_frac", "ratio")),
    count("gossip.engine.rounds"),
    lower("gossip.engine.ns_per_msg", "ns"),
    lower("bench.runner.map_overhead_us", "us"),
    lower("bench.report.render_text_us", "us"),
    lower("bench.report.render_json_us", "us"),
    lower("bench.experiments.slowest_experiment_s", "s"),
    lower("bench.experiments.top3_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no {key} in {item:?}"))
    }

    /// A name as the benchmark contract allows it.
    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn well_formed_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(well_formed(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for def in END_TO_END.iter().chain([&FAILED_FRAC]).chain(&PER_LAYER) {
            assert!(well_formed(def.name), "metric name {}", def.name);
            assert!(well_formed_unit(def.unit), "unit of {}", def.name);
            assert!(seen.insert(def.name), "{} used twice", def.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(listed, WORKLOADS.to_vec());

        let metric = |m: &Json| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
            )
        };
        let emitted = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        let end_to_end = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(
            end_to_end.iter().map(metric).collect::<Vec<_>>(),
            emitted(&END_TO_END)
        );
        let per_layer = doc.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(
            per_layer.iter().map(metric).collect::<Vec<_>>(),
            emitted(&PER_LAYER)
        );
        assert!(per_layer.len() <= 128);

        // Every bound is a share of at most a quarter, and set-up time,
        // the noisiest, has the largest.
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
        let largest = end_to_end.iter().map(bound).fold(0.0, f64::max);
        assert!(largest <= 0.25);
        for m in end_to_end {
            assert!(bound(m) > 0.0);
            if text(m, "name") == "setup_s" {
                assert_eq!(bound(m), largest);
            }
        }
    }

    #[test]
    fn benchmark_json_names_this_package_and_nothing_outside_it() {
        let doc = benchmark_json();
        let paths: Vec<&str> = doc
            .get("paths")
            .expect("paths")
            .as_arr()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = doc
            .get("command")
            .expect("command")
            .as_arr()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command[0], "cargo");
        assert!(command.contains(&"benchmark/Cargo.toml"));
        assert!(command
            .iter()
            .all(|arg| !arg.starts_with('/') && !arg.contains("..")));
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
