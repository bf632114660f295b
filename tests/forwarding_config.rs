//! The config rules both forwarding engines share, checked once per
//! rule against each engine: `validate` and `build` reject the broken
//! config with the shared error, and the message names the field. The
//! engines' own rules (degree, TTL, fanout, round TTL, pull probability,
//! round interval) are tested beside each engine.

use gnutella::dynamic::{GnutellaConfig, InvalidGnutellaConfig};
use gossip::{Config as GossipConfig, GossipConfigError};
use simkit::time::SimDuration;
use workload::population::{ForwardingConfig, ForwardingConfigError as Rule};

/// One broken setting: what it breaks, and a word the message carries.
type Case = (Rule, &'static str, fn(&mut ForwardingConfig));

const CASES: [Case; 15] = [
    (Rule::NetworkTooSmall, "network_size", |c| {
        c.network_size = 1
    }),
    (Rule::NetworkTooSmall, "network_size", |c| {
        c.network_size = 0
    }),
    (Rule::ZeroDesiredResults, "num_desired_results", |c| {
        c.num_desired_results = 0;
    }),
    (Rule::BadQueryRate, "query_rate", |c| c.query_rate = 0.0),
    (Rule::BadQueryRate, "query_rate", |c| {
        c.query_rate = f64::NAN
    }),
    (Rule::BadQueryRate, "query_rate", |c| {
        c.query_rate = f64::INFINITY
    }),
    (Rule::BadLifespanMultiplier, "lifespan_multiplier", |c| {
        c.lifespan_multiplier = -1.0;
    }),
    (Rule::BadLifespanMultiplier, "lifespan_multiplier", |c| {
        c.lifespan_multiplier = f64::NAN;
    }),
    (Rule::BadCatalog, "catalog", |c| c.catalog.items = 0),
    (Rule::BadCatalog, "catalog", |c| {
        c.catalog.query_exponent = -0.5
    }),
    (Rule::BadCatalog, "catalog", |c| {
        c.catalog.replication_exponent = f64::NAN;
    }),
    (Rule::WarmupTooLong, "warmup", |c| c.warmup = c.duration),
    (Rule::WarmupTooLong, "warmup", |c| {
        c.warmup = c.duration + SimDuration::from_secs(1.0);
    }),
    (Rule::ZeroSampleInterval, "sample_interval", |c| {
        c.sample_interval = Some(SimDuration::ZERO);
    }),
    (Rule::ZeroSampleInterval, "sample_interval", |c| {
        c.sample_interval = Some(SimDuration::from_secs(0.0));
    }),
];

#[test]
fn each_shared_rule_rejects_on_both_engines() {
    for (rule, word, breaks) in CASES {
        let mut gnutella = GnutellaConfig::small_test(1);
        breaks(&mut gnutella);
        assert_eq!(
            gnutella.validate(),
            Err(InvalidGnutellaConfig::Shared(rule))
        );
        let message = gnutella.validate().unwrap_err().to_string();
        assert!(message.contains(word), "{rule:?}: {message}");
        assert_eq!(
            gnutella.build().err(),
            Some(InvalidGnutellaConfig::Shared(rule))
        );

        let mut gossip = GossipConfig::small_test(1);
        breaks(&mut gossip);
        assert_eq!(gossip.validate(), Err(GossipConfigError::Shared(rule)));
        let message = gossip.validate().unwrap_err().to_string();
        assert!(message.contains(word), "{rule:?}: {message}");
        assert_eq!(gossip.build().err(), Some(GossipConfigError::Shared(rule)));
    }
}

#[test]
fn every_shared_rule_is_covered_and_has_its_own_message() {
    let mut rules: Vec<Rule> = CASES.iter().map(|case| case.0).collect();
    rules.dedup();
    assert_eq!(rules.len(), 7, "one case or more per shared rule");
    let mut messages: Vec<String> = rules.iter().map(ToString::to_string).collect();
    messages.sort();
    messages.dedup();
    assert_eq!(messages.len(), 7, "{messages:?}");
}

/// `validate` accepts only what `build` accepts: a scenario's parameter
/// flip installs whatever `validate` passes.
#[test]
fn bad_catalog_fails_validate_on_both_engines() {
    let mut gnutella = GnutellaConfig::small_test(1);
    gnutella.catalog.items = 0;
    assert!(gnutella.validate().is_err());
    let mut gossip = GossipConfig::small_test(1);
    gossip.catalog.items = 0;
    assert!(gossip.validate().is_err());
}

#[test]
fn defaults_and_small_configs_pass_on_both_engines() {
    assert_eq!(GnutellaConfig::default().validate(), Ok(()));
    assert_eq!(GnutellaConfig::small_test(1).validate(), Ok(()));
    assert_eq!(GossipConfig::default().validate(), Ok(()));
    assert_eq!(GossipConfig::small_test(1).validate(), Ok(()));
}
