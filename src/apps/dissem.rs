//! Demonstration application 2: selective dissemination of streams.
//!
//! "The second one deals with the selective dissemination of multimedia
//! streams through unsecured channels" (§3). The publisher broadcasts every
//! encrypted item to every subscriber; each subscriber's SOE filters the
//! stream against that subscriber's rules (channel subscriptions, parental
//! control on ratings) with a per-item latency that must stay compatible with
//! the stream rate — experiment E6 measures exactly that.
//!
//! Push mode has no DSP in the loop, so subscriber cards are provisioned with
//! their protected rules up front ([`crate::Client::terminal_with_rules`])
//! and each broadcast item is evaluated locally on the card.

use std::time::Duration;

use sdds_card::{CardProfile, CostModel};
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{evaluate_secure_document, EngineConfig};
use sdds_core::evaluator::EvaluatorConfig;
use sdds_core::rule::{RuleSet, Subject};
use sdds_proxy::DisseminationChannel;
use sdds_xml::Document;

use crate::client::{Client, Publisher};
use crate::error::SddsError;

/// Per-subscriber outcome of consuming the whole stream.
#[derive(Debug, Clone)]
pub struct SubscriberReport {
    /// Subscriber name.
    pub subscriber: String,
    /// Items delivered (at least partially visible).
    pub items_delivered: usize,
    /// Items entirely filtered out by the subscriber's rules.
    pub items_blocked: usize,
    /// Total simulated time spent by the card on the whole stream (e-gate cost
    /// model), used against the real-time requirement.
    pub total_latency: Duration,
    /// Worst per-item simulated latency.
    pub max_item_latency: Duration,
    /// Bytes the subscriber's SOE skipped thanks to the index.
    pub bytes_skipped: usize,
}

impl SubscriberReport {
    /// True if every item was processed within `deadline` (the stream period).
    pub fn meets_real_time(&self, deadline: Duration) -> bool {
        self.max_item_latency <= deadline
    }
}

/// The dissemination application: one publisher, many subscribers.
pub struct DisseminationApp {
    publisher: Publisher,
    channel: DisseminationChannel,
    card_profile: CardProfile,
}

impl DisseminationApp {
    /// Creates the application and publishes every item of `stream_doc`.
    pub fn new(
        community_secret: &[u8],
        stream_doc: &Document,
        subscriber_rules: RuleSet,
        card_profile: CardProfile,
    ) -> Self {
        let publisher = Publisher::builder(community_secret)
            .rules(subscriber_rules)
            .build()
            // lint: infallible — the builder only errors on an explicit
            // out-of-range shard count, which this path never sets.
            .expect("the dissemination publisher configuration is valid");
        let mut channel = DisseminationChannel::new("broadcast", publisher.server().document_key());
        channel.publish_all(stream_doc);
        DisseminationApp {
            publisher,
            channel,
            card_profile,
        }
    }

    /// The publisher's channel.
    pub fn channel(&self) -> &DisseminationChannel {
        &self.channel
    }

    /// The community publisher (policy and keys).
    pub fn publisher(&self) -> &Publisher {
        &self.publisher
    }

    /// Subscribers named in the policy.
    pub fn subscribers(&self) -> Vec<Subject> {
        self.publisher.subjects()
    }

    /// Runs the whole stream through the subscriber's card terminal (full
    /// APDU path) and reports per-item outcomes. `policy` selects the default
    /// decision: parental-control subscribers use [`AccessPolicy::open`] (only
    /// their prohibitions filter the stream), subscription-based subscribers
    /// use the closed world of the paper.
    pub fn consume_with_card(
        &self,
        subscriber: &str,
        policy: AccessPolicy,
    ) -> Result<SubscriberReport, SddsError> {
        let client = Client::builder(subscriber)
            .card_profile(self.card_profile)
            .open_policy(policy == AccessPolicy::open())
            .provision(&self.publisher)?;
        let mut terminal = client.terminal_with_rules()?;
        let mut report = SubscriberReport {
            subscriber: subscriber.to_owned(),
            items_delivered: 0,
            items_blocked: 0,
            total_latency: Duration::ZERO,
            max_item_latency: Duration::ZERO,
            bytes_skipped: 0,
        };
        let model = CostModel::egate();
        for item in self.channel.published() {
            let view = terminal.evaluate_local(&item.document)?;
            // The card resets its ledger at every `OPEN_SESSION`, so the
            // reading covers this item alone.
            let item_latency = terminal.latency(&model).total();
            report.total_latency += item_latency;
            report.max_item_latency = report.max_item_latency.max(item_latency);
            if view.is_empty() {
                report.items_blocked += 1;
            } else {
                report.items_delivered += 1;
            }
        }
        Ok(report)
    }

    /// Lighter-weight variant used by the benches: evaluates the stream with
    /// the in-process engine (no APDU framing).
    pub fn consume_in_process(
        &self,
        subscriber: &str,
        policy: AccessPolicy,
    ) -> Result<SubscriberReport, SddsError> {
        let rules = self.publisher.rules().clone();
        let mut report = SubscriberReport {
            subscriber: subscriber.to_owned(),
            items_delivered: 0,
            items_blocked: 0,
            total_latency: Duration::ZERO,
            max_item_latency: Duration::ZERO,
            bytes_skipped: 0,
        };
        let model = CostModel::egate();
        for item in self.channel.published() {
            let config = EngineConfig::new(
                EvaluatorConfig::new(rules.clone(), subscriber).with_policy(policy),
            );
            let (view, stats) =
                evaluate_secure_document(&item.document, self.channel.key(), config)?;
            let latency = stats.ledger.breakdown(&model).total();
            report.total_latency += latency;
            report.max_item_latency = report.max_item_latency.max(latency);
            report.bytes_skipped += stats.ledger.bytes_skipped;
            if view.is_empty() {
                report.items_blocked += 1;
            } else {
                report.items_delivered += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_xml::generator::{self, GeneratorConfig, StreamProfile};

    fn app(items: usize) -> DisseminationApp {
        let stream = generator::stream(
            &StreamProfile {
                items,
                payload_len: 64,
                ..StreamProfile::default()
            },
            &GeneratorConfig::default(),
        );
        // Parental control for "kid" (open world: blocks items rated above 12)
        // and a channel subscription for "trader" (closed world: only the
        // finance channel is granted).
        let rules = RuleSet::parse(
            "-, kid, //item[rating > 12]\n\
             +, trader, //item[@channel = \"finance\"]",
        )
        .unwrap();
        DisseminationApp::new(
            b"broadcast-2005",
            &stream,
            rules,
            CardProfile::modern_secure_element(),
        )
    }

    #[test]
    fn parental_control_filters_in_the_subscribers_card() {
        let app = app(8);
        assert_eq!(app.subscribers().len(), 2);
        assert_eq!(app.channel().published().len(), 8);
        let report = app.consume_with_card("kid", AccessPolicy::open()).unwrap();
        assert_eq!(report.items_delivered + report.items_blocked, 8);
        assert!(report.items_delivered > 0);
        assert!(report.items_blocked > 0);
        assert!(report.total_latency > Duration::ZERO);
        assert!(report.max_item_latency <= report.total_latency);
    }

    #[test]
    fn card_latency_sums_per_item_readings() {
        let app = app(8);
        let report = app.consume_with_card("kid", AccessPolicy::open()).unwrap();
        // Replay the stream on a fresh terminal of the same subscriber and
        // read the card's cost model after every item.
        let client = Client::builder("kid")
            .card_profile(app.card_profile)
            .open_policy(true)
            .provision(app.publisher())
            .unwrap();
        let mut terminal = client.terminal_with_rules().unwrap();
        let model = CostModel::egate();
        let readings: Vec<Duration> = app
            .channel()
            .published()
            .iter()
            .map(|item| {
                terminal.evaluate_local(&item.document).unwrap();
                terminal.latency(&model).total()
            })
            .collect();
        assert!(readings.iter().all(|&r| r > Duration::ZERO));
        assert_eq!(report.total_latency, readings.iter().sum::<Duration>());
        assert_eq!(
            report.max_item_latency,
            readings.iter().copied().max().unwrap()
        );
    }

    #[test]
    fn channel_subscription_filters_by_attribute() {
        let app = app(12);
        let report = app
            .consume_in_process("trader", AccessPolicy::paper())
            .unwrap();
        assert_eq!(report.items_delivered + report.items_blocked, 12);
        assert!(
            report.items_blocked > 0,
            "non-finance items must be blocked"
        );
        // Real-time check: each item must be processed faster than a (slow)
        // one-item-per-ten-seconds stream on the e-gate model.
        assert!(report.meets_real_time(Duration::from_secs(10)));
    }

    #[test]
    fn in_process_and_card_paths_agree_on_delivery_counts() {
        let app = app(6);
        let card = app.consume_with_card("kid", AccessPolicy::open()).unwrap();
        let fast = app.consume_in_process("kid", AccessPolicy::open()).unwrap();
        assert_eq!(card.items_delivered, fast.items_delivered);
        assert_eq!(card.items_blocked, fast.items_blocked);
    }
}
