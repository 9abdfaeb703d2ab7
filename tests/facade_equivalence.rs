//! Facade-equivalence contract of the API redesign: the authorized view
//! delivered through `sdds::Client` must be **byte-identical** whether the
//! publisher's service runs 1 shard (the single-tenant layout) or 16 shards
//! (the E10 fleet layout), for permit-heavy, deny-heavy and query-restricted
//! subjects alike — and identical again through the incremental
//! `ViewStream`, through a scheduler-multiplexed session, and equal to the
//! tree oracle. Sharding must change *where requests queue*, never *what is
//! served*.

use sdds::{AccessPolicy, Client, Publisher, RuleSet, SessionScheduler, Subject};
use sdds_core::baseline::authorized_view_oracle;
use sdds_xml::generator::{Corpus, GeneratorConfig};
use sdds_xml::{writer, Document};

fn rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis",
    )
    .unwrap()
}

fn document() -> Document {
    Corpus::Hospital.generate(1_200, &GeneratorConfig::default())
}

/// The subjects of the contract: a permit+deny mix, a deny-dominated outsider
/// (no rule at all), and a query-restricted researcher.
const SUBJECTS: &[(&str, Option<&str>)] = &[
    ("doctor", None),
    ("secretary", None),
    ("outsider", None),
    ("researcher", Some("//diagnosis/item")),
];

fn views_at(shards: usize, doc: &Document) -> Vec<(String, String, String)> {
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(shards)
        .build()
        .unwrap();
    publisher.publish("folders", doc).unwrap();
    assert_eq!(publisher.service().shard_count(), shards);

    SUBJECTS
        .iter()
        .map(|(subject, query)| {
            let mut builder = Client::builder(*subject);
            if let Some(q) = query {
                builder = builder.query(*q);
            }
            let client = builder.provision(&publisher).unwrap();
            let card_view = client.authorized_view("folders").unwrap();
            let streamed = client
                .open_stream("folders")
                .unwrap()
                .collect_view()
                .unwrap();
            ((*subject).to_owned(), card_view, streamed)
        })
        .collect()
}

#[test]
fn one_and_sixteen_shards_serve_byte_identical_views() {
    let doc = document();
    let one = views_at(1, &doc);
    let sixteen = views_at(16, &doc);
    assert_eq!(one.len(), sixteen.len());

    for ((subject, card_1, stream_1), (_, card_16, stream_16)) in one.iter().zip(sixteen.iter()) {
        assert_eq!(
            card_1, card_16,
            "`{subject}`: card view differs between 1 and 16 shards"
        );
        assert_eq!(
            stream_1, stream_16,
            "`{subject}`: streamed view differs between 1 and 16 shards"
        );
        assert_eq!(
            card_1, stream_1,
            "`{subject}`: ViewStream differs from the card path"
        );

        // And both equal the tree oracle.
        let query = SUBJECTS
            .iter()
            .find(|(s, _)| s == subject)
            .and_then(|(_, q)| *q)
            .map(|q| sdds_core::Query::parse(q).unwrap());
        let oracle = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new(subject.as_str()),
            query.as_ref(),
            &AccessPolicy::paper(),
        );
        assert_eq!(
            *card_1,
            writer::to_string(&oracle),
            "`{subject}`: facade view differs from the oracle"
        );
    }

    // The deny/permit mix really exercised both sides of the contract.
    let doctor = &one[0].1;
    assert!(doctor.contains("<patient"));
    assert!(!doctor.contains("<ssn>"));
    assert!(one[2].1.is_empty(), "outsider must get an empty view");
    assert!(one[3].1.contains("<item"));
}

#[test]
fn scheduler_multiplexed_sessions_match_direct_facade_pulls() {
    // The same clients, pulled two ways on a 16-shard service: one by one
    // through `authorized_view`, and multiplexed by the round-robin scheduler.
    let doc = document();
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(16)
        .build()
        .unwrap();
    for i in 0..6 {
        publisher.publish(&format!("folder-{i}"), &doc).unwrap();
    }

    let clients: Vec<Client> = (0..6)
        .map(|i| {
            let subject = ["doctor", "secretary", "researcher"][i % 3];
            Client::builder(subject).provision(&publisher).unwrap()
        })
        .collect();

    let direct: Vec<String> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| c.authorized_view(&format!("folder-{i}")).unwrap())
        .collect();

    let sessions = clients
        .iter()
        .enumerate()
        .map(|(i, c)| c.connect(format!("folder-{i}")).unwrap())
        .collect();
    let report = SessionScheduler::new(3, 4).run(sessions);
    assert!(report.failures().is_empty(), "{:?}", report.failures());
    assert_eq!(report.finished.len(), 6);
    for finished in &report.finished {
        assert_eq!(
            finished.session.view().unwrap(),
            direct[finished.index],
            "session {} differs from its direct pull",
            finished.index
        );
    }
}

#[test]
fn view_stream_delivers_each_authorized_event_once() {
    // The stream yields exactly the oracle's events, in order, and no more
    // than the evaluator authorized: nothing is duplicated between the
    // per-chunk hand-off and the end of the session.
    let doc = document();
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .build()
        .unwrap();
    publisher.publish("folders", &doc).unwrap();
    for (subject, query) in SUBJECTS {
        let mut builder = Client::builder(*subject);
        if let Some(q) = query {
            builder = builder.query(*q);
        }
        let client = builder.provision(&publisher).unwrap();
        let mut stream = client.open_stream("folders").unwrap();
        let events: Vec<_> = stream.by_ref().map(Result::unwrap).collect();
        let oracle = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new(*subject),
            query.map(|q| sdds_core::Query::parse(q).unwrap()).as_ref(),
            &AccessPolicy::paper(),
        );
        assert_eq!(events, oracle, "`{subject}`");
        let stats = stream.stats().expect("exhausted stream has stats");
        assert_eq!(
            events.len(),
            stats.evaluator.unwrap().events_out,
            "`{subject}`: delivered vs authorized event count"
        );
    }
}
