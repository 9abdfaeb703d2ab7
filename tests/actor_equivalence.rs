//! Scheduling contract: multiplexing card sessions is a *scheduling*
//! change, never a *serving* change. Facade-built card sessions run through
//! the [`SessionScheduler`] must produce **byte-identical per-session
//! views** to unscheduled pulls, and the actor executor underneath must not
//! starve idle sessions behind a chatty one.
//!
//! Like the other property suites, the equivalence property runs over
//! `SDDS_PROP_CASES` seeded deterministic cases (default 64; CI 256), each
//! randomizing the deployment shape (shards, replicas, clients, workers,
//! quantum) so the contract is pinned across layouts, not at one point.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdds::dsp::{ActorEngine, ActorSession, ActorStatus};
use sdds::{Client, Publisher, RuleSet, SessionScheduler};
use sdds_xml::generator::{Corpus, GeneratorConfig};

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

fn rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, researcher, //diagnosis",
    )
    .unwrap()
}

/// Byte-identical per-session views however the cards are multiplexed.
///
/// Each case publishes a small hospital corpus onto a randomly shaped
/// service (1–5 shards, optionally replicated), provisions 2–10 clients of
/// mixed subjects, and pulls every document through a
/// [`SessionScheduler`] with a random worker count and quantum. Each
/// scheduled view must equal that client's unscheduled
/// [`Client::authorized_view`], and the per-session step counts and the
/// failure set must equal those of a one-worker run of the same sessions.
#[test]
fn scheduled_views_match_serial_pulls_and_the_one_worker_run() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE11_0001 + case);
        let shards = rng.gen_range(1..=5usize);
        let copies = if rng.gen_bool(0.5) {
            rng.gen_range(1..=shards)
        } else {
            1
        };
        let clients_n = rng.gen_range(2..=10usize);
        let workers = rng.gen_range(1..=4usize);
        let quantum = rng.gen_range(1..=6usize);
        let docs = rng.gen_range(1..=3usize);
        let shape = format!(
            "case {case}: shards={shards} copies={copies} clients={clients_n} \
             workers={workers} quantum={quantum} docs={docs}"
        );

        let publisher = Publisher::builder(b"hospital-2005")
            .rules(rules())
            .shards(shards)
            .replicate(copies)
            .build()
            .unwrap();
        let doc = Corpus::Hospital.generate(400, &GeneratorConfig::default());
        for i in 0..docs {
            publisher.publish(&format!("folder-{i}"), &doc).unwrap();
        }

        let clients: Vec<Client> = (0..clients_n)
            .map(|i| {
                let subject = ["doctor", "secretary", "researcher"][i % 3];
                Client::builder(subject).provision(&publisher).unwrap()
            })
            .collect();
        let folder = |i: usize| format!("folder-{}", i % docs);
        let connect_all = || {
            clients
                .iter()
                .enumerate()
                .map(|(i, c)| c.connect(folder(i)).unwrap())
                .collect::<Vec<_>>()
        };

        let scheduled = SessionScheduler::new(workers, quantum).run(connect_all());
        let one_worker = SessionScheduler::new(1, quantum).run(connect_all());

        assert!(
            scheduled.failures().is_empty(),
            "{shape}: {:?}",
            scheduled.failures()
        );
        assert_eq!(
            scheduled.failures(),
            one_worker.failures(),
            "{shape}: failure sets differ from the one-worker run"
        );
        assert_eq!(scheduled.finished.len(), clients_n, "{shape}");
        assert_eq!(one_worker.finished.len(), clients_n, "{shape}");
        assert_eq!(
            scheduled.steps_total, one_worker.steps_total,
            "{shape}: worker count changed the total work"
        );

        // Compare per submission index: retirement order may differ with the
        // worker count, the served bytes and the work per session may not.
        let mut scheduled_by_index: Vec<_> = scheduled.finished.iter().collect();
        scheduled_by_index.sort_by_key(|f| f.index);
        let mut one_worker_by_index: Vec<_> = one_worker.finished.iter().collect();
        one_worker_by_index.sort_by_key(|f| f.index);
        for (s, one) in scheduled_by_index.iter().zip(&one_worker_by_index) {
            assert_eq!(s.index, one.index, "{shape}");
            let serial = clients[s.index].authorized_view(&folder(s.index)).unwrap();
            assert_eq!(
                s.session.view(),
                Some(serial.as_str()),
                "{shape}: session {} view differs from its unscheduled pull",
                s.index
            );
            assert_eq!(
                s.steps, one.steps,
                "{shape}: session {} took different step counts than on one worker",
                s.index
            );
        }
    }
}

/// A session that completes after one delivered event.
struct Idle {
    done: bool,
    dispatches: usize,
}

impl ActorSession for Idle {
    type Event = ();

    fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
        self.dispatches += 1;
        if self.done {
            return Err("idle session dispatched after completion".into());
        }
        self.done = true;
        Ok(ActorStatus::Complete)
    }

    fn on_step(&mut self) -> Result<ActorStatus, String> {
        Err("idle session stepped without an event".into())
    }
}

/// A session that needs many deliveries before it completes.
struct Chatty {
    remaining: usize,
}

impl ActorSession for Chatty {
    type Event = ();

    fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
        self.remaining -= 1;
        Ok(if self.remaining == 0 {
            ActorStatus::Complete
        } else {
            ActorStatus::Parked
        })
    }

    fn on_step(&mut self) -> Result<ActorStatus, String> {
        Err("chatty session stepped without an event".into())
    }
}

/// No starvation: one chatty session receiving 500 event batches must not
/// keep 100 idle sessions (one event each) from completing, and each idle
/// session costs exactly one dispatch — the O(changed work) property that
/// makes the actor engine scale to 100k mostly-idle sessions (E11).
#[test]
fn a_chatty_session_does_not_starve_idle_sessions() {
    enum Either {
        Chatty(Chatty),
        Idle(Idle),
    }
    impl ActorSession for Either {
        type Event = ();
        fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
            match self {
                Either::Chatty(c) => c.on_event(()),
                Either::Idle(i) => i.on_event(()),
            }
        }
        fn on_step(&mut self) -> Result<ActorStatus, String> {
            Err("event-driven session stepped without an event".into())
        }
    }

    const CHATTY_EVENTS: usize = 500;
    const IDLE: usize = 100;
    let mut sessions = vec![Either::Chatty(Chatty {
        remaining: CHATTY_EVENTS,
    })];
    sessions.extend((0..IDLE).map(|_| {
        Either::Idle(Idle {
            done: false,
            dispatches: 0,
        })
    }));

    let report = ActorEngine::new(2).run(sessions, |handle| {
        // Flood the chatty session first, then wake each idle session once:
        // a scheduler that keeps servicing the backlog at the head would
        // never get to them.
        for _ in 0..CHATTY_EVENTS {
            // lint: infallible — actor 0 is never retired before its last event.
            handle.send(0, ()).expect("chatty send");
        }
        for id in 1..=IDLE {
            // lint: infallible — idle actors retire only after this send.
            handle.send(id, ()).expect("idle send");
        }
    });

    assert!(
        report.all_complete(),
        "a session was starved or failed: {:?}",
        report.failures()
    );
    assert_eq!(report.events_total, CHATTY_EVENTS + IDLE);
    for finished in &report.actors {
        if finished.index == 0 {
            assert_eq!(
                finished.events, CHATTY_EVENTS,
                "chatty event ledger drifted"
            );
        } else {
            assert_eq!(
                finished.events, 1,
                "idle session {} must cost exactly one dispatch",
                finished.index
            );
        }
    }
}
