//! The traced run's replays of facade calls whose insides a span cannot
//! reach from outside the program.
//!
//! `Client::open_stream` + draining the `ViewStream`, `Publisher::publish`
//! and `Publisher::grant` are rebuilt here from the public functions they
//! call, in the same order, so each call into the DSP, the SOE engine, the
//! crypto layer and the XML writer gets its own span. The determinism check
//! holds the replays to the facade: every count of a traced run must equal
//! the untraced run's, which drives the facade itself.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use sdds::core::engine::{EngineConfig, SecureEvaluationSession, SessionRequest, SessionStats};
use sdds::core::evaluator::EvaluatorConfig;
use sdds::core::secdoc::{decrypt_chunk, DocumentHeader, SecureDocumentBuilder};
use sdds::core::session::ProtectedRules;
use sdds::core::skipindex::encode::{DocumentEncoder, EncoderConfig};
use sdds::core::Query;
use sdds::crypto::merkle::MerkleProof;
use sdds::crypto::SecretKey;
use sdds::dsp::service::{Schedulable, StepOutcome};
use sdds::dsp::SessionObs;
use sdds::xml::{writer, Event};
use sdds::{AccessPolicy, CardSession, Document, DspService, Publisher, Sign, Subject};

use crate::common::Reader;
use crate::trace::{SpanId, Spans, NO_PARENT};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What a replayed stream view produced.
pub struct MirrorView {
    pub xml: String,
    pub stats: SessionStats,
    pub revision: u64,
    /// Time from the open to the first authorized event, in ns.
    pub first_event_ns: u64,
}

struct Open {
    session: Option<SecureEvaluationSession>,
    revision: u64,
    header: DocumentHeader,
    doc_key: SecretKey,
    obs: SessionObs,
}

/// `Client::open_stream` and the `ViewStream` it returns, replayed from
/// public parts, one span per call. Steppable, so a scheduler can multiplex
/// replays the way it multiplexes card sessions.
pub struct MirrorPull<'a> {
    reader: &'a Reader,
    service: Arc<DspService>,
    doc_id: String,
    pub spans: Spans,
    root: SpanId,
    open: Option<Open>,
    events: Vec<Event>,
    served: Vec<(u32, Arc<[u8]>, MerkleProof)>,
    first_event_ns: Option<u64>,
    pub result: Option<Result<MirrorView, String>>,
}

impl<'a> MirrorPull<'a> {
    pub fn new(reader: &'a Reader, doc_id: &str, origin: Instant, view: u64) -> Self {
        let mut spans = Spans::new(origin);
        spans.set_view(view);
        MirrorPull {
            reader,
            service: Arc::clone(reader.client.service()),
            doc_id: doc_id.to_owned(),
            spans,
            root: NO_PARENT,
            open: None,
            events: Vec::new(),
            served: Vec::new(),
            first_event_ns: None,
            result: None,
        }
    }

    /// Runs the replay to completion on the calling thread.
    pub fn run(mut self) -> (Result<MirrorView, String>, Spans) {
        while let Ok(StepOutcome::Pending) = Schedulable::step(&mut self, usize::MAX) {}
        let result = self
            .result
            .take()
            .unwrap_or(Err("replay did not end".into()));
        (result, self.spans)
    }

    fn open_stream(&mut self, step: SpanId) -> Result<(), String> {
        let r = self.reader;
        let (service, doc_id, spans) = (&self.service, self.doc_id.as_str(), &mut self.spans);
        let open = spans.open("facade.open_stream", step);
        let doc_key = r.doc_key.unwrap_key(&r.transport).map_err(err)?;
        let rules_key = r.rules_key.unwrap_key(&r.transport).map_err(err)?;
        let (header, revision) = spans
            .time("dsp.fetch_header", open, || {
                service.fetch_header_pinned(doc_id)
            })
            .map_err(err)?;
        let blob = spans
            .time("dsp.fetch_rules", open, || {
                service.fetch_rules_pinned(doc_id, &r.subject, revision)
            })
            .map_err(err)?;
        let rules = spans
            .time("core.rules_open", open, || {
                ProtectedRules::decode(&blob).and_then(|p| p.open(&rules_key, None))
            })
            .map_err(err)?;
        let mut evaluator = EvaluatorConfig::new(rules, r.subject.clone());
        if r.open_policy {
            evaluator = evaluator.with_policy(AccessPolicy::open());
        }
        if let Some(query) = &r.query {
            evaluator = evaluator.with_query(Query::parse(query).map_err(err)?);
        }
        let config = EngineConfig::new(evaluator).with_ram_budget(r.ram_bytes);
        let kept_header = header.clone();
        let session = spans
            .time("core.session_open", open, || {
                SecureEvaluationSession::open(header, doc_key.clone(), config)
            })
            .map_err(err)?;
        let obs = service.obs().session();
        spans.close(open);
        self.open = Some(Open {
            session: Some(session),
            revision,
            header: kept_header,
            doc_key,
            obs,
        });
        Ok(())
    }

    /// Serves up to `quantum` SOE requests; true once the view is complete.
    fn serve(&mut self, quantum: usize, step: SpanId) -> Result<bool, String> {
        let (service, doc_id, spans) = (&self.service, self.doc_id.as_str(), &mut self.spans);
        let open = self.open.as_mut().ok_or("replay not opened")?;
        for _ in 0..quantum {
            let session = open.session.as_mut().ok_or("session already finished")?;
            match session.next_request() {
                SessionRequest::Done => {
                    let session = open.session.take().ok_or("session already finished")?;
                    let (rest, stats) = spans
                        .time("core.finish", step, || session.finish())
                        .map_err(err)?;
                    for event in rest {
                        open.obs.event_delivered();
                        self.events.push(event);
                    }
                    let xml = spans.time("xml.write", step, || writer::to_string(&self.events));
                    let opened = spans.get(self.root).start_ns;
                    let first_event_ns =
                        self.first_event_ns.unwrap_or_else(|| spans.now_ns()) - opened;
                    self.result = Some(Ok(MirrorView {
                        xml,
                        stats,
                        revision: open.revision,
                        first_event_ns,
                    }));
                    return Ok(true);
                }
                SessionRequest::NeedChunk(index) => {
                    let (chunk, proof) = spans
                        .time("dsp.fetch_chunk", step, || {
                            service.fetch_chunk_pinned(doc_id, index, open.revision)
                        })
                        .map_err(err)?;
                    spans
                        .time("core.supply", step, || {
                            session.supply_chunk(index, &chunk, &proof)
                        })
                        .map_err(err)?;
                    let produced = session.take_output();
                    let wire = chunk.len() + proof.encoded_len();
                    let produced_len: usize = produced.iter().map(Event::serialized_len).sum();
                    session.record_exchange(wire, produced_len);
                    open.obs.record_exchange(wire, produced_len);
                    if self.first_event_ns.is_none() && !produced.is_empty() {
                        self.first_event_ns = Some(spans.now_ns());
                    }
                    for event in produced {
                        open.obs.event_delivered();
                        self.events.push(event);
                    }
                    self.served.push((index, chunk, proof));
                }
            }
        }
        Ok(false)
    }

    /// After the view: replays Merkle verification and chunk decryption on
    /// the chunks the view was served, so the SOE's supply time can be split
    /// into verify, decrypt and the rest (decode and evaluation).
    fn replay_crypto(&mut self) {
        let Some(open) = self.open.as_ref() else {
            return;
        };
        let replay = self.spans.open("replay", NO_PARENT);
        for (index, chunk, proof) in &self.served {
            let verified = self.spans.time("crypto.verify", replay, || {
                proof.verify(chunk, &open.header.merkle_root)
            });
            std::hint::black_box(verified.is_ok());
            let plain = self.spans.time("crypto.decrypt", replay, || {
                decrypt_chunk(&open.doc_key, &open.header, *index, chunk)
            });
            std::hint::black_box(plain);
        }
        self.spans.close(replay);
    }
}

impl Schedulable for MirrorPull<'_> {
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
        if self.result.is_some() {
            return Ok(StepOutcome::Complete);
        }
        if self.root == NO_PARENT {
            self.root = self.spans.open("view.stream", NO_PARENT);
        }
        let step = self.spans.open("stream.step", self.root);
        let outcome = if self.open.is_none() {
            self.open_stream(step).map(|()| false)
        } else {
            self.serve(quantum, step)
        };
        self.spans.close(step);
        match outcome {
            Ok(false) => Ok(StepOutcome::Pending),
            Ok(true) => {
                self.spans.close(self.root);
                self.replay_crypto();
                Ok(StepOutcome::Complete)
            }
            Err(e) => {
                self.spans.close(self.root);
                self.result = Some(Err(e.clone()));
                Err(e)
            }
        }
    }
}

/// A card session as the scheduler sees it, with the time it retired, the
/// steps it was granted and, when traced, one span per step.
pub struct TimedCard {
    pub session: CardSession,
    pub connect_ns: u64,
    pub steps: u64,
    pub done: Option<Instant>,
    pub spans: Option<(Spans, SpanId)>,
}

impl Schedulable for TimedCard {
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
        self.steps += 1;
        let outcome = match &mut self.spans {
            Some((spans, root)) => {
                let root = *root;
                spans.time("proxy.step", root, || self.session.step(quantum))
            }
            None => self.session.step(quantum),
        };
        if outcome != Ok(StepOutcome::Pending) {
            self.done = Some(Instant::now());
        }
        outcome
    }
}

/// Every subject whose rule blob the publisher keeps at the DSP: the
/// policy's subjects plus the provisioned ones (`Publisher` keeps the same
/// set privately).
pub fn served_subjects(publisher: &Publisher, provisioned: &[&str]) -> Vec<Subject> {
    let mut names: BTreeSet<String> = publisher
        .rules()
        .subjects()
        .into_iter()
        .map(|s| s.name().to_owned())
        .collect();
    names.extend(provisioned.iter().map(|s| (*s).to_owned()));
    names.into_iter().map(Subject::new).collect()
}

/// `Publisher::publish`, replayed: build the secure document, store it,
/// then seal and store one rule blob per served subject. The skip-index
/// encoding inside the build is replayed afterwards to split the build.
/// Returns the number of chunks (as `PublishReceipt::chunks` does) and the
/// publish time in ms, replay excluded.
pub fn publish(
    spans: &mut Spans,
    publisher: &Publisher,
    provisioned: &[&str],
    doc_id: &str,
    doc: &Document,
) -> Result<(usize, f64), String> {
    let service = publisher.service();
    let root = spans.open("publish", NO_PARENT);
    let secure = spans.time("core.secdoc_build", root, || {
        SecureDocumentBuilder::new(doc_id, publisher.server().document_key()).build(doc)
    });
    let chunks = secure.chunk_count();
    spans.time("dsp.put_document", root, || service.put_document(secure));
    for subject in served_subjects(publisher, provisioned) {
        let sealed = spans.time("core.rules_seal", root, || {
            publisher.server().protected_rules_for(&subject)
        });
        spans
            .time("dsp.put_rules", root, || {
                service.put_rules(doc_id, subject.name(), &sealed)
            })
            .map_err(err)?;
    }
    spans.close(root);
    let ms = spans.get(root).duration_ns() as f64 / 1e6;
    let replay = spans.open("replay", NO_PARENT);
    let encoded = spans.time("core.skipindex_encode", replay, || {
        DocumentEncoder::new(EncoderConfig::default()).encode(doc)
    });
    std::hint::black_box(encoded);
    spans.close(replay);
    Ok((chunks, ms))
}

/// `Publisher::grant` (and its revoke counterpart), replayed: change the
/// policy, then `sync_rules` — re-seal and store one blob per stored
/// document and served subject.
pub fn change_policy(
    spans: &mut Spans,
    publisher: &mut Publisher,
    provisioned: &[&str],
    change: PolicyChange<'_>,
) -> Result<(), String> {
    let root = spans.open("policy_change", NO_PARENT);
    match change {
        PolicyChange::Grant(subject, sign, object) => {
            publisher
                .server_mut()
                .rules_mut()
                .push(sign, subject, object)
                .map_err(err)?;
        }
        PolicyChange::Revoke(id) => {
            if !publisher.server_mut().rules_mut().remove(id) {
                return Err(format!("no rule {id:?} to revoke"));
            }
        }
    }
    let service = Arc::clone(publisher.service());
    let subjects = served_subjects(publisher, provisioned);
    for doc_id in service.store().document_ids() {
        for subject in &subjects {
            let sealed = spans.time("core.rules_seal", root, || {
                publisher.server().protected_rules_for(subject)
            });
            spans
                .time("dsp.put_rules", root, || {
                    service.put_rules(&doc_id, subject.name(), &sealed)
                })
                .map_err(err)?;
        }
    }
    spans.close(root);
    Ok(())
}

#[derive(Debug, Clone, Copy)]
pub enum PolicyChange<'a> {
    Grant(&'a str, Sign, &'a str),
    Revoke(sdds::core::RuleId),
}
