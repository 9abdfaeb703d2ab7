//! The SOE engine: fetch → integrity-check → decrypt → parse → evaluate,
//! under the card's constraints.
//!
//! Two layers are provided:
//!
//! * [`SecureEvaluationSession`] — the incremental state machine that consumes
//!   encrypted chunks one at a time, drives the [`TokenReader`], asks for the
//!   *next chunk it actually needs* (which is how skipping translates into
//!   fewer transferred and decrypted bytes), feeds the streaming evaluator and
//!   exposes the authorized events. It is transport-agnostic: tests and
//!   benches drive it with [`run_local`], the demonstrator drives it through
//!   APDUs.
//! * [`AccessControlApplet`] — the APDU front-end implementing
//!   [`sdds_card::Applet`], i.e. what is actually "installed on the card" in
//!   the demonstrator architecture (Figure 3): key provisioning, rule refresh,
//!   query registration, session management, chunk push and output retrieval.

use sdds_card::apdu::{ins, Apdu, ApduResponse, StatusWord};
use sdds_card::{Applet, CardError, CostLedger, SmartCard};
use sdds_crypto::merkle::MerkleProof;
use sdds_crypto::{Aes128, KeyId, SecretKey};
use sdds_xml::{writer, Event, TagDict};
use sdds_xpath::tagset::PathSignature;

use crate::conflict::Decision;
use crate::error::CoreError;
use crate::evaluator::{EvaluatorConfig, EvaluatorStats, StreamingEvaluator};
use crate::query::Query;
use crate::rule::{RuleSet, Sign, Subject};
use crate::secdoc::{chunk_cipher, decrypt_chunk_into, DocumentHeader, SecureDocument};
use crate::session::{KeyProvisioning, ProtectedRules};
use crate::skipindex::decode::{ReadResult, TokenEvent, TokenReader};
use crate::skipindex::encode::SubtreeSummary;

/// Configuration of a secure evaluation session.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Evaluator configuration (rules, subject, query, policy).
    pub evaluator: EvaluatorConfig,
    /// Honour subtree summaries and skip irrelevant subtrees. Disabling this
    /// is the *no skip index* baseline of experiment E2.
    pub use_skip_index: bool,
    /// Secure working-memory budget enforced on the session (`None` in the
    /// unconstrained test profile). The e-gate applet budget is 1024 bytes.
    pub ram_budget: Option<usize>,
}

impl EngineConfig {
    /// Creates a configuration with the skip index enabled and no RAM budget.
    pub fn new(evaluator: EvaluatorConfig) -> Self {
        EngineConfig {
            evaluator,
            use_skip_index: true,
            ram_budget: None,
        }
    }

    /// Disables the skip index.
    pub fn without_skip_index(mut self) -> Self {
        self.use_skip_index = false;
        self
    }

    /// Sets the RAM budget.
    pub fn with_ram_budget(mut self, bytes: usize) -> Self {
        self.ram_budget = Some(bytes);
        self
    }
}

/// What the session needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRequest {
    /// The ciphertext of this chunk (with its Merkle proof).
    NeedChunk(u32),
    /// The document is fully processed.
    Done,
}

/// Statistics of a finished (or running) session.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Cost counters (bytes transferred, decrypted, hashed, skipped, events).
    pub ledger: CostLedger,
    /// Evaluator statistics (available after the document ends).
    pub evaluator: Option<EvaluatorStats>,
    /// Subtrees skipped thanks to the index.
    pub skipped_subtrees: usize,
    /// Chunks actually supplied to the card.
    pub chunks_fetched: usize,
    /// Chunks never requested because they fell entirely inside skips.
    pub chunks_skipped: usize,
    /// Peak secure-RAM footprint observed (evaluator + reader window).
    pub peak_ram_bytes: usize,
}

/// The incremental SOE session.
pub struct SecureEvaluationSession {
    header: DocumentHeader,
    /// The document's chunk cipher, expanded once at open.
    cipher: Aes128,
    /// Decrypted plaintext of the chunk being supplied; reused for every
    /// chunk of the session.
    plaintext: Vec<u8>,
    config: EngineConfig,
    evaluator: Option<StreamingEvaluator>,
    reader: Option<TokenReader>,
    /// Accumulates the first plaintext bytes until the dictionary is complete.
    dict_buf: Vec<u8>,
    /// `(sign, signature)` per installed rule, in engine order; built when the
    /// dictionary becomes available.
    rule_signatures: Vec<(Sign, PathSignature)>,
    query_signature: Option<PathSignature>,
    output: Vec<Event>,
    stats: SessionStats,
    next_chunk: u32,
    last_supplied_chunk: Option<u32>,
    done: bool,
}

impl std::fmt::Debug for SecureEvaluationSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureEvaluationSession")
            .field("doc_id", &self.header.doc_id)
            .field("next_chunk", &self.next_chunk)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl SecureEvaluationSession {
    /// Opens a session: verifies the document header under `key`, expands the
    /// document's chunk cipher and prepares the evaluator. The session keeps
    /// the expanded cipher, not `key`.
    pub fn open(
        header: DocumentHeader,
        key: SecretKey,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        header.verify(&key)?;
        let evaluator = StreamingEvaluator::new(&config.evaluator)?;
        Ok(SecureEvaluationSession {
            header,
            cipher: chunk_cipher(&key),
            plaintext: Vec::new(),
            config,
            evaluator: Some(evaluator),
            reader: None,
            dict_buf: Vec::new(),
            rule_signatures: Vec::new(),
            query_signature: None,
            output: Vec::new(),
            stats: SessionStats::default(),
            next_chunk: 0,
            last_supplied_chunk: None,
            done: false,
        })
    }

    /// Document header of the session.
    pub fn header(&self) -> &DocumentHeader {
        &self.header
    }

    /// What the session needs next.
    pub fn next_request(&self) -> SessionRequest {
        if self.done {
            SessionRequest::Done
        } else {
            SessionRequest::NeedChunk(self.next_chunk)
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// True once the whole document has been processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Takes the authorized events produced so far.
    pub fn take_output(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.output)
    }

    /// Accounts one chunk transfer on the session ledger (`wire_bytes` served
    /// to the SOE, `produced_bytes` of authorized output shipped back) — the
    /// channel-side counterpart of [`SecureEvaluationSession::supply_chunk`]
    /// used by drivers outside this crate (e.g. the facade's `ViewStream`),
    /// mirroring what [`run_local`] records.
    pub fn record_exchange(&mut self, wire_bytes: usize, produced_bytes: usize) {
        self.stats
            .ledger
            .channel
            .record_exchange(wire_bytes, produced_bytes);
    }

    /// Finishes the session and returns the final statistics.
    pub fn finish(mut self) -> Result<(Vec<Event>, SessionStats), CoreError> {
        if !self.done {
            return Err(CoreError::BadState {
                message: "the document has not been fully processed".into(),
            });
        }
        let output = std::mem::take(&mut self.output);
        Ok((output, self.stats))
    }

    fn current_ram(&self) -> usize {
        let reader = self
            .reader
            .as_ref()
            .map(TokenReader::window_bytes)
            .unwrap_or(0);
        let evaluator = self
            .evaluator
            .as_ref()
            .map(StreamingEvaluator::ram_bytes)
            .unwrap_or(0);
        reader + evaluator + self.dict_buf.len()
    }

    fn check_ram(&mut self) -> Result<(), CoreError> {
        let current = self.current_ram();
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(current);
        if let Some(budget) = self.config.ram_budget {
            if current > budget {
                return Err(CardError::RamExceeded {
                    requested: current,
                    in_use: current,
                    budget,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Supplies one encrypted chunk (with its Merkle proof). Returns the
    /// authorized events that became available.
    pub fn supply_chunk(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        proof: &MerkleProof,
    ) -> Result<Vec<Event>, CoreError> {
        if self.done {
            return Err(CoreError::BadState {
                message: "session already finished".into(),
            });
        }
        if index != self.next_chunk {
            return Err(CoreError::BadState {
                // alloc: cold — out-of-order chunk error path.
                message: format!(
                    "expected chunk {} but received chunk {index}",
                    self.next_chunk
                ),
            });
        }
        if self.last_supplied_chunk == Some(index) {
            return Err(CoreError::BadState {
                // alloc: cold — duplicate chunk error path.
                message: format!("chunk {index} supplied twice"),
            });
        }

        // 1. Integrity: the proof must bind this ciphertext, at this position,
        //    to the authenticated Merkle root.
        if proof.leaf_index != index as usize {
            return Err(sdds_crypto::CryptoError::BadProof {
                // alloc: cold — mismatched proof error path.
                message: format!(
                    "proof is for chunk {} but chunk {index} was supplied",
                    proof.leaf_index
                ),
            }
            .into());
        }
        proof.verify(ciphertext, &self.header.merkle_root)?;
        self.stats.ledger.record_hash(ciphertext.len());

        // 2. Decrypt into the session's chunk buffer.
        decrypt_chunk_into(
            &self.cipher,
            &self.header,
            index,
            ciphertext,
            &mut self.plaintext,
        );
        let plaintext = &self.plaintext;
        self.stats.ledger.record_decrypt(plaintext.len());
        self.stats.chunks_fetched += 1;
        self.last_supplied_chunk = Some(index);
        let chunk_start = u64::from(index) * u64::from(self.header.chunk_size);

        // 3. Feed the reader (building it first if the dictionary is still
        //    incomplete).
        if let Some(reader) = self.reader.as_mut() {
            reader.supply(chunk_start, plaintext)?;
        } else {
            self.dict_buf.extend_from_slice(plaintext);
            if (self.dict_buf.len() as u64) < self.header.tokens_start {
                self.next_chunk += 1;
                self.check_ram()?;
                return Ok(Vec::new());
            }
            let dict_bytes = &self.dict_buf[..self.header.tokens_start as usize];
            let (dict, _) = TagDict::decode(dict_bytes).ok_or_else(|| CoreError::BadDocument {
                message: "cannot decode the tag dictionary".into(),
            })?;
            self.build_signatures(&dict);
            let mut reader = TokenReader::new(
                dict,
                self.header.tokens_start,
                self.header.plaintext_len,
                self.header.recursive_bitmaps,
            );
            let rest = self.dict_buf.split_off(self.header.tokens_start as usize);
            reader.supply(self.header.tokens_start, &rest)?;
            self.dict_buf.clear();
            self.reader = Some(reader);
        }

        // 4. Pump the reader.
        let produced = self.pump()?;
        self.check_ram()?;
        Ok(produced)
    }

    /// Builds, for every installed rule and for the query, the tag-set
    /// satisfiability signature used by the skip decision.
    fn build_signatures(&mut self, dict: &TagDict) {
        let config = &self.config.evaluator;
        self.rule_signatures = config
            .rules
            .for_subject(&config.subject)
            .map(|r| (r.sign, PathSignature::build(&r.object, dict)))
            // alloc: startup — path signatures are built once per session, from the dictionary chunk.
            .collect();
        self.query_signature = config
            .query
            .as_ref()
            .map(|q| PathSignature::build(&q.path, dict));
    }

    fn pump(&mut self) -> Result<Vec<Event>, CoreError> {
        let mut produced = Vec::new();
        loop {
            let result = self
                .reader
                .as_mut()
                // lint: infallible — `pump` is only reached from `step`,
                // which bails out earlier when the reader is finished.
                .expect("pump requires a reader")
                .next_token()?;
            match result {
                ReadResult::Token(TokenEvent::Event(event)) => {
                    let evaluator = self.evaluator.as_mut().ok_or_else(|| CoreError::BadState {
                        message: "event received after the evaluator finished".into(),
                    })?;
                    self.stats.ledger.record_events(1);
                    produced.extend(evaluator.push(&event));
                    self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.current_ram());
                }
                ReadResult::Token(TokenEvent::Summary(summary)) => {
                    if self.config.use_skip_index && self.can_skip(&summary) {
                        // lint: infallible — same guard as the `pump` entry.
                        let reader = self.reader.as_mut().expect("reader present");
                        reader.skip(summary.content_len);
                        self.stats.ledger.record_skip(summary.content_len as usize);
                        self.stats.skipped_subtrees += 1;
                    }
                }
                ReadResult::NeedData => {
                    let needed = self
                        .reader
                        .as_ref()
                        // lint: infallible — same guard as the `pump` entry.
                        .expect("reader present")
                        .needed_offset();
                    let target_chunk = (needed / u64::from(self.header.chunk_size)) as u32;
                    // Chunks strictly between the last supplied one and the
                    // target were skipped entirely.
                    if let Some(last) = self.last_supplied_chunk {
                        if target_chunk > last + 1 {
                            self.stats.chunks_skipped += (target_chunk - last - 1) as usize;
                        }
                    }
                    self.next_chunk = target_chunk;
                    break;
                }
                ReadResult::End => {
                    self.done = true;
                    let evaluator = self.evaluator.take().ok_or_else(|| CoreError::BadState {
                        message: "evaluator already finished".into(),
                    })?;
                    let (rest, stats) = evaluator.finish()?;
                    produced.extend(rest);
                    self.stats.evaluator = Some(stats);
                    break;
                }
            }
        }
        self.output.extend(produced.iter().cloned());
        Ok(produced)
    }

    /// Skip decision for a summarised subtree (§2.3: "detect rules and queries
    /// that cannot apply inside a given subtree, with the expected benefit to
    /// skip this subtree if it turns out to be forbidden or irrelevant wrt the
    /// query").
    fn can_skip(&self, summary: &SubtreeSummary) -> bool {
        let Some(evaluator) = self.evaluator.as_ref() else {
            return false;
        };
        // Any pending decision or unresolved predicate could be influenced by
        // the content of the subtree: stay conservative and read it.
        if evaluator.has_pending() {
            return false;
        }
        let Some((decision, in_scope)) = evaluator.current_context() else {
            return false;
        };
        // Could the query newly select nodes inside the subtree?
        let query_may_match_inside = match &self.query_signature {
            Some(signature) => evaluator
                .active_query_positions()
                .iter()
                .any(|&p| signature.satisfiable_in(p, &summary.tags)),
            None => false,
        };
        let scope_inside = in_scope || query_may_match_inside;
        if !scope_inside {
            // Nothing inside can belong to the query result.
            return true;
        }
        if decision.is_permit() {
            // Content inside is (at least partly) deliverable.
            return false;
        }
        debug_assert_eq!(decision, Decision::Deny);
        // Denied context: content inside becomes deliverable only if a positive
        // rule reaches its final state inside the subtree.
        let positions = evaluator.active_rule_positions();
        let positive_reachable = self
            .rule_signatures
            .iter()
            .zip(positions.iter())
            .filter(|((sign, _), _)| *sign == Sign::Permit)
            .any(|((_, signature), rule_positions)| {
                rule_positions
                    .iter()
                    .any(|&p| signature.satisfiable_in(p, &summary.tags))
            });
        !positive_reachable
    }
}

/// Drives a session against an in-memory [`SecureDocument`], accounting the
/// transfer of each served chunk + proof on the session ledger. This is the
/// path used by unit tests and by the benches that do not need the APDU layer.
pub fn run_local(
    document: &SecureDocument,
    session: &mut SecureEvaluationSession,
) -> Result<Vec<Event>, CoreError> {
    let mut output = Vec::new();
    loop {
        match session.next_request() {
            SessionRequest::Done => break,
            SessionRequest::NeedChunk(index) => {
                let chunk = document
                    .chunk(index as usize)
                    .ok_or_else(|| CoreError::BadDocument {
                        message: format!("chunk {index} out of range"),
                    })?
                    .to_vec();
                let proof = document.proof(index as usize)?;
                let wire = chunk.len() + proof.encode().len();
                let produced = session.supply_chunk(index, &chunk, &proof)?;
                let produced_len: usize = produced.iter().map(Event::serialized_len).sum();
                session
                    .stats
                    .ledger
                    .channel
                    .record_exchange(wire, produced_len);
                output.extend(produced);
            }
        }
    }
    Ok(output)
}

/// Convenience wrapper: opens a session, runs it locally and returns the
/// authorized view plus the final statistics.
pub fn evaluate_secure_document(
    document: &SecureDocument,
    key: &SecretKey,
    config: EngineConfig,
) -> Result<(Vec<Event>, SessionStats), CoreError> {
    let mut session = SecureEvaluationSession::open(document.header.clone(), key.clone(), config)?;
    run_local(document, &mut session)?;
    session.finish()
}

// ---------------------------------------------------------------------------
// APDU applet
// ---------------------------------------------------------------------------

/// Identifier under which the document key is expected in the card key ring
/// when `P1` of `OPEN_SESSION` does not say otherwise.
pub const DEFAULT_DOC_KEY_ID: u32 = 1;
/// Identifier of the rule-protection key in the card key ring.
pub const RULES_KEY_ID: u32 = 2;

/// The on-card access-control applet (Figure 3: "Access rights evaluator",
/// "Integrity control", "Decryption", "Keys" inside the smart card).
pub struct AccessControlApplet {
    /// Subject the card was issued to.
    subject: Subject,
    /// Transport key personalised at issuance (simulated PKI).
    transport_key: SecretKey,
    /// Rules installed via `PUT_RULES`.
    rules: Option<RuleSet>,
    /// Query registered via `PUT_QUERY`.
    query: Option<Query>,
    /// Whether to use the skip index.
    use_skip_index: bool,
    /// Active session.
    session: Option<SecureEvaluationSession>,
    /// Reassembly buffer for fragmented `PUT_RULES` payloads.
    rules_buf: Vec<u8>,
    /// Reassembly buffer for fragmented `PUSH_CHUNK` payloads.
    chunk_buf: Vec<u8>,
    /// Serialised authorized output awaiting `GET_OUTPUT`.
    output_text: Vec<u8>,
    /// Cursor into `output_text`.
    output_pos: usize,
}

impl std::fmt::Debug for AccessControlApplet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessControlApplet")
            .field("subject", &self.subject)
            .field("has_session", &self.session.is_some())
            .finish_non_exhaustive()
    }
}

impl AccessControlApplet {
    /// Creates an applet personalised for `subject`.
    pub fn new(subject: impl Into<String>, transport_key: SecretKey) -> Self {
        AccessControlApplet {
            subject: Subject::new(subject),
            transport_key,
            rules: None,
            query: None,
            use_skip_index: true,
            session: None,
            rules_buf: Vec::new(),
            chunk_buf: Vec::new(),
            output_text: Vec::new(),
            output_pos: 0,
        }
    }

    /// Disables the skip index for subsequent sessions (baseline runs).
    pub fn set_use_skip_index(&mut self, enabled: bool) {
        self.use_skip_index = enabled;
    }

    /// Statistics of the active session, if any.
    pub fn session_stats(&self) -> Option<&SessionStats> {
        self.session.as_ref().map(SecureEvaluationSession::stats)
    }

    fn status_for(error: &CoreError) -> StatusWord {
        match error {
            CoreError::Crypto(_) => StatusWord::SECURITY_NOT_SATISFIED,
            CoreError::Card(CardError::RamExceeded { .. })
            | CoreError::Card(CardError::EepromExceeded { .. }) => StatusWord::MEMORY_FAILURE,
            CoreError::Card(_) => StatusWord::CONDITIONS_NOT_SATISFIED,
            CoreError::BadState { .. }
            | CoreError::NotFound { .. }
            | CoreError::NoRulesForSubject { .. }
            | CoreError::StaleRevision { .. } => StatusWord::CONDITIONS_NOT_SATISFIED,
            CoreError::BadDocument { .. } | CoreError::Xml(_) => StatusWord::WRONG_LENGTH,
            CoreError::UnsupportedRule { .. } | CoreError::Parse(_) => StatusWord::NOT_FOUND,
        }
    }

    fn handle_put_key(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        match KeyProvisioning::decode(&command.data) {
            Ok(provisioning) => match provisioning.unwrap_key(&self.transport_key) {
                Ok(key) => {
                    if card
                        .keys()
                        .install(KeyId(provisioning.key_id), key)
                        .is_err()
                    {
                        return ApduResponse::error(StatusWord::MEMORY_FAILURE);
                    }
                    ApduResponse::ok_empty()
                }
                Err(_) => ApduResponse::error(StatusWord::SECURITY_NOT_SATISFIED),
            },
            Err(_) => ApduResponse::error(StatusWord::WRONG_LENGTH),
        }
    }

    fn handle_put_rules(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        self.rules_buf.extend_from_slice(&command.data);
        if command.p1 == 1 {
            // More fragments follow.
            return ApduResponse::ok_empty();
        }
        let payload = std::mem::take(&mut self.rules_buf);
        let protected = match ProtectedRules::decode(&payload) {
            Ok(p) => p,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        let rules_key = match card.keys_ref().get(KeyId(RULES_KEY_ID)) {
            // alloc: startup — PUT_RULES provisioning, once per session.
            Ok(k) => k.clone(),
            Err(_) => return ApduResponse::error(StatusWord::NOT_FOUND),
        };
        let minimum = self.rules.as_ref().map(RuleSet::version);
        match protected.open(&rules_key, minimum) {
            Ok(rules) => {
                // Rules live in EEPROM (persistent across sessions).
                if let Some(previous) = &self.rules {
                    card.eeprom().free(previous.storage_bytes());
                }
                if card.eeprom().store(rules.storage_bytes()).is_err() {
                    return ApduResponse::error(StatusWord::MEMORY_FAILURE);
                }
                self.rules = Some(rules);
                ApduResponse::ok_empty()
            }
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_put_query(&mut self, command: &Apdu) -> ApduResponse {
        match std::str::from_utf8(&command.data)
            .map_err(|_| ())
            .and_then(|text| Query::parse(text).map_err(|_| ()))
        {
            Ok(query) => {
                self.query = Some(query);
                ApduResponse::ok_empty()
            }
            Err(()) => ApduResponse::error(StatusWord::NOT_FOUND),
        }
    }

    fn handle_open_session(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        // alloc: startup — session-open provisioning, once per session.
        let Some(rules) = self.rules.clone() else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        let header = match DocumentHeader::decode(&command.data) {
            Ok(h) => h,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        let key_id = if command.p1 == 0 {
            DEFAULT_DOC_KEY_ID
        } else {
            u32::from(command.p1)
        };
        let key = match card.keys_ref().get(KeyId(key_id)) {
            // alloc: startup — session-open provisioning, once per session.
            Ok(k) => k.clone(),
            Err(_) => return ApduResponse::error(StatusWord::NOT_FOUND),
        };
        let mut evaluator_config = EvaluatorConfig::new(rules, self.subject.name());
        // P2 selects the conflict-resolution default: 0 = closed world (the
        // paper's policy), 1 = open world (used by dissemination scenarios
        // where only negative rules carve content out).
        if command.p2 == 1 {
            evaluator_config = evaluator_config.with_policy(crate::conflict::AccessPolicy::open());
        }
        if let Some(query) = &self.query {
            // alloc: startup — session-open provisioning, once per session.
            evaluator_config = evaluator_config.with_query(query.clone());
        }
        let mut config =
            EngineConfig::new(evaluator_config).with_ram_budget(card.profile().ram_bytes);
        config.use_skip_index = self.use_skip_index;
        match SecureEvaluationSession::open(header, key, config) {
            Ok(session) => {
                card.reset_session();
                self.session = Some(session);
                self.output_text.clear();
                self.output_pos = 0;
                self.chunk_buf.clear();
                ApduResponse::ok_empty()
            }
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_next_request(&mut self) -> ApduResponse {
        let Some(session) = &self.session else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        let value = match session.next_request() {
            SessionRequest::NeedChunk(i) => i,
            SessionRequest::Done => u32::MAX,
        };
        // alloc: amortized — 4-byte response payload; the APDU response owns its data.
        ApduResponse::ok(value.to_le_bytes().to_vec())
    }

    fn handle_push_chunk(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        if self.session.is_none() {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        }
        self.chunk_buf.extend_from_slice(&command.data);
        if command.p1 == 1 {
            return ApduResponse::ok_empty();
        }
        let payload = std::mem::take(&mut self.chunk_buf);
        // Payload layout: chunk index (4), proof length (2), proof, ciphertext.
        if payload.len() < 6 {
            return ApduResponse::error(StatusWord::WRONG_LENGTH);
        }
        // lint: infallible — `payload.len() >= 6` is checked above, so both
        // fixed-width slices convert exactly.
        let index = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
        let proof_len = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes")) as usize; // lint: infallible — see above
        let Some(proof_bytes) = payload.get(6..6 + proof_len) else {
            return ApduResponse::error(StatusWord::WRONG_LENGTH);
        };
        let proof = match MerkleProof::decode(proof_bytes) {
            Ok(p) => p,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        let ciphertext = &payload[6 + proof_len..];
        // lint: infallible — the handler returns `CONDITIONS_NOT_SATISFIED`
        // earlier when no session is open.
        let session = self.session.as_mut().expect("session checked above");
        match session.supply_chunk(index, ciphertext, &proof) {
            Ok(events) => {
                // Mirror the session ledger into the card ledger so that card
                // level reports include on-card crypto work.
                card.ledger().record_decrypt(ciphertext.len());
                card.ledger().record_hash(ciphertext.len());
                card.ledger().record_events(events.len());
                if !events.is_empty() {
                    let text = writer::to_string(&events);
                    self.output_text.extend_from_slice(text.as_bytes());
                }
                let available = (self.output_text.len() - self.output_pos) as u32;
                // alloc: amortized — 4-byte response payload; the APDU response owns its data.
                ApduResponse::ok(available.to_le_bytes().to_vec())
            }
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_get_output(&mut self) -> ApduResponse {
        let available = &self.output_text[self.output_pos..];
        let take = available.len().min(250);
        // alloc: amortized — copies at most 250 output bytes into the APDU window, which owns its data.
        let data = available[..take].to_vec();
        self.output_pos += take;
        ApduResponse::ok(data)
    }

    fn handle_close_session(&mut self) -> ApduResponse {
        match self.session.take() {
            Some(session) => {
                // alloc: startup — session teardown, once per session.
                let stats = session.stats().clone();
                // alloc: startup — session teardown, once per session.
                let mut data = Vec::with_capacity(20);
                data.extend_from_slice(&(stats.ledger.bytes_decrypted as u32).to_le_bytes());
                data.extend_from_slice(&(stats.ledger.bytes_skipped as u32).to_le_bytes());
                data.extend_from_slice(&(stats.skipped_subtrees as u32).to_le_bytes());
                data.extend_from_slice(&(stats.chunks_fetched as u32).to_le_bytes());
                data.extend_from_slice(&(stats.peak_ram_bytes as u32).to_le_bytes());
                self.output_text.clear();
                self.output_pos = 0;
                ApduResponse::ok(data)
            }
            None => ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED),
        }
    }
}

impl Applet for AccessControlApplet {
    fn process(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        match command.ins {
            ins::PUT_KEY => self.handle_put_key(card, command),
            ins::PUT_RULES => self.handle_put_rules(card, command),
            ins::PUT_QUERY => self.handle_put_query(command),
            ins::OPEN_SESSION => self.handle_open_session(card, command),
            ins::NEXT_REQUEST => self.handle_next_request(),
            ins::PUSH_CHUNK => self.handle_push_chunk(card, command),
            ins::GET_OUTPUT => self.handle_get_output(),
            ins::CLOSE_SESSION => self.handle_close_session(),
            _ => ApduResponse::error(StatusWord::INS_NOT_SUPPORTED),
        }
    }

    fn name(&self) -> &str {
        "sdds-access-control"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::authorized_view_oracle;
    use crate::conflict::AccessPolicy;
    use crate::secdoc::{decrypt_chunk, SecureDocumentBuilder};
    use crate::skipindex::encode::EncoderConfig;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::{writer, Document};

    fn key() -> SecretKey {
        SecretKey::derive(b"community", "documents")
    }

    fn hospital_doc(patients: usize) -> Document {
        generator::hospital(
            &HospitalProfile {
                patients,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    fn medical_rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, secretary, //patient/address",
        )
        .unwrap()
    }

    fn config_for(subject: &str) -> EngineConfig {
        EngineConfig::new(EvaluatorConfig::new(medical_rules(), subject))
    }

    #[test]
    fn secure_evaluation_matches_plaintext_evaluation() {
        let doc = hospital_doc(6);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let (events, stats) =
            evaluate_secure_document(&secure, &key(), config_for("doctor")).unwrap();
        // Oracle: evaluate the same rules on the plaintext tree.
        let expected = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(writer::to_string(&events), writer::to_string(&expected));
        assert!(stats.chunks_fetched > 0);
        assert!(stats.evaluator.is_some());
    }

    #[test]
    fn skip_index_reduces_transferred_and_decrypted_bytes_for_restrictive_subjects() {
        let doc = hospital_doc(20);
        let secure = SecureDocumentBuilder::new("folder", key())
            .encoder_config(EncoderConfig {
                min_index_bytes: 32,
                ..EncoderConfig::default()
            })
            .build(&doc);

        // The secretary sees only names and addresses: most of each patient
        // subtree (acts, reports, prescriptions) is skippable.
        let (with_index, with_stats) =
            evaluate_secure_document(&secure, &key(), config_for("secretary")).unwrap();
        let (without_index, without_stats) = evaluate_secure_document(
            &secure,
            &key(),
            config_for("secretary").without_skip_index(),
        )
        .unwrap();

        assert_eq!(
            writer::to_string(&with_index),
            writer::to_string(&without_index),
            "skipping must not change the authorized view"
        );
        assert!(with_stats.skipped_subtrees > 0);
        assert!(with_stats.ledger.bytes_skipped > 0);
        assert!(
            with_stats.ledger.bytes_decrypted < without_stats.ledger.bytes_decrypted,
            "with index {} should decrypt less than without {}",
            with_stats.ledger.bytes_decrypted,
            without_stats.ledger.bytes_decrypted
        );
        assert!(with_stats.chunks_fetched < without_stats.chunks_fetched);
        assert!(with_stats.chunks_skipped > 0);
    }

    #[test]
    fn unknown_subject_skips_nearly_everything() {
        let doc = hospital_doc(10);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let (events, stats) =
            evaluate_secure_document(&secure, &key(), config_for("intruder")).unwrap();
        assert!(events.is_empty());
        assert!(stats.ledger.bytes_skipped > 0);
        assert!(stats.chunks_fetched < secure.chunk_count());
    }

    #[test]
    fn query_restricts_what_is_fetched() {
        let doc = hospital_doc(12);
        let secure = SecureDocumentBuilder::new("folder", key())
            .encoder_config(EncoderConfig {
                min_index_bytes: 32,
                ..EncoderConfig::default()
            })
            .build(&doc);
        let mut config = config_for("doctor");
        config.evaluator = config
            .evaluator
            .with_query(Query::parse("//patient/name").unwrap());
        let (events, stats) = evaluate_secure_document(&secure, &key(), config).unwrap();
        let text = writer::to_string(&events);
        assert!(text.contains("<name>"));
        assert!(!text.contains("<report>"));
        // The query makes most of the document irrelevant: plenty of skipping.
        assert!(stats.skipped_subtrees > 0);

        // Oracle agreement.
        let expected = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new("doctor"),
            Some(&Query::parse("//patient/name").unwrap()),
            &AccessPolicy::paper(),
        );
        assert_eq!(text, writer::to_string(&expected));
    }

    #[test]
    fn wrong_key_fails_at_open() {
        let doc = hospital_doc(2);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let wrong = SecretKey::derive(b"other", "documents");
        assert!(
            SecureEvaluationSession::open(secure.header.clone(), wrong, config_for("doctor"))
                .is_err()
        );
    }

    #[test]
    fn tampered_chunk_is_rejected_during_the_session() {
        let doc = hospital_doc(3);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        let SessionRequest::NeedChunk(index) = session.next_request() else {
            panic!("expected a chunk request");
        };
        let mut chunk = secure.chunk(index as usize).unwrap().to_vec();
        chunk[0] ^= 0xA5;
        let proof = secure.proof(index as usize).unwrap();
        assert!(matches!(
            session.supply_chunk(index, &chunk, &proof),
            Err(CoreError::Crypto(_))
        ));
        // Supplying a proof for the wrong position is also rejected.
        let other_proof = secure.proof((index + 1) as usize).unwrap();
        assert!(session
            .supply_chunk(index, secure.chunk(index as usize).unwrap(), &other_proof)
            .is_err());
    }

    #[test]
    fn session_decrypt_matches_decrypt_chunk_in_one_reused_buffer() {
        let doc = hospital_doc(6);
        let secure = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&doc);
        assert!(
            secure.chunk_count() > 8,
            "the document must span many chunks"
        );
        let config = config_for("doctor").without_skip_index();
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config).unwrap();
        let mut capacity = None;
        let mut supplied = 0;
        while let SessionRequest::NeedChunk(index) = session.next_request() {
            let chunk = secure.chunk(index as usize).unwrap();
            let proof = secure.proof(index as usize).unwrap();
            session.supply_chunk(index, chunk, &proof).unwrap();
            assert_eq!(
                session.plaintext,
                decrypt_chunk(&key(), &secure.header, index, chunk),
                "chunk {index}"
            );
            // The first (full-size) chunk sizes the buffer; later chunks reuse it.
            let first = *capacity.get_or_insert(session.plaintext.capacity());
            assert_eq!(session.plaintext.capacity(), first, "chunk {index}");
            supplied += 1;
        }
        assert_eq!(supplied, secure.chunk_count());
    }

    #[test]
    fn flipped_or_swapped_chunks_fail_integrity_before_decryption() {
        let doc = hospital_doc(4);
        let secure = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&doc);
        let config = config_for("doctor").without_skip_index();
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config).unwrap();
        let proof0 = secure.proof(0).unwrap();
        session
            .supply_chunk(0, secure.chunk(0).unwrap(), &proof0)
            .unwrap();
        let SessionRequest::NeedChunk(index) = session.next_request() else {
            panic!("expected a chunk request");
        };
        let before = session.plaintext.clone();
        let decrypted = session.stats().ledger.bytes_decrypted;
        let fetched = session.stats().chunks_fetched;
        let proof = secure.proof(index as usize).unwrap();

        let mut flipped = secure.chunk(index as usize).unwrap().to_vec();
        flipped[3] ^= 0x01;
        let swapped = secure.chunk(index as usize + 1).unwrap();
        for (what, chunk) in [("flipped", &flipped[..]), ("swapped", swapped)] {
            let result = session.supply_chunk(index, chunk, &proof);
            assert!(
                matches!(
                    result,
                    Err(CoreError::Crypto(
                        sdds_crypto::CryptoError::IntegrityFailure { .. }
                    ))
                ),
                "{what} chunk {index}: {result:?}"
            );
            assert_eq!(session.plaintext, before, "{what}: nothing decrypted");
            assert_eq!(session.stats().ledger.bytes_decrypted, decrypted);
            assert_eq!(session.stats().chunks_fetched, fetched);
        }
        // The genuine chunk is still accepted at that position.
        session
            .supply_chunk(index, secure.chunk(index as usize).unwrap(), &proof)
            .unwrap();
        assert_eq!(
            session.plaintext,
            decrypt_chunk(
                &key(),
                &secure.header,
                index,
                secure.chunk(index as usize).unwrap()
            )
        );
    }

    #[test]
    fn out_of_order_chunks_are_rejected() {
        let doc = hospital_doc(3);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        let wrong_index = 1u32;
        let proof = secure.proof(wrong_index as usize).unwrap();
        assert!(session
            .supply_chunk(wrong_index, secure.chunk(1).unwrap(), &proof)
            .is_err());
    }

    #[test]
    fn ram_budget_violation_is_reported() {
        let doc = hospital_doc(5);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let config = config_for("doctor").with_ram_budget(64); // absurdly small
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config).unwrap();
        let result = run_local(&secure, &mut session);
        assert!(matches!(
            result,
            Err(CoreError::Card(CardError::RamExceeded { .. }))
        ));
    }

    #[test]
    fn session_stats_report_progress() {
        let doc = hospital_doc(4);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        assert!(!session.is_done());
        assert_eq!(session.header().doc_id, "folder");
        run_local(&secure, &mut session).unwrap();
        assert!(session.is_done());
        assert_eq!(session.next_request(), SessionRequest::Done);
        let (_, stats) = session.finish().unwrap();
        assert!(stats.peak_ram_bytes > 0);
        assert!(stats.ledger.events_processed > 0);
        assert!(stats.ledger.channel.total_bytes() > 0);
    }

    #[test]
    fn finishing_an_unfinished_session_is_an_error() {
        let doc = hospital_doc(2);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        assert!(session.finish().is_err());
    }

    // -- Applet level ------------------------------------------------------

    mod applet {
        use super::*;
        use crate::session::TrustedServer;
        use sdds_card::apdu::fragment_payload;
        use sdds_card::{CardProfile, CardRuntime};

        /// Terminal-side driver for the applet (a miniature proxy used by the
        /// tests; the full proxy lives in `sdds-proxy`).
        fn provision(
            runtime: &mut CardRuntime<AccessControlApplet>,
            server: &TrustedServer,
            subject: &Subject,
        ) {
            let doc_key = server.provision_document_key(subject, DEFAULT_DOC_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, doc_key.encode()).unwrap())
                .unwrap();
            let rules_key = server.provision_rules_key(subject, RULES_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, rules_key.encode()).unwrap())
                .unwrap();
            let protected = server.protected_rules_for(subject).encode();
            let fragments = fragment_payload(&protected);
            for (i, frag) in fragments.iter().enumerate() {
                let more = u8::from(i + 1 < fragments.len());
                runtime
                    .exchange_expect_ok(&Apdu::new(ins::PUT_RULES, more, 0, frag.to_vec()).unwrap())
                    .unwrap();
            }
        }

        fn run_document(
            runtime: &mut CardRuntime<AccessControlApplet>,
            secure: &SecureDocument,
        ) -> String {
            runtime
                .exchange_expect_ok(
                    &Apdu::new(ins::OPEN_SESSION, 0, 0, secure.header.encode()).unwrap(),
                )
                .unwrap();
            loop {
                let next = runtime
                    .exchange_expect_ok(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))
                    .unwrap();
                let index = u32::from_le_bytes(next[..4].try_into().unwrap());
                if index == u32::MAX {
                    break;
                }
                let mut payload = Vec::new();
                payload.extend_from_slice(&index.to_le_bytes());
                let proof = secure.proof(index as usize).unwrap().encode();
                payload.extend_from_slice(&(proof.len() as u16).to_le_bytes());
                payload.extend_from_slice(&proof);
                payload.extend_from_slice(secure.chunk(index as usize).unwrap());
                let fragments = fragment_payload(&payload);
                for (i, frag) in fragments.iter().enumerate() {
                    let more = u8::from(i + 1 < fragments.len());
                    runtime
                        .exchange_expect_ok(
                            &Apdu::new(ins::PUSH_CHUNK, more, 0, frag.to_vec()).unwrap(),
                        )
                        .unwrap();
                }
            }
            let mut text = Vec::new();
            loop {
                let part = runtime
                    .exchange_expect_ok(&Apdu::simple(ins::GET_OUTPUT, 0, 0))
                    .unwrap();
                if part.is_empty() {
                    break;
                }
                text.extend_from_slice(&part);
            }
            runtime
                .exchange_expect_ok(&Apdu::simple(ins::CLOSE_SESSION, 0, 0))
                .unwrap();
            String::from_utf8(text).unwrap()
        }

        #[test]
        fn full_apdu_round_trip_produces_the_authorized_view() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("secretary");
            let doc = hospital_doc(3);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);

            let applet = AccessControlApplet::new("secretary", server.transport_key_for(&subject));
            // The modern profile gives the session enough applet RAM for a
            // 512-byte chunk plus the evaluator working set.
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
            provision(&mut runtime, &server, &subject);
            let view = run_document(&mut runtime, &secure);

            let expected = authorized_view_oracle(
                &doc,
                &medical_rules(),
                &subject,
                None,
                &AccessPolicy::paper(),
            );
            assert_eq!(view, writer::to_string(&expected));
            assert!(view.contains("<name>"));
            assert!(!view.contains("<ssn>"));
            // Channel accounting happened at the APDU layer.
            assert!(runtime.card().ledger_ref().channel.apdu_exchanges > 10);
            assert!(runtime.card().ledger_ref().channel.bytes_to_card > 1000);
        }

        #[test]
        fn applet_refuses_sessions_without_rules_or_keys() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("doctor");
            let doc = hospital_doc(1);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
            // No rules installed yet.
            let resp = runtime
                .exchange(&Apdu::new(ins::OPEN_SESSION, 0, 0, secure.header.encode()).unwrap());
            assert_eq!(resp.status, StatusWord::CONDITIONS_NOT_SATISFIED);
            // Unknown instruction.
            let resp = runtime.exchange(&Apdu::simple(0x99, 0, 0));
            assert_eq!(resp.status, StatusWord::INS_NOT_SUPPORTED);
            // NEXT_REQUEST without a session.
            let resp = runtime.exchange(&Apdu::simple(ins::NEXT_REQUEST, 0, 0));
            assert_eq!(resp.status, StatusWord::CONDITIONS_NOT_SATISFIED);
        }

        #[test]
        fn applet_rejects_rules_from_a_foreign_community() {
            let server = TrustedServer::new(b"community", medical_rules());
            let other = TrustedServer::new(b"other-community", medical_rules());
            let subject = Subject::new("doctor");
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
            // Provision legitimate keys.
            let rules_key = server.provision_rules_key(&subject, RULES_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, rules_key.encode()).unwrap())
                .unwrap();
            // Rules sealed by the other community do not verify.
            let foreign = other.protected_rules_for(&subject).encode();
            let fragments = fragment_payload(&foreign);
            let mut last = ApduResponse::ok_empty();
            for (i, frag) in fragments.iter().enumerate() {
                let more = u8::from(i + 1 < fragments.len());
                last =
                    runtime.exchange(&Apdu::new(ins::PUT_RULES, more, 0, frag.to_vec()).unwrap());
            }
            assert_eq!(last.status, StatusWord::SECURITY_NOT_SATISFIED);
        }
    }
}
