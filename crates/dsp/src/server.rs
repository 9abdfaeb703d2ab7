//! Serving accounting of the DSP.
//!
//! The terminal proxy fetches the document header, then individual encrypted
//! chunks (with their Merkle proofs) *on demand of the card*, and the protected
//! rule blob of its subject. The DSP counts every byte it serves — the
//! transfer-volume results of experiments E2 and E5 are read off these
//! counters on one side and off the card ledger on the other.
//!
//! There is exactly **one** serving code path in the workspace: the sharded
//! [`crate::service::DspService`] (a single-tenant DSP is `DspService::new(1)`).
//! This module holds its counters: the plain [`ServerStats`] value and its
//! live, per-shard form [`AtomicServerStats`].

use sdds_obs::{families, Counter, Registry};

/// Serving statistics of a DSP (a whole service, or one shard of the
/// [`crate::service::ShardedStore`]).
///
/// Every served payload is counted through exactly one of the `record_*`
/// methods below, inside the shard that served it — so `bytes_served` counts
/// headers, chunks + proofs and rule blobs each exactly once, and merging
/// per-shard statistics cannot double- or under-count any class of payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served.
    pub requests: usize,
    /// Payload bytes served (headers, chunks, proofs, rule blobs).
    pub bytes_served: usize,
    /// Chunk requests served.
    pub chunks_served: usize,
    /// Rule-blob requests served.
    pub rule_blobs_served: usize,
    /// Bytes of protected rule blobs served (a subset of `bytes_served`).
    pub rule_bytes_served: usize,
}

impl ServerStats {
    /// Records one served document header of `bytes` payload.
    pub fn record_header(&mut self, bytes: usize) {
        self.requests += 1;
        self.bytes_served += bytes;
    }

    /// Records one served chunk (ciphertext + proof) of `bytes` payload.
    pub fn record_chunk(&mut self, bytes: usize) {
        self.requests += 1;
        self.bytes_served += bytes;
        self.chunks_served += 1;
    }

    /// Records one served protected rule blob of `bytes` payload.
    pub fn record_rules(&mut self, bytes: usize) {
        self.requests += 1;
        self.bytes_served += bytes;
        self.rule_blobs_served += 1;
        self.rule_bytes_served += bytes;
    }

    /// Merges the counters of another server (or shard) into this one.
    pub fn merge(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.bytes_served += other.bytes_served;
        self.chunks_served += other.chunks_served;
        self.rule_blobs_served += other.rule_blobs_served;
        self.rule_bytes_served += other.rule_bytes_served;
    }
}

/// The live, shared form of [`ServerStats`]: one relaxed [`sdds_obs`]
/// counter per field, so serving accounting has exactly one implementation
/// and the same cells surface in [`crate::service::DspService::obs_snapshot`].
///
/// Serving counters are the only thing a DSP read mutates, so keeping them in
/// atomics is what lets every `fetch_*` run under a shard's **read** lock —
/// same-shard readers proceed concurrently, and only writes (`put_document`,
/// rule-blob sync, stats reset) take the write lock. Relaxed ordering is
/// enough: the counters are independent monotonic tallies, never used to
/// synchronise other memory, and [`AtomicServerStats::snapshot`] is read
/// either under the shard's write lock (reset) or after the traffic of
/// interest quiesced (reporting). Clones share the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct AtomicServerStats {
    requests: Counter,
    bytes_served: Counter,
    chunks_served: Counter,
    rule_blobs_served: Counter,
    rule_bytes_served: Counter,
}

impl AtomicServerStats {
    /// Stats whose counters are registered in `registry` under the
    /// `dsp.serve.*` families, labelled with the owning shard (`"shard=3"`),
    /// so a registry snapshot reports them without a second tally. The
    /// unlabelled [`Default`] form stays detached — for tests and
    /// stand-alone stores.
    pub fn registered(registry: &Registry, label: &str) -> Self {
        AtomicServerStats {
            requests: registry.counter_with(families::SERVE_REQUESTS, Some(label)),
            bytes_served: registry.counter_with(families::SERVE_BYTES, Some(label)),
            chunks_served: registry.counter_with(families::SERVE_CHUNKS, Some(label)),
            rule_blobs_served: registry.counter_with(families::SERVE_RULE_BLOBS, Some(label)),
            rule_bytes_served: registry.counter_with(families::SERVE_RULE_BYTES, Some(label)),
        }
    }

    /// Records one served document header of `bytes` payload.
    pub fn record_header(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
    }

    /// Records one served chunk (ciphertext + proof) of `bytes` payload.
    pub fn record_chunk(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.chunks_served.inc();
    }

    /// Records one served protected rule blob of `bytes` payload.
    pub fn record_rules(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.rule_blobs_served.inc();
        self.rule_bytes_served.add(bytes as u64);
    }

    /// A plain-value snapshot of the counters.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get() as usize,
            bytes_served: self.bytes_served.get() as usize,
            chunks_served: self.chunks_served.get() as usize,
            rule_blobs_served: self.rule_blobs_served.get() as usize,
            rule_bytes_served: self.rule_bytes_served.get() as usize,
        }
    }

    /// Zeroes every counter (call under the owning shard's write lock so no
    /// concurrent serve is torn across the reset).
    pub fn reset(&self) {
        self.requests.reset();
        self.bytes_served.reset();
        self.chunks_served.reset();
        self.rule_blobs_served.reset();
        self.rule_bytes_served.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DspService;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_core::session::ProtectedRules;
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    /// A single-tenant DSP: a one-shard service holding one folder and the
    /// doctor's rule blob.
    fn server() -> DspService {
        let server = DspService::new(1);
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let secure =
            SecureDocumentBuilder::new("folder", SecretKey::derive(b"s", "doc")).build(&doc);
        server.put_document(secure);
        let rules = RuleSet::parse("+, doctor, //patient").unwrap();
        let sealed = ProtectedRules::seal(&rules, &SecretKey::derive(b"s", "rules"));
        server.put_rules("folder", "doctor", &sealed).unwrap();
        server
    }

    #[test]
    fn serves_headers_chunks_and_rules_with_accounting() {
        let s = server();
        let header = s.fetch_header("folder").unwrap();
        assert_eq!(header.doc_id, "folder");
        let (chunk, proof) = s.fetch_chunk("folder", 0).unwrap();
        proof.verify(&chunk, &header.merkle_root).unwrap();
        let rules = s.fetch_rules("folder", "doctor").unwrap();
        assert!(!rules.is_empty());
        let stats = s.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.chunks_served, 1);
        assert!(stats.bytes_served > chunk.len());
        s.reset_stats();
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn rule_blob_bytes_are_counted_exactly_once() {
        let s = server();
        let blob = s.fetch_rules("folder", "doctor").unwrap();
        let stats = s.stats();
        assert_eq!(stats.rule_blobs_served, 1);
        assert_eq!(stats.rule_bytes_served, blob.len());
        // Rule bytes are a subset of bytes_served, not an addition to it.
        assert_eq!(stats.bytes_served, blob.len());
        let (chunk, proof) = s.fetch_chunk("folder", 0).unwrap();
        assert_eq!(
            s.stats().bytes_served,
            blob.len() + chunk.len() + proof.encode().len()
        );
        assert_eq!(s.stats().rule_bytes_served, blob.len());
    }

    #[test]
    fn stats_merge_counts_every_class_once() {
        // Two "shards" serving disjoint traffic must merge to the same totals
        // a single server accumulating both streams would report.
        let mut a = ServerStats::default();
        let mut b = ServerStats::default();
        let mut whole = ServerStats::default();
        for (stats, bytes) in [(&mut a, 100), (&mut b, 200)] {
            stats.record_header(10);
            stats.record_chunk(bytes);
            stats.record_rules(30);
            whole.record_header(10);
            whole.record_chunk(bytes);
            whole.record_rules(30);
        }
        let mut merged = ServerStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        assert_eq!(merged.requests, 6);
        assert_eq!(merged.bytes_served, 10 + 100 + 30 + 10 + 200 + 30);
        assert_eq!(merged.chunks_served, 2);
        assert_eq!(merged.rule_blobs_served, 2);
        assert_eq!(merged.rule_bytes_served, 60);
        // Merging an empty shard is the identity.
        let before = merged;
        merged.merge(&ServerStats::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn atomic_stats_snapshot_matches_plain_recording() {
        let atomic = AtomicServerStats::default();
        let mut plain = ServerStats::default();
        atomic.record_header(10);
        plain.record_header(10);
        atomic.record_chunk(100);
        plain.record_chunk(100);
        atomic.record_rules(30);
        plain.record_rules(30);
        assert_eq!(atomic.snapshot(), plain);
        atomic.reset();
        assert_eq!(atomic.snapshot(), ServerStats::default());
    }

    #[test]
    fn unknown_objects_are_reported() {
        let s = server();
        assert!(s.fetch_header("nope").is_err());
        assert!(s.fetch_chunk("folder", 9999).is_err());
        assert!(s.fetch_rules("folder", "stranger").is_err());
        assert!(s.contains("folder"));
        assert!(!s.contains("nope"));
        assert_eq!(s.revision("folder"), Some(0));
        assert_eq!(s.revision("nope"), None);
    }
}
