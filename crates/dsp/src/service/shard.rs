//! FNV-sharded, concurrently accessible document store with hot-document
//! replication.
//!
//! The single-tenant [`DspStore`] sits behind one `&mut self` API: every
//! request of every client serializes on the same structure, which is exactly
//! the bottleneck the E10 experiment measures. [`ShardedStore`] splits the
//! document space over `N` shards keyed by the FNV-1a hash of the document id;
//! each shard holds its own [`DspStore`] behind its own `RwLock`, so requests
//! for documents on different shards proceed concurrently.
//!
//! **Serving takes the shard's *read* lock.** The only state a serve mutates
//! is its shard's serve counts, and those are relaxed counters in the
//! shard's [`ShardObs`] — so same-shard readers proceed concurrently too,
//! and only the write paths (`put_document`, rule-blob sync, replication,
//! `reset_stats`) take the write lock. The DSP is a read-mostly content
//! server: millions of card-holders pull, publishers rarely push.
//!
//! **Hot documents replicate.** A single document all clients hammer still
//! queues on one shard's serial capacity, whatever the shard count. The store
//! therefore keeps a replica directory: a document that is pinned
//! ([`ShardedStore::pin_replicas`], reachable through the facade's
//! `Publisher::builder().replicate(n)`) — or whose serve count crosses the
//! [`HotPolicy`] threshold — gets read-only clones on further shards, and
//! reads spread over the copies deterministically (chunk index / subject hash
//! picks the copy, so per-shard accounting is interleaving independent).
//! Republishing **invalidates the clones before the new revision lands** and
//! re-replicates pinned documents afterwards, so a replica can never serve a
//! revision its home shard has abandoned; a reader that raced the
//! invalidation falls back to the home shard. On top of that, every fetch can
//! carry a **pinned revision** (`fetch_*_pinned`): a mismatch — e.g. a
//! republish in the middle of a card session — returns the typed
//! [`CoreError::StaleRevision`] instead of letting chunks of the new upload
//! fail Merkle verification against the old header.
//!
//! Global statistics are obtained by merging the per-shard counters on read
//! ([`ShardedStore::stats`], via [`ServerStats::merge`]).

use sdds_sync::sync::atomic::{AtomicUsize, Ordering};
use sdds_sync::sync::{Arc, RwLock, RwLockExt};
use std::collections::HashMap;
use std::hash::Hasher;

use sdds_core::secdoc::{DocumentHeader, SecureDocument};
use sdds_core::session::ProtectedRules;
use sdds_core::CoreError;
use sdds_crypto::merkle::MerkleProof;
use sdds_xml::symbols::Fnv1a;

use crate::obs::{ServeObs, ServerStats, ShardObs};
use crate::store::{DocumentRecord, DspStore};

// ---------------------------------------------------------------------------
// The one serving path of the workspace: every header, chunk and rule blob —
// whether requested from a one-shard or a many-shard service, from a home
// shard or a replica — is served and accounted by these helpers.
// ---------------------------------------------------------------------------

/// Rejects a serve whose session pinned a revision the record no longer has.
fn check_revision(record: &DocumentRecord, pinned: Option<u64>) -> Result<(), CoreError> {
    match pinned {
        Some(rev) if record.revision != rev => Err(CoreError::StaleRevision {
            // alloc: cold — stale-revision error path.
            doc_id: record.document.header.doc_id.clone(),
            pinned: rev,
            current: record.revision,
        }),
        _ => Ok(()),
    }
}

/// Serves a document header out of `record`, accounting it on `stats`.
fn serve_header(
    record: &DocumentRecord,
    stats: &ShardObs,
    pinned: Option<u64>,
) -> Result<DocumentHeader, CoreError> {
    check_revision(record, pinned)?;
    // alloc: startup — one header fetch per card session (the SOE caches it);
    // chunk serves, the per-event path, share ciphertext without copying.
    let header = record.document.header.clone();
    stats.record_header(header.encoded_len());
    Ok(header)
}

/// Serves one encrypted chunk and its Merkle proof out of `record`.
///
/// The ciphertext is shared, not copied: the returned [`Arc`] aliases the
/// stored chunk, so the per-event cost is a refcount bump plus the (small)
/// Merkle sibling path, regardless of the chunk size.
fn serve_chunk(
    record: &DocumentRecord,
    stats: &ShardObs,
    index: u32,
    pinned: Option<u64>,
) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
    check_revision(record, pinned)?;
    let doc_id = &record.document.header.doc_id;
    let chunk = record
        .document
        .chunk_shared(index as usize)
        .ok_or_else(|| CoreError::BadState {
            // alloc: cold — out-of-range error path, never taken by a
            // well-formed session.
            message: format!("chunk {index} out of range for `{doc_id}`"),
        })?;
    let proof = record.document.proof(index as usize)?;
    stats.record_chunk(chunk.len() + proof.encoded_len());
    Ok((chunk, proof))
}

/// Serves the protected rule blob of `subject` out of `record`. The blob is
/// `Arc`-shared with the store, so a serve never copies it.
fn serve_rules(
    record: &DocumentRecord,
    stats: &ShardObs,
    subject: &str,
    pinned: Option<u64>,
) -> Result<Arc<[u8]>, CoreError> {
    check_revision(record, pinned)?;
    let blob = record
        .rules
        .get(subject)
        .ok_or_else(|| CoreError::NoRulesForSubject {
            // alloc: cold — unknown-subject error path.
            doc_id: record.document.header.doc_id.clone(),
            // alloc: cold — unknown-subject error path.
            subject: subject.to_owned(),
        })?;
    stats.record_rules(blob.len());
    Ok(Arc::clone(blob))
}

/// FNV-1a over the document id (the workspace's [`Fnv1a`] hasher) — stable
/// and good enough to spread ids of the form `folder-<n>` evenly over a
/// handful of shards.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Replication policy for documents that become hot organically: once a
/// document's serve count **reaches** `threshold` (clamped to at least 1),
/// it is cloned so `replicas` shards serve it (clamped to the shard count).
/// Disabled by default; see [`ShardedStore::with_hot_policy`]. Explicitly
/// pinned documents ([`ShardedStore::pin_replicas`]) ignore the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPolicy {
    /// Serves (since upload) at which a document is considered hot (`0`
    /// behaves like `1`: the first serve replicates).
    pub threshold: usize,
    /// Total shards that should serve a hot document (home copy included).
    pub replicas: usize,
}

/// Replica directory entry of one document.
#[derive(Debug)]
struct ReplicaEntry {
    /// Shards serving this document; `shards[0]` is the home shard, the rest
    /// hold read-only clones. Clone staleness needs no revision bookkeeping
    /// here: republishing physically removes the clones before the new
    /// revision lands, and pinned fetches check the served record itself.
    shards: Vec<usize>,
    /// Replication degree requested by a publisher pin (`None`: threshold
    /// driven only). Pinned documents re-replicate after every republish.
    pinned: Option<usize>,
    /// Serves since upload — drives the [`HotPolicy`] threshold.
    serves: AtomicUsize,
}

/// One shard: a plain store and read-only clones of hot documents homed on
/// *other* shards (its serve counts live in its [`ShardObs`]). Clones of one
/// document share one heap allocation (`Arc`) until a rule-blob sync
/// diverges them.
#[derive(Debug, Default)]
struct Shard {
    store: DspStore,
    replicas: HashMap<String, Arc<DocumentRecord>>,
}

/// A document store sharded by FNV of the document id, with optional
/// hot-document replication (see the module docs).
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<RwLock<Shard>>,
    /// Replica directory: which shards serve which document. Lock order is
    /// always directory → shard, and serves drop the directory lock before
    /// taking a shard lock, so the two levels cannot deadlock.
    directory: RwLock<HashMap<String, ReplicaEntry>>,
    /// Documents currently serving from more than one shard. The serve fast
    /// path checks this before touching the directory lock, so a store with
    /// no replication shares no routing state between shards at all.
    replicated: AtomicUsize,
    hot: Option<HotPolicy>,
    /// Serving telemetry: each shard's serve counts (the only store of
    /// them — [`ShardedStore::stats`] reads them back), plus latency spans,
    /// routing and error counters.
    obs: ServeObs,
}

impl ShardedStore {
    /// Creates a store with `shards` shards. A count of `0` is **clamped to
    /// 1** — a store with no shards cannot hold anything, so the degenerate
    /// request silently becomes the single-tenant layout (the facade's
    /// `Publisher::builder().shards(0)` rejects it at build time instead;
    /// `zero_shards_clamps_to_one` pins the clamp).
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1);
        ShardedStore {
            shards: (0..count).map(|_| RwLock::new(Shard::default())).collect(),
            directory: RwLock::new(HashMap::new()),
            replicated: AtomicUsize::new(0),
            hot: None,
            obs: ServeObs::detached(count),
        }
    }

    /// Attaches registry-backed serving telemetry (see
    /// [`crate::obs::DspObs`]): the registry snapshot then reports the same
    /// serve counts [`ShardedStore::stats`] merges. Call at construction
    /// time, before any document is served.
    pub fn with_obs(self, obs: ServeObs) -> Self {
        ShardedStore { obs, ..self }
    }

    /// The serving telemetry handles.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Enables threshold-driven replication: once a document's serve count
    /// since upload reaches `policy.threshold` (at least 1), it is cloned so
    /// `policy.replicas` shards serve it.
    pub fn with_hot_policy(mut self, policy: HotPolicy) -> Self {
        self.hot = Some(policy);
        self
    }

    /// The configured hot-document policy, if any.
    pub fn hot_policy(&self) -> Option<HotPolicy> {
        self.hot
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the home shard owning `doc_id`.
    pub fn shard_of(&self, doc_id: &str) -> usize {
        (fnv1a(doc_id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Shards currently serving `doc_id` (home first). A single-element
    /// answer means the document is not replicated.
    pub fn replica_shards(&self, doc_id: &str) -> Vec<usize> {
        self.directory
            .read_np()
            .get(doc_id)
            .map(|entry| entry.shards.clone())
            .unwrap_or_else(|| vec![self.shard_of(doc_id)])
    }

    /// Picks the shard that serves this request: the home shard, unless the
    /// document is replicated — then `salt` (chunk index, subject hash)
    /// selects a copy, deterministically per request, so per-shard byte
    /// accounting does not depend on thread interleaving.
    fn route(&self, doc_id: &str, salt: u64) -> usize {
        // Fast path: with nothing replicated anywhere, readers never touch
        // the (global) directory lock — shards stay fully independent.
        if self.replicated.load(Ordering::Relaxed) == 0 {
            return self.shard_of(doc_id);
        }
        let directory = self.directory.read_np();
        match directory.get(doc_id) {
            Some(entry) if entry.shards.len() > 1 => {
                entry.shards[(salt % entry.shards.len() as u64) as usize]
            }
            _ => self.shard_of(doc_id),
        }
    }

    /// Serves one request under a shard **read** lock: routed to a replica
    /// when the document is hot, falling back to the home shard when the
    /// routed clone vanished (republish invalidation won the race).
    fn serve<T>(
        &self,
        doc_id: &str,
        salt: u64,
        serve: impl Fn(&DocumentRecord, &ShardObs) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let started = if self.obs.live {
            self.obs.recorder.now_nanos()
        } else {
            0
        };
        let home = self.shard_of(doc_id);
        let routed = self.route(doc_id, salt);
        let (served, served_on) = self.serve_routed(doc_id, home, routed, serve);
        self.obs
            .finish_serve(served_on, started, served.as_ref().err());
        served
    }

    /// The routing body of [`ShardedStore::serve`], split out so the serve
    /// wrapper can account latency and errors against the shard that
    /// actually answered (returned alongside the result).
    fn serve_routed<T>(
        &self,
        doc_id: &str,
        home: usize,
        routed: usize,
        serve: impl Fn(&DocumentRecord, &ShardObs) -> Result<T, CoreError>,
    ) -> (Result<T, CoreError>, usize) {
        if routed != home {
            let shard = self.shards[routed].read_np();
            if let Some(record) = shard.replicas.get(doc_id) {
                let served = serve(record.as_ref(), self.obs.shard(routed));
                drop(shard);
                if self.obs.live {
                    self.obs.shard(routed).replica_routes.inc();
                }
                self.note_serve(doc_id);
                return (served, routed);
            }
        }
        let shard = self.shards[home].read_np();
        let Some(record) = shard.store.get(doc_id) else {
            return (
                Err(CoreError::NotFound {
                    // alloc: cold — unknown-document error path.
                    doc_id: doc_id.to_owned(),
                }),
                home,
            );
        };
        let served = serve(record, self.obs.shard(home));
        drop(shard);
        self.note_serve(doc_id);
        (served, home)
    }

    /// Counts one serve towards the hot threshold and replicates on the
    /// exact crossing (the `fetch_add` ticket makes the trigger fire once).
    fn note_serve(&self, doc_id: &str) {
        let Some(policy) = self.hot else { return };
        // A threshold of 0 means "replicate as eagerly as possible": the
        // trigger fires on the exact crossing ticket, so the effective
        // threshold is at least the first serve.
        let threshold = policy.threshold.max(1);
        let crossed = {
            let directory = self.directory.read_np();
            match directory.get(doc_id) {
                Some(entry) => {
                    let serves = entry.serves.fetch_add(1, Ordering::Relaxed) + 1;
                    serves == threshold && entry.shards.len() == 1
                }
                None => {
                    drop(directory);
                    let mut directory = self.directory.write_np();
                    // alloc: amortized — the directory entry is created once per document; later serves only bump an atomic.
                    let entry = directory.entry(doc_id.to_owned()).or_insert(ReplicaEntry {
                        // alloc: amortized — the directory entry is created once per document; later serves only bump an atomic.
                        shards: vec![self.shard_of(doc_id)],
                        pinned: None,
                        serves: AtomicUsize::new(0),
                    });
                    let serves = entry.serves.fetch_add(1, Ordering::Relaxed) + 1;
                    serves == threshold && entry.shards.len() == 1
                }
            }
        };
        if crossed {
            let mut directory = self.directory.write_np();
            // Re-validate under the write lock: between the crossing and
            // here, a pin may have installed its own (authoritative) layout,
            // or a republish may have reset the serve count — in either case
            // the route is no longer this trigger's to change.
            let still_eligible = directory.get(doc_id).is_some_and(|entry| {
                entry.shards.len() == 1
                    && entry.pinned.is_none()
                    && entry.serves.load(Ordering::Relaxed) >= threshold
            });
            if still_eligible {
                self.replicate_locked(&mut directory, doc_id, policy.replicas);
            }
        }
    }

    /// Clones `doc_id` so `copies` shards serve it (clamped to `[1,
    /// shard_count]`), with the replica directory write lock held: one deep
    /// clone of the home record, shared by every copy behind an `Arc`,
    /// installed on the following shards (wrapping), then the new route is
    /// published. No-op for unknown documents.
    ///
    /// Holding the directory lock across the installation is deliberate: it
    /// serializes replication against republish invalidation, which is what
    /// makes "a clone can never serve an abandoned revision" a lock-order
    /// argument instead of a data race. Writes are rare on this read-mostly
    /// server, and the held-lock work is one record clone plus `copies`
    /// `Arc` clones.
    fn replicate_locked(
        &self,
        directory: &mut HashMap<String, ReplicaEntry>,
        doc_id: &str,
        copies: usize,
    ) {
        let copies = copies.clamp(1, self.shards.len());
        let home = self.shard_of(doc_id);
        let record = {
            let shard = self.shards[home].read_np();
            match shard.store.get(doc_id) {
                // alloc: cold — replication runs once, when a document crosses the hot threshold.
                Some(record) => Arc::new(record.clone()),
                None => return,
            }
        };
        // alloc: cold — replication runs once, when a document crosses the hot threshold.
        let mut shards = vec![home];
        for offset in 1..copies {
            let target = (home + offset) % self.shards.len();
            self.shards[target]
                .write_np()
                .replicas
                // alloc: cold — replication runs once, when a document crosses the hot threshold.
                .insert(doc_id.to_owned(), Arc::clone(&record));
            shards.push(target);
        }
        // alloc: cold — replication runs once, when a document crosses the hot threshold.
        let entry = directory.entry(doc_id.to_owned()).or_insert(ReplicaEntry {
            // alloc: cold — replication runs once, when a document crosses the hot threshold.
            shards: vec![home],
            pinned: None,
            serves: AtomicUsize::new(0),
        });
        if entry.shards.len() <= 1 && shards.len() > 1 {
            self.replicated.fetch_add(1, Ordering::Relaxed);
        }
        entry.shards = shards;
    }

    /// Removes every clone of `doc_id` and routes readers back to the home
    /// shard, with the directory write lock held. Returns the pin degree so
    /// a republish can re-replicate.
    fn invalidate_locked(
        &self,
        directory: &mut HashMap<String, ReplicaEntry>,
        doc_id: &str,
    ) -> Option<usize> {
        let entry = directory.get_mut(doc_id)?;
        for &shard in entry.shards.iter().skip(1) {
            self.shards[shard].write_np().replicas.remove(doc_id);
        }
        if entry.shards.len() > 1 {
            self.replicated.fetch_sub(1, Ordering::Relaxed);
        }
        entry.shards.truncate(1);
        entry.serves.store(0, Ordering::Relaxed);
        entry.pinned
    }

    /// Pins `doc_id` to `copies` serving shards (clamped to `[1,
    /// shard_count]`): replicates immediately and re-replicates after every
    /// republish. Fails with [`CoreError::NotFound`] for unknown documents.
    pub fn pin_replicas(&self, doc_id: &str, copies: usize) -> Result<(), CoreError> {
        if !self.contains(doc_id) {
            return Err(CoreError::NotFound {
                doc_id: doc_id.to_owned(),
            });
        }
        let mut directory = self.directory.write_np();
        self.invalidate_locked(&mut directory, doc_id);
        self.replicate_locked(&mut directory, doc_id, copies);
        if let Some(entry) = directory.get_mut(doc_id) {
            entry.pinned = Some(copies);
        }
        Ok(())
    }

    /// Uploads (or replaces) a document on its shard, keeping stored rule
    /// blobs (see [`DspStore::put_document`]).
    pub fn put_document(&self, document: SecureDocument) {
        self.put_document_with(document, false);
    }

    /// Uploads (or replaces) a document, choosing whether stored rule blobs
    /// survive the replacement (see [`DspStore::put_document_with`]).
    ///
    /// Replicas are invalidated **before** the new revision lands (readers
    /// route back to the home shard for the duration), and pinned documents
    /// re-replicate the new revision afterwards — so no clone ever serves a
    /// revision the home shard has abandoned.
    pub fn put_document_with(&self, document: SecureDocument, clear_rules_on_replace: bool) {
        let doc_id = document.header.doc_id.clone();
        let mut directory = self.directory.write_np();
        let pinned = self.invalidate_locked(&mut directory, &doc_id);
        self.shards[self.shard_of(&doc_id)]
            .write_np()
            .store
            .put_document_with(document, clear_rules_on_replace);
        if let Some(copies) = pinned {
            self.replicate_locked(&mut directory, &doc_id, copies);
            if let Some(entry) = directory.get_mut(&doc_id) {
                entry.pinned = Some(copies);
            }
        }
    }

    /// Stores the protected rules of `subject` for `doc_id` — on the home
    /// shard and on every replica, so a routed rule fetch cannot see a blob
    /// older than the home shard's.
    pub fn put_rules(
        &self,
        doc_id: &str,
        subject: &str,
        rules: &ProtectedRules,
    ) -> Result<(), CoreError> {
        let directory = self.directory.read_np();
        self.shards[self.shard_of(doc_id)]
            .write_np()
            .store
            .put_rules(doc_id, subject, rules)?;
        if let Some(entry) = directory.get(doc_id) {
            for &shard in entry.shards.iter().skip(1) {
                if let Some(record) = self.shards[shard].write_np().replicas.get_mut(doc_id) {
                    // Clones share one allocation until a sync diverges them;
                    // `make_mut` copies-on-write for this shard only.
                    Arc::make_mut(record)
                        .rules
                        .insert(subject.to_owned(), rules.encode().into());
                }
            }
        }
        Ok(())
    }

    /// Fetches a document header (counted on the serving shard).
    pub fn fetch_header(&self, doc_id: &str) -> Result<DocumentHeader, CoreError> {
        self.serve(doc_id, 0, |record, stats| serve_header(record, stats, None))
    }

    /// Fetches a document header together with the upload revision it
    /// belongs to, for a session to pin: subsequent `fetch_*_pinned` calls
    /// carrying this revision fail with [`CoreError::StaleRevision`] if the
    /// document is republished mid-session.
    pub fn fetch_header_pinned(&self, doc_id: &str) -> Result<(DocumentHeader, u64), CoreError> {
        self.fetch_header_pinned_salted(doc_id, 0)
    }

    /// Like [`ShardedStore::fetch_header_pinned`], but routed with a caller
    /// `salt` — sessions carry distinct salts
    /// (`crate::DspService::next_session_salt`) so *identical* header
    /// requests from different sessions spread over a hot document's
    /// replicas instead of all queueing on the home copy.
    pub fn fetch_header_pinned_salted(
        &self,
        doc_id: &str,
        salt: u64,
    ) -> Result<(DocumentHeader, u64), CoreError> {
        self.serve(doc_id, salt, |record, stats| {
            serve_header(record, stats, None).map(|header| (header, record.revision))
        })
    }

    /// Fetches one encrypted chunk and its Merkle proof.
    ///
    /// Replicated documents route chunk `i` to copy `(i + 1) % copies` — the
    /// `+ 1` keeps the first chunk off the home copy, which already serves
    /// every header request.
    pub fn fetch_chunk(
        &self,
        doc_id: &str,
        index: u32,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.serve(doc_id, u64::from(index) + 1, |record, stats| {
            serve_chunk(record, stats, index, None)
        })
    }

    /// Like [`ShardedStore::fetch_chunk`], but fails with
    /// [`CoreError::StaleRevision`] unless the serving record still has the
    /// session's pinned `revision`.
    pub fn fetch_chunk_pinned(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.fetch_chunk_pinned_salted(doc_id, index, revision, 0)
    }

    /// Like [`ShardedStore::fetch_chunk_pinned`], with a per-session routing
    /// `salt` added to the chunk-index spread (see
    /// [`ShardedStore::fetch_header_pinned_salted`]).
    pub fn fetch_chunk_pinned_salted(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
        salt: u64,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.serve(
            doc_id,
            salt.wrapping_add(u64::from(index) + 1),
            |record, stats| serve_chunk(record, stats, index, Some(revision)),
        )
    }

    /// Fetches the protected rule blob of `subject` for `doc_id`.
    pub fn fetch_rules(&self, doc_id: &str, subject: &str) -> Result<Arc<[u8]>, CoreError> {
        self.serve(doc_id, fnv1a(subject.as_bytes()), |record, stats| {
            serve_rules(record, stats, subject, None)
        })
    }

    /// Like [`ShardedStore::fetch_rules`], but fails with
    /// [`CoreError::StaleRevision`] unless the serving record still has the
    /// session's pinned `revision`.
    pub fn fetch_rules_pinned(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
    ) -> Result<Arc<[u8]>, CoreError> {
        self.fetch_rules_pinned_salted(doc_id, subject, revision, 0)
    }

    /// Like [`ShardedStore::fetch_rules_pinned`], with a per-session routing
    /// `salt` added to the subject-hash spread (see
    /// [`ShardedStore::fetch_header_pinned_salted`]).
    pub fn fetch_rules_pinned_salted(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
        salt: u64,
    ) -> Result<Arc<[u8]>, CoreError> {
        self.serve(
            doc_id,
            salt.wrapping_add(fnv1a(subject.as_bytes())),
            |record, stats| serve_rules(record, stats, subject, Some(revision)),
        )
    }

    /// Merged statistics of every shard.
    pub fn stats(&self) -> ServerStats {
        let mut merged = ServerStats::default();
        for index in 0..self.shards.len() {
            merged.merge(&self.obs.shard(index).snapshot());
        }
        merged
    }

    /// Per-shard statistics, indexed by shard (the capacity model reads the
    /// busiest shard off this).
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        (0..self.shards.len())
            .map(|index| self.obs.shard(index).snapshot())
            .collect()
    }

    /// Resets the statistics of every shard, each under its shard's write
    /// lock so no in-flight serve is torn across the reset.
    pub fn reset_stats(&self) {
        for (index, shard) in self.shards.iter().enumerate() {
            let _guard = shard.write_np();
            self.obs.shard(index).reset();
        }
    }

    /// Upload revision of `doc_id` (`None` when the document is not stored).
    pub fn revision(&self, doc_id: &str) -> Option<u64> {
        self.shards[self.shard_of(doc_id)]
            .read_np()
            .store
            .get(doc_id)
            .map(|record| record.revision)
    }

    /// True when `doc_id` is stored on its home shard.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.revision(doc_id).is_some()
    }

    /// Ids of every stored document, across shards (sorted; replicas are not
    /// inventory and are not listed).
    pub fn document_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read_np().store.document_ids())
            .collect();
        ids.sort();
        ids
    }

    /// Number of stored documents, across shards (replicas not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read_np().store.len()).sum()
    }

    /// True when no shard stores any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ciphertext bytes stored, across shards (replicas not counted).
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read_np().store.stored_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn document(id: &str) -> SecureDocument {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 2,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        SecureDocumentBuilder::new(id, SecretKey::derive(b"s", "k")).build(&doc)
    }

    fn sealed_rules(expr: &str) -> ProtectedRules {
        ProtectedRules::seal(
            &RuleSet::parse(expr).unwrap(),
            &SecretKey::derive(b"s", "rules"),
        )
    }

    #[test]
    fn documents_spread_over_shards_and_serve_like_one_store() {
        let store = ShardedStore::new(4);
        assert_eq!(store.shard_count(), 4);
        assert!(store.is_empty());
        for i in 0..16 {
            store.put_document(document(&format!("doc-{i}")));
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.document_ids().len(), 16);
        assert!(store.stored_bytes() > 0);
        // At least two distinct shards hold documents (FNV spreads 16 ids).
        let occupied: Vec<usize> = (0..16)
            .map(|i| store.shard_of(&format!("doc-{i}")))
            .collect();
        assert!(occupied.iter().any(|&s| s != occupied[0]));

        let header = store.fetch_header("doc-3").unwrap();
        let (chunk, proof) = store.fetch_chunk("doc-3", 0).unwrap();
        proof.verify(&chunk, &header.merkle_root).unwrap();
        assert!(store.fetch_header("doc-99").is_err());
        assert!(store.fetch_chunk("doc-3", 9999).is_err());
    }

    #[test]
    fn missing_objects_get_typed_errors() {
        let store = ShardedStore::new(2);
        store.put_document(document("here"));
        assert!(matches!(
            store.fetch_header("gone"),
            Err(CoreError::NotFound { doc_id }) if doc_id == "gone"
        ));
        assert!(matches!(
            store.fetch_rules("here", "stranger"),
            Err(CoreError::NoRulesForSubject { doc_id, subject })
                if doc_id == "here" && subject == "stranger"
        ));
    }

    #[test]
    fn pinned_fetches_reject_a_republished_revision() {
        let store = ShardedStore::new(2);
        store.put_document(document("doc"));
        let (header, revision) = store.fetch_header_pinned("doc").unwrap();
        assert_eq!(revision, 0);
        let (chunk, proof) = store.fetch_chunk_pinned("doc", 0, revision).unwrap();
        proof.verify(&chunk, &header.merkle_root).unwrap();

        store.put_document(document("doc"));
        assert!(matches!(
            store.fetch_chunk_pinned("doc", 0, revision),
            Err(CoreError::StaleRevision {
                pinned: 0,
                current: 1,
                ..
            })
        ));
        // A fresh pin serves the new revision.
        let (_, revision) = store.fetch_header_pinned("doc").unwrap();
        assert_eq!(revision, 1);
        assert!(store.fetch_chunk_pinned("doc", 0, revision).is_ok());
    }

    #[test]
    fn per_shard_stats_merge_on_read() {
        let store = ShardedStore::new(4);
        for i in 0..8 {
            store.put_document(document(&format!("doc-{i}")));
        }
        store
            .put_rules("doc-0", "doctor", &sealed_rules("+, doctor, //patient"))
            .unwrap();

        for i in 0..8 {
            store.fetch_header(&format!("doc-{i}")).unwrap();
            store.fetch_chunk(&format!("doc-{i}"), 0).unwrap();
        }
        let blob = store.fetch_rules("doc-0", "doctor").unwrap();

        let merged = store.stats();
        assert_eq!(merged.requests, 17);
        assert_eq!(merged.chunks_served, 8);
        assert_eq!(merged.rule_blobs_served, 1);
        assert_eq!(merged.rule_bytes_served, blob.len());
        // The merge really is the sum of the per-shard counters.
        let per_shard = store.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard.iter().map(|s| s.requests).sum::<usize>(),
            merged.requests
        );
        assert_eq!(
            per_shard.iter().map(|s| s.bytes_served).sum::<usize>(),
            merged.bytes_served
        );

        store.reset_stats();
        assert_eq!(store.stats(), ServerStats::default());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.put_document(document("only"));
        assert_eq!(store.shard_of("only"), 0);
        assert!(store.fetch_header("only").is_ok());
    }

    #[test]
    fn pinned_replicas_spread_serving_over_shards() {
        let store = ShardedStore::new(8);
        store.put_document(document("hot"));
        assert_eq!(store.replica_shards("hot").len(), 1);
        store.pin_replicas("hot", 4).unwrap();
        let serving = store.replica_shards("hot");
        assert_eq!(serving.len(), 4);
        assert_eq!(serving[0], store.shard_of("hot"));

        let header = store.fetch_header("hot").unwrap();
        for index in 0..header.chunk_count {
            let (chunk, proof) = store.fetch_chunk("hot", index).unwrap();
            proof.verify(&chunk, &header.merkle_root).unwrap();
        }
        // More than one shard accounted traffic for the single document.
        let active = store
            .shard_stats()
            .iter()
            .filter(|s| s.requests > 0)
            .count();
        assert!(active > 1, "replication must spread serving, got {active}");
        // The spread is deterministic: chunk index picks the copy.
        let first_round = store.shard_stats();
        store.reset_stats();
        store.fetch_header("hot").unwrap();
        for index in 0..header.chunk_count {
            store.fetch_chunk("hot", index).unwrap();
        }
        assert_eq!(store.shard_stats(), first_round);

        // Replicas are not inventory.
        assert_eq!(store.len(), 1);
        assert_eq!(store.document_ids(), vec!["hot"]);

        assert!(matches!(
            store.pin_replicas("gone", 4),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn session_salts_spread_identical_header_fetches_over_replicas() {
        let store = ShardedStore::new(8);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        let serving = store.replica_shards("hot");
        assert_eq!(serving.len(), 4);

        // Unsalted: every identical header fetch queues on the same copy.
        for _ in 0..16 {
            store.fetch_header_pinned("hot").unwrap();
        }
        let unsalted = store
            .shard_stats()
            .iter()
            .filter(|s| s.requests > 0)
            .count();
        assert_eq!(unsalted, 1, "salt 0 always routes to one copy");

        // Salted per session: the same request spreads over every copy.
        store.reset_stats();
        for salt in 0..16u64 {
            store.fetch_header_pinned_salted("hot", salt).unwrap();
        }
        let stats = store.shard_stats();
        let active: Vec<usize> = serving.iter().map(|&shard| stats[shard].requests).collect();
        assert!(
            active.iter().all(|&requests| requests > 0),
            "16 salts over 4 copies must hit every copy, got {active:?}"
        );
        assert_eq!(active.iter().sum::<usize>(), 16);
    }

    #[test]
    fn republish_invalidates_replicas_and_repins_the_new_revision() {
        let store = ShardedStore::new(4);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        assert_eq!(store.replica_shards("hot").len(), 4);

        store.put_document(document("hot"));
        assert_eq!(store.revision("hot"), Some(1));
        // Pinned documents re-replicate the new revision...
        assert_eq!(store.replica_shards("hot").len(), 4);
        // ...and every copy serves it: a pinned fetch at the new revision
        // succeeds whichever copy the route picks.
        for index in 0..4 {
            assert!(store.fetch_chunk_pinned("hot", index, 1).is_ok());
        }
        // The old pin is stale on every copy.
        for index in 0..4 {
            assert!(matches!(
                store.fetch_chunk_pinned("hot", index, 0),
                Err(CoreError::StaleRevision { .. })
            ));
        }
    }

    #[test]
    fn rule_blob_sync_reaches_replicas() {
        let store = ShardedStore::new(4);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        // Blobs are stored *after* replication here: the sync must reach
        // every copy, or subjects provisioned late would see NoRules on
        // fetches routed to a replica.
        let sealed = sealed_rules("+, doctor, //patient");
        let subjects: Vec<String> = (0..12).map(|i| format!("subject-{i}")).collect();
        for subject in &subjects {
            store.put_rules("hot", subject, &sealed).unwrap();
        }
        for subject in &subjects {
            assert_eq!(
                store.fetch_rules("hot", subject).unwrap()[..],
                sealed.encode()[..],
                "routed rule fetch for `{subject}` must see the synced blob"
            );
        }
        // The subject hash really routed rule traffic to more than one copy.
        let serving_shards = store
            .shard_stats()
            .iter()
            .filter(|s| s.rule_blobs_served > 0)
            .count();
        assert!(serving_shards > 1, "got {serving_shards} serving shard(s)");
    }

    #[test]
    fn hot_threshold_replicates_automatically() {
        let store = ShardedStore::new(4).with_hot_policy(HotPolicy {
            threshold: 5,
            replicas: 3,
        });
        assert_eq!(
            store.hot_policy(),
            Some(HotPolicy {
                threshold: 5,
                replicas: 3
            })
        );
        store.put_document(document("warm"));
        for _ in 0..4 {
            store.fetch_header("warm").unwrap();
        }
        assert_eq!(store.replica_shards("warm").len(), 1, "below threshold");
        store.fetch_header("warm").unwrap();
        assert_eq!(
            store.replica_shards("warm").len(),
            3,
            "crossing the threshold replicates"
        );
        // Republishing resets the count and drops the (unpinned) clones.
        store.put_document(document("warm"));
        assert_eq!(store.replica_shards("warm").len(), 1);
    }

    #[test]
    fn zero_threshold_replicates_on_the_first_serve() {
        let store = ShardedStore::new(4).with_hot_policy(HotPolicy {
            threshold: 0,
            replicas: 2,
        });
        store.put_document(document("eager"));
        store.fetch_header("eager").unwrap();
        assert_eq!(store.replica_shards("eager").len(), 2);
    }

    #[test]
    fn explicit_pins_are_not_downgraded_by_the_hot_threshold() {
        let store = ShardedStore::new(8).with_hot_policy(HotPolicy {
            threshold: 3,
            replicas: 2,
        });
        store.put_document(document("pinned"));
        store.pin_replicas("pinned", 6).unwrap();
        // Serving far past the threshold must leave the wider pin in place.
        for _ in 0..10 {
            store.fetch_header("pinned").unwrap();
        }
        assert_eq!(store.replica_shards("pinned").len(), 6);
    }
}
