//! The secure document format stored at the DSP.
//!
//! "The data are kept encrypted at the server" (§1) and the SOE "fetches the
//! appropriate encrypted XML document from the server, decrypts it, checks
//! that it has not been tampered" (§2). The format below packages the output
//! of the skip-index encoder for that purpose:
//!
//! * the plaintext (tag dictionary + token stream) is split into fixed-size
//!   **chunks**, each encrypted independently under AES-128-CTR with a
//!   deterministic per-chunk nonce — so the SOE can decrypt any chunk in
//!   isolation, which is what makes skipping possible,
//! * a **Merkle tree** over the ciphertext chunks provides tamper detection of
//!   any consumed subset of chunks; its root is authenticated by an HMAC under
//!   a key derived from the document key,
//! * a small plaintext **header** carries the identifiers, geometry and the
//!   authenticated root; the header itself is covered by the HMAC.

use std::sync::Arc;

use sdds_crypto::hmac::{hmac_sha256, verify_mac};
use sdds_crypto::merkle::{MerkleProof, MerkleTree};
use sdds_crypto::modes::{chunk_iv, ctr_apply, ctr_apply_into};
use sdds_crypto::{Aes128, CryptoError, SecretKey};
use sdds_xml::Document;

use crate::error::CoreError;
use crate::skipindex::encode::{DocumentEncoder, EncodeStats, EncoderConfig};

/// Default plaintext chunk size, chosen so that one ciphertext chunk plus its
/// Merkle proof fits comfortably in the e-gate's 1 KiB of applet RAM.
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Plaintext header of a secure document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentHeader {
    /// Document identifier (unique at the DSP).
    pub doc_id: String,
    /// Nonce from which per-chunk IVs are derived.
    pub nonce: [u8; 8],
    /// Plaintext chunk size in bytes (the last chunk may be shorter).
    pub chunk_size: u32,
    /// Number of chunks.
    pub chunk_count: u32,
    /// Total plaintext length (dictionary + tokens).
    pub plaintext_len: u64,
    /// Byte offset at which the token stream starts (end of the dictionary).
    pub tokens_start: u64,
    /// Whether nested summaries use recursive bitmap compression.
    pub recursive_bitmaps: bool,
    /// Merkle root over the ciphertext chunks.
    pub merkle_root: [u8; 32],
    /// HMAC over all the fields above, keyed by the document MAC key.
    pub mac: [u8; 32],
}

impl DocumentHeader {
    fn mac_input(&self) -> Vec<u8> {
        // alloc: startup — the header MAC is computed once per session open.
        let mut buf = Vec::with_capacity(64 + self.doc_id.len());
        buf.extend_from_slice(self.doc_id.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.nonce);
        buf.extend_from_slice(&self.chunk_size.to_le_bytes());
        buf.extend_from_slice(&self.chunk_count.to_le_bytes());
        buf.extend_from_slice(&self.plaintext_len.to_le_bytes());
        buf.extend_from_slice(&self.tokens_start.to_le_bytes());
        buf.push(u8::from(self.recursive_bitmaps));
        buf.extend_from_slice(&self.merkle_root);
        buf
    }

    /// Verifies the header authenticity under the document key.
    pub fn verify(&self, key: &SecretKey) -> Result<(), CoreError> {
        let mac_key = key.subkey("doc-mac");
        let expected = hmac_sha256(mac_key.as_bytes(), &self.mac_input());
        if verify_mac(&expected, &self.mac) {
            Ok(())
        } else {
            Err(CryptoError::IntegrityFailure {
                // alloc: cold — integrity-failure error path.
                context: format!("header of document `{}`", self.doc_id),
            }
            .into())
        }
    }

    /// Serialised size of [`DocumentHeader::encode`]'s output, without
    /// building it — the DSP accounts header bytes per serve, and computing
    /// the count keeps the serving read path allocation-free.
    pub fn encoded_len(&self) -> usize {
        // magic + version + id length prefix + id + nonce + chunk_size +
        // chunk_count + plaintext_len + tokens_start + recursive_bitmaps +
        // merkle_root + mac.
        4 + 1 + 2 + self.doc_id.len() + 8 + 4 + 4 + 8 + 8 + 1 + 32 + 32
    }

    /// Serialises the header.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SDDS");
        out.push(1); // format version
        out.extend_from_slice(&(self.doc_id.len() as u16).to_le_bytes());
        out.extend_from_slice(self.doc_id.as_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.plaintext_len.to_le_bytes());
        out.extend_from_slice(&self.tokens_start.to_le_bytes());
        out.push(u8::from(self.recursive_bitmaps));
        out.extend_from_slice(&self.merkle_root);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses a header.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: &str| CoreError::BadDocument {
            // alloc: cold — malformed header error path.
            message: format!("header: {m}"),
        };
        if bytes.len() < 7 || &bytes[..4] != b"SDDS" {
            return Err(bad("bad magic"));
        }
        if bytes[4] != 1 {
            return Err(bad("unsupported version"));
        }
        let id_len = u16::from_le_bytes([bytes[5], bytes[6]]) as usize;
        let mut pos = 7usize;
        let doc_id = String::from_utf8(
            bytes
                .get(pos..pos + id_len)
                .ok_or_else(|| bad("truncated id"))?
                // alloc: startup — the header decodes once per session open.
                .to_vec(),
        )
        .map_err(|_| bad("non UTF-8 id"))?;
        pos += id_len;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CoreError> {
            let s = bytes
                .get(*pos..*pos + n)
                .ok_or_else(|| bad("truncated header"))?;
            *pos += n;
            Ok(s)
        };
        // lint: infallible — `take(n)` returns exactly `n` bytes, so every
        // fixed-width conversion below succeeds.
        let nonce: [u8; 8] = take(&mut pos, 8)?.try_into().expect("8 bytes");
        let chunk_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")); // lint: infallible — see above
        let chunk_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")); // lint: infallible — see above
        let plaintext_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")); // lint: infallible — see above
        let tokens_start = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")); // lint: infallible — see above
        let recursive_bitmaps = take(&mut pos, 1)?[0] != 0;
        let merkle_root: [u8; 32] = take(&mut pos, 32)?.try_into().expect("32 bytes"); // lint: infallible — see above
        let mac: [u8; 32] = take(&mut pos, 32)?.try_into().expect("32 bytes"); // lint: infallible — see above
        Ok(DocumentHeader {
            doc_id,
            nonce,
            chunk_size,
            chunk_count,
            plaintext_len,
            tokens_start,
            recursive_bitmaps,
            merkle_root,
            mac,
        })
    }
}

/// A fully built secure document, ready to be uploaded to the DSP.
#[derive(Debug, Clone)]
pub struct SecureDocument {
    /// Plaintext header.
    pub header: DocumentHeader,
    /// Encrypted chunks. Each chunk sits behind an `Arc` so the DSP can
    /// serve it by bumping a refcount instead of copying ciphertext per
    /// request (the chunks are immutable once built).
    pub chunks: Vec<Arc<[u8]>>,
    /// Merkle tree over the encrypted chunks (kept by the publisher / DSP to
    /// serve proofs).
    merkle: MerkleTree,
    /// Encoding statistics (index overhead etc.).
    pub encode_stats: EncodeStats,
}

impl SecureDocument {
    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Ciphertext of chunk `index`.
    pub fn chunk(&self, index: usize) -> Option<&[u8]> {
        self.chunks.get(index).map(|c| &c[..])
    }

    /// Shared handle to the ciphertext of chunk `index` — the zero-copy
    /// serving form: the DSP hands the same allocation to every requester.
    pub fn chunk_shared(&self, index: usize) -> Option<Arc<[u8]>> {
        self.chunks.get(index).map(Arc::clone)
    }

    /// Merkle proof of chunk `index`.
    pub fn proof(&self, index: usize) -> Result<MerkleProof, CoreError> {
        Ok(self.merkle.proof(index)?)
    }

    /// Total ciphertext size (what the DSP stores for the document body).
    pub fn ciphertext_len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Serialised size of one chunk's Merkle proof.
    pub fn proof_len(&self) -> usize {
        self.merkle.proof_len()
    }

    /// Plaintext byte range covered by chunk `index`.
    pub fn chunk_range(&self, index: usize) -> (u64, u64) {
        let start = index as u64 * u64::from(self.header.chunk_size);
        let end = (start + u64::from(self.header.chunk_size)).min(self.header.plaintext_len);
        (start, end)
    }

    /// Index of the chunk containing plaintext `offset`.
    pub fn chunk_of(&self, offset: u64) -> u32 {
        (offset / u64::from(self.header.chunk_size)) as u32
    }
}

/// Expands the chunk cipher of every document encrypted under `key`: the
/// AES-128 schedule of its `doc-enc` subkey. A reader expands it once and
/// reuses it for every chunk of the document.
pub(crate) fn chunk_cipher(key: &SecretKey) -> Aes128 {
    Aes128::new(key.subkey("doc-enc").as_bytes())
}

/// Decrypts chunk `index` of the document described by `header` with its
/// expanded [`chunk_cipher`], into `plaintext` (cleared first, so one buffer
/// serves every chunk of a session).
// taint: source — re-introduces cleartext from a verified ciphertext chunk;
// callable only on the card side, which holds the expanded document cipher.
pub(crate) fn decrypt_chunk_into(
    cipher: &Aes128,
    header: &DocumentHeader,
    index: u32,
    ciphertext: &[u8],
    plaintext: &mut Vec<u8>,
) {
    let iv = chunk_iv(&header.nonce, u64::from(index));
    ctr_apply_into(cipher, &iv, ciphertext, plaintext);
}

/// Decrypts one chunk given the document key and header. It derives and
/// expands the chunk cipher on every call; the SOE session expands it once
/// per document instead.
// taint: source — re-introduces cleartext from a verified ciphertext chunk;
// callable only on the card side, which holds the document key.
pub fn decrypt_chunk(
    key: &SecretKey,
    header: &DocumentHeader,
    index: u32,
    ciphertext: &[u8],
) -> Vec<u8> {
    let mut plaintext = Vec::new();
    decrypt_chunk_into(
        &chunk_cipher(key),
        header,
        index,
        ciphertext,
        &mut plaintext,
    );
    plaintext
}

/// Builder for [`SecureDocument`].
#[derive(Debug, Clone)]
pub struct SecureDocumentBuilder {
    doc_id: String,
    key: SecretKey,
    chunk_size: usize,
    encoder: EncoderConfig,
    nonce: [u8; 8],
}

impl SecureDocumentBuilder {
    /// Creates a builder for document `doc_id` encrypted under `key`.
    pub fn new(doc_id: impl Into<String>, key: SecretKey) -> Self {
        let doc_id = doc_id.into();
        // The nonce only needs to be unique per (key, document); deriving it
        // from the document id keeps the whole pipeline deterministic, which
        // the experiments rely on for reproducibility.
        let digest = sdds_crypto::merkle::digest(doc_id.as_bytes());
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&digest[..8]);
        SecureDocumentBuilder {
            doc_id,
            key,
            chunk_size: DEFAULT_CHUNK_SIZE,
            encoder: EncoderConfig::default(),
            nonce,
        }
    }

    /// Sets the plaintext chunk size.
    pub fn chunk_size(mut self, size: usize) -> Self {
        assert!(size >= 64, "chunks below 64 bytes are not supported");
        self.chunk_size = size;
        self
    }

    /// Sets the skip-index encoder configuration.
    pub fn encoder_config(mut self, config: EncoderConfig) -> Self {
        self.encoder = config;
        self
    }

    /// Encodes, chunks and encrypts `doc`.
    pub fn build(&self, doc: &Document) -> SecureDocument {
        let encoded = DocumentEncoder::new(self.encoder).encode(doc);
        let plaintext = encoded.plaintext();
        let tokens_start = encoded.dict.encoded_len() as u64;

        let cipher = chunk_cipher(&self.key);
        let mut chunks = Vec::with_capacity(plaintext.len().div_ceil(self.chunk_size).max(1));
        if plaintext.is_empty() {
            chunks.push(Arc::from(&[][..]));
        } else {
            for (index, chunk) in plaintext.chunks(self.chunk_size).enumerate() {
                let iv = chunk_iv(&self.nonce, index as u64);
                chunks.push(ctr_apply(&cipher, &iv, chunk).into());
            }
        }
        let merkle = MerkleTree::build(&chunks);

        let mut header = DocumentHeader {
            doc_id: self.doc_id.clone(),
            nonce: self.nonce,
            chunk_size: self.chunk_size as u32,
            chunk_count: chunks.len() as u32,
            plaintext_len: plaintext.len() as u64,
            tokens_start,
            recursive_bitmaps: self.encoder.recursive_bitmaps,
            merkle_root: merkle.root(),
            mac: [0u8; 32],
        };
        let mac_key = self.key.subkey("doc-mac");
        header.mac = hmac_sha256(mac_key.as_bytes(), &header.mac_input());

        SecureDocument {
            header,
            chunks,
            merkle,
            encode_stats: encoded.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipindex::decode::decode_all;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn key() -> SecretKey {
        SecretKey::derive(b"community-secret", "medical-folder")
    }

    fn sample_doc() -> Document {
        generator::hospital(
            &HospitalProfile {
                patients: 5,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    #[test]
    fn build_verify_and_decrypt_roundtrip() {
        let doc = sample_doc();
        let secure = SecureDocumentBuilder::new("folder-42", key()).build(&doc);
        assert!(secure.chunk_count() > 1);
        assert_eq!(secure.chunk_count() as u32, secure.header.chunk_count);
        secure.header.verify(&key()).unwrap();

        // Decrypt every chunk, verify its proof, reassemble the plaintext.
        let mut plaintext = Vec::new();
        for i in 0..secure.chunk_count() {
            let chunk = secure.chunk(i).unwrap();
            secure
                .proof(i)
                .unwrap()
                .verify(chunk, &secure.header.merkle_root)
                .unwrap();
            plaintext.extend(decrypt_chunk(&key(), &secure.header, i as u32, chunk));
        }
        assert_eq!(plaintext.len() as u64, secure.header.plaintext_len);
        let events = decode_all(&plaintext, secure.header.recursive_bitmaps).unwrap();
        assert_eq!(events, doc.to_events());
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let bytes = secure.header.encode();
        let back = DocumentHeader::decode(&bytes).unwrap();
        assert_eq!(back, secure.header);
        back.verify(&key()).unwrap();
        assert!(DocumentHeader::decode(&bytes[..10]).is_err());
        assert!(DocumentHeader::decode(b"XXXX123").is_err());
    }

    #[test]
    fn wrong_key_fails_header_verification() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let other = SecretKey::derive(b"other", "k");
        assert!(secure.header.verify(&other).is_err());
    }

    #[test]
    fn tampered_header_or_chunk_is_detected() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        // Tampered header field.
        let mut header = secure.header.clone();
        header.chunk_size += 1;
        assert!(header.verify(&key()).is_err());
        // Tampered chunk fails its Merkle proof.
        let mut chunk = secure.chunk(1).unwrap().to_vec();
        chunk[0] ^= 0xFF;
        assert!(secure
            .proof(1)
            .unwrap()
            .verify(&chunk, &secure.header.merkle_root)
            .is_err());
        // Swapping two chunks is detected too.
        assert!(secure
            .proof(0)
            .unwrap()
            .verify(secure.chunk(1).unwrap(), &secure.header.merkle_root)
            .is_err());
    }

    #[test]
    fn chunk_geometry_helpers() {
        let secure = SecureDocumentBuilder::new("doc-1", key())
            .chunk_size(256)
            .build(&sample_doc());
        assert_eq!(secure.header.chunk_size, 256);
        let (start, end) = secure.chunk_range(0);
        assert_eq!(start, 0);
        assert_eq!(end, 256);
        assert_eq!(secure.chunk_of(0), 0);
        assert_eq!(secure.chunk_of(255), 0);
        assert_eq!(secure.chunk_of(256), 1);
        let last = secure.chunk_count() - 1;
        let (ls, le) = secure.chunk_range(last);
        assert!(le <= secure.header.plaintext_len);
        assert!(ls < le);
        assert!(secure.ciphertext_len() as u64 >= secure.header.plaintext_len);
        assert!(secure.proof_len() > 0);
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let doc = sample_doc();
        let a = SecureDocumentBuilder::new("doc-1", key()).build(&doc);
        let b = SecureDocumentBuilder::new("doc-1", SecretKey::derive(b"other", "k")).build(&doc);
        assert_ne!(a.chunk(0).unwrap(), b.chunk(0).unwrap());
        // Same key and id are deterministic (reproducible experiments).
        let c = SecureDocumentBuilder::new("doc-1", key()).build(&doc);
        assert_eq!(a.chunk(0).unwrap(), c.chunk(0).unwrap());
        assert_eq!(a.header, c.header);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn tiny_chunk_sizes_are_rejected() {
        let _ = SecureDocumentBuilder::new("doc-1", key()).chunk_size(16);
    }
}
