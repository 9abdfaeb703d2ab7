//! Cryptographic substrate for the SDDS Secure Operating Environment.
//!
//! The paper's architecture keeps documents and access rules **encrypted** at
//! the untrusted Document Service Provider and decrypts + integrity-checks them
//! inside the SOE (§2.1). Real smart cards do this with an on-card crypto
//! co-processor; this crate provides functionally equivalent primitives,
//! implemented from scratch so that the byte-level cost accounting of the cost
//! model is exact and so that the SOE emulator has no hidden dependency:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), table-driven, with both key
//!   schedules expanded once per [`Aes128`],
//! * [`modes`] — CBC and CTR modes over AES, with per-chunk IVs so that the
//!   skip index can jump over encrypted regions without breaking decryption,
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA256 (RFC 2104),
//! * [`merkle`] — a Merkle tree over document chunks, supporting verification
//!   of any subset of chunks (needed because the SOE *skips* chunks and must
//!   still detect tampering of the ones it consumes),
//! * [`keys`] — key material, a deterministic key-derivation helper and the
//!   key ring stored in the SOE's secure stable memory.
//!
//! **Security note.** These implementations favour clarity and portability and
//! are not hardened against side channels; they are a faithful functional
//! substitute for the card's crypto hardware within a research prototype.
//! In particular, AES runs on T-table lookups indexed by key- and
//! state-dependent bytes, so its timing varies with the cache and is not
//! constant-time. That is acceptable for the paper's threat model: the
//! adversary is the DSP, which only stores and serves ciphertext and never
//! runs code on the machine that decrypts, so it has no cache to probe. A
//! real card does not run this code at all: it decrypts with its crypto
//! coprocessor, and this crate stands in for that coprocessor on the host.

#![forbid(unsafe_code)]

pub mod aes;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod modes;
pub mod sha256;

pub use aes::Aes128;
pub use error::CryptoError;
pub use keys::{KeyId, KeyRing, SecretKey};
pub use merkle::MerkleTree;
