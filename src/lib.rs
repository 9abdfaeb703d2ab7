//! # sdds — safe data sharing on smart devices, behind one facade
//!
//! Rust reproduction of Bouganim et al., *Safe Data Sharing and Data
//! Dissemination on Smart Devices* (SIGMOD 2005): access-control rules are
//! evaluated **inside a smart-card SOE** over **streaming, encrypted** XML,
//! so rights can change per user at any time without re-encrypting or
//! redistributing the documents.
//!
//! This crate is the application-facing API — the paper's §3 proxy promise of
//! "an XML API independent of the underlying protocols (JDBC, APDU)" made
//! concrete:
//!
//! * [`Publisher`] — the trusted side of a community: owns the master secrets
//!   and the policy, encrypts documents onto the untrusted sharded
//!   [`DspService`], keeps the protected per-subject rule blobs in sync,
//! * [`Client`] — one user's terminal + card, built by [`Client::builder`]
//!   (PKI, card profile, service handle) and provisioned against a publisher;
//!   pulls views through [`Client::authorized_view`] (full APDU card path) or
//!   [`Client::open_stream`] (incremental [`ViewStream`] event iterator),
//! * [`SddsError`] — the one error type of the facade,
//! * [`apps`] — the paper's two demo applications (collaborative community,
//!   selective dissemination), built entirely on the facade.
//!
//! There is exactly **one** serving path underneath, whatever the deployment
//! size: the sharded, `Sync` [`DspService`]. A single-user demo runs it with
//! one shard; the E10 multi-client experiment runs the very same path with 16
//! shards and a session scheduler — and the views are byte-identical
//! (`tests/facade_equivalence.rs`).
//!
//! ```
//! use sdds::{Client, Publisher, RuleSet, Document, Sign};
//!
//! # fn main() -> Result<(), sdds::SddsError> {
//! let rules = RuleSet::parse("+, parent, /family\n-, parent, //ssn")?;
//! let mut publisher = Publisher::new(b"family-secret", rules);
//! let document = Document::parse("<family><agenda/><ssn>42</ssn></family>")?;
//! publisher.publish("agenda", &document)?;
//!
//! let parent = Client::builder("parent").provision(&publisher)?;
//! let view = parent.authorized_view("agenda")?;
//! assert!(view.contains("<agenda"));
//! assert!(!view.contains("ssn"));
//!
//! // A policy change ships a new protected rule set — the document stays put.
//! publisher.grant("teen", Sign::Permit, "//agenda")?;
//! let teen = Client::builder("teen").provision(&publisher)?;
//! assert!(teen.authorized_view("agenda")?.contains("<agenda"));
//! # Ok(())
//! # }
//! ```
//!
//! The workspace crates remain available (re-exported below) for anything the
//! facade does not cover: the raw SOE engine, the card emulator, the crypto
//! substrate, the benches.

#![forbid(unsafe_code)]

pub mod apps;
mod client;
mod error;
mod stream;

pub use client::{Client, ClientBuilder, PublishReceipt, Publisher, PublisherBuilder};
pub use error::SddsError;
pub use stream::ViewStream;

// The most common leaf types, at the root so simple applications import only
// `sdds::*`.
pub use sdds_card::{CardProfile, CostModel};
pub use sdds_core::conflict::AccessPolicy;
pub use sdds_core::rule::{RuleSet, Sign, Subject};
pub use sdds_dsp::service::SessionScheduler;
pub use sdds_dsp::DspService;
pub use sdds_obs::{FlightRecorder, ObsSnapshot};
pub use sdds_proxy::{CardSession, DisseminationChannel, SimulatedPki, Terminal};
pub use sdds_xml::{Document, Event};

// Whole-crate re-exports for advanced use.
pub use sdds_card as card;
pub use sdds_core as core;
pub use sdds_crypto as crypto;
pub use sdds_dsp as dsp;
pub use sdds_obs as obs;
pub use sdds_proxy as proxy;
pub use sdds_xml as xml;
pub use sdds_xpath as xpath;
