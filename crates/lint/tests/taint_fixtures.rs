//! Planted-leak fixtures for the trust-boundary taint analyzer.
//!
//! Each fixture is a tiny workspace (a `TrustConfig` plus in-memory source
//! files) with one deliberate leak of a known class; the test asserts the
//! analyzer reports it with the expected rule at the expected `file:line`.
//! The clean fixtures at the bottom guard against false positives on the
//! patterns the real workspace relies on (ciphertext carriers, byte-count
//! verbs, associated types, test-only key usage, annotated boundaries).

use sdds_lint::taint::{analyze, SourceFile, TrustConfig};
use sdds_lint::{Rule, Violation};

/// A minimal trust model mirroring the real `trust.toml` shape.
const CONFIG: &str = r#"
[tiers]
secret = ["SecretKey"]
plaintext = ["Document", "Event"]
ciphertext = ["SecureDocument", "StreamItem"]

[scopes]
dsp = ["dsp/src"]
obs = ["obs/src"]

[annotations]
boundary_verbs = ["encrypt", "decrypt", "seal", "wrap", "unwrap_key", "derive"]
label_calls = ["counter_with", "gauge_with", "histogram_with"]
"#;

fn config() -> TrustConfig {
    TrustConfig::parse(CONFIG).expect("fixture config parses")
}

fn file(path: &str, contents: &str) -> SourceFile {
    SourceFile {
        path: path.to_owned(),
        contents: contents.to_owned(),
    }
}

fn run(files: &[SourceFile]) -> Vec<Violation> {
    analyze(&config(), files)
}

/// Asserts at least one violation of `rule` at `file:line` (and echoes the
/// whole report on failure so the planted leak is easy to locate).
#[track_caller]
fn assert_caught(violations: &[Violation], rule: Rule, path: &str, line: usize) {
    let caught = violations
        .iter()
        .any(|v| v.rule == rule && v.file.to_string_lossy() == path && v.line == line);
    assert!(
        caught,
        "expected a {} at {path}:{line}, got: {violations:#?}",
        rule.name()
    );
}

// ---------------------------------------------------------------- leaks --

#[test]
fn leak_1_plaintext_field_in_dsp_struct_is_caught() {
    let v = run(&[file(
        "dsp/src/store.rs",
        "pub struct Cache {\n    last: Document,\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDsp, "dsp/src/store.rs", 1);
    let msg = &v.first().expect("caught above").message;
    assert!(
        msg.contains("Document") && msg.contains("dsp/src/store.rs:2"),
        "the report should name the plaintext field and its line: {msg}"
    );
}

#[test]
fn leak_2_secret_in_dsp_fn_signature_is_caught() {
    let v = run(&[file(
        "dsp/src/server.rs",
        "pub fn serve(key: &SecretKey) -> usize {\n    0\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDsp, "dsp/src/server.rs", 1);
}

#[test]
fn leak_3_secret_reexport_from_dsp_is_caught() {
    let v = run(&[file("dsp/src/lib.rs", "pub use sdds_crypto::SecretKey;\n")]);
    assert_caught(&v, Rule::TaintDsp, "dsp/src/lib.rs", 1);
}

#[test]
fn leak_4_boundary_verb_fn_inside_dsp_is_caught() {
    // Even with ciphertext-only types, a DSP fn that encrypts is a breach:
    // encryption implies the key is present on the untrusted server.
    let v = run(&[file(
        "dsp/src/fanout.rs",
        "// taint: sink — annotated, but in the wrong place entirely\n\
         pub fn encrypt_item(item: &StreamItem) -> Vec<u8> {\n    vec![]\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDsp, "dsp/src/fanout.rs", 2);
}

#[test]
fn leak_5_transitive_secret_holder_in_dsp_is_caught_with_provenance() {
    // KeyHolder is never tiered explicitly: it becomes secret because it
    // embeds SecretKey, and the DSP field that embeds *it* leaks.
    let v = run(&[
        file(
            "core/src/holder.rs",
            "pub struct KeyHolder {\n    key: SecretKey,\n}\n",
        ),
        file(
            "dsp/src/shard.rs",
            "pub struct Shard {\n    holder: KeyHolder,\n}\n",
        ),
    ]);
    assert_caught(&v, Rule::TaintDsp, "dsp/src/shard.rs", 1);
    assert!(
        v.iter().any(|x| {
            x.rule == Rule::TaintDsp
                && x.message.contains("SecretKey")
                && x.message.contains("core/src/holder.rs")
        }),
        "provenance should name the embedded secret and its field site: {v:#?}"
    );
}

#[test]
fn leak_6_derive_debug_on_secret_type_is_caught() {
    let v = run(&[file(
        "crypto/src/keys.rs",
        "#[derive(Debug, Clone)]\npub struct SecretKey {\n    bytes: [u8; 16],\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDebug, "crypto/src/keys.rs", 2);
}

#[test]
fn leak_7_display_impl_on_secret_type_is_caught() {
    let v = run(&[file(
        "crypto/src/keys.rs",
        "pub struct SecretKey {\n    bytes: [u8; 16],\n}\n\n\
         impl std::fmt::Display for SecretKey {\n\
         \u{20}   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
         \u{20}       write!(f, \"{:x?}\", self.bytes)\n    }\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDebug, "crypto/src/keys.rs", 5);
}

#[test]
fn leak_8_unannotated_byte_escape_on_secret_type_is_caught() {
    let v = run(&[file(
        "crypto/src/keys.rs",
        "pub struct SecretKey {\n    bytes: [u8; 16],\n}\n\n\
         impl SecretKey {\n\
         \u{20}   pub fn raw(&self) -> &[u8; 16] {\n        &self.bytes\n    }\n}\n",
    )]);
    assert_caught(&v, Rule::TaintDebug, "crypto/src/keys.rs", 6);
}

#[test]
fn leak_9_secret_on_metric_label_line_is_caught() {
    let v = run(&[file(
        "core/src/engine.rs",
        "pub fn record(obs: &Obs) {\n\
         \u{20}   obs.counter_with(\"evals\", &[(\"key\", SecretKey::label())]);\n}\n",
    )]);
    assert_caught(&v, Rule::TaintObs, "core/src/engine.rs", 2);
}

#[test]
fn leak_10_plaintext_in_obs_signature_is_caught() {
    let v = run(&[file(
        "obs/src/recorder.rs",
        "pub fn record_event(event: &Event) {\n}\n",
    )]);
    assert_caught(&v, Rule::TaintObs, "obs/src/recorder.rs", 1);
}

#[test]
fn leak_11_unannotated_decrypt_fn_is_caught() {
    let v = run(&[file(
        "crypto/src/modes.rs",
        "pub fn cbc_decrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> {\n    vec![]\n}\n",
    )]);
    assert_caught(&v, Rule::TaintAnnotation, "crypto/src/modes.rs", 1);
}

#[test]
fn leak_12_sink_returning_plaintext_is_inconsistent() {
    // A "sink" whose return type is cleartext contradicts its own claim.
    let v = run(&[file(
        "crypto/src/modes.rs",
        "// taint: sink — claims to encrypt\n\
         pub fn cbc_encrypt(key: &SecretKey, doc: &Document) -> Document {\n    doc.clone()\n}\n",
    )]);
    assert_caught(&v, Rule::TaintAnnotation, "crypto/src/modes.rs", 2);
}

#[test]
fn leak_13_malformed_annotation_without_reason_is_caught() {
    let v = run(&[file(
        "crypto/src/modes.rs",
        "// taint: source\n\
         pub fn cbc_decrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> {\n    vec![]\n}\n",
    )]);
    assert_caught(&v, Rule::TaintAnnotation, "crypto/src/modes.rs", 1);
}

#[test]
fn leak_14_expanded_aes_schedule_in_dsp_type_is_caught() {
    // The SOE session keeps an expanded `Aes128` schedule for its whole
    // life. Checked against the real `trust.toml`, which tiers `Aes128` as
    // secret: a DSP type holding one directly, or holding such a session,
    // must be flagged.
    let real = TrustConfig::parse(include_str!("../trust.toml")).expect("trust.toml parses");
    let v = analyze(
        &real,
        &[
            file(
                "crates/core/src/engine.rs",
                "pub struct SecureEvaluationSession {\n    cipher: Aes128,\n}\n",
            ),
            file(
                "crates/dsp/src/store.rs",
                "pub struct ChunkCache {\n    cipher: Aes128,\n}\n\n\
                 pub struct SessionTable {\n    live: Vec<SecureEvaluationSession>,\n}\n",
            ),
        ],
    );
    assert_caught(&v, Rule::TaintDsp, "crates/dsp/src/store.rs", 1);
    assert_caught(&v, Rule::TaintDsp, "crates/dsp/src/store.rs", 5);
    assert!(
        v.iter().any(|x| x.line == 5
            && x.message.contains("Aes128")
            && x.message.contains("crates/core/src/engine.rs")),
        "provenance should name the embedded schedule and its field site: {v:#?}"
    );
    assert!(
        !v.iter()
            .any(|x| x.file.to_string_lossy() == "crates/core/src/engine.rs"),
        "the SOE side may hold the schedule: {v:#?}"
    );
}

// ------------------------------------------------------- false positives --

#[test]
fn clean_ciphertext_carrier_in_dsp_is_allowed() {
    // The real shape of the DSP: ciphertext types in signatures and fields,
    // including a ciphertext type that (per config) stops propagation.
    let v = run(&[file(
        "dsp/src/store.rs",
        "pub struct Store {\n    items: Vec<StreamItem>,\n}\n\n\
         impl Store {\n\
         \u{20}   pub fn get(&self, i: usize) -> &SecureDocument {\n\
         \u{20}       &self.items[i].document\n    }\n}\n",
    )]);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_byte_count_verb_fn_in_dsp_is_exempt() {
    // `record_decrypt(bytes: usize)` carries a boundary verb but touches no
    // tiered type and no raw bytes: it counts, it does not decrypt.
    let v = run(&[file(
        "dsp/src/obs.rs",
        "pub fn record_decrypt(&mut self, bytes: usize) {\n}\n",
    )]);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_associated_event_type_in_dsp_is_not_the_plaintext_event() {
    let v = run(&[file(
        "dsp/src/actors.rs",
        "pub fn on_event<A: Actor>(a: &mut A, e: A::Event) -> Self::Event {\n}\n",
    )]);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_test_code_in_dsp_may_hold_keys() {
    let v = run(&[file(
        "dsp/src/fanout.rs",
        "pub struct FanOut {\n    n: usize,\n}\n\n\
         #[cfg(test)]\nmod tests {\n\
         \u{20}   use sdds_crypto::SecretKey;\n\n\
         \u{20}   fn item(key: &SecretKey) -> usize {\n        16\n    }\n}\n",
    )]);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_annotated_boundaries_and_redactions_pass() {
    let v = run(&[file(
        "crypto/src/keys.rs",
        "pub struct SecretKey {\n    bytes: [u8; 16],\n}\n\n\
         // taint: redacted — prints a placeholder, never the bytes.\n\
         impl std::fmt::Debug for SecretKey {\n\
         \u{20}   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
         \u{20}       f.write_str(\"SecretKey(<redacted>)\")\n    }\n}\n\n\
         // taint: source — ciphertext in, cleartext out; SOE-side only.\n\
         pub fn cbc_decrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> {\n    vec![]\n}\n\n\
         // taint: sink — cleartext in, ciphertext out.\n\
         pub fn cbc_encrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> {\n    vec![]\n}\n",
    )]);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_annotated_type_tier_claim_overrides_propagation() {
    // A wrapper that would inherit secret-tier can claim ciphertext at its
    // declaration — a reviewed assertion that the key is encrypted away.
    let v = run(&[
        file(
            "core/src/wrap.rs",
            "// taint: ciphertext — the key is AES-wrapped before storage.\n\
             pub struct WrappedKey {\n    sealed: Vec<u8>,\n    src: SecretKey,\n}\n",
        ),
        file(
            "dsp/src/store.rs",
            "pub struct Store {\n    keys: Vec<WrappedKey>,\n}\n",
        ),
    ]);
    assert!(v.is_empty(), "{v:#?}");
}
