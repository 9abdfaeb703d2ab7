//! Block-cipher modes of operation used by the secure document format.
//!
//! Documents are encrypted **chunk by chunk** so that the SOE can skip whole
//! chunks guided by the skip index: each chunk is an independent ciphertext
//! with its own IV (CBC) or counter base (CTR). PKCS#7 padding is used for
//! CBC; CTR is length-preserving.

use crate::aes::{Aes128, BLOCK_SIZE};
use crate::error::CryptoError;

/// Encrypts `plaintext` with AES-128-CBC and PKCS#7 padding.
// taint: sink — cleartext enters, PKCS#7-padded CBC ciphertext leaves.
pub fn cbc_encrypt(cipher: &Aes128, iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let padded = pkcs7_pad(plaintext);
    let mut out = Vec::with_capacity(padded.len());
    let mut prev = *iv;
    for chunk in padded.chunks(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= *p;
        }
        cipher.encrypt_block(&mut block);
        out.extend_from_slice(&block);
        prev = block;
    }
    out
}

/// Decrypts an AES-128-CBC ciphertext and strips PKCS#7 padding.
// taint: source — ciphertext in, cleartext out; SOE-side only.
pub fn cbc_decrypt(
    cipher: &Aes128,
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CryptoError::BadCiphertextLength {
            len: ciphertext.len(),
        });
    }
    // alloc: startup — CBC runs for key unwrap at provisioning only.
    let mut out = Vec::with_capacity(ciphertext.len());
    let mut prev = *iv;
    for chunk in ciphertext.chunks(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        let saved = block;
        cipher.decrypt_block(&mut block);
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= *p;
        }
        out.extend_from_slice(&block);
        prev = saved;
    }
    pkcs7_unpad(&mut out)?;
    Ok(out)
}

/// Encrypts or decrypts `data` with AES-128-CTR (the operation is symmetric).
/// The 16-byte `nonce` is the initial counter block; the counter occupies the
/// last 8 bytes (big-endian) and is incremented per block.
pub fn ctr_apply(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    ctr_apply_into(cipher, nonce, data, &mut out);
    out
}

/// [`ctr_apply`] into a caller-owned buffer: `out` is cleared and refilled,
/// so a buffer reused across calls stops allocating once it has grown to the
/// largest input.
pub fn ctr_apply_into(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(data);
    let mut counter_block = *nonce;
    // lint: infallible — an 8-byte slice of a `[u8; BLOCK_SIZE]` block.
    let mut counter = u64::from_be_bytes(counter_block[8..16].try_into().expect("8 bytes"));
    for chunk in out.chunks_mut(BLOCK_SIZE) {
        counter_block[8..16].copy_from_slice(&counter.to_be_bytes());
        let mut keystream = counter_block;
        cipher.encrypt_block(&mut keystream);
        for (b, k) in chunk.iter_mut().zip(keystream) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Applies PKCS#7 padding to a full multiple of the block size. An empty input
/// becomes one full block of padding, so every plaintext is recoverable.
pub fn pkcs7_pad(data: &[u8]) -> Vec<u8> {
    let pad = BLOCK_SIZE - (data.len() % BLOCK_SIZE);
    let mut out = Vec::with_capacity(data.len() + pad);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad as u8, pad));
    out
}

/// Strips PKCS#7 padding in place.
pub fn pkcs7_unpad(data: &mut Vec<u8>) -> Result<(), CryptoError> {
    let &last = data.last().ok_or(CryptoError::BadPadding)?;
    let pad = last as usize;
    if pad == 0 || pad > BLOCK_SIZE || pad > data.len() {
        return Err(CryptoError::BadPadding);
    }
    if !data[data.len() - pad..].iter().all(|&b| b == last) {
        return Err(CryptoError::BadPadding);
    }
    data.truncate(data.len() - pad);
    Ok(())
}

/// Derives a deterministic per-chunk IV/nonce from a document nonce and a chunk
/// index. Deterministic IVs keep the secure-document format self-describing
/// (the SOE can decrypt any chunk knowing only the document key, the document
/// nonce and the chunk index found in the skip index).
pub fn chunk_iv(document_nonce: &[u8; 8], chunk_index: u64) -> [u8; BLOCK_SIZE] {
    let mut iv = [0u8; BLOCK_SIZE];
    iv[..8].copy_from_slice(document_nonce);
    iv[8..].copy_from_slice(&chunk_index.to_be_bytes());
    iv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> Aes128 {
        Aes128::new(&[0x42; 16])
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let c = cipher();
        let iv = [9u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = cbc_encrypt(&c, &iv, &plain);
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > plain.len().saturating_sub(1));
            let back = cbc_decrypt(&c, &iv, &ct).unwrap();
            assert_eq!(back, plain, "roundtrip failed for length {len}");
        }
    }

    #[test]
    fn cbc_detects_truncated_ciphertext() {
        let c = cipher();
        let iv = [0u8; 16];
        let ct = cbc_encrypt(&c, &iv, b"hello world, this is a test");
        assert!(matches!(
            cbc_decrypt(&c, &iv, &ct[..ct.len() - 1]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
        assert!(matches!(
            cbc_decrypt(&c, &iv, &[]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
    }

    #[test]
    fn cbc_wrong_key_or_iv_fails_or_garbles() {
        let c = cipher();
        let other = Aes128::new(&[0x43; 16]);
        let iv = [1u8; 16];
        let plain = b"sensitive medical record".to_vec();
        let ct = cbc_encrypt(&c, &iv, &plain);
        // Wrong key: padding check almost certainly fails; if it does not, the
        // plaintext must still differ.
        match cbc_decrypt(&other, &iv, &ct) {
            Err(CryptoError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, plain),
            Err(e) => panic!("unexpected error {e}"),
        }
        // Wrong IV only garbles the first block.
        let wrong_iv = [2u8; 16];
        if let Ok(garbled) = cbc_decrypt(&c, &wrong_iv, &ct) {
            assert_ne!(garbled, plain);
        }
    }

    #[test]
    fn ctr_roundtrip_and_symmetry() {
        let c = cipher();
        let nonce = chunk_iv(&[1, 2, 3, 4, 5, 6, 7, 8], 3);
        let plain: Vec<u8> = (0..100).collect();
        let ct = ctr_apply(&c, &nonce, &plain);
        assert_eq!(ct.len(), plain.len());
        assert_ne!(ct, plain);
        let back = ctr_apply(&c, &nonce, &ct);
        assert_eq!(back, plain);
    }

    #[test]
    fn ctr_different_chunks_use_different_keystreams() {
        let c = cipher();
        let plain = vec![0u8; 64];
        let ct0 = ctr_apply(&c, &chunk_iv(&[0; 8], 0), &plain);
        let ct1 = ctr_apply(&c, &chunk_iv(&[0; 8], 1), &plain);
        assert_ne!(ct0, ct1);
    }

    /// NIST SP 800-38A Appendix F key and plaintext (shared by F.2 and F.5).
    const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
    const SP800_38A_PLAIN: &str = "6bc1bee22e409f96e93d7e117393172a\
                                   ae2d8a571e03ac9c9eb76fac45af8e51\
                                   30c81c46a35ce411e5fbc1191a0a52ef\
                                   f69f2445df4f9b17ad2b417be66c3710";
    const SP800_38A_CBC: &str = "7649abac8119b246cee98e9b12e9197d\
                                 5086cb9b507219ee95db113a917678b2\
                                 73bed6b8e3c1743b7116e69e22229516\
                                 3ff1caa1681fac09120eca307586e1a7";

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; BLOCK_SIZE] {
        unhex(s).try_into().unwrap()
    }

    fn sp800_38a_cipher() -> Aes128 {
        Aes128::new(&block(SP800_38A_KEY))
    }

    #[test]
    fn ctr_matches_sp800_38a_f51() {
        // F.5.1 CTR-AES128.Encrypt; F.5.2 is the same operation reversed.
        let c = sp800_38a_cipher();
        let counter = block("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let plain = unhex(SP800_38A_PLAIN);
        let expected = unhex(
            "874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee",
        );
        assert_eq!(ctr_apply(&c, &counter, &plain), expected);
        assert_eq!(ctr_apply(&c, &counter, &expected), plain);
        // A reused buffer gives the same bytes, including on a shorter input.
        let mut out = Vec::new();
        ctr_apply_into(&c, &counter, &plain, &mut out);
        assert_eq!(out, expected);
        ctr_apply_into(&c, &counter, &plain[..20], &mut out);
        assert_eq!(out, expected[..20]);
    }

    #[test]
    fn cbc_encrypt_matches_sp800_38a_f21() {
        let c = sp800_38a_cipher();
        let iv = block("000102030405060708090a0b0c0d0e0f");
        let ct = cbc_encrypt(&c, &iv, &unhex(SP800_38A_PLAIN));
        // Four vector blocks, then one block of PKCS#7 padding.
        assert_eq!(ct.len(), 5 * BLOCK_SIZE);
        assert_eq!(ct[..4 * BLOCK_SIZE], unhex(SP800_38A_CBC));
    }

    #[test]
    fn cbc_decrypt_matches_sp800_38a_f22() {
        let c = sp800_38a_cipher();
        let iv = block("000102030405060708090a0b0c0d0e0f");
        let mut ct = unhex(SP800_38A_CBC);
        // The padding block chains off the last vector block: E(C4 ^ 0x10..).
        let mut pad: [u8; BLOCK_SIZE] = ct[3 * BLOCK_SIZE..].try_into().unwrap();
        for b in pad.iter_mut() {
            *b ^= BLOCK_SIZE as u8;
        }
        c.encrypt_block(&mut pad);
        ct.extend_from_slice(&pad);
        assert_eq!(cbc_decrypt(&c, &iv, &ct).unwrap(), unhex(SP800_38A_PLAIN));
    }

    #[test]
    fn pkcs7_pad_unpad_edge_cases() {
        assert_eq!(pkcs7_pad(b"").len(), 16);
        assert_eq!(pkcs7_pad(&[0u8; 16]).len(), 32);
        let mut v = pkcs7_pad(b"abc");
        pkcs7_unpad(&mut v).unwrap();
        assert_eq!(v, b"abc");

        let mut bad = vec![1u8, 2, 3, 0];
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad = vec![5u8, 5, 5, 5]; // claims 5 bytes of padding in a 4-byte buffer
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad: Vec<u8> = vec![];
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad = vec![2u8, 3u8, 2u8, 3u8]; // inconsistent padding bytes
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
    }

    #[test]
    fn chunk_iv_is_unique_per_chunk() {
        let a = chunk_iv(&[7; 8], 0);
        let b = chunk_iv(&[7; 8], 1);
        let c = chunk_iv(&[8; 8], 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[..8], [7; 8]);
    }
}
