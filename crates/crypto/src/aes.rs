//! AES-128 block cipher (FIPS-197), table-driven in both directions.
//!
//! The state is held as four big-endian column words. Encryption folds
//! `SubBytes`, `ShiftRows` and `MixColumns` of each full round into four
//! lookups per column in the T-tables `TE[0..4]`; the last round, which has
//! no `MixColumns`, goes through the S-box alone. Decryption runs the
//! *equivalent inverse cipher* of FIPS-197 §5.3.5 with the `TD[0..4]` tables:
//! its round keys are the encryption round keys in reverse order, with the
//! inner nine passed through `InvMixColumns` once, in [`Aes128::new`].
//!
//! Every table — the S-box, its inverse and the eight T-tables — is built by
//! `const fn` at compile time from the field arithmetic of GF(2^8), so no
//! table is typed in by hand and nothing is initialised at run time.
//!
//! Table lookups are indexed by secret state bytes, so their timing depends
//! on the cache; see the security note in the crate docs for why this is
//! acceptable here.

/// Block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// Key size in bytes (AES-128).
pub const KEY_SIZE: usize = 16;

const ROUNDS: usize = 10;
/// Words in an expanded schedule: four per round key.
const SCHEDULE_WORDS: usize = 4 * (ROUNDS + 1);

/// Multiplies by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1B } else { 0 }
}

/// Multiplies two elements of GF(2^8) modulo the AES polynomial.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// The S-box: the multiplicative inverse in GF(2^8) (0 maps to 0) followed
/// by the affine transformation of FIPS-197 §5.1.1.
const fn build_sbox() -> [u8; 256] {
    // The powers of the generator 3 run through every non-zero element once,
    // so log/antilog tables give each inverse: (3^i)^-1 = 3^(255-i).
    let mut exp = [0u8; 255];
    let mut log = [0u8; 256];
    let mut x = 1u8;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        log[x as usize] = i as u8;
        x ^= xtime(x);
        i += 1;
    }
    let mut sbox = [0u8; 256];
    let mut a = 0;
    while a < 256 {
        let inv = if a == 0 {
            0
        } else {
            exp[(255 - log[a] as usize) % 255]
        };
        sbox[a] = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        a += 1;
    }
    sbox
}

const fn invert(table: &[u8; 256]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[table[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Four T-tables for one direction. `table[0][x]` is the column that
/// `box[x]` in row 0 contributes after (Inv)MixColumns with coefficients
/// `coef` (big-endian: row 0 in the top byte); tables 1–3 are its byte
/// rotations for rows 1–3.
const fn build_t_tables(sbox: &[u8; 256], coef: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let word = u32::from_be_bytes([
            gf_mul(s, coef[0]),
            gf_mul(s, coef[1]),
            gf_mul(s, coef[2]),
            gf_mul(s, coef[3]),
        ]);
        t[0][x] = word;
        t[1][x] = word.rotate_right(8);
        t[2][x] = word.rotate_right(16);
        t[3][x] = word.rotate_right(24);
        x += 1;
    }
    t
}

const SBOX: [u8; 256] = build_sbox();
const INV_SBOX: [u8; 256] = invert(&SBOX);
/// `SubBytes` + `MixColumns` (column coefficients 2, 1, 1, 3).
static TE: [[u32; 256]; 4] = build_t_tables(&SBOX, [2, 1, 1, 3]);
/// `InvSubBytes` + `InvMixColumns` (column coefficients 14, 9, 13, 11).
static TD: [[u32; 256]; 4] = build_t_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Byte `n` of `w`, counting from the most significant (row 0).
#[inline(always)]
fn byte(w: u32, n: u32) -> usize {
    usize::from((w >> (24 - 8 * n)) as u8)
}

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[byte(w, 0)],
        SBOX[byte(w, 1)],
        SBOX[byte(w, 2)],
        SBOX[byte(w, 3)],
    ])
}

/// `InvMixColumns` of one column: `TD` applies the inverse S-box first, so
/// the S-box cancels it out.
fn inv_mix_column(w: u32) -> u32 {
    TD[0][usize::from(SBOX[byte(w, 0)])]
        ^ TD[1][usize::from(SBOX[byte(w, 1)])]
        ^ TD[2][usize::from(SBOX[byte(w, 2)])]
        ^ TD[3][usize::from(SBOX[byte(w, 3)])]
}

fn load(block: &[u8; BLOCK_SIZE]) -> [u32; 4] {
    let mut s = [0u32; 4];
    for (w, bytes) in s.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    s
}

fn store(s: [u32; 4], block: &mut [u8; BLOCK_SIZE]) {
    for (bytes, w) in block.chunks_exact_mut(4).zip(s) {
        bytes.copy_from_slice(&w.to_be_bytes());
    }
}

/// An AES-128 cipher with both expanded round-key schedules.
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, round 0 first.
    enc: [u32; SCHEDULE_WORDS],
    /// Equivalent-inverse-cipher round keys, in decryption order.
    dec: [u32; SCHEDULE_WORDS],
}

// taint: redacted — prints a fixed placeholder, never the round keys.
impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ <key schedule redacted> }}")
    }
}

impl Aes128 {
    /// Expands `key` into the encryption and decryption schedules.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut enc = [0u32; SCHEDULE_WORDS];
        for (w, bytes) in enc.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut rcon = 1u8;
        for i in 4..SCHEDULE_WORDS {
            let mut temp = enc[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            }
            enc[i] = enc[i - 4] ^ temp;
        }
        let mut dec = [0u32; SCHEDULE_WORDS];
        for round in 0..=ROUNDS {
            let src = 4 * (ROUNDS - round);
            for c in 0..4 {
                let w = enc[src + c];
                dec[4 * round + c] = if round == 0 || round == ROUNDS {
                    w
                } else {
                    inv_mix_column(w)
                };
            }
        }
        Aes128 { enc, dec }
    }

    /// Encrypts one 16-byte block in place.
    // taint: sink — a cleartext block goes in; only ciphertext remains.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let rk = &self.enc;
        let mut s = load(block);
        for (w, k) in s.iter_mut().zip(&rk[..4]) {
            *w ^= k;
        }
        for round in 1..ROUNDS {
            let k = &rk[4 * round..4 * round + 4];
            s = [
                TE[0][byte(s[0], 0)]
                    ^ TE[1][byte(s[1], 1)]
                    ^ TE[2][byte(s[2], 2)]
                    ^ TE[3][byte(s[3], 3)]
                    ^ k[0],
                TE[0][byte(s[1], 0)]
                    ^ TE[1][byte(s[2], 1)]
                    ^ TE[2][byte(s[3], 2)]
                    ^ TE[3][byte(s[0], 3)]
                    ^ k[1],
                TE[0][byte(s[2], 0)]
                    ^ TE[1][byte(s[3], 1)]
                    ^ TE[2][byte(s[0], 2)]
                    ^ TE[3][byte(s[1], 3)]
                    ^ k[2],
                TE[0][byte(s[3], 0)]
                    ^ TE[1][byte(s[0], 1)]
                    ^ TE[2][byte(s[1], 2)]
                    ^ TE[3][byte(s[2], 3)]
                    ^ k[3],
            ];
        }
        let k = &rk[4 * ROUNDS..];
        let mut out = [0u32; 4];
        for (c, o) in out.iter_mut().enumerate() {
            *o = u32::from_be_bytes([
                SBOX[byte(s[c], 0)],
                SBOX[byte(s[(c + 1) % 4], 1)],
                SBOX[byte(s[(c + 2) % 4], 2)],
                SBOX[byte(s[(c + 3) % 4], 3)],
            ]) ^ k[c];
        }
        store(out, block);
    }

    /// Decrypts one 16-byte block in place.
    // taint: source — restores the cleartext block inside the SOE.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let rk = &self.dec;
        let mut s = load(block);
        for (w, k) in s.iter_mut().zip(&rk[..4]) {
            *w ^= k;
        }
        for round in 1..ROUNDS {
            let k = &rk[4 * round..4 * round + 4];
            s = [
                TD[0][byte(s[0], 0)]
                    ^ TD[1][byte(s[3], 1)]
                    ^ TD[2][byte(s[2], 2)]
                    ^ TD[3][byte(s[1], 3)]
                    ^ k[0],
                TD[0][byte(s[1], 0)]
                    ^ TD[1][byte(s[0], 1)]
                    ^ TD[2][byte(s[3], 2)]
                    ^ TD[3][byte(s[2], 3)]
                    ^ k[1],
                TD[0][byte(s[2], 0)]
                    ^ TD[1][byte(s[1], 1)]
                    ^ TD[2][byte(s[0], 2)]
                    ^ TD[3][byte(s[3], 3)]
                    ^ k[2],
                TD[0][byte(s[3], 0)]
                    ^ TD[1][byte(s[2], 1)]
                    ^ TD[2][byte(s[1], 2)]
                    ^ TD[3][byte(s[0], 3)]
                    ^ k[3],
            ];
        }
        let k = &rk[4 * ROUNDS..];
        let mut out = [0u32; 4];
        for (c, o) in out.iter_mut().enumerate() {
            *o = u32::from_be_bytes([
                INV_SBOX[byte(s[c], 0)],
                INV_SBOX[byte(s[(c + 3) % 4], 1)],
                INV_SBOX[byte(s[(c + 2) % 4], 2)],
                INV_SBOX[byte(s[(c + 1) % 4], 3)],
            ]) ^ k[c];
        }
        store(out, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-wise cipher, transcribed step by step from FIPS-197 §5: the
    /// reference the table-driven kernel is checked against.
    mod reference {
        use super::super::{gf_mul, INV_SBOX, ROUNDS, SBOX};

        pub fn expand(key: &[u8; 16]) -> [[u8; 16]; ROUNDS + 1] {
            let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
            for i in 0..4 {
                w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            let mut rcon = 1u8;
            for i in 4..4 * (ROUNDS + 1) {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in temp.iter_mut() {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = gf_mul(rcon, 2);
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; ROUNDS + 1];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            round_keys
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk.iter()) {
                *s ^= *k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16], table: &[u8; 256]) {
            for b in state.iter_mut() {
                *b = table[*b as usize];
            }
        }

        // The state is stored column-major: state[4*c + r] is row r, column c.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }

        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * ((c + r) % 4) + r] = s[4 * c + r];
                }
            }
        }

        fn mix(state: &mut [u8; 16], coef: [u8; 4]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                for r in 0..4 {
                    state[4 * c + r] = (0..4)
                        .map(|i| gf_mul(col[i], coef[(i + 4 - r) % 4]))
                        .fold(0, |a, b| a ^ b);
                }
            }
        }

        pub fn encrypt(round_keys: &[[u8; 16]; ROUNDS + 1], block: &mut [u8; 16]) {
            add_round_key(block, &round_keys[0]);
            for rk in &round_keys[1..ROUNDS] {
                sub_bytes(block, &SBOX);
                shift_rows(block);
                mix(block, [2, 3, 1, 1]);
                add_round_key(block, rk);
            }
            sub_bytes(block, &SBOX);
            shift_rows(block);
            add_round_key(block, &round_keys[ROUNDS]);
        }

        pub fn decrypt(round_keys: &[[u8; 16]; ROUNDS + 1], block: &mut [u8; 16]) {
            add_round_key(block, &round_keys[ROUNDS]);
            for rk in round_keys[1..ROUNDS].iter().rev() {
                inv_shift_rows(block);
                sub_bytes(block, &INV_SBOX);
                add_round_key(block, rk);
                mix(block, [14, 11, 13, 9]);
            }
            inv_shift_rows(block);
            sub_bytes(block, &INV_SBOX);
            add_round_key(block, &round_keys[0]);
        }
    }

    fn prop_cases() -> u64 {
        std::env::var("SDDS_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64)
    }

    /// Deterministic xorshift64* generator for seeded property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn block(&mut self) -> [u8; 16] {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&self.next().to_le_bytes());
            b[8..].copy_from_slice(&self.next().to_le_bytes());
            b
        }
    }

    fn hex_words(words: &[u32]) -> String {
        words
            .iter()
            .map(|w| format!("{w:08x}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B example.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block, expected);
        cipher.decrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34
            ]
        );
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1 (AES-128 known answer test).
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128::new(&key);
        let plain = block;
        cipher.encrypt_block(&mut block);
        assert_eq!(block, expected);
        cipher.decrypt_block(&mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        // FIPS-197 Appendix A.1: the cipher key of Appendix B expands to
        // w[40..44] = d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let cipher = Aes128::new(&key);
        assert_eq!(
            hex_words(&cipher.enc[40..]),
            "d014f9a8 c9ee2589 e13f0cc8 b6630ca6"
        );
        assert_eq!(
            hex_words(&cipher.enc[4..8]),
            "a0fafe17 88542cb1 23a33939 2a6c7605"
        );
        // The decryption schedule starts from the last round key unchanged.
        assert_eq!(cipher.dec[..4], cipher.enc[40..]);
        assert_eq!(cipher.dec[40..], cipher.enc[..4]);
    }

    #[test]
    fn sbox_matches_its_gf256_definition() {
        // Brute-force inverse plus the affine map, straight from FIPS-197.
        for a in 0..=255u8 {
            let inv = (1..=255u8).find(|&b| gf_mul(a, b) == 1).unwrap_or(0);
            let mut res = inv;
            let mut y = inv;
            for _ in 0..4 {
                y = y.rotate_left(1);
                res ^= y;
            }
            assert_eq!(SBOX[a as usize], res ^ 0x63, "S-box entry {a:#04x}");
            assert_eq!(INV_SBOX[SBOX[a as usize] as usize], a);
        }
        assert_eq!(SBOX[0x53], 0xed); // FIPS-197 §5.1.1 example
    }

    #[test]
    fn table_driven_cipher_matches_the_bytewise_reference() {
        let mut rng = Rng(0xAE5_0128);
        for case in 0..prop_cases() {
            let key = rng.block();
            let cipher = Aes128::new(&key);
            let round_keys = reference::expand(&key);
            for _ in 0..4 {
                let plain = rng.block();
                let mut fast = plain;
                let mut slow = plain;
                cipher.encrypt_block(&mut fast);
                reference::encrypt(&round_keys, &mut slow);
                assert_eq!(fast, slow, "case {case}: encrypt {key:02x?} {plain:02x?}");

                let ct = rng.block();
                let mut fast = ct;
                let mut slow = ct;
                cipher.decrypt_block(&mut fast);
                reference::decrypt(&round_keys, &mut slow);
                assert_eq!(fast, slow, "case {case}: decrypt {key:02x?} {ct:02x?}");
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many_blocks() {
        let cipher = Aes128::new(&[7u8; 16]);
        for i in 0..64u8 {
            let mut block = [i; 16];
            let original = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original);
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let c1 = Aes128::new(&[1u8; 16]);
        let c2 = Aes128::new(&[2u8; 16]);
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let c = Aes128::new(&[0xAB; 16]);
        let dbg = format!("{c:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("171")); // 0xAB
    }

    #[test]
    fn gf_mul_basic_identities() {
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gf_mul(1, 0x42), 0x42);
        assert_eq!(gf_mul(0, 0x42), 0);
        assert_eq!(xtime(0x57), 0xae); // FIPS-197 §4.2.1 examples
        assert_eq!(xtime(0xae), 0x47);
    }
}
