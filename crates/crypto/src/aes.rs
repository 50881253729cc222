//! AES-128 block cipher and AES-GCM authenticated encryption.
//!
//! AES-GCM protects three data flows in HarDTAPE (paper §IV-C):
//! user messages over the secure channel, layer-3 swapped pages, and ORAM
//! *block* re-encryption. Only the encryption direction of the block
//! cipher is needed (GCM uses CTR mode both ways).

use core::fmt;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE[0][x]` is SubBytes + MixColumns of a column holding `x` in row 0:
/// the bytes `(2·S[x], S[x], S[x], 3·S[x])`, row 0 in the most
/// significant byte. `TE[r]` is the same word rotated down by `r` bytes —
/// the contribution of a byte sitting in row `r`.
static TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        let mut row = 0;
        while row < 4 {
            te[row][x] = word.rotate_right(8 * row as u32);
            row += 1;
        }
        x += 1;
    }
    te
};

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// AES-128 block cipher (encryption direction only).
///
/// The state is four big-endian `u32` columns; a round is sixteen
/// look-ups in [`TE`] (ShiftRows is the choice of which column each
/// look-up reads).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aes128").field("key", &"<redacted>").finish()
    }
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ t;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        *block = self.encrypt_columns(u128::from_be_bytes(*block)).to_be_bytes();
    }

    /// Encrypts one block held as a big-endian `u128` (column 0 on top).
    fn encrypt_columns(&self, block: u128) -> u128 {
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, col) in s.iter_mut().enumerate() {
            *col = (block >> (96 - 32 * c)) as u32 ^ rk[c];
        }
        for round in 1..10 {
            let mut t = [0u32; 4];
            for (c, col) in t.iter_mut().enumerate() {
                *col = TE[0][(s[c] >> 24) as usize]
                    ^ TE[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
                    ^ TE[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
                    ^ TE[3][s[(c + 3) % 4] as u8 as usize]
                    ^ rk[4 * round + c];
            }
            s = t;
        }
        // Last round: no MixColumns, so plain S-box bytes.
        let mut out = 0u128;
        for c in 0..4 {
            let col = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
                SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
                SBOX[s[(c + 3) % 4] as u8 as usize],
            ]);
            out = (out << 32) | u128::from(col ^ rk[40 + c]);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// GCM
// ---------------------------------------------------------------------------

/// Error produced when AES-GCM authentication fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AES-GCM authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// Carry-less 64×64 → low-64 multiply from integer multiplies: each
/// operand is split into four words holding every fourth bit, so the
/// carries of `wrapping_mul` fall into the three-bit holes and are
/// masked away. Constant-time wherever integer multiply is.
fn bmul64(x: u64, y: u64) -> u64 {
    const M: u64 = 0x1111_1111_1111_1111;
    let xs = [x & M, x & (M << 1), x & (M << 2), x & (M << 3)];
    let ys = [y & M, y & (M << 1), y & (M << 2), y & (M << 3)];
    let mut z = 0;
    for k in 0..4 {
        let mut zk = 0;
        for i in 0..4 {
            zk ^= xs[i].wrapping_mul(ys[(4 + k - i) % 4]);
        }
        z |= zk & (M << k);
    }
    z
}

/// The hash key `H` in the shape [`GhashKey::mul`] consumes: its two
/// halves, their xor (the Karatsuba middle operand), and the
/// bit-reversal of all three. Rebuilt from the 16-byte `H` per message,
/// so the per-key state stays 16 bytes.
struct GhashKey {
    h: [u64; 3],
    h_rev: [u64; 3],
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let (h1, h0) = ((h >> 64) as u64, h as u64);
        let h = [h0, h1, h0 ^ h1];
        GhashKey { h, h_rev: h.map(u64::reverse_bits) }
    }

    /// Multiplies `y` by `H` in GF(2^128) with the GCM bit order.
    ///
    /// Karatsuba over [`bmul64`]: three products give the low halves of
    /// the 64×64 partial products, three products of the bit-reversed
    /// operands give the high halves. GCM numbers bits from the other
    /// end, so the 255-bit product is shifted up by one and then folded
    /// by x^128 = x^7 + x^2 + x + 1.
    fn mul(&self, y: u128) -> u128 {
        let (y1, y0) = ((y >> 64) as u64, y as u64);
        let (y1r, y0r) = (y1.reverse_bits(), y0.reverse_bits());
        let (ys, ys_rev) = ([y0, y1, y0 ^ y1], [y0r, y1r, y0r ^ y1r]);
        let mut lo = [0u64; 3];
        let mut hi = [0u64; 3];
        for i in 0..3 {
            lo[i] = bmul64(ys[i], self.h[i]);
            hi[i] = bmul64(ys_rev[i], self.h_rev[i]).reverse_bits() >> 1;
        }
        lo[2] ^= lo[0] ^ lo[1];
        hi[2] ^= hi[0] ^ hi[1];
        let product = [lo[0], hi[0] ^ lo[2], lo[1] ^ hi[2], hi[1]];

        let mut v = [0u64; 4];
        v[0] = product[0] << 1;
        for i in 1..4 {
            v[i] = (product[i] << 1) | (product[i - 1] >> 63);
        }
        for i in 0..2 {
            v[i + 2] ^= v[i] ^ (v[i] >> 1) ^ (v[i] >> 2) ^ (v[i] >> 7);
            v[i + 1] ^= (v[i] << 63) ^ (v[i] << 62) ^ (v[i] << 57);
        }
        (u128::from(v[3]) << 64) | u128::from(v[2])
    }
}

/// AES-128-GCM authenticated encryption with a 96-bit nonce and 128-bit tag.
///
/// # Examples
///
/// ```
/// use tape_crypto::AesGcm;
///
/// let key = [7u8; 16];
/// let gcm = AesGcm::new(&key);
/// let sealed = gcm.seal(&[0u8; 12], b"header", b"secret page");
/// let opened = gcm.open(&[0u8; 12], b"header", &sealed)?;
/// assert_eq!(opened, b"secret page");
/// # Ok::<(), tape_crypto::AuthError>(())
/// ```
#[derive(Clone)]
pub struct AesGcm {
    cipher: Aes128,
    h: u128,
}

impl fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AesGcm").field("key", &"<redacted>").finish()
    }
}

impl AesGcm {
    /// Creates a GCM instance from a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let h = cipher.encrypt_columns(0);
        AesGcm { cipher, h }
    }

    /// The encrypted counter block `nonce ‖ counter`.
    fn keystream(&self, nonce: u128, counter: u32) -> u128 {
        self.cipher.encrypt_columns(nonce | u128::from(counter))
    }

    /// Xors `data` with the keystream whose first block is `counter`.
    fn ctr_xor(&self, nonce: u128, mut counter: u32, data: &mut [u8]) {
        let (blocks, tail) = data.as_chunks_mut::<16>();
        for block in blocks {
            let ks = self.keystream(nonce, counter);
            *block = (u128::from_be_bytes(*block) ^ ks).to_be_bytes();
            counter = counter.wrapping_add(1);
        }
        if !tail.is_empty() {
            let ks = self.keystream(nonce, counter).to_be_bytes();
            for (b, k) in tail.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, nonce: u128, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let key = GhashKey::new(self.h);
        let mut y = 0u128;
        for data in [aad, ciphertext] {
            let (blocks, tail) = data.as_chunks::<16>();
            for block in blocks {
                y = key.mul(y ^ u128::from_be_bytes(*block));
            }
            if !tail.is_empty() {
                let mut block = [0u8; 16];
                block[..tail.len()].copy_from_slice(tail);
                y = key.mul(y ^ u128::from_be_bytes(block));
            }
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        y = key.mul(y ^ lengths);
        (y ^ self.keystream(nonce, 1)).to_be_bytes()
    }

    /// Encrypts `buf` where it lies, authenticating `aad` as well, and
    /// returns the 16-byte tag.
    ///
    /// Reusing a `(key, nonce)` pair destroys confidentiality; callers in
    /// this workspace derive nonces from monotonic counters.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
        let nonce = nonce_columns(nonce);
        self.ctr_xor(nonce, FIRST_COUNTER, buf);
        self.tag(nonce, aad, buf)
    }

    /// Verifies `tag` over the ciphertext in `buf` and, only if it
    /// holds, decrypts `buf` where it lies.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify (wrong key, nonce,
    /// AAD, or tampered ciphertext); `buf` still holds the ciphertext.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; 16],
    ) -> Result<(), AuthError> {
        self.open_in_place_if(nonce, aad, buf, tag, |_| true).map(|_| ())
    }

    /// Verifies `tag` over the whole ciphertext in `buf` and, only if it
    /// holds, decrypts the first 16-byte block (all of a shorter `buf`),
    /// shows it to `wanted`, and decrypts the rest only if `wanted` says
    /// so. `Ok(true)`: `buf` is the plaintext. `Ok(false)`: the first
    /// block is plaintext and every byte after it is still ciphertext —
    /// authenticated, not decrypted.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify (wrong key, nonce,
    /// AAD, or tampered ciphertext); `buf` still holds the ciphertext and
    /// `wanted` was not called.
    pub fn open_in_place_if(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; 16],
        wanted: impl FnOnce(&[u8]) -> bool,
    ) -> Result<bool, AuthError> {
        let nonce = nonce_columns(nonce);
        let expected = self.tag(nonce, aad, buf);
        // Constant-time comparison.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(AuthError);
        }
        let (head, rest) = buf.split_at_mut(buf.len().min(16));
        self.ctr_xor(nonce, FIRST_COUNTER, head);
        let wanted = wanted(head);
        if wanted {
            self.ctr_xor(nonce, FIRST_COUNTER + 1, rest);
        }
        Ok(wanted)
    }

    /// Encrypts `plaintext`, authenticating `aad` as well. Returns
    /// `ciphertext || 16-byte tag`; see [`seal_in_place`] for the nonce
    /// rule.
    ///
    /// [`seal_in_place`]: AesGcm::seal_in_place
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + 16);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts and verifies `ciphertext || tag` produced by [`seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify (wrong key, nonce,
    /// AAD, or tampered ciphertext).
    ///
    /// [`seal`]: AesGcm::seal
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        let (ciphertext, tag) = sealed.split_last_chunk::<16>().ok_or(AuthError)?;
        let mut out = ciphertext.to_vec();
        self.open_in_place(nonce, aad, &mut out, tag)?;
        Ok(out)
    }
}

/// Counter of the first keystream block; counter 1 masks the tag.
const FIRST_COUNTER: u32 = 2;

/// The nonce as the top 96 bits of a counter block.
fn nonce_columns(nonce: &[u8; 12]) -> u128 {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    u128::from_be_bytes(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_primitives::hex;

    #[test]
    fn fips_197_vector() {
        // FIPS-197 Appendix C.1 (AES-128).
        let key: [u8; 16] = hex::decode("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = hex::decode("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn gcm_nist_test_case_1() {
        // NIST GCM test case 1: zero key, zero nonce, empty everything.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex::encode(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn gcm_nist_test_case_2() {
        // NIST GCM test case 2: zero key/nonce, 16 zero bytes of plaintext.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            hex::encode(&sealed),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn gcm_nist_test_case_4_with_aad() {
        // NIST GCM test case 4 (AES-128, with AAD).
        let key: [u8; 16] = hex::decode("feffe9928665731c6d6a8f9467308308")
            .unwrap()
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex::decode("cafebabefacedbaddecaf888")
            .unwrap()
            .try_into()
            .unwrap();
        let plaintext = hex::decode(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        )
        .unwrap();
        let aad = hex::decode("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(hex::encode(tag), "5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm::new(&[9u8; 16]);
        let nonce = [1u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", b"payload");
        // Flip one ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&nonce, b"aad", &sealed), Err(AuthError));
        // Wrong AAD.
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&nonce, b"bad", &sealed), Err(AuthError));
        // Wrong nonce.
        assert_eq!(gcm.open(&[2u8; 12], b"aad", &sealed), Err(AuthError));
        // Truncated input.
        assert_eq!(gcm.open(&nonce, b"aad", &sealed[..10]), Err(AuthError));
        // Correct parameters still open.
        assert_eq!(gcm.open(&nonce, b"aad", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn roundtrip_various_lengths() {
        let gcm = AesGcm::new(&[3u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1024, 1025] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = gcm.seal(&nonce, &[], &data);
            assert_eq!(sealed.len(), len + 16);
            assert_eq!(gcm.open(&nonce, &[], &sealed).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let gcm = AesGcm::new(&[5u8; 16]);
        let a = gcm.seal(&[0u8; 12], b"", b"same plaintext");
        let b = gcm.seal(&[1u8; 12], b"", b"same plaintext");
        assert_ne!(a, b);
    }
}
