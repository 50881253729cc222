//! Known-answer tests for `tape_crypto`'s AES-128 and AES-GCM, through
//! the public API only.
//!
//! The cipher as a dependent crate sees it: the published vectors
//! (FIPS-197 C.1, NIST GCM test cases 1–4) and every entry point —
//! allocating, in place, and the verify-first open that may stop after
//! the first block — driven from outside `tape_crypto`, where only its
//! `pub` items resolve. `SEAL_DIGESTS` additionally pins every byte
//! `AesGcm::seal` produces over the lengths and AADs the workspace
//! actually seals (ORAM slots are 1065 bytes under `b"oram"`): the
//! digests were recorded on the byte-wise reference implementation and
//! any replacement kernel must reproduce them unchanged.

use tape_crypto::{keccak256, Aes128, AesGcm};
use tape_primitives::hex;

fn unhex<const N: usize>(s: &str) -> [u8; N] {
    hex::decode(s).expect("valid hex").try_into().expect("vector length")
}

#[test]
fn fips_197_appendix_c1() {
    let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f");
    let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff");
    Aes128::new(&key).encrypt_block(&mut block);
    assert_eq!(hex::encode(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

/// One NIST GCM (AES-128) vector: `seal` must produce `ciphertext ‖ tag`
/// and `open` must invert it.
fn nist_gcm(key: &str, nonce: &str, aad: &str, plaintext: &str, ciphertext: &str, tag: &str) {
    let gcm = AesGcm::new(&unhex(key));
    let nonce: [u8; 12] = unhex(nonce);
    let aad = hex::decode(aad).expect("valid hex");
    let plaintext = hex::decode(plaintext).expect("valid hex");
    let sealed = gcm.seal(&nonce, &aad, &plaintext);
    assert_eq!(hex::encode(&sealed), format!("{ciphertext}{tag}"));
    assert_eq!(gcm.open(&nonce, &aad, &sealed).expect("authentic"), plaintext);
}

const NIST_KEY: &str = "feffe9928665731c6d6a8f9467308308";
const NIST_NONCE: &str = "cafebabefacedbaddecaf888";

#[test]
fn nist_gcm_test_case_1() {
    let zero_key = "00000000000000000000000000000000";
    nist_gcm(zero_key, "000000000000000000000000", "", "", "", "58e2fccefa7e3061367f1d57a4e7455a");
}

#[test]
fn nist_gcm_test_case_2() {
    let zero = "00000000000000000000000000000000";
    nist_gcm(
        zero,
        "000000000000000000000000",
        "",
        zero,
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    );
}

#[test]
fn nist_gcm_test_case_3() {
    nist_gcm(
        NIST_KEY,
        NIST_NONCE,
        "",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    );
}

#[test]
fn nist_gcm_test_case_4() {
    nist_gcm(
        NIST_KEY,
        NIST_NONCE,
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    );
}

const KEYS: [&str; 2] = ["07070707070707070707070707070707", "000102030405060708090a0b0c0d0e0f"];
const AADS: [&[u8]; 3] = [b"", b"oram", b"a twenty-byte header"];
const LENGTHS: [usize; 8] = [0, 1, 15, 16, 17, 1024, 1065, 4096];

/// `keccak256(seal(nonce, aad, plaintext))`, indexed `[key][aad][length]`
/// in the order of `KEYS`, `AADS`, `LENGTHS`. Recorded on the parent of
/// the word-wise kernel change; do not regenerate.
const SEAL_DIGESTS: [[[&str; 8]; 3]; 2] = [
    [
        [
            "b1110240aa24406515cf3d28803257cbf99389d7aaffbeb012b67bdc31f51a83",
            "fa1571a5ddcead60fbf0b6e08badb2bd4b03c38162bb87a9f93f2d65d31b8a11",
            "4523e977d1fe304873fd720feab7d47b578ac423e48f1558d3308a02d5f2578b",
            "655097f2120dd64e5e5cdf388a2e026f7c6963f2caaeea1eb70e42318d7a1d90",
            "9b4881755b0626e3d6721c6cf1bfcc691ff92b0860ef81aff8c70ca2d7d896d4",
            "9345b83d8dca7706e964f87b528c2b4e1471daf60d4e29135954fb2836138563",
            "d17408d421053433e73a0c440382743207a32ba86b8e9f3024af1b535336ff77",
            "e35e470e04927d5f4486285674b41147a0b483cefcb9bcd81a7a71f079f3a959",
        ],
        [
            "9df267a96907be0d961505340d1398711804d77f1f8a43c8c4f43768be2ff4c2",
            "57ed6271d7db17a3cb72313fe71d5f035b14f98c0e41bab9c7c47fa36fb40df3",
            "77f57a78023c92d0b7b75fcf7f7d962f052a51da3b854f9bad95b92c4a45b449",
            "c4a892d45939666348d66d3d0fc7cbc9da0a0953711bf6b4dea95eda54962182",
            "136a925c1138d37f2867b01096850a2c0fadc3d35efbdfb3ca3b91d3f69ef6fc",
            "eaf5cef5367480471715d56b96551ddbefe95084de84be9e938a0407504625bc",
            "0e18e6069dff8262829e701a47e50e07837508f7ffffb2723b5fa31b68ec554c",
            "c8cfdeb6d9696160c03c196b8db6b71b88b9990ce87a6383e49620b11d5a9b32",
        ],
        [
            "840e0da1bd4df3b731902d27cbadeb1a164609a594f5c183edf2c42475b6ae17",
            "afce0ffdd25753138595eb487ce5dcd750d3fadaf1ab5f71ac47d73d024c7fb1",
            "784ca2d5c09144e93aa60448cc6bf49e265eb094703111c1996b42d6af054545",
            "00b5246bedb37e946f869b52780c50a121838cd1ce15d621df543c0e2515ac68",
            "c613a10cadf7702b5c607d7f7729a9429f0cf4169021c8efdaade1287737ed62",
            "eab7020453a83b2825c5fe789731b89e82f26618f278b6211a04133d1db3a53c",
            "aed9b5ee26de6a74841351e90f3a2f830dc1c536ddaa8b685c717befdf5055e5",
            "795716ef4bbf8b040397f3d5e142ece0f3005aed9d7044b1c921f63eb4edc784",
        ],
    ],
    [
        [
            "60ea486e278de983254892705af6cbc67f3732e1849f1d1e818cab0f4f567a4a",
            "771485d9f8b90c533bdec036aba719062bd08aeceb783e98b3f48fea75fa7320",
            "8323106698cfd6b3a97eb55763a911f0bec4356a05456f78d0f5b9253fa5cc4a",
            "8cfda945f9d4f8b2ebdcac22e558129ff3f6415e3922a27653cbd78fc8a33814",
            "51a3d8e804b3f43407ae36f05eaf7f72b0e690721344b1322be45618cfe1b81b",
            "a7620fc2a4581ca0029ea2dabc569e3b493c40737526b41eae41b0283dd1c4ac",
            "0b1f4a151e49999dbd798109831abc8d32ebae4e608a54b80e459f180c08d2e0",
            "af5f49d8a5dbee4c30a3cda094fa8bee6c81a271765695eaa2caa8dcb6ee68fc",
        ],
        [
            "9141d31132add21f08efbecb532ec5b935e93c7e344baf643d7eeb264cb707b7",
            "aa379c82bfafd1fa392ae86c05c04a9c14e414aedb6ab6b4683e194e58302cef",
            "c57dc207464891b8b3f720531916ce51e5eaf0660744fa153751056114190c0c",
            "0d98cd5c17f52c6701ac2f625f4443a9791ce695a14cf90d2ab7aba399ad2a42",
            "37f89684979a92f85f7600422d80f2fb2edd6d908e7debb112a7971c73aeda42",
            "2623df035118dd0a07c163bcce9f6583c3c0cec3dd73ae5ad719bc5a486e4ce3",
            "3b71244b47557dce801a90d58727ced4f2f16dc0f2563c1ac44441682e4ab99f",
            "73bb8fc8cfbf7c13ad7cf286911652cbae83c87e1fc948a8c1adf330b1a12488",
        ],
        [
            "29b38b5007e7f591119143d24ae8521a628b19a51f0c0d53e449e91823764cec",
            "fd82872c62ba3b4a81d8d7eb4099bc6434de0d5087db7b903c1635b0b0a9d52c",
            "f1263a117d2987fd56274695c7b36209318c4863140aefd6fa1f1e2e5cd7d8c7",
            "0664b1529701a1666e37b1bc7437a64b7d70c1688d97a1475f4e642e91295d2f",
            "b9b2b3103aa2ba2a2a450ed76a0d2cad4dc19b6d9199b372bd4f178812e02f9d",
            "d228e09036337d1991526965a80e728562fbe993ce79391ebf96a386d940730f",
            "77db23711e33f8b27d35ffdf458203d032ac223e9ed37b436ef5953bd3e6c969",
            "9a3ee9443b308c52845bb4e337fce52d52725e53736629019b829ee944ebab6d",
        ],
    ],
];

#[test]
fn seal_output_is_pinned_byte_for_byte() {
    for (k, key) in KEYS.iter().enumerate() {
        let gcm = AesGcm::new(&unhex(key));
        for (a, aad) in AADS.iter().enumerate() {
            for (l, &len) in LENGTHS.iter().enumerate() {
                let plaintext: Vec<u8> =
                    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(len as u8)).collect();
                let mut nonce = [0xc0u8; 12];
                nonce[..4].copy_from_slice(&[k as u8, a as u8, (len >> 8) as u8, len as u8]);
                let sealed = gcm.seal(&nonce, aad, &plaintext);
                assert_eq!(sealed.len(), len + 16);
                assert_eq!(
                    hex::encode(keccak256(&sealed)),
                    SEAL_DIGESTS[k][a][l],
                    "key {k}, aad {a}, length {len}"
                );
                assert_eq!(gcm.open(&nonce, aad, &sealed).expect("authentic"), plaintext);

                // The verify-first open, wanted and not: what it stops
                // short of decrypting is the sealed bytes, untouched.
                let (ciphertext, tag) = sealed.split_last_chunk::<16>().expect("tagged");
                let head = len.min(16);
                for want in [true, false] {
                    let mut buf = ciphertext.to_vec();
                    let opened = gcm.open_in_place_if(&nonce, aad, &mut buf, tag, |first| {
                        assert_eq!(first, &plaintext[..head]);
                        want
                    });
                    assert_eq!(opened, Ok(want), "key {k}, aad {a}, length {len}");
                    assert_eq!(buf[..head], plaintext[..head]);
                    let rest = if want { &plaintext[head..] } else { &ciphertext[head..] };
                    assert_eq!(&buf[head..], rest, "key {k}, aad {a}, length {len}, wanted {want}");
                }
            }
        }
    }
}
