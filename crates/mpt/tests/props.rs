//! Property tests: the trie must behave exactly like a HashMap while
//! producing order-independent roots and sound proofs.

use std::collections::HashMap;
use tape_crypto::prop::{check, Gen};
use tape_mpt::{verify_proof, MerkleTrie, EMPTY_ROOT};

const CASES: u32 = 64;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

fn arb_key(g: &mut Gen) -> Vec<u8> {
    // Short keys collide on prefixes often, exercising branch/ext splits.
    g.vec_of(1, 6, |g| g.below(4) as u8)
}

fn arb_op(g: &mut Gen) -> Op {
    if g.bool() {
        Op::Insert(arb_key(g), g.bytes(1, 20))
    } else {
        Op::Remove(arb_key(g))
    }
}

fn arb_entries(g: &mut Gen, min: usize, max: usize) -> HashMap<Vec<u8>, Vec<u8>> {
    let target = g.range(min as u64, max as u64) as usize;
    let mut entries = HashMap::new();
    // Duplicate keys collapse, so loop until the map reaches the target.
    while entries.len() < target {
        entries.insert(arb_key(g), g.bytes(1, 10));
    }
    entries
}

#[test]
fn trie_matches_hashmap() {
    check("trie_matches_hashmap", CASES, |g| {
        let ops = g.vec_of(0, 120, arb_op);
        let mut trie = MerkleTrie::new();
        let mut map: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    assert_eq!(trie.insert(k, v), map.insert(k.clone(), v.clone()));
                }
                Op::Remove(k) => {
                    assert_eq!(trie.remove(k), map.remove(k));
                }
            }
        }
        assert_eq!(trie.len(), map.len());
        for (k, v) in &map {
            assert_eq!(trie.get(k), Some(v.as_slice()));
        }
        if map.is_empty() {
            assert_eq!(trie.root_hash(), EMPTY_ROOT);
        }
    });
}

#[test]
fn root_is_content_addressed() {
    check("root_is_content_addressed", CASES, |g| {
        // Applying the ops and then rebuilding from the final map in a
        // different order must give the same root.
        let ops = g.vec_of(0, 80, arb_op);
        let mut trie = MerkleTrie::new();
        let mut map: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    trie.insert(k, v);
                    map.insert(k.clone(), v.clone());
                }
                Op::Remove(k) => {
                    trie.remove(k);
                    map.remove(k);
                }
            }
        }
        let mut rebuilt = MerkleTrie::new();
        let mut entries: Vec<_> = map.into_iter().collect();
        entries.sort();
        entries.reverse();
        for (k, v) in entries {
            rebuilt.insert(&k, &v);
        }
        assert_eq!(trie.root_hash(), rebuilt.root_hash());
    });
}

#[test]
fn proofs_sound_for_all_keys() {
    check("proofs_sound_for_all_keys", CASES, |g| {
        let entries = arb_entries(g, 1, 40);
        let probe = arb_key(g);
        let mut trie = MerkleTrie::new();
        for (k, v) in &entries {
            trie.insert(k, v);
        }
        let root = trie.root_hash();

        // Every present key verifies to its value.
        for (k, v) in &entries {
            let proof = trie.prove(k);
            assert_eq!(verify_proof(root, k, &proof).unwrap(), Some(v.clone()));
        }

        // A probe key verifies to its map content (present or absent).
        let proof = trie.prove(&probe);
        assert_eq!(
            verify_proof(root, &probe, &proof).unwrap(),
            entries.get(&probe).cloned()
        );
    });
}

#[test]
fn proof_bound_to_root() {
    check("proof_bound_to_root", CASES, |g| {
        let entries = arb_entries(g, 2, 30);
        let mut trie = MerkleTrie::new();
        for (k, v) in &entries {
            trie.insert(k, v);
        }
        let root = trie.root_hash();
        let key = entries.keys().next().unwrap().clone();
        let proof = trie.prove(&key);

        // Mutate the trie: the old proof must not verify against the new root.
        trie.insert(&key, b"changed value xyz");
        let new_root = trie.root_hash();
        if new_root == root {
            return;
        }
        let result = verify_proof(new_root, &key, &proof);
        // Either an error (missing/mismatched node) or the proof simply
        // cannot produce the new value.
        if let Ok(Some(v)) = result {
            assert_ne!(v, b"changed value xyz".to_vec());
        }
    });
}
