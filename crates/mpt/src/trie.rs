//! An in-memory Ethereum Merkle Patricia Trie with proof support.

use crate::nibbles::{bytes_to_nibbles, common_prefix_len, hex_prefix_decode, hex_prefix_encode};
use tape_crypto::keccak256;
use tape_primitives::{rlp, B256};

/// The root hash of an empty trie: `keccak256(rlp(""))`.
pub const EMPTY_ROOT: B256 = B256::new([
    0x56, 0xe8, 0x1f, 0x17, 0x1b, 0xcc, 0x55, 0xa6, 0xff, 0x83, 0x45, 0xe6, 0x92, 0xc0, 0xf8,
    0x6e, 0x5b, 0x48, 0xe0, 0x1b, 0x99, 0x6c, 0xad, 0xc0, 0x01, 0x62, 0x2f, 0xb5, 0xe3, 0x63,
    0xb4, 0x21,
]);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Empty,
    Leaf { path: Vec<u8>, value: Vec<u8> },
    Ext { path: Vec<u8>, child: Box<Node> },
    Branch { children: Box<[Node; 16]>, value: Option<Vec<u8>> },
}

impl Node {
    fn empty_children() -> Box<[Node; 16]> {
        Box::new(core::array::from_fn(|_| Node::Empty))
    }

    fn is_empty(&self) -> bool {
        matches!(self, Node::Empty)
    }

    /// RLP encoding of this node.
    fn encode(&self) -> Vec<u8> {
        match self {
            Node::Empty => rlp::encode_bytes(&[]),
            Node::Leaf { path, value } => rlp::encode_list(&[
                rlp::encode_bytes(&hex_prefix_encode(path, true)),
                rlp::encode_bytes(value),
            ]),
            Node::Ext { path, child } => rlp::encode_list(&[
                rlp::encode_bytes(&hex_prefix_encode(path, false)),
                child.reference(),
            ]),
            Node::Branch { children, value } => {
                let mut items = Vec::with_capacity(17);
                for child in children.iter() {
                    if child.is_empty() {
                        items.push(rlp::encode_bytes(&[]));
                    } else {
                        items.push(child.reference());
                    }
                }
                items.push(rlp::encode_bytes(value.as_deref().unwrap_or(&[])));
                rlp::encode_list(&items)
            }
        }
    }

    /// The reference to this node as embedded in a parent: the encoding
    /// itself when shorter than 32 bytes, otherwise the keccak hash.
    fn reference(&self) -> Vec<u8> {
        let encoded = self.encode();
        if encoded.len() < 32 {
            encoded
        } else {
            rlp::encode_bytes(keccak256(&encoded).as_bytes())
        }
    }
}

/// A Merkle Patricia Trie mapping byte-string keys to byte-string values.
///
/// Node storage is in-memory; [`root_hash`](MerkleTrie::root_hash) and
/// [`prove`](MerkleTrie::prove) produce the exact hashes and proofs an
/// Ethereum node would.
///
/// # Examples
///
/// ```
/// use tape_mpt::MerkleTrie;
///
/// let mut trie = MerkleTrie::new();
/// trie.insert(b"dog", b"puppy");
/// assert_eq!(trie.get(b"dog"), Some(&b"puppy"[..]));
/// let root = trie.root_hash();
/// let proof = trie.prove(b"dog");
/// assert_eq!(
///     tape_mpt::verify_proof(root, b"dog", &proof).unwrap(),
///     Some(b"puppy".to_vec())
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTrie {
    root: Node,
    len: usize,
}

impl Default for MerkleTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl MerkleTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        MerkleTrie { root: Node::Empty, len: 0 }
    }

    /// Number of key/value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a key/value pair, returning the previous value if any.
    /// Inserting an empty value removes the key (Ethereum semantics).
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        if value.is_empty() {
            return self.remove(key);
        }
        let nibbles = bytes_to_nibbles(key);
        let root = std::mem::replace(&mut self.root, Node::Empty);
        let (root, old) = Self::insert_at(root, &nibbles, value.to_vec());
        self.root = root;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(node: Node, path: &[u8], value: Vec<u8>) -> (Node, Option<Vec<u8>>) {
        match node {
            Node::Empty => (Node::Leaf { path: path.to_vec(), value }, None),
            Node::Leaf { path: lpath, value: lvalue } => {
                let common = common_prefix_len(&lpath, path);
                if common == lpath.len() && common == path.len() {
                    return (Node::Leaf { path: lpath, value }, Some(lvalue));
                }
                // Split into a branch under a (possibly empty) extension.
                let mut children = Node::empty_children();
                let mut branch_value = None;
                if common == lpath.len() {
                    branch_value = Some(lvalue);
                } else {
                    children[lpath[common] as usize] = Node::Leaf {
                        path: lpath[common + 1..].to_vec(),
                        value: lvalue,
                    };
                }
                let mut branch = Node::Branch { children, value: branch_value };
                // Insert the new key into the branch.
                let (new_branch, _) = Self::insert_at(
                    std::mem::replace(&mut branch, Node::Empty),
                    &path[common..],
                    value,
                );
                let node = if common == 0 {
                    new_branch
                } else {
                    Node::Ext { path: path[..common].to_vec(), child: Box::new(new_branch) }
                };
                (node, None)
            }
            Node::Ext { path: epath, child } => {
                let common = common_prefix_len(&epath, path);
                if common == epath.len() {
                    let (new_child, old) = Self::insert_at(*child, &path[common..], value);
                    return (
                        Node::Ext { path: epath, child: Box::new(new_child) },
                        old,
                    );
                }
                // Split the extension.
                let mut children = Node::empty_children();
                let remaining = &epath[common + 1..];
                children[epath[common] as usize] = if remaining.is_empty() {
                    *child
                } else {
                    Node::Ext { path: remaining.to_vec(), child }
                };
                let branch = Node::Branch { children, value: None };
                let (new_branch, _) = Self::insert_at(branch, &path[common..], value);
                let node = if common == 0 {
                    new_branch
                } else {
                    Node::Ext { path: path[..common].to_vec(), child: Box::new(new_branch) }
                };
                (node, None)
            }
            Node::Branch { mut children, value: bvalue } => {
                if path.is_empty() {
                    let old = bvalue;
                    return (Node::Branch { children, value: Some(value) }, old);
                }
                let idx = path[0] as usize;
                let child = std::mem::replace(&mut children[idx], Node::Empty);
                let (new_child, old) = Self::insert_at(child, &path[1..], value);
                children[idx] = new_child;
                (Node::Branch { children, value: bvalue }, old)
            }
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let nibbles = bytes_to_nibbles(key);
        Self::get_at(&self.root, &nibbles)
    }

    fn get_at<'a>(node: &'a Node, path: &[u8]) -> Option<&'a [u8]> {
        match node {
            Node::Empty => None,
            Node::Leaf { path: lpath, value } => {
                if lpath == path {
                    Some(value)
                } else {
                    None
                }
            }
            Node::Ext { path: epath, child } => {
                if path.len() >= epath.len() && &path[..epath.len()] == epath.as_slice() {
                    Self::get_at(child, &path[epath.len()..])
                } else {
                    None
                }
            }
            Node::Branch { children, value } => {
                if path.is_empty() {
                    value.as_deref()
                } else {
                    Self::get_at(&children[path[0] as usize], &path[1..])
                }
            }
        }
    }

    /// Returns `true` if the key is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Removes a key, returning the previous value if any.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let nibbles = bytes_to_nibbles(key);
        let root = std::mem::replace(&mut self.root, Node::Empty);
        let (root, old) = Self::remove_at(root, &nibbles);
        self.root = root;
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn remove_at(node: Node, path: &[u8]) -> (Node, Option<Vec<u8>>) {
        match node {
            Node::Empty => (Node::Empty, None),
            Node::Leaf { path: lpath, value } => {
                if lpath == path {
                    (Node::Empty, Some(value))
                } else {
                    (Node::Leaf { path: lpath, value }, None)
                }
            }
            Node::Ext { path: epath, child } => {
                if path.len() < epath.len() || &path[..epath.len()] != epath.as_slice() {
                    return (Node::Ext { path: epath, child }, None);
                }
                let (new_child, old) = Self::remove_at(*child, &path[epath.len()..]);
                (Self::collapse_ext(epath, new_child), old)
            }
            Node::Branch { mut children, value } => {
                let (children, value, old) = if path.is_empty() {
                    let old = value;
                    (children, None, old)
                } else {
                    let idx = path[0] as usize;
                    let child = std::mem::replace(&mut children[idx], Node::Empty);
                    let (new_child, old) = Self::remove_at(child, &path[1..]);
                    children[idx] = new_child;
                    (children, value, old)
                };
                (Self::collapse_branch(children, value), old)
            }
        }
    }

    /// After a removal, an extension whose child degenerated must be merged.
    fn collapse_ext(epath: Vec<u8>, child: Node) -> Node {
        match child {
            Node::Empty => Node::Empty,
            Node::Leaf { path, value } => {
                let mut merged = epath;
                merged.extend_from_slice(&path);
                Node::Leaf { path: merged, value }
            }
            Node::Ext { path, child } => {
                let mut merged = epath;
                merged.extend_from_slice(&path);
                Node::Ext { path: merged, child }
            }
            branch @ Node::Branch { .. } => Node::Ext { path: epath, child: Box::new(branch) },
        }
    }

    /// After a removal, a branch with a single remaining entry collapses.
    fn collapse_branch(mut children: Box<[Node; 16]>, value: Option<Vec<u8>>) -> Node {
        let occupied: Vec<usize> = (0..16).filter(|&i| !children[i].is_empty()).collect();
        match (occupied.len(), &value) {
            (0, None) => Node::Empty,
            (0, Some(_)) => Node::Leaf { path: Vec::new(), value: value.expect("checked") },
            (1, None) => {
                let idx = occupied[0];
                let child = std::mem::replace(&mut children[idx], Node::Empty);
                Self::collapse_ext(vec![idx as u8], child)
            }
            _ => Node::Branch { children, value },
        }
    }

    /// Computes the Merkle root hash.
    pub fn root_hash(&self) -> B256 {
        if self.root.is_empty() {
            return EMPTY_ROOT;
        }
        keccak256(self.root.encode())
    }

    /// Produces a Merkle proof for `key`: the list of RLP-encoded nodes
    /// on the lookup path whose encodings are at least 32 bytes (inline
    /// nodes are embedded in their parents), root node always included.
    ///
    /// The proof also serves as a proof of *absence* when the key is not
    /// in the trie.
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut proof = Vec::new();
        if self.root.is_empty() {
            return proof;
        }
        let nibbles = bytes_to_nibbles(key);
        let mut node = &self.root;
        let mut path: &[u8] = &nibbles;
        loop {
            let encoded = node.encode();
            if encoded.len() >= 32 || proof.is_empty() {
                proof.push(encoded);
            }
            match node {
                Node::Empty | Node::Leaf { .. } => return proof,
                Node::Ext { path: epath, child } => {
                    if path.len() >= epath.len() && &path[..epath.len()] == epath.as_slice() {
                        path = &path[epath.len()..];
                        node = child;
                    } else {
                        return proof;
                    }
                }
                Node::Branch { children, .. } => {
                    if path.is_empty() {
                        return proof;
                    }
                    let child = &children[path[0] as usize];
                    if child.is_empty() {
                        return proof;
                    }
                    path = &path[1..];
                    node = child;
                }
            }
        }
    }

    /// Visits every `(key_nibbles, value)` pair in depth-first order.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8])) {
        fn walk(node: &Node, prefix: &mut Vec<u8>, f: &mut impl FnMut(&[u8], &[u8])) {
            match node {
                Node::Empty => {}
                Node::Leaf { path, value } => {
                    prefix.extend_from_slice(path);
                    f(prefix, value);
                    prefix.truncate(prefix.len() - path.len());
                }
                Node::Ext { path, child } => {
                    prefix.extend_from_slice(path);
                    walk(child, prefix, f);
                    prefix.truncate(prefix.len() - path.len());
                }
                Node::Branch { children, value } => {
                    if let Some(v) = value {
                        f(prefix, v);
                    }
                    for (i, child) in children.iter().enumerate() {
                        prefix.push(i as u8);
                        walk(child, prefix, f);
                        prefix.pop();
                    }
                }
            }
        }
        let mut prefix = Vec::new();
        walk(&self.root, &mut prefix, &mut f);
    }
}

/// Error produced by [`verify_proof`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofError {
    /// A referenced node is missing from the proof.
    MissingNode,
    /// A node failed to decode or had an invalid shape.
    MalformedNode,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProofError::MissingNode => write!(f, "proof is missing a referenced node"),
            ProofError::MalformedNode => write!(f, "proof contains a malformed node"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Verifies a Merkle proof against a root hash.
///
/// Returns `Ok(Some(value))` when the proof shows `key` present with
/// `value`, `Ok(None)` when the proof shows the key absent, and an error
/// when the proof is inconsistent with `root`.
///
/// # Errors
///
/// [`ProofError::MissingNode`] if no proof node hashes to a reference
/// on the path — nodes are looked up by their hash, so a node that does
/// not match its reference is missing; [`ProofError::MalformedNode`] if
/// a node fails to decode or has an invalid shape.
pub fn verify_proof(
    root: B256,
    key: &[u8],
    proof: &[Vec<u8>],
) -> Result<Option<Vec<u8>>, ProofError> {
    if root == EMPTY_ROOT {
        return Ok(None);
    }
    let mut by_hash = std::collections::HashMap::new();
    for node in proof {
        by_hash.insert(keccak256(node), node.as_slice());
    }
    let nibbles = bytes_to_nibbles(key);
    let mut expected = root;
    let mut path: &[u8] = &nibbles;
    loop {
        let encoded = *by_hash.get(&expected).ok_or(ProofError::MissingNode)?;
        let mut item = rlp::decode(encoded).map_err(|_| ProofError::MalformedNode)?;
        // Walk inline (embedded) nodes without re-hashing.
        loop {
            let list = item.as_list().map_err(|_| ProofError::MalformedNode)?;
            match list.len() {
                2 => {
                    let hp = list[0].as_bytes().map_err(|_| ProofError::MalformedNode)?;
                    let (npath, is_leaf) =
                        hex_prefix_decode(hp).ok_or(ProofError::MalformedNode)?;
                    if is_leaf {
                        let value =
                            list[1].as_bytes().map_err(|_| ProofError::MalformedNode)?;
                        if npath == path {
                            return Ok(Some(value.to_vec()));
                        }
                        return Ok(None);
                    }
                    // Extension.
                    if path.len() < npath.len() || path[..npath.len()] != npath[..] {
                        return Ok(None);
                    }
                    path = &path[npath.len()..];
                    match &list[1] {
                        rlp::RlpItem::Bytes(h) if h.len() == 32 => {
                            expected = B256::from_slice(h);
                            break;
                        }
                        inline @ rlp::RlpItem::List(_) => {
                            item = inline.clone();
                            continue;
                        }
                        _ => return Err(ProofError::MalformedNode),
                    }
                }
                17 => {
                    if path.is_empty() {
                        let value =
                            list[16].as_bytes().map_err(|_| ProofError::MalformedNode)?;
                        if value.is_empty() {
                            return Ok(None);
                        }
                        return Ok(Some(value.to_vec()));
                    }
                    let idx = path[0] as usize;
                    path = &path[1..];
                    match &list[idx] {
                        rlp::RlpItem::Bytes(h) if h.is_empty() => return Ok(None),
                        rlp::RlpItem::Bytes(h) if h.len() == 32 => {
                            expected = B256::from_slice(h);
                            break;
                        }
                        inline @ rlp::RlpItem::List(_) => {
                            item = inline.clone();
                            continue;
                        }
                        _ => return Err(ProofError::MalformedNode),
                    }
                }
                _ => return Err(ProofError::MalformedNode),
            }
        }
    }
}
