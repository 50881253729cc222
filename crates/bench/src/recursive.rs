//! Recursive Path ORAM: the position map stored in higher-level ORAMs
//! (paper §II-C: "The position map can be stored in higher-level ORAMs
//! recursively if it is too big").
//!
//! For the paper's 1.1 TB world state (n ≈ 10⁹ blocks) a flat position
//! map needs ~8 GB — far beyond on-chip memory. Recursion packs 128
//! leaf pointers per 1 KB map block, shrinking the map by 128× per
//! level until the top level fits on-chip. Every level is a full Path
//! ORAM sharing the same wire format, so the adversary still sees only
//! uniformly random path accesses.
//!
//! The address space is dense (`0..capacity`): the paged world state
//! assigns page indices at (public) block-sync time, so the index
//! dictionary is public data and needs no protection.

use tape_oram::{OramClient, OramConfig, OramError, OramServer};
use std::collections::HashMap;
use tape_crypto::{Keccak256, SecureRng};
use tape_primitives::B256;
use tape_sim::{Clock, CostModel};

/// Pointers per map block: `block_size / 8`.
fn entries_per_block(config: &OramConfig) -> u64 {
    (config.block_size / 8) as u64
}

fn level_block_id(level: usize, index: u64) -> B256 {
    let mut h = Keccak256::new();
    h.update(b"recursive-oram");
    h.update(&(level as u64).to_be_bytes());
    h.update(&index.to_be_bytes());
    h.finalize()
}

struct Level {
    client: OramClient,
    server: OramServer,
}

/// A recursive Path ORAM over a dense index space.
///
/// Level 0 stores the data blocks; level `k` stores the position map of
/// level `k-1`, packed as big-endian `leaf + 1` entries (0 = absent).
/// The top level's position map is small enough to live on-chip.
///
/// # Examples
///
/// ```
/// use tape_bench::recursive::RecursiveOram;
/// use tape_crypto::SecureRng;
/// use tape_oram::OramConfig;
/// use tape_sim::{Clock, CostModel};
///
/// let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 8 };
/// let mut oram = RecursiveOram::new(
///     config,
///     1 << 8,  // capacity: 256 data blocks
///     4,       // at most 4 on-chip map entries -> forces recursion
///     &[0u8; 16],
///     SecureRng::from_seed(b"doc"),
/// );
/// let (clock, cost) = (Clock::new(), CostModel::default());
/// oram.write(&clock, &cost, 42, vec![7u8; 64])?;
/// assert_eq!(oram.read(&clock, &cost, 42)?, Some(vec![7u8; 64]));
/// assert!(oram.levels() >= 2); // recursion actually engaged
/// # Ok::<(), tape_oram::OramError>(())
/// ```
pub struct RecursiveOram {
    levels: Vec<Level>,
    /// Positions of the top level's blocks (the only map held on-chip).
    top_map: HashMap<u64, u64>,
    capacity: u64,
}

impl core::fmt::Debug for RecursiveOram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RecursiveOram")
            .field("levels", &self.levels.len())
            .field("capacity", &self.capacity)
            .field("top_map", &self.top_map.len())
            .finish()
    }
}

impl RecursiveOram {
    /// Builds the level stack: data at level 0, then map levels until at
    /// most `on_chip_limit` entries remain for the on-chip map.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `on_chip_limit` is zero.
    pub fn new(
        data_config: OramConfig,
        capacity: u64,
        on_chip_limit: u64,
        key: &[u8; 16],
        mut rng: SecureRng,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(on_chip_limit > 0, "on-chip limit must be positive");
        let packing = entries_per_block(&data_config);
        assert!(packing >= 2, "block size too small to pack pointers");

        let mut levels = Vec::new();
        let mut blocks = capacity;
        let mut config = data_config;
        loop {
            let level_rng = SecureRng::from_seed(&{
                let mut seed = Vec::from(&b"recursive-level"[..]);
                seed.extend_from_slice(&(levels.len() as u64).to_be_bytes());
                let mut base = [0u8; 32];
                rng.fill_bytes(&mut base);
                seed.extend_from_slice(&base);
                seed
            });
            levels.push(Level {
                server: OramServer::new(config.clone()),
                client: OramClient::new(config.clone(), key, level_rng),
            });
            if blocks <= on_chip_limit {
                break;
            }
            blocks = blocks.div_ceil(packing);
            // Map levels shrink: a tree with ~blocks/Z leaves suffices.
            let needed_leaves = blocks.div_ceil(config.bucket_capacity as u64).max(2);
            let height = 64 - (needed_leaves - 1).leading_zeros();
            config = OramConfig { height: height.max(2), ..config };
        }
        let _ = rng; // consumed above to seed the per-level RNGs
        RecursiveOram { levels, top_map: HashMap::new(), capacity }
    }

    /// Number of ORAM levels (1 = no recursion engaged).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Total server queries across every level (each data access costs
    /// one query per level — the classic recursion overhead).
    pub fn total_queries(&self) -> u64 {
        self.levels.iter().map(|l| l.server.queries()).sum()
    }

    /// Reads data block `index`.
    ///
    /// # Errors
    ///
    /// [`OramError`] on tampering.
    ///
    /// # Panics
    ///
    /// Panics if `index` is beyond the capacity.
    pub fn read(
        &mut self,
        clock: &Clock,
        cost: &CostModel,
        index: u64,
    ) -> Result<Option<Vec<u8>>, OramError> {
        self.access(clock, cost, index, None)
    }

    /// Writes data block `index`, returning the previous contents.
    ///
    /// # Errors
    ///
    /// [`OramError`] on tampering or a wrong block size.
    ///
    /// # Panics
    ///
    /// Panics if `index` is beyond the capacity.
    pub fn write(
        &mut self,
        clock: &Clock,
        cost: &CostModel,
        index: u64,
        data: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, OramError> {
        let expected = self.levels[0].client.config().block_size;
        if data.len() != expected {
            return Err(OramError::BadBlockSize { expected, actual: data.len() });
        }
        self.access(clock, cost, index, Some(data))
    }

    fn access(
        &mut self,
        clock: &Clock,
        cost: &CostModel,
        index: u64,
        new_data: Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>, OramError> {
        assert!(index < self.capacity, "index {index} out of range (capacity {})", self.capacity);
        let depth = self.levels.len();
        let packing = entries_per_block(self.levels[0].client.config());

        // Block index at each level.
        let mut idx = vec![0u64; depth];
        idx[0] = index;
        for k in 1..depth {
            idx[k] = idx[k - 1] / packing;
        }

        // Fresh leaves for every level's accessed block.
        let new_leaf: Vec<u64> =
            (0..depth).map(|k| self.levels[k].client.random_leaf()).collect();

        // Top level: the on-chip map supplies (and receives) the leaf.
        let top = depth - 1;
        let mut cur_leaf: Option<u64> = self.top_map.get(&idx[top]).copied();
        self.top_map.insert(idx[top], new_leaf[top]);

        // Walk down through the map levels, reading the child pointer and
        // installing the child's fresh leaf in one access.
        for k in (1..depth).rev() {
            let level = &mut self.levels[k];
            let old_leaf = match cur_leaf {
                Some(leaf) => leaf,
                // Absent map block: dummy-read a random path; the update
                // callback materializes the block.
                None => level.client.random_leaf(),
            };
            let entry = (idx[k - 1] % packing) as usize;
            let child_new = new_leaf[k - 1];
            let block_size = level.client.config().block_size;
            let mut child_old: Option<u64> = None;
            level.client.access_at(
                &mut level.server,
                clock,
                cost,
                &level_block_id(k, idx[k]),
                old_leaf,
                new_leaf[k],
                |block| {
                    let page = block.get_or_insert_with(|| vec![0u8; block_size]);
                    let at = entry * 8;
                    let raw =
                        u64::from_be_bytes(page[at..at + 8].try_into().expect("in range"));
                    if raw != 0 {
                        child_old = Some(raw - 1);
                    }
                    page[at..at + 8].copy_from_slice(&(child_new + 1).to_be_bytes());
                },
            )?;
            cur_leaf = child_old;
        }

        // Level 0: the data itself.
        let level = &mut self.levels[0];
        let old_leaf = match cur_leaf {
            Some(leaf) => leaf,
            None => level.client.random_leaf(),
        };
        let was_present = cur_leaf.is_some();
        level.client.access_at(
            &mut level.server,
            clock,
            cost,
            &level_block_id(0, idx[0]),
            old_leaf,
            new_leaf[0],
            |block| match new_data {
                Some(data) => block.replace(data),
                None => block.clone(),
            },
        )
        .map(|old| if was_present { old } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RecursiveOram {
        /// Entries currently held in the on-chip top map.
        fn top_map_len(&self) -> usize {
            self.top_map.len()
        }

        /// The leaves observed by the adversary at every level,
        /// flattened — the complete wire view.
        fn observed_leaves(&self) -> Vec<(usize, u64)> {
            let mut out = Vec::new();
            for (k, level) in self.levels.iter().enumerate() {
                for access in level.server.observed() {
                    out.push((k, access.leaf));
                }
            }
            out
        }
    }

    fn oram(capacity: u64, on_chip: u64) -> (RecursiveOram, Clock, CostModel) {
        let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 8 };
        (
            RecursiveOram::new(config, capacity, on_chip, &[3u8; 16], SecureRng::from_seed(b"rec")),
            Clock::new(),
            CostModel::default(),
        )
    }

    #[test]
    fn level_sizing() {
        // 64-byte blocks pack 8 pointers. 4096 blocks / 8 = 512 / 8 = 64
        // / 8 = 8 <= 16 on-chip: levels = data + 3 maps.
        let (oram, _, _) = oram(4096, 16);
        assert_eq!(oram.levels(), 4);
        // Everything fits on-chip: single level.
        let (flat, _, _) = self::oram(10, 16);
        assert_eq!(flat.levels(), 1);
    }

    #[test]
    fn write_read_roundtrip_through_recursion() {
        let (mut oram, clock, cost) = oram(512, 4);
        assert!(oram.levels() >= 3);
        for i in 0..64u64 {
            assert_eq!(oram.write(&clock, &cost, i, vec![i as u8; 64]).unwrap(), None);
        }
        for i in (0..64u64).rev() {
            assert_eq!(
                oram.read(&clock, &cost, i).unwrap(),
                Some(vec![i as u8; 64]),
                "block {i}"
            );
        }
        // Unwritten indices read as absent.
        assert_eq!(oram.read(&clock, &cost, 300).unwrap(), None);
    }

    #[test]
    fn overwrite_returns_old() {
        let (mut oram, clock, cost) = oram(128, 4);
        oram.write(&clock, &cost, 7, vec![1u8; 64]).unwrap();
        let old = oram.write(&clock, &cost, 7, vec![2u8; 64]).unwrap();
        assert_eq!(old, Some(vec![1u8; 64]));
        assert_eq!(oram.read(&clock, &cost, 7).unwrap(), Some(vec![2u8; 64]));
    }

    #[test]
    fn on_chip_map_stays_bounded() {
        let (mut oram, clock, cost) = oram(4096, 16);
        for i in 0..256u64 {
            oram.write(&clock, &cost, i * 16, vec![0u8; 64]).unwrap();
        }
        // The on-chip map only tracks top-level blocks.
        assert!(
            oram.top_map_len() as u64 <= 16,
            "top map grew to {}",
            oram.top_map_len()
        );
    }

    #[test]
    fn each_access_costs_one_query_per_level() {
        let (mut oram, clock, cost) = oram(512, 4);
        let levels = oram.levels() as u64;
        let before = oram.total_queries();
        oram.write(&clock, &cost, 1, vec![0u8; 64]).unwrap();
        oram.read(&clock, &cost, 1).unwrap();
        assert_eq!(oram.total_queries() - before, 2 * levels);
    }

    #[test]
    fn leaves_remain_uniform_under_hammering() {
        let (mut oram, clock, cost) = oram(512, 4);
        oram.write(&clock, &cost, 5, vec![9u8; 64]).unwrap();
        for _ in 0..400 {
            oram.read(&clock, &cost, 5).unwrap();
        }
        // Data-level (level 0, height 8) leaves must span the space.
        let leaves: Vec<u64> = oram
            .observed_leaves()
            .into_iter()
            .filter(|(k, _)| *k == 0)
            .map(|(_, l)| l)
            .collect();
        let distinct: std::collections::HashSet<_> = leaves.iter().collect();
        assert!(distinct.len() > 100, "only {} distinct leaves", distinct.len());
        let mean = leaves.iter().sum::<u64>() as f64 / leaves.len() as f64;
        let uniform = 255.0 / 2.0 * 2.0; // 2^8 leaves -> mean ~127.5... adjusted below
        let expected = ((1u64 << 8) - 1) as f64 / 2.0;
        assert!((mean - expected).abs() < expected * 0.25, "mean {mean} vs {expected}");
        let _ = uniform;
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let (mut oram, clock, cost) = oram(256, 4);
            for i in 0..32u64 {
                oram.write(&clock, &cost, i, vec![i as u8; 64]).unwrap();
            }
            oram.observed_leaves()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod stash_probe {
    use super::*;

    #[test]
    fn map_level_stash_under_full_occupancy() {
        let config = OramConfig { block_size: 64, bucket_capacity: 4, height: 8 };
        let mut oram = RecursiveOram::new(config, 4096, 16, &[3u8; 16], SecureRng::from_seed(b"probe"));
        let (clock, cost) = (Clock::new(), CostModel::default());
        for i in 0..4096u64 {
            oram.write(&clock, &cost, i, vec![1u8; 64]).unwrap();
            if i % 512 == 511 {
                for (k, level) in oram.levels.iter().enumerate() {
                    eprintln!("after {} writes: level {} height {} leaves {} max_stash {}",
                        i + 1, k, level.client.config().height,
                        level.client.config().leaves(), level.client.max_stash_seen());
                }
            }
        }
        // extra accesses after full occupancy
        for i in 0..2048u64 {
            oram.read(&clock, &cost, i * 2).unwrap();
        }
        for (k, level) in oram.levels.iter().enumerate() {
            eprintln!("final: level {} max_stash {}", k, level.client.max_stash_seen());
        }
    }
}
