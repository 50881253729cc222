//! Per-seed scratch directories for tests and benches that touch disk.
//!
//! Everything a test or bench writes to disk must live under one
//! workspace-local scratch root (`target/scratch/`), so artifacts never
//! leak into the source tree, `/tmp`, or the host home directory — the
//! `scratch` gate in `tests/gates.rs` fails a test file that writes to
//! disk without one. A [`Scratch`] names a per-(test, seed) directory
//! beneath that root and cleans up by RAII:
//! removed when the owning test succeeds, preserved — with the path
//! printed — when it panics, so the on-disk evidence of a failure
//! survives for inspection.
//!
//! The root is resolved from the crate's compile-time manifest path
//! (never the process CWD), so the same test binary behaves identically
//! under `cargo test`, `cargo test --release`, and direct invocation.

use std::path::{Path, PathBuf};

/// Workspace root: walk up from this crate's manifest directory to the
/// directory holding `Cargo.lock`.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir;
        }
        if !dir.pop() {
            // No lockfile above the manifest: fall back to the manifest
            // directory itself (still inside the source checkout).
            return PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        }
    }
}

/// The shared scratch root every test/bench artifact must live under.
pub fn scratch_root() -> PathBuf {
    workspace_root().join("target").join("scratch")
}

/// A per-(name, seed) scratch directory with panic-aware cleanup.
///
/// # Examples
///
/// ```
/// use tape_sim::Scratch;
///
/// let scratch = Scratch::new("doc-example", 42);
/// let file = scratch.path().join("data.bin");
/// std::fs::write(&file, b"artifact").unwrap();
/// assert!(file.exists());
/// // Dropped without a panic: the directory is removed.
/// ```
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    keep: bool,
}

impl Scratch {
    /// Creates (or wipes and recreates) `target/scratch/<name>-<seed>`.
    ///
    /// A leftover directory from a previously failed run is removed so
    /// every run starts from a clean slate.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — a scratch dir that
    /// silently lands elsewhere would defeat the hygiene contract.
    pub fn new(name: &str, seed: u64) -> Self {
        let root = scratch_root().join(format!("{name}-{seed:016x}"));
        if root.exists() {
            // Best-effort wipe; creation below surfaces real problems.
            let _ = std::fs::remove_dir_all(&root);
        }
        std::fs::create_dir_all(&root)
            .unwrap_or_else(|err| panic!("create scratch dir {}: {err}", root.display()));
        Scratch { root, keep: false }
    }

    /// The scratch directory; create all artifacts beneath it.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A path inside the scratch directory.
    pub fn join(&self, rel: impl AsRef<Path>) -> PathBuf {
        self.root.join(rel)
    }

    /// Preserve the directory on drop even without a panic (used by
    /// multi-process tests whose second process needs the artifacts).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.keep || std::thread::panicking() {
            eprintln!("scratch preserved for inspection: {}", self.root.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_lives_under_workspace_target() {
        let scratch = Scratch::new("sim-unit", 7);
        assert!(scratch.path().starts_with(scratch_root()));
        assert!(scratch.path().exists());
        std::fs::write(scratch.join("f"), b"x").expect("write artifact");
    }

    #[test]
    fn scratch_removed_on_clean_drop() {
        let path = {
            let scratch = Scratch::new("sim-unit-clean", 8);
            scratch.path().to_path_buf()
        };
        assert!(!path.exists(), "clean drop must remove {}", path.display());
    }

    #[test]
    fn kept_scratch_survives_drop() {
        let path = {
            let mut scratch = Scratch::new("sim-unit-keep", 9);
            scratch.keep();
            scratch.path().to_path_buf()
        };
        assert!(path.exists(), "kept scratch must survive");
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn fresh_run_wipes_leftovers() {
        let mut first = Scratch::new("sim-unit-wipe", 10);
        std::fs::write(first.join("stale"), b"old").expect("write");
        first.keep(); // simulate a preserved failure artifact
        let stale = first.join("stale");
        drop(first);
        assert!(stale.exists());
        let second = Scratch::new("sim-unit-wipe", 10);
        assert!(!second.join("stale").exists(), "leftovers must be wiped");
    }
}
