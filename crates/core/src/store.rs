//! An on-disk, content-addressed artifact store (the cache's warm layer).
//!
//! The in-memory [`LruCache`](crate::cache::LruCache) dies with its
//! process; this module persists compiled artifacts under a directory so a
//! restarted daemon answers repeat requests warm. The design follows the
//! cache-not-database rule: every file is self-verifying and disposable.
//!
//! * **Addressing.** One file per [`CacheKey`] (graph digest + options
//!   fingerprint) at `root/<first two hex chars>/<48-hex-key>.artifact` —
//!   the two-char fan-out keeps directories small at millions of entries.
//! * **Commit.** Writes go to a temp file in the same directory and are
//!   `rename`d into place, so readers only ever observe absent or complete
//!   files — never a torn write.
//! * **Verification.** Each file carries an FNV-1a checksum over its
//!   entire payload (header included) plus the key it was written for.
//!   Truncation, bit flips, and files copied to the wrong key all fail
//!   closed: [`ArtifactStore::load`] reports [`StoreLookup::Corrupt`] and
//!   the caller recompiles. Loads never panic on hostile bytes.
//! * **Eviction.** None, by design. The store is content-addressed and
//!   every entry is re-creatable, so deleting any file (or the whole tree)
//!   at any time — by hand, by `tmpwatch`, by a cron job — is safe and is
//!   the supported way to bound its size.
//!
//! Counter snapshots ([`StoreCounters`]) feed the daemon's `stats`
//! response, which is how tests and CI assert that a restart actually
//! served from disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{fnv128, CacheKey};

/// Magic first line of every artifact file; bump the version when the
/// layout changes so older daemons treat newer files as corrupt misses
/// instead of misparsing them.
const MAGIC: &str = "plim-store v1";

/// One compiled artifact as persisted and served: the compile response's
/// cacheable half (everything except the per-request `cached` flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredArtifact {
    /// `#I` of the compiled program.
    pub instructions: u64,
    /// `#R` of the compiled program.
    pub rams: u64,
    /// The largest per-cell write count of one execution.
    pub max_cell_writes: u64,
    /// The emitted artifact text, exactly as `plimc` prints it.
    pub output: String,
}

impl StoredArtifact {
    /// In-memory cache weight: the artifact body plus bookkeeping.
    pub fn weight(&self) -> usize {
        self.output.len() + 64
    }
}

/// The outcome of an [`ArtifactStore::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreLookup {
    /// The artifact was on disk and verified.
    Hit(StoredArtifact),
    /// No artifact for this key.
    Miss,
    /// A file exists but failed verification; the payload is a one-line
    /// diagnostic for the daemon's log. Treat as a miss and recompile.
    Corrupt(String),
}

/// A point-in-time snapshot of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Loads that returned a verified artifact.
    pub hits: u64,
    /// Loads with no file for the key.
    pub misses: u64,
    /// Loads that found a file but rejected it.
    pub corrupt: u64,
    /// Artifacts committed to disk.
    pub writes: u64,
}

/// A directory of self-verifying compiled artifacts. See the
/// [module docs](self) for layout and guarantees.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    tmp_serial: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, String> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("creating store directory {}: {e}", root.display()))?;
        Ok(ArtifactStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_serial: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the hit/miss/corrupt/write counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.artifact"))
    }

    /// Loads and verifies the artifact stored for `key`, counting the
    /// outcome. Never panics on malformed files.
    pub fn load(&self, key: &CacheKey) -> StoreLookup {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return StoreLookup::Miss;
            }
            Err(error) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return StoreLookup::Corrupt(format!("reading {}: {error}", path.display()));
            }
        };
        match decode(&bytes, &key.hex()) {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                StoreLookup::Hit(artifact)
            }
            Err(reason) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                StoreLookup::Corrupt(format!("{}: {reason}", path.display()))
            }
        }
    }

    /// Commits `artifact` for `key`: temp file, then atomic rename.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on IO failure (the daemon logs it and
    /// keeps serving — a failed write-through only costs warmth).
    pub fn save(&self, key: &CacheKey, artifact: &StoredArtifact) -> Result<(), String> {
        let path = self.path_for(key);
        let dir = path.parent().expect("artifact paths always have a parent");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // Unique per process *and* per call: concurrent workers committing
        // the same key must not scribble on each other's temp file.
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_serial.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = encode(&key.hex(), artifact);
        let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                let _ = std::fs::remove_file(&tmp);
                Err(format!("persisting {}: {error}", path.display()))
            }
        }
    }
}

/// File layout (all-ASCII header, then raw artifact bytes):
///
/// ```text
/// plim-store v1\n
/// checksum <32 hex: fnv128 of everything after this line>\n
/// key <48 hex>\n
/// instructions <u64>\n
/// rams <u64>\n
/// max_cell_writes <u64>\n
/// output <byte length>\n
/// <output bytes>
/// ```
fn encode(key_hex: &str, artifact: &StoredArtifact) -> Vec<u8> {
    let body = format!(
        "key {key_hex}\ninstructions {}\nrams {}\nmax_cell_writes {}\noutput {}\n",
        artifact.instructions,
        artifact.rams,
        artifact.max_cell_writes,
        artifact.output.len(),
    );
    let mut payload = body.into_bytes();
    payload.extend_from_slice(artifact.output.as_bytes());
    let mut file = format!("{MAGIC}\nchecksum {:032x}\n", fnv128(&payload)).into_bytes();
    file.extend_from_slice(&payload);
    file
}

fn decode(bytes: &[u8], expected_key: &str) -> Result<StoredArtifact, String> {
    let rest = bytes
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|rest| rest.strip_prefix(b"\n"))
        .ok_or("not a plim-store v1 file")?;
    let rest = rest
        .strip_prefix(b"checksum ")
        .ok_or("missing checksum line")?;
    let (checksum_hex, payload) = split_line(rest).ok_or("truncated checksum line")?;
    // Byte-exact against the canonical lowercase encoding — a lenient
    // parse would accept `A` for `a` and so miss single-bit flips inside
    // the checksum line itself (the one line the checksum cannot cover).
    if checksum_hex != format!("{:032x}", fnv128(payload)).as_bytes() {
        return Err("checksum mismatch (truncated or bit-flipped)".to_string());
    }
    // The payload is now integrity-checked; what remains can still be an
    // artifact faithfully stored for a *different* key (file renamed or
    // copied), which the key line catches.
    let rest = payload.strip_prefix(b"key ").ok_or("missing key line")?;
    let (key, rest) = split_line(rest).ok_or("truncated key line")?;
    if key != expected_key.as_bytes() {
        return Err(format!(
            "artifact key mismatch: file was written for {}",
            String::from_utf8_lossy(key)
        ));
    }
    let (instructions, rest) = header_number(rest, "instructions")?;
    let (rams, rest) = header_number(rest, "rams")?;
    let (max_cell_writes, rest) = header_number(rest, "max_cell_writes")?;
    let (output_len, rest) = header_number(rest, "output")?;
    let output_len = usize::try_from(output_len).map_err(|_| "output length overflows")?;
    if rest.len() != output_len {
        return Err(format!(
            "output length mismatch: header says {output_len}, file carries {}",
            rest.len()
        ));
    }
    let output = std::str::from_utf8(rest)
        .map_err(|_| "output is not UTF-8")?
        .to_string();
    Ok(StoredArtifact {
        instructions,
        rams,
        max_cell_writes,
        output,
    })
}

/// Splits at the first newline; `None` when there is none.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let pos = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..pos], &bytes[pos + 1..]))
}

fn header_number<'a>(bytes: &'a [u8], name: &str) -> Result<(u64, &'a [u8]), String> {
    let rest = bytes
        .strip_prefix(name.as_bytes())
        .and_then(|rest| rest.strip_prefix(b" "))
        .ok_or_else(|| format!("missing {name} line"))?;
    let (digits, rest) = split_line(rest).ok_or_else(|| format!("truncated {name} line"))?;
    let value = std::str::from_utf8(digits)
        .ok()
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| format!("{name} is not a number"))?;
    Ok((value, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "plim-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (CacheKey, StoredArtifact) {
        (
            CacheKey::new(0xDAC2016_u128 << 64 | 0xBEEF, 0x1234_5678),
            StoredArtifact {
                instructions: 42,
                rams: 7,
                max_cell_writes: 9,
                output: "01: 0, 1, @X1\n02: 1, 0, @X2\n".to_string(),
            },
        )
    }

    #[test]
    fn round_trips_and_counts() {
        let store = ArtifactStore::open(scratch_dir("roundtrip")).unwrap();
        let (key, artifact) = sample();
        assert_eq!(store.load(&key), StoreLookup::Miss);
        store.save(&key, &artifact).unwrap();
        assert_eq!(store.load(&key), StoreLookup::Hit(artifact));
        let counters = store.counters();
        assert_eq!((counters.hits, counters.misses, counters.writes), (1, 1, 1));
        assert_eq!(counters.corrupt, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_second_store_on_the_same_directory_reads_the_first_ones_writes() {
        let dir = scratch_dir("restart");
        let (key, artifact) = sample();
        ArtifactStore::open(&dir)
            .unwrap()
            .save(&key, &artifact)
            .unwrap();
        // A "restarted daemon": fresh handle, warm directory.
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.load(&key), StoreLookup::Hit(artifact));
        assert_eq!(store.counters().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_length_is_rejected_not_served() {
        let store = ArtifactStore::open(scratch_dir("truncate")).unwrap();
        let (key, artifact) = sample();
        store.save(&key, &artifact).unwrap();
        let path = store.path_for(&key);
        let full = std::fs::read(&path).unwrap();
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            match store.load(&key) {
                StoreLookup::Corrupt(_) => {}
                other => panic!("truncation to {len} bytes produced {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_single_bit_flip_is_rejected_not_served() {
        let store = ArtifactStore::open(scratch_dir("bitflip")).unwrap();
        let (key, artifact) = sample();
        store.save(&key, &artifact).unwrap();
        let path = store.path_for(&key);
        let full = std::fs::read(&path).unwrap();
        for position in 0..full.len() {
            for bit in 0..8 {
                let mut flipped = full.clone();
                flipped[position] ^= 1 << bit;
                std::fs::write(&path, &flipped).unwrap();
                match store.load(&key) {
                    StoreLookup::Corrupt(_) => {}
                    StoreLookup::Hit(served) => {
                        panic!("bit {bit} of byte {position} flipped, yet served {served:?}")
                    }
                    StoreLookup::Miss => panic!("file exists; flip cannot be a miss"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn an_artifact_copied_to_another_key_is_a_key_mismatch() {
        let store = ArtifactStore::open(scratch_dir("wrongkey")).unwrap();
        let (key, artifact) = sample();
        store.save(&key, &artifact).unwrap();
        // Simulate an operator (or attacker) copying a perfectly valid
        // file over another key's slot: checksum passes, key must not.
        let other = CacheKey::new(0xFEED, 0xFACE);
        let other_path = store.path_for(&other);
        std::fs::create_dir_all(other_path.parent().unwrap()).unwrap();
        std::fs::copy(store.path_for(&key), &other_path).unwrap();
        match store.load(&other) {
            StoreLookup::Corrupt(reason) => {
                assert!(reason.contains("key mismatch"), "{reason}");
            }
            other => panic!("wrong-key file produced {other:?}"),
        }
        // The original is untouched and still serves.
        assert!(matches!(store.load(&key), StoreLookup::Hit(_)));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn hostile_garbage_files_never_panic() {
        let store = ArtifactStore::open(scratch_dir("garbage")).unwrap();
        let (key, _) = sample();
        let path = store.path_for(&key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let hostile: [&[u8]; 7] = [
            b"",
            b"\xff\xfe\x00",
            b"plim-store v1",
            b"plim-store v1\nchecksum zzzz\n",
            b"plim-store v2\nchecksum 0\n",
            b"plim-store v1\nchecksum 00000000000000000000000000000000\n",
            b"plim-store v1\nchecksum 6c62272e07bb014262b821756295c58d\n",
        ];
        for bytes in hostile {
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(store.load(&key), StoreLookup::Corrupt(_)),
                "{bytes:?} was not rejected"
            );
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn weight_matches_the_in_memory_cache_accounting() {
        let (_, artifact) = sample();
        assert_eq!(artifact.weight(), artifact.output.len() + 64);
    }
}
