#![forbid(unsafe_code)]
//! # store — crash-safe, versioned run-state snapshots
//!
//! Long crowdsourced EM runs are dominated by marketplace latency and paid
//! for in unrecoverable crowd dollars: losing a multi-hour run to a crash
//! re-pays the whole label bill. This crate is the persistence layer the
//! engine writes through at iteration boundaries so a run can always be
//! resumed from its last checkpoint.
//!
//! ## The snapshot envelope
//!
//! Every snapshot file is a single JSON object:
//!
//! ```json
//! {
//!   "magic": "corleone.run-snapshot",
//!   "schema_version": 6,
//!   "fingerprint": "3b0c5e7a12f4d9e1",
//!   "checksum": "9f86d081884c7d65",
//!   "payload": { ... }
//! }
//! ```
//!
//! * `magic` rejects files that were never snapshots at all;
//! * `schema_version` makes incompatibility explicit — a reader refuses a
//!   snapshot written by a different schema rather than misinterpreting
//!   its fields;
//! * `fingerprint` (optional) names the run configuration the snapshot
//!   was written under (see [`read_snapshot_checked`]);
//! * `checksum` is an FNV-1a 64 hash of the payload's JSON bytes as
//!   written (`"payload":` is the envelope's last member), so a truncated,
//!   bit-flipped or re-formatted file fails loudly with
//!   [`StoreError::ChecksumMismatch`] instead of resuming from garbage.
//!
//! ## Crash safety
//!
//! Writes are atomic: the envelope is written to a `*.tmp` sibling, synced
//! to disk, and renamed over the final name. A crash mid-write leaves at
//! worst a stale `*.tmp` that readers never look at — the previous
//! snapshot survives intact. [`Snapshotter`] adds a keep-last-K retention
//! policy on top so checkpointing a long run does not grow the directory
//! without bound.
//!
//! ## Many runs under one root
//!
//! [`Snapshotter::for_run`] gives each run of a multi-run process (the
//! service layer's tenants) its own directory, `<root>/runs/<run_id>/`,
//! after checking that the id is a safe directory name. The directory is
//! the whole record of a run: there is no index file, and resuming a run
//! means opening its directory again and reading the newest snapshot.
//!
//! The payload type is generic: this crate knows nothing about engines or
//! crowds, only about getting a `serde` value to disk and back without
//! corruption. The engine-specific payload lives in
//! `corleone::snapshot::RunSnapshot`.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema version written into (and required from) every envelope.
///
/// v2: `BlockerReport` gained the `source` field (candidate-generation
/// strategy); v1 snapshots no longer decode and fail with a typed
/// [`StoreError::SchemaMismatch`] instead of a field error.
///
/// v3: feature *semantics* changed, not the layout — `tokenize::normalize`
/// switched to full Unicode lowercasing and Smith-Waterman normalizes by
/// the lower-cased scalar counts. Snapshots carry predictions and labels
/// derived from feature values, so resuming a v2 snapshot would silently
/// diverge from its uninterrupted run; a typed refusal is the contract.
///
/// v4: the envelope gained an optional `fingerprint` field — a hash of
/// the writer's run configuration, feature schema, and platform — so a
/// resume under a different `RunConfig` or feature schema refuses with a
/// typed [`StoreError::FingerprintMismatch`] instead of silently
/// diverging (see [`read_snapshot_checked`]).
///
/// v5: the run payload dropped its feature-cache image (runs no longer
/// own a cache). A v4 snapshot fails with a typed
/// [`StoreError::SchemaMismatch`].
///
/// v6: the run payload holds only what a resume reads — no serialized
/// forest, no second copy of the predictions beside the best estimate,
/// no wall-clock — so its bytes are a deterministic function of the
/// run's inputs. A v5 snapshot fails with a typed
/// [`StoreError::SchemaMismatch`].
pub const SCHEMA_VERSION: u32 = 6;

/// Magic string identifying a snapshot file.
pub const MAGIC: &str = "corleone.run-snapshot";

/// Snapshots retained by default by a [`Snapshotter`].
pub const DEFAULT_KEEP_LAST: usize = 3;

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure (open, write, sync, rename, list).
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        message: String,
    },
    /// The file is not a parseable snapshot envelope at all.
    Corrupt {
        /// Path involved.
        path: String,
        /// What failed while parsing.
        message: String,
    },
    /// The envelope was written under a different schema version.
    SchemaMismatch {
        /// Path involved.
        path: String,
        /// Version found in the file.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The payload does not hash to the recorded checksum — the file was
    /// truncated or corrupted after it was written.
    ChecksumMismatch {
        /// Path involved.
        path: String,
        /// Checksum recorded in the envelope.
        expected: String,
        /// Checksum of the payload as found.
        actual: String,
    },
    /// The payload parsed but does not decode into the requested type.
    Decode {
        /// Path involved.
        path: String,
        /// Decoder error text.
        message: String,
    },
    /// A resume was requested from a directory with no snapshots.
    NoSnapshots {
        /// Directory searched.
        dir: String,
    },
    /// The envelope's fingerprint does not match the reader's — the
    /// snapshot was written under a different run configuration, feature
    /// schema, or platform, and resuming it would silently diverge.
    FingerprintMismatch {
        /// Path involved.
        path: String,
        /// Fingerprint the reader expected.
        expected: String,
        /// Fingerprint recorded in the envelope (`None`: the envelope
        /// carries no fingerprint at all).
        found: Option<String>,
    },
    /// A run id unusable as a directory name (empty, `.`, `..`, or
    /// containing characters outside `[A-Za-z0-9._-]`).
    InvalidRunId {
        /// The offending id.
        run_id: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "snapshot I/O on {path}: {message}"),
            StoreError::Corrupt { path, message } => {
                write!(f, "corrupt snapshot {path}: {message}")
            }
            StoreError::SchemaMismatch { path, found, expected } => write!(
                f,
                "snapshot {path} has schema version {found}, this build reads {expected}"
            ),
            StoreError::ChecksumMismatch { path, expected, actual } => write!(
                f,
                "snapshot {path} failed checksum verification \
                 (recorded {expected}, computed {actual})"
            ),
            StoreError::Decode { path, message } => {
                write!(f, "snapshot {path} does not decode: {message}")
            }
            StoreError::NoSnapshots { dir } => {
                write!(f, "no snapshots found under {dir}")
            }
            StoreError::FingerprintMismatch { path, expected, found } => match found {
                Some(found) => write!(
                    f,
                    "snapshot {path} was written under a different run configuration \
                     (fingerprint {found}, this run is {expected}); resuming would \
                     silently diverge"
                ),
                None => write!(
                    f,
                    "snapshot {path} carries no run fingerprint but this reader \
                     requires {expected}; refusing to resume"
                ),
            },
            StoreError::InvalidRunId { run_id } => write!(
                f,
                "run id {run_id:?} is not usable as a directory name \
                 (need non-empty `[A-Za-z0-9._-]+`)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Hex-encode a 4-word RNG stream position for a snapshot payload.
///
/// The vendored `serde_json` routes every number through `f64`, which
/// silently loses precision for integers above 2^53 — and xoshiro state
/// words span the full `u64` range. Hex strings round-trip all 64 bits
/// exactly, so RNG positions (and any other full-range `u64`) must travel
/// as strings, never as JSON numbers.
pub fn encode_rng_state(state: [u64; 4]) -> [String; 4] {
    state.map(|w| format!("{w:016x}"))
}

/// Decode an RNG stream position written by [`encode_rng_state`].
pub fn decode_rng_state(words: &[String; 4]) -> Result<[u64; 4], StoreError> {
    let mut out = [0u64; 4];
    for (i, w) in words.iter().enumerate() {
        out[i] = u64::from_str_radix(w, 16).map_err(|e| StoreError::Decode {
            path: String::new(),
            message: format!("bad RNG state word {w:?}: {e}"),
        })?;
    }
    Ok(out)
}

/// Hex-encode one full-range `u64` (see [`encode_rng_state`] for why).
pub fn encode_u64(v: u64) -> String {
    format!("{v:016x}")
}

/// Decode a `u64` written by [`encode_u64`].
pub fn decode_u64(s: &str) -> Result<u64, StoreError> {
    u64::from_str_radix(s, 16).map_err(|e| StoreError::Decode {
        path: String::new(),
        message: format!("bad u64 hex {s:?}: {e}"),
    })
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and more than strong enough
/// to catch truncation and bit flips (this is integrity, not security).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Hex-rendered FNV-1a 64 of arbitrary bytes: the workspace's standard
/// content fingerprint. Used for the snapshot-envelope run fingerprint and
/// the service layer's content-addressed analysis cache keys.
pub fn fingerprint64(bytes: &[u8]) -> String {
    checksum_hex(bytes)
}

/// The envelope's last member key. The writer renders only `magic`,
/// `schema_version` and the hex `fingerprint` and `checksum` before it,
/// none of which holds it, so its first occurrence starts the payload.
const PAYLOAD_KEY: &str = "\"payload\":";

/// Serialize `payload` into a versioned, checksummed envelope and write it
/// to `path` atomically (temp file + rename), stamping the envelope with
/// `fingerprint` when given (see [`read_snapshot_checked`] for the
/// verification side). The parent directory must exist.
pub fn write_snapshot_tagged<T: Serialize>(
    path: &Path,
    payload: &T,
    fingerprint: Option<&str>,
) -> Result<(), StoreError> {
    let payload_json = serde_json::to_string(payload)
        .map_err(|e| StoreError::Decode { path: path.display().to_string(), message: e.to_string() })?;
    let fp_field = match fingerprint {
        Some(fp) => format!("\"fingerprint\":\"{fp}\","),
        None => String::new(),
    };
    // The payload goes last, so a reader finds the checksummed bytes
    // between `PAYLOAD_KEY` and the closing brace.
    let envelope = format!(
        "{{\"magic\":\"{MAGIC}\",\"schema_version\":{SCHEMA_VERSION},{fp_field}\
         \"checksum\":\"{}\",{PAYLOAD_KEY}{payload_json}}}",
        checksum_hex(payload_json.as_bytes()),
    );
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(envelope.as_bytes()).map_err(|e| io_err(&tmp, e))?;
        // Flush to the medium before the rename makes the file visible:
        // either the complete snapshot exists or it never appears.
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Read, verify, and decode a snapshot envelope written by
/// [`write_snapshot_tagged`]. Verification order: parse → magic → schema
/// version → fingerprint → checksum → payload decode, each failing with
/// its own typed error.
///
/// With `Some(expected_fingerprint)` the envelope must carry exactly that
/// run fingerprint. A missing or different fingerprint fails with
/// [`StoreError::FingerprintMismatch`] — the typed refusal that keeps a
/// resume under a different run configuration, feature schema, or
/// platform from silently diverging. With `None` the envelope's
/// fingerprint, if any, is not checked.
pub fn read_snapshot_checked<T: Deserialize>(
    path: &Path,
    expected_fingerprint: Option<&str>,
) -> Result<T, StoreError> {
    let p = path.display().to_string();
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let envelope: Value = serde_json::from_str(&text)
        .map_err(|e| StoreError::Corrupt { path: p.clone(), message: e.to_string() })?;
    match envelope.get("magic") {
        Some(Value::Str(m)) if m == MAGIC => {}
        _ => {
            return Err(StoreError::Corrupt {
                path: p,
                message: format!("missing or wrong magic (expected \"{MAGIC}\")"),
            })
        }
    }
    let found = match envelope.get("schema_version") {
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u32,
        _ => {
            return Err(StoreError::Corrupt {
                path: p,
                message: "missing or non-integer schema_version".to_string(),
            })
        }
    };
    if found != SCHEMA_VERSION {
        return Err(StoreError::SchemaMismatch { path: p, found, expected: SCHEMA_VERSION });
    }
    if let Some(expected_fp) = expected_fingerprint {
        let recorded = match envelope.get("fingerprint") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        if recorded.as_deref() != Some(expected_fp) {
            return Err(StoreError::FingerprintMismatch {
                path: p,
                expected: expected_fp.to_string(),
                found: recorded,
            });
        }
    }
    let expected = match envelope.get("checksum") {
        Some(Value::Str(s)) => s.clone(),
        _ => {
            return Err(StoreError::Corrupt {
                path: p,
                message: "missing checksum".to_string(),
            })
        }
    };
    let payload = envelope.get("payload").ok_or_else(|| StoreError::Corrupt {
        path: p.clone(),
        message: "missing payload".to_string(),
    })?;
    // The writer checksums the payload's bytes exactly as it puts them
    // after `PAYLOAD_KEY`, up to the envelope's closing brace. Hashing that
    // span as stored catches any change to it, whitespace included; a
    // file not laid out that way hashes the empty span and mismatches.
    let stored = text
        .find(PAYLOAD_KEY)
        .and_then(|at| text[at + PAYLOAD_KEY.len()..].trim_end().strip_suffix('}'))
        .unwrap_or("");
    let actual = checksum_hex(stored.as_bytes());
    if actual != expected {
        return Err(StoreError::ChecksumMismatch { path: p, expected, actual });
    }
    T::from_json_value(payload)
        .map_err(|e| StoreError::Decode { path: p, message: e.to_string() })
}

/// Sequence-numbered snapshot files in one directory with keep-last-K
/// retention. File names are `snap-<seq, zero-padded>.json`, so
/// lexicographic order is sequence order.
#[derive(Debug, Clone)]
pub struct Snapshotter {
    dir: PathBuf,
    keep_last: usize,
    fingerprint: Option<String>,
}

impl Snapshotter {
    /// Open (creating if needed) a snapshot directory, with the default
    /// retention of [`DEFAULT_KEEP_LAST`].
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(Snapshotter { dir, keep_last: DEFAULT_KEEP_LAST, fingerprint: None })
    }

    /// Open (creating if needed) the snapshot directory of run `run_id`
    /// under a multi-run root: `<root>/runs/<run_id>/`. The id becomes a
    /// directory name, so anything outside `[A-Za-z0-9._-]+`, and the
    /// `.`/`..` traversal names, fail with [`StoreError::InvalidRunId`]
    /// before any directory is created.
    pub fn for_run(root: &Path, run_id: &str) -> Result<Self, StoreError> {
        if !valid_run_id(run_id) {
            return Err(StoreError::InvalidRunId { run_id: run_id.to_string() });
        }
        Self::create(root.join("runs").join(run_id))
    }

    /// Retain only the newest `k` snapshots after each write; `0` keeps
    /// everything.
    pub fn keep_last(mut self, k: usize) -> Self {
        self.keep_last = k;
        self
    }

    /// Stamp every written envelope with this run fingerprint (see
    /// [`write_snapshot_tagged`] / [`read_snapshot_checked`]).
    pub fn with_fingerprint(mut self, fp: impl Into<String>) -> Self {
        self.fingerprint = Some(fp.into());
        self
    }

    /// The directory snapshots are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path a given sequence number is (or would be) stored at.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:08}.json"))
    }

    /// Atomically write the snapshot for sequence number `seq`, then prune
    /// per the retention policy. Returns the path written.
    pub fn write<T: Serialize>(&self, seq: u64, payload: &T) -> Result<PathBuf, StoreError> {
        let path = self.path_for(seq);
        write_snapshot_tagged(&path, payload, self.fingerprint.as_deref())?;
        self.prune()?;
        Ok(path)
    }

    /// All snapshot paths, oldest first.
    pub fn list(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name.ends_with(".json") {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    /// The newest snapshot path, or a [`StoreError::NoSnapshots`] error.
    pub fn latest(&self) -> Result<PathBuf, StoreError> {
        self.list()?
            .pop()
            .ok_or_else(|| StoreError::NoSnapshots { dir: self.dir.display().to_string() })
    }

    fn prune(&self) -> Result<(), StoreError> {
        if self.keep_last == 0 {
            return Ok(());
        }
        let list = self.list()?;
        if list.len() > self.keep_last {
            for stale in &list[..list.len() - self.keep_last] {
                fs::remove_file(stale).map_err(|e| io_err(stale, e))?;
            }
        }
        Ok(())
    }
}

/// Run ids become directory names: restrict to a path-safe alphabet and
/// reject the `.`/`..` traversal names.
fn valid_run_id(id: &str) -> bool {
    !id.is_empty()
        && id != "."
        && id != ".."
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        name: String,
        xs: Vec<f64>,
        flag: bool,
        words: Vec<String>,
    }

    fn sample() -> Payload {
        Payload {
            name: "iteration-3".to_string(),
            xs: vec![0.1, -2.5, 1e-9, 42.0, f64::NAN],
            flag: true,
            words: vec!["quoted \"text\"".to_string(), "line\nbreak".to_string()],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    #[test]
    fn round_trip_preserves_payload() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        let back: Payload = read_snapshot_checked(&path, None).expect("read");
        assert_eq!(back.name, "iteration-3");
        assert_eq!(back.xs[..4], sample().xs[..4]);
        assert!(back.xs[4].is_nan(), "NaN survives via null");
        assert_eq!(back.words, sample().words);
        assert!(!dir.join("snap-00000001.json.tmp").exists(), "tmp cleaned up");
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_mismatch() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        let text = fs::read_to_string(&path).unwrap().replace("-2.5", "-2.6");
        fs::write(&path, text).unwrap();
        match read_snapshot_checked::<Payload>(&path, None) {
            Err(StoreError::ChecksumMismatch { expected, actual, .. }) => {
                assert_ne!(expected, actual)
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn reformatted_payload_is_a_checksum_mismatch() {
        // Whitespace inside the payload leaves its parsed value as it was,
        // but the checksum covers the bytes as written.
        let dir = tmp_dir("reformat");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        let text = fs::read_to_string(&path).unwrap();
        let spaced = text.replacen(",\"flag\":true", ", \"flag\": true", 1);
        assert_ne!(text, spaced, "payload layout changed; update the probe");
        fs::write(&path, spaced).unwrap();
        assert!(matches!(
            read_snapshot_checked::<Payload>(&path, None),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Nested {
        payload: Payload,
    }

    #[test]
    fn payload_holding_the_payload_key_round_trips() {
        // A string holding the envelope's last key, and a field named like
        // it: the checksummed span still starts at the envelope's own key.
        let dir = tmp_dir("payload-key");
        let path = dir.join("snap-00000001.json");
        let mut inner = sample();
        inner.name = "\"payload\":{\"x\":1}".to_string();
        inner.words.push("}\"payload\": ".to_string());
        let nested = Nested { payload: inner };
        write_snapshot_tagged(&path, &nested, None).expect("write");
        let back: Nested = read_snapshot_checked(&path, None).expect("read");
        assert_eq!(back.payload.name, nested.payload.name);
        assert_eq!(back.payload.words, nested.payload.words);
        // A change after the nested key is still caught.
        let text = fs::read_to_string(&path).unwrap().replace("-2.5", "-2.6");
        fs::write(&path, text).unwrap();
        assert!(matches!(
            read_snapshot_checked::<Nested>(&path, None),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_corrupt_not_a_panic() {
        let dir = tmp_dir("truncate");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            read_snapshot_checked::<Payload>(&path, None),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn wrong_schema_version_is_typed() {
        let dir = tmp_dir("version");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":99");
        fs::write(&path, text).unwrap();
        match read_snapshot_checked::<Payload>(&path, None) {
            Err(StoreError::SchemaMismatch { found, expected, .. }) => {
                assert_eq!((found, expected), (99, SCHEMA_VERSION))
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_snapshot_json_is_rejected_by_magic() {
        let dir = tmp_dir("magic");
        let path = dir.join("snap-00000001.json");
        fs::write(&path, "{\"hello\": \"world\"}").unwrap();
        match read_snapshot_checked::<Payload>(&path, None) {
            Err(StoreError::Corrupt { message, .. }) => assert!(message.contains("magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io() {
        let dir = tmp_dir("missing");
        assert!(matches!(
            read_snapshot_checked::<Payload>(&dir.join("nope.json"), None),
            Err(StoreError::Io { .. })
        ));
    }

    #[test]
    fn wrong_payload_shape_is_decode() {
        let dir = tmp_dir("decode");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &vec![1.0f64, 2.0], None).expect("write");
        assert!(matches!(
            read_snapshot_checked::<Payload>(&path, None),
            Err(StoreError::Decode { .. })
        ));
    }

    #[test]
    fn snapshotter_retention_keeps_last_k() {
        let dir = tmp_dir("retention");
        let snap = Snapshotter::create(dir.join("ck")).expect("create").keep_last(3);
        for seq in 1..=7u64 {
            snap.write(seq, &sample()).expect("write");
        }
        let list = snap.list().expect("list");
        assert_eq!(list.len(), 3);
        assert_eq!(snap.latest().expect("latest"), snap.path_for(7));
        assert!(list[0].ends_with("snap-00000005.json"), "{list:?}");
        // Retained snapshots all still verify.
        for p in &list {
            read_snapshot_checked::<Payload>(p, None).expect("retained snapshot valid");
        }
    }

    #[test]
    fn keep_last_zero_keeps_everything() {
        let dir = tmp_dir("keepall");
        let snap = Snapshotter::create(dir.join("ck")).expect("create").keep_last(0);
        for seq in 1..=5u64 {
            snap.write(seq, &sample()).expect("write");
        }
        assert_eq!(snap.list().expect("list").len(), 5);
    }

    #[test]
    fn empty_dir_latest_is_no_snapshots() {
        let dir = tmp_dir("empty");
        let snap = Snapshotter::create(dir.join("ck")).expect("create");
        assert!(matches!(snap.latest(), Err(StoreError::NoSnapshots { .. })));
    }

    #[test]
    fn overwriting_same_seq_is_atomic_replace() {
        let dir = tmp_dir("overwrite");
        let snap = Snapshotter::create(dir.join("ck")).expect("create");
        snap.write(1, &sample()).expect("first");
        let mut other = sample();
        other.name = "rewritten".to_string();
        snap.write(1, &other).expect("second");
        let back: Payload = read_snapshot_checked(&snap.path_for(1), None).expect("read");
        assert_eq!(back.name, "rewritten");
        assert_eq!(snap.list().expect("list").len(), 1);
    }

    #[test]
    fn rng_state_hex_round_trips_full_u64_range() {
        // Values above 2^53 are exactly where the f64 number path loses
        // bits — the hex codec must not.
        let state = [u64::MAX, 0, 1 << 63, 0x0123_4567_89AB_CDEF];
        let enc = encode_rng_state(state);
        assert_eq!(decode_rng_state(&enc).expect("decode"), state);
        assert_eq!(decode_u64(&encode_u64(u64::MAX)).expect("u64"), u64::MAX);
        assert!(decode_u64("not-hex").is_err());
    }

    #[test]
    fn fingerprint_tag_round_trips_and_mismatch_is_typed() {
        let dir = tmp_dir("fingerprint");
        let path = dir.join("snap-00000001.json");
        let fp = fingerprint64(b"config+schema+platform");
        write_snapshot_tagged(&path, &sample(), Some(&fp)).expect("write");
        // Checked read with the matching fingerprint succeeds; a read
        // expecting no fingerprint ignores the tag entirely.
        let back: Payload = read_snapshot_checked(&path, Some(&fp)).expect("checked read");
        assert_eq!(back.name, "iteration-3");
        assert_eq!(back.words, sample().words);
        let _: Payload = read_snapshot_checked(&path, None).expect("untagged read");
        // A different expected fingerprint refuses with the typed error.
        match read_snapshot_checked::<Payload>(&path, Some("deadbeef00000000")) {
            Err(StoreError::FingerprintMismatch { expected, found, .. }) => {
                assert_eq!(expected, "deadbeef00000000");
                assert_eq!(found.as_deref(), Some(fp.as_str()));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn untagged_snapshot_refuses_checked_read() {
        let dir = tmp_dir("fingerprint-missing");
        let path = dir.join("snap-00000001.json");
        write_snapshot_tagged(&path, &sample(), None).expect("write");
        match read_snapshot_checked::<Payload>(&path, Some("aa11")) {
            Err(StoreError::FingerprintMismatch { found, .. }) => assert_eq!(found, None),
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn snapshotter_fingerprint_applies_to_every_write() {
        let dir = tmp_dir("fingerprint-snap");
        let snap = Snapshotter::create(dir.join("ck"))
            .expect("create")
            .with_fingerprint("feedface01020304");
        snap.write(1, &sample()).expect("write");
        let _: Payload =
            read_snapshot_checked(&snap.path_for(1), Some("feedface01020304")).expect("checked");
        assert!(matches!(
            read_snapshot_checked::<Payload>(&snap.path_for(1), Some("other")),
            Err(StoreError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn for_run_rejects_unsafe_run_ids_before_touching_disk() {
        let dir = tmp_dir("for-run-bad");
        for bad in ["", ".", "..", "a/b", "a b", "x\u{e9}"] {
            assert!(
                matches!(
                    Snapshotter::for_run(&dir, bad),
                    Err(StoreError::InvalidRunId { run_id }) if run_id == bad
                ),
                "id {bad:?} should be rejected"
            );
        }
        assert!(!dir.join("runs").exists(), "a rejected id created a directory");
    }

    #[test]
    fn for_run_scopes_a_run_under_root_runs() {
        let dir = tmp_dir("for-run");
        let snap = Snapshotter::for_run(&dir, "tenant-a.1_b").expect("valid id");
        assert_eq!(snap.dir(), dir.join("runs").join("tenant-a.1_b"));
        assert!(snap.dir().is_dir(), "the run directory is created");
        assert!(matches!(snap.latest(), Err(StoreError::NoSnapshots { .. })));
        snap.write(0, &sample()).expect("write");
        let reopened = Snapshotter::for_run(&dir, "tenant-a.1_b").expect("reopen");
        assert_eq!(reopened.latest().expect("latest"), snap.path_for(0));
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = StoreError::SchemaMismatch { path: "x.json".into(), found: 2, expected: 1 };
        assert!(e.to_string().contains("schema version 2"));
        let c = StoreError::ChecksumMismatch {
            path: "x.json".into(),
            expected: "aa".into(),
            actual: "bb".into(),
        };
        assert!(c.to_string().contains("checksum"));
        assert!(StoreError::NoSnapshots { dir: "d".into() }.to_string().contains("no snapshots"));
    }
}
