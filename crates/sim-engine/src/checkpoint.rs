//! Checkpoint/resume for [`ScenarioRunner`] sweeps.
//!
//! Long experiment grids (TPM training sweeps, the Table IV incast
//! ratios, the Fig. 10 intensity classes) are embarrassingly parallel
//! sets of *pure* cells: every cell's result is a function of
//! `(base_seed, cell_index)` and the sweep configuration only. That
//! purity makes durable progress free — a completed cell never has to
//! be recomputed, at any thread count, because recomputing it would
//! produce byte-identical output.
//!
//! # Manifest format
//!
//! A sweep manifest is a JSON-lines file next to the trace output. The
//! first line identifies the sweep; every following line is one
//! completed cell:
//!
//! ```text
//! {"kind":"sweep-manifest","version":1,"base_seed":42,"n_cells":8,"tag":…}
//! {"kind":"cell","index":3,"seed":…,"digest":…,"wall_ms":12,"payload":…}
//! ```
//!
//! * `tag` is an FNV-1a hash of a caller-supplied configuration
//!   fingerprint. [`CheckpointSpec::from_env`] also embeds it in the
//!   file name, so changing the sweep configuration (or seed) starts a
//!   fresh manifest instead of colliding with a stale one.
//! * `seed` is the canonical [`cell_seed`] derivation for the cell —
//!   informational; callers with a legacy pure-per-index derivation
//!   still conform.
//! * `digest` is FNV-1a over the serialized `payload` bytes exactly as
//!   written. It is re-verified on every load.
//! * `wall_ms` is the cell's compute wall time (informational only; it
//!   is excluded from the digest so manifests from machines of
//!   different speeds interoperate).
//!
//! # Atomicity and recovery
//!
//! Each record is appended with a single `write_all` of the whole line
//! (newline last) followed by `sync_data`, so a SIGKILL mid-sweep can
//! lose at most a torn *tail* — a final line with no terminating
//! newline. On open, such a tail is detected and truncated away; the
//! cell it described is simply recomputed. Any *newline-terminated*
//! line that fails to parse, fails its digest, or disagrees with a
//! duplicate record for the same index is real corruption or
//! configuration drift and is reported as a hard error (delete the
//! manifest to recompute from scratch).
//!
//! Cell records land in completion order, which is thread-schedule
//! dependent — the manifest file itself is not byte-stable across
//! runs. Results are: records carry their cell index, and
//! [`ScenarioRunner::run_cells_resumable`] returns results in index
//! order, so a resumed sweep is byte-identical to an uninterrupted one
//! at any thread count (`tests/checkpoint_resume.rs` asserts it).

use crate::runner::{cell_seed, ScenarioRunner};
use crate::workspace::SimWorkspace;
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Environment variable naming the checkpoint path prefix, mirroring
/// `SRCSIM_TRACE`: when set, checkpoint-aware sweeps persist manifests
/// at `<prefix>.<label>.<tag>.ckpt.jsonl` and resume from them.
pub const CHECKPOINT_ENV: &str = "SRCSIM_CHECKPOINT";

/// Manifest schema version.
pub const MANIFEST_VERSION: u64 = 1;

/// FNV-1a 64-bit hash — the manifest's digest function. Stable across
/// platforms and fast enough to be negligible next to any cell.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a sweep checkpoints, and under what configuration identity.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    path: PathBuf,
    tag: u64,
}

impl CheckpointSpec {
    /// Checkpoint at an explicit path. `fingerprint` must describe
    /// everything the cell results depend on besides `(base_seed,
    /// index)` — typically a `Debug` rendering of the sweep
    /// configuration. A manifest written under a different fingerprint
    /// is rejected on load.
    pub fn new(path: impl Into<PathBuf>, fingerprint: &str) -> Self {
        CheckpointSpec {
            path: path.into(),
            tag: fnv1a64(fingerprint.as_bytes()),
        }
    }

    /// Resolve the `SRCSIM_CHECKPOINT` env knob for the sweep `label`:
    /// `Some` manifest at `<prefix>.<label>.<tag>.ckpt.jsonl` when the
    /// variable is set, `None` (checkpointing off) otherwise. The
    /// fingerprint tag in the file name keeps sweeps of different
    /// configurations (or seeds) in different files, so a stale
    /// manifest is ignored rather than fatal.
    pub fn from_env(label: &str, fingerprint: &str) -> Option<CheckpointSpec> {
        let prefix = std::env::var_os(CHECKPOINT_ENV)?;
        if prefix.is_empty() {
            return None;
        }
        let tag = fnv1a64(fingerprint.as_bytes());
        let path = PathBuf::from(format!(
            "{}.{label}.{tag:016x}.ckpt.jsonl",
            prefix.to_string_lossy()
        ));
        Some(CheckpointSpec { path, tag })
    }

    /// Manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Configuration-fingerprint tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Open handle appending committed cells; every append is one
/// `write_all` + `sync_data`.
struct ManifestWriter {
    file: File,
}

impl ManifestWriter {
    fn append_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(line.ends_with('\n'));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

fn header_line(base_seed: u64, n_cells: usize, tag: u64) -> String {
    let v = Value::Object(vec![
        ("kind".into(), Value::Str("sweep-manifest".into())),
        ("version".into(), Value::UInt(MANIFEST_VERSION)),
        ("base_seed".into(), Value::UInt(base_seed)),
        ("n_cells".into(), Value::UInt(n_cells as u64)),
        ("tag".into(), Value::UInt(tag)),
    ]);
    let mut s = serde_json::to_string(&v).expect("static value");
    s.push('\n');
    s
}

fn cell_line(index: usize, seed: u64, digest: u64, wall_ms: u64, payload_json: &str) -> String {
    // The payload is spliced in verbatim so the digest covers the exact
    // bytes on disk.
    format!(
        "{{\"kind\":\"cell\",\"index\":{index},\"seed\":{seed},\"digest\":{digest},\
         \"wall_ms\":{wall_ms},\"payload\":{payload_json}}}\n"
    )
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "sweep manifest {}: {what} (delete the file to recompute from scratch)",
            path.display()
        ),
    )
}

/// Replay a manifest (tolerating a torn tail), verify its identity and
/// digests, truncate away the tail, and return the cached payloads by
/// index plus an appender positioned at the end.
fn open_manifest(
    spec: &CheckpointSpec,
    base_seed: u64,
    n_cells: usize,
) -> io::Result<(Vec<Option<Value>>, ManifestWriter)> {
    if let Some(dir) = spec.path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let bytes = match fs::read(&spec.path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    let mut cached: Vec<Option<Value>> = vec![None; n_cells];
    let mut digests: Vec<Option<u64>> = vec![None; n_cells];
    let mut valid_len: u64 = 0;
    let mut saw_header = false;
    let mut pos = 0usize;
    while let Some(rel) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line_end = pos + rel;
        let line = std::str::from_utf8(&bytes[pos..line_end])
            .map_err(|_| corrupt(&spec.path, "non-UTF-8 committed line"))?;
        let v = serde_json::parse_value(line)
            .map_err(|e| corrupt(&spec.path, format!("unparseable committed line: {e}")))?;
        if !saw_header {
            let expect = |f: &str| -> io::Result<u64> {
                u64::from_value(
                    v.get(f)
                        .ok_or_else(|| corrupt(&spec.path, format!("header missing `{f}`")))?,
                )
                .map_err(|e| corrupt(&spec.path, format!("header field `{f}`: {e}")))
            };
            if v.get("kind") != Some(&Value::Str("sweep-manifest".into())) {
                return Err(corrupt(&spec.path, "first line is not a sweep header"));
            }
            let (ver, seed, n, tag) = (
                expect("version")?,
                expect("base_seed")?,
                expect("n_cells")?,
                expect("tag")?,
            );
            if ver != MANIFEST_VERSION {
                return Err(corrupt(&spec.path, format!("manifest version {ver}")));
            }
            if seed != base_seed || n != n_cells as u64 || tag != spec.tag {
                return Err(corrupt(
                    &spec.path,
                    format!(
                        "written by a different sweep: manifest (base_seed={seed}, \
                         n_cells={n}, tag={tag:016x}) vs requested (base_seed={base_seed}, \
                         n_cells={n_cells}, tag={:016x})",
                        spec.tag
                    ),
                ));
            }
            saw_header = true;
        } else {
            if v.get("kind") != Some(&Value::Str("cell".into())) {
                return Err(corrupt(&spec.path, "committed line is not a cell record"));
            }
            let index = usize::from_value(
                v.get("index")
                    .ok_or_else(|| corrupt(&spec.path, "cell missing `index`"))?,
            )
            .map_err(|e| corrupt(&spec.path, format!("cell index: {e}")))?;
            if index >= n_cells {
                return Err(corrupt(
                    &spec.path,
                    format!("cell index {index} outside grid of {n_cells}"),
                ));
            }
            let digest = u64::from_value(
                v.get("digest")
                    .ok_or_else(|| corrupt(&spec.path, "cell missing `digest`"))?,
            )
            .map_err(|e| corrupt(&spec.path, format!("cell digest: {e}")))?;
            let payload = v
                .get("payload")
                .ok_or_else(|| corrupt(&spec.path, "cell missing `payload`"))?;
            let payload_json = serde_json::to_string(payload).expect("value serializes");
            if fnv1a64(payload_json.as_bytes()) != digest {
                return Err(corrupt(
                    &spec.path,
                    format!("cell {index} payload does not match its digest"),
                ));
            }
            match digests[index] {
                // Duplicate records for one cell must agree — a mismatch
                // means two different configurations wrote to one file.
                Some(prev) if prev != digest => {
                    return Err(corrupt(
                        &spec.path,
                        format!("cell {index} recorded twice with different digests"),
                    ));
                }
                Some(_) => {}
                None => {
                    digests[index] = Some(digest);
                    cached[index] = Some(payload.clone());
                }
            }
        }
        valid_len = (line_end + 1) as u64;
        pos = line_end + 1;
    }

    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&spec.path)?;
    if !saw_header {
        // Fresh file, or nothing but a torn header: start over.
        file.set_len(0)?;
        file.write_all(header_line(base_seed, n_cells, spec.tag).as_bytes())?;
        file.sync_data()?;
    } else if (valid_len as usize) < bytes.len() {
        // Drop the torn tail a killed run left behind; its cell will be
        // recomputed.
        file.set_len(valid_len)?;
        file.sync_data()?;
    }
    Ok((cached, ManifestWriter { file }))
}

/// Count the committed cell records in a manifest (test/CI helper: a
/// resumed sweep must recompute exactly `n_cells` minus this).
pub fn committed_cells(path: impl AsRef<Path>) -> io::Result<usize> {
    let bytes = fs::read(path.as_ref())?;
    let mut n = 0usize;
    let mut pos = 0usize;
    let mut first = true;
    while let Some(rel) = bytes[pos..].iter().position(|&b| b == b'\n') {
        if !first {
            n += 1;
        }
        first = false;
        pos += rel + 1;
    }
    Ok(n)
}

impl ScenarioRunner {
    /// [`ScenarioRunner::run_cells`] with durable progress: when `ckpt`
    /// is `Some`, completed cells are appended to the sweep manifest
    /// (append + fsync per cell) and a rerun replays the manifest,
    /// verifies that `(base_seed, grid shape, fingerprint tag)` match,
    /// recomputes only the missing cells, and returns results
    /// byte-identical to an uninterrupted run at any thread count.
    ///
    /// `base_seed` is the sweep's seed as recorded in the manifest
    /// header; `f` must derive any per-cell randomness purely from its
    /// index (the existing [`ScenarioRunner`] determinism contract).
    /// Cell results round-trip through the serde stub's JSON, which is
    /// lossless for this workspace's payload types (floats use
    /// shortest-round-trip formatting; non-finite values are tagged
    /// strings).
    ///
    /// # Panics
    /// Panics on manifest identity mismatch or corruption (torn tails
    /// excepted — they are truncated and recomputed) and on I/O errors
    /// while appending. Callers that would rather handle manifest
    /// problems than die use
    /// [`ScenarioRunner::try_run_cells_resumable`](Self::try_run_cells_resumable).
    pub fn run_cells_resumable<C, T, F>(
        &self,
        ckpt: Option<&CheckpointSpec>,
        base_seed: u64,
        cells: &[C],
        f: F,
    ) -> Vec<T>
    where
        C: Sync,
        T: Send + Serialize + Deserialize,
        F: Fn(usize, &C) -> T + Sync,
    {
        self.try_run_cells_resumable(ckpt, base_seed, cells, f)
            .unwrap_or_else(|e| panic!("checkpoint: {e}"))
    }

    /// [`run_cells_resumable`](ScenarioRunner::run_cells_resumable)
    /// surfacing manifest open/replay problems — identity mismatch,
    /// corruption, unreadable file — as `Err` (`InvalidData` for
    /// corruption) instead of panicking, so callers can wrap them in
    /// their own error types. I/O failures while *appending* a
    /// completed cell mid-sweep still panic: by then results have been
    /// handed out and silently dropping durability would be worse.
    pub fn try_run_cells_resumable<C, T, F>(
        &self,
        ckpt: Option<&CheckpointSpec>,
        base_seed: u64,
        cells: &[C],
        f: F,
    ) -> io::Result<Vec<T>>
    where
        C: Sync,
        T: Send + Serialize + Deserialize,
        F: Fn(usize, &C) -> T + Sync,
    {
        self.try_run_cells_resumable_with(ckpt, base_seed, cells, |_ws, i, c| f(i, c))
    }

    /// [`run_cells_resumable`](ScenarioRunner::run_cells_resumable)
    /// with per-worker reusable state (see
    /// [`ScenarioRunner::run_with_workspace`]): `f` additionally
    /// receives the claiming worker's [`SimWorkspace`]. Cells replayed
    /// from the manifest never call `f`, so a resumed sweep exercises
    /// the workspace only for the cells it actually recomputes —
    /// byte-identical either way under the workspace reset contract.
    pub fn run_cells_resumable_with<C, T, F>(
        &self,
        ckpt: Option<&CheckpointSpec>,
        base_seed: u64,
        cells: &[C],
        f: F,
    ) -> Vec<T>
    where
        C: Sync,
        T: Send + Serialize + Deserialize,
        F: Fn(&mut SimWorkspace, usize, &C) -> T + Sync,
    {
        self.try_run_cells_resumable_with(ckpt, base_seed, cells, f)
            .unwrap_or_else(|e| panic!("checkpoint: {e}"))
    }

    /// [`run_cells_resumable_with`](ScenarioRunner::run_cells_resumable_with)
    /// surfacing manifest open/replay problems as `Err` (see
    /// [`try_run_cells_resumable`](ScenarioRunner::try_run_cells_resumable)).
    pub fn try_run_cells_resumable_with<C, T, F>(
        &self,
        ckpt: Option<&CheckpointSpec>,
        base_seed: u64,
        cells: &[C],
        f: F,
    ) -> io::Result<Vec<T>>
    where
        C: Sync,
        T: Send + Serialize + Deserialize,
        F: Fn(&mut SimWorkspace, usize, &C) -> T + Sync,
    {
        let Some(spec) = ckpt else {
            return Ok(self.run_cells_with_workspace(cells, f));
        };
        let (cached, writer) = open_manifest(spec, base_seed, cells.len())?;
        let writer = Mutex::new(writer);
        Ok(self.run_with_workspace(cells.len(), |ws, i| {
            if let Some(v) = &cached[i] {
                return T::from_value(v).unwrap_or_else(|e| {
                    panic!(
                        "checkpoint: sweep manifest {}: cell {i} payload does not \
                         deserialize: {e} (delete the file to recompute from scratch)",
                        spec.path.display()
                    )
                });
            }
            let t0 = std::time::Instant::now();
            let out = f(ws, i, &cells[i]);
            let payload = serde_json::to_string(&out).expect("cell payload serializes");
            let digest = fnv1a64(payload.as_bytes());
            let line = cell_line(
                i,
                cell_seed(base_seed, i as u64),
                digest,
                t0.elapsed().as_millis() as u64,
                &payload,
            );
            writer
                .lock()
                .expect("manifest writer lock")
                .append_line(&line)
                .unwrap_or_else(|e| {
                    panic!(
                        "checkpoint: appending cell {i} to {}: {e}",
                        spec.path.display()
                    )
                });
            out
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "srcsim-ckpt-unit-{}-{name}.ckpt.jsonl",
            std::process::id()
        ));
        let _ = fs::remove_file(&p);
        p
    }

    #[test]
    fn fnv1a64_pinned() {
        // Standard FNV-1a test vectors; the digest is part of the
        // on-disk format, so it must never drift.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fresh_manifest_then_full_cache() {
        let path = tmp("fresh");
        let spec = CheckpointSpec::new(&path, "unit fresh");
        let runner = ScenarioRunner::serial();
        let first: Vec<(u64, f64)> =
            runner.run_cells_resumable(Some(&spec), 7, &[10u64, 20, 30], |i, &c| {
                (c + i as u64, i as f64 * 0.5)
            });
        assert_eq!(committed_cells(&path).unwrap(), 3);
        // Rerun: everything cached, closure must not run.
        let second: Vec<(u64, f64)> =
            runner.run_cells_resumable(Some(&spec), 7, &[10u64, 20, 30], |_, _| {
                panic!("cached cell recomputed")
            });
        assert_eq!(first, second);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn huge_float_payloads_replay_from_cache() {
        // |x| >= 2^63 floats serialize as plain digit strings (Display
        // never uses exponent form); replay must parse them back as
        // floats with the digest intact instead of dying on i64/u64
        // overflow — seen live in a fig10 SystemReport payload.
        let path = tmp("hugefloat");
        let spec = CheckpointSpec::new(&path, "unit hugefloat");
        let runner = ScenarioRunner::serial();
        let cells = [-6.895523070677849e19_f64, 3.4e20];
        let first: Vec<f64> = runner.run_cells_resumable(Some(&spec), 5, &cells, |_, &c| c);
        let second: Vec<f64> = runner.run_cells_resumable(Some(&spec), 5, &cells, |_, _| {
            panic!("cached cell recomputed")
        });
        assert_eq!(
            first.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_recomputed() {
        let path = tmp("torn");
        let spec = CheckpointSpec::new(&path, "unit torn");
        let runner = ScenarioRunner::serial();
        let full: Vec<u64> =
            runner
                .run_cells_resumable(Some(&spec), 1, &[1u64, 2, 3, 4], |i, &c| c * 100 + i as u64);
        // Chop bytes off the final record: a torn tail.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let resumed: Vec<u64> =
            runner
                .run_cells_resumable(Some(&spec), 1, &[1u64, 2, 3, 4], |i, &c| c * 100 + i as u64);
        assert_eq!(full, resumed);
        assert_eq!(committed_cells(&path).unwrap(), 4, "tail re-appended");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn identity_mismatch_is_fatal() {
        let path = tmp("identity");
        let spec = CheckpointSpec::new(&path, "unit identity");
        let runner = ScenarioRunner::serial();
        let _: Vec<u64> = runner.run_cells_resumable(Some(&spec), 3, &[1u64, 2], |_, &c| c);
        // Same file, different base seed.
        let boom = std::panic::catch_unwind(|| {
            let _: Vec<u64> = runner.run_cells_resumable(Some(&spec), 4, &[1u64, 2], |_, &c| c);
        });
        assert!(boom.is_err(), "base_seed drift must be rejected");
        // Same file, different fingerprint.
        let other = CheckpointSpec::new(&path, "unit identity CHANGED");
        let boom = std::panic::catch_unwind(|| {
            let _: Vec<u64> = runner.run_cells_resumable(Some(&other), 3, &[1u64, 2], |_, &c| c);
        });
        assert!(boom.is_err(), "fingerprint drift must be rejected");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tampered_payload_is_fatal() {
        let path = tmp("tamper");
        let spec = CheckpointSpec::new(&path, "unit tamper");
        let runner = ScenarioRunner::serial();
        let _: Vec<u64> = runner.run_cells_resumable(Some(&spec), 9, &[5u64, 6], |_, &c| c);
        // Flip a payload digit on a committed (newline-terminated) line.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"payload\":5", "\"payload\":7", 1);
        assert_ne!(text, tampered, "tamper target present");
        fs::write(&path, tampered).unwrap();
        let boom = std::panic::catch_unwind(|| {
            let _: Vec<u64> = runner.run_cells_resumable(Some(&spec), 9, &[5u64, 6], |_, &c| c);
        });
        assert!(boom.is_err(), "digest mismatch must be rejected");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn try_variant_surfaces_corruption_as_err() {
        let path = tmp("try-corrupt");
        let spec = CheckpointSpec::new(&path, "unit try-corrupt");
        let runner = ScenarioRunner::serial();
        let ok: io::Result<Vec<u64>> =
            runner.try_run_cells_resumable(Some(&spec), 2, &[1u64, 2], |_, &c| c);
        assert_eq!(ok.unwrap(), vec![1, 2]);
        // Identity drift must come back as InvalidData, not a panic.
        let err: io::Result<Vec<u64>> =
            runner.try_run_cells_resumable(Some(&spec), 3, &[1u64, 2], |_, &c| c);
        let err = err.expect_err("base_seed drift must be an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn env_spec_embeds_label_and_tag() {
        // Constructed directly (env mutation is process-global; the CI
        // selftest binary exercises the env path end-to-end).
        let spec = CheckpointSpec::new("out/run.table4.ckpt.jsonl", "fp");
        assert_eq!(spec.tag(), fnv1a64(b"fp"));
        assert!(spec.path().ends_with("run.table4.ckpt.jsonl"));
    }
}
