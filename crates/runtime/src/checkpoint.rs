//! Training checkpoints: the weights, the training position and the
//! solver state of a supervised run in one self-describing binary file,
//! hardened for crash-safety.
//!
//! Layout (version 2): magic `LATTEwt2`, a little-endian u32 flags word
//! that is always 3 (training metadata and solver state both present),
//! the metadata (epoch u64, global iteration u64, iteration-within-epoch
//! u64, last loss f32), a u32 entry count, then per entry a u32 name
//! length, the UTF-8 buffer name, a u32 element count, and the raw
//! little-endian f32 data; then the solver state (u32 kind length +
//! UTF-8 kind tag, iteration u64, u32 group count, per group a u32 name
//! length + UTF-8 name, a u32 vector count, and per vector a u32 element
//! count + raw little-endian f32 data); finally a CRC32 (IEEE) of
//! everything after the magic. Earlier versions could also write the
//! weights alone or without the solver state (flags 0, 1 and 2); nothing
//! resumes from such a file, so the reader rejects it.
//!
//! Writes are **atomic**: the payload is serialized to a sibling
//! temporary file, synced, and `rename`d into place, so a crash
//! mid-write leaves the previous checkpoint intact (at worst a stale
//! `*.tmp` sibling that readers never look at). Reads verify the CRC
//! before any byte is interpreted, so truncated or bit-flipped files are
//! rejected with a clear error instead of restoring garbage weights.

use std::path::Path;

use crate::error::RuntimeError;
use crate::exec::Executor;
pub use crate::frame::tmp_path;
use crate::frame::{
    crc32, put_f32_vec, put_f32s_le, put_str, put_u32, put_u64, read_sealed_file,
    write_sealed_file, ReadError, Reader,
};
use crate::solver::SolverState;

const MAGIC: &[u8; 8] = b"LATTEwt2";
const MAGIC_V1: &[u8; 8] = b"LATTEwts";
/// The flags word: bit 0 training metadata, bit 1 solver state — both,
/// in every file this version writes or reads.
const FLAGS: u32 = 3;

/// Training-progress metadata stored alongside the weights, used by the
/// supervisor to resume mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Epoch the checkpoint was taken in.
    pub epoch: u64,
    /// Global iteration count at the checkpoint.
    pub iteration: u64,
    /// Iterations completed within the current epoch.
    pub epoch_iter: u64,
    /// Training loss at the checkpointed iteration.
    pub loss: f32,
}

/// Serializes every learnable parameter, the training metadata, and the
/// solver state (momentum/accumulator buffers from
/// [`crate::solver::Solver::export_state`]) in one atomic checkpoint: the
/// bytes land in a sibling `*.tmp` file that is synced and renamed over
/// `path`, and a CRC32 trailer lets [`load_checkpoint`] verify integrity.
///
/// With the solver state restored via [`load_checkpoint`] +
/// [`crate::solver::Solver::import_state`], a stateful solver resumes on
/// the *bit-exact* update trajectory it would have followed without the
/// interruption.
///
/// # Errors
///
/// Propagates I/O failures as [`RuntimeError::Io`] and unreadable
/// parameter buffers as their underlying error.
pub fn save_checkpoint(
    exec: &Executor,
    meta: &CheckpointMeta,
    solver: &SolverState,
    path: impl AsRef<Path>,
) -> Result<(), RuntimeError> {
    let path = path.as_ref();
    let mut payload = Vec::new();
    put_u32(&mut payload, FLAGS);
    put_u64(&mut payload, meta.epoch);
    put_u64(&mut payload, meta.iteration);
    put_u64(&mut payload, meta.epoch_iter);
    put_f32s_le(&mut payload, &[meta.loss]);
    put_u32(&mut payload, exec.params().len() as u32);
    for p in exec.params() {
        put_str(&mut payload, &p.value);
        put_f32_vec(&mut payload, exec.buffer(&p.value)?);
    }
    put_str(&mut payload, &solver.kind);
    put_u64(&mut payload, solver.iter);
    put_u32(&mut payload, solver.groups.len() as u32);
    for (group, vecs) in &solver.groups {
        put_str(&mut payload, group);
        put_u32(&mut payload, vecs.len() as u32);
        for v in vecs {
            put_f32_vec(&mut payload, v);
        }
    }
    let crc = crc32(&payload).to_le_bytes();
    write_sealed_file(path, &[MAGIC, &payload, &crc])
        .map_err(|e| RuntimeError::io(format!("writing checkpoint `{}`", path.display()), e))
}

/// Restores parameters into a (structurally compatible) executor and
/// returns the training metadata and the solver state. Pass the state to
/// [`crate::solver::Solver::import_state`] to resume a stateful solver
/// bit-exactly. The CRC32 trailer is verified before any byte of the
/// payload is interpreted and the whole file is parsed before the first
/// buffer is written, so a truncated, corrupted or otherwise rejected
/// checkpoint leaves the executor untouched.
/// Buffers present in the file but absent from the executor are an
/// error; executor parameters missing from the file are left untouched.
///
/// # Errors
///
/// Fails on I/O errors, bad magic, checksum mismatches, a flags word
/// other than 3 ([`RuntimeError::Malformed`]), or mismatched buffer
/// sizes.
pub fn load_checkpoint(
    exec: &mut Executor,
    path: impl AsRef<Path>,
) -> Result<(CheckpointMeta, SolverState), RuntimeError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| RuntimeError::io(format!("reading checkpoint `{}`", path.display()), e))?;
    let parsed = parse_checkpoint(&bytes).map_err(|detail| RuntimeError::Malformed {
        detail: format!("checkpoint `{}` {detail}", path.display()),
    })?;
    for (name, data) in &parsed.params {
        exec.write_buffer(name, data)?;
    }
    Ok((parsed.meta, parsed.solver))
}

/// Everything a checkpoint file holds.
struct Parsed {
    meta: CheckpointMeta,
    params: Vec<(String, Vec<f32>)>,
    solver: SolverState,
}

/// Parses a whole checkpoint file: magic, CRC32 trailer (verified before
/// any payload byte is interpreted), then the payload. The error is the
/// reason, to be prefixed with the file's name.
fn parse_checkpoint(bytes: &[u8]) -> Result<Parsed, String> {
    if bytes.starts_with(MAGIC_V1) {
        return Err(
            "uses the legacy un-checksummed v1 format; re-save it with this version".into(),
        );
    }
    let payload = read_sealed_file(bytes, MAGIC, false)?;
    let mut r = Reader::new(payload);
    match r.u32() {
        Ok(FLAGS) => parse_payload(&mut r).map_err(|e| format!("payload {e}")),
        Ok(flags) => Err(format!(
            "has flags word {flags}, not {FLAGS}: it lacks the training metadata or the \
             solver state a run resumes from"
        )),
        Err(e) => Err(format!("payload {e}")),
    }
}

/// Parses the payload after its flags word.
fn parse_payload(r: &mut Reader<'_>) -> Result<Parsed, ReadError> {
    let meta = CheckpointMeta {
        epoch: r.u64()?,
        iteration: r.u64()?,
        epoch_iter: r.u64()?,
        loss: r.f32()?,
    };
    // Counts come from the file: collecting (not pre-sizing) keeps every
    // allocation bounded by the bytes actually present.
    let params = (0..r.u32()?)
        .map(|_| Ok((r.str()?.to_string(), r.f32_vec()?)))
        .collect::<Result<_, ReadError>>()?;
    let kind = r.str()?.to_string();
    let iter = r.u64()?;
    let groups = (0..r.u32()?)
        .map(|_| {
            let name = r.str()?.to_string();
            let vecs = (0..r.u32()?).map(|_| r.f32_vec()).collect::<Result<_, _>>()?;
            Ok((name, vecs))
        })
        .collect::<Result<_, ReadError>>()?;
    Ok(Parsed { meta, params, solver: SolverState { kind, iter, groups } })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use latte_core::{compile, OptLevel};
    use latte_nn::models::{mlp, ModelConfig};

    fn build() -> Executor {
        let cfg = ModelConfig {
            batch: 2,
            input_size: 6,
            channel_div: 1,
            classes: 3,
            with_loss: true,
            seed: 7,
        };
        Executor::new(compile(&mlp(&cfg, &[4]).net, &OptLevel::full()).unwrap()).unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("latte_ckpt_{tag}"));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    fn meta() -> CheckpointMeta {
        CheckpointMeta {
            epoch: 1,
            iteration: 42,
            epoch_iter: 2,
            loss: 0.75,
        }
    }

    /// Saves `exec` with [`meta`] and an empty solver state.
    fn save(exec: &Executor, path: &Path) {
        save_checkpoint(exec, &meta(), &SolverState::default(), path).unwrap();
    }

    #[test]
    fn save_load_roundtrip_restores_weights() {
        let path = temp_dir("roundtrip").join("w.bin");
        let mut a = build();
        // Perturb, save, rebuild, load, compare.
        let w0 = a.read_buffer("ip1.weights").unwrap();
        let perturbed: Vec<f32> = w0.iter().map(|x| x + 1.5).collect();
        a.write_buffer("ip1.weights", &perturbed).unwrap();
        save(&a, &path);
        let mut b = build();
        assert_ne!(b.read_buffer("ip1.weights").unwrap(), perturbed);
        load_checkpoint(&mut b, &path).unwrap();
        assert_eq!(b.read_buffer("ip1.weights").unwrap(), perturbed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_dir("magic").join("junk.bin");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let mut e = build();
        let err = load_checkpoint(&mut e, &path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_v1_magic_gets_specific_error() {
        let path = temp_dir("v1").join("old.bin");
        let mut bytes = b"LATTEwts".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        let mut e = build();
        let err = load_checkpoint(&mut e, &path).unwrap_err();
        assert!(err.to_string().contains("legacy"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_rejected() {
        let path = temp_dir("trunc").join("w.bin");
        let exec = build();
        save(&exec, &path);
        let full = std::fs::read(&path).unwrap();
        for cut in [5usize, 13, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut e = build();
            let err = load_checkpoint(&mut e, &path).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("integrity"),
                "cut at {cut}: {msg}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_fails_integrity_check() {
        let path = temp_dir("flip").join("w.bin");
        let exec = build();
        save(&exec, &path);
        let good = std::fs::read(&path).unwrap();
        // Flip one payload byte and separately one CRC byte.
        for idx in [good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[idx] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let mut e = build();
            let err = load_checkpoint(&mut e, &path).unwrap_err();
            assert!(err.to_string().contains("integrity"), "byte {idx}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_leaves_previous_checkpoint_valid() {
        let dir = temp_dir("crash");
        let path = dir.join("w.bin");
        let mut exec = build();
        let w0 = exec.read_buffer("ip1.weights").unwrap();
        save(&exec, &path);

        // Simulate dying mid-write of the *next* checkpoint: a partial
        // temp file appears next to the good checkpoint and is never
        // renamed into place.
        let perturbed: Vec<f32> = w0.iter().map(|x| x + 9.0).collect();
        exec.write_buffer("ip1.weights", &perturbed).unwrap();
        std::fs::write(tmp_path(&path), b"LATTEwt2 partial garbage").unwrap();

        // The good checkpoint still loads the original weights.
        let mut fresh = build();
        load_checkpoint(&mut fresh, &path).unwrap();
        assert_eq!(fresh.read_buffer("ip1.weights").unwrap(), w0);

        // A subsequent successful save replaces the temp file and the
        // checkpoint atomically.
        save(&exec, &path);
        assert!(!tmp_path(&path).exists(), "temp file must be renamed away");
        let mut newer = build();
        load_checkpoint(&mut newer, &path).unwrap();
        assert_eq!(newer.read_buffer("ip1.weights").unwrap(), perturbed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error_with_source() {
        use std::error::Error;
        let mut e = build();
        let err = load_checkpoint(&mut e, temp_dir("missing").join("nope.bin")).unwrap_err();
        match &err {
            RuntimeError::Io { source, .. } => {
                assert!(source.is_some());
                assert!(err.source().is_some(), "source chain must be exposed");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn meta_and_solver_state_roundtrip() {
        let path = temp_dir("solver").join("s.bin");
        let exec = build();
        let state = SolverState {
            kind: "sgd".into(),
            iter: 42,
            groups: vec![("velocity".into(), vec![vec![0.5, -0.25], vec![], vec![1.0]])],
        };
        save_checkpoint(&exec, &meta(), &state, &path).unwrap();

        let mut b = build();
        assert_eq!(load_checkpoint(&mut b, &path).unwrap(), (meta(), state));
        let _ = std::fs::remove_file(&path);
    }

    /// A well-formed file around `payload`: magic, payload, its CRC.
    fn file_of(payload: Vec<u8>) -> Vec<u8> {
        let mut file = MAGIC.to_vec();
        file.extend(crate::frame::seal(payload));
        file
    }

    /// The pinned file's payload sections, as the first version-2
    /// encoder wrote them: training metadata, the weight entries and the
    /// solver state of [`tiny`] (flags word and CRC not included).
    fn pinned_sections() -> [Vec<u8>; 3] {
        let meta = [
            &[0x01, 0, 0, 0, 0, 0, 0, 0][..], // epoch 1
            &[0x2A, 0, 0, 0, 0, 0, 0, 0],     // iteration 42
            &[0x02, 0, 0, 0, 0, 0, 0, 0],     // epoch_iter 2
            &[0x00, 0x00, 0x40, 0x3F],        // loss 0.75
        ];
        let params = [
            &[0x02, 0, 0, 0][..],                             // 2 entries
            &[0x0E, 0, 0, 0], b"ip_out.weights",              // name
            &[0x04, 0, 0, 0],                                 // 4 floats
            &[0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x80, 0xBF], // 0.5, -1.0
            &[0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x80, 0x3E], // 2.0, 0.25
            &[0x0B, 0, 0, 0], b"ip_out.bias",                 // name
            &[0x02, 0, 0, 0],                                 // 2 floats
            &[0x00, 0x00, 0xC0, 0x3F, 0x00, 0x00, 0x00, 0xBE], // 1.5, -0.125
        ];
        let solver = [
            &[0x03, 0, 0, 0][..], b"sgd",                      // kind
            &[0x2A, 0, 0, 0, 0, 0, 0, 0],                     // iter 42
            &[0x01, 0, 0, 0],                                 // 1 group
            &[0x08, 0, 0, 0], b"velocity",                    // name
            &[0x02, 0, 0, 0],                                 // 2 vectors
            &[0x04, 0, 0, 0],                                 // 4 floats
            &[0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x80, 0xBE], // 0.5, -0.25
            &[0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F], // 0.0, 1.0
            &[0x02, 0, 0, 0],                                 // 2 floats
            &[0x00, 0x00, 0x80, 0xBF, 0x00, 0x00, 0x00, 0x3E], // -1.0, 0.125
        ];
        [meta.concat(), params.concat(), solver.concat()]
    }

    /// A softmax classifier over two inputs: two parameters, six floats.
    fn tiny() -> Executor {
        let cfg = ModelConfig {
            batch: 1,
            input_size: 2,
            channel_div: 1,
            classes: 2,
            with_loss: true,
            seed: 3,
        };
        Executor::new(compile(&mlp(&cfg, &[]).net, &OptLevel::full()).unwrap()).unwrap()
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // The exact bytes the encoder of the first version-2 build wrote
        // for this checkpoint: a format that drifts by one bit fails here
        // before it fails to resume a deployed run.
        let path = temp_dir("pinned").join("p.bin");
        let mut exec = tiny();
        exec.write_buffer("ip_out.weights", &[0.5, -1.0, 2.0, 0.25]).unwrap();
        exec.write_buffer("ip_out.bias", &[1.5, -0.125]).unwrap();
        let state = SolverState {
            kind: "sgd".into(),
            iter: 42,
            groups: vec![("velocity".into(), vec![vec![0.5, -0.25, 0.0, 1.0], vec![-1.0, 0.125]])],
        };
        save_checkpoint(&exec, &meta(), &state, &path).unwrap();
        let [meta_bytes, params, solver] = pinned_sections();
        let want = [
            &b"LATTEwt2"[..],
            &[0x03, 0, 0, 0], // flags: metadata | solver state
            &meta_bytes,
            &params,
            &solver,
            &[0x64, 0x8A, 0xB0, 0x17], // CRC32 0x17B08A64
        ]
        .concat();
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let mut back = tiny();
        assert_eq!(load_checkpoint(&mut back, &path).unwrap(), (meta(), state));
        assert_eq!(back.read_buffer("ip_out.weights").unwrap(), [0.5, -1.0, 2.0, 0.25]);

        // The files earlier versions wrote without metadata or solver
        // state — weights only (0), metadata only (1), solver state only
        // (2) — are refused whole, before any weight is written.
        let fresh = tiny().read_buffer("ip_out.weights").unwrap();
        for (flags, sections) in [
            (0u32, vec![&params]),
            (1, vec![&meta_bytes, &params]),
            (2, vec![&params, &solver]),
        ] {
            let mut payload = flags.to_le_bytes().to_vec();
            sections.into_iter().for_each(|s| payload.extend_from_slice(s));
            std::fs::write(&path, file_of(payload)).unwrap();
            let mut e = tiny();
            let err = load_checkpoint(&mut e, &path).unwrap_err();
            assert!(matches!(err, RuntimeError::Malformed { .. }), "flags {flags}: {err}");
            assert_eq!(e.read_buffer("ip_out.weights").unwrap(), fresh, "flags {flags}");
        }
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        /// Fuzz: the checkpoint parser answers arbitrary bytes — raw, or
        /// correctly sealed behind the magic under every flags word the
        /// format has had, so both the flags check and the payload
        /// decoder are reached — with a parse or a reason, never a panic,
        /// a hang, or an allocation sized by a count the bytes do not
        /// back.
        #[test]
        fn parse_checkpoint_answers_arbitrary_bytes_with_a_structured_result(
            flags in 0u32..4,
            body in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
        ) {
            let _ = parse_checkpoint(&body);
            let mut payload = flags.to_le_bytes().to_vec();
            payload.extend_from_slice(&body);
            if let Ok(parsed) = parse_checkpoint(&file_of(payload)) {
                prop_assert_eq!(flags, FLAGS);
                let floats: usize = parsed.params.iter().map(|(_, v)| v.len()).sum();
                prop_assert!(floats * 4 <= body.len());
            }
        }
    }

    #[test]
    fn hostile_counts_fail_without_allocating_for_them() {
        let header = || {
            let mut payload = Vec::new();
            put_u32(&mut payload, FLAGS);
            payload.extend(pinned_sections()[0].iter());
            payload
        };
        // A sealed payload announcing u32::MAX parameters, then nothing.
        let mut payload = header();
        put_u32(&mut payload, u32::MAX);
        let err = parse_checkpoint(&file_of(payload)).err().expect("rejected");
        assert!(err.contains("ends early"), "{err}");
        // One parameter whose element count is u32::MAX.
        let mut payload = header();
        put_u32(&mut payload, 1);
        put_str(&mut payload, "w");
        put_u32(&mut payload, u32::MAX);
        assert!(parse_checkpoint(&file_of(payload)).is_err());
    }
}
