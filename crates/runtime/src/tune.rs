//! Schedule autotuning with a persistent on-disk tuning cache — the
//! LoopStack-style search layer over the compiler's scheduling knobs.
//!
//! The compiler schedules every network with fixed heuristics: the
//! `PREFERRED_TILES` ladder, unconditional parallel marking of tiled
//! groups, the GEMM engine's default `(kc, nc, mc)` blocking. Those
//! constants are right *on average* and wrong per machine — a single-core
//! CI container pays fan-out overhead on every "parallel" group, and the
//! best cache blocking depends on the actual cache hierarchy. The
//! [`Tuner`] closes the loop: it enumerates a **bounded** per-shape
//! configuration space, measures each candidate with warm-up plus
//! median-of-N timing on one long-lived [`WorkerPool`], and persists the
//! winner so every later compile of the same network replays the schedule
//! with **zero re-measurements** (counter-asserted via
//! [`TunerStats::measurements`]).
//!
//! # Search space
//!
//! Three axes, all **bit-preserving** (see [`TunedSchedule`]):
//!
//! 1. Per-group serial/parallel decisions — each compute group's measured
//!    parallel time must beat its serial time (with hysteresis) to stay
//!    parallel.
//! 2. Tile-size overrides fed into the tiling/fusion passes.
//! 3. GEMM `(kc, nc, mc)` blocking with `kc` **pinned to the default**:
//!    `kc` is the reduction block — changing it reassociates the k-sum
//!    and changes bits. `nc`/`mc` only repartition output tiles.
//!
//! # Cache key and invalidation
//!
//! Entries are keyed by `(program fingerprint, batch, thread count, CPU
//! features)`. The fingerprint comes from a *reference compile at the
//! default schedule* — [`CompiledNet::fingerprint`] hashes the scheduled
//! program, so the tuned compile's own fingerprint would differ per
//! schedule. Thread count and [`cpu_features`] make schedules tuned on
//! one machine class unreplayable on another; any key mismatch is a
//! miss, so stale entries are invalidated by simply not matching. A
//! corrupt cache file (bad magic, short read, CRC mismatch) is rejected
//! with [`TuneError::Corrupt`] — never silently treated as empty.
//!
//! The file format follows `runtime::checkpoint`: magic bytes,
//! little-endian fixed-width integers, length-prefixed strings, and a
//! trailing CRC32 seal, written atomically (temp file + rename).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use latte_core::dsl::Net;
use latte_core::{compile, compile_tuned, CompileError, CompiledNet, OptLevel, TunedSchedule};
use latte_tensor::gemm::{cpu_features, Gemm, Transpose};

use crate::frame::{put_str, put_u32, read_sealed_file, seal, write_sealed_file, ReadError, Reader};
use crate::error::RuntimeError;
use crate::exec::{CompiledProgram, ExecConfig, Executor};
use crate::pool::WorkerPool;
use crate::registry::KernelRegistry;

/// Magic bytes opening a tuning-cache file.
const MAGIC: &[u8; 8] = b"LATTEtn1";

/// Warm-up runs discarded before timing.
const WARMUP: usize = 2;
/// Timed rounds per candidate; the median is the score.
const RUNS: usize = 9;
/// A candidate must beat the incumbent by this factor to replace it —
/// hysteresis so noise never flips a decision away from the safe
/// default. The margin is deliberately wide (10%): on shared hosts the
/// noise floor of a median-of-[`RUNS`] sits at several percent, and a
/// "win" below it is indistinguishable from a background-load artifact.
/// The tuner exists to catch order-of-magnitude schedule mistakes
/// (dispatching a cheap group to the pool), not to chase micro-wins it
/// cannot reliably reproduce.
const HYSTERESIS: f64 = 0.90;

/// Tile-size override candidates (`None` = the compiler's preferred
/// ladder).
const TILE_CANDIDATES: [Option<usize>; 3] = [None, Some(4), Some(8)];

/// GEMM blocking candidates. `kc` is pinned to the engine default (256)
/// on every row — varying it would reassociate the k-reduction and break
/// bit-identity; `nc`/`mc` sweep the L3/L2 partition.
const BLOCKING_CANDIDATES: [(usize, usize, usize); 5] = [
    (256, 512, 64), // engine default
    (256, 256, 32),
    (256, 512, 128),
    (256, 1024, 64),
    (256, 256, 128),
];

/// Counters proving what the tuner did — the zero-re-measurement
/// guarantee is asserted against [`TunerStats::measurements`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Lookups answered from the cache (no measuring).
    pub cache_hits: usize,
    /// Lookups that triggered a measurement campaign.
    pub cache_misses: usize,
    /// Timed executions performed (warm-up included). Flat across a
    /// cache hit — the on-disk schedule replays without running anything.
    pub measurements: usize,
}

/// Autotuning failure.
#[derive(Debug)]
pub enum TuneError {
    /// The cache file exists but is not a valid tuning cache (bad magic,
    /// truncated, or CRC mismatch). Corrupt caches are rejected, never
    /// treated as empty: overwriting one silently would mask disk
    /// faults.
    Corrupt {
        /// What failed to parse.
        detail: String,
    },
    /// Reading or writing the cache file failed.
    Io {
        /// Offending path.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A candidate failed to compile (a compiler bug surfaced by an
    /// unusual schedule, not a user error).
    Compile(CompileError),
    /// Lowering or instantiating a measurement executor failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Corrupt { detail } => write!(f, "corrupt tuning cache: {detail}"),
            TuneError::Io { path, source } => {
                write!(f, "tuning cache i/o failure at {}: {source}", path.display())
            }
            TuneError::Compile(e) => write!(f, "tuning candidate failed to compile: {e}"),
            TuneError::Runtime(e) => write!(f, "tuning measurement failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Io { source, .. } => Some(source),
            TuneError::Compile(e) => Some(e),
            TuneError::Runtime(e) => Some(e),
            TuneError::Corrupt { .. } => None,
        }
    }
}

impl From<CompileError> for TuneError {
    fn from(e: CompileError) -> Self {
        TuneError::Compile(e)
    }
}

impl From<RuntimeError> for TuneError {
    fn from(e: RuntimeError) -> Self {
        TuneError::Runtime(e)
    }
}

/// One cached winner: the schedule plus the median time it measured, so
/// reports can print what the tuner believed without re-measuring.
#[derive(Debug, Clone, PartialEq)]
struct CacheEntry {
    schedule: TunedSchedule,
    score_ms: f64,
}

/// The schedule autotuner: a measurement harness over one persistent
/// [`WorkerPool`] plus an on-disk cache of winners.
///
/// The pool is created once per tuner and reused for every candidate —
/// blocking candidates are installed with
/// [`WorkerPool::reconfigure_gemm`], never by spawning a fresh team — so
/// tuning obeys the same no-steady-state-spawning discipline as
/// execution.
pub struct Tuner {
    path: PathBuf,
    entries: BTreeMap<String, CacheEntry>,
    pool: Arc<WorkerPool>,
    stats: TunerStats,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("path", &self.path)
            .field("entries", &self.entries.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Tuner {
    /// Opens (or starts) the tuning cache at `path`, driving `threads`
    /// workers. A missing file is an empty cache; an unreadable or
    /// corrupt file is an error.
    ///
    /// # Errors
    ///
    /// [`TuneError::Corrupt`] for an invalid cache file, [`TuneError::Io`]
    /// when reading fails for any reason other than the file not
    /// existing.
    pub fn with_path(path: impl AsRef<std::path::Path>, threads: usize) -> Result<Self, TuneError> {
        let path = path.as_ref().to_path_buf();
        let entries = match std::fs::read(&path) {
            Ok(bytes) => parse_cache(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(TuneError::Io { path, source: e }),
        };
        Ok(Tuner {
            path,
            entries,
            pool: Arc::new(WorkerPool::new(threads)),
            stats: TunerStats::default(),
        })
    }

    /// Builds a tuner from the environment, or `None` when autotuning is
    /// not enabled. `LATTE_TUNE=1` (or `true`/`on`) enables it;
    /// `LATTE_TUNE_CACHE=<path>` overrides the cache location (default
    /// `latte_tune.cache` in the working directory); `LATTE_THREADS`
    /// sets the pool width as everywhere else.
    ///
    /// # Errors
    ///
    /// As [`Tuner::with_path`].
    pub fn from_env() -> Option<Result<Self, TuneError>> {
        let v = std::env::var("LATTE_TUNE").ok()?;
        let on = v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on");
        if !on {
            return None;
        }
        let path = std::env::var_os("LATTE_TUNE_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("latte_tune.cache"));
        Some(Tuner::with_path(path, ExecConfig::env_threads()))
    }

    /// The tuner's counters.
    pub fn stats(&self) -> TunerStats {
        self.stats
    }

    /// Cached schedules currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The worker pool candidates are measured on (and tuned executors
    /// should be instantiated on, so the measured blocking is live).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Returns the tuned schedule for `net` at `opt`, measuring only on
    /// a cache miss, and the network compiled under that schedule.
    ///
    /// The cache key derives from a reference compile at the default
    /// schedule, so the second call for any network — including in a
    /// later process pointed at the same cache file — is answered
    /// entirely from the cache: [`TunerStats::measurements`] stays flat.
    ///
    /// # Errors
    ///
    /// Compilation, lowering, or cache-write failures.
    pub fn tune_net(
        &mut self,
        net: &Net,
        opt: &OptLevel,
    ) -> Result<(TunedSchedule, CompiledNet), TuneError> {
        let reference = compile(net, opt)?;
        let key = net_key(&reference, self.pool.threads());
        if let Some(entry) = self.entries.get(&key) {
            self.stats.cache_hits += 1;
            let schedule = entry.schedule.clone();
            let compiled = compile_tuned(net, opt, &schedule)?;
            return Ok((schedule, compiled));
        }
        self.stats.cache_misses += 1;
        let (schedule, score_ms) = self.search(net, opt, reference)?;
        let compiled = compile_tuned(net, opt, &schedule)?;
        self.entries.insert(key, CacheEntry { schedule: schedule.clone(), score_ms });
        self.save()?;
        Ok((schedule, compiled))
    }

    /// Returns the tuned `(kc, nc, mc)` blocking for a raw `m × n × k`
    /// GEMM on this pool, measuring only on a cache miss.
    ///
    /// # Errors
    ///
    /// Cache-write failures. (Blocking candidates are valid by
    /// construction, so reconfiguration cannot fail.)
    pub fn tune_gemm(&mut self, m: usize, n: usize, k: usize) -> Result<(usize, usize, usize), TuneError> {
        let key = format!("gemm:{m}x{n}x{k}|t{}|{}", self.pool.threads(), cpu_features());
        if let Some(entry) = self.entries.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(entry.schedule.gemm_blocking.unwrap_or_else(|| Gemm::new().blocking()));
        }
        self.stats.cache_misses += 1;
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        // Round-robin rounds (see `search`): every round times each
        // candidate once, so load spikes hit all candidates equally.
        let pool = Arc::clone(&self.pool);
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); BLOCKING_CANDIDATES.len()];
        for run in 0..WARMUP + RUNS {
            for (i, &blocking) in BLOCKING_CANDIDATES.iter().enumerate() {
                pool.reconfigure_gemm(Some(blocking))
                    .expect("blocking candidates are aligned by construction");
                let start = Instant::now();
                c.fill(0.0);
                Gemm::compute_parallel(
                    &*pool,
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut c,
                );
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.stats.measurements += 1;
                if run >= WARMUP {
                    samples[i].push(ms);
                }
            }
        }
        // The default (row 0) is the incumbent; challengers must win by
        // the paired-round rule.
        let mut best_i = 0;
        for i in 1..samples.len() {
            if challenger_wins(&samples[best_i], &samples[i]) {
                best_i = i;
            }
        }
        let best = BLOCKING_CANDIDATES[best_i];
        let best_ms = median(samples.swap_remove(best_i));
        self.pool
            .reconfigure_gemm(Some(best))
            .expect("winner already validated");
        let schedule = TunedSchedule {
            gemm_blocking: Some(best),
            ..TunedSchedule::default()
        };
        self.entries.insert(key, CacheEntry { schedule, score_ms: best_ms });
        self.save()?;
        Ok(best)
    }

    /// Lowers `compiled` and instantiates an executor on the tuner's
    /// pool, with the schedule's GEMM blocking installed.
    ///
    /// # Errors
    ///
    /// Lowering or allocation failures.
    pub fn executor_for(
        &self,
        compiled: CompiledNet,
        schedule: &TunedSchedule,
    ) -> Result<Executor, TuneError> {
        self.pool
            .reconfigure_gemm(schedule.gemm_blocking)
            .map_err(|e| TuneError::Runtime(RuntimeError::InvalidConfig { detail: e.to_string() }))?;
        let cfg = ExecConfig {
            threads: self.pool.threads(),
            arena: false,
            gemm_blocking: schedule.gemm_blocking,
        };
        let program = CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), cfg)?;
        Ok(program.instantiate(Arc::clone(&self.pool))?)
    }

    /// The measurement campaign for one network: per-group
    /// serial/parallel decisions, then the tile override, then the GEMM
    /// blocking — each axis measured on the winner of the previous one.
    ///
    /// Within an axis, candidates are timed **round-robin**: every round
    /// runs each candidate once, back-to-back, and the median is taken
    /// per candidate across rounds. A paired comparison is what makes
    /// the decision robust on shared hosts — a background-load window
    /// hits all candidates of the round equally instead of polluting one
    /// candidate's entire campaign and handing the win to whoever was
    /// measured during a quiet spell.
    fn search(
        &mut self,
        net: &Net,
        opt: &OptLevel,
        reference: CompiledNet,
    ) -> Result<(TunedSchedule, f64), TuneError> {
        // Axis 1: per-group parallel vs serial. The default compile
        // (every tiled group parallel) and the all-serial compile are
        // timed group by group in alternating rounds; a group goes to
        // the pool only where the pool demonstrably wins. With one
        // thread the axis is decided, not measured: a fan-out of one
        // runs the same lanes on a worker instead of the caller, so it
        // can only add wake-ups — all groups go serial for free.
        // Only groups the parallelize pass actually marked can differ
        // between the two compiles; inert groups (barriers, untiled)
        // stay out of the map — a decision for them would not change
        // execution, only make equal schedules compare unequal.
        let eligible: Vec<String> = reference
            .stats
            .group_parallel
            .iter()
            .filter(|(_, parallel)| *parallel)
            .map(|(name, _)| name.clone())
            .collect();
        let mut schedule = TunedSchedule::default();
        if self.pool.threads() <= 1 {
            for name in eligible {
                schedule.group_parallel.insert(name, false);
            }
        } else {
            let serial_net = compile_tuned(net, opt, &TunedSchedule::all_serial())?;
            let [par_groups, ser_groups] = self.measure_groups_paired(reference, serial_net)?;
            for name in eligible {
                // Serial is the incumbent — fan-out that buys nothing
                // still costs wake-ups.
                let parallel = match (par_groups.get(&name), ser_groups.get(&name)) {
                    (Some(par), Some(ser)) => challenger_wins(ser, par),
                    _ => false,
                };
                schedule.group_parallel.insert(name, parallel);
            }
        }

        // Axis 2: tile override, measured whole-net under the group
        // decisions from axis 1. Candidate 0 (no override) is the
        // incumbent.
        let mut tile_nets = Vec::with_capacity(TILE_CANDIDATES.len());
        for &tile in &TILE_CANDIDATES {
            tile_nets.push(compile_tuned(net, opt, &TunedSchedule { tile_size: tile, ..schedule.clone() })?);
        }
        let tile_samples = self.measure_round_robin(tile_nets)?;
        let mut best = 0;
        for i in 1..tile_samples.len() {
            if challenger_wins(&tile_samples[best], &tile_samples[i]) {
                best = i;
            }
        }
        schedule.tile_size = TILE_CANDIDATES[best];

        // Axis 3: GEMM blocking (kc pinned). One executor for the tuned
        // compile; each round installs every candidate in the pool's
        // engines in turn and times one iteration under it.
        let compiled = compile_tuned(net, opt, &schedule)?;
        let program = self.lower(compiled)?;
        let mut exec = program.instantiate(Arc::clone(&self.pool))?;
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); BLOCKING_CANDIDATES.len()];
        for run in 0..WARMUP + RUNS {
            for (i, &blocking) in BLOCKING_CANDIDATES.iter().enumerate() {
                self.pool
                    .reconfigure_gemm(Some(blocking))
                    .expect("blocking candidates are aligned by construction");
                let start = Instant::now();
                exec.forward();
                exec.backward();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.stats.measurements += 1;
                if run >= WARMUP {
                    samples[i].push(ms);
                }
            }
        }
        let mut best = 0;
        for i in 1..samples.len() {
            if challenger_wins(&samples[best], &samples[i]) {
                best = i;
            }
        }
        // `None` (engine default) unless a challenger beat row 0.
        schedule.gemm_blocking = (best != 0).then(|| BLOCKING_CANDIDATES[best]);
        self.pool
            .reconfigure_gemm(schedule.gemm_blocking)
            .expect("winner already validated");
        Ok((schedule, median(samples.swap_remove(best))))
    }

    /// Per-round per-group forward+backward milliseconds for two
    /// compiles, timed in alternating rounds so both see the same load
    /// windows.
    fn measure_groups_paired(
        &mut self,
        a: CompiledNet,
        b: CompiledNet,
    ) -> Result<[BTreeMap<String, Vec<f64>>; 2], TuneError> {
        let pa = self.lower(a)?;
        let pb = self.lower(b)?;
        let mut execs = [
            pa.instantiate(Arc::clone(&self.pool))?,
            pb.instantiate(Arc::clone(&self.pool))?,
        ];
        let mut samples: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..WARMUP + RUNS {
            for (slot, exec) in execs.iter_mut().enumerate() {
                let timed: Vec<(String, f64)> = exec
                    .forward_timed()
                    .into_iter()
                    .chain(exec.backward_timed())
                    .collect();
                self.stats.measurements += 1;
                if run < WARMUP {
                    continue;
                }
                for (name, ms) in timed {
                    samples[slot].entry(name).or_default().push(ms);
                }
            }
        }
        Ok(samples)
    }

    /// Per-round whole-net forward+backward milliseconds for each
    /// compile, one timed iteration of every candidate per round.
    fn measure_round_robin(&mut self, nets: Vec<CompiledNet>) -> Result<Vec<Vec<f64>>, TuneError> {
        let mut execs = Vec::with_capacity(nets.len());
        for c in nets {
            let program = self.lower(c)?;
            execs.push(program.instantiate(Arc::clone(&self.pool))?);
        }
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); execs.len()];
        for run in 0..WARMUP + RUNS {
            for (i, exec) in execs.iter_mut().enumerate() {
                let start = Instant::now();
                exec.forward();
                exec.backward();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.stats.measurements += 1;
                if run >= WARMUP {
                    samples[i].push(ms);
                }
            }
        }
        Ok(samples)
    }

    fn lower(&self, compiled: CompiledNet) -> Result<CompiledProgram, TuneError> {
        let cfg = ExecConfig {
            threads: self.pool.threads(),
            arena: false,
            gemm_blocking: None,
        };
        Ok(CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), cfg)?)
    }

    /// Writes the cache atomically: serialize, CRC-seal, replace.
    fn save(&self) -> Result<(), TuneError> {
        write_sealed_file(&self.path, &[&render_cache(&self.entries)])
            .map_err(|source| TuneError::Io { path: self.path.clone(), source })
    }
}

/// The cache key for a network: reference-compile fingerprint, batch,
/// the tuner pool's thread count, and the host's micro-architecture
/// class. The pool's count (not `LATTE_THREADS`) keys the entry: two
/// tuners over the same file at different thread counts must not share
/// schedules — the parallel/serial decisions depend on the fan-out.
fn net_key(reference: &CompiledNet, threads: usize) -> String {
    format!(
        "net:{:016x}|b{}|t{}|{}",
        reference.fingerprint(),
        reference.batch,
        threads.max(1),
        cpu_features()
    )
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// The paired-round decision rule: the challenger replaces the incumbent
/// only if it won **every** paired round *and* its median beats the
/// incumbent's by the [`HYSTERESIS`] margin. Both conditions target
/// shared-host noise: a bursty background load can hand one side several
/// rounds or shift a median, but only a real schedule win shows up in
/// every single round *and* clears the margin. The bias is deliberately
/// conservative — a genuine win the noise floor swallows just keeps the
/// known-good default, which costs nothing; a spurious win would persist
/// a bad schedule in the cache.
fn challenger_wins(incumbent: &[f64], challenger: &[f64]) -> bool {
    debug_assert_eq!(incumbent.len(), challenger.len());
    let all_rounds = incumbent.iter().zip(challenger).all(|(inc, ch)| ch < inc);
    all_rounds && median(challenger.to_vec()) < median(incumbent.to_vec()) * HYSTERESIS
}

// ---------------------------------------------------------------------
// On-disk format
// ---------------------------------------------------------------------

fn render_cache(entries: &BTreeMap<String, CacheEntry>) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    put_u32(&mut out, entries.len() as u32);
    for (key, entry) in entries {
        put_str(&mut out, key);
        let tile = entry.schedule.tile_size;
        out.push(u8::from(tile.is_some()));
        put_u32(&mut out, tile.unwrap_or(0) as u32);
        let blocking = entry.schedule.gemm_blocking;
        out.push(u8::from(blocking.is_some()));
        let (kc, nc, mc) = blocking.unwrap_or((0, 0, 0));
        for v in [kc, nc, mc] {
            put_u32(&mut out, v as u32);
        }
        out.push(u8::from(entry.schedule.parallel_default));
        put_u32(&mut out, entry.schedule.group_parallel.len() as u32);
        for (group, &parallel) in &entry.schedule.group_parallel {
            put_str(&mut out, group);
            out.push(u8::from(parallel));
        }
        out.extend_from_slice(&entry.score_ms.to_le_bytes());
    }
    seal(out)
}

impl From<ReadError> for TuneError {
    fn from(e: ReadError) -> TuneError {
        TuneError::Corrupt { detail: format!("entry {e}") }
    }
}

fn parse_cache(bytes: &[u8]) -> Result<BTreeMap<String, CacheEntry>, TuneError> {
    let corrupt = |detail: &str| TuneError::Corrupt { detail: detail.to_string() };
    let body = read_sealed_file(bytes, MAGIC, true).map_err(|e| corrupt(&e))?;
    let mut r = Reader::new(body);
    let count = r.u32()?;
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let key = r.str()?.to_string();
        let tile_flag = r.u8()?;
        let tile_val = r.u32()? as usize;
        let tile_size = (tile_flag != 0).then_some(tile_val);
        let blk_flag = r.u8()?;
        let (kc, nc, mc) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
        let gemm_blocking = (blk_flag != 0).then_some((kc, nc, mc));
        let parallel_default = r.u8()? != 0;
        let n_groups = r.u32()?;
        let mut group_parallel = BTreeMap::new();
        for _ in 0..n_groups {
            let name = r.str()?.to_string();
            let parallel = r.u8()? != 0;
            group_parallel.insert(name, parallel);
        }
        let score_ms = r.f64()?;
        entries.insert(
            key,
            CacheEntry {
                schedule: TunedSchedule {
                    tile_size,
                    gemm_blocking,
                    parallel_default,
                    group_parallel,
                },
                score_ms,
            },
        );
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after last entry"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_entries() -> BTreeMap<String, CacheEntry> {
        let mut groups = BTreeMap::new();
        groups.insert("conv1.fwd".to_string(), false);
        groups.insert("fc1.bwd".to_string(), true);
        let mut entries = BTreeMap::new();
        entries.insert(
            "net:00000000deadbeef|b4|t2|avx2+fma".to_string(),
            CacheEntry {
                schedule: TunedSchedule {
                    tile_size: Some(4),
                    gemm_blocking: Some((256, 1024, 64)),
                    parallel_default: false,
                    group_parallel: groups,
                },
                score_ms: 1.25,
            },
        );
        entries.insert(
            "gemm:512x512x512|t1|generic".to_string(),
            CacheEntry {
                schedule: TunedSchedule {
                    gemm_blocking: Some((256, 256, 32)),
                    ..TunedSchedule::default()
                },
                score_ms: 9.5,
            },
        );
        entries
    }

    #[test]
    fn cache_round_trips_bit_exactly() {
        let entries = sample_entries();
        let bytes = render_cache(&entries);
        let parsed = parse_cache(&bytes).expect("valid cache");
        assert_eq!(parsed, entries);
        assert_eq!(render_cache(&parsed), bytes);
    }

    #[test]
    fn corrupt_caches_are_rejected_not_emptied() {
        let entries = sample_entries();
        let good = render_cache(&entries);
        // Flip one payload byte: CRC mismatch.
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 2] ^= 0x40;
        assert!(matches!(parse_cache(&flipped), Err(TuneError::Corrupt { .. })));
        // Truncate mid-entry: body CRC no longer matches either.
        assert!(parse_cache(&good[..good.len() - 9]).is_err());
        // Wrong magic.
        let mut wrong = good.clone();
        wrong[0] = b'X';
        assert!(matches!(parse_cache(&wrong), Err(TuneError::Corrupt { .. })));
        // Too short to even hold the header.
        assert!(matches!(parse_cache(b"LATTE"), Err(TuneError::Corrupt { .. })));
    }

    #[test]
    fn empty_cache_round_trips() {
        let bytes = render_cache(&BTreeMap::new());
        assert!(parse_cache(&bytes).expect("valid").is_empty());
    }
    proptest! {
        /// Fuzz: the cache parser answers arbitrary bytes — raw, or
        /// correctly sealed behind the magic so the entry decoder itself
        /// is reached — with a cache or `Corrupt`, never a panic.
        #[test]
        fn parse_cache_answers_arbitrary_bytes_with_a_structured_result(
            body in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
            count in prop_oneof![0u32..4, 0u32..u32::MAX],
        ) {
            let structured = |bytes: &[u8]| match parse_cache(bytes) {
                Ok(_) | Err(TuneError::Corrupt { .. }) => true,
                Err(_) => false,
            };
            prop_assert!(structured(&body));
            let mut sealed = MAGIC.to_vec();
            put_u32(&mut sealed, count);
            sealed.extend_from_slice(&body);
            prop_assert!(structured(&seal(sealed)));
        }
    }
}
