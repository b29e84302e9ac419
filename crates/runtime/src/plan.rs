//! Execution planning: buffer liveness analysis, the arena memory layout,
//! and the [`ExecutionPlan`] the executor drives.
//!
//! Lowering (`lower.rs`) turns the compiler's groups into kernels; this
//! module decides *where buffers live* and *when their storage may be
//! reused*. The liveness pass walks both phases' groups in execution
//! order, computes each alias class's first/last access, and packs
//! non-overlapping classes into shared arena slots — the batched
//! intermediate activations and gradients of a deep net rarely all need
//! to exist at once, so peak memory drops well below the sum of buffer
//! sizes.
//!
//! Safety properties the layout preserves:
//!
//! * two classes share a slot only when their live ranges are strictly
//!   disjoint (the earlier class's last access precedes the later's
//!   first), so no kernel ever observes a co-resident's bytes;
//! * every arena class is zeroed at its first-access group, making
//!   accumulating writes (`+=` gradients, scatter copies, bias-then-GEMM
//!   inits) start from the same state a freshly allocated buffer would;
//! * classes whose first touch is a pure read, stateful kinds
//!   (`State`/`SharedState`), parameters, input bindings, and loss
//!   buffers are *retained* — they keep private storage and the exact
//!   semantics of the identity layout;
//! * classes no statement touches get no storage at all (*dead*), and a
//!   class evicted by a later slot occupant is *expired*; reading either
//!   by name yields a structured
//!   [`RuntimeError::BufferRetired`](crate::error::RuntimeError) rather
//!   than stale data.

use std::collections::HashMap;

use latte_core::CompiledNet;
use latte_ir::BufferKind;

use crate::lower::{CGroup, Plan};
use crate::store::Visibility;

/// The memory layout of one compiled net: where every alias class lives
/// and what must be zeroed when. Without the arena it is the identity —
/// a private, retained backing per class and nothing to zero on entry —
/// so the store and the executor have one path for both.
#[derive(Debug)]
pub(crate) struct MemoryLayout {
    /// Per alias class (primary declarations in order): backing index.
    pub backing_of_class: Vec<usize>,
    /// Element count of each backing vector.
    pub backing_len: Vec<usize>,
    /// Whether each backing is a shared arena slot (skipped by the
    /// whole-storage gradient zeroing; zeroed per-group instead).
    pub backing_arena: Vec<bool>,
    /// Post-run visibility of each class.
    pub class_vis: Vec<Visibility>,
    /// `(global group position, backing, elements)` fills to run before
    /// the group at that position executes.
    pub zero_on_entry: Vec<(usize, usize, usize)>,
    /// Private backings filled whole before every backward pass: the
    /// activation and parameter gradients outside the arena (an arena
    /// slot is zeroed per occupant, at its first-access group, since a
    /// whole-slot fill would clobber whoever lives there).
    pub zero_backward: Vec<usize>,
}

struct ClassInfo {
    total_len: usize,
    /// The primary declaration holds gradients (`BufferKind::is_grad`).
    grad: bool,
    retained: bool,
    first: Option<usize>,
    last: usize,
    /// First top-level statement touching the class reads it without
    /// writing it.
    read_first: bool,
}

/// Computes a compiled net's layout: liveness-packed when `arena`, the
/// identity otherwise.
pub(crate) fn memory_layout(net: &CompiledNet, arena: bool) -> MemoryLayout {
    let batch = net.batch;

    // Alias classes: one per primary declaration; aliases resolve to
    // their (transitive) root's class.
    let mut class_of: HashMap<&str, usize> = HashMap::new();
    let mut classes: Vec<ClassInfo> = Vec::new();
    for decl in &net.buffers {
        // An alias joins its (transitive) root's class. A missing target
        // gets a private class here; `BufferTable::resolve` rejects it
        // with a proper `BadAlias`.
        let root = decl
            .alias_of
            .as_ref()
            .and_then(|t| class_of.get(t.as_str()).copied());
        let class = match root {
            Some(c) => c,
            None => {
                let total = decl.len() * if decl.kind.is_batched() { batch } else { 1 };
                classes.push(ClassInfo {
                    total_len: total,
                    grad: decl.kind.is_grad(),
                    retained: false,
                    first: None,
                    last: 0,
                    read_first: false,
                });
                classes.len() - 1
            }
        };
        class_of.insert(&decl.name, class);
        // Stateful and externally-written kinds anywhere in the class pin
        // it to private storage.
        if matches!(
            decl.kind,
            BufferKind::Param | BufferKind::ParamGrad | BufferKind::State | BufferKind::SharedState
        ) {
            classes[class].retained = true;
        }
    }
    // Input bindings are written from outside any group (`set_input`),
    // loss buffers are read from outside (`loss()`).
    for name in net
        .inputs
        .iter()
        .map(|i| i.buffer.as_str())
        .chain(net.losses.iter().map(String::as_str))
    {
        if let Some(&c) = class_of.get(name) {
            classes[c].retained = true;
        }
    }

    // Access positions: forward groups first, then backward, matching
    // execution order of one training step. The identity layout packs
    // nothing, so it reads none of them.
    let scanned = if arena { usize::MAX } else { 0 };
    for (pos, group) in net.forward.iter().chain(&net.backward).enumerate().take(scanned) {
        for stmt in &group.stmts {
            let writes = stmt.written_buffers();
            for name in stmt.read_buffers() {
                let c = class_of[name.as_str()];
                let info = &mut classes[c];
                if info.first.is_none() && !writes.contains(&name) {
                    info.read_first = true;
                }
                info.first.get_or_insert(pos);
                info.last = pos;
            }
            for name in &writes {
                let c = class_of[name.as_str()];
                let info = &mut classes[c];
                info.first.get_or_insert(pos);
                info.last = pos;
            }
        }
    }

    // Greedy interval packing: arena-eligible classes in first-access
    // order, first slot whose previous occupant died strictly earlier.
    struct Slot {
        backing: usize,
        last: usize,
        occupant: usize,
    }
    let mut backing_len: Vec<usize> = Vec::new();
    let mut backing_arena: Vec<bool> = Vec::new();
    let mut backing_of_class = vec![usize::MAX; classes.len()];
    let mut class_vis = vec![Visibility::Retained; classes.len()];
    let mut zero_on_entry: Vec<(usize, usize, usize)> = Vec::new();

    // Retained and dead classes first (stable backing numbering), arena
    // classes collected for packing.
    let mut arena_classes: Vec<usize> = Vec::new();
    for (c, info) in classes.iter().enumerate() {
        if !arena || info.retained || (info.read_first && info.first.is_some()) {
            backing_of_class[c] = backing_len.len();
            backing_len.push(info.total_len);
            backing_arena.push(false);
            class_vis[c] = Visibility::Retained;
        } else if info.first.is_none() {
            // Never touched by any statement: no storage at all.
            backing_of_class[c] = backing_len.len();
            backing_len.push(0);
            backing_arena.push(false);
            class_vis[c] = Visibility::Dead;
        } else {
            arena_classes.push(c);
        }
    }
    arena_classes.sort_by_key(|&c| (classes[c].first.unwrap(), c));

    let mut slots: Vec<Slot> = Vec::new();
    for &c in &arena_classes {
        let first = classes[c].first.unwrap();
        let last = classes[c].last;
        let slot = slots.iter_mut().find(|s| s.last < first);
        let backing = match slot {
            Some(s) => {
                class_vis[s.occupant] = Visibility::Expired;
                s.last = last;
                s.occupant = c;
                backing_len[s.backing] = backing_len[s.backing].max(classes[c].total_len);
                s.backing
            }
            None => {
                let backing = backing_len.len();
                backing_len.push(classes[c].total_len);
                backing_arena.push(true);
                slots.push(Slot {
                    backing,
                    last,
                    occupant: c,
                });
                backing
            }
        };
        backing_of_class[c] = backing;
        class_vis[c] = Visibility::Final;
        zero_on_entry.push((first, backing, classes[c].total_len));
    }

    let zero_backward = (0..classes.len())
        .filter(|&c| classes[c].grad && !backing_arena[backing_of_class[c]])
        .map(|c| backing_of_class[c])
        .collect();
    MemoryLayout {
        backing_of_class,
        backing_len,
        backing_arena,
        class_vis,
        zero_on_entry,
        zero_backward,
    }
}

/// The executors' whole program: the lowered kernel groups of both phases
/// plus the memory layout they were lowered against and the zero-fills
/// that must run between them. Built once per
/// [`CompiledProgram`](crate::CompiledProgram); an executor is a thin
/// driver over this plan.
#[derive(Debug)]
pub struct ExecutionPlan {
    pub(crate) lowered: Plan,
    pub(crate) layout: MemoryLayout,
    /// Per forward group: `(backing, elements)` fills before the group.
    zero_fwd: Vec<Vec<(usize, usize)>>,
    /// Per backward group: `(backing, elements)` fills before the group.
    zero_bwd: Vec<Vec<(usize, usize)>>,
}

/// The lowered program as text: per group its schedule, buffer table
/// and segments — whole-batch GEMM shapes, and per-item kernels down to
/// each element program's instruction list and strip width. What
/// `latte-explain --kernels` prints and `tests/golden_ir.rs` pins.
impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.lowered.fmt(f)
    }
}

impl ExecutionPlan {
    pub(crate) fn new(lowered: Plan, layout: MemoryLayout) -> Self {
        let n_fwd = lowered.forward.len();
        let mut zero_fwd = vec![Vec::new(); n_fwd];
        let mut zero_bwd = vec![Vec::new(); lowered.backward.len()];
        for &(pos, backing, len) in &layout.zero_on_entry {
            if pos < n_fwd {
                zero_fwd[pos].push((backing, len));
            } else {
                zero_bwd[pos - n_fwd].push((backing, len));
            }
        }
        ExecutionPlan { lowered, layout, zero_fwd, zero_bwd }
    }

    pub(crate) fn groups(&self, backward: bool) -> &[CGroup] {
        if backward {
            &self.lowered.backward
        } else {
            &self.lowered.forward
        }
    }

    pub(crate) fn n_slots(&self) -> usize {
        self.lowered.n_slots
    }

    pub(crate) fn zeroes(&self, backward: bool) -> &[Vec<(usize, usize)>] {
        if backward {
            &self.zero_bwd
        } else {
            &self.zero_fwd
        }
    }

    /// Whether this plan packs buffers into a liveness arena.
    pub fn arena(&self) -> bool {
        self.layout.backing_arena.contains(&true)
    }

    /// Number of lowered forward groups.
    pub fn forward_groups(&self) -> usize {
        self.lowered.forward.len()
    }

    /// Number of lowered backward groups.
    pub fn backward_groups(&self) -> usize {
        self.lowered.backward.len()
    }
}
