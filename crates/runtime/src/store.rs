//! Buffer allocation: realizes the compiler's buffer plan, honoring
//! aliases (shared storage) and batching.
//!
//! Batched buffers are allocated as one contiguous region of
//! `batch * per_item` floats, item-major. Contiguity is what allows the
//! runtime to execute fully-connected GEMMs once per batch instead of per
//! item, and what keeps the double-buffered input loader a single copy.

use std::collections::HashMap;

use latte_ir::{BufferDecl, BufferKind};
use latte_tensor::Shape;

use crate::error::RuntimeError;

/// Whether (and how) a buffer's contents can be observed through the
/// store after a run. Everything is [`Visibility::Retained`] in the
/// default layout; the liveness arena introduces the other states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Private storage, exactly the non-arena semantics.
    Retained,
    /// Lives in a shared arena slot as its *last* occupant: contents are
    /// valid after a run, reads see the buffer's logical length.
    Final,
    /// Lived in a shared arena slot but a later buffer reclaimed it;
    /// reads and writes fail with a structured error instead of exposing
    /// the current occupant's bytes.
    Expired,
    /// No statement touches the buffer, so the arena gave it no storage.
    Dead,
}

/// Resolved placement of one named buffer.
#[derive(Debug, Clone)]
pub struct BufInfo {
    /// Index into the store's storage vector.
    pub storage: usize,
    /// Elements per batch item.
    pub per_item: usize,
    /// Whether the buffer has one copy per batch item.
    pub batched: bool,
    /// The declared role.
    pub kind: BufferKind,
    /// The declared per-item shape.
    pub shape: Shape,
    /// Arena visibility (always [`Visibility::Retained`] without the
    /// arena).
    pub vis: Visibility,
}

impl BufInfo {
    /// The buffer's logical element count: `per_item` times the batch for
    /// batched buffers. Equals the storage length for retained buffers;
    /// arena slots may be larger (sized for their largest occupant).
    pub fn logical_len(&self, batch: usize) -> usize {
        self.per_item * if self.batched { batch } else { 1 }
    }
}

/// All allocated storage for one compiled network instance.
#[derive(Debug)]
pub struct BufferStore {
    batch: usize,
    infos: HashMap<String, BufInfo>,
    /// Primary declaration kind per storage (for phase zeroing).
    storage_kinds: Vec<BufferKind>,
    /// Per storage: shared arena slot (excluded from global zeroing; the
    /// execution plan zeroes occupants at their first-access group).
    arena_storages: Vec<bool>,
    pub(crate) storages: Vec<Vec<f32>>,
}

impl BufferStore {
    /// Allocates storage for a buffer plan, one private storage per
    /// primary declaration (aliases share their target's).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadAlias`] when an alias target is missing
    /// or incompatible.
    pub fn new(decls: &[BufferDecl], batch: usize) -> Result<Self, RuntimeError> {
        Self::build(decls, batch, None)
    }

    /// Allocates storage following an explicit arena layout: classes
    /// mapped to shared backings sized by the layout, with per-class
    /// visibility. `None` behaves exactly like [`BufferStore::new`].
    pub(crate) fn with_layout(
        decls: &[BufferDecl],
        batch: usize,
        layout: Option<&crate::plan::MemoryLayout>,
    ) -> Result<Self, RuntimeError> {
        Self::build(decls, batch, layout)
    }

    fn build(
        decls: &[BufferDecl],
        batch: usize,
        layout: Option<&crate::plan::MemoryLayout>,
    ) -> Result<Self, RuntimeError> {
        let mut infos: HashMap<String, BufInfo> = HashMap::new();
        let mut storages: Vec<Vec<f32>> = layout
            .map(|l| l.backing_len.iter().map(|&n| vec![0.0; n]).collect())
            .unwrap_or_default();
        let mut storage_kinds: Vec<BufferKind> = vec![BufferKind::Value; storages.len()];
        let mut arena_storages: Vec<bool> =
            layout.map(|l| l.backing_arena.clone()).unwrap_or_default();
        // Classes are numbered over primary declarations in order — the
        // same numbering the layout was computed with.
        let mut next_class = 0usize;
        for decl in decls {
            let per_item = decl.shape.len();
            let batched = decl.kind.is_batched();
            match &decl.alias_of {
                None => {
                    let class = next_class;
                    next_class += 1;
                    let (storage, vis) = match layout {
                        Some(l) => (l.backing_of_class[class], l.class_vis[class]),
                        None => {
                            let len = if batched { per_item * batch } else { per_item };
                            storages.push(vec![0.0; len]);
                            storage_kinds.push(decl.kind);
                            arena_storages.push(false);
                            (storages.len() - 1, Visibility::Retained)
                        }
                    };
                    if layout.is_some() {
                        // Record the kind for global zeroing (arena
                        // storages are excluded from it anyway).
                        storage_kinds[storage] = decl.kind;
                    }
                    infos.insert(
                        decl.name.clone(),
                        BufInfo {
                            storage,
                            per_item,
                            batched,
                            kind: decl.kind,
                            shape: decl.shape.clone(),
                            vis,
                        },
                    );
                }
                Some(target) => {
                    let t = infos.get(target).ok_or_else(|| RuntimeError::BadAlias {
                        name: decl.name.clone(),
                        target: target.clone(),
                    })?;
                    if t.per_item != per_item || t.batched != batched {
                        return Err(RuntimeError::BadAlias {
                            name: decl.name.clone(),
                            target: target.clone(),
                        });
                    }
                    let storage = t.storage;
                    let vis = t.vis;
                    infos.insert(
                        decl.name.clone(),
                        BufInfo {
                            storage,
                            per_item,
                            batched,
                            kind: decl.kind,
                            shape: decl.shape.clone(),
                            vis,
                        },
                    );
                }
            }
        }
        Ok(BufferStore {
            batch,
            infos,
            storage_kinds,
            arena_storages,
            storages,
        })
    }

    /// The batch size the store was allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Placement of a named buffer.
    pub fn info(&self, name: &str) -> Option<&BufInfo> {
        self.infos.get(name)
    }

    /// Placement of a named buffer, as an error-carrying lookup.
    pub fn require(&self, name: &str) -> Result<&BufInfo, RuntimeError> {
        self.infos.get(name).ok_or_else(|| RuntimeError::UnknownBuffer {
            name: name.to_string(),
        })
    }

    /// Rejects access to buffers whose storage the arena reclaimed (or
    /// never materialized); passes visible buffers through.
    fn visible<'a>(&self, name: &str, info: &'a BufInfo) -> Result<&'a BufInfo, RuntimeError> {
        match info.vis {
            Visibility::Retained | Visibility::Final => Ok(info),
            Visibility::Expired => Err(RuntimeError::BufferRetired {
                name: name.to_string(),
                detail: "its arena slot was reclaimed by a later-live buffer".to_string(),
            }),
            Visibility::Dead => Err(RuntimeError::BufferRetired {
                name: name.to_string(),
                detail: "no statement touches it, so the arena gave it no storage".to_string(),
            }),
        }
    }

    /// The visible contents of a buffer: its logical prefix of the
    /// backing storage, or `None` when the arena retired it. Used by the
    /// numerical sentinels, which must never scan a co-resident's bytes.
    pub fn scan_view(&self, name: &str) -> Option<&[f32]> {
        self.view(name).ok()
    }

    /// Borrows a buffer's entire logical contents (all batch items).
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers, and for buffers retired by the arena
    /// (never returns another buffer's bytes).
    pub fn view(&self, name: &str) -> Result<&[f32], RuntimeError> {
        let info = self.visible(name, self.require(name)?)?;
        Ok(&self.storages[info.storage][..info.logical_len(self.batch)])
    }

    /// Copies a buffer's entire logical contents out (all batch items).
    ///
    /// # Errors
    ///
    /// As [`BufferStore::view`].
    pub fn read(&self, name: &str) -> Result<Vec<f32>, RuntimeError> {
        self.view(name).map(<[f32]>::to_vec)
    }

    /// Copies one item's slice of a batched buffer (or the whole buffer
    /// when unbatched).
    ///
    /// # Errors
    ///
    /// As [`BufferStore::read`].
    pub fn read_item(&self, name: &str, item: usize) -> Result<Vec<f32>, RuntimeError> {
        let info = self.visible(name, self.require(name)?)?;
        let s = &self.storages[info.storage];
        if info.batched {
            let off = item * info.per_item;
            Ok(s[off..off + info.per_item].to_vec())
        } else {
            Ok(s[..info.per_item].to_vec())
        }
    }

    /// Overwrites a buffer's entire logical contents.
    ///
    /// # Errors
    ///
    /// Fails when `data` length differs from the buffer's logical length,
    /// and for buffers retired by the arena.
    pub fn write(&mut self, name: &str, data: &[f32]) -> Result<(), RuntimeError> {
        let info = self.visible(name, self.require(name)?)?;
        let (storage, len) = (info.storage, info.logical_len(self.batch));
        if len != data.len() {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {} elements, got {}", len, data.len()),
            });
        }
        self.storages[storage][..len].copy_from_slice(data);
        Ok(())
    }

    /// Overwrites one item's slice of a batched buffer (or the whole
    /// buffer when unbatched — `item` must then be 0).
    ///
    /// # Errors
    ///
    /// Fails when `data` length differs from the buffer's per-item
    /// length, when `item` is outside the batch, and for unknown or
    /// arena-retired buffers.
    pub fn write_item(&mut self, name: &str, item: usize, data: &[f32]) -> Result<(), RuntimeError> {
        let info = self.visible(name, self.require(name)?)?;
        let (storage, per_item, batched) = (info.storage, info.per_item, info.batched);
        if data.len() != per_item {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {per_item} elements per item, got {}", data.len()),
            });
        }
        let items = if batched { self.batch } else { 1 };
        if item >= items {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("item {item} outside batch of {items}"),
            });
        }
        let off = if batched { item * per_item } else { 0 };
        self.storages[storage][off..off + per_item].copy_from_slice(data);
        Ok(())
    }

    /// Zeroes every activation-gradient storage (`Grad` and
    /// `InputGradStage`), run before each backward pass. Shared arena
    /// slots are skipped — the execution plan zeroes each occupant at its
    /// first-access group instead, since a global fill would clobber
    /// whatever buffer currently lives there.
    pub fn zero_grads(&mut self) {
        for (i, kind) in self.storage_kinds.iter().enumerate() {
            if self.arena_storages.get(i).copied().unwrap_or(false) {
                continue;
            }
            if matches!(kind, BufferKind::Grad | BufferKind::InputGradStage) {
                self.storages[i].fill(0.0);
            }
        }
    }

    /// Zeroes every parameter-gradient storage, run before each
    /// accumulation window (usually every iteration).
    pub fn zero_param_grads(&mut self) {
        for (i, kind) in self.storage_kinds.iter().enumerate() {
            if matches!(kind, BufferKind::ParamGrad) {
                self.storages[i].fill(0.0);
            }
        }
    }

    /// Total allocated floats (the memory-consumption metric used by the
    /// shared-buffer ablation).
    pub fn total_elements(&self) -> usize {
        self.storages.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<BufferDecl> {
        vec![
            BufferDecl::new("a.value", vec![4], BufferKind::Value),
            BufferDecl::alias("b.value", vec![4], BufferKind::Value, "a.value"),
            BufferDecl::new("a.weights", vec![4, 2], BufferKind::Param),
            BufferDecl::new("a.grad", vec![4], BufferKind::Grad),
            BufferDecl::new("a.g_weights", vec![4, 2], BufferKind::ParamGrad),
        ]
    }

    #[test]
    fn batched_buffers_scale_with_batch() {
        let store = BufferStore::new(&decls(), 3).unwrap();
        assert_eq!(store.read("a.value").unwrap().len(), 12);
        // Params are not batched.
        assert_eq!(store.read("a.weights").unwrap().len(), 8);
    }

    #[test]
    fn aliases_share_storage() {
        let mut store = BufferStore::new(&decls(), 2).unwrap();
        store.write("a.value", &[1.0; 8]).unwrap();
        assert_eq!(store.read("b.value").unwrap(), vec![1.0; 8]);
        assert_eq!(
            store.info("a.value").unwrap().storage,
            store.info("b.value").unwrap().storage
        );
    }

    #[test]
    fn read_item_slices_batched_buffers() {
        let mut store = BufferStore::new(&decls(), 2).unwrap();
        store
            .write("a.value", &[0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0])
            .unwrap();
        assert_eq!(store.read_item("a.value", 1).unwrap(), vec![5.0; 4]);
    }

    #[test]
    fn write_item_targets_one_slot() {
        let mut store = BufferStore::new(&decls(), 3).unwrap();
        store.write_item("a.value", 1, &[7.0; 4]).unwrap();
        assert_eq!(store.read_item("a.value", 0).unwrap(), vec![0.0; 4]);
        assert_eq!(store.read_item("a.value", 1).unwrap(), vec![7.0; 4]);
        assert_eq!(store.read_item("a.value", 2).unwrap(), vec![0.0; 4]);
        // Wrong per-item length and out-of-batch items are structured errors.
        assert!(matches!(
            store.write_item("a.value", 0, &[0.0; 5]),
            Err(RuntimeError::InputShape { .. })
        ));
        assert!(matches!(
            store.write_item("a.value", 3, &[0.0; 4]),
            Err(RuntimeError::InputShape { .. })
        ));
        // Unbatched buffers accept only item 0.
        store.write_item("a.weights", 0, &[1.0; 8]).unwrap();
        assert!(store.write_item("a.weights", 1, &[1.0; 8]).is_err());
    }

    #[test]
    fn zeroing_is_kind_selective() {
        let mut store = BufferStore::new(&decls(), 1).unwrap();
        store.write("a.grad", &[1.0; 4]).unwrap();
        store.write("a.g_weights", &[1.0; 8]).unwrap();
        store.zero_grads();
        assert_eq!(store.read("a.grad").unwrap(), vec![0.0; 4]);
        assert_eq!(store.read("a.g_weights").unwrap(), vec![1.0; 8]);
        store.zero_param_grads();
        assert_eq!(store.read("a.g_weights").unwrap(), vec![0.0; 8]);
    }

    #[test]
    fn missing_alias_target_rejected() {
        let bad = vec![BufferDecl::alias(
            "x",
            vec![4],
            BufferKind::Value,
            "missing",
        )];
        assert!(matches!(
            BufferStore::new(&bad, 1),
            Err(RuntimeError::BadAlias { .. })
        ));
    }

    #[test]
    fn write_validates_length() {
        let mut store = BufferStore::new(&decls(), 1).unwrap();
        assert!(store.write("a.value", &[0.0; 3]).is_err());
    }

    #[test]
    fn shared_state_is_unbatched() {
        let decls = vec![
            BufferDecl::new("bn.state_prob", vec![4], BufferKind::State),
            BufferDecl::new("bn.state_mean", vec![4], BufferKind::SharedState),
        ];
        let store = BufferStore::new(&decls, 3).unwrap();
        assert_eq!(store.read("bn.state_prob").unwrap().len(), 12);
        assert_eq!(store.read("bn.state_mean").unwrap().len(), 4);
    }

    #[test]
    fn total_elements_counts_unique_storage() {
        let store = BufferStore::new(&decls(), 1).unwrap();
        // a.value(4) + weights(8) + grad(4) + g_weights(8); alias adds 0.
        assert_eq!(store.total_elements(), 24);
    }
}
