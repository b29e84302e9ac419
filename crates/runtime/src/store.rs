//! Buffer allocation: realizes the compiler's buffer plan, honoring
//! aliases (shared storage) and batching. The plan is resolved to a
//! [`BufferTable`] once per program; a [`BufferStore`] is the floats of
//! one executor.
//!
//! Batched buffers are allocated as one contiguous region of
//! `batch * per_item` floats, item-major. Contiguity is what allows the
//! runtime to execute fully-connected GEMMs once per batch instead of per
//! item, and what keeps the double-buffered input loader a single copy.

use std::collections::HashMap;

use latte_ir::{BufferDecl, BufferKind};
use latte_tensor::Shape;

use crate::error::RuntimeError;
use crate::plan::MemoryLayout;

/// Whether (and how) a buffer's contents can be observed through the
/// store after a run. Everything is [`Visibility::Retained`] in the
/// identity layout; the liveness arena introduces the other states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visibility {
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
pub(crate) struct BufInfo {
    /// Index into the store's storage vector.
    pub(crate) storage: usize,
    /// Elements per batch item.
    pub(crate) per_item: usize,
    /// Whether the buffer has one copy per batch item.
    pub(crate) batched: bool,
    /// The declared role.
    pub(crate) kind: BufferKind,
    /// The declared per-item shape.
    pub(crate) shape: Shape,
    /// Arena visibility (always [`Visibility::Retained`] without the
    /// arena).
    pub(crate) vis: Visibility,
}

impl BufInfo {
    /// The buffer's logical element count: `per_item` times the batch for
    /// batched buffers. Equals the storage length for retained buffers;
    /// arena slots may be larger (sized for their largest occupant).
    pub(crate) fn logical_len(&self, batch: usize) -> usize {
        self.per_item * if self.batched { batch } else { 1 }
    }
}

/// Where every named buffer of one compiled net lives: resolved once at
/// lowering against the net's [`MemoryLayout`] and shared, read-only, by
/// every executor of the program.
#[derive(Debug)]
pub(crate) struct BufferTable {
    infos: HashMap<String, BufInfo>,
}

impl BufferTable {
    /// Resolves a buffer plan against a layout: a primary declaration
    /// takes its class's backing and visibility, an alias its target's.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadAlias`] when an alias target is missing
    /// or incompatible.
    pub(crate) fn resolve(decls: &[BufferDecl], layout: &MemoryLayout) -> Result<Self, RuntimeError> {
        let mut infos: HashMap<String, BufInfo> = HashMap::new();
        // Classes are numbered over primary declarations in order — the
        // numbering the layout was computed with.
        let mut next_class = 0usize;
        for decl in decls {
            let per_item = decl.shape.len();
            let batched = decl.kind.is_batched();
            let (storage, vis) = match &decl.alias_of {
                None => {
                    next_class += 1;
                    (layout.backing_of_class[next_class - 1], layout.class_vis[next_class - 1])
                }
                Some(target) => match infos.get(target) {
                    Some(t) if t.per_item == per_item && t.batched == batched => (t.storage, t.vis),
                    _ => {
                        return Err(RuntimeError::BadAlias {
                            name: decl.name.clone(),
                            target: target.clone(),
                        })
                    }
                },
            };
            let info = BufInfo {
                storage,
                per_item,
                batched,
                kind: decl.kind,
                shape: decl.shape.clone(),
                vis,
            };
            infos.insert(decl.name.clone(), info);
        }
        Ok(BufferTable { infos })
    }

    /// Placement of a named buffer, as an error-carrying lookup.
    pub(crate) fn require(&self, name: &str) -> Result<&BufInfo, RuntimeError> {
        self.infos.get(name).ok_or_else(|| RuntimeError::UnknownBuffer {
            name: name.to_string(),
        })
    }

    /// Placement of a named buffer whose contents can be observed:
    /// rejects buffers whose storage the arena reclaimed (or never
    /// materialized), so no caller ever reads a slot co-resident's bytes.
    pub(crate) fn visible(&self, name: &str) -> Result<&BufInfo, RuntimeError> {
        let info = self.require(name)?;
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
}

/// All allocated storage for one compiled network instance: the
/// layout's backings and nothing else. Callers address it through a
/// [`BufInfo`] of the program's [`BufferTable`].
#[derive(Debug)]
pub(crate) struct BufferStore {
    batch: usize,
    pub(crate) storages: Vec<Vec<f32>>,
}

impl BufferStore {
    /// Allocates a layout's backings, zeroed.
    pub(crate) fn build(layout: &MemoryLayout, batch: usize) -> Self {
        let storages = layout.backing_len.iter().map(|&n| vec![0.0; n]).collect();
        BufferStore { batch, storages }
    }

    /// Borrows a buffer's entire logical contents (all batch items): its
    /// logical prefix of the backing storage.
    pub(crate) fn view(&self, info: &BufInfo) -> &[f32] {
        &self.storages[info.storage][..info.logical_len(self.batch)]
    }

    /// Copies one item's slice of a batched buffer (or the whole buffer
    /// when unbatched).
    pub(crate) fn read_item(&self, info: &BufInfo, item: usize) -> Vec<f32> {
        let off = if info.batched { item * info.per_item } else { 0 };
        self.storages[info.storage][off..off + info.per_item].to_vec()
    }

    /// Overwrites a buffer's entire logical contents.
    ///
    /// # Errors
    ///
    /// Fails when `data` length differs from the buffer's logical length.
    pub(crate) fn write(&mut self, name: &str, info: &BufInfo, data: &[f32]) -> Result<(), RuntimeError> {
        let len = info.logical_len(self.batch);
        if len != data.len() {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {} elements, got {}", len, data.len()),
            });
        }
        self.storages[info.storage][..len].copy_from_slice(data);
        Ok(())
    }

    /// Overwrites one item's slice of a batched buffer (or the whole
    /// buffer when unbatched — `item` must then be 0).
    ///
    /// # Errors
    ///
    /// Fails when `data` length differs from the buffer's per-item
    /// length, and when `item` is outside the batch.
    pub(crate) fn write_item(
        &mut self,
        name: &str,
        info: &BufInfo,
        item: usize,
        data: &[f32],
    ) -> Result<(), RuntimeError> {
        let per_item = info.per_item;
        if data.len() != per_item {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {per_item} elements per item, got {}", data.len()),
            });
        }
        let items = if info.batched { self.batch } else { 1 };
        if item >= items {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("item {item} outside batch of {items}"),
            });
        }
        let off = item * per_item;
        self.storages[info.storage][off..off + per_item].copy_from_slice(data);
        Ok(())
    }

    /// Total allocated floats (the memory-consumption metric used by the
    /// shared-buffer ablation).
    pub(crate) fn total_elements(&self) -> usize {
        self.storages.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::memory_layout;
    use latte_core::CompiledNet;

    fn decls() -> Vec<BufferDecl> {
        vec![
            BufferDecl::new("a.value", vec![4], BufferKind::Value),
            BufferDecl::alias("b.value", vec![4], BufferKind::Value, "a.value"),
            BufferDecl::new("a.weights", vec![4, 2], BufferKind::Param),
            BufferDecl::new("a.grad", vec![4], BufferKind::Grad),
            BufferDecl::new("a.g_weights", vec![4, 2], BufferKind::ParamGrad),
        ]
    }

    /// The identity layout of a bare buffer plan, resolved and allocated.
    fn build(decls: Vec<BufferDecl>, batch: usize) -> Result<(BufferTable, BufferStore), RuntimeError> {
        let net = CompiledNet {
            batch,
            buffers: decls,
            forward: Vec::new(),
            backward: Vec::new(),
            params: Vec::new(),
            inputs: Vec::new(),
            losses: Vec::new(),
            param_inits: Vec::new(),
            vectorize: false,
            stats: Default::default(),
        };
        let layout = memory_layout(&net, false);
        let table = BufferTable::resolve(&net.buffers, &layout)?;
        Ok((table, BufferStore::build(&layout, batch)))
    }

    #[test]
    fn batched_buffers_scale_with_batch() {
        let (table, store) = build(decls(), 3).unwrap();
        assert_eq!(store.view(table.visible("a.value").unwrap()).len(), 12);
        // Params are not batched.
        assert_eq!(store.view(table.visible("a.weights").unwrap()).len(), 8);
    }

    #[test]
    fn aliases_share_storage() {
        let (table, mut store) = build(decls(), 2).unwrap();
        store.write("a.value", table.visible("a.value").unwrap(), &[1.0; 8]).unwrap();
        assert_eq!(store.view(table.visible("b.value").unwrap()), [1.0; 8]);
        assert_eq!(
            table.require("a.value").unwrap().storage,
            table.require("b.value").unwrap().storage
        );
    }

    #[test]
    fn write_item_targets_one_slot() {
        let (table, mut store) = build(decls(), 3).unwrap();
        let value = table.visible("a.value").unwrap();
        store.write_item("a.value", value, 1, &[7.0; 4]).unwrap();
        assert_eq!(store.read_item(value, 0), vec![0.0; 4]);
        assert_eq!(store.read_item(value, 1), vec![7.0; 4]);
        assert_eq!(store.read_item(value, 2), vec![0.0; 4]);
        // Wrong per-item length and out-of-batch items are structured errors.
        assert!(matches!(
            store.write_item("a.value", value, 0, &[0.0; 5]),
            Err(RuntimeError::InputShape { .. })
        ));
        assert!(matches!(
            store.write_item("a.value", value, 3, &[0.0; 4]),
            Err(RuntimeError::InputShape { .. })
        ));
        // Unbatched buffers accept only item 0.
        let weights = table.visible("a.weights").unwrap();
        store.write_item("a.weights", weights, 0, &[1.0; 8]).unwrap();
        assert!(store.write_item("a.weights", weights, 1, &[1.0; 8]).is_err());
    }

    #[test]
    fn missing_alias_target_rejected() {
        let bad = vec![BufferDecl::alias("x", vec![4], BufferKind::Value, "missing")];
        assert!(matches!(build(bad, 1), Err(RuntimeError::BadAlias { .. })));
    }

    #[test]
    fn write_validates_length() {
        let (table, mut store) = build(decls(), 1).unwrap();
        assert!(store.write("a.value", table.visible("a.value").unwrap(), &[0.0; 3]).is_err());
    }

    #[test]
    fn shared_state_is_unbatched() {
        let decls = vec![
            BufferDecl::new("bn.state_prob", vec![4], BufferKind::State),
            BufferDecl::new("bn.state_mean", vec![4], BufferKind::SharedState),
        ];
        let (table, store) = build(decls, 3).unwrap();
        assert_eq!(store.view(table.visible("bn.state_prob").unwrap()).len(), 12);
        assert_eq!(store.view(table.visible("bn.state_mean").unwrap()).len(), 4);
    }

    #[test]
    fn total_elements_counts_unique_storage() {
        let (_, store) = build(decls(), 1).unwrap();
        // a.value(4) + weights(8) + grad(4) + g_weights(8); alias adds 0.
        assert_eq!(store.total_elements(), 24);
    }
}
