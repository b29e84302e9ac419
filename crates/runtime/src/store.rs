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
}

/// Where every named buffer of one compiled net lives: resolved once at
/// lowering and shared, read-only, by every executor of the program.
/// Storage is declaration: a primary declaration owns the next storage
/// (its alias class, numbered in declaration order) and an alias takes
/// its target's, so the compiler's shared-variable analysis is the whole
/// answer to where a buffer lives.
#[derive(Debug)]
pub(crate) struct BufferTable {
    infos: HashMap<String, BufInfo>,
    /// Element count per storage at batch 1 and whether it scales with
    /// the batch, in storage order.
    storages: Vec<(usize, bool)>,
}

impl BufferTable {
    /// Resolves a buffer plan.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadAlias`] when an alias target is missing
    /// or incompatible.
    pub(crate) fn resolve(decls: &[BufferDecl]) -> Result<Self, RuntimeError> {
        let mut infos: HashMap<String, BufInfo> = HashMap::new();
        let mut storages = Vec::new();
        for decl in decls {
            let per_item = decl.shape.len();
            let batched = decl.kind.is_batched();
            let storage = match &decl.alias_of {
                None => {
                    storages.push((per_item, batched));
                    storages.len() - 1
                }
                Some(target) => match infos.get(target) {
                    Some(t) if t.per_item == per_item && t.batched == batched => t.storage,
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
            };
            infos.insert(decl.name.clone(), info);
        }
        Ok(BufferTable { infos, storages })
    }

    /// Placement of a named buffer, as an error-carrying lookup.
    pub(crate) fn require(&self, name: &str) -> Result<&BufInfo, RuntimeError> {
        self.infos
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownBuffer {
                name: name.to_string(),
            })
    }
}

/// All allocated storage for one compiled network instance: one vector
/// per storage of the program's [`BufferTable`] and nothing else. Callers
/// address it through a [`BufInfo`] of that table.
///
/// Batched storages hold `capacity` items; a run covers the first
/// `batch` of them, and every accessor here sees only those.
#[derive(Debug)]
pub(crate) struct BufferStore {
    capacity: usize,
    batch: usize,
    pub(crate) storages: Vec<Vec<f32>>,
}

impl BufferStore {
    /// Allocates a table's storages at `capacity` items, zeroed, with the
    /// batch at the capacity.
    pub(crate) fn build(table: &BufferTable, capacity: usize) -> Self {
        let storages = table
            .storages
            .iter()
            .map(|&(per_item, batched)| vec![0.0; per_item * if batched { capacity } else { 1 }])
            .collect();
        BufferStore {
            capacity,
            batch: capacity,
            storages,
        }
    }

    /// The items every batched storage holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The items a run covers.
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    /// Sets the items a run covers; the caller keeps `1..=capacity`.
    pub(crate) fn set_batch(&mut self, batch: usize) {
        debug_assert!((1..=self.capacity).contains(&batch));
        self.batch = batch;
    }

    /// The elements of a buffer a run covers: `batch` items of a batched
    /// buffer, all of an unbatched one.
    pub(crate) fn len(&self, info: &BufInfo) -> usize {
        info.per_item * if info.batched { self.batch } else { 1 }
    }

    /// Borrows a buffer's contents for the current batch.
    pub(crate) fn view(&self, info: &BufInfo) -> &[f32] {
        &self.storages[info.storage][..self.len(info)]
    }

    /// Where one item's slice starts: `item` must be inside the batch for
    /// a batched buffer and 0 for an unbatched one.
    fn item_offset(&self, name: &str, info: &BufInfo, item: usize) -> Result<usize, RuntimeError> {
        let items = if info.batched { self.batch } else { 1 };
        if item >= items {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("item {item} outside batch of {items}"),
            });
        }
        Ok(item * info.per_item)
    }

    /// Copies one item's slice of a batched buffer (or the whole buffer
    /// when unbatched — `item` must then be 0).
    ///
    /// # Errors
    ///
    /// Fails when `item` is outside the batch.
    pub(crate) fn read_item(
        &self,
        name: &str,
        info: &BufInfo,
        item: usize,
    ) -> Result<Vec<f32>, RuntimeError> {
        let off = self.item_offset(name, info, item)?;
        Ok(self.storages[info.storage][off..off + info.per_item].to_vec())
    }

    /// Overwrites a buffer's contents for the current batch.
    ///
    /// # Errors
    ///
    /// Fails when `data` length differs from that length.
    pub(crate) fn write(
        &mut self,
        name: &str,
        info: &BufInfo,
        data: &[f32],
    ) -> Result<(), RuntimeError> {
        let len = self.len(info);
        if len != data.len() {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {len} elements, got {}", data.len()),
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
        let off = self.item_offset(name, info, item)?;
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

    fn decls() -> Vec<BufferDecl> {
        vec![
            BufferDecl::new("a.value", vec![4], BufferKind::Value),
            BufferDecl::alias("b.value", vec![4], BufferKind::Value, "a.value"),
            BufferDecl::new("a.weights", vec![4, 2], BufferKind::Param),
            BufferDecl::new("a.grad", vec![4], BufferKind::Grad),
            BufferDecl::new("a.g_weights", vec![4, 2], BufferKind::ParamGrad),
        ]
    }

    /// A bare buffer plan, resolved and allocated.
    fn build(
        decls: Vec<BufferDecl>,
        batch: usize,
    ) -> Result<(BufferTable, BufferStore), RuntimeError> {
        let table = BufferTable::resolve(&decls)?;
        let store = BufferStore::build(&table, batch);
        Ok((table, store))
    }

    #[test]
    fn batched_buffers_scale_with_batch() {
        let (table, store) = build(decls(), 3).unwrap();
        assert_eq!(store.view(table.require("a.value").unwrap()).len(), 12);
        // Params are not batched.
        assert_eq!(store.view(table.require("a.weights").unwrap()).len(), 8);
    }

    #[test]
    fn aliases_share_storage() {
        let (table, mut store) = build(decls(), 2).unwrap();
        store
            .write("a.value", table.require("a.value").unwrap(), &[1.0; 8])
            .unwrap();
        assert_eq!(store.view(table.require("b.value").unwrap()), [1.0; 8]);
        assert_eq!(
            table.require("a.value").unwrap().storage,
            table.require("b.value").unwrap().storage
        );
    }

    #[test]
    fn write_item_targets_one_slot() {
        let (table, mut store) = build(decls(), 3).unwrap();
        let value = table.require("a.value").unwrap();
        store.write_item("a.value", value, 1, &[7.0; 4]).unwrap();
        assert_eq!(store.read_item("a.value", value, 0).unwrap(), vec![0.0; 4]);
        assert_eq!(store.read_item("a.value", value, 1).unwrap(), vec![7.0; 4]);
        assert_eq!(store.read_item("a.value", value, 2).unwrap(), vec![0.0; 4]);
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
        let weights = table.require("a.weights").unwrap();
        store
            .write_item("a.weights", weights, 0, &[1.0; 8])
            .unwrap();
        assert!(store
            .write_item("a.weights", weights, 1, &[1.0; 8])
            .is_err());
    }

    #[test]
    fn read_item_refuses_what_write_item_refuses() {
        let (table, mut store) = build(decls(), 3).unwrap();
        let value = table.require("a.value").unwrap();
        let weights = table.require("a.weights").unwrap();
        // Outside the batch: an error, not a slice-index panic.
        assert!(matches!(
            store.read_item("a.value", value, 3),
            Err(RuntimeError::InputShape { .. })
        ));
        // An unbatched buffer has item 0 only.
        assert_eq!(store.read_item("a.weights", weights, 0).unwrap().len(), 8);
        assert!(matches!(
            store.read_item("a.weights", weights, 1),
            Err(RuntimeError::InputShape { .. })
        ));
        // A smaller batch bounds reads and writes alike; capacity stays.
        store.set_batch(2);
        assert_eq!(store.capacity(), 3);
        assert!(store.read_item("a.value", value, 1).is_ok());
        assert!(store.read_item("a.value", value, 2).is_err());
        assert!(store.write_item("a.value", value, 2, &[0.0; 4]).is_err());
        assert_eq!(store.view(value).len(), 8);
        assert_eq!(store.view(weights).len(), 8);
    }

    #[test]
    fn missing_alias_target_rejected() {
        let bad = vec![BufferDecl::alias(
            "x",
            vec![4],
            BufferKind::Value,
            "missing",
        )];
        assert!(matches!(build(bad, 1), Err(RuntimeError::BadAlias { .. })));
    }

    #[test]
    fn write_validates_length() {
        let (table, mut store) = build(decls(), 1).unwrap();
        assert!(store
            .write("a.value", table.require("a.value").unwrap(), &[0.0; 3])
            .is_err());
    }

    #[test]
    fn shared_state_is_unbatched() {
        let decls = vec![
            BufferDecl::new("bn.state_prob", vec![4], BufferKind::State),
            BufferDecl::new("bn.state_mean", vec![4], BufferKind::SharedState),
        ];
        let (table, store) = build(decls, 3).unwrap();
        assert_eq!(
            store.view(table.require("bn.state_prob").unwrap()).len(),
            12
        );
        assert_eq!(store.view(table.require("bn.state_mean").unwrap()).len(), 4);
    }

    #[test]
    fn total_elements_counts_unique_storage() {
        let (_, store) = build(decls(), 1).unwrap();
        // a.value(4) + weights(8) + grad(4) + g_weights(8); alias adds 0.
        assert_eq!(store.total_elements(), 24);
    }
}
