//! Durable serialization of the background model.
//!
//! [`BackgroundModel::snapshot`] captures the evolved session state — the
//! cell partition with per-cell `(μ, Σ, cov_id)` parameters and the
//! assimilated constraints — as three sections (meta, cells, constraints)
//! of the caller's [`sisd_data::snap`] container, so every byte of a
//! session snapshot is framed and checksummed once.
//! [`BackgroundModel::restore`] reads them back into a model whose
//! subsequent statistics, refits, and searches are **bit-identical** to
//! the uninterrupted original.
//!
//! No factor is written. Every Cholesky factor the model holds is a pure
//! function of the matrix it factors: a cell's factor of its covariance
//! object's Σ, which never changes inside the object, and a location
//! constraint's `S`-factor of its member cells' Σ objects and per-`cov_id`
//! row counts, which a spread tilt drops instead of updating. A restore
//! leaves every factor to first use, which builds it from the same Σ and
//! the same counts as the uninterrupted session did, so it has the same
//! bits. Everything else recomputed on restore (the row→cell map, each
//! constraint's member-cell list, the constraint-overlap adjacency) is
//! derived by the same deterministic construction the live model uses, so
//! it is exactly equal; a member list the live model had let go stale
//! would have been rebuilt before its next use anyway. Recomputing the
//! member lists also checks that every constraint's extension is a union
//! of cells, which the projections rely on: a snapshot where one is not is
//! corrupt.
//!
//! Cells split from one parent hold one covariance object, and a
//! location-only model's cells all hold the prior's. The cells section
//! therefore starts with a table of the distinct covariance objects, each
//! its `cov_id` and Σ, in order of first appearance, and each cell names
//! its entry. Restoring gives every cell of an entry the same object again,
//! so a restored model's batched solves, which need the candidates of a run
//! to share one factor object, still find it shared, and Σ is held once per
//! covariance value, as in the live model. Objects and `cov_id`s correspond
//! one to one, so a table whose ids repeat, or reach the model's next id,
//! is corrupt.
//!
//! Encoding is canonical — fixed section order, floats as raw IEEE-754
//! bits, table entries in first-appearance order — so snapshot → restore →
//! snapshot reproduces the input bytes exactly (pinned by proptest).
//!
//! Not serialized: the factors and the member-cell lists (see above), the
//! projection scratch buffers (cleared and resized on every use) and the
//! observability handle (the restoring session wires its own).

use crate::background::{BackgroundModel, ProjectionScratch, ProjectionState};
use crate::cell::{Cell, Covariance};
use crate::constraint::Constraint;
use sisd_data::bitset::WORD_BITS;
use sisd_data::snap::{
    put_f64, put_f64s, put_u32, put_u64, put_words, SnapCursor, SnapError, SnapReader, SnapWriter,
};
use sisd_data::BitSet;
use sisd_linalg::Matrix;
use sisd_obs::ObsHandle;
use std::collections::HashSet;
use std::sync::Arc;

const SEC_META: u32 = 1;
const SEC_CELLS: u32 = 2;
const SEC_CONSTRAINTS: u32 = 3;

const CONSTRAINT_LOCATION: u8 = 1;
const CONSTRAINT_SPREAD: u8 = 2;

fn put_bitset(buf: &mut Vec<u8>, bs: &BitSet) {
    put_u64(buf, bs.len() as u64);
    put_words(buf, bs.words());
}

fn read_bitset(
    c: &mut SnapCursor<'_>,
    expected_len: usize,
    what: &str,
) -> Result<BitSet, SnapError> {
    let len = c.u64(what)?;
    if len != expected_len as u64 {
        return Err(SnapError::Corrupt(format!(
            "{what}: extension over {len} rows in a model of {expected_len}"
        )));
    }
    let words = c.words(what)?;
    let expected_words = expected_len.div_ceil(WORD_BITS);
    if words.len() != expected_words {
        return Err(SnapError::Corrupt(format!(
            "{what}: {} words cannot back {expected_len} rows",
            words.len()
        )));
    }
    // `BitSet::from_words` would silently clear tail bits; a snapshot with
    // bits set past `len` is corrupt (and re-encoding it would not be
    // byte-stable), so reject instead.
    let tail = expected_len % WORD_BITS;
    if tail != 0 && words[expected_words - 1] & !((1u64 << tail) - 1) != 0 {
        return Err(SnapError::Corrupt(format!(
            "{what}: bits set beyond the extension length"
        )));
    }
    Ok(BitSet::from_words(words, expected_len))
}

fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    put_f64s(buf, m.as_slice());
}

fn read_matrix(c: &mut SnapCursor<'_>, dy: usize, what: &str) -> Result<Matrix, SnapError> {
    let rows = c.u32(what)? as usize;
    let cols = c.u32(what)? as usize;
    if rows != dy || cols != dy {
        return Err(SnapError::Corrupt(format!(
            "{what}: {rows}x{cols} matrix in a dy={dy} model"
        )));
    }
    let data = c.f64s(what)?;
    if data.len() != rows * cols {
        return Err(SnapError::Corrupt(format!(
            "{what}: {} values for a {rows}x{cols} matrix",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Index of `item` in `table`, compared by identity, appending it first
/// when absent: tables list distinct objects in order of first appearance.
fn table_index<'a, T>(table: &mut Vec<&'a T>, item: &'a T) -> usize {
    match table.iter().position(|&t| std::ptr::eq(t, item)) {
        Some(k) => k,
        None => {
            table.push(item);
            table.len() - 1
        }
    }
}

/// Writes the cells: the table of their distinct covariance objects, each
/// its `cov_id` and Σ, in order of first appearance, then each cell with
/// its table entry.
fn put_cells(buf: &mut Vec<u8>, cells: &[Cell]) {
    let mut table: Vec<&Covariance> = Vec::new();
    let entries: Vec<usize> = cells
        .iter()
        .map(|cell| table_index(&mut table, &*cell.cov))
        .collect();
    put_u32(buf, table.len() as u32);
    for cov in table {
        put_u64(buf, cov.id());
        put_matrix(buf, cov.sigma());
    }
    for (cell, k) in cells.iter().zip(entries) {
        put_bitset(buf, &cell.ext);
        put_f64s(buf, &cell.mu);
        put_u32(buf, k as u32);
    }
}

/// Reads the index of the covariance table entry a cell names. Entries
/// must be first named in table order, so that the encoding stays
/// canonical: `named` counts the entries named so far.
fn read_entry(
    c: &mut SnapCursor<'_>,
    named: &mut usize,
    entries: usize,
    what: &str,
) -> Result<usize, SnapError> {
    let k = c.u32(what)? as usize;
    if k > *named || k >= entries {
        return Err(SnapError::Corrupt(format!(
            "{what}: covariance {k} out of order ({named} named of {entries})"
        )));
    }
    *named += usize::from(k == *named);
    Ok(k)
}

impl BackgroundModel {
    /// Writes the model state as three sections of `w`, the caller's
    /// snapshot container, beside whatever sections the caller writes
    /// around them.
    pub fn snapshot(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let mut meta = Vec::new();
        put_u64(&mut meta, self.n as u64);
        put_u32(&mut meta, self.dy as u32);
        put_u64(&mut meta, self.next_cov_id);
        put_u32(&mut meta, self.cells.len() as u32);
        put_u32(&mut meta, self.constraints.len() as u32);
        w.section(SEC_META, &meta)?;

        let mut cells = Vec::new();
        put_cells(&mut cells, &self.cells);
        w.section(SEC_CELLS, &cells)?;

        let mut cons = Vec::new();
        for constraint in &self.constraints {
            match constraint {
                Constraint::Location { ext, target } => {
                    cons.push(CONSTRAINT_LOCATION);
                    put_bitset(&mut cons, ext);
                    put_f64s(&mut cons, target);
                }
                Constraint::Spread {
                    ext,
                    w,
                    center,
                    value,
                } => {
                    cons.push(CONSTRAINT_SPREAD);
                    put_bitset(&mut cons, ext);
                    put_f64s(&mut cons, w);
                    put_f64s(&mut cons, center);
                    put_f64(&mut cons, *value);
                }
            }
        }
        w.section(SEC_CONSTRAINTS, &cons)
    }

    /// Rebuilds a model from the sections [`BackgroundModel::snapshot`]
    /// wrote, read next from `r`. Every structural invariant is
    /// re-validated — dimensions, the cells forming an exact partition of
    /// the rows, every constraint's extension a union of cells, canonical
    /// tables — so corrupted or truncated bytes return an `Err` and can
    /// never produce a panic or a silently wrong model. The restored model
    /// carries a disabled observability handle (wire one with
    /// [`BackgroundModel::set_obs`]).
    pub fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let meta = r.section(SEC_META, "model meta")?;
        let mut c = SnapCursor::new(meta);
        let n = c.u64("meta.n")? as usize;
        let dy = c.u32("meta.dy")? as usize;
        let next_cov_id = c.u64("meta.next_cov_id")?;
        let n_cells = c.u32("meta.n_cells")? as usize;
        let n_constraints = c.u32("meta.n_constraints")? as usize;
        c.finish("model meta")?;

        let cells_payload = r.section(SEC_CELLS, "cells")?;
        // Each cell serializes an n-bit extension, so a row count beyond
        // what the section could physically carry is corrupt — checked
        // before the O(n) row-map allocation below.
        if n_cells == 0 && n > 0 {
            return Err(SnapError::Corrupt("no cells cover the rows".into()));
        }
        if (n as u64) > (cells_payload.len() as u64 + 16) * 8 {
            return Err(SnapError::Corrupt(format!(
                "row count {n} exceeds what the cells section can carry"
            )));
        }
        let mut c = SnapCursor::new(cells_payload);
        let n_covs = c.u32("cell covariances")? as usize;
        if n_covs > n_cells {
            return Err(SnapError::Corrupt(format!(
                "{n_covs} cell covariances for {n_cells} cells"
            )));
        }
        let mut covs = Vec::new();
        let mut ids = HashSet::new();
        for k in 0..n_covs {
            let what = format!("cell covariance {k}");
            let id = c.u64(&what)?;
            if id >= next_cov_id || !ids.insert(id) {
                return Err(SnapError::Corrupt(format!(
                    "{what}: cov_id {id} repeats or is not below the next id {next_cov_id}"
                )));
            }
            let sigma = read_matrix(&mut c, dy, &what)?;
            covs.push(Arc::new(Covariance::new(id, sigma)));
        }
        let mut named = 0;
        let mut cells = Vec::new();
        for idx in 0..n_cells {
            let what = format!("cell {idx}");
            let ext = read_bitset(&mut c, n, &what)?;
            if ext.count() == 0 {
                return Err(SnapError::Corrupt(format!("{what} is empty")));
            }
            let mu = c.f64s(&what)?;
            if mu.len() != dy {
                return Err(SnapError::Corrupt(format!(
                    "{what}: mean has {} entries, dy is {dy}",
                    mu.len()
                )));
            }
            let k = read_entry(&mut c, &mut named, n_covs, &what)?;
            cells.push(Cell::new(ext, mu, Arc::clone(&covs[k])));
        }
        if named != n_covs {
            return Err(SnapError::Corrupt(format!(
                "{} of {n_covs} cell covariances belong to no cell",
                n_covs - named
            )));
        }
        c.finish("cells")?;

        // The row→cell map is derived state: rebuild it while verifying
        // the cells form an exact partition of the row space.
        let mut cell_of_row = vec![u32::MAX; n];
        for (idx, cell) in cells.iter().enumerate() {
            for row in cell.ext.iter() {
                if cell_of_row[row] != u32::MAX {
                    return Err(SnapError::Corrupt(format!(
                        "row {row} is claimed by cells {} and {idx}",
                        cell_of_row[row]
                    )));
                }
                cell_of_row[row] = idx as u32;
            }
        }
        if let Some(row) = cell_of_row.iter().position(|&g| g == u32::MAX) {
            return Err(SnapError::Corrupt(format!("row {row} belongs to no cell")));
        }

        let cons_payload = r.section(SEC_CONSTRAINTS, "constraints")?;
        let mut c = SnapCursor::new(cons_payload);
        let mut constraints = Vec::new();
        let mut proj = Vec::new();
        for idx in 0..n_constraints {
            let what = format!("constraint {idx}");
            match c.u8(&what)? {
                CONSTRAINT_LOCATION => {
                    let ext = read_bitset(&mut c, n, &what)?;
                    let target = c.f64s(&what)?;
                    if ext.count() == 0 || target.len() != dy {
                        return Err(SnapError::Corrupt(format!("{what}: bad location shape")));
                    }
                    constraints.push(Constraint::Location { ext, target });
                }
                CONSTRAINT_SPREAD => {
                    let ext = read_bitset(&mut c, n, &what)?;
                    let w = c.f64s(&what)?;
                    let center = c.f64s(&what)?;
                    let value = c.f64(&what)?;
                    if ext.count() == 0 || w.len() != dy || center.len() != dy {
                        return Err(SnapError::Corrupt(format!("{what}: bad spread shape")));
                    }
                    constraints.push(Constraint::Spread {
                        ext,
                        w,
                        center,
                        value,
                    });
                }
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "{what}: unknown constraint kind {other}"
                    )))
                }
            }
            proj.push(ProjectionState::default());
        }
        c.finish("constraints")?;

        // The overlap adjacency is derived state with a deterministic
        // construction (ascending pair order, matching
        // `adjacency_push_last`), so rebuilding reproduces it exactly.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); constraints.len()];
        for i in 0..constraints.len() {
            let ext_i = constraints[i].ext();
            for j in 0..i {
                if !constraints[j].ext().is_disjoint(ext_i) {
                    adj[j].push(i as u32);
                    adj[i].push(j as u32);
                }
            }
        }

        let mut model = BackgroundModel {
            n,
            dy,
            cells,
            cell_of_row,
            constraints,
            proj,
            adj,
            next_cov_id,
            partition_epoch: 0,
            scratch: ProjectionScratch::default(),
            obs: ObsHandle::disabled(),
        };
        // Member lists are derived state too: the live construction
        // rebuilds them. A constraint whose member cells hold more rows
        // than its extension splits a cell, which no projection handles.
        for i in 0..model.constraints.len() {
            model.refresh_membership(i);
            let rows = model.constraints[i].ext().count();
            if model.proj[i].m != rows {
                return Err(SnapError::Corrupt(format!(
                    "constraint {i}: extension of {rows} rows is not a union of cells \
                     (its cells hold {})",
                    model.proj[i].m
                )));
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model's sections in a container of their own.
    fn snapshot(model: &BackgroundModel) -> Vec<u8> {
        let mut w = SnapWriter::new();
        model.snapshot(&mut w).unwrap();
        w.finish().unwrap()
    }

    fn restore(bytes: &[u8]) -> Result<BackgroundModel, SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let model = BackgroundModel::restore(&mut r)?;
        r.finish()?;
        Ok(model)
    }

    fn session_model() -> BackgroundModel {
        let n = 16;
        let mu = vec![0.0, 0.0];
        let sigma = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let mut model = BackgroundModel::new(n, mu, sigma).unwrap();
        let ext_a = BitSet::from_indices(n, [0, 1, 2, 3, 4]);
        let ext_b = BitSet::from_indices(n, [3, 4, 5, 6]);
        model.assimilate_location(&ext_a, vec![1.0, -0.5]).unwrap();
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        model
            .assimilate_spread(&ext_b, w, vec![0.0, 0.0], 0.7)
            .unwrap();
        let _ = model.refit(1e-10, 200).unwrap();
        model
    }

    #[test]
    fn snapshot_restore_preserves_every_observable() {
        let model = session_model();
        let bytes = snapshot(&model);
        let restored = restore(&bytes).unwrap();
        assert_eq!(restored.n(), model.n());
        assert_eq!(restored.dy(), model.dy());
        assert_eq!(restored.n_cells(), model.n_cells());
        for i in 0..model.n() {
            assert_eq!(restored.row_mean(i), model.row_mean(i));
            assert_eq!(restored.row_cov(i).as_slice(), model.row_cov(i).as_slice());
        }
        // No factor is restored; each is built on first use with the bits
        // the original's has.
        assert!(restored.proj.iter().all(|p| p.chol.is_none()));
        for (a, b) in model.cells().iter().zip(restored.cells()) {
            assert_eq!(a.cov.id(), b.cov.id());
            let (fa, fb) = (a.cov.chol().unwrap(), b.cov.chol().unwrap());
            assert_eq!(fa.factor().as_slice(), fb.factor().as_slice());
        }
        // Statistics are bit-identical.
        let ext = BitSet::from_indices(model.n(), [1, 3, 5, 7, 9]);
        let obs = vec![0.4, -0.1];
        let a = model.location_stats(&ext, &obs).unwrap();
        let b = restored.location_stats(&ext, &obs).unwrap();
        assert_eq!(a.log_det_cov.to_bits(), b.log_det_cov.to_bits());
        assert_eq!(a.mahalanobis.to_bits(), b.mahalanobis.to_bits());
    }

    #[test]
    fn snapshot_is_byte_stable_across_restore() {
        let model = session_model();
        let bytes = snapshot(&model);
        let restored = restore(&bytes).unwrap();
        assert_eq!(snapshot(&restored), bytes);
    }

    #[test]
    fn restored_refit_matches_original_bitwise() {
        let mut model = session_model();
        let bytes = snapshot(&model);
        let mut restored = restore(&bytes).unwrap();
        // Drive both through the same continuation.
        let ext = BitSet::from_indices(model.n(), [2, 3, 8, 9, 10]);
        model.assimilate_location(&ext, vec![-0.3, 0.8]).unwrap();
        restored.assimilate_location(&ext, vec![-0.3, 0.8]).unwrap();
        let sa = model.refit(1e-10, 200).unwrap();
        let sb = restored.refit(1e-10, 200).unwrap();
        assert_eq!(sa, sb);
        for i in 0..model.n() {
            assert_eq!(restored.row_mean(i), model.row_mean(i));
            assert_eq!(restored.row_cov(i).as_slice(), model.row_cov(i).as_slice());
        }
    }

    #[test]
    fn partition_violations_are_corrupt() {
        // Hand-build a snapshot whose two cells overlap on row 0: the
        // container CRC is valid, so only semantic validation catches it.
        let n = 4usize;
        let model = {
            let mut m = BackgroundModel::new(n, vec![0.0], Matrix::identity(1)).unwrap();
            m.assimilate_location(&BitSet::from_indices(n, [0, 1]), vec![0.5])
                .unwrap();
            m
        };
        let bytes = snapshot(&model);
        let restored = restore(&bytes).unwrap();
        assert_eq!(restored.n_cells(), 2);

        // Corrupt semantically: two cells over `cell_rows`, and one
        // location constraint over `ext` when there is one.
        let hand_built = |cell_rows: [&[usize]; 2], ext: Option<&[usize]>| {
            let mut w = SnapWriter::new();
            let mut meta = Vec::new();
            put_u64(&mut meta, n as u64);
            put_u32(&mut meta, 1);
            put_u64(&mut meta, 1);
            put_u32(&mut meta, 2);
            put_u32(&mut meta, u32::from(ext.is_some()));
            w.section(SEC_META, &meta).unwrap();
            let mut cells = Vec::new();
            put_u32(&mut cells, 1);
            put_u64(&mut cells, 0);
            put_matrix(&mut cells, &Matrix::identity(1));
            for rows in cell_rows {
                put_bitset(&mut cells, &BitSet::from_indices(n, rows.iter().copied()));
                put_f64s(&mut cells, &[0.0]);
                put_u32(&mut cells, 0);
            }
            w.section(SEC_CELLS, &cells).unwrap();
            let mut cons = Vec::new();
            if let Some(rows) = ext {
                cons.push(CONSTRAINT_LOCATION);
                put_bitset(&mut cons, &BitSet::from_indices(n, rows.iter().copied()));
                put_f64s(&mut cons, &[0.5]);
            }
            w.section(SEC_CONSTRAINTS, &cons).unwrap();
            w.finish().unwrap()
        };
        assert!(restore(&hand_built([&[0, 1], &[2, 3]], Some(&[0, 1]))).is_ok());
        for bad in [
            // Both cells claim row 0.
            hand_built([&[0, 1], &[0, 1]], None),
            // The constraint takes half of the second cell.
            hand_built([&[0, 1], &[2, 3]], Some(&[0, 1, 2])),
        ] {
            assert!(matches!(restore(&bad), Err(SnapError::Corrupt(_))));
        }
    }

    /// German socio after three location assimilations: every cell holds
    /// the prior's one covariance object.
    fn location_only_model() -> BackgroundModel {
        let (data, _) = sisd_data::datasets::german_socio_synthetic(3);
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        for k in 2..5 {
            let ext = BitSet::from_indices(data.n(), (0..data.n()).filter(|i| i % k == 0));
            model
                .assimilate_location(&ext, data.target_mean(&ext))
                .unwrap();
        }
        model
    }

    fn shares_one_covariance(model: &BackgroundModel) -> bool {
        let first = &model.cells()[0].cov;
        model.cells().iter().all(|c| Arc::ptr_eq(&c.cov, first))
    }

    /// The length of a snapshot's covariance table.
    fn table_length(bytes: &[u8]) -> u32 {
        let mut r = SnapReader::new(bytes).unwrap();
        r.section(SEC_META, "meta").unwrap();
        SnapCursor::new(r.section(SEC_CELLS, "cells").unwrap())
            .u32("covariances")
            .unwrap()
    }

    /// Covers the factor the cells share through their covariance object.
    #[test]
    fn cells_sharing_a_factor_are_written_once_and_restored_shared() {
        let model = location_only_model();
        assert!(model.n_cells() >= 2, "{} cells", model.n_cells());
        assert!(shares_one_covariance(&model));
        let bytes = snapshot(&model);
        let restored = restore(&bytes).unwrap();
        assert!(shares_one_covariance(&restored));
        let first = restored.cells()[0].cov.chol().unwrap();
        assert!(restored
            .cells()
            .iter()
            .all(|c| std::ptr::eq(c.cov.chol().unwrap(), first)));
        assert_eq!(snapshot(&restored), bytes);
        assert_eq!(table_length(&bytes), 1);
    }

    /// The location-only model's snapshot with its cells section rewritten
    /// and its next covariance id set to `next_cov_id`: a covariance table
    /// holding the shared Σ once per id in `cov_ids`, and cell `g` naming
    /// entry `names[g]`.
    fn rewritten(
        model: &BackgroundModel,
        next_cov_id: u64,
        cov_ids: &[u64],
        names: &[u32],
    ) -> Vec<u8> {
        let bytes = snapshot(model);
        let mut cells = Vec::new();
        put_u32(&mut cells, cov_ids.len() as u32);
        for &id in cov_ids {
            put_u64(&mut cells, id);
            put_matrix(&mut cells, model.cells()[0].cov.sigma());
        }
        for (cell, &k) in model.cells().iter().zip(names) {
            put_bitset(&mut cells, &cell.ext);
            put_f64s(&mut cells, &cell.mu);
            put_u32(&mut cells, k);
        }
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut w = SnapWriter::new();
        for id in [SEC_META, SEC_CELLS, SEC_CONSTRAINTS] {
            let mut payload = r.section(id, "section").unwrap().to_vec();
            if id == SEC_META {
                payload[12..20].copy_from_slice(&next_cov_id.to_le_bytes());
            } else if id == SEC_CELLS {
                payload = cells.clone();
            }
            w.section(id, &payload).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn sigma_tables_out_of_canonical_order_or_with_bad_ids_are_corrupt() {
        let model = location_only_model();
        let zeros = vec![0; model.n_cells()];
        let sigmas = |next_cov_id: u64, cov_ids: &[u64], names: &[u32]| {
            rewritten(&model, next_cov_id, cov_ids, names)
        };
        assert_eq!(sigmas(1, &[0], &zeros), snapshot(&model));
        let mut first_named_last = zeros.clone();
        first_named_last[0] = 1;
        let mut last_apart = zeros.clone();
        *last_apart.last_mut().unwrap() = 1;
        for (next_cov_id, cov_ids, names) in [
            // An entry no cell names.
            (2, &[0, 1][..], &zeros),
            // Entry 1 named before entry 0.
            (2, &[0, 1], &first_named_last),
            // An entry past the table's end.
            (1, &[0], &last_apart),
            // Two objects with one cov_id.
            (2, &[0, 0], &last_apart),
            // A cov_id the model has not minted yet.
            (1, &[1], &zeros),
            (2, &[0, 2], &last_apart),
        ] {
            assert!(matches!(
                restore(&sigmas(next_cov_id, cov_ids, names)),
                Err(SnapError::Corrupt(_))
            ));
        }
        // Two entries with the same bits and their own ids are two
        // objects, restored apart.
        let apart = sigmas(2, &[0, 1], &last_apart);
        let restored = restore(&apart).unwrap();
        assert!(!shares_one_covariance(&restored));
        assert_eq!(snapshot(&restored), apart);
    }

    #[test]
    fn every_mutation_of_a_model_snapshot_fails_cleanly() {
        let model = session_model();
        let bytes = snapshot(&model);
        // Sampled single-byte flips (full coverage lives in the proptest
        // suite); every one must fail via CRC at the container layer.
        for i in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x10;
            assert!(
                restore(&mutated).is_err(),
                "flip at byte {i} restored successfully"
            );
        }
        for cut in (0..bytes.len()).step_by(11) {
            assert!(restore(&bytes[..cut]).is_err());
        }
    }
}
