//! Durable serialization of the background model.
//!
//! [`BackgroundModel::snapshot`] captures the evolved session state — the
//! cell partition with per-cell `(μ, Σ, cov_id)` parameters *and* their
//! lazily-initialized Cholesky factors, and the assimilated constraints
//! with each location constraint's cached `S`-factor — as three sections
//! (meta, cells, constraints) of the caller's [`sisd_data::snap`]
//! container, so every byte of a session snapshot is framed and
//! checksummed once. [`BackgroundModel::restore`] reads them back into a
//! model whose subsequent statistics, refits, and searches are
//! **bit-identical** to the uninterrupted original.
//!
//! Why the factors are serialized rather than recomputed: cell factors and
//! constraint `S`-factors are maintained *incrementally* (O(dy²) rank-one
//! sweeps after spread tilts), so their bit patterns can differ from a
//! fresh factorization of the same matrix. Recomputing on restore would
//! produce a valid model whose scores drift at the last ulp — enough to
//! break the bit-identity contract every parallel path in this repo is
//! pinned to. Everything that *is* recomputed on restore (the row→cell
//! map, each constraint's member-cell list, the constraint-overlap
//! adjacency) is derived by the same deterministic construction the live
//! model uses, so it is exactly equal; a member list the live model had
//! let go stale would have been rebuilt before its next use anyway.
//! Recomputing the member lists also checks that every constraint's
//! extension is a union of cells, which the projections rely on: a
//! snapshot where one is not is corrupt.
//!
//! Cells split from one parent hold one Σ object and one factor object
//! (cell splits alias both), and a location-only model's cells all hold
//! the prior's. The cells section therefore starts with two tables, each
//! in order of first appearance: the distinct cell-factor objects, then
//! the distinct Σ objects with their `cov_id`s. Each cell names its entry
//! in both. Restoring gives every cell of an entry the same object again,
//! so a restored model's batched solves, which need the candidates of a
//! run to share one factor object, still find it shared, and Σ is held
//! once per covariance value, as in the live model. Factors are told apart
//! by identity, never by `cov_id`: incrementally updated factors of one id
//! can differ in their bits. Σ objects and `cov_id`s correspond one to
//! one, so a Σ table whose ids repeat, or reach the model's next id, is
//! corrupt.
//!
//! Encoding is canonical — fixed section order, floats as raw IEEE-754
//! bits, table entries in first-appearance order — so snapshot → restore →
//! snapshot reproduces the input bytes exactly (pinned by proptest).
//!
//! Not serialized: the member-cell lists (recomputed, see above), the
//! projection scratch buffers (cleared and resized on every use) and the
//! observability handle (the restoring session wires its own).

use crate::background::{BackgroundModel, ProjectionScratch, ProjectionState};
use crate::cell::Cell;
use crate::constraint::Constraint;
use sisd_data::bitset::WORD_BITS;
use sisd_data::snap::{
    put_f64, put_f64s, put_u32, put_u64, put_words, SnapCursor, SnapError, SnapReader, SnapWriter,
};
use sisd_data::BitSet;
use sisd_linalg::{Cholesky, Matrix};
use sisd_obs::ObsHandle;
use std::collections::HashSet;
use std::sync::Arc;

const SEC_META: u32 = 1;
const SEC_CELLS: u32 = 2;
const SEC_CONSTRAINTS: u32 = 3;

const CONSTRAINT_LOCATION: u8 = 1;
const CONSTRAINT_SPREAD: u8 = 2;

/// Factor-cache states of a cell or a location constraint's `S`-factor.
const FACTOR_UNSET: u8 = 0;
const FACTOR_CACHED: u8 = 1;
const FACTOR_FAILED: u8 = 2;

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

fn put_factor(buf: &mut Vec<u8>, factor: Option<&Cholesky>) {
    if let Some(chol) = factor {
        buf.push(FACTOR_CACHED);
        put_matrix(buf, chol.factor());
    } else {
        buf.push(FACTOR_UNSET);
    }
}

fn read_cholesky(c: &mut SnapCursor<'_>, dy: usize, what: &str) -> Result<Cholesky, SnapError> {
    let l = read_matrix(c, dy, what)?;
    Cholesky::from_factor(l).map_err(|e| SnapError::Corrupt(format!("{what}: invalid factor: {e}")))
}

/// Reads a location constraint's `S`-factor. It is never in the failed
/// state: a factorization that fails surfaces as an error instead.
fn read_factor(
    c: &mut SnapCursor<'_>,
    dy: usize,
    what: &str,
) -> Result<Option<Cholesky>, SnapError> {
    match c.u8(what)? {
        FACTOR_UNSET => Ok(None),
        FACTOR_CACHED => Ok(Some(read_cholesky(c, dy, what)?)),
        other => Err(SnapError::Corrupt(format!(
            "{what}: unknown S-factor state {other}"
        ))),
    }
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

/// Writes the cells: the table of their distinct factor objects and the
/// table of their distinct Σ objects with their `cov_id`s, each in order of
/// first appearance, then each cell with its Σ entry, its factor state and,
/// for a computed factor, its factor entry.
fn put_cells(buf: &mut Vec<u8>, cells: &[Cell]) -> Result<(), SnapError> {
    let mut factors: Vec<&Cholesky> = Vec::new();
    let mut sigmas: Vec<&Matrix> = Vec::new();
    let mut cov_ids: Vec<u64> = Vec::new();
    let mut entries = Vec::with_capacity(cells.len());
    for cell in cells {
        let sigma = table_index(&mut sigmas, &*cell.sigma);
        if sigma == cov_ids.len() && !cov_ids.contains(&cell.cov_id) {
            cov_ids.push(cell.cov_id);
        }
        if cov_ids.get(sigma) != Some(&cell.cov_id) {
            return Err(SnapError::Corrupt(format!(
                "cell covariance objects and cov_ids do not correspond one to one (cov_id {})",
                cell.cov_id
            )));
        }
        let factor = match cell.factor_state() {
            Some(Some(chol)) => Some(Some(table_index(&mut factors, chol))),
            Some(None) => Some(None),
            None => None,
        };
        entries.push((sigma, factor));
    }
    put_u32(buf, factors.len() as u32);
    for chol in factors {
        put_matrix(buf, chol.factor());
    }
    put_u32(buf, sigmas.len() as u32);
    for (sigma, cov_id) in sigmas.into_iter().zip(cov_ids) {
        put_u64(buf, cov_id);
        put_matrix(buf, sigma);
    }
    for (cell, (sigma, factor)) in cells.iter().zip(entries) {
        put_bitset(buf, &cell.ext);
        put_f64s(buf, &cell.mu);
        put_u32(buf, sigma as u32);
        match factor {
            None => buf.push(FACTOR_UNSET),
            Some(None) => buf.push(FACTOR_FAILED),
            Some(Some(k)) => {
                buf.push(FACTOR_CACHED);
                put_u32(buf, k as u32);
            }
        }
    }
    Ok(())
}

/// Reads the index of the `kind` table entry a cell names. Entries must be
/// first named in table order, so that the encoding stays canonical:
/// `named` counts the entries named so far.
fn read_entry(
    c: &mut SnapCursor<'_>,
    named: &mut usize,
    entries: usize,
    what: &str,
    kind: &str,
) -> Result<usize, SnapError> {
    let k = c.u32(what)? as usize;
    if k > *named || k >= entries {
        return Err(SnapError::Corrupt(format!(
            "{what}: {kind} {k} out of order ({named} named of {entries})"
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
        put_cells(&mut cells, &self.cells)?;
        w.section(SEC_CELLS, &cells)?;

        let mut cons = Vec::new();
        for (constraint, p) in self.constraints.iter().zip(&self.proj) {
            match constraint {
                Constraint::Location { ext, target } => {
                    cons.push(CONSTRAINT_LOCATION);
                    put_bitset(&mut cons, ext);
                    put_f64s(&mut cons, target);
                    put_factor(&mut cons, p.chol.as_ref());
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
        let n_factors = c.u32("cell factors")? as usize;
        if n_factors > n_cells {
            return Err(SnapError::Corrupt(format!(
                "{n_factors} cell factors for {n_cells} cells"
            )));
        }
        let mut factors = Vec::new();
        for k in 0..n_factors {
            let what = format!("cell factor {k}");
            factors.push(Arc::new(read_cholesky(&mut c, dy, &what)?));
        }
        let n_sigmas = c.u32("cell covariances")? as usize;
        if n_sigmas > n_cells {
            return Err(SnapError::Corrupt(format!(
                "{n_sigmas} cell covariances for {n_cells} cells"
            )));
        }
        let mut sigmas = Vec::new();
        let mut cov_ids = HashSet::new();
        for k in 0..n_sigmas {
            let what = format!("cell covariance {k}");
            let cov_id = c.u64(&what)?;
            if cov_id >= next_cov_id || !cov_ids.insert(cov_id) {
                return Err(SnapError::Corrupt(format!(
                    "{what}: cov_id {cov_id} repeats or is not below the next id {next_cov_id}"
                )));
            }
            sigmas.push((cov_id, Arc::new(read_matrix(&mut c, dy, &what)?)));
        }
        let (mut named_factors, mut named_sigmas) = (0, 0);
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
            let k = read_entry(&mut c, &mut named_sigmas, n_sigmas, &what, "covariance")?;
            let (cov_id, sigma) = &sigmas[k];
            let state = match c.u8(&what)? {
                FACTOR_UNSET => None,
                FACTOR_FAILED => Some(None),
                FACTOR_CACHED => {
                    let k = read_entry(&mut c, &mut named_factors, n_factors, &what, "factor")?;
                    Some(Some(Arc::clone(&factors[k])))
                }
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "{what}: unknown factor state {other}"
                    )))
                }
            };
            let mut cell = Cell::new(ext, mu, Arc::clone(sigma), *cov_id);
            cell.set_factor_state(state);
            cells.push(cell);
        }
        for (named, entries, kind) in [
            (named_factors, n_factors, "factors"),
            (named_sigmas, n_sigmas, "covariances"),
        ] {
            if named != entries {
                return Err(SnapError::Corrupt(format!(
                    "{} of {entries} cell {kind} belong to no cell",
                    entries - named
                )));
            }
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
            let mut state = ProjectionState::default();
            match c.u8(&what)? {
                CONSTRAINT_LOCATION => {
                    let ext = read_bitset(&mut c, n, &what)?;
                    let target = c.f64s(&what)?;
                    if ext.count() == 0 || target.len() != dy {
                        return Err(SnapError::Corrupt(format!("{what}: bad location shape")));
                    }
                    state.chol = read_factor(&mut c, dy, &what)?;
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
            proj.push(state);
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
        for (a, b) in model.cells().iter().zip(restored.cells()) {
            assert_eq!(a.cov_id, b.cov_id);
        }
        // Statistics are bit-identical, factors included.
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
            put_u32(&mut cells, 0);
            put_u32(&mut cells, 1);
            put_u64(&mut cells, 0);
            put_matrix(&mut cells, &Matrix::identity(1));
            for rows in cell_rows {
                put_bitset(&mut cells, &BitSet::from_indices(n, rows.iter().copied()));
                put_f64s(&mut cells, &[0.0]);
                put_u32(&mut cells, 0);
                cells.push(FACTOR_UNSET);
            }
            w.section(SEC_CELLS, &cells).unwrap();
            let mut cons = Vec::new();
            if let Some(rows) = ext {
                cons.push(CONSTRAINT_LOCATION);
                put_bitset(&mut cons, &BitSet::from_indices(n, rows.iter().copied()));
                put_f64s(&mut cons, &[0.5]);
                cons.push(FACTOR_UNSET);
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

    /// German socio after three location assimilations, its prior
    /// factored before the first split as a search does: every cell holds
    /// the prior's one factor object and its one Σ object.
    fn location_only_model() -> BackgroundModel {
        let (data, _) = sisd_data::datasets::german_socio_synthetic(3);
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        model
            .location_stats(&BitSet::full(data.n()), &data.target_mean_all())
            .unwrap();
        for k in 2..5 {
            let ext = BitSet::from_indices(data.n(), (0..data.n()).filter(|i| i % k == 0));
            model
                .assimilate_location(&ext, data.target_mean(&ext))
                .unwrap();
        }
        model
    }

    fn shares_one_factor(model: &BackgroundModel) -> bool {
        let first = model.cells()[0].factor_state();
        model
            .cells()
            .iter()
            .all(|c| match (c.factor_state(), first) {
                (Some(Some(a)), Some(Some(b))) => std::ptr::eq(a, b),
                _ => false,
            })
    }

    fn shares_one_sigma(model: &BackgroundModel) -> bool {
        let first = &model.cells()[0].sigma;
        model.cells().iter().all(|c| Arc::ptr_eq(&c.sigma, first))
    }

    /// The factor and Σ table lengths of a snapshot's cells section.
    fn table_lengths(bytes: &[u8], dy: usize) -> (u32, u32) {
        let mut r = SnapReader::new(bytes).unwrap();
        r.section(SEC_META, "meta").unwrap();
        let mut c = SnapCursor::new(r.section(SEC_CELLS, "cells").unwrap());
        let factors = c.u32("factors").unwrap();
        for _ in 0..factors {
            read_cholesky(&mut c, dy, "factor").unwrap();
        }
        (factors, c.u32("covariances").unwrap())
    }

    /// Covers the Σ object the cells share as well as their factor.
    #[test]
    fn cells_sharing_a_factor_are_written_once_and_restored_shared() {
        let model = location_only_model();
        assert!(model.n_cells() >= 2, "{} cells", model.n_cells());
        assert!(shares_one_factor(&model) && shares_one_sigma(&model));
        let bytes = snapshot(&model);
        let restored = restore(&bytes).unwrap();
        assert!(shares_one_factor(&restored) && shares_one_sigma(&restored));
        assert_eq!(snapshot(&restored), bytes);
        assert_eq!(table_lengths(&bytes, model.dy()), (1, 1));
    }

    /// The location-only model's snapshot with its cells section rewritten
    /// and its next covariance id set to `next_cov_id`: a factor table of
    /// `factors` copies of the shared factor, a Σ table holding the shared
    /// Σ once per id in `cov_ids`, and cell `g` naming factor entry
    /// `names.0[g]` and Σ entry `names.1[g]`.
    fn rewritten(
        model: &BackgroundModel,
        next_cov_id: u64,
        factors: u32,
        cov_ids: &[u64],
        names: (&[u32], &[u32]),
    ) -> Vec<u8> {
        let bytes = snapshot(model);
        let factor = model.cells()[0].chol().unwrap();
        let mut cells = Vec::new();
        put_u32(&mut cells, factors);
        for _ in 0..factors {
            put_matrix(&mut cells, factor.factor());
        }
        put_u32(&mut cells, cov_ids.len() as u32);
        for &id in cov_ids {
            put_u64(&mut cells, id);
            put_matrix(&mut cells, &model.cells()[0].sigma);
        }
        for ((cell, &factor), &sigma) in model.cells().iter().zip(names.0).zip(names.1) {
            put_bitset(&mut cells, &cell.ext);
            put_f64s(&mut cells, &cell.mu);
            put_u32(&mut cells, sigma);
            cells.push(FACTOR_CACHED);
            put_u32(&mut cells, factor);
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
    fn factor_tables_out_of_canonical_order_are_corrupt() {
        let model = location_only_model();
        let zeros = vec![0; model.n_cells()];
        let factors =
            |entries: u32, names: &[u32]| rewritten(&model, 1, entries, &[0], (names, &zeros));
        assert_eq!(factors(1, &zeros), snapshot(&model));
        let mut first_named_last = zeros.clone();
        first_named_last[0] = 1;
        let mut last_apart = zeros.clone();
        *last_apart.last_mut().unwrap() = 1;
        for (entries, names) in [
            // An entry no cell names.
            (2, &zeros),
            // Entry 1 named before entry 0.
            (2, &first_named_last),
            // An entry past the table's end.
            (1, &last_apart),
        ] {
            assert!(matches!(
                restore(&factors(entries, names)),
                Err(SnapError::Corrupt(_))
            ));
        }
        // Two entries with the same bits are two objects, restored apart.
        let apart = factors(2, &last_apart);
        let restored = restore(&apart).unwrap();
        assert!(!shares_one_factor(&restored));
        assert_eq!(snapshot(&restored), apart);
    }

    #[test]
    fn sigma_tables_out_of_canonical_order_or_with_bad_ids_are_corrupt() {
        let model = location_only_model();
        let zeros = vec![0; model.n_cells()];
        let sigmas = |next_cov_id: u64, cov_ids: &[u64], names: &[u32]| {
            rewritten(&model, next_cov_id, 1, cov_ids, (&zeros, names))
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
        assert!(!shares_one_sigma(&restored));
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
