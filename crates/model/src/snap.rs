//! Durable serialization of the background model.
//!
//! [`BackgroundModel::snapshot`] captures the full evolved session state —
//! the cell partition with per-cell `(μ, Σ, cov_id)` parameters *and*
//! their lazily-initialized Cholesky factors, the assimilated constraints,
//! and every constraint's warm-start [`ProjectionState`] (member list,
//! cached `S`-factor, accumulated duals) — into a
//! [`sisd_data::snap`] container. [`BackgroundModel::restore`] rebuilds a
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
//! map, the constraint-overlap adjacency) is derived by the same
//! deterministic construction the live model uses, so it is exactly equal.
//!
//! Cells split from one parent hold one factor object (cell splits alias
//! it), and a location-only model's cells all hold the prior's. The cells
//! section therefore starts with a table of the distinct cell-factor
//! objects, in order of first appearance, and each cell names its entry.
//! Restoring gives every cell of an entry the same object again, so a
//! restored model's batched solves, which need the candidates of a run to
//! share one factor object, still find it shared. Objects are told apart
//! by identity, never by `cov_id`: incrementally updated factors of one
//! id can differ in their bits.
//!
//! Encoding is canonical — fixed section order, verbatim epochs and stale
//! member lists, floats as raw IEEE-754 bits, factor-table entries in
//! first-appearance order — so snapshot → restore → snapshot reproduces
//! the input bytes exactly (pinned by proptest).
//!
//! Not serialized: the projection scratch buffers (cleared and resized on
//! every use) and the observability handle (the restoring session wires
//! its own).

use crate::background::{BackgroundModel, ProjectionScratch, ProjectionState};
use crate::cell::Cell;
use crate::constraint::Constraint;
use sisd_data::bitset::WORD_BITS;
use sisd_data::snap::{
    put_f64, put_f64s, put_u32, put_u32s, put_u64, put_words, SnapCursor, SnapError, SnapReader,
    SnapWriter,
};
use sisd_data::BitSet;
use sisd_linalg::{Cholesky, Matrix};
use sisd_obs::ObsHandle;
use std::sync::Arc;

const SEC_META: u32 = 1;
const SEC_BASE: u32 = 2;
const SEC_CELLS: u32 = 3;
const SEC_CONSTRAINTS: u32 = 4;
const SEC_PROJ: u32 = 5;

const CONSTRAINT_LOCATION: u8 = 1;
const CONSTRAINT_SPREAD: u8 = 2;

/// Factor-cache states of a cell or projection entry.
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

fn read_factor(
    c: &mut SnapCursor<'_>,
    dy: usize,
    what: &str,
) -> Result<(Option<Cholesky>, bool), SnapError> {
    match c.u8(what)? {
        FACTOR_UNSET => Ok((None, false)),
        FACTOR_FAILED => Ok((None, true)),
        FACTOR_CACHED => Ok((Some(read_cholesky(c, dy, what)?), false)),
        other => Err(SnapError::Corrupt(format!(
            "{what}: unknown factor state {other}"
        ))),
    }
}

/// Writes the cells: the table of their distinct factor objects, in order
/// of first appearance, then each cell with its factor state and, for a
/// computed factor, its table entry.
fn put_cells(buf: &mut Vec<u8>, cells: &[Cell]) {
    let mut table: Vec<&Cholesky> = Vec::new();
    let mut entries = Vec::with_capacity(cells.len());
    for cell in cells {
        entries.push(match cell.factor_state() {
            Some(Some(chol)) => Some(Some(
                match table.iter().position(|&t| std::ptr::eq(t, chol)) {
                    Some(k) => k,
                    None => {
                        table.push(chol);
                        table.len() - 1
                    }
                },
            )),
            Some(None) => Some(None),
            None => None,
        });
    }
    put_u32(buf, table.len() as u32);
    for chol in table {
        put_matrix(buf, chol.factor());
    }
    for (cell, entry) in cells.iter().zip(entries) {
        put_bitset(buf, &cell.ext);
        put_f64s(buf, &cell.mu);
        put_matrix(buf, &cell.sigma);
        put_u64(buf, cell.cov_id);
        match entry {
            None => buf.push(FACTOR_UNSET),
            Some(None) => buf.push(FACTOR_FAILED),
            Some(Some(k)) => {
                buf.push(FACTOR_CACHED);
                put_u32(buf, k as u32);
            }
        }
    }
}

impl BackgroundModel {
    /// Serializes the full model state into a self-contained snapshot (a
    /// complete [`sisd_data::snap`] container, embeddable as a section
    /// payload of a larger snapshot).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();

        let mut meta = Vec::new();
        put_u64(&mut meta, self.n as u64);
        put_u32(&mut meta, self.dy as u32);
        put_u64(&mut meta, self.next_cov_id);
        put_u64(&mut meta, self.partition_epoch);
        put_u32(&mut meta, self.cells.len() as u32);
        put_u32(&mut meta, self.constraints.len() as u32);
        w.section(SEC_META, &meta)?;

        let mut base = Vec::new();
        put_f64s(&mut base, &self.base_mu);
        put_matrix(&mut base, &self.base_sigma);
        w.section(SEC_BASE, &base)?;

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
        w.section(SEC_CONSTRAINTS, &cons)?;

        // Warm-start state, verbatim: stale member lists and `u64::MAX`
        // epochs are preserved as-is (they are rebuilt lazily before use,
        // exactly as the live model would), which keeps the encoding
        // canonical.
        let mut proj = Vec::new();
        for p in &self.proj {
            put_u32s(&mut proj, &p.members);
            put_u64(&mut proj, p.m as u64);
            put_u64(&mut proj, p.epoch);
            put_factor(&mut proj, p.chol.as_ref());
            put_f64s(&mut proj, &p.dual);
            put_f64(&mut proj, p.spread_dual);
        }
        w.section(SEC_PROJ, &proj)?;

        w.finish()
    }

    /// Rebuilds a model from [`BackgroundModel::snapshot`] bytes. Every
    /// structural invariant is re-validated — dimensions, the cells
    /// forming an exact partition of the rows, member indices in range —
    /// so corrupted, truncated, or version-skewed bytes return an `Err`
    /// and can never produce a panic or a silently wrong model. The
    /// restored model carries a disabled observability handle (wire one
    /// with [`BackgroundModel::set_obs`]).
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes)?;

        let meta = r.section(SEC_META, "model meta")?;
        let mut c = SnapCursor::new(meta);
        let n = c.u64("meta.n")? as usize;
        let dy = c.u32("meta.dy")? as usize;
        let next_cov_id = c.u64("meta.next_cov_id")?;
        let partition_epoch = c.u64("meta.partition_epoch")?;
        let n_cells = c.u32("meta.n_cells")? as usize;
        let n_constraints = c.u32("meta.n_constraints")? as usize;
        c.finish("model meta")?;

        let base = r.section(SEC_BASE, "base prior")?;
        let mut c = SnapCursor::new(base);
        let base_mu = c.f64s("base.mu")?;
        if base_mu.len() != dy {
            return Err(SnapError::Corrupt(format!(
                "base.mu has {} entries, dy is {dy}",
                base_mu.len()
            )));
        }
        let base_sigma = read_matrix(&mut c, dy, "base.sigma")?;
        c.finish("base prior")?;

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
        let mut table = Vec::new();
        for k in 0..n_factors {
            let what = format!("cell factor {k}");
            table.push(Arc::new(read_cholesky(&mut c, dy, &what)?));
        }
        // Entries are first named in table order, so that the encoding
        // stays canonical.
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
            let sigma = read_matrix(&mut c, dy, &what)?;
            let cov_id = c.u64(&what)?;
            let state = match c.u8(&what)? {
                FACTOR_UNSET => None,
                FACTOR_FAILED => Some(None),
                FACTOR_CACHED => {
                    let k = c.u32(&what)? as usize;
                    if k > named || k >= n_factors {
                        return Err(SnapError::Corrupt(format!(
                            "{what}: factor {k} out of order ({named} named of {n_factors})"
                        )));
                    }
                    named += usize::from(k == named);
                    Some(Some(Arc::clone(&table[k])))
                }
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "{what}: unknown factor state {other}"
                    )))
                }
            };
            let mut cell = Cell::new(ext, mu, sigma, cov_id);
            cell.set_factor_state(state);
            cells.push(cell);
        }
        if named != n_factors {
            return Err(SnapError::Corrupt(format!(
                "{} of {n_factors} cell factors belong to no cell",
                n_factors - named
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
        }
        c.finish("constraints")?;

        let proj_payload = r.section(SEC_PROJ, "projection state")?;
        let mut c = SnapCursor::new(proj_payload);
        let mut proj = Vec::new();
        for (idx, constraint) in constraints.iter().enumerate() {
            let what = format!("projection {idx}");
            let members = c.u32s(&what)?;
            if let Some(&g) = members.iter().find(|&&g| g as usize >= cells.len()) {
                return Err(SnapError::Corrupt(format!(
                    "{what}: member cell {g} out of range ({} cells)",
                    cells.len()
                )));
            }
            let m = c.u64(&what)? as usize;
            if m > n {
                return Err(SnapError::Corrupt(format!(
                    "{what}: member row count {m} exceeds {n} rows"
                )));
            }
            let epoch = c.u64(&what)?;
            let (chol, failed) = read_factor(&mut c, dy, &what)?;
            if failed {
                return Err(SnapError::Corrupt(format!(
                    "{what}: projection factors are never in the failed state"
                )));
            }
            if chol.is_some() && matches!(constraint, Constraint::Spread { .. }) {
                return Err(SnapError::Corrupt(format!(
                    "{what}: spread constraints carry no S-factor"
                )));
            }
            let dual = c.f64s(&what)?;
            if !dual.is_empty() && dual.len() != dy {
                return Err(SnapError::Corrupt(format!(
                    "{what}: dual has {} entries, dy is {dy}",
                    dual.len()
                )));
            }
            let spread_dual = c.f64(&what)?;
            proj.push(ProjectionState {
                members,
                m,
                epoch,
                chol,
                dual,
                spread_dual,
            });
        }
        c.finish("projection state")?;
        r.finish()?;

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

        Ok(BackgroundModel {
            n,
            dy,
            cells,
            cell_of_row,
            constraints,
            proj,
            adj,
            next_cov_id,
            partition_epoch,
            base_mu,
            base_sigma,
            scratch: ProjectionScratch::default(),
            obs: ObsHandle::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let bytes = model.snapshot().unwrap();
        let restored = BackgroundModel::restore(&bytes).unwrap();
        assert_eq!(restored.n(), model.n());
        assert_eq!(restored.dy(), model.dy());
        assert_eq!(restored.n_cells(), model.n_cells());
        for i in 0..model.n() {
            assert_eq!(restored.row_mean(i), model.row_mean(i));
            assert_eq!(restored.row_cov(i).as_slice(), model.row_cov(i).as_slice());
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
        let bytes = model.snapshot().unwrap();
        let restored = BackgroundModel::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot().unwrap(), bytes);
    }

    #[test]
    fn restored_refit_matches_original_bitwise() {
        let mut model = session_model();
        let bytes = model.snapshot().unwrap();
        let mut restored = BackgroundModel::restore(&bytes).unwrap();
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
        let bytes = model.snapshot().unwrap();
        let restored = BackgroundModel::restore(&bytes).unwrap();
        assert_eq!(restored.n_cells(), 2);

        // Corrupt semantically: rebuild with both cells claiming row 0.
        let mut w = SnapWriter::new();
        let mut meta = Vec::new();
        put_u64(&mut meta, n as u64);
        put_u32(&mut meta, 1);
        put_u64(&mut meta, 1);
        put_u64(&mut meta, 0);
        put_u32(&mut meta, 2);
        put_u32(&mut meta, 0);
        w.section(SEC_META, &meta).unwrap();
        let mut base = Vec::new();
        put_f64s(&mut base, &[0.0]);
        put_matrix(&mut base, &Matrix::identity(1));
        w.section(SEC_BASE, &base).unwrap();
        let mut cells = Vec::new();
        put_u32(&mut cells, 0);
        for _ in 0..2 {
            put_bitset(&mut cells, &BitSet::from_indices(n, [0, 1]));
            put_f64s(&mut cells, &[0.0]);
            put_matrix(&mut cells, &Matrix::identity(1));
            put_u64(&mut cells, 0);
            cells.push(FACTOR_UNSET);
        }
        w.section(SEC_CELLS, &cells).unwrap();
        w.section(SEC_CONSTRAINTS, &[]).unwrap();
        w.section(SEC_PROJ, &[]).unwrap();
        let bad = w.finish().unwrap();
        assert!(matches!(
            BackgroundModel::restore(&bad),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// German socio after three location assimilations, its prior
    /// factored before the first split as a search does: every cell holds
    /// the prior's one factor object.
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

    #[test]
    fn cells_sharing_a_factor_are_written_once_and_restored_shared() {
        let model = location_only_model();
        assert!(model.n_cells() >= 2, "{} cells", model.n_cells());
        assert!(shares_one_factor(&model));
        let bytes = model.snapshot().unwrap();
        let restored = BackgroundModel::restore(&bytes).unwrap();
        assert!(shares_one_factor(&restored));
        assert_eq!(restored.snapshot().unwrap(), bytes);
        let mut r = SnapReader::new(&bytes).unwrap();
        r.section(SEC_META, "meta").unwrap();
        r.section(SEC_BASE, "base").unwrap();
        let cells = r.section(SEC_CELLS, "cells").unwrap();
        assert_eq!(SnapCursor::new(cells).u32("factors").unwrap(), 1);
    }

    #[test]
    fn factor_tables_out_of_canonical_order_are_corrupt() {
        let model = location_only_model();
        let bytes = model.snapshot().unwrap();
        let factor = model.cells()[0].chol().unwrap();
        // The snapshot with its cells section rewritten: a table of
        // `entries` copies of the shared factor, cell `g` naming entry
        // `names[g]`.
        let rewritten = |entries: u32, names: &[u32]| {
            let mut cells = Vec::new();
            put_u32(&mut cells, entries);
            for _ in 0..entries {
                put_matrix(&mut cells, factor.factor());
            }
            for (cell, &name) in model.cells().iter().zip(names) {
                put_bitset(&mut cells, &cell.ext);
                put_f64s(&mut cells, &cell.mu);
                put_matrix(&mut cells, &cell.sigma);
                put_u64(&mut cells, cell.cov_id);
                cells.push(FACTOR_CACHED);
                put_u32(&mut cells, name);
            }
            let mut r = SnapReader::new(&bytes).unwrap();
            let mut w = SnapWriter::new();
            for id in [SEC_META, SEC_BASE, SEC_CELLS, SEC_CONSTRAINTS, SEC_PROJ] {
                let payload = r.section(id, "section").unwrap();
                w.section(id, if id == SEC_CELLS { &cells } else { payload })
                    .unwrap();
            }
            w.finish().unwrap()
        };
        let zeros = vec![0; model.n_cells()];
        assert_eq!(rewritten(1, &zeros), bytes);
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
                BackgroundModel::restore(&rewritten(entries, names)),
                Err(SnapError::Corrupt(_))
            ));
        }
        // Two entries with the same bits are two objects, restored apart.
        let apart = rewritten(2, &last_apart);
        let restored = BackgroundModel::restore(&apart).unwrap();
        assert!(!shares_one_factor(&restored));
        assert_eq!(restored.snapshot().unwrap(), apart);
    }

    #[test]
    fn every_mutation_of_a_model_snapshot_fails_cleanly() {
        let model = session_model();
        let bytes = model.snapshot().unwrap();
        // Sampled single-byte flips (full coverage lives in the proptest
        // suite); every one must fail via CRC at the container layer.
        for i in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x10;
            assert!(
                BackgroundModel::restore(&mutated).is_err(),
                "flip at byte {i} restored successfully"
            );
        }
        for cut in (0..bytes.len()).step_by(11) {
            assert!(BackgroundModel::restore(&bytes[..cut]).is_err());
        }
    }
}
