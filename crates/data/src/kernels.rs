//! Word-level batched kernels over bitset word slices.
//!
//! Beam-style searches intersect one parent extension against *many*
//! condition masks per level. Doing that through [`crate::BitSet::and`]
//! costs an allocation plus a second popcount traversal per candidate;
//! these kernels fuse the AND with the popcount in a single pass over the
//! words, and write a child's words only when asked to. The
//! `sisd-frontier` crate's refinement loop counts a block of its
//! contiguous mask arena with [`and_count_many_select`], and a consumer
//! of its batches writes a surviving child's words with [`and_into`]
//! when it needs them. The same kernel has a second caller: on 0/1
//! targets the evaluator counts a candidate's rows in every column of the
//! dataset's target bit matrix ([`crate::Dataset::target_bits`]) in one
//! call, and those counts are the columns' sums — in a beam level, over
//! rows compacted to the candidate's parent (see **compaction** below).
//!
//! **Runtime SIMD dispatch.** The portable bodies are plain Rust; on
//! `x86_64` each public kernel but [`compact`] also carries an
//! AVX2+POPCNT-compiled twin
//! (same Rust source, compiled with the wider ISA enabled so LLVM emits
//! hardware popcount and 256-bit vector ANDs) selected once per call via
//! cached CPU-feature detection. This is the payoff of batching: one
//! dispatch and one cache-resident parent amortized over a whole block of
//! masks, which a scattered per-candidate `BitSet::and` loop cannot do.
//!
//! All kernels operate on `&[u64]` word slices as produced by
//! [`crate::BitSet::words`]: bit `b` of word `w` is row `64w + b`, and
//! tail bits beyond the logical length are zero (so popcounts over whole
//! words are exact).
//!
//! The **row walks** visit the rows an extension selects, one set bit at
//! a time in ascending order, and do one piece of per-row work each:
//! [`sum_rows`] adds the target rows (for the observed subgroup mean),
//! [`count_cells`] counts each row into its background-model parameter
//! cell (the candidate's cell-count signature), and
//! [`count_cells_sum_rows`] does both in the same walk.
//!
//! The sums walk the extension once per **stripe** of at most 64 target
//! columns. A stripe's running sums are a fixed-size array of accumulators
//! that lives in registers for the whole walk (64 `f64`s are the sixteen
//! 256-bit AVX2 registers) and is stored into `out` once, at the end, so a
//! row costs its adds and nothing else: one pass with a scalar accumulator
//! at `dy = 1`, two (64 + 60 columns) at `dy = 124`. The cells are counted
//! during the first stripe. Stripe widths are powers of two up to 64, so a
//! kernel body is compiled for seven widths only; a last stripe narrower
//! than its width is shifted left over columns an earlier stripe already
//! stored, whose lanes ride along and whose stored sums are put back. SIMD
//! lanes run across columns, so each column still adds its rows one at a
//! time in ascending order onto what `out` held, and every body's bits
//! equal the per-row `out[j] += row[j]` loop's.
//!
//! The **sibling walk** [`count_cells_sum_lanes`] turns the lanes around
//! for single-target data: its [`LANES`] lanes are up to 64 children
//! `parent ∧ mask_j` of one parent, not target columns. One walk over the
//! parent's rows reads each row's membership word (bit `j`: the row lies in
//! `mask_j`), adds the row's target into every member lane's register
//! accumulator and counts the row into its cell for every member lane; a
//! non-member lane adds `+0.0`. At `dy = 1` a per-child walk is one chain of
//! dependent adds per child, so one walk that carries 64 independent
//! chains costs far less than 64 walks, and each lane's bits still equal
//! its child's [`count_cells_sum_rows`]. With more target columns the
//! per-child walk already fills the SIMD lanes with columns, so it stays.
//!
//! **Compaction** [`compact`] gathers the bits of a word slice at the rows
//! a mask selects into ⌈popcount / 64⌉ words: `pext` over whole slices.
//! Compacted under one parent, a child and any other set keep their
//! intersection count, so a child's cell counts and 0/1 column sums can be
//! AND-popcounted over its parent's row space rather than all `n` rows. It
//! has its own runtime dispatch: a BMI2 twin, picked by its own cached
//! probe, gathers each word with one `pext` instruction, and the portable
//! body one set bit at a time. AMD Zen 1 and Zen 2 run `pext` in
//! microcode, tens to hundreds of cycles a word, so the kernel is slow on
//! those CPUs; there is no switch for them.

/// Portable fused AND+popcount body; also instantiated inside the
/// feature-gated wrapper, where the identical source compiles to vector
/// code.
#[inline(always)]
fn and_count_body(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Portable AND-store body, for callers that already know the
/// intersection count from a count-only kernel.
#[inline(always)]
fn and_into_body(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((x, y), o) in a.iter().zip(b).zip(out.iter_mut()) {
        *o = x & y;
    }
}

/// Portable selective block body: fused counts for the rows with
/// `select[j] == true`, leaving the other `counts` entries untouched (see
/// [`and_count_many_select`]).
#[inline(always)]
fn and_count_many_select_body(
    parent: &[u64],
    block: &[u64],
    select: &[bool],
    counts: &mut [usize],
) {
    let stride = parent.len();
    for ((row, sel), c) in block
        .chunks_exact(stride)
        .zip(select)
        .zip(counts.iter_mut())
    {
        if *sel {
            *c = and_count_body(parent, row);
        }
    }
}

/// Portable row walk: `visit(i)` for every row `i` whose bit is set in
/// `ext`, in ascending order.
///
/// Generic over the per-row work: the AVX2 twin instantiates this same
/// body, and the per-row closure inlined into it compiles with the wider
/// ISA too.
#[inline(always)]
fn walk_rows_body(ext: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in ext.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Widest stripe of target columns a row walk sums in registers.
const MAX_STRIPE: usize = 64;

/// One walk over the rows `ext` selects for the stripe of `W` columns
/// starting at column `col`: each row's `W` values are added into
/// accumulators that start from `out[col..col + W]` and stay in registers
/// until the walk ends, when columns `col + skip..col + W` get their sums
/// (the first `skip` keep what an earlier stripe stored). With `COUNT`,
/// each row is also counted into cell `cell_of_row[i]`.
#[inline(always)]
fn sum_stripe<const W: usize, const COUNT: bool>(
    rows: &[f64],
    ext: &[u64],
    (col, skip): (usize, usize),
    (cell_of_row, counts): (&[u32], &mut [usize]),
    out: &mut [f64],
) {
    let width = out.len();
    let mut acc: [f64; W] = out[col..col + W]
        .try_into()
        .expect("a stripe lies inside out");
    walk_rows_body(ext, |i| {
        if COUNT {
            counts[cell_of_row[i] as usize] += 1;
        }
        let row: &[f64; W] = rows[i * width + col..][..W]
            .try_into()
            .expect("a stripe is W columns");
        for (a, v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    });
    // Store all `W` lanes in one fixed-size copy, which lets every lane
    // stay in a register through the walk, then put back the `skip`
    // columns an earlier stripe stored.
    let mut stored = [0.0; W];
    stored[..skip].copy_from_slice(&out[col..col + skip]);
    out[col..col + W].copy_from_slice(&acc);
    out[col..col + skip].copy_from_slice(&stored[..skip]);
}

/// [`sum_stripe`] at the runtime width `w`, one of the powers of two up to
/// [`MAX_STRIPE`].
#[inline(always)]
fn sum_stripe_of_width<const COUNT: bool>(
    w: usize,
    rows: &[f64],
    ext: &[u64],
    stripe: (usize, usize),
    cells: (&[u32], &mut [usize]),
    out: &mut [f64],
) {
    match w {
        1 => sum_stripe::<1, COUNT>(rows, ext, stripe, cells, out),
        2 => sum_stripe::<2, COUNT>(rows, ext, stripe, cells, out),
        4 => sum_stripe::<4, COUNT>(rows, ext, stripe, cells, out),
        8 => sum_stripe::<8, COUNT>(rows, ext, stripe, cells, out),
        16 => sum_stripe::<16, COUNT>(rows, ext, stripe, cells, out),
        32 => sum_stripe::<32, COUNT>(rows, ext, stripe, cells, out),
        64 => sum_stripe::<MAX_STRIPE, COUNT>(rows, ext, stripe, cells, out),
        _ => unreachable!("stripe widths are powers of two up to {MAX_STRIPE}"),
    }
}

/// The stripes a `width`-column row sum takes, as `(w, col, skip)`: width
/// `w`, first column `col`, and the `skip` leading columns an earlier
/// stripe already covered. Full 64-column stripes come first; the rest
/// takes the smallest power of two that covers it, shifted left to end at
/// the last column, or — when that power exceeds `width` itself — the
/// largest power of two that fits, and then one more stripe.
fn stripes(width: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut next = 0usize;
    std::iter::from_fn(move || {
        if next == width {
            return None;
        }
        let rest = width - next;
        let cover = rest.next_power_of_two();
        let w = if rest >= MAX_STRIPE {
            MAX_STRIPE
        } else if cover <= width {
            cover
        } else {
            cover / 2
        };
        let col = next.min(width - w);
        let stripe = (w, col, next - col);
        next = col + w;
        Some(stripe)
    })
}

/// Portable row-sum body (see [`sum_rows`]; shapes asserted by the
/// caller).
#[inline(always)]
fn sum_rows_body(rows: &[f64], ext: &[u64], out: &mut [f64]) {
    for (w, col, skip) in stripes(out.len()) {
        sum_stripe_of_width::<false>(w, rows, ext, (col, skip), (&[], &mut []), out);
    }
}

/// Portable fused walk (see [`count_cells_sum_rows`]; shapes asserted by
/// the caller): counts row `i` into cell `cell_of_row[i]` during the first
/// stripe and adds it into `out`.
#[inline(always)]
fn count_cells_sum_rows_body(
    ext: &[u64],
    cell_of_row: &[u32],
    counts: &mut [usize],
    rows: &[f64],
    out: &mut [f64],
) {
    if out.is_empty() {
        walk_rows_body(ext, |i| counts[cell_of_row[i] as usize] += 1);
        return;
    }
    for (w, col, skip) in stripes(out.len()) {
        if col == 0 {
            let cells = (cell_of_row, &mut *counts);
            sum_stripe_of_width::<true>(w, rows, ext, (col, skip), cells, out);
        } else {
            sum_stripe_of_width::<false>(w, rows, ext, (col, skip), (&[], &mut []), out);
        }
    }
}

/// Lanes of a sibling walk: one per bit of a membership word.
pub const LANES: usize = 64;

/// Lanes one pass of a sibling walk holds in registers: 32 `f64`
/// accumulators are eight of the sixteen 256-bit AVX2 registers, which
/// leaves the rest for the row's values and the lane-select masks.
const PASS_LANES: usize = 32;

/// `SELECT_F64[b][k]` is all ones when bit `k` of `b` is set and zero
/// otherwise: `f64::from_bits(y.to_bits() & SELECT_F64[b][k])` is `y` for
/// a member lane and `+0.0` for any other, eight lanes per byte of a
/// membership word.
static SELECT_F64: [[u64; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b][k] = if b >> k & 1 == 1 { u64::MAX } else { 0 };
            k += 1;
        }
        b += 1;
    }
    table
};

/// `COUNT_U32[b][k]` is bit `k` of `b`: the count increments of eight
/// lanes per byte of a membership word.
static COUNT_U32: [[u32; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b][k] = (b >> k & 1) as u32;
            k += 1;
        }
        b += 1;
    }
    table
};

/// One walk over the rows `ext` selects for the sibling lanes
/// `first..first + PASS_LANES`: row `i` is added into the accumulator of
/// every lane whose bit is set in `members[i] & select`, and counted into
/// that lane's entry of cell `cell_of_row[i]`; every other lane adds
/// `+0.0`. The accumulators start at `+0.0` and stay in registers until the
/// walk ends, when they are stored into `sums`. Each byte of the
/// membership word picks eight lanes' masks and increments from a table,
/// which costs fewer instructions per row than deriving them bit by bit.
#[inline(always)]
fn sum_lanes_pass(
    ext: &[u64],
    (members, select, first): (&[u64], u64, usize),
    cell_of_row: &[u32],
    counts: &mut [u32],
    rows: &[f64],
    sums: &mut [f64],
) {
    let mut acc = [0.0f64; PASS_LANES];
    // The row loop of `walk_rows_body`, spelled out: a closure this large
    // would be outlined, and compiled without the twin's wider ISA.
    for (w, &word) in ext.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let i = w * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let bits = (members[i] & select) >> first;
            let y = rows[i].to_bits();
            let cell: &mut [u32; PASS_LANES] = (&mut counts
                [cell_of_row[i] as usize * LANES + first..][..PASS_LANES])
                .try_into()
                .expect("a pass is PASS_LANES lanes");
            for (q, (acc, cell)) in acc
                .chunks_exact_mut(8)
                .zip(cell.chunks_exact_mut(8))
                .enumerate()
            {
                let byte = (bits >> (8 * q)) as u8 as usize;
                for (a, m) in acc.iter_mut().zip(&SELECT_F64[byte]) {
                    *a += f64::from_bits(y & m);
                }
                for (c, one) in cell.iter_mut().zip(&COUNT_U32[byte]) {
                    *c += one;
                }
            }
        }
    }
    sums.copy_from_slice(&acc);
}

/// Portable sibling walk (see [`count_cells_sum_lanes`]; shapes asserted
/// by the caller): one pass per half of the lanes that `select` touches.
#[inline(always)]
fn count_cells_sum_lanes_body(
    ext: &[u64],
    (members, select): (&[u64], u64),
    cell_of_row: &[u32],
    counts: &mut [u32],
    rows: &[f64],
    sums: &mut [f64; LANES],
) {
    for (first, half) in sums.chunks_exact_mut(PASS_LANES).enumerate() {
        let first = first * PASS_LANES;
        if (select >> first) as u32 == 0 {
            half.fill(0.0);
            continue;
        }
        sum_lanes_pass(
            ext,
            (members, select, first),
            cell_of_row,
            counts,
            rows,
            half,
        );
    }
}

/// Portable `pext`: the bits of `src` at the set bits of `mask`, packed
/// into the low bits in ascending order, one set bit of `mask` at a time.
#[inline(always)]
fn pext_portable(src: u64, mut mask: u64) -> u64 {
    let mut out = 0;
    let mut k = 0;
    while mask != 0 {
        out |= (src >> mask.trailing_zeros() & 1) << k;
        k += 1;
        mask &= mask - 1;
    }
    out
}

/// Compaction body (see [`compact`]), generic over the one-word gather
/// `pext`: each word's gathered bits are appended to the output word being
/// filled, and a word that overflows it carries its high bits into the
/// next.
#[inline(always)]
fn compact_body(
    src: &[u64],
    mask: &[u64],
    out: &mut [u64],
    pext: impl Fn(u64, u64) -> u64,
) -> usize {
    // `acc` is output word `k`, of which the low `fill` bits are written.
    let mut acc = 0u64;
    let mut fill = 0u32;
    let mut k = 0;
    for (&s, &m) in src.iter().zip(mask) {
        let bits = pext(s, m);
        let len = m.count_ones();
        acc |= bits << fill;
        if fill + len >= 64 {
            out[k] = acc;
            k += 1;
            // The bits that did not fit: none when the word began empty
            // (a shift by 64, taken in two steps).
            acc = (bits >> 1) >> (63 - fill);
            fill = fill + len - 64;
        } else {
            fill += len;
        }
    }
    let total = k * 64 + fill as usize;
    if fill > 0 {
        out[k] = acc;
        k += 1;
    }
    out[k..].fill(0);
    total
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+POPCNT instantiations of the portable bodies. LLVM vectorizes
    //! the `count_ones` loops with the pshufb nibble-LUT algorithm once the
    //! features are enabled — roughly a 2–4× kernel speedup over the
    //! baseline-`x86-64` scalar lowering on the machines this repo targets.
    //! The row walks get 4-lane instead of 2-lane column adds, so a
    //! 64-column stripe fits the sixteen 256-bit registers (the baseline's
    //! sixteen 128-bit ones hold half of it). Compaction's twin enables
    //! BMI2 instead, for `pext`.

    /// # Safety
    /// The caller must have verified AVX2 support (POPCNT is implied by
    /// every AVX2-capable CPU, but it is enabled explicitly anyway).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn and_count(a: &[u64], b: &[u64]) -> usize {
        super::and_count_body(a, b)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
        super::and_into_body(a, b, out)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn and_count_many_select(
        parent: &[u64],
        block: &[u64],
        select: &[bool],
        counts: &mut [usize],
    ) {
        super::and_count_many_select_body(parent, block, select, counts)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn sum_rows(rows: &[f64], ext: &[u64], out: &mut [f64]) {
        super::sum_rows_body(rows, ext, out)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn count_cells(ext: &[u64], cell_of_row: &[u32], counts: &mut [usize]) {
        super::walk_rows_body(ext, |i| counts[cell_of_row[i] as usize] += 1)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn count_cells_sum_rows(
        ext: &[u64],
        cell_of_row: &[u32],
        counts: &mut [usize],
        rows: &[f64],
        out: &mut [f64],
    ) {
        super::count_cells_sum_rows_body(ext, cell_of_row, counts, rows, out)
    }

    /// # Safety
    /// See [`and_count`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn count_cells_sum_lanes(
        ext: &[u64],
        members: (&[u64], u64),
        cell_of_row: &[u32],
        counts: &mut [u32],
        rows: &[f64],
        sums: &mut [f64; super::LANES],
    ) {
        super::count_cells_sum_lanes_body(ext, members, cell_of_row, counts, rows, sums)
    }

    /// The detection result, probed exactly once per process. The std
    /// macro caches its own CPUID probe, but still pays two atomic loads
    /// plus bit tests per call; memoizing the combined answer here makes
    /// the hot-path dispatch a single `OnceLock` read.
    pub(super) static AVX2_POPCNT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

    /// The uncached probe backing [`AVX2_POPCNT`]. Both features the twins
    /// enable are verified — every AVX2 CPU ships POPCNT, but a hypervisor
    /// can mask CPUID bits independently, and the `target_feature` safety
    /// contract wants each one checked.
    pub(super) fn detect() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }

    /// Cached CPU-feature probe: one `OnceLock` read after the first call.
    #[inline(always)]
    pub(super) fn avx2() -> bool {
        *AVX2_POPCNT.get_or_init(detect)
    }

    /// The compaction body with each word gathered by the BMI2 `pext`
    /// instruction.
    ///
    /// # Safety
    /// The caller must have verified BMI2 and POPCNT support.
    #[target_feature(enable = "bmi2,popcnt")]
    pub(super) unsafe fn compact(src: &[u64], mask: &[u64], out: &mut [u64]) -> usize {
        super::compact_body(src, mask, out, |s, m| std::arch::x86_64::_pext_u64(s, m))
    }

    /// The BMI2 probe, apart from the AVX2 one: the features are
    /// independent, and a CPU or hypervisor may report either without the
    /// other.
    pub(super) static BMI2_POPCNT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

    /// The uncached probe backing [`BMI2_POPCNT`].
    pub(super) fn detect_bmi2() -> bool {
        std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("popcnt")
    }

    /// Cached BMI2 probe: one `OnceLock` read after the first call.
    #[inline(always)]
    pub(super) fn bmi2() -> bool {
        *BMI2_POPCNT.get_or_init(detect_bmi2)
    }
}

/// `popcount(a & b)` in one fused pass, without materializing the
/// intersection.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "kernels::and_count: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        return unsafe { x86::and_count(a, b) };
    }
    and_count_body(a, b)
}

/// `out = a & b` without the popcount — the materialization kernel for
/// callers that already know the intersection count from the count-only
/// kernel ([`and_count_many_select`]) and only need the surviving child's
/// words written.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(a.len(), b.len(), "kernels::and_into: length mismatch");
    assert_eq!(
        a.len(),
        out.len(),
        "kernels::and_into: output length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe { x86::and_into(a, b, out) };
        return;
    }
    and_into_body(a, b, out)
}

/// Batched `popcount(parent & row)` over the rows of a contiguous block
/// with `select[j] == true`.
///
/// `block` is a row-major arena of `counts.len()` rows of `parent.len()`
/// words each (the layout of the frontier bit-matrix); `counts[j]`
/// receives the intersection count of `parent` with row `j` when
/// `select[j]` is set, and the `counts` entries of deselected rows are
/// left untouched. The parent stays cache-resident while the block
/// streams through once, and the SIMD dispatch happens once for the whole
/// block. This is the count kernel of count-first frontier refinement: no
/// child words are written, so candidates that a support filter or bound
/// predicate will reject never materialize anything.
///
/// # Panics
/// Panics if `block.len() != parent.len() * counts.len()` or
/// `select.len() != counts.len()`.
pub fn and_count_many_select(parent: &[u64], block: &[u64], select: &[bool], counts: &mut [usize]) {
    let stride = parent.len();
    assert_eq!(
        block.len(),
        stride * counts.len(),
        "kernels::and_count_many_select: block length mismatch"
    );
    assert_eq!(
        select.len(),
        counts.len(),
        "kernels::and_count_many_select: select length mismatch"
    );
    if stride == 0 {
        for (c, &sel) in counts.iter_mut().zip(select) {
            if sel {
                *c = 0;
            }
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe { x86::and_count_many_select(parent, block, select, counts) };
        return;
    }
    and_count_many_select_body(parent, block, select, counts)
}

/// Adds into `out` every row of `rows` selected by `ext`: row `i` of the
/// row-major matrix `rows`, `out.len()` columns wide, is added when bit `i`
/// of `ext` is set. Rows are added in ascending order, each column on its
/// own, so `out[j]` receives exactly the additions of the per-row
/// `out[j] += rows[i][j]` loop, in the same order, whichever body runs.
///
/// # Panics
/// Panics if `rows` is not a whole number of `out.len()`-wide rows, or if
/// `ext` is not one bit per row, i.e. not ⌈row count / 64⌉ words long.
pub fn sum_rows(rows: &[f64], ext: &[u64], out: &mut [f64]) {
    let width = out.len();
    if width == 0 {
        return;
    }
    assert_eq!(
        rows.len() % width,
        0,
        "kernels::sum_rows: rows are not {width} columns wide"
    );
    assert_eq!(
        ext.len(),
        (rows.len() / width).div_ceil(64),
        "kernels::sum_rows: extension length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe { x86::sum_rows(rows, ext, out) };
        return;
    }
    sum_rows_body(rows, ext, out)
}

/// Asserts that `ext` holds one bit per entry of `cell_of_row`.
fn check_walk_shape(ext: &[u64], cell_of_row: &[u32], name: &str) {
    assert_eq!(
        ext.len(),
        cell_of_row.len().div_ceil(64),
        "kernels::{name}: extension length mismatch"
    );
}

/// Counts the rows `ext` selects into their cells: `counts[cell_of_row[i]]`
/// goes up by one for every set bit `i`. `cell_of_row` maps each row to
/// its cell (a background model's parameter partition); after the call,
/// the nonzero entries of `counts` are the extension's **cell-count
/// signature**. Counts are added to what `counts` holds, so a caller that
/// reuses the buffer zeroes the touched entries between extensions.
///
/// One walk over the extension's rows, whatever the number of cells —
/// unlike a per-cell intersection count, which reads every word of the
/// extension once per cell.
///
/// # Panics
/// Panics if `ext` is not ⌈`cell_of_row.len()` / 64⌉ words long, or if a
/// selected row's cell is out of range of `counts`.
pub fn count_cells(ext: &[u64], cell_of_row: &[u32], counts: &mut [usize]) {
    check_walk_shape(ext, cell_of_row, "count_cells");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe { x86::count_cells(ext, cell_of_row, counts) };
        return;
    }
    walk_rows_body(ext, |i| counts[cell_of_row[i] as usize] += 1)
}

/// [`count_cells`] and [`sum_rows`] in one walk over the rows `ext`
/// selects: each row is counted into its cell and added into `out`. The
/// counts are the same integers and `out` gets the same bits as the two
/// kernels run one after the other, because each column still adds its
/// rows one at a time in ascending order.
///
/// # Panics
/// Panics on any shape [`count_cells`] or [`sum_rows`] rejects, or if
/// `rows` does not hold one `out.len()`-wide row per entry of
/// `cell_of_row`.
pub fn count_cells_sum_rows(
    ext: &[u64],
    cell_of_row: &[u32],
    counts: &mut [usize],
    rows: &[f64],
    out: &mut [f64],
) {
    check_walk_shape(ext, cell_of_row, "count_cells_sum_rows");
    assert_eq!(
        rows.len(),
        cell_of_row.len() * out.len(),
        "kernels::count_cells_sum_rows: rows are not one {}-wide row per cell entry",
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe { x86::count_cells_sum_rows(ext, cell_of_row, counts, rows, out) };
        return;
    }
    count_cells_sum_rows_body(ext, cell_of_row, counts, rows, out)
}

/// [`count_cells_sum_rows`] for up to [`LANES`] single-target siblings
/// `ext ∧ mask_j` in one walk over the rows `ext` selects. Bit `j` of
/// `members[i]` says whether row `i` lies in sibling `j`'s mask, and
/// `select` names the siblings to score. Each selected row is counted into
/// `counts[cell_of_row[i] · LANES + j]` and its target `rows[i]` added into
/// `sums[j]` for every selected sibling `j` it belongs to.
///
/// `sums` is overwritten: each lane starts from `+0.0` and adds, for every
/// row of `ext` in ascending order, either the row's target (a member) or
/// `+0.0`. Adding `+0.0` changes no bit of an accumulator that is not
/// `−0.0`, and one that starts at `+0.0` never becomes `−0.0` (a sum is
/// `−0.0` only when both terms are), so lane `j` gets exactly the bits
/// [`count_cells_sum_rows`] gives on `ext ∧ mask_j` with a zeroed one-column
/// `out`, and its counts the same integers. (A NaN sum is NaN in both, but
/// Rust leaves unspecified which NaN an addition of two NaNs returns, so
/// the payloads of two compilations of one sum may differ.) Unselected
/// lanes sum to `+0.0` and count nothing.
///
/// The lanes run in two passes of 32 whose accumulators stay in registers;
/// a half with no selected lane is skipped.
///
/// # Panics
/// Panics if `ext` is not ⌈`cell_of_row.len()` / 64⌉ words long, if
/// `members` or `rows` does not hold one entry per entry of `cell_of_row`,
/// if there are more rows than a `u32` count holds, or if `counts` is not
/// a whole number of [`LANES`]-wide cells or lacks a selected row's cell.
pub fn count_cells_sum_lanes(
    ext: &[u64],
    (members, select): (&[u64], u64),
    cell_of_row: &[u32],
    counts: &mut [u32],
    rows: &[f64],
    sums: &mut [f64; LANES],
) {
    check_walk_shape(ext, cell_of_row, "count_cells_sum_lanes");
    let n = cell_of_row.len();
    assert!(
        members.len() == n && rows.len() == n,
        "kernels::count_cells_sum_lanes: members and rows must hold one entry per row"
    );
    assert!(
        u32::try_from(n).is_ok(),
        "kernels::count_cells_sum_lanes: {n} rows overflow a u32 count"
    );
    assert_eq!(
        counts.len() % LANES,
        0,
        "kernels::count_cells_sum_lanes: counts are not {LANES} lanes per cell"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: AVX2 support verified by the cached runtime probe.
        unsafe {
            x86::count_cells_sum_lanes(ext, (members, select), cell_of_row, counts, rows, sums)
        };
        return;
    }
    count_cells_sum_lanes_body(ext, (members, select), cell_of_row, counts, rows, sums)
}

/// Gathers the bits of `src` at the rows `mask` selects into `out`, in
/// ascending order: bit `k` of `out` is `src`'s bit at the `k`-th set bit of
/// `mask`, a `pext` over whole word slices. Returns the number of gathered
/// bits, `popcount(mask)`; every bit of `out` past them is zeroed, so the
/// tail of the last gathered word is zero too.
///
/// Compacting two sets under one `mask` keeps their intersections:
/// `popcount(compact(a) ∧ compact(b)) = popcount(a ∧ b ∧ mask)`, counted
/// over ⌈`popcount(mask)` / 64⌉ words instead of `mask.len()`.
///
/// Where the CPU has BMI2 each word is gathered by one `pext` instruction
/// (its own cached probe, apart from the AVX2 one); elsewhere a portable
/// body gathers one set bit of `mask` at a time. AMD Zen 1 and Zen 2
/// microcode `pext`, which there costs tens to hundreds of cycles a word
/// against about three elsewhere, so the kernel is slow on those CPUs.
///
/// # Panics
/// Panics if `src` and `mask` differ in length, or if `out` holds fewer
/// than ⌈`popcount(mask)` / 64⌉ words.
pub fn compact(src: &[u64], mask: &[u64], out: &mut [u64]) -> usize {
    assert_eq!(src.len(), mask.len(), "kernels::compact: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::bmi2() {
        // SAFETY: BMI2 and POPCNT support verified by the cached probe.
        return unsafe { x86::compact(src, mask, out) };
    }
    compact_body(src, mask, out, pext_portable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;

    /// Deterministic pseudo-random word stream (splitmix64).
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn and_count_matches_bitset_intersection_count() {
        for len in [1usize, 64, 65, 130, 257, 1000] {
            let a = BitSet::from_words(words(1, len.div_ceil(64)), len);
            let b = BitSet::from_words(words(2, len.div_ceil(64)), len);
            assert_eq!(
                and_count(a.words(), b.words()),
                a.intersection_count(&b),
                "len={len}"
            );
        }
    }

    #[test]
    fn dispatched_and_portable_bodies_agree() {
        // On machines where the SIMD path is live this pins it against the
        // portable body; elsewhere it is trivially true.
        for len in [3usize, 64, 129, 511] {
            let a = words(7, len);
            let b = words(8, len);
            assert_eq!(and_count(&a, &b), and_count_body(&a, &b));
            let mut s1 = vec![0u64; len];
            let mut s2 = vec![0u64; len];
            and_into(&a, &b, &mut s1);
            and_into_body(&a, &b, &mut s2);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn and_into_matches_bitset_and() {
        for len in [1usize, 63, 64, 65, 200, 777] {
            let a = BitSet::from_words(words(3, len.div_ceil(64)), len);
            let b = BitSet::from_words(words(4, len.div_ceil(64)), len);
            let mut out = vec![0u64; a.words().len()];
            and_into(a.words(), b.words(), &mut out);
            let expect = a.and(&b);
            assert_eq!(out, expect.words(), "len={len}");
            assert_eq!(and_count(a.words(), b.words()), expect.count(), "len={len}");
        }
    }

    #[test]
    fn and_count_many_select_counts_only_selected_rows() {
        let len = 300usize;
        let stride = len.div_ceil(64);
        let parent = BitSet::from_words(words(6, stride), len);
        let rows: Vec<BitSet> = (0..17)
            .map(|r| BitSet::from_words(words(200 + r, stride), len))
            .collect();
        let block: Vec<u64> = rows.iter().flat_map(|r| r.words().to_vec()).collect();
        let select: Vec<bool> = (0..rows.len()).map(|j| j % 3 != 1).collect();
        const UNTOUCHED: usize = usize::MAX;
        let mut counts = vec![UNTOUCHED; rows.len()];
        and_count_many_select(parent.words(), &block, &select, &mut counts);
        for (j, r) in rows.iter().enumerate() {
            if select[j] {
                assert_eq!(counts[j], parent.intersection_count(r), "row {j}");
            } else {
                assert_eq!(
                    counts[j], UNTOUCHED,
                    "deselected row {j} must stay untouched"
                );
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(and_count(&[], &[]), 0);
        // Zero-stride select: chosen rows get 0, the rest stay untouched.
        let mut counts = vec![7usize; 3];
        and_count_many_select(&[], &[], &[true, false, true], &mut counts);
        assert_eq!(counts, vec![0, 7, 0]);
        let mut out: [u64; 0] = [];
        and_into(&[], &[], &mut out);
    }

    /// Row-major `rows × width` values spread over many binades, so any
    /// change in the order of a column's additions would show in its bits.
    fn targets(rows: usize, width: usize) -> Vec<f64> {
        words(31, rows * width)
            .into_iter()
            .map(|w| {
                let unit = (w >> 11) as f64 / (1u64 << 53) as f64;
                (unit - 0.5) * 10f64.powi((w % 13) as i32 - 6)
            })
            .collect()
    }

    /// The per-row `add_assign` loop `sum_rows` replaced.
    fn add_assign_oracle(rows: &[f64], width: usize, ext: &BitSet) -> Vec<f64> {
        let mut out = vec![0.0; width];
        for i in ext.iter() {
            sisd_linalg::add_assign(&mut out, &rows[i * width..(i + 1) * width]);
        }
        out
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: column {j}: {g} vs {w}");
        }
    }

    #[test]
    fn sum_rows_bodies_match_the_add_assign_loop() {
        // 300 rows: five words, the last one partial (44 rows).
        let n = 300usize;
        let mut extensions = vec![
            BitSet::full(n),
            BitSet::empty(n),
            BitSet::from_words(words(41, n.div_ceil(64)), n),
            BitSet::from_indices(n, [0, 63, 64, 255, 256, n - 1]),
        ];
        // Empty words between populated ones, and a populated tail word.
        let mut sparse = words(42, n.div_ceil(64));
        sparse[1] = 0;
        sparse[2] = 0;
        extensions.push(BitSet::from_words(sparse, n));
        // Stripe edges: 63, 64 and 65 columns, and two full stripes with
        // and without one more column.
        for dy in [1usize, 3, 4, 16, 63, 64, 65, 124, 125, 128, 129] {
            let rows = targets(n, dy);
            for (e, ext) in extensions.iter().enumerate() {
                let what = format!("dy={dy} extension {e}");
                let want = add_assign_oracle(&rows, dy, ext);
                let mut portable = vec![0.0; dy];
                sum_rows_body(&rows, ext.words(), &mut portable);
                assert_same_bits(&portable, &want, &format!("portable {what}"));
                let mut dispatched = vec![0.0; dy];
                sum_rows(&rows, ext.words(), &mut dispatched);
                assert_same_bits(&dispatched, &want, &format!("dispatched {what}"));
                #[cfg(target_arch = "x86_64")]
                if x86::detect() {
                    let mut twin = vec![0.0; dy];
                    // SAFETY: AVX2 support verified just above.
                    unsafe { x86::sum_rows(&rows, ext.words(), &mut twin) };
                    assert_same_bits(&twin, &want, &format!("AVX2 {what}"));
                }
            }
        }
    }

    #[test]
    fn stripes_store_each_column_once_in_few_passes() {
        assert_eq!(stripes(0).count(), 0);
        for width in 1..=300usize {
            let plan: Vec<(usize, usize, usize)> = stripes(width).collect();
            let mut stored = 0;
            for &(w, col, skip) in &plan {
                assert!(w.is_power_of_two() && w <= MAX_STRIPE, "width={width}");
                assert!(skip < w && col + w <= width, "width={width}");
                assert_eq!(col + skip, stored, "width={width}: columns in order");
                stored = col + w;
            }
            assert_eq!(stored, width);
            // One pass per 64 columns; below 64, one more pass unless the
            // width is a power of two.
            let passes = if width >= MAX_STRIPE || width.is_power_of_two() {
                width.div_ceil(MAX_STRIPE)
            } else {
                2
            };
            assert_eq!(plan.len(), passes, "width={width}: {plan:?}");
        }
        assert_eq!(stripes(1).collect::<Vec<_>>(), [(1, 0, 0)]);
        assert_eq!(stripes(124).collect::<Vec<_>>(), [(64, 0, 0), (64, 60, 4)]);
    }

    /// Row-to-cell map of `n` rows over `cells` cells: every cell gets at
    /// least one row, the rest are scattered pseudo-randomly.
    fn cell_map(n: usize, cells: usize, seed: u64) -> Vec<u32> {
        words(seed, n)
            .into_iter()
            .enumerate()
            .map(|(i, w)| if i < cells { i } else { (w % cells as u64) as usize } as u32)
            .collect()
    }

    /// The per-cell loop the row walk replaced: one intersection count of
    /// the extension with each cell's row set.
    fn per_cell_oracle(cell_of_row: &[u32], cells: usize, ext: &BitSet) -> Vec<usize> {
        (0..cells)
            .map(|g| {
                let cell = BitSet::from_fn(ext.len(), |i| cell_of_row[i] as usize == g);
                cell.intersection_count(ext)
            })
            .collect()
    }

    #[test]
    fn row_walks_match_the_per_cell_loop_and_sum_rows() {
        // 300 rows: five words, the last one partial (44 rows).
        let n = 300usize;
        let mut sparse = words(52, n.div_ceil(64));
        sparse[1] = 0;
        sparse[3] = 0;
        let extensions = [
            BitSet::full(n),
            BitSet::empty(n),
            BitSet::from_words(words(51, n.div_ceil(64)), n),
            BitSet::from_words(sparse, n),
            BitSet::from_indices(n, [0, 63, 64, 255, 256, n - 1]),
        ];
        for cells in [1usize, 2, 7, 64, 130] {
            let cell_of_row = cell_map(n, cells, 60 + cells as u64);
            for dy in [1usize, 3, 16, 63, 64, 65, 124, 125, 128, 129] {
                let rows = targets(n, dy);
                for (e, ext) in extensions.iter().enumerate() {
                    let what = format!("cells={cells} dy={dy} extension {e}");
                    let want_counts = per_cell_oracle(&cell_of_row, cells, ext);
                    let mut want_sum = vec![0.0; dy];
                    sum_rows(&rows, ext.words(), &mut want_sum);
                    assert_same_bits(&want_sum, &add_assign_oracle(&rows, dy, ext), &what);

                    let mut counts = vec![0usize; cells];
                    let mut sum = vec![0.0; dy];
                    count_cells_sum_rows_body(
                        ext.words(),
                        &cell_of_row,
                        &mut counts,
                        &rows,
                        &mut sum,
                    );
                    assert_eq!(counts, want_counts, "portable fused {what}");
                    assert_same_bits(&sum, &want_sum, &format!("portable fused {what}"));

                    let mut counts = vec![0usize; cells];
                    let mut sum = vec![0.0; dy];
                    count_cells_sum_rows(ext.words(), &cell_of_row, &mut counts, &rows, &mut sum);
                    assert_eq!(counts, want_counts, "dispatched fused {what}");
                    assert_same_bits(&sum, &want_sum, &format!("dispatched fused {what}"));

                    let mut counts = vec![0usize; cells];
                    count_cells(ext.words(), &cell_of_row, &mut counts);
                    assert_eq!(counts, want_counts, "dispatched count-only {what}");

                    #[cfg(target_arch = "x86_64")]
                    if x86::detect() {
                        let mut counts = vec![0usize; cells];
                        let mut sum = vec![0.0; dy];
                        // SAFETY: AVX2 support verified just above.
                        unsafe {
                            x86::count_cells_sum_rows(
                                ext.words(),
                                &cell_of_row,
                                &mut counts,
                                &rows,
                                &mut sum,
                            )
                        };
                        assert_eq!(counts, want_counts, "AVX2 fused {what}");
                        assert_same_bits(&sum, &want_sum, &format!("AVX2 fused {what}"));
                        let mut counts = vec![0usize; cells];
                        // SAFETY: AVX2 support verified just above.
                        unsafe { x86::count_cells(ext.words(), &cell_of_row, &mut counts) };
                        assert_eq!(counts, want_counts, "AVX2 count-only {what}");
                    }
                }
            }
        }
    }

    /// One target per row from `values`, chosen pseudo-randomly.
    fn pick_targets(n: usize, seed: u64, values: &[f64]) -> Vec<f64> {
        words(seed, n)
            .into_iter()
            .zip(targets(n, 1))
            .map(|(w, regular)| values.get(w as usize % 16).copied().unwrap_or(regular))
            .collect()
    }

    /// The membership words of masks `64·block ..`: bit `j` of word `i` is
    /// row `i` of mask `64·block + j`, one bit at a time.
    fn membership(masks: &[BitSet], block: usize, n: usize) -> Vec<u64> {
        let lanes = &masks[block * LANES..masks.len().min((block + 1) * LANES)];
        (0..n)
            .map(|i| {
                lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.contains(i))
                    .fold(0, |w, (j, _)| w | 1 << j)
            })
            .collect()
    }

    /// Rust leaves unspecified which NaN an addition of two NaNs returns,
    /// so two compilations of one sum may differ in a NaN's payload and
    /// nowhere else: a NaN must meet a NaN, every other sum its own bits.
    fn assert_same_sum(got: f64, want: f64, what: &str) {
        if !(got.is_nan() && want.is_nan()) {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
        }
    }

    /// [`count_cells_sum_lanes`] through the portable body (0), the
    /// dispatcher (1) or the AVX2 twin (2), from zeroed counts and
    /// poisoned sums.
    fn run_lanes(
        body: usize,
        ext: &[u64],
        members: (&[u64], u64),
        cell_of_row: &[u32],
        rows: &[f64],
        cells: usize,
    ) -> (Vec<u32>, [f64; LANES]) {
        let mut counts = vec![0u32; cells * LANES];
        let mut sums = [f64::NAN; LANES];
        let out = (&mut counts[..], &mut sums);
        match body {
            0 => count_cells_sum_lanes_body(ext, members, cell_of_row, out.0, rows, out.1),
            1 => count_cells_sum_lanes(ext, members, cell_of_row, out.0, rows, out.1),
            #[cfg(target_arch = "x86_64")]
            _ => {
                assert!(x86::detect());
                // SAFETY: AVX2 support verified just above.
                unsafe { x86::count_cells_sum_lanes(ext, members, cell_of_row, out.0, rows, out.1) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("the AVX2 twin exists on x86_64 only"),
        }
        (counts, sums)
    }

    #[test]
    fn sibling_lanes_match_the_per_child_walk() {
        let tiny = f64::MIN_POSITIVE / 3.0;
        // Dense IEEE specials, whose sums overflow and turn NaN; and finite
        // rows, where the signed zeros and subnormals show any non-member
        // row that changes a lane's bits. An accumulator that could become
        // -0.0 would turn +0.0 on its next non-member row.
        let specials = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            5e-324,
            1e300,
            -1e300,
        ];
        let finite = [-0.0, -0.0, 0.0, tiny, -5e-324];
        let mut bodies = vec![(0, "portable"), (1, "dispatched")];
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            bodies.push((2, "AVX2"));
        }
        let shapes = [1usize, 63, 64, 65, 1994]
            .into_iter()
            .flat_map(|n| [1usize, 63, 64, 65, 130].map(|conditions| (n, conditions)));
        for (k, (n, conditions)) in shapes.enumerate() {
            let cells = [1usize, 2, 7, 64, 130][k % 5];
            let cell_of_row = cell_map(n, cells, 70 + k as u64);
            let bit = |seed: u64, i: usize, one_in: u64| {
                words(seed ^ i as u64, 1)[0].is_multiple_of(one_in)
            };
            let masks: Vec<BitSet> = (0..conditions)
                .map(|j| BitSet::from_fn(n, |i| !bit(j as u64 * 7919, i, 3)))
                .collect();
            let parents = [
                BitSet::full(n),
                BitSet::empty(n),
                BitSet::from_indices(n, [n / 2]),
                BitSet::from_fn(n, |i| !bit(k as u64 * 104_729, i, 4)),
            ];
            for (t, values) in [&specials[..], &finite[..]].into_iter().enumerate() {
                let rows = pick_targets(n, 90 + k as u64 + t as u64, values);
                for block in 0..conditions.div_ceil(LANES) {
                    let members = membership(&masks, block, n);
                    let lanes = (conditions - block * LANES).min(LANES);
                    let all = u64::MAX >> (LANES - lanes);
                    // Every lane of the block, and lanes picked from both
                    // halves.
                    let selects = [all, all & 0x8000_0003_f0f0_0001];
                    for ((p, parent), select) in parents
                        .iter()
                        .enumerate()
                        .flat_map(|p| selects.map(|s| (p, s)))
                    {
                        let what = format!(
                            "n={n} conditions={conditions} cells={cells} targets {t} \
                             block {block} parent {p} select {select:#x}"
                        );
                        let ext = parent.words();
                        let got: Vec<_> = bodies
                            .iter()
                            .map(|&(b, _)| {
                                run_lanes(b, ext, (&members, select), &cell_of_row, &rows, cells)
                            })
                            .collect();
                        for j in 0..LANES {
                            let mut want_counts = vec![0usize; cells];
                            let mut want_sum = [0.0];
                            if select >> j & 1 != 0 {
                                let mut child = vec![0u64; ext.len()];
                                and_into(ext, masks[block * LANES + j].words(), &mut child);
                                count_cells_sum_rows(
                                    &child,
                                    &cell_of_row,
                                    &mut want_counts,
                                    &rows,
                                    &mut want_sum,
                                );
                            }
                            for ((counts, sums), (_, body)) in got.iter().zip(&bodies) {
                                let what = format!("{body} {what} lane {j}");
                                let lane_counts: Vec<usize> =
                                    (0..cells).map(|g| counts[g * LANES + j] as usize).collect();
                                assert_eq!(lane_counts, want_counts, "{what}");
                                assert_same_sum(sums[j], want_sum[0], &what);
                            }
                        }
                    }
                }
            }
        }
    }

    /// `compact` spelled out: bit by bit over the mask, into `words` words.
    fn gather_oracle(src: &[u64], mask: &[u64], words: usize) -> Vec<u64> {
        let mut out = vec![0u64; words];
        let mut k = 0;
        for i in 0..mask.len() * 64 {
            if mask[i / 64] >> (i % 64) & 1 == 1 {
                out[k / 64] |= (src[i / 64] >> (i % 64) & 1) << (k % 64);
                k += 1;
            }
        }
        out
    }

    type CompactFn = fn(&[u64], &[u64], &mut [u64]) -> usize;

    #[test]
    fn compact_bodies_match_a_bit_by_bit_gather() {
        let mut bodies: Vec<(&str, CompactFn)> = vec![
            ("dispatched", compact),
            ("portable", |s, m, o| compact_body(s, m, o, pext_portable)),
        ];
        #[cfg(target_arch = "x86_64")]
        if x86::detect_bmi2() {
            // SAFETY: BMI2 support verified just above.
            bodies.push(("BMI2", |s, m, o| unsafe { x86::compact(s, m, o) }));
        }
        for n in [1usize, 63, 64, 65, 130, 300, 1994] {
            let len = n.div_ceil(64);
            // Empty and full words between random ones, which gather
            // across output word boundaries at every offset.
            let mut patchy = words(81 + n as u64, len);
            for (w, word) in patchy.iter_mut().enumerate() {
                match w % 3 {
                    0 => *word = 0,
                    1 => *word = u64::MAX,
                    _ => {}
                }
            }
            let masks = [
                BitSet::empty(n),
                BitSet::full(n),
                BitSet::from_words(words(80 + n as u64, len), n),
                BitSet::from_words(patchy, n),
                BitSet::from_indices(n, [0, n / 2, n - 1]),
            ];
            // Sources with bits outside the mask and past row `n`, which
            // must not be gathered.
            let sources = [words(90 + n as u64, len), vec![u64::MAX; len], vec![0; len]];
            for (m, mask) in masks.iter().enumerate() {
                let count = mask.count();
                let need = count.div_ceil(64);
                for (s, src) in sources.iter().enumerate() {
                    let want = gather_oracle(src, mask.words(), need + 1);
                    for (name, body) in &bodies {
                        // Poisoned outputs, of the exact length and one word
                        // longer: the tail bits must come out zero.
                        for words in [need, need + 1] {
                            let mut out = vec![u64::MAX; words];
                            let got = body(src, mask.words(), &mut out);
                            let what = format!("{name} n={n} mask {m} source {s}");
                            assert_eq!(got, count, "{what}");
                            assert_eq!(out, want[..words], "{what} into {words} words");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn compact_rejects_a_short_output() {
        compact(&[u64::MAX; 2], &[u64::MAX; 2], &mut [0]);
    }

    #[test]
    fn row_walks_add_to_existing_counts_and_sums() {
        let cell_of_row = [0u32, 1, 1, 0, 2];
        let rows = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut counts = vec![10usize, 0, 0];
        let mut sum = vec![0.5];
        count_cells_sum_rows(&[0b10110], &cell_of_row, &mut counts, &rows, &mut sum);
        assert_eq!(counts, vec![10, 2, 1]);
        assert_eq!(sum, vec![0.5 + 2.0 + 3.0 + 5.0]);
        count_cells(&[], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "extension length mismatch")]
    fn count_cells_rejects_a_short_extension() {
        count_cells(&[u64::MAX], &[0u32; 65], &mut [0]);
    }

    #[test]
    fn sum_rows_adds_into_out_and_accepts_empty_shapes() {
        let rows = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![10.0, 20.0];
        sum_rows(&rows, &[0b101], &mut out);
        assert_eq!(out, vec![16.0, 28.0]);
        sum_rows(&[], &[], &mut []);
        let mut none: [f64; 0] = [];
        sum_rows(&rows, &[0b111], &mut none);
    }

    #[test]
    #[should_panic(expected = "extension length mismatch")]
    fn sum_rows_rejects_a_short_extension() {
        let rows = vec![0.0; 2 * 65];
        sum_rows(&rows, &[u64::MAX], &mut [0.0, 0.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn feature_dispatch_is_cached_in_a_oncelock() {
        // Exercise a kernel so the dispatch path has definitely run, then
        // assert the probe was memoized and agrees with the std macro.
        assert_eq!(and_count(&[0b1011], &[0b1110]), 2);
        let cached = super::x86::AVX2_POPCNT
            .get()
            .expect("first kernel call must populate the OnceLock");
        assert_eq!(*cached, super::x86::detect());
        // Repeated consultation returns the same cached value.
        assert_eq!(super::x86::avx2(), *cached);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        and_count(&[0u64; 2], &[0u64; 3]);
    }
}
