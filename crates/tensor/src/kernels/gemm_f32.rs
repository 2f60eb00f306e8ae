//! f32 GEMM micro-kernel variants: scalar, autovectorized, and hand-written
//! AVX2 intrinsics.
//!
//! All three compute `C += A' · B'` over strided operands and are
//! **bit-identical** to each other: every variant reduces each output
//! element in the same fixed order — `k` split into [`KC`]-sized blocks
//! ascending, one partial sum per block started at `0.0` and accumulated
//! sequentially over the block's elements, then added into `C` — and none
//! uses FMA (a fused multiply-add rounds once where `mul` + `add` round
//! twice, which would break identity with the scalar body). The selector
//! in [`super`] may therefore pick any variant per shape without changing
//! a single output bit; `tests::variants_are_bit_identical` proves it.
//!
//! The packed variants share the GEBP decomposition of the original
//! blocked kernel: `A` packed into [`MR`]-row micro-panels, `B` into
//! [`NR`]-column micro-panels, an `MR × NR` register-resident accumulator
//! tile. Narrow products (`reads_b_in_place`) skip the `B` pack for
//! every full-width panel and hand the micro-kernel `B`'s own rows; the
//! micro-kernels take a `B` row stride for that. The oracle for
//! approximate correctness is [`gemm_f32_reference`], a straight
//! f64-accumulating triple loop.

use super::{Selection, Tile, Variant, KC, MR, NR};
use crate::scratch;

/// Runs the selected variant. Dimensions must be non-zero (the public
/// entry point in `ops::gemm` early-outs empty products).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    sel: Selection,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_str: (usize, usize),
    b: &[f32],
    b_str: (usize, usize),
    c: &mut [f32],
) {
    // f32 bit-identity pins the reduction split; a table row that varied
    // `kc` would silently change results between shape classes.
    assert_eq!(sel.tile.kc, KC, "f32 kernels require the pinned KC block");
    match sel.variant {
        Variant::Scalar => scalar(m, n, k, a, a_str, b, b_str, c),
        Variant::Autovec => blocked(Micro::Autovec, sel.tile, m, n, k, a, a_str, b, b_str, c),
        Variant::Avx2 => blocked(Micro::Avx2, sel.tile, m, n, k, a, a_str, b, b_str, c),
    }
}

/// Runs the strided f32 GEMM through one specific variant with the default
/// packed tile — the hook equivalence tests and benchmarks drive each
/// variant through directly. Requesting [`Variant::Avx2`] on a host
/// without AVX2 runs the autovectorized kernel instead (bit-identical by
/// the module contract, so the downgrade is observationally transparent).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_with(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_str: (usize, usize),
    b: &[f32],
    b_str: (usize, usize),
    c: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let variant = if variant == Variant::Avx2 && !super::avx2_available() {
        Variant::Autovec
    } else {
        variant
    };
    run(
        Selection {
            variant,
            tile: Tile::packed(64, 256),
        },
        m,
        n,
        k,
        a,
        a_str,
        b,
        b_str,
        c,
    )
}

/// Direct strided kernel: no packing, same reduction order as the packed
/// variants (per `KC` block: a fresh partial sum over the block's
/// elements ascending, then one add into `C`).
#[allow(clippy::too_many_arguments)]
fn scalar(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    for lc in (0..k).step_by(KC) {
        let kend = (lc + KC).min(k);
        for i in 0..m {
            let arow = i * a_rs;
            let crow = &mut c[i * n..(i + 1) * n];
            for (j, cj) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for l in lc..kend {
                    acc += a[arow + l * a_cs] * b[l * b_rs + j * b_cs];
                }
                *cj += acc;
            }
        }
    }
}

/// Which micro-kernel the packed driver runs per register tile.
#[derive(Clone, Copy)]
enum Micro {
    Autovec,
    Avx2,
}

/// Whether the packed driver reads full-width `B` panels in place instead
/// of packing them: `B'` rows are contiguous (`b_cs == 1`) and the product
/// is at most two register tiles tall, so a packed panel would be reused
/// by at most two micro-kernel calls and packing would cost as much as the
/// multiply (the per-image conv GEMM `8 × 72 · 72 × 1024` of a thin
/// ResNet stage is the motivating shape). Only a ragged last panel
/// (`n % NR` columns) is still packed, zero-padded to `NR` lanes.
///
/// Bit-identity is unaffected: the micro-kernel reads the same `B'`
/// values in the same `l` order either way, so each output element is
/// still reduced per `KC` block, elements ascending, without FMA.
fn reads_b_in_place(m: usize, b_cs: usize) -> bool {
    b_cs == 1 && m <= 2 * MR
}

/// Packed GEBP driver shared by the autovec and AVX2 variants; only the
/// inner register-tile kernel differs.
#[allow(clippy::too_many_arguments)]
fn blocked(
    micro: Micro,
    tile: Tile,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Blocks are clamped to the actual shape before sizing the pooled pack
    // buffers: `take` zero-fills what it hands out, and a full-tile buffer
    // for a small GEMM costs more in memset than the product itself. The
    // clamp cannot change results — it only shrinks the scratch area, never
    // the KC reduction split the bit-identity contract pins.
    let (kc_blk, mc_blk, nc_blk) = (tile.kc.min(k), tile.mc.min(m), tile.nc.min(n));
    let in_place = reads_b_in_place(m, b_cs);
    let b_panels = if in_place { 1 } else { nc_blk.div_ceil(NR) };
    let mut apack = scratch::take(mc_blk.div_ceil(MR) * MR * kc_blk);
    let mut bpack = scratch::take(b_panels * NR * kc_blk);

    for lc in (0..k).step_by(kc_blk) {
        let kc = kc_blk.min(k - lc);
        for jc in (0..n).step_by(nc_blk) {
            let nc = nc_blk.min(n - jc);
            // In place, only the ragged tail panel goes through the pack.
            let full = if in_place { nc - nc % NR } else { 0 };
            pack_b(&mut bpack, b, b_rs, b_cs, lc, kc, jc + full, nc - full);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a(&mut apack, a, a_rs, a_cs, ic, mc, lc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let (bp, ldb) = if jr < full {
                        (&b[lc * b_rs + jc + jr..], b_rs)
                    } else {
                        let p = (jr - full) / NR;
                        (&bpack[p * kc * NR..][..kc * NR], NR)
                    };
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        let c_off = (ic + ir) * n + jc + jr;
                        let ctile = &mut c[c_off..];
                        match micro {
                            Micro::Autovec => micro_autovec(kc, ap, bp, ldb, ctile, n, mr, nr),
                            Micro::Avx2 => micro_avx2(kc, ap, bp, ldb, ctile, n, mr, nr),
                        }
                    }
                }
            }
        }
    }
}

/// Packs an `mc × kc` block of `A'` into `MR`-row micro-panels, k-major
/// within each panel. Rows past `mc` are zero-padded so the micro-kernel
/// never branches on the row count.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    row0: usize,
    mc: usize,
    col0: usize,
    kc: usize,
) {
    for (p, panel) in dst.chunks_mut(kc * MR).take(mc.div_ceil(MR)).enumerate() {
        for l in 0..kc {
            for r in 0..MR {
                let i = p * MR + r;
                panel[l * MR + r] = if i < mc {
                    a[(row0 + i) * a_rs + (col0 + l) * a_cs]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs a `kc × nc` block of `B'` into `NR`-column micro-panels, k-major
/// within each panel, zero-padding columns past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
) {
    for (p, panel) in dst.chunks_mut(kc * NR).take(nc.div_ceil(NR)).enumerate() {
        for l in 0..kc {
            for q in 0..NR {
                let j = p * NR + q;
                panel[l * NR + q] = if j < nc {
                    b[(row0 + l) * b_rs + (col0 + j) * b_cs]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Autovectorized `MR × NR` register-tile kernel: dispatches to an
/// AVX2-compiled copy of [`micro_body`] when the CPU supports it. The two
/// copies run the very same Rust code and SIMD lanes only span *different*
/// output elements — each accumulator is still reduced over `l`
/// sequentially — so the dispatch is bit-transparent.
///
/// `B` row `l` of the tile starts at `bp[l * ldb]`: `ldb == NR` for a
/// packed panel, `B`'s own row stride when the driver reads it in place.
#[allow(clippy::too_many_arguments)]
fn micro_autovec(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, and the runtime
        // `is_x86_feature_detected!` check on the line above guarantees
        // exactly that. Feature availability is the *only* proof
        // obligation here: `micro_body_avx2` takes ordinary slices and its
        // body is safe Rust (bounds-checked indexing, no raw pointers), so
        // no aliasing, alignment or in-bounds reasoning is delegated to
        // the caller.
        return unsafe { micro_body_avx2(kc, ap, bp, ldb, c, ldc, mr, nr) };
    }
    micro_body(kc, ap, bp, ldb, c, ldc, mr, nr);
}

/// [`micro_body`] recompiled with 256-bit vectors: one row of the
/// accumulator block is two `ymm` registers, so the whole `MR × NR` tile
/// lives in eight of the sixteen vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn micro_body_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_body(kc, ap, bp, ldb, c, ldc, mr, nr);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_body(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let (a_panels, _) = ap[..kc * MR].as_chunks::<MR>();
    for (l, av) in a_panels.iter().enumerate() {
        let bv = &bp[l * ldb..][..NR];
        for r in 0..MR {
            let a = av[r];
            for q in 0..NR {
                acc[r][q] += a * bv[q];
            }
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (dst, &v) in row.iter_mut().zip(&acc[r][..nr]) {
            *dst += v;
        }
    }
}

/// Hand-written AVX2 `MR × NR` register-tile kernel over the same panels
/// (`B` rows `ldb` apart, as for [`micro_autovec`]). Falls back to the
/// generic body off x86-64 or when AVX2 is absent (the selector never
/// picks this variant there, but the function stays total).
#[allow(clippy::too_many_arguments)]
fn micro_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees.
        // The intrinsics inside assert their slice bounds before any raw
        // pointer arithmetic, so feature availability is the only proof
        // obligation delegated to this call site.
        return unsafe { micro_intrinsics_avx2(kc, ap, bp, ldb, c, ldc, mr, nr) };
    }
    micro_body(kc, ap, bp, ldb, c, ldc, mr, nr);
}

/// The intrinsics tile: two 8-lane `mul`/`add` chains per row. **No FMA** —
/// `_mm256_fmadd_ps` rounds once per lane where the scalar body rounds
/// twice, which would break cross-variant bit-identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn micro_intrinsics_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    assert!(ap.len() >= kc * MR, "packed A panel too short");
    assert!(
        kc == 0 || bp.len() >= (kc - 1) * ldb + NR,
        "B panel too short"
    );
    let mut acc0 = [_mm256_setzero_ps(); MR];
    let mut acc1 = [_mm256_setzero_ps(); MR];
    for l in 0..kc {
        // SAFETY: row `l < kc` of the panel spans `bp[l * ldb..l * ldb +
        // NR]`, in bounds because `bp` holds at least `(kc - 1) * ldb +
        // NR` floats (asserted above); both unaligned 8-lane loads at
        // `l * ldb` and `l * ldb + 8` stay inside that row, and `loadu`
        // has no alignment requirement.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bp.as_ptr().add(l * ldb)),
                _mm256_loadu_ps(bp.as_ptr().add(l * ldb + 8)),
            )
        };
        let av = &ap[l * MR..l * MR + MR];
        for r in 0..MR {
            let a = _mm256_set1_ps(av[r]);
            acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(a, b0));
            acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(a, b1));
        }
    }
    let mut tile = [[0.0f32; NR]; MR];
    for r in 0..MR {
        // SAFETY: `tile[r]` is NR = 16 contiguous floats, exactly the room
        // the two unaligned 8-lane stores need.
        unsafe {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), acc0[r]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc1[r]);
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (dst, &v) in row.iter_mut().zip(&tile[r][..nr]) {
            *dst += v;
        }
    }
}

/// Straight f64-accumulating triple loop with the same stride convention —
/// the approximate-correctness oracle every f32 variant is tested against.
#[cfg(any(test, feature = "reference-kernels"))]
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f64;
            for l in 0..k {
                s += f64::from(a[i * a_rs + l * a_cs]) * f64::from(b[l * b_rs + j * b_cs]);
            }
            c[i * n + j] += s as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VARIANTS: [Variant; 3] = [Variant::Scalar, Variant::Autovec, Variant::Avx2];

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn variants_are_bit_identical() {
        // Shapes straddling MR/NR remainder tiles, the MC/NC cache blocks
        // and — crucially for the scalar block split — the KC boundary.
        // Products at most 2·MR rows tall read unit-stride B in place
        // (ragged last panel packed, n % NR != 0 below); a transposed B
        // (`true`: b_cs != 1) must still take the packed path.
        for &(m, n, k, b_transposed) in &[
            (1, 1, 1, false),
            (3, 5, 2, false),
            (5, 17, 9, false),
            (64, 16, 64, false),
            (65, 17, 65, false),
            (7, 300, 300, false),
            (9, 33, 600, false),
            (2, 5, 257, false),
            (2, 47, 72, false),
            (3, 16, 9, false),
            (4, 1, 300, false),
            (5, 33, 1, false),
            (6, 70, 513, false),
            (7, 31, 72, false),
            (8, 1030, 72, false),
            (8, 47, 300, true),
            (3, 40, 20, true),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let b_str = if b_transposed { (1, k) } else { (n, 1) };
            let mut outs = Vec::new();
            for v in VARIANTS {
                let mut c = vec![0.0f32; m * n];
                gemm_f32_with(v, m, n, k, &a, (k, 1), &b, b_str, &mut c);
                outs.push(c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            }
            assert_eq!(outs[0], outs[1], "({m}x{n}x{k}) scalar != autovec");
            assert_eq!(outs[1], outs[2], "({m}x{n}x{k}) autovec != avx2");
        }
    }

    #[test]
    fn variants_are_bit_identical_on_transposed_strides() {
        let (m, n, k) = (33, 29, 300);
        let a = fill(k * m, 3);
        let b = fill(n * k, 4);
        let mut outs = Vec::new();
        for v in VARIANTS {
            let mut c = vec![0.0f32; m * n];
            gemm_f32_with(v, m, n, k, &a, (1, m), &b, (1, k), &mut c);
            outs.push(c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn every_variant_matches_the_reference() {
        let (m, n, k) = (31, 45, 70);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut want = vec![0.0f32; m * n];
        gemm_f32_reference(m, n, k, &a, (k, 1), &b, (n, 1), &mut want);
        let tol = 1e-4 * k as f32;
        for v in VARIANTS {
            let mut got = vec![0.0f32; m * n];
            gemm_f32_with(v, m, n, k, &a, (k, 1), &b, (n, 1), &mut got);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= tol,
                    "{v:?} element {i}: {g} vs reference {w}"
                );
            }
        }
    }

    #[test]
    fn nonstandard_tiles_do_not_change_bits() {
        // MC/NC partition independent outputs; any packed tile must agree
        // with the scalar kernel bit-for-bit.
        let (m, n, k) = (70, 50, 300);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let mut want = vec![0.0f32; m * n];
        scalar(m, n, k, &a, (k, 1), &b, (n, 1), &mut want);
        for (mc, nc) in [(8, 32), (64, 256), (128, 48)] {
            let mut got = vec![0.0f32; m * n];
            run(
                Selection {
                    variant: Variant::Autovec,
                    tile: Tile {
                        mr: MR,
                        nr: NR,
                        kc: KC,
                        mc,
                        nc,
                    },
                },
                m,
                n,
                k,
                &a,
                (k, 1),
                &b,
                (n, 1),
                &mut got,
            );
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb, "tile ({mc},{nc}) changed bits");
        }
    }
}
