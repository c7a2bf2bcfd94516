//! SIMD min-plus kernels for the Eq. 3 query scans.
//!
//! Two primitive reductions cover every labelling-side query scan:
//!
//! * [`accumulate_via`] — dense accumulate min-plus. For one source
//!   label `(i, ls)`, fold `via[j] ← min(via[j], ls + δ_H(r_i, r_j))`
//!   over a contiguous (width-narrowed) highway row. `SourcePlan`
//!   construction is `|L(s)|` calls of this.
//! * [`gather_min`] — sparse gather min-plus. For a packed target row
//!   (landmark ids + narrowed distances), compute
//!   `min_k via[ids[k]] + dist[k]` — the per-target Eq. 3 bound.
//!
//! # The clamped `u32` domain
//!
//! The kernels run branch-free in a clamped domain: the unreachable
//! sentinel widens to [`CLAMP_INF`] (`2^29`) instead of `u32::MAX`, so
//! a sum of up to three operands stays below `2^31` — no lane ever
//! overflows, and SSE2's *signed* 32-bit comparisons order values
//! correctly despite the lack of an unsigned min instruction.
//!
//! Callers gate entry to the kernels on `clamp_safe`: every finite
//! input at most [`CLAMP_SAFE_MAX`] (`CLAMP_INF / 3 − 1`), guaranteed
//! by the u8/u16 width tiers and checked for u32 data. The `/ 3`
//! margin is what makes the sentinel unambiguous — an Eq. 3 bound sums
//! *three* clamp-safe operands, so any genuine (fully reachable) result
//! is at most `3 · CLAMP_SAFE_MAX < CLAMP_INF`, and a result
//! `≥ CLAMP_INF` can only mean a sentinel participated: callers map it
//! back to [`INF`] with [`clamp_to_inf`]. Inputs outside the domain —
//! possible only for weighted graphs with huge distances — take the
//! exact scalar `u64` paths instead.
//!
//! # Dispatch
//!
//! `std::arch` SSE2/AVX2 with runtime feature detection; the
//! branch-free scalar fallback is the portable default (and is
//! bit-for-bit equivalent — same adds, same mins, no reassociation).
//! The active kernel is selected once per process ([`active_kernel`],
//! cached in a `OnceLock`); setting `BATCHHL_FORCE_SCALAR=1` in the
//! environment forces the scalar path (CI runs the test suite both
//! ways). Non-x86 targets always use the scalar path.

use crate::packed::NarrowSlice;
use batchhl_common::{Dist, INF};
use std::sync::OnceLock;

/// The clamped-domain unreachable sentinel: `2^29`. Three-operand sums
/// of values `≤ CLAMP_INF` stay below `2^31` (see module docs).
pub const CLAMP_INF: u32 = 1 << 29;

/// Largest finite distance admitted to the clamped domain. Three
/// clamp-safe operands sum to `< CLAMP_INF`, so a kernel result
/// `≥ CLAMP_INF` unambiguously involved the unreachable sentinel (see
/// module docs). Larger distances take the exact scalar `u64` paths.
pub const CLAMP_SAFE_MAX: u32 = CLAMP_INF / 3 - 1;

/// Map a clamped-domain result back to the exact domain.
#[inline]
pub fn clamp_to_inf(x: u32) -> Dist {
    if x >= CLAMP_INF {
        INF
    } else {
        x
    }
}

/// Which min-plus implementation serves this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Scalar,
    Sse2,
    Avx2,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
        }
    }
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// The kernel implementation in use, detected once per process.
pub fn active_kernel() -> Kernel {
    *ACTIVE.get_or_init(detect)
}

fn detect() -> Kernel {
    if std::env::var_os("BATCHHL_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty()) {
        return Kernel::Scalar;
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        if is_x86_feature_detected!("sse2") {
            return Kernel::Sse2;
        }
    }
    Kernel::Scalar
}

/// `via[j] ← min(via[j], ls + hrow[j])` over the clamped domain
/// (`hrow`'s `T::MAX` sentinel widens to [`CLAMP_INF`]). Requires
/// `ls < CLAMP_INF` and, for `U32` rows, every finite value below
/// `CLAMP_INF` (the `clamp_safe` gates); panics when the two rows
/// differ in length.
#[inline]
pub fn accumulate_via(via: &mut [u32], ls: u32, hrow: NarrowSlice<'_>) {
    debug_assert!(ls < CLAMP_INF);
    // The SIMD loops index `hrow` by `via`'s length.
    assert_eq!(via.len(), hrow.len(), "row lengths differ");
    match active_kernel() {
        // SAFETY: `active_kernel` picked the kernel by runtime feature
        // detection, and the rows have equal length (asserted above).
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Avx2 => unsafe { x86::accumulate_via_avx2(via, ls, hrow) },
        // SAFETY: as above.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Sse2 => unsafe { x86::accumulate_via_sse2(via, ls, hrow) },
        _ => accumulate_via_scalar(via, ls, hrow),
    }
}

/// Rows shorter than this take the scalar [`gather_min`] path even
/// when AVX2 is available: `vpgatherdd` has a high fixed latency, and
/// measured on real social-graph label rows (avg `|L(v)|` ≈ 5) the
/// scalar loop is ~2.5× faster. The SIMD gather wins on long rows
/// (dense landmark coverage, large `|R|`).
pub const GATHER_SIMD_MIN_LEN: usize = 16;

/// `min_k via[ids[k]] + dists[k]` over the clamped domain, `u32::MAX`
/// when the row is empty. Requires clamp-safe inputs; panics when an id
/// is out of `via`'s range (landmark indices are `< |R|` by
/// construction) or `ids` and `dists` differ in length.
#[inline]
pub fn gather_min(via: &[u32], ids: &[u16], dists: NarrowSlice<'_>) -> u32 {
    // The SIMD loop reads `dists` by `ids`' length.
    assert_eq!(ids.len(), dists.len(), "row lengths differ");
    if ids.len() < GATHER_SIMD_MIN_LEN {
        return gather_min_scalar(via, ids, dists);
    }
    match active_kernel() {
        // SAFETY: AVX2 was detected at runtime, `ids` and `dists` have
        // equal length (asserted above), and the `all` check bounds
        // every gathered index by `via.len()` — the hardware gather
        // does no bounds check of its own.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Avx2 if ids.iter().all(|&i| usize::from(i) < via.len()) => unsafe {
            x86::gather_min_avx2(via, ids, dists)
        },
        _ => gather_min_scalar(via, ids, dists),
    }
}

/// Branch-free scalar [`accumulate_via`] (the portable default, and the
/// reference the proptest suite compares SIMD output against).
pub fn accumulate_via_scalar(via: &mut [u32], ls: u32, hrow: NarrowSlice<'_>) {
    match hrow {
        NarrowSlice::U8(row) => {
            for (slot, &h) in via.iter_mut().zip(row) {
                let h = if h == u8::MAX { CLAMP_INF } else { h as u32 };
                *slot = (*slot).min(ls + h);
            }
        }
        NarrowSlice::U16(row) => {
            for (slot, &h) in via.iter_mut().zip(row) {
                let h = if h == u16::MAX { CLAMP_INF } else { h as u32 };
                *slot = (*slot).min(ls + h);
            }
        }
        NarrowSlice::U32(row) => {
            for (slot, &h) in via.iter_mut().zip(row) {
                let h = if h == INF { CLAMP_INF } else { h };
                *slot = (*slot).min(ls + h);
            }
        }
    }
}

/// Scalar [`gather_min`] (portable default / proptest reference).
pub fn gather_min_scalar(via: &[u32], ids: &[u16], dists: NarrowSlice<'_>) -> u32 {
    let mut best = u32::MAX;
    match dists {
        NarrowSlice::U8(ds) => {
            for (&i, &d) in ids.iter().zip(ds) {
                best = best.min(via[i as usize] + d as u32);
            }
        }
        NarrowSlice::U16(ds) => {
            for (&i, &d) in ids.iter().zip(ds) {
                best = best.min(via[i as usize] + d as u32);
            }
        }
        NarrowSlice::U32(ds) => {
            for (&i, &d) in ids.iter().zip(ds) {
                best = best.min(via[i as usize] + d);
            }
        }
    }
    best
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::*;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Widen 8 narrow highway entries starting at `k` to clamped u32
    /// lanes (sentinel → CLAMP_INF).
    ///
    /// # Safety
    ///
    /// `k + 8 <= hrow.len()`, and the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen8_clamped(hrow: NarrowSlice<'_>, k: usize, clampv: __m256i) -> __m256i {
        // Each arm compares against its own constant sentinel; one shared
        // compare + blend after the match measured ~20 % slower queries.
        match hrow {
            NarrowSlice::U8(row) => {
                // SAFETY: entries `k..k + 8` are in bounds (caller), so
                // the load reads 8 entries of `row` and nothing past it.
                let raw = unsafe { _mm_loadl_epi64(row.as_ptr().add(k) as *const __m128i) };
                let lanes = _mm256_cvtepu8_epi32(raw);
                let sent = _mm256_cmpeq_epi32(lanes, _mm256_set1_epi32(u8::MAX as i32));
                _mm256_blendv_epi8(lanes, clampv, sent)
            }
            NarrowSlice::U16(row) => {
                // SAFETY: as above.
                let raw = unsafe { _mm_loadu_si128(row.as_ptr().add(k) as *const __m128i) };
                let lanes = _mm256_cvtepu16_epi32(raw);
                let sent = _mm256_cmpeq_epi32(lanes, _mm256_set1_epi32(u16::MAX as i32));
                _mm256_blendv_epi8(lanes, clampv, sent)
            }
            NarrowSlice::U32(row) => {
                // SAFETY: as above.
                let lanes = unsafe { _mm256_loadu_si256(row.as_ptr().add(k) as *const __m256i) };
                let sent = _mm256_cmpeq_epi32(lanes, _mm256_set1_epi32(-1));
                _mm256_blendv_epi8(lanes, clampv, sent)
            }
        }
    }

    /// Widen 8 label-row distances starting at `k` (no sentinel: tier
    /// selection keeps `T::MAX` out of label payloads).
    ///
    /// # Safety
    ///
    /// `k + 8 <= dists.len()`, and the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen8_plain(dists: NarrowSlice<'_>, k: usize) -> __m256i {
        // SAFETY: entries `k..k + 8` are in bounds (caller), so each
        // load reads 8 entries of `ds` and nothing past it.
        unsafe {
            match dists {
                NarrowSlice::U8(ds) => {
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(ds.as_ptr().add(k) as *const __m128i))
                }
                NarrowSlice::U16(ds) => {
                    _mm256_cvtepu16_epi32(_mm_loadu_si128(ds.as_ptr().add(k) as *const __m128i))
                }
                NarrowSlice::U32(ds) => _mm256_loadu_si256(ds.as_ptr().add(k) as *const __m256i),
            }
        }
    }

    /// AVX2 [`accumulate_via`](super::accumulate_via).
    ///
    /// # Safety
    ///
    /// `hrow.len() == via.len()`, and the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_via_avx2(via: &mut [u32], ls: u32, hrow: NarrowSlice<'_>) {
        let n = via.len();
        let lsv = _mm256_set1_epi32(ls as i32);
        let clampv = _mm256_set1_epi32(CLAMP_INF as i32);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n == hrow.len()`, so the widen, the load
            // and the store all stay inside their 8-lane windows.
            unsafe {
                let h = widen8_clamped(hrow, j, clampv);
                let cand = _mm256_add_epi32(lsv, h);
                let cur = _mm256_loadu_si256(via.as_ptr().add(j) as *const __m256i);
                let m = _mm256_min_epu32(cur, cand);
                _mm256_storeu_si256(via.as_mut_ptr().add(j) as *mut __m256i, m);
            }
            j += 8;
        }
        accumulate_via_scalar(&mut via[j..], ls, hrow.tail(j));
    }

    /// SSE2 [`accumulate_via`](super::accumulate_via).
    ///
    /// # Safety
    ///
    /// `hrow.len() == via.len()`, and the CPU supports SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn accumulate_via_sse2(via: &mut [u32], ls: u32, hrow: NarrowSlice<'_>) {
        let n = via.len();
        let lsv = _mm_set1_epi32(ls as i32);
        let clampv = _mm_set1_epi32(CLAMP_INF as i32);
        let zero = _mm_setzero_si128();
        let mut j = 0;
        while j + 4 <= n {
            // Widen 4 entries to u32 lanes with the sentinel clamped.
            // SAFETY: `j + 4 <= n == hrow.len()`: every load below reads
            // entries `j..j + 4` of `row` (the U16 load 8 bytes, the U32
            // load 16) and nothing past them.
            let (lanes, sentv) = unsafe {
                match hrow {
                    NarrowSlice::U8(row) => {
                        let word = u32::from_le_bytes(
                            row.as_ptr().add(j).cast::<[u8; 4]>().read_unaligned(),
                        );
                        let b = _mm_cvtsi32_si128(word as i32);
                        let w = _mm_unpacklo_epi16(_mm_unpacklo_epi8(b, zero), zero);
                        (w, _mm_set1_epi32(u8::MAX as i32))
                    }
                    NarrowSlice::U16(row) => {
                        let b = _mm_loadl_epi64(row.as_ptr().add(j) as *const __m128i);
                        (_mm_unpacklo_epi16(b, zero), _mm_set1_epi32(u16::MAX as i32))
                    }
                    NarrowSlice::U32(row) => (
                        _mm_loadu_si128(row.as_ptr().add(j) as *const __m128i),
                        _mm_set1_epi32(-1),
                    ),
                }
            };
            let sent = _mm_cmpeq_epi32(lanes, sentv);
            let h = _mm_or_si128(_mm_and_si128(sent, clampv), _mm_andnot_si128(sent, lanes));
            let cand = _mm_add_epi32(lsv, h);
            // SAFETY: `j + 4 <= n == via.len()`: 4 lanes in bounds.
            let cur = unsafe { _mm_loadu_si128(via.as_ptr().add(j) as *const __m128i) };
            // Unsigned min via signed compare: every clamped-domain
            // value is < 2^31, where the orders coincide.
            let lt = _mm_cmplt_epi32(cand, cur);
            let m = _mm_or_si128(_mm_and_si128(lt, cand), _mm_andnot_si128(lt, cur));
            // SAFETY: the same 4 lanes as the load above.
            unsafe { _mm_storeu_si128(via.as_mut_ptr().add(j) as *mut __m128i, m) };
            j += 4;
        }
        accumulate_via_scalar(&mut via[j..], ls, hrow.tail(j));
    }

    /// AVX2 [`gather_min`](super::gather_min).
    ///
    /// # Safety
    ///
    /// `ids.len() == dists.len()`, every `ids[k] < via.len()`, and the
    /// CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_min_avx2(via: &[u32], ids: &[u16], dists: NarrowSlice<'_>) -> u32 {
        let len = ids.len();
        let mut bestv = _mm256_set1_epi32(-1); // u32::MAX lanes
        let mut k = 0;
        while k + 8 <= len {
            // SAFETY: `k + 8 <= len` bounds the 8-id load and the 8-entry
            // widen of `dists` (same length); every gathered index is
            // `< via.len()` (caller).
            unsafe {
                let idx =
                    _mm256_cvtepu16_epi32(_mm_loadu_si128(ids.as_ptr().add(k) as *const __m128i));
                let g = _mm256_i32gather_epi32::<4>(via.as_ptr() as *const i32, idx);
                let d = widen8_plain(dists, k);
                bestv = _mm256_min_epu32(bestv, _mm256_add_epi32(g, d));
            }
            k += 8;
        }
        let mut best = if k > 0 {
            let lo = _mm256_castsi256_si128(bestv);
            let hi = _mm256_extracti128_si256(bestv, 1);
            let m = _mm_min_epu32(lo, hi);
            let m = _mm_min_epu32(m, _mm_shuffle_epi32(m, 0b0100_1110));
            let m = _mm_min_epu32(m, _mm_shuffle_epi32(m, 0b1011_0001));
            _mm_cvtsi128_si32(m) as u32
        } else {
            u32::MAX
        };
        best = best.min(gather_min_scalar(via, &ids[k..], dists.tail(k)));
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn via_ref(via: &[u32], ls: u32, hrow: NarrowSlice<'_>) -> Vec<u32> {
        let mut v = via.to_vec();
        accumulate_via_scalar(&mut v, ls, hrow);
        v
    }

    #[test]
    fn scalar_accumulate_clamps_sentinels() {
        let mut via = vec![CLAMP_INF; 4];
        accumulate_via_scalar(&mut via, 3, NarrowSlice::U8(&[0, 7, u8::MAX, 254]));
        assert_eq!(via, vec![3, 10, CLAMP_INF, 257]);
        // A second fold only improves.
        accumulate_via_scalar(&mut via, 1, NarrowSlice::U16(&[5, u16::MAX, 2, 2]));
        assert_eq!(via, vec![3, 10, 3, 3]);
    }

    #[test]
    fn scalar_gather_matches_manual_min() {
        let via = vec![10, CLAMP_INF, 3, 7];
        let got = gather_min_scalar(&via, &[0, 2, 3], NarrowSlice::U8(&[1, 9, 0]));
        assert_eq!(got, 7);
        assert_eq!(gather_min_scalar(&via, &[], NarrowSlice::U8(&[])), u32::MAX);
        assert_eq!(clamp_to_inf(CLAMP_INF + 5), INF);
        assert_eq!(clamp_to_inf(41), 41);
    }

    /// Deterministic pseudo-random values for the dispatch-equivalence
    /// checks below (covers lengths around every unroll boundary).
    fn lcg(seed: &mut u64) -> u32 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*seed >> 33) as u32
    }

    #[test]
    fn dispatched_kernels_match_scalar() {
        let mut seed = 0x5EED;
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 20, 33, 64] {
            // Highway rows in each width, sentinels sprinkled in.
            let h8: Vec<u8> = (0..len)
                .map(|_| {
                    if lcg(&mut seed).is_multiple_of(5) {
                        u8::MAX
                    } else {
                        (lcg(&mut seed) % 200) as u8
                    }
                })
                .collect();
            let h16: Vec<u16> = (0..len)
                .map(|_| {
                    if lcg(&mut seed).is_multiple_of(5) {
                        u16::MAX
                    } else {
                        (lcg(&mut seed) % 60_000) as u16
                    }
                })
                .collect();
            let h32: Vec<u32> = (0..len)
                .map(|_| {
                    if lcg(&mut seed).is_multiple_of(5) {
                        INF
                    } else {
                        lcg(&mut seed) % (CLAMP_INF - 1)
                    }
                })
                .collect();
            let base: Vec<u32> = (0..len).map(|_| lcg(&mut seed) % CLAMP_INF).collect();
            for hrow in [
                NarrowSlice::U8(&h8),
                NarrowSlice::U16(&h16),
                NarrowSlice::U32(&h32),
            ] {
                let ls = lcg(&mut seed) % 100_000;
                let want = via_ref(&base, ls, hrow);
                let mut got = base.clone();
                accumulate_via(&mut got, ls, hrow);
                assert_eq!(got, want, "len {len} kernel {:?}", active_kernel());
            }
            // Gather rows: ids into a 64-slot dense array.
            let via: Vec<u32> = (0..64).map(|_| lcg(&mut seed) % (CLAMP_INF + 1)).collect();
            let ids: Vec<u16> = (0..len).map(|_| (lcg(&mut seed) % 64) as u16).collect();
            let d8: Vec<u8> = (0..len).map(|_| (lcg(&mut seed) % 255) as u8).collect();
            let d16: Vec<u16> = (0..len).map(|_| (lcg(&mut seed) % 65_535) as u16).collect();
            let d32: Vec<u32> = (0..len).map(|_| lcg(&mut seed) % (CLAMP_INF - 1)).collect();
            for dists in [
                NarrowSlice::U8(&d8),
                NarrowSlice::U16(&d16),
                NarrowSlice::U32(&d32),
            ] {
                assert_eq!(
                    gather_min(&via, &ids, dists),
                    gather_min_scalar(&via, &ids, dists),
                    "len {len}"
                );
            }
        }
    }
}
