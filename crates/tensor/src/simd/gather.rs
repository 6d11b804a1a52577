//! Table-driven gathers: `dst[i] = if idx[i] < 0 { 0 } else { src[idx[i]] }`.
//!
//! The conv lowering (see `conv.rs`) computes, once per geometry and
//! GEMM tile width, where every element of a packed B-panel comes from
//! in the input sample, with −1 for padding taps and for the zero lanes
//! of a ragged last panel. Packing a sample is then one pass of this op
//! over that table: no im2col matrix, no per-tap bounds arithmetic.
//!
//! A gather only moves bits, so every vector body is **bitwise exact**
//! against the scalar oracle (NaN payloads and `-0.0` included). Every
//! body checks each index against the source before it loads: an index
//! past the end panics in the scalar body at the offending element, and
//! the vector bodies hand the block holding it to the scalar body, so
//! the panic (and everything written before it) is the same on every
//! ISA.
//!
//! The AVX-512 i8 body gathers 32-bit words at byte offsets and keeps
//! their low byte, so it reads up to [`GATHER_I8_SLACK`] bytes past the
//! indexed one. [`GatherI8`] therefore requires that slack after the
//! last indexable byte, on every ISA alike. The NEON build uses the
//! scalar body: aarch64 has no gather instruction.
//!
//! The op runs on the calling thread: its caller, the batched conv,
//! already splits its batch over the worker pool.

use super::dispatch::SimdOp;

/// Bytes a [`GatherI8`] source must extend past its highest index.
pub const GATHER_I8_SLACK: usize = 3;

/// The highest index a gather over `len` source elements may use when
/// the `slack` elements at the end are not themselves indexable; −1
/// when none is. Clamped to `i32::MAX`, above which every non-negative
/// index is in bounds.
fn index_limit(len: usize, slack: usize) -> i32 {
    (len as i64 - 1 - slack as i64).clamp(-1, i32::MAX as i64) as i32
}

/// The oracle body shared by both element types.
fn gather_scalar<T: Copy + Default>(src: &[T], idx: &[i32], dst: &mut [T], lim: i32) {
    assert_eq!(idx.len(), dst.len(), "gather: idx and dst lengths differ");
    for (d, &i) in dst.iter_mut().zip(idx) {
        assert!(i <= lim, "gather: index {i} past the source (limit {lim})");
        *d = if i < 0 { T::default() } else { src[i as usize] };
    }
}

/// f32 gather: `dst[i] = src[idx[i]]`, or `0.0` where `idx[i] < 0`.
pub struct GatherF32<'a> {
    /// Source elements.
    pub src: &'a [f32],
    /// One index per destination element; negative means zero.
    pub idx: &'a [i32],
    /// Destination, same length as `idx`.
    pub dst: &'a mut [f32],
}

/// i8 gather: `dst[i] = src[idx[i]]`, or `0` where `idx[i] < 0`.
/// Every index must leave [`GATHER_I8_SLACK`] bytes of `src` after it.
pub struct GatherI8<'a> {
    /// Source bytes, with [`GATHER_I8_SLACK`] bytes of slack at the end.
    pub src: &'a [i8],
    /// One index per destination element; negative means zero.
    pub idx: &'a [i32],
    /// Destination, same length as `idx`.
    pub dst: &'a mut [i8],
}

/// The AVX2 body of [`GatherF32`]; checks every index itself.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_f32_avx2(src: &[f32], idx: &[i32], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    assert_eq!(idx.len(), dst.len(), "gather: idx and dst lengths differ");
    let lim = index_limit(src.len(), 0);
    let (vlim, neg) = (_mm256_set1_epi32(lim), _mm256_set1_epi32(-1));
    let (sp, ip, dp) = (src.as_ptr(), idx.as_ptr(), dst.as_mut_ptr());
    let n = idx.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the index load and the store; every
        // lane is checked against `lim` before the gather, and lanes
        // with a negative index are masked off (never loaded).
        let v = _mm256_loadu_si256(ip.add(i).cast());
        if _mm256_movemask_epi8(_mm256_cmpgt_epi32(v, vlim)) != 0 {
            break; // the scalar body panics at the bad index
        }
        let keep = _mm256_castsi256_ps(_mm256_cmpgt_epi32(v, neg));
        let g = _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), sp, v, keep);
        _mm256_storeu_ps(dp.add(i), g);
        i += 8;
    }
    gather_scalar(src, &idx[i..], &mut dst[i..], lim);
}

/// The AVX2 body of [`GatherI8`]; checks every index itself.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_i8_avx2(src: &[i8], idx: &[i32], dst: &mut [i8]) {
    use std::arch::x86_64::*;
    assert_eq!(idx.len(), dst.len(), "gather: idx and dst lengths differ");
    let lim = index_limit(src.len(), GATHER_I8_SLACK);
    let (vlim, neg) = (_mm256_set1_epi32(lim), _mm256_set1_epi32(-1));
    // Byte 0 of each 32-bit lane to the low 4 bytes of its 128-bit half.
    let low_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let (sp, ip, dp) = (src.as_ptr().cast::<i32>(), idx.as_ptr(), dst.as_mut_ptr());
    let n = idx.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: as in `gather_f32_avx2`; a 4-byte word at any index
        // up to `lim` ends inside `src` thanks to the slack.
        let v = _mm256_loadu_si256(ip.add(i).cast());
        if _mm256_movemask_epi8(_mm256_cmpgt_epi32(v, vlim)) != 0 {
            break; // the scalar body panics at the bad index
        }
        let keep = _mm256_cmpgt_epi32(v, neg);
        let g = _mm256_mask_i32gather_epi32::<1>(_mm256_setzero_si256(), sp, v, keep);
        let b = _mm256_shuffle_epi8(g, low_bytes);
        let lo = _mm256_castsi256_si128(b);
        let hi = _mm256_extracti128_si256::<1>(b);
        _mm_storel_epi64(dp.add(i).cast(), _mm_unpacklo_epi32(lo, hi));
        i += 8;
    }
    gather_scalar(src, &idx[i..], &mut dst[i..], lim);
}

/// The AVX-512F body of [`GatherF32`]; checks every index itself.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_f32_avx512(src: &[f32], idx: &[i32], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    assert_eq!(idx.len(), dst.len(), "gather: idx and dst lengths differ");
    let lim = index_limit(src.len(), 0);
    let (vlim, zero) = (_mm512_set1_epi32(lim), _mm512_setzero_si512());
    let (sp, ip, dp) = (src.as_ptr(), idx.as_ptr(), dst.as_mut_ptr());
    let n = idx.len();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the index load and the store;
        // every lane is checked against `lim` before the gather, and
        // lanes with a negative index are masked off (never loaded).
        let v = _mm512_loadu_si512(ip.add(i).cast());
        if _mm512_cmpgt_epi32_mask(v, vlim) != 0 {
            break; // the scalar body panics at the bad index
        }
        let keep = _mm512_cmpge_epi32_mask(v, zero);
        let g = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), keep, v, sp);
        _mm512_storeu_ps(dp.add(i), g);
        i += 16;
    }
    gather_scalar(src, &idx[i..], &mut dst[i..], lim);
}

/// The AVX-512F body of [`GatherI8`]; checks every index itself.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_i8_avx512(src: &[i8], idx: &[i32], dst: &mut [i8]) {
    use std::arch::x86_64::*;
    assert_eq!(idx.len(), dst.len(), "gather: idx and dst lengths differ");
    let lim = index_limit(src.len(), GATHER_I8_SLACK);
    let (vlim, zero) = (_mm512_set1_epi32(lim), _mm512_setzero_si512());
    let (sp, ip, dp) = (src.as_ptr().cast::<i32>(), idx.as_ptr(), dst.as_mut_ptr());
    let n = idx.len();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: as in `gather_f32_avx512`; a 4-byte word at any index
        // up to `lim` ends inside `src` thanks to the slack.
        let v = _mm512_loadu_si512(ip.add(i).cast());
        if _mm512_cmpgt_epi32_mask(v, vlim) != 0 {
            break; // the scalar body panics at the bad index
        }
        let keep = _mm512_cmpge_epi32_mask(v, zero);
        let g = _mm512_mask_i32gather_epi32::<1>(zero, keep, v, sp);
        // Truncating narrow: each lane's low byte is the indexed one.
        _mm_storeu_si128(dp.add(i).cast(), _mm512_cvtepi32_epi8(g));
        i += 16;
    }
    gather_scalar(src, &idx[i..], &mut dst[i..], lim);
}

impl SimdOp for GatherF32<'_> {
    const NAME: &'static str = "tensor.simd.gather_f32";
    type Output = ();

    fn bytes(&self) -> u64 {
        12 * self.idx.len() as u64
    }

    fn scalar(self) {
        gather_scalar(self.src, self.idx, self.dst, index_limit(self.src.len(), 0));
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) {
        // SAFETY: AVX2 verified by the caller.
        unsafe { gather_f32_avx2(self.src, self.idx, self.dst) }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) {
        // SAFETY: AVX-512 verified by the caller.
        unsafe { gather_f32_avx512(self.src, self.idx, self.dst) }
    }
}

impl SimdOp for GatherI8<'_> {
    const NAME: &'static str = "tensor.simd.gather_i8";
    type Output = ();

    fn bytes(&self) -> u64 {
        6 * self.idx.len() as u64
    }

    fn scalar(self) {
        let lim = index_limit(self.src.len(), GATHER_I8_SLACK);
        gather_scalar(self.src, self.idx, self.dst, lim);
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) {
        // SAFETY: AVX2 verified by the caller.
        unsafe { gather_i8_avx2(self.src, self.idx, self.dst) }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) {
        // SAFETY: AVX-512 verified by the caller.
        unsafe { gather_i8_avx512(self.src, self.idx, self.dst) }
    }
}
