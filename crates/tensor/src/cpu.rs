//! The run-time probe of the CPU feature the explicit-SIMD kernels select
//! on: AVX-512F, for the f32 GEMM micro-kernel and the GELU and softmax
//! twins in [`crate::ops`]. The build baseline stays
//! `x86-64-v3`; anything wider is detected here, never assumed — and never
//! on another architecture, where the portable kernels are the only ones
//! compiled in. `is_x86_feature_detected!` caches its own answer.

pub(crate) fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}
