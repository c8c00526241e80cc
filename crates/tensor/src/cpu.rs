//! The one cached probe of the CPU features the explicit-SIMD kernels
//! select on at run time: the int8 micro-kernels in [`crate::quant`] (AVX2)
//! and the f32 GEMM micro-kernel in [`crate::ops`] (AVX-512F). The build
//! baseline stays `x86-64-v3`; anything wider is detected here, never
//! assumed.

/// What the running CPU supports beyond the build baseline.
#[derive(Clone, Copy)]
pub(crate) struct Features {
    pub(crate) avx2: bool,
    pub(crate) avx512f: bool,
}

/// The features of the CPU this process runs on, probed once.
#[cfg(target_arch = "x86_64")]
pub(crate) fn features() -> Features {
    use std::sync::OnceLock;
    static FEATURES: OnceLock<Features> = OnceLock::new();
    *FEATURES.get_or_init(|| Features {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        avx512f: std::arch::is_x86_feature_detected!("avx512f"),
    })
}

/// No x86 vector extensions on other architectures: the portable kernels
/// are the only ones compiled in.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn features() -> Features {
    Features { avx2: false, avx512f: false }
}
