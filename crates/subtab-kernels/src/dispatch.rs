//! Runtime ISA detection shared by every SIMD kernel in the workspace.
//!
//! Detection is cached and honours the `SUBTAB_FORCE_SCALAR_KERNELS`
//! environment variable (any non-empty value other than `0` pins every
//! default dispatch to the scalar tier). Explicit `*_with_isa` kernel entry
//! points ignore the override so equivalence tests can still compare tiers.

use std::sync::OnceLock;

/// Instruction-set tier a kernel can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512 (F + DQ + VL): 16 f32 / 8 f64 lanes. A CPU with AVX-512F
    /// alone runs the AVX2+FMA tier.
    Avx512,
    /// AVX2 + FMA: 8 f32 / 4 f64 lanes.
    Avx2Fma,
    /// Portable scalar fallback; always available.
    Scalar,
}

impl Isa {
    /// Raw CPU capability for this tier, ignoring the scalar override.
    ///
    /// Explicit-ISA kernel constructors use this to downgrade a requested
    /// tier the hardware cannot run, while still letting equivalence tests
    /// compare tiers on machines where `SUBTAB_FORCE_SCALAR_KERNELS` has
    /// pinned the *default* dispatch.
    pub fn available(self) -> bool {
        match self {
            Isa::Avx512 => cpu_has_avx512(),
            Isa::Avx2Fma => cpu_has_avx2_fma(),
            Isa::Scalar => true,
        }
    }
}

/// True when `SUBTAB_FORCE_SCALAR_KERNELS` pins dispatch to the scalar tier.
///
/// Read once per process: flipping the variable after the first kernel call
/// has no effect, which keeps dispatch stable for the lifetime of a run.
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("SUBTAB_FORCE_SCALAR_KERNELS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// True when the AVX-512 tier (F + DQ + VL) is usable (CPU support and no
/// scalar override).
pub fn has_avx512() -> bool {
    !force_scalar() && cpu_has_avx512()
}

/// True when the AVX2+FMA tier is usable (CPU support and no scalar override).
pub fn has_avx2_fma() -> bool {
    !force_scalar() && cpu_has_avx2_fma()
}

/// Pick the best available tier, honouring the scalar override.
pub fn detect() -> Isa {
    if has_avx512() {
        Isa::Avx512
    } else if has_avx2_fma() {
        Isa::Avx2Fma
    } else {
        Isa::Scalar
    }
}

/// The one place the AVX-512 tier's feature set is spelled out.
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx512() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_avx2_fma() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2_fma() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_consistent_with_tier_helpers() {
        let isa = detect();
        match isa {
            Isa::Avx512 => assert!(has_avx512()),
            Isa::Avx2Fma => assert!(has_avx2_fma() && !has_avx512()),
            Isa::Scalar => assert!(!has_avx512() && !has_avx2_fma()),
        }
    }

    #[test]
    fn forced_scalar_env_pins_detection() {
        // The override is latched on first use, so this test can only assert
        // the env-consistent direction rather than toggling it mid-process.
        if std::env::var("SUBTAB_FORCE_SCALAR_KERNELS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
        {
            assert_eq!(detect(), Isa::Scalar);
            assert!(!has_avx512());
            assert!(!has_avx2_fma());
        }
    }
}
