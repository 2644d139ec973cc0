//! The run header: what machine and build produced the numbers.

use crate::json::Json;

/// Cache sizes as the CPU reports them through `cpuid`:
/// `(L2 bytes per core-level instance, L3 bytes)`, `None` where the
/// CPU does not say.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::{__cpuid, __cpuid_count, CpuidResult};
    // SAFETY: `cpuid` exists on every x86_64 CPU; reading a leaf has no
    // side effects. (`unused_unsafe`: newer toolchains mark it safe.)
    #[allow(unused_unsafe)]
    let id = |leaf: u32, sub: u32| -> CpuidResult { unsafe { __cpuid_count(leaf, sub) } };
    #[allow(unused_unsafe)]
    let vendor = unsafe { __cpuid(0) };
    let max_basic = vendor.eax;
    let amd = vendor.ebx == u32::from_le_bytes(*b"Auth");
    // Deterministic cache parameters: leaf 4 (Intel) or 0x8000001D (AMD)
    // share one layout.
    let leaf = if amd { 0x8000_001D } else { 4 };
    if !amd && max_basic < 4 {
        return (None, None);
    }
    let (mut l2, mut l3) = (None, None);
    for sub in 0..16 {
        let r = id(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) + 1);
        let partitions = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
        let line = u64::from((r.ebx & 0xfff) + 1);
        let sets = u64::from(r.ecx) + 1;
        let bytes = ways * partitions * line * sets;
        match level {
            2 => l2 = Some(bytes),
            3 => l3 = Some(bytes),
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}

fn opt(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

/// `nproc`, CPU features, the kernel path the engine dispatches to,
/// the compiler, and the cache sizes the CPU reports.
pub fn header() -> Json {
    let (l2, l3) = cache_sizes();
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("cpu_features", qoz_codec::simd::cpu_features())
        .with("kernel_path", qoz_codec::simd::selected().name())
        .with("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .with("l2_bytes", opt(l2))
        .with("l3_bytes", opt(l3))
}
