//! Machine fingerprint and process memory readings.

/// nproc, CPU model and compiler version, printed with every result.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Resident set size now and at its peak, in KiB, from `/proc/self/status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    pub rss_kb: u64,
    pub hwm_kb: u64,
}

pub fn memory() -> Memory {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .unwrap_or(0)
    };
    Memory {
        rss_kb: field("VmRSS:"),
        hwm_kb: field("VmHWM:"),
    }
}
