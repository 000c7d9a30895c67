//! The process's peak resident set size.
//!
//! Read from `VmHWM` in `/proc/self/status`, the high-water mark of this
//! process image alone. `getrusage`'s `ru_maxrss` is no substitute: Linux
//! carries the parent's high-water mark across `fork` + `exec`, so under
//! `cargo run` it would report cargo's memory.

/// Peak resident set size of this process in MB (10^6 bytes), or 0 if
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_covers_touched_memory() {
        assert!(super::peak_rss_mb() > 0.0);
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = super::peak_rss_mb();
        assert!(peak >= block.len() as f64 / 1e6, "{peak} MB");
    }
}
