//! Process and thread resource counters read from `/proc`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields (Linux
/// `USER_HZ`, fixed at 100 by the kernel ABI on every supported
/// architecture).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU milliseconds from a `stat` file.
fn cpu_ms(path: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(path)?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12th and 13th after ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat field"))
    };
    Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_S)
}

/// CPU milliseconds the whole process has used.
pub fn process_cpu_ms() -> io::Result<f64> {
    cpu_ms("/proc/self/stat")
}

/// CPU milliseconds the calling thread has used.
pub fn thread_cpu_ms() -> io::Result<f64> {
    cpu_ms("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let before = process_cpu_ms().unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms().unwrap() >= before);
        assert!(thread_cpu_ms().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
