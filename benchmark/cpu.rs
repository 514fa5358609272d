//! Process CPU time from `/proc/self/stat` (Linux). Resolution is one
//! clock tick (`USER_HZ`, 100 on every mainstream Linux build), so a
//! CPU figure is only meaningful summed over runs of ~1 s or more.

const USER_HZ: f64 = 100.0;

/// CPU seconds `(self, waited-for children)`, user plus system, or
/// `None` where `/proc/self/stat` is unavailable.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat(&stat)
}

/// Fields 14–17 of `/proc/<pid>/stat`: utime, stime, cutime, cstime.
/// The command name (field 2) may contain spaces, so fields are counted
/// from its closing parenthesis.
fn parse_stat(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    if f.len() < 4 {
        return None;
    }
    Some((
        (f[0] + f[1]) as f64 / USER_HZ,
        (f[2] + f[3]) as f64 / USER_HZ,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_command_name_with_spaces() {
        let stat = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 150 50 7 3 20 0 1 0";
        assert_eq!(parse_stat(stat), Some((2.0, 0.1)));
        assert_eq!(parse_stat("42 (x) R 1 2"), None);
    }
}
