//! The `paper_figures` workload: every binary that owns a
//! `results/*.txt`, run once per pass as a child process, in order —
//! the user's task of regenerating the paper's evaluation. It covers all
//! five CCs and the `mlcc_bench` scenario layer the in-process workloads
//! bypass. The figure configurations are fixed, so it ignores `--seed`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::digest::bytes_digest;

/// The binaries behind `results/*.txt`.
pub const FIGURES: [&str; 18] = [
    "fig02",
    "fig03",
    "fig04",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "ablation",
    "hybrid",
    "incast",
    "robustness",
    "collective_bench",
];

/// Build the figure binaries (a no-op when they are up to date) with
/// the workspace manifest in the current directory, into the target
/// directory this benchmark was built in. Returns where they are.
pub fn build() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args([
        "build",
        "--release",
        "--offline",
        "--quiet",
        "-p",
        "mlcc-bench",
    ]);
    for f in FIGURES {
        cmd.args(["--bin", f]);
    }
    let status = cmd
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the figure binaries failed ({status})"));
    }
    Ok(target.join("release"))
}

/// One figure child: wall time, stdout digest, and whether it exited 0.
pub struct FigureRun {
    pub secs: f64,
    pub digest: u64,
    pub ok: bool,
}

pub fn run(dir: &Path, name: &str) -> Result<FigureRun, String> {
    let t0 = Instant::now();
    let out = Command::new(dir.join(name))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {name}: {e}"))?;
    Ok(FigureRun {
        secs: t0.elapsed().as_secs_f64(),
        digest: bytes_digest(&out.stdout),
        ok: out.status.success(),
    })
}
