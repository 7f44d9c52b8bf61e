//! Benchmark entry point.
//!
//! ```text
//! sarn-perfbench --workload <train|serve_scan|serve_ann|serve_churn>
//!                --seed <n> --seconds <s> --trace <0|1>
//! sarn-perfbench --calibrate --seed <n> --seconds <s>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`).
//! The last stdout line is the JSON result; the exit code is non-zero
//! when any output check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use sarn_perfbench::{data, host, report::Outcome, serve, train};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.calibrate {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Scratch space inside the checkout, removed when the run ends.
fn scratch(root: &std::path::Path, tag: &str) -> Result<PathBuf, String> {
    let dir = root
        .join(".perfbench_tmp")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args, root: &std::path::Path, tmp: &std::path::Path) -> Result<Outcome, String> {
    let threads = host::available_parallelism();
    let workload = args.workload.as_deref().unwrap_or("");
    println!(
        "{}",
        host::Host::probe(root).line(match workload {
            "train" => threads,
            "serve_churn" => serve::LANES + 1,
            _ => serve::LANES,
        })
    );
    let ticks_before = host::cpu_ticks();
    let mut out = match workload {
        "train" => train::run(args.seed, args.seconds, args.trace, threads, tmp),
        "serve_scan" => serve::run(serve::Kind::Scan, args.seed, args.seconds, args.trace, tmp),
        "serve_ann" => serve::run(serve::Kind::Ann, args.seed, args.seconds, args.trace, tmp),
        "serve_churn" => serve::run(serve::Kind::Churn, args.seed, args.seconds, args.trace, tmp),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let rss = sarn_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
    out.e2e("peak_rss_mb", rss, 1);
    if let (Some(a), Some(b)) = (ticks_before, host::cpu_ticks()) {
        out.figure("host_steal_share", b.steal_share_since(&a), "share", 1);
    }
    Ok(out)
}

/// Trains the `train` workload's model and compares HNSW recall@10 and
/// top-10 similarity of its artifact against generated and uniform rows
/// over the same segments.
fn calibrate(args: &Args, tmp: &std::path::Path) -> Result<(), String> {
    let threads = host::available_parallelism();
    let net = data::network(train::SCALE, args.seed);
    let cfg = train::config(
        &net,
        args.seed,
        train::epochs_for(args.seconds),
        threads,
        &tmp.join("ckpt"),
    );
    let trained = sarn_core::try_train(&net, &cfg).map_err(|e| e.to_string())?;
    let mids = data::midpoints(&net);
    let n = mids.len();
    let big = data::midpoints(&data::network(
        serve::Spec::of(serve::Kind::Ann).scale,
        args.seed,
    ));
    let sets = [
        ("trained", trained.embeddings.clone()),
        (
            "generated",
            data::serving_rows(&mids, serve::DIM, args.seed),
        ),
        ("uniform", data::uniform_rows(n, serve::DIM, args.seed)),
        ("generated", data::serving_rows(&big, serve::DIM, args.seed)),
        (
            "uniform",
            data::uniform_rows(big.len(), serve::DIM, args.seed),
        ),
    ];
    for (name, rows) in sets {
        let (recall, top10) = data::hnsw_recall_and_top10(&rows, 200);
        println!(
            "calibration rows={name} n={} dim={} recall_at_10={recall:.4} top10_cosine={top10:.4}",
            rows.rows(),
            rows.cols()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let tag = args.workload.clone().unwrap_or_else(|| "calibrate".into());
    let tmp = match scratch(&root, &tag) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let code = if args.calibrate {
        match calibrate(&args, &tmp) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench] calibration failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match run(&args, &root, &tmp) {
            Ok(out) => {
                for line in out.lines(args.trace) {
                    println!("{line}");
                }
                let (line, correct) = out.json(args.trace);
                println!("{line}");
                if correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("[perfbench] {e}");
                ExitCode::from(2)
            }
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    code
}
