//! Open-loop load generation at a fixed offered rate, timed from each
//! request's *scheduled* send time.
//!
//! Request `i` is due at `start + i / rate`. A lane that is still busy
//! when a request falls due sends it late, and the wait counts: latency
//! is `done - due`, not `done - sent`, so a stall shows up on every
//! request scheduled during it instead of hiding behind the generator's
//! own back-pressure (coordinated omission). How late the generator
//! itself sent each request is reported separately as lateness.

use std::time::{Duration, Instant};

/// How long before a request's due time a lane stops sleeping and spins:
/// long enough that at the serving rates the lane's vCPU does not idle
/// (waking an idle vCPU adds host-dependent delay the program did not
/// cause). A lane blocks inside each request, so it never spins while
/// the program works.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(4);

/// One request's timing.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From the scheduled send time to completion.
    pub latency: Duration,
    /// From the scheduled send time to the actual send.
    pub late: Duration,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Drives `count` requests at `rate_per_s` over `lanes` threads
/// (request `i` runs on lane `i % lanes`) and returns the samples in
/// request order. `op(i)` performs request `i` and reports success.
///
/// Fails when `lanes` exceeds the host's available parallelism.
pub fn open_loop<F>(
    rate_per_s: f64,
    count: usize,
    lanes: usize,
    op: F,
) -> Result<Vec<Sample>, String>
where
    F: Fn(usize) -> bool + Sync,
{
    let lanes = crate::host::check_load_threads(lanes)?;
    if !(rate_per_s.is_finite() && rate_per_s > 0.0) {
        return Err(format!("offered rate must be positive, got {rate_per_s}"));
    }
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate_per_s);
    let mut by_lane: Vec<Vec<(usize, Sample)>> = Vec::with_capacity(lanes);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (op, due) = (&op, &due);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(count / lanes + 1);
                    for i in (lane..count).step_by(lanes) {
                        let due_at = due(i);
                        wait_until(due_at);
                        let sent = Instant::now();
                        let ok = op(i);
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                latency: done.saturating_duration_since(due_at),
                                late: sent.saturating_duration_since(due_at),
                                ok,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            by_lane.push(h.join().expect("a load lane panicked"));
        }
    });
    let mut all: Vec<(usize, Sample)> = by_lane.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    Ok(all.into_iter().map(|(_, s)| s).collect())
}

/// Sleeps until [`SPIN_BEFORE_DUE`] before `t`, then spins to it.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN_BEFORE_DUE {
        std::thread::sleep(t - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}
