//! The open loop must charge a stall to every request scheduled during
//! it, and must refuse more load threads than the host has.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sarn_perfbench::loadgen::open_loop;

#[test]
fn a_single_stall_delays_every_request_scheduled_during_it() {
    // 1 request per ms on one lane; request 0 stalls for 60 ms. Request
    // `j` falls due at `j` ms but cannot start before the stall ends, so
    // its latency from the scheduled send time is at least `60 - j` ms —
    // a bound that holds however the threads are scheduled.
    let stall = Duration::from_millis(60);
    let stalled = AtomicBool::new(false);
    let samples = open_loop(1000.0, 100, 1, |i| {
        if i == 0 && !stalled.swap(true, Ordering::SeqCst) {
            let until = Instant::now() + stall;
            while Instant::now() < until {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        true
    })
    .expect("one lane fits on any host");
    assert_eq!(samples.len(), 100);
    assert!(samples.iter().all(|s| s.ok));
    assert!(samples[0].latency >= stall);
    for (j, s) in samples.iter().enumerate().take(50).skip(1) {
        let owed = stall - Duration::from_millis(j as u64);
        assert!(
            s.latency >= owed,
            "request {j} scheduled during the stall reports {:?} < {owed:?}",
            s.latency
        );
        assert!(
            s.late >= owed,
            "request {j} lateness {:?} < {owed:?}",
            s.late
        );
    }
}

#[test]
fn more_lanes_than_cores_are_refused() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let err = open_loop(100.0, 1, nproc + 1, |_| true).unwrap_err();
    assert!(err.contains("refusing"), "{err}");
    assert!(open_loop(100.0, 1, 0, |_| true).is_err());
}
