//! A simulated thread runs on a stack of its own on its kernel's carrier:
//! overflowing it is a named failure rather than a bare SIGSEGV, a fault
//! anywhere else is still std's, and a backtrace taken on it ends at the
//! context's base. Each case re-executes this test binary as a child — an
//! ignored test of its own — since the process under test dies.

use simkernel::{spawn, Kernel};
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

const SIGABRT: i32 = 6;

/// Run the ignored test `name` in a child process; its stderr, and the
/// signal that killed it (if one did).
fn child(name: &str) -> (String, Option<i32>) {
    let exe = std::env::current_exe().expect("test binary");
    let out = Command::new(exe)
        .args([
            name,
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (stderr, out.status.signal())
}

/// Recursion the optimiser cannot flatten: a live array per frame.
fn deep(n: u64) -> u64 {
    let frame = std::hint::black_box([n; 64]);
    if frame[0] == u64::MAX {
        return 0;
    }
    deep(n + 1) + frame[63]
}

#[inline(never)]
fn panics_three_calls_deep(n: u32) -> u32 {
    if n == 0 {
        panic!("from a context")
    }
    std::hint::black_box(panics_three_calls_deep(n - 1)) + 1
}

#[test]
#[ignore = "run as a child by an_overflowing_simulated_thread_is_named"]
fn child_overflows_a_context() {
    Kernel::run_root(|| spawn("bottomless", || deep(0)).join());
}

#[test]
fn an_overflowing_simulated_thread_is_named() {
    let (stderr, signal) = child("child_overflows_a_context");
    let named = "simulated thread 'bottomless' overflowed its 2 MiB stack";
    assert!(stderr.contains(named), "{stderr}");
    assert_eq!(signal, Some(SIGABRT), "{stderr}");
}

#[test]
#[ignore = "run as a child by an_overflow_outside_a_context_is_std_s"]
fn child_overflows_a_plain_thread() {
    // A kernel has run, so the handler is installed; this thread is no
    // carrier, and its guard page is std's to report.
    assert_eq!(Kernel::run_root(|| 7), 7);
    let plain = std::thread::Builder::new().name("plain".into());
    plain.spawn(|| deep(0)).unwrap().join().unwrap();
}

#[test]
fn an_overflow_outside_a_context_is_std_s() {
    let (stderr, signal) = child("child_overflows_a_plain_thread");
    // std names the thread and its id: "thread 'plain' (<id>) has …".
    assert!(stderr.contains("thread 'plain' ("), "{stderr}");
    assert!(stderr.contains("has overflowed its stack"), "{stderr}");
    assert!(!stderr.contains("simulated thread"), "{stderr}");
    assert_eq!(signal, Some(SIGABRT), "{stderr}");
}

#[test]
#[ignore = "run as a child by a_backtrace_ends_at_the_context_base"]
fn child_panics_in_a_context() {
    Kernel::run_root(|| spawn("thrower", || panics_three_calls_deep(3)).join());
}

#[test]
fn a_backtrace_ends_at_the_context_base() {
    let (stderr, _) = child("child_panics_in_a_context");
    // The first backtrace is the simulated thread's, printed on the carrier.
    let start = stderr.find("panicked at").expect("a panic") + 1;
    let first = &stderr[start..stderr[start..].find("note:").expect("one backtrace") + start];
    let frames: Vec<&str> = (first.lines())
        .filter(|l| {
            l.trim_start()
                .split(':')
                .next()
                .is_some_and(|n| n.parse::<u32>().is_ok())
        })
        .collect();
    assert!(
        frames.iter().any(|f| f.contains("panics_three_calls_deep")),
        "{first}"
    );
    let tail: Vec<_> = frames.iter().rev().take(2).rev().collect();
    // An optimised build names inlined frames without their path.
    assert!(tail[0].ends_with("base"), "{first}");
    assert!(tail[1].ends_with("context::trampoline"), "{first}");
}
