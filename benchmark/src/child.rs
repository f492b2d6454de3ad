//! One child process per (workload, mode): `VmHWM`, `getrusage` and the
//! process-global obs recorder are per run. The child pins itself
//! before doing anything, runs the workload, and prints its record.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::layers;
use crate::probe::{Probe, REFERENCE_NS};
use crate::record::{Mode, Record};
use crate::spans;
use crate::stats::median;
use crate::sys;
use crate::workloads::{ms, Ctx, Timed, Workload};

/// Where the traced run writes its Chrome trace and `all`/`trace`
/// their result files: `out/` inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `text` to `name` under [`out_dir`]; returns the path.
pub fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Samples the process's live OS threads every 5 ms and keeps the peak.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut peak = 0;
                // Relaxed: the flag publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    peak = peak.max(sys::os_threads());
                    std::thread::sleep(Duration::from_millis(5));
                }
                peak
            })
        };
        ThreadSampler { stop, thread }
    }

    /// Stop sampling; the peak excludes the sampler's own thread and
    /// the probe's partner.
    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().map_or(0, |peak| peak.saturating_sub(2))
    }
}

/// Median over the repetitions of one host quantity.
fn median_of(reps: &[Timed], pick: impl Fn(&Timed) -> f64) -> f64 {
    if reps.is_empty() {
        0.0
    } else {
        median(&reps.iter().map(pick).collect::<Vec<_>>())
    }
}

/// Run `workload` in this process and build its record.
pub fn run(workload: &Workload, mode: Mode, seed: u64, seconds: u64) -> Result<Record, String> {
    let (host_cores, cpu_model) = sys::host_cpus();
    // A run that could not pin is invalid, not reported.
    let pinned_cpu = sys::pin_to_first_cpu()? as u64;
    let traced = mode == Mode::Traced;
    let probe = RefCell::new(Probe::start());
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        domains: if mode == Mode::D2 { 2 } else { 1 },
        probe: &probe,
    };

    let sampler = traced.then(ThreadSampler::start);
    let out = (workload.run)(&ctx);
    let peak_os_threads = sampler.map_or(0, ThreadSampler::stop);

    // Host times are reported in reference seconds: scaled by what a
    // thread hand-off cost on this host during this run. Only `setup_s`
    // is an end-to-end metric; the timed region's wall clock swings too
    // far on a shared host to carry a bound and is reported beside them.
    let handoff_ns = median(probe.borrow().points_ns());
    let scale = REFERENCE_NS / handoff_ns;
    let wall_raw_s = median_of(&out.reps, |t| t.wall_s);
    let setup_raw_s = if out.setup_s.is_empty() {
        0.0
    } else {
        median(&out.setup_s)
    };
    let cpu_s = median_of(&out.reps, |t| t.rusage.cpu_s());
    let virt = out.virt.clone().unwrap_or_default();
    let e2e = vec![
        ("setup_s", setup_raw_s * scale),
        (
            "host_ctx_switches",
            median_of(&out.reps, |t| t.rusage.ctx_switches as f64),
        ),
        ("peak_rss_mb", sys::peak_rss_mib()),
        ("v_makespan_s", virt.makespan_ns as f64 / 1e9),
        ("shipped_gb", virt.shipped_bytes as f64 / 1e9),
        ("op_v_mean_ms", ms(virt.op_mean_ns)),
    ];
    let host = vec![
        ("wall_ref_s", wall_raw_s * scale),
        ("handoff_probe_ns", handoff_ns),
        ("repetitions", out.reps.len() as f64),
        ("wall_raw_s", wall_raw_s),
        ("setup_raw_s", setup_raw_s),
        ("cpu_s", cpu_s),
        ("cpu_user_s", median_of(&out.reps, |t| t.rusage.user_s)),
        ("cpu_sys_s", median_of(&out.reps, |t| t.rusage.sys_s)),
    ];
    let mut exact = vec![
        ("v_makespan_ns", virt.makespan_ns),
        ("shipped_bytes", virt.shipped_bytes),
        ("op_v_mean_ns", virt.op_mean_ns),
    ];
    exact.extend(virt.exact.iter().copied());
    if let Some(digest) = out.digest {
        exact.push(("digest", digest));
    }
    let layer = if traced {
        layers::collect(&out, peak_os_threads, cpu_s, scale)
    } else {
        out.layer.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    };

    if traced {
        let meta = vec![
            ("workload".to_string(), Json::Str(workload.name.into())),
            ("seed".to_string(), Json::Str(seed.to_string())),
            (
                "clock".to_string(),
                Json::Str("ts/dur: host us; args.v_*: virtual ms".into()),
            ),
        ];
        write_out(
            &format!("trace-{}-seed{seed}.json", workload.name),
            &spans::chrome_trace(meta).render(),
        )?;
    }

    let owned =
        |pairs: Vec<(&str, f64)>| pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    Ok(Record {
        workload: workload.name.to_string(),
        mode: mode.as_str().to_string(),
        seed,
        seconds,
        host_cores,
        cpu_model,
        pinned_cpu,
        attempted: out.attempted,
        failed: out.failed,
        n: virt.n,
        e2e: owned(e2e),
        host: owned(host),
        exact: exact.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        layer,
    })
}
