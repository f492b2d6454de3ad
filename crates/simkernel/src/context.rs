//! The carrier half of the kernel: the stacks simulated threads run on,
//! the switch between them, and the teardown that frees them.
//! [`crate::kernel`], its parent, decides *who* runs. DESIGN.md §2.1 has
//! the long form.
//!
//! Every simulated thread that is not a step is a [`Context`]: an `mmap`ed
//! 2 MiB stack (std's default thread stack) above a `PROT_NONE` guard
//! page, from a process-wide free list capped like glibc's thread-stack
//! cache. One OS thread per kernel, its *carrier*, runs them all: a thread
//! that blocks [`switch`]es straight to the next one, and the carrier's
//! own loop gets control back only when the run is over or paused. A
//! context never leaves its carrier (LLVM may keep a thread-local's address
//! across the switch). It starts in [`base`], under a trampoline that ends
//! every backtrace, and hands its [`Context`] to whoever runs after its
//! last switch, to be freed there.
//!
//! **Teardown.** After a clean run, [`Kernel::finish`] frees what the
//! unfinished threads hold, on the carrier, in tid order, recording
//! nothing: a step is dropped, a parked context unwinds its own stack with
//! the [`Teardown`] payload, a context never started drops its body. A
//! destructor that blocks mid-unwind cannot be woken, and std's panic count
//! is per OS thread, so no other unwind may start there: the context, the
//! carrier and the rest of the teardown are abandoned
//! ([`Kernel::blocked_in_teardown`]). A *failed* run resumes no context:
//! its stacks are leaked, not unwound.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("simkernel has a context `switch` for x86_64 Linux only; this target has none");

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Duration;
use std::{ptr, thread};

use super::{current, payload_to_string, Kernel, Sched, Tid, CTX};
use crate::wait::Wait;

/// Usable bytes of a context stack: std's default thread stack.
const STACK: usize = 2 << 20;
/// The `PROT_NONE` page below it.
const GUARD: usize = 4096;
/// Free stacks kept for reuse: glibc caps its thread-stack cache at 40 MiB.
const CACHED: usize = (40 << 20) / STACK;

/// Payload of the unwind that frees a parked context's stack; the one
/// payload [`base`] does not report as a panic.
struct Teardown;

/// A simulated thread's stack, and where it stopped.
pub(super) struct Context {
    /// The stack pointer [`switch`] saved when the context last left.
    sp: Cell<usize>,
    /// Start of the mapping: the guard page, then the stack.
    map: usize,
    /// The simulated thread's name, for the overflow message.
    name: Arc<str>,
}

/// The free stacks, as mapping addresses.
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

impl Context {
    /// A context that will start in [`base`] with `job` (a leaked
    /// `Box<super::Job>`) at its first switch.
    pub(super) fn new(name: Arc<str>, job: usize) -> Box<Context> {
        let free = FREE.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let map = free.unwrap_or_else(map_stack);
        // What `switch` pops, lowest first: the control words (MXCSR and
        // x87 at their reset values), r15, r14, r13 = job, r12, rbx, rbp,
        // and the return into `trampoline`, which then finds `rsp` 16-aligned.
        let sp = map + GUARD + STACK - 16 - 8 * 8;
        let frame = [0x037f << 32 | 0x1f80, 0, 0, job, 0, 0, 0];
        let words = frame.into_iter().chain([trampoline as *const () as usize]);
        for (i, word) in words.enumerate() {
            // SAFETY: the eight words lie inside the stack just mapped or
            // taken from the free list, which nothing else uses.
            unsafe { (sp as *mut usize).add(i).write(word) };
        }
        Box::new(Context {
            sp: Cell::new(sp),
            map,
            name,
        })
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < CACHED {
            return free.push(self.map);
        }
        drop(free);
        // SAFETY: the mapping is this context's alone and nothing runs on it.
        unsafe { munmap(self.map as *mut u8, GUARD + STACK) };
    }
}

fn map_stack() -> usize {
    const PROT_RW: i32 = 0x1 | 0x2;
    // MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK
    const FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x20000;
    // SAFETY: a fresh anonymous mapping aliases nothing; the guard page
    // is its own first page.
    unsafe {
        let map = mmap(ptr::null_mut(), GUARD + STACK, PROT_RW, FLAGS, -1, 0);
        let guarded = map as isize != -1 && mprotect(map, GUARD, 0) == 0;
        assert!(guarded, "mapping a guarded context stack failed");
        map as usize
    }
}

/// Save the callee-saved registers and control words on this stack, its
/// `rsp` in `*save`, then resume the stack `to` was saved from, handing it
/// `msg` as the return value of its own `switch` (or, for a fresh context,
/// [`base`]'s second argument).
///
/// # Safety
/// `to` was saved by `switch` or built by [`Context::new`] on this OS
/// thread, and is resumed once; `save` stays valid until it is resumed.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, to: usize, msg: usize) -> usize {
    core::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "sub rsp, 8; stmxcsr [rsp]; fnstcw [rsp + 4]",
        "mov [rdi], rsp; mov rsp, rsi",
        "ldmxcsr [rsp]; fldcw [rsp + 4]; add rsp, 8",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "mov rax, rdx; ret",
    )
}

/// Where a fresh context's first `switch` returns to: calls [`base`] with
/// the job and the message. The undefined return address ends every
/// unwind and backtrace here.
///
/// # Safety
/// Never called: only returned into, on a stack built by [`Context::new`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r13",
        "mov rsi, rax",
        "call {base}",
        "ud2",
        ".cfi_endproc",
        base = sym base,
    )
}

/// The base frame of every context: free what the previous context left,
/// run the body — or, in teardown, drop it — under `catch_unwind`, then
/// leave for good.
extern "C" fn base(job: usize, msg: usize) -> ! {
    free_exited(msg);
    // SAFETY: `Context::new` was handed a leaked `Box<Job>` and this is
    // the one place that takes it back.
    let job = unsafe { Box::from_raw(job as *mut super::Job) };
    let (kernel, me) = current();
    let torn_down = kernel.inner.torn_down.load(Ordering::Relaxed);
    let out = panic::catch_unwind(AssertUnwindSafe(move || match torn_down {
        false => job(),
        true => drop(job),
    }));
    kernel.exit(me, out)
}

/// Free the context a finished one handed over with its last `switch`.
fn free_exited(msg: usize) {
    if msg != 0 {
        // SAFETY: a non-zero message is always a `Box<Context>` leaked by
        // `Kernel::exit` on this carrier, whose stack is no longer in use.
        drop(unsafe { Box::from_raw(msg as *mut Context) });
    }
}

/// Where a switch goes: a saved stack pointer and, for the overflow
/// handler, its context (null for the carrier's loop).
pub(super) struct Target(usize, *const Context);

thread_local! {
    /// The context running on this carrier (null: the carrier's loop).
    static RUNNING: Cell<*const Context> = const { Cell::new(ptr::null()) };
}

/// Switch to `target`, saving this stack in `save`; returns the message
/// this stack is eventually resumed with.
fn jump(save: *mut usize, target: Target, msg: usize) -> usize {
    RUNNING.with(|r| r.set(target.1));
    // SAFETY: `target.0` was saved by `switch` (or built by
    // `Context::new`) on this carrier and is resumed exactly once.
    unsafe { switch(save, target.0, msg) }
}

impl Kernel {
    /// Where a switch to `next` — `None`: the carrier's loop — goes; drops
    /// the scheduler lock and makes `next` this OS thread's current thread.
    pub(super) fn leave(&self, s: MutexGuard<'_, Sched>, next: Option<Tid>) -> Target {
        let target = match next {
            Some(tid) => Target(s.context(tid).sp.get(), s.context(tid)),
            None => Target(self.inner.carrier.load(Ordering::Relaxed), ptr::null()),
        };
        drop(s);
        if let Some(tid) = next {
            let _ = self.enter(tid);
        }
        target
    }

    /// The second half of [`Kernel::wait`]: leave `me`'s stack for `next`
    /// (or the carrier's loop) and return when `me` is switched back to.
    pub(super) fn switch_from(&self, s: MutexGuard<'_, Sched>, me: Tid, next: Option<Tid>) {
        if next == Some(me) {
            return; // our own turn came up again: nothing to switch
        }
        let save = s.context(me).sp.as_ptr();
        let msg = jump(save, self.leave(s, next), 0);
        free_exited(msg);
        if self.inner.torn_down.load(Ordering::Relaxed) {
            panic::resume_unwind(Box::new(Teardown));
        }
    }

    /// The end of a context: its body returned or panicked, or teardown
    /// unwound or dropped it. Retires the thread and switches to the next
    /// one — or back to the carrier's loop — handing over its own context.
    fn exit(self, me: Tid, out: thread::Result<()>) -> ! {
        let panic_msg = match out {
            Err(p) if !p.is::<Teardown>() => Some(payload_to_string(p.as_ref())),
            _ => None,
        };
        let mut s = self.inner.sched.lock().unwrap();
        let mine = s.info_mut(me).ctx.take().expect("a thread with a stack");
        let mut next = None;
        if self.inner.torn_down.load(Ordering::Relaxed) {
            if let Some(msg) = panic_msg {
                let name = &s.info(me).name;
                let failure = format!("teardown of '{name}' panicked: {msg}");
                s.failure.get_or_insert(failure);
            }
        } else if self.retire(&mut s, me, panic_msg) {
            (s, next) = self.dispatch(s);
        }
        let target = self.leave(s, next);
        let save = mine.sp.as_ptr();
        // The carrier holds the kernel for as long as any context runs.
        drop(self);
        jump(save, target, Box::into_raw(mine) as usize);
        unreachable!("a finished context is never resumed")
    }

    /// From the carrier's loop, run `tid` until a context switches back
    /// here: the run is over or paused, or `tid` was torn down.
    pub(super) fn run_context<'a>(
        &'a self,
        s: MutexGuard<'a, Sched>,
        tid: Tid,
    ) -> MutexGuard<'a, Sched> {
        arm();
        let target = self.leave(s, Some(tid));
        let msg = jump(self.inner.carrier.as_ptr(), target, 0);
        CTX.with(|c| c.borrow_mut().take());
        free_exited(msg);
        self.inner.sched.lock().unwrap()
    }

    /// A destructor run by teardown reached a blocking primitive. On the
    /// carrier's loop (a step being dropped) that is a panic, which teardown
    /// catches and reports. In a context mid-unwind, a second unwind on
    /// this OS thread is not possible: the context and its carrier are
    /// abandoned, and the caller of `run` told that the kernel is finished.
    pub(super) fn blocked_in_teardown(&self, mut s: MutexGuard<'_, Sched>, w: &Wait) -> ! {
        if !thread::panicking() {
            drop(s);
            panic!("blocked on {w} during teardown")
        }
        s.abandoned = true;
        s.finished = true;
        self.inner.driver_cv.notify_all();
        drop(s);
        loop {
            thread::sleep(Duration::MAX);
        }
    }

    /// End a carrier's run: free what a cleanly finished run still holds
    /// (module docs) or leak what a failed or unfinished one does, then tell
    /// the caller of `run` ([`Kernel::wait_finished`]). Called on the carrier.
    pub(crate) fn finish(&self) {
        let mut s = self.inner.sched.lock().unwrap();
        if s.failure.is_some() || !s.done {
            for t in s.threads.values_mut() {
                std::mem::forget(t.ctx.take());
            }
        } else {
            self.inner.torn_down.store(true, Ordering::Relaxed);
            for tid in 1..=s.threads.last_tid() {
                let Some(info) = s.threads.get_mut(tid) else {
                    continue;
                };
                if let Some(step) = info.step.take() {
                    drop(s);
                    let out = self.within(tid, move || drop(step));
                    s = self.inner.sched.lock().unwrap();
                    if let Err(payload) = out {
                        let msg = payload_to_string(payload.as_ref());
                        let name = &s.info(tid).name;
                        let failure = format!("teardown of '{name}' panicked: {msg}");
                        s.failure.get_or_insert(failure);
                    }
                }
                if s.threads.get(tid).is_some_and(|t| t.ctx.is_some()) {
                    s = self.run_context(s, tid);
                }
            }
            #[cfg(target_env = "gnu")]
            {
                extern "C" {
                    fn malloc_trim(pad: usize) -> i32;
                }
                // SAFETY: `malloc_trim` takes no pointer and is thread-safe;
                // it only releases memory malloc holds free.
                unsafe { malloc_trim(0) };
            }
        }
        s.finished = true;
        self.inner.driver_cv.notify_all();
    }

    /// Wait for [`Kernel::finish`]: the run's failure, if any, and whether
    /// its carrier was abandoned (and cannot be joined).
    pub(crate) fn wait_finished(&self) -> (Option<String>, bool) {
        let mut s = self.inner.sched.lock().unwrap();
        while !s.finished {
            s = self.inner.driver_cv.wait(s).unwrap();
        }
        (s.failure.clone(), s.abandoned)
    }
}

// ---------------------------------------------------------------------
// Stack overflow: a named failure, not a bare SIGSEGV.
// ---------------------------------------------------------------------

/// `struct sigaction` (glibc, x86_64).
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

/// The head of `siginfo_t` up to `si_addr`.
#[repr(C)]
struct SigInfo {
    signo: i32,
    errno: i32,
    code: i32,
    pad: i32,
    addr: usize,
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn write(fd: i32, buf: *const u8, len: usize) -> isize;
}

const SIGSEGV: i32 = 11;
const SA_SIGINFO: i32 = 4;
const SA_ONSTACK: i32 = 0x0800_0000;

/// The SIGSEGV disposition installed before ours (std's).
static PREVIOUS: OnceLock<SigAction> = OnceLock::new();

/// Have a context's overflow reported by name: install the SIGSEGV handler,
/// once per process. It runs on the `sigaltstack` std gives every thread it
/// spawns, carriers included.
fn arm() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        // SAFETY: plain `sigaction` calls with valid, fully initialised
        // structs; the old disposition is saved before ours replaces it.
        unsafe {
            let mut old: SigAction = std::mem::zeroed();
            sigaction(SIGSEGV, ptr::null(), &mut old);
            let _ = PREVIOUS.set(old);
            let ours = SigAction {
                handler: on_segv as *const () as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_ONSTACK,
                restorer: 0,
            };
            sigaction(SIGSEGV, &ours, ptr::null_mut());
        }
    });
}

/// A fault in the running context's guard page is its overflow: say
/// whose and abort. Anything else is the previous handler's.
extern "C" fn on_segv(sig: i32, info: *mut SigInfo, uctx: *mut u8) {
    // SAFETY: the kernel passes a valid `siginfo_t`; `RUNNING` points at
    // the context this carrier runs, alive while it runs.
    unsafe {
        let ctx = RUNNING.with(Cell::get);
        if let Some(ctx) = ctx
            .as_ref()
            .filter(|c| (c.map..c.map + GUARD).contains(&(*info).addr))
        {
            for part in [
                "simulated thread '".as_bytes(),
                ctx.name.as_bytes(),
                b"' overflowed its 2 MiB stack\n",
            ] {
                write(2, part.as_ptr(), part.len());
            }
            std::process::abort();
        }
        let Some(previous) = PREVIOUS.get() else {
            return;
        };
        if previous.flags & SA_SIGINFO != 0 && previous.handler > 1 {
            let handler: extern "C" fn(i32, *mut SigInfo, *mut u8) =
                std::mem::transmute(previous.handler);
            handler(sig, info, uctx);
        } else {
            // Reinstate it and return: the fault repeats under it.
            sigaction(sig, previous, ptr::null_mut());
        }
    }
}
