//! Stackful fibers: the execution contexts of thread actors.
//!
//! A [`Fiber`] runs a closure on a stack of its own. [`Fiber::resume`]
//! runs it until it calls [`Fiber::suspend`] or returns, and the
//! conductor's loop is the only resumer. A resume is a stack switch on
//! the calling OS thread, not a wake of another thread.
//!
//! The backend is fixed by the target:
//!
//! * **x86_64 Linux** (not under Miri): each fiber owns a 2 MiB
//!   `MAP_NORESERVE` stack whose lowest page is a `PROT_NONE` guard, so
//!   an overflow faults (SIGSEGV) instead of writing into another
//!   fiber's stack or the heap. A naked `switch` saves the callee-saved
//!   registers, MXCSR and the x87 control word, stores the stack
//!   pointer, and loads the other side's.
//! * **Every other target, and Miri:** each fiber is an OS thread, and
//!   `resume`/`suspend` pass one `Mutex` + `Condvar` baton back and
//!   forth. Exactly one side runs at a time, as with the stack switch.
//!
//! Lifetime rules, on both backends:
//!
//! * A fiber catches its own panic in its entry function and hands the
//!   payload to its resumer as [`Resumed::Finished`]`(Err(..))`.
//! * A fiber that never started is dropped together with its closure.
//! * A fiber that started but never finished is leaked: its stack (or
//!   thread) stays, because live frames on it may still be referenced.
//!
//! This module holds the only `unsafe` code outside the two test
//! binaries that count allocations (`GlobalAlloc` is an unsafe trait).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A fiber's body.
pub(crate) type Body = Box<dyn FnOnce() + Send>;

/// How one [`Fiber::resume`] ended.
pub(crate) enum Resumed {
    /// The fiber called [`Fiber::suspend`].
    Suspended,
    /// The body returned, or panicked with this payload.
    Finished(Result<(), Box<dyn Any + Send>>),
}

/// A closure on a stack of its own; see the module docs.
pub(crate) struct Fiber(Backend);

enum Backend {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    Stack(stack::StackFiber),
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
    Baton(baton::BatonFiber),
}

impl Fiber {
    /// A fiber that will run `body` on its first resume.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    pub(crate) fn new(body: Body) -> Fiber {
        Fiber(Backend::Stack(stack::StackFiber::new(body)))
    }

    /// A fiber that will run `body` on its first resume.
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
    pub(crate) fn new(body: Body) -> Fiber {
        Fiber::baton(body)
    }

    /// A fiber on the baton backend, whatever the target.
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
    pub(crate) fn baton(body: Body) -> Fiber {
        Fiber(Backend::Baton(baton::BatonFiber::new(body)))
    }

    /// Runs the fiber until it suspends or finishes.
    ///
    /// # Panics
    /// Panics if the fiber has finished, or if it started on another OS
    /// thread.
    pub(crate) fn resume(&mut self) -> Resumed {
        match &mut self.0 {
            #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
            Backend::Stack(f) => f.resume(),
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
            Backend::Baton(f) => f.resume(),
        }
    }

    /// Suspends the calling fiber and returns when its resumer next
    /// resumes it.
    ///
    /// # Panics
    /// Panics if the caller is not running on a fiber.
    pub(crate) fn suspend() {
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        if stack::suspend() {
            return;
        }
        #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
        if baton::suspend() {
            return;
        }
        panic!("Fiber::suspend called outside a fiber");
    }
}

/// Runs `body`, catching its panic.
fn run_body(body: Body) -> Result<(), Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(body))
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod stack {
    use std::arch::naked_asm;
    use std::cell::Cell;
    use std::ffi::c_void;
    use std::ptr::{self, NonNull};

    use super::{run_body, Body, Resumed};

    /// Usable stack per fiber, as for a default Rust thread.
    const STACK: usize = 2 << 20;
    /// The `PROT_NONE` page below the stack.
    const GUARD: usize = 4096;
    const LEN: usize = STACK + GUARD;

    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    thread_local! {
        /// The control block of the stack fiber running on this thread,
        /// or null. Set by `resume` for the length of one run.
        static CURRENT: Cell<*const Control> = const { Cell::new(ptr::null()) };
    }

    /// A fiber's state shared between its stack and its resumer. Lives
    /// at a fixed heap address from `new` until the fiber is dropped.
    struct Control {
        /// The fiber's stack pointer while it is not running: its
        /// initial frame, then the one `suspend` saved.
        fiber_sp: Cell<usize>,
        /// The resumer's stack pointer while the fiber runs.
        resumer_sp: Cell<usize>,
        /// The body, until the fiber starts.
        body: Cell<Option<Body>>,
        /// How the body ended, once it has.
        outcome: Cell<Option<Result<(), Box<dyn std::any::Any + Send>>>>,
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum State {
        Fresh,
        Started,
        Finished,
    }

    pub(super) struct StackFiber {
        /// From `Box::leak`; freed in `drop` unless leaked.
        ctl: NonNull<Control>,
        /// The mapping: guard page, then the stack.
        base: NonNull<c_void>,
        state: State,
        /// `thread_marker()` of the thread that started the fiber.
        home: usize,
    }

    // SAFETY: the body is `Send`, and nothing else in the control block
    // or on the stack is shared with another thread before the fiber
    // starts. Once started, `resume` runs it only on the thread that
    // started it (checked against `home`), so frames that cached that
    // thread's thread-local addresses never run elsewhere.
    unsafe impl Send for StackFiber {}

    /// Identifies the calling OS thread: the address of its `CURRENT`.
    fn thread_marker() -> usize {
        CURRENT.with(|c| ptr::from_ref(c) as usize)
    }

    impl StackFiber {
        pub(super) fn new(body: Body) -> StackFiber {
            // SAFETY: a fresh anonymous private mapping; it aliases
            // nothing, and the arguments are valid for `mmap`.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    LEN,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            assert!(
                base != MAP_FAILED,
                "fiber stack mmap failed: {}",
                std::io::Error::last_os_error()
            );
            // SAFETY: the first page lies inside the mapping just made,
            // and nothing lives on it.
            if unsafe { mprotect(base, GUARD, PROT_NONE) } != 0 {
                let err = std::io::Error::last_os_error();
                // SAFETY: the mapping made above; nothing refers to it.
                unsafe { munmap(base, LEN) };
                panic!("fiber guard page mprotect failed: {err}");
            }
            let base = NonNull::new(base).expect("mmap returned null");
            // The initial frame, popped by the first `switch` into the
            // fiber (see its layout there). Its return address is
            // `trampoline`, which calls `entry(ctl)` (passed in r12) on
            // a 16-byte-aligned stack. The zero word above it is the
            // trampoline's own return address, ending stack walks.
            let top = base.as_ptr() as usize + LEN;
            let sp = top - 16 - 64;
            let ctl = NonNull::from(Box::leak(Box::new(Control {
                fiber_sp: Cell::new(sp),
                resumer_sp: Cell::new(0),
                body: Cell::new(Some(body)),
                outcome: Cell::new(None),
            })));
            let frame: [usize; 10] = [
                0x1F80 | (0x037F << 32), // MXCSR and x87 control word defaults
                0,                       // r15
                0,                       // r14
                0,                       // r13
                ctl.as_ptr() as usize,   // r12
                0,                       // rbx
                0,                       // rbp
                trampoline as *const () as usize,
                0,
                0,
            ];
            // SAFETY: `sp..top` is the top 80 bytes of the writable part
            // of the fresh mapping, 16-byte aligned (mmap returns pages).
            unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
            StackFiber {
                ctl,
                base,
                state: State::Fresh,
                home: 0,
            }
        }

        fn ctl(&self) -> &Control {
            // SAFETY: freed only in `drop`; every access is shared and
            // goes through `Cell`s.
            unsafe { self.ctl.as_ref() }
        }

        pub(super) fn resume(&mut self) -> Resumed {
            match self.state {
                State::Fresh => {
                    self.home = thread_marker();
                    self.state = State::Started;
                }
                State::Started => assert_eq!(
                    self.home,
                    thread_marker(),
                    "a fiber resumes only on the OS thread that started it"
                ),
                State::Finished => panic!("resumed a finished fiber"),
            }
            let ctl = self.ctl();
            let prev = CURRENT.replace(ptr::from_ref(ctl));
            // SAFETY: `fiber_sp` holds the initial frame built in `new`
            // or the frame the fiber's last `suspend` saved, on a stack
            // that stays mapped while the fiber is unfinished. `&mut
            // self` keeps anyone else from resuming it meanwhile. The
            // fiber switches back to `resumer_sp`, restoring this
            // thread's callee-saved registers and stack.
            unsafe { switch(ctl.resumer_sp.as_ptr(), ctl.fiber_sp.get()) };
            CURRENT.set(prev);
            match ctl.outcome.take() {
                Some(outcome) => {
                    self.state = State::Finished;
                    Resumed::Finished(outcome)
                }
                None => Resumed::Suspended,
            }
        }
    }

    impl Drop for StackFiber {
        fn drop(&mut self) {
            if self.state == State::Started {
                // Leaked: live frames on the stack may refer to the
                // control block or to each other.
                return;
            }
            // SAFETY: from `Box::leak` in `new`; no fiber frame can
            // use it again (the fiber never ran, or it finished).
            drop(unsafe { Box::from_raw(self.ctl.as_ptr()) });
            // SAFETY: the mapping made in `new`; no frame on it is live.
            unsafe { munmap(self.base.as_ptr(), LEN) };
        }
    }

    /// Suspends the stack fiber running on this thread; false if none
    /// is.
    pub(super) fn suspend() -> bool {
        let ctl = CURRENT.get();
        if ctl.is_null() {
            return false;
        }
        // SAFETY: `CURRENT` points at the control block of the fiber
        // this code runs on, set by the `resume` that is waiting on this
        // thread's resumer stack; that `resume` holds `&mut` to the
        // fiber, so the block outlives this call.
        let ctl = unsafe { &*ctl };
        // SAFETY: `resumer_sp` is the frame that `resume` saved; it
        // resumes there and returns, and a later `resume` switches back
        // here.
        unsafe { switch(ctl.fiber_sp.as_ptr(), ctl.resumer_sp.get()) };
        true
    }

    /// The fiber's first frame: runs the body, then switches back to
    /// the resumer for good.
    ///
    /// # Safety
    /// Called only by `trampoline`, on the fiber's own stack, with the
    /// control block of that fiber.
    unsafe extern "C" fn entry(ctl: *const Control) -> ! {
        // SAFETY: the caller passes the fiber's control block, which
        // outlives every run of the fiber.
        let ctl = unsafe { &*ctl };
        let body = ctl.body.take().expect("fiber body taken twice");
        ctl.outcome.set(Some(run_body(body)));
        // SAFETY: as in `suspend`. No value with a destructor is live on
        // this stack any more, so it may be unmapped once this returns
        // to the resumer.
        unsafe { switch(ctl.fiber_sp.as_ptr(), ctl.resumer_sp.get()) };
        // A finished fiber is never resumed.
        std::process::abort()
    }

    /// Calls `entry` with the control block found in r12. Its CFI marks
    /// the return address undefined, so stack walks end here.
    ///
    /// # Safety
    /// Entered only by the first `switch` into a fiber: through `ret`,
    /// with the fiber's control block in r12 and the stack 16-byte
    /// aligned, as `StackFiber::new` lays out.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() -> ! {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            ".cfi_endproc",
            entry = sym entry,
        )
    }

    /// Saves the callee-saved registers, MXCSR and the x87 control word
    /// on the current stack, stores its stack pointer at `*save`, then
    /// loads `load` and restores the same from it. Frame layout, from
    /// the saved stack pointer up: MXCSR (4 bytes), x87 control word
    /// (2), padding (2), r15, r14, r13, r12, rbx, rbp, return address.
    ///
    /// # Safety
    /// `save` must be writable, and `load` must be a frame saved by
    /// `switch` (or built in that layout by `StackFiber::new`) on a
    /// mapped stack that nothing else is running on.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut usize, load: usize) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr dword ptr [rsp]",
            "fnstcw word ptr [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr dword ptr [rsp]",
            "fldcw word ptr [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
mod baton {
    use std::any::Any;
    use std::cell::OnceCell;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use parking_lot::{Condvar, Mutex};

    use super::{run_body, Body, Resumed};

    /// Whose turn it is to run.
    enum Turn {
        Resumer,
        Fiber,
        Finished(Option<Result<(), Box<dyn Any + Send>>>),
    }

    struct Baton {
        turn: Mutex<Turn>,
        cond: Condvar,
    }

    thread_local! {
        /// The baton of the fiber this OS thread runs, if it runs one.
        static CURRENT: OnceCell<Arc<Baton>> = const { OnceCell::new() };
    }

    pub(super) struct BatonFiber {
        baton: Arc<Baton>,
        /// The body, until the fiber starts.
        body: Option<Body>,
        /// The fiber's thread, until it finishes.
        thread: Option<JoinHandle<()>>,
    }

    impl BatonFiber {
        pub(super) fn new(body: Body) -> BatonFiber {
            BatonFiber {
                baton: Arc::new(Baton {
                    turn: Mutex::new(Turn::Fiber),
                    cond: Condvar::new(),
                }),
                body: Some(body),
                thread: None,
            }
        }

        pub(super) fn resume(&mut self) -> Resumed {
            if let Some(body) = self.body.take() {
                // The turn starts as the fiber's.
                let baton = Arc::clone(&self.baton);
                let thread = std::thread::Builder::new()
                    .name("sim-fiber".to_string())
                    .spawn(move || {
                        CURRENT.with(|c| {
                            c.get_or_init(|| Arc::clone(&baton));
                        });
                        let outcome = run_body(body);
                        *baton.turn.lock() = Turn::Finished(Some(outcome));
                        baton.cond.notify_one();
                    })
                    .expect("failed to spawn a fiber thread");
                self.thread = Some(thread);
            } else {
                let mut turn = self.baton.turn.lock();
                assert!(matches!(*turn, Turn::Resumer), "resumed a finished fiber");
                *turn = Turn::Fiber;
                self.baton.cond.notify_one();
            }
            let mut turn = self.baton.turn.lock();
            while matches!(*turn, Turn::Fiber) {
                self.baton.cond.wait(&mut turn);
            }
            match &mut *turn {
                Turn::Resumer => Resumed::Suspended,
                Turn::Finished(outcome) => {
                    let outcome = outcome.take().expect("fiber outcome taken twice");
                    drop(turn);
                    if let Some(t) = self.thread.take() {
                        t.join().expect("the body's panic is caught on the fiber");
                    }
                    Resumed::Finished(outcome)
                }
                Turn::Fiber => unreachable!("waited above"),
            }
        }
    }

    /// Suspends the baton fiber this OS thread runs; false if it runs
    /// none.
    pub(super) fn suspend() -> bool {
        let Some(baton) = CURRENT.with(|c| c.get().cloned()) else {
            return false;
        };
        let mut turn = baton.turn.lock();
        *turn = Turn::Resumer;
        baton.cond.notify_one();
        while !matches!(*turn, Turn::Fiber) {
            baton.cond.wait(&mut turn);
        }
        true
    }
}
