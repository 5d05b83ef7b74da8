//! Inline-storage event payload cell.
//!
//! The seed engine boxed every event closure (`Box<dyn FnOnce(&mut
//! Simulation) + Send>`), paying a heap allocation per scheduled event and a
//! pointer chase per fired one. [`EventCell`] removes both for the common
//! case: closures whose captures fit [`INLINE_WORDS`] machine words (an
//! `Arc` handle plus a couple of ids — the overwhelming majority of
//! `cluster`/`scenarios` call sites) are stored *directly in the event
//! queue's arena slot*, behind a hand-rolled two-entry vtable (call-once +
//! drop). Oversized captures fall back to a single box whose raw pointer
//! occupies the first inline word.
//!
//! # Safety invariants
//!
//! The whole `unsafe` surface of the event hot path lives in this module and
//! rests on four invariants:
//!
//! 1. **Call-once.** [`EventCell::call`] consumes the cell by value and
//!    wraps it in `ManuallyDrop`, so the payload is moved out (`read`) exactly
//!    once and the cell's destructor can never observe a consumed payload —
//!    even if the closure panics mid-call.
//! 2. **Drop-on-cancel.** A cell that is never called (cancelled event,
//!    queue dropped mid-simulation) drops its payload in place via the
//!    vtable's `drop_fn` — exactly once, from `EventCell::drop`. The event
//!    queue stores cells as `Option<EventCell>` and `Option::take`s them on
//!    fire, so the two paths are mutually exclusive by construction.
//! 3. **Layout.** A closure is stored inline only when
//!    [`EventCell::fits_inline`] holds: its size fits the buffer *and* its
//!    alignment does not exceed word alignment. Otherwise the buffer holds a
//!    `Box::into_raw` pointer (word-aligned by definition) and the boxed
//!    vtable entries reconstruct the box.
//! 4. **`Send`, no `Sync`.** [`EventCell::new`] requires `F: Send`, so the
//!    cell is `Send` (asserted below) and a `Simulation` can move across
//!    sweep-runner threads. Nothing hands out `&EventCell` across threads,
//!    so `Sync` is neither claimed nor required.
//!
//! `cargo +nightly miri test -p des` runs the unit tests below (and the
//! queue/engine suites built on them) under Miri in CI to check these
//! invariants against the aliasing model.

use crate::event::Simulation;
use std::mem::{ManuallyDrop, MaybeUninit};

/// Number of machine words of inline closure storage. Three words cover an
/// `Arc<State>` plus two `u64` ids — every hot call site in the workspace —
/// while keeping the cell (3 words payload + 1 vtable pointer) at 32 bytes.
pub const INLINE_WORDS: usize = 3;

/// The inline payload buffer. `usize`-aligned; closures with stricter
/// alignment take the boxed path.
type Buf = MaybeUninit<[usize; INLINE_WORDS]>;

/// The cell's two-entry vtable. One `&'static` pointer in the cell instead
/// of two inline fn pointers keeps the cell — and therefore every arena
/// slot — a word smaller; the table itself is a promoted constant, hot in
/// cache for the one or two closure types a scenario schedules.
struct VTable {
    /// Moves the payload out of the buffer and invokes it. After this runs
    /// the buffer is logically uninitialized: `drop_fn` must not run anymore.
    call: unsafe fn(*mut Buf, &mut Simulation),
    /// Drops the payload in place without invoking it.
    drop_fn: unsafe fn(*mut Buf),
}

/// A type-erased `FnOnce(&mut Simulation)` with inline storage for small
/// captures and a boxed fallback for large ones. See the module docs for the
/// safety invariants.
pub struct EventCell {
    buf: Buf,
    vtable: &'static VTable,
}

// SAFETY: `EventCell::new` requires `F: Send`, and the cell owns its payload
// exclusively (inline bytes or the sole `Box` pointer), so moving the cell to
// another thread moves the closure — exactly what `F: Send` licenses. No
// shared access is ever handed out, so `Sync` is not implemented.
unsafe impl Send for EventCell {}

impl EventCell {
    /// Whether `F` takes the inline path: its bytes fit the buffer and its
    /// alignment is at most word alignment. `const`, so call sites can
    /// assert capture-size expectations at compile time.
    #[must_use]
    pub const fn fits_inline<F>() -> bool {
        size_of::<F>() <= size_of::<[usize; INLINE_WORDS]>()
            && align_of::<F>() <= align_of::<usize>()
    }

    /// Wrap `f`, storing it inline when [`EventCell::fits_inline`] holds and
    /// boxing it otherwise.
    pub fn new<F>(f: F) -> Self
    where
        F: FnOnce(&mut Simulation) + Send + 'static,
    {
        // SAFETY (all four fns): only ever invoked through the vtable of a
        // cell constructed by this function with the same `F`, so the buffer
        // holds a valid `F` (inline) or `*mut F` from `Box::into_raw`
        // (boxed). `call_*` is reached only via `EventCell::call`, which
        // forgets the cell, and `drop_*` only via `EventCell::drop` — each
        // at most once, never both.
        unsafe fn call_inline<F: FnOnce(&mut Simulation)>(buf: *mut Buf, sim: &mut Simulation) {
            let f = unsafe { buf.cast::<F>().read() };
            f(sim);
        }
        unsafe fn drop_inline<F>(buf: *mut Buf) {
            unsafe { buf.cast::<F>().drop_in_place() }
        }
        unsafe fn call_boxed<F: FnOnce(&mut Simulation)>(buf: *mut Buf, sim: &mut Simulation) {
            let f = unsafe { Box::from_raw(buf.cast::<*mut F>().read()) };
            f(sim);
        }
        unsafe fn drop_boxed<F>(buf: *mut Buf) {
            drop(unsafe { Box::from_raw(buf.cast::<*mut F>().read()) });
        }

        // Per-`F` vtables as promoted constants: `&Vt::<F>::{INLINE,BOXED}`
        // is a `&'static VTable` without any allocation or registry.
        struct Vt<F>(std::marker::PhantomData<F>);
        impl<F: FnOnce(&mut Simulation) + Send + 'static> Vt<F> {
            const INLINE: VTable = VTable {
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            };
            const BOXED: VTable = VTable {
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            };
        }

        let mut buf: Buf = MaybeUninit::uninit();
        if const { Self::fits_inline::<F>() } {
            // SAFETY: `fits_inline` guarantees `F` fits the buffer and its
            // alignment is at most the buffer's word alignment.
            unsafe { buf.as_mut_ptr().cast::<F>().write(f) };
            EventCell {
                buf,
                vtable: &Vt::<F>::INLINE,
            }
        } else {
            // SAFETY: a thin `*mut F` is one word, word-aligned — it always
            // fits the first inline word.
            unsafe {
                buf.as_mut_ptr()
                    .cast::<*mut F>()
                    .write(Box::into_raw(Box::new(f)))
            };
            EventCell {
                buf,
                vtable: &Vt::<F>::BOXED,
            }
        }
    }

    /// Invoke the stored closure, consuming the cell.
    #[inline]
    pub fn call(self, sim: &mut Simulation) {
        // Suppress the destructor: the vtable call moves the payload out, so
        // running `drop_fn` afterwards (including on unwind out of the
        // closure) would be a double drop.
        let mut cell = ManuallyDrop::new(self);
        // SAFETY: the buffer is initialized (invariant of `new`) and this is
        // the single consumption point — the cell is forgotten above.
        unsafe { (cell.vtable.call)(&mut cell.buf, sim) }
    }
}

impl Drop for EventCell {
    fn drop(&mut self) {
        // SAFETY: `call` forgets the cell, so a dropped cell still owns its
        // payload; `drop_fn` releases it exactly once.
        unsafe { (self.vtable.drop_fn)(&mut self.buf) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn assert_send<T: Send>() {}

    #[test]
    fn cell_is_send_and_word_sized() {
        assert_send::<EventCell>();
        assert_eq!(
            std::mem::size_of::<EventCell>(),
            (INLINE_WORDS + 1) * std::mem::size_of::<usize>()
        );
        // The niche of the vtable reference keeps `Option<EventCell>` — the
        // arena slot representation — from costing an extra discriminant word.
        assert_eq!(
            std::mem::size_of::<Option<EventCell>>(),
            std::mem::size_of::<EventCell>()
        );
    }

    #[test]
    fn capture_size_decides_the_path() {
        let a = Arc::new(AtomicU32::new(0));
        let (x, y) = (1u64, 2u64);
        // Arc + two u64s: exactly three words — inline.
        let small = move |_: &mut Simulation| {
            a.fetch_add((x + y) as u32, Ordering::Relaxed);
        };
        // One u64 more: four words — boxed.
        let b = Arc::new(AtomicU32::new(0));
        let (p, q, r) = (1u64, 2u64, 3u64);
        let large = move |_: &mut Simulation| {
            b.fetch_add((p + q + r) as u32, Ordering::Relaxed);
        };
        assert!(EventCell::fits_inline::<()>());
        let small_fits = {
            fn probe<F: FnOnce(&mut Simulation)>(_: &F) -> bool {
                EventCell::fits_inline::<F>()
            }
            probe(&small)
        };
        let large_fits = {
            fn probe<F: FnOnce(&mut Simulation)>(_: &F) -> bool {
                EventCell::fits_inline::<F>()
            }
            probe(&large)
        };
        assert!(small_fits, "3-word capture must take the inline path");
        assert!(!large_fits, "4-word capture must take the boxed path");
    }

    #[test]
    fn call_runs_inline_and_boxed_closures() {
        let mut sim = Simulation::new(1);
        let hits = Arc::new(AtomicU32::new(0));

        let h = Arc::clone(&hits);
        EventCell::new(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        })
        .call(&mut sim);

        let h = Arc::clone(&hits);
        let pad = [7u64; 8]; // force the boxed path
        EventCell::new(move |_| {
            h.fetch_add(pad[0] as u32, Ordering::Relaxed);
        })
        .call(&mut sim);

        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn dropping_an_uncalled_cell_releases_captures_once() {
        // The Arc's strong count is the drop ledger: an uncalled cell must
        // release its capture exactly once, called cells likewise.
        let token = Arc::new(());
        for pad_words in [0usize, 8] {
            let t = Arc::clone(&token);
            let pad = vec![0u64; pad_words];
            let cell = EventCell::new(move |_| {
                let _ = (&t, &pad);
            });
            assert_eq!(Arc::strong_count(&token), 2);
            drop(cell);
            assert_eq!(Arc::strong_count(&token), 1, "pad={pad_words}");
        }
        let mut sim = Simulation::new(1);
        let t = Arc::clone(&token);
        EventCell::new(move |_| drop(t)).call(&mut sim);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn panicking_closure_does_not_double_drop() {
        let token = Arc::new(());
        let t = Arc::clone(&token);
        let cell = EventCell::new(move |_: &mut Simulation| {
            let _keep = t;
            panic!("mid-event panic");
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulation::new(1);
            cell.call(&mut sim);
        }));
        assert!(r.is_err());
        // The capture was moved into the closure and dropped by the unwind;
        // the cell itself must not drop it again.
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
