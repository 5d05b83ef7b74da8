//! Offline stand-in for the `crossbeam` crate: only [`deque`], the
//! crossbeam-deque work-stealing surface — a lock-free Chase–Lev
//! [`deque::Worker`]/[`deque::Stealer`] pair plus a global FIFO
//! [`deque::Injector`].
//!
//! No crate in the workspace uses it. It stays only because the repo
//! benchmark (`benchmark/src/layers.rs`) reports its `deque.*` layer metrics
//! against it.

pub mod deque;
