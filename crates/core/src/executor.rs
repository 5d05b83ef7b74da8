//! Executors: the processes that run function invocations on donated node
//! resources, with the three acquisition paths of Sec. IV-A/B:
//!
//! * **hot** — the executor busy-polls its completion queue inside a live
//!   sandbox: dispatch costs ~a microsecond, but one core spins;
//! * **warm** — the sandbox exists, the executor blocks on the CQ event
//!   channel: an OS wakeup is added to every invocation;
//! * **cold** — no sandbox: the container must be created (or fetched from
//!   the warm pool / restored from the PFS) before anything runs.

use crate::functions::FunctionDef;
use containers::{cold_start, dispatch_overhead, StartKind};
use des::SimTime;
use fabric::{CompletionMode, LogGpParams};

/// How the executor waits for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorMode {
    Hot,
    Warm,
}

impl ExecutorMode {
    pub fn completion(self) -> CompletionMode {
        match self {
            ExecutorMode::Hot => CompletionMode::BusyPoll,
            ExecutorMode::Warm => CompletionMode::EventWait,
        }
    }

    pub fn start_kind(self) -> StartKind {
        match self {
            ExecutorMode::Hot => StartKind::Hot,
            ExecutorMode::Warm => StartKind::Warm,
        }
    }
}

/// Latency breakdown of one invocation (all virtual time).
#[derive(Debug, Clone, Copy)]
pub struct InvocationTiming {
    /// Sandbox acquisition (zero for hot/warm on an existing executor).
    pub sandbox: SimTime,
    /// Request transfer client → executor.
    pub request: SimTime,
    /// Dispatch inside the executor (poll pickup or OS wakeup).
    pub dispatch: SimTime,
    /// Function body execution (includes interference stretching).
    pub execution: SimTime,
    /// Response transfer executor → client.
    pub response: SimTime,
}

impl InvocationTiming {
    pub fn total(&self) -> SimTime {
        self.sandbox + self.request + self.dispatch + self.execution + self.response
    }
}

/// An executor bound to a lease on a node.
#[derive(Debug)]
pub struct Executor {
    pub function: FunctionDef,
    pub mode: ExecutorMode,
    /// Whether a sandbox is already running (false until first invocation or
    /// warm-pool adoption).
    sandbox_ready: bool,
}

impl Executor {
    pub fn new(function: FunctionDef, mode: ExecutorMode) -> Self {
        Executor {
            function,
            mode,
            sandbox_ready: false,
        }
    }

    /// Adopt a warm container from the pool: the sandbox is ready without
    /// paying the cold start.
    pub fn adopt_warm_container(&mut self) {
        self.sandbox_ready = true;
    }

    /// Cost to make the sandbox ready if it is not.
    fn sandbox_cost(&mut self) -> SimTime {
        if self.sandbox_ready {
            SimTime::ZERO
        } else {
            self.sandbox_ready = true;
            cold_start(self.function.runtime, self.function.image.size_mb).total()
        }
    }

    /// Execute one invocation: payload in, result out, body stretched by the
    /// contention `slowdown` (≥ 1.0) of the hosting node.
    pub fn invoke(
        &mut self,
        params: &LogGpParams,
        payload_bytes: usize,
        result_bytes: usize,
        slowdown: f64,
    ) -> InvocationTiming {
        let completion = self.mode.completion();
        let sandbox = self.sandbox_cost();
        let request = params.one_way(payload_bytes, completion);
        let dispatch = dispatch_overhead(self.mode.start_kind());
        let execution = self.function.exec_time * slowdown.max(1.0);
        // The client waits for the response; the client side busy-polls in
        // both modes (it is inside an HPC application, not an executor).
        let response = params.one_way(result_bytes, CompletionMode::BusyPoll);
        InvocationTiming {
            sandbox,
            request,
            dispatch,
            execution,
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;
    use containers::{ContainerImage, ContainerRuntime};

    fn noop_def() -> FunctionDef {
        let mut reg = FunctionRegistry::new();
        let id = reg.register_noop();
        reg.get(id).unwrap().clone()
    }

    fn timed_def(exec_ms: u64) -> FunctionDef {
        let mut reg = FunctionRegistry::new();
        let id = reg.register(
            ContainerImage::new(20.0),
            ContainerRuntime::Sarus,
            SimTime::from_millis(exec_ms),
        );
        reg.get(id).unwrap().clone()
    }

    #[test]
    fn hot_invocation_single_digit_microseconds() {
        let params = LogGpParams::ugni();
        let mut ex = Executor::new(noop_def(), ExecutorMode::Hot);
        ex.adopt_warm_container();
        let t = ex.invoke(&params, 64, 64, 1.0);
        let us = t.total().as_micros_f64();
        assert!(us < 12.0, "hot noop RTT = {us} µs");
        assert!(us > 2.0, "not free either: {us} µs");
    }

    #[test]
    fn warm_slower_than_hot_by_wakeup() {
        let params = LogGpParams::ugni();
        let mut hot = Executor::new(noop_def(), ExecutorMode::Hot);
        hot.adopt_warm_container();
        let mut warm = Executor::new(noop_def(), ExecutorMode::Warm);
        warm.adopt_warm_container();
        let th = hot.invoke(&params, 64, 64, 1.0).total();
        let tw = warm.invoke(&params, 64, 64, 1.0).total();
        let delta = tw.as_micros_f64() - th.as_micros_f64();
        assert!(delta > 5.0, "wakeup visible: {delta} µs");
        assert!(tw < SimTime::from_millis(1), "warm is still sub-ms");
    }

    #[test]
    fn cold_start_dominates_first_invocation() {
        let params = LogGpParams::ugni();
        let mut ex = Executor::new(timed_def(1), ExecutorMode::Hot);
        let first = ex.invoke(&params, 64, 64, 1.0);
        let second = ex.invoke(&params, 64, 64, 1.0);
        assert!(first.sandbox > SimTime::from_millis(100));
        assert_eq!(second.sandbox, SimTime::ZERO);
        assert!(first.total() > second.total() * 10);
    }

    #[test]
    fn warm_pool_adoption_skips_cold_start() {
        let params = LogGpParams::ugni();
        let mut ex = Executor::new(timed_def(1), ExecutorMode::Hot);
        ex.adopt_warm_container();
        let first = ex.invoke(&params, 64, 64, 1.0);
        assert_eq!(first.sandbox, SimTime::ZERO);
    }

    #[test]
    fn slowdown_stretches_execution_only() {
        let params = LogGpParams::ugni();
        let mut a = Executor::new(timed_def(100), ExecutorMode::Hot);
        a.adopt_warm_container();
        let mut b = Executor::new(timed_def(100), ExecutorMode::Hot);
        b.adopt_warm_container();
        let clean = a.invoke(&params, 64, 64, 1.0);
        let stretched = b.invoke(&params, 64, 64, 1.5);
        assert_eq!(clean.request, stretched.request);
        let ratio = stretched.execution.as_secs_f64() / clean.execution.as_secs_f64();
        assert!((ratio - 1.5).abs() < 1e-9);
        // Slowdowns below 1 are clamped.
        let mut c = Executor::new(timed_def(100), ExecutorMode::Hot);
        c.adopt_warm_container();
        let fast = c.invoke(&params, 64, 64, 0.2);
        assert_eq!(fast.execution, clean.execution);
    }

    #[test]
    fn payload_size_affects_transfer() {
        let params = LogGpParams::ugni();
        let mut ex = Executor::new(noop_def(), ExecutorMode::Hot);
        ex.adopt_warm_container();
        let small = ex.invoke(&params, 1, 1, 1.0);
        let large = ex.invoke(&params, 1 << 20, 1, 1.0);
        assert!(large.request > small.request * 10);
        assert_eq!(large.response, small.response);
    }
}
