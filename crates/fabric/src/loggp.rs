//! LogGP network cost model with transport presets.
//!
//! The LogGP model (Culler et al., extended with `G` for long messages)
//! expresses the one-way time of an `s`-byte message as
//!
//! ```text
//! T(s) = o_send + L + (s - 1) * G + o_recv        (eager path)
//! ```
//!
//! with an extra control round-trip for rendezvous-size messages. On top of
//! the transport cost, the *completion mechanism* adds either nothing (busy
//! polling the CQ) or a wakeup penalty (blocking on the CQ event channel) —
//! this is exactly the "busy poll" vs "queue wait" split in the paper's
//! Fig. 7.
//!
//! Preset values are calibrated to published microbenchmarks of the
//! respective transports (GNI provider for libfabric on Aries, ibverbs on
//! EDR InfiniBand, kernel TCP). The values live in the presets below, each
//! commented with the latency and bandwidth it targets.

use des::SimTime;

/// Which network stack carries the traffic (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Cray uGNI through libfabric (Aries interconnect) — the Piz Daint path.
    Ugni,
    /// InfiniBand verbs — the Ault cluster path.
    IbVerbs,
    /// Plain TCP — the "cloud FaaS" baseline environment.
    Tcp,
}

/// How completions are detected (Sec. V-A: hot = busy poll, warm = event wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionMode {
    /// Spin on the completion queue: zero extra latency, one core burned.
    BusyPoll,
    /// Block on the event channel: the NIC raises an interrupt and the OS
    /// wakes the waiter — cheaper in CPU, slower to react.
    EventWait,
}

impl CompletionMode {
    /// Fraction of a core consumed while waiting for work.
    pub fn cpu_overhead(self) -> f64 {
        match self {
            CompletionMode::BusyPoll => 1.0,
            CompletionMode::EventWait => 0.02,
        }
    }
}

/// LogGP parameters plus protocol-switch and completion costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpParams {
    /// Wire latency `L` (µs).
    pub latency_us: f64,
    /// Sender CPU overhead `o_s` (µs).
    pub o_send_us: f64,
    /// Receiver CPU overhead `o_r` (µs).
    pub o_recv_us: f64,
    /// Per-byte cost `G` (ns/byte) = 1 / bandwidth.
    pub per_byte_ns: f64,
    /// Messages larger than this take the rendezvous path.
    pub eager_threshold: usize,
    /// Extra cost of the rendezvous control handshake (µs).
    pub rendezvous_us: f64,
    /// Wakeup penalty when completing via [`CompletionMode::EventWait`] (µs).
    pub event_wakeup_us: f64,
    /// Relative std-dev of multiplicative timing jitter (OS noise).
    pub jitter_rel_std: f64,
}

impl LogGpParams {
    /// Cray Aries / uGNI via the libfabric GNI provider.
    /// ~1.3 µs one-way small-message latency, ~10 GB/s per-NIC bandwidth.
    pub fn ugni() -> Self {
        LogGpParams {
            latency_us: 1.3,
            o_send_us: 0.4,
            o_recv_us: 0.4,
            per_byte_ns: 0.10, // 10 GB/s
            eager_threshold: 8192,
            rendezvous_us: 2.0,
            event_wakeup_us: 6.5,
            jitter_rel_std: 0.04,
        }
    }

    /// InfiniBand verbs (EDR-class).
    pub fn ibverbs() -> Self {
        LogGpParams {
            latency_us: 0.9,
            o_send_us: 0.25,
            o_recv_us: 0.25,
            per_byte_ns: 0.085, // ~11.7 GB/s
            eager_threshold: 8192,
            rendezvous_us: 1.5,
            event_wakeup_us: 5.0,
            jitter_rel_std: 0.03,
        }
    }

    /// Kernel TCP over a datacenter network — the classical cloud FaaS
    /// environment (tens of µs latency before any gateway hops).
    pub fn tcp() -> Self {
        LogGpParams {
            latency_us: 25.0,
            o_send_us: 3.0,
            o_recv_us: 3.0,
            per_byte_ns: 0.8, // ~1.25 GB/s effective
            eager_threshold: 65536,
            rendezvous_us: 0.0, // streams, no rendezvous
            event_wakeup_us: 10.0,
            jitter_rel_std: 0.12,
        }
    }

    pub fn for_transport(t: Transport) -> Self {
        match t {
            Transport::Ugni => Self::ugni(),
            Transport::IbVerbs => Self::ibverbs(),
            Transport::Tcp => Self::tcp(),
        }
    }

    /// Peak bandwidth implied by `per_byte_ns`, in bytes/second.
    pub fn bandwidth_bps(&self) -> f64 {
        1e9 / self.per_byte_ns
    }

    /// One-way transfer time of `size` bytes, without congestion or jitter.
    pub fn one_way(&self, size: usize, completion: CompletionMode) -> SimTime {
        let mut us = self.o_send_us + self.latency_us + self.o_recv_us;
        if size > 0 {
            us += (size as f64 - 1.0) * self.per_byte_ns * 1e-3;
        }
        if size > self.eager_threshold {
            us += self.rendezvous_us + self.latency_us; // extra control trip
        }
        if completion == CompletionMode::EventWait {
            us += self.event_wakeup_us;
        }
        SimTime::from_micros_f64(us)
    }

    /// Round trip with a request of `out` bytes and a reply of `inn` bytes.
    /// Both directions pay their own completion cost on the waiting side.
    pub fn round_trip(&self, out: usize, inn: usize, completion: CompletionMode) -> SimTime {
        self.one_way(out, completion) + self.one_way(inn, completion)
    }

    /// Time for a one-sided RDMA read/write of `size` bytes. One-sided ops
    /// skip the receiver CPU (`o_recv`); a read additionally pays the wire
    /// latency twice (request + data).
    pub fn rma(&self, op_is_read: bool, size: usize, completion: CompletionMode) -> SimTime {
        let mut us = self.o_send_us + self.latency_us;
        if op_is_read {
            us += self.latency_us; // request travels before data returns
        }
        if size > 0 {
            us += (size as f64 - 1.0) * self.per_byte_ns * 1e-3;
        }
        if completion == CompletionMode::EventWait {
            us += self.event_wakeup_us;
        }
        SimTime::from_micros_f64(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_is_microseconds() {
        let p = LogGpParams::ugni();
        let t = p.one_way(8, CompletionMode::BusyPoll);
        assert!(
            t >= SimTime::from_micros(1) && t <= SimTime::from_micros(5),
            "{t}"
        );
    }

    #[test]
    fn event_wait_is_slower_than_busy_poll() {
        let p = LogGpParams::ugni();
        for size in [1usize, 64, 4096, 1 << 20] {
            assert!(
                p.one_way(size, CompletionMode::EventWait)
                    > p.one_way(size, CompletionMode::BusyPoll)
            );
        }
    }

    #[test]
    fn cost_is_monotone_in_size() {
        for p in [
            LogGpParams::ugni(),
            LogGpParams::ibverbs(),
            LogGpParams::tcp(),
        ] {
            let mut prev = SimTime::ZERO;
            for size in [0usize, 1, 64, 1024, 8192, 65536, 1 << 20] {
                let t = p.one_way(size, CompletionMode::BusyPoll);
                assert!(t >= prev, "size={size}");
                prev = t;
            }
        }
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let p = LogGpParams::ugni();
        let below = p.one_way(p.eager_threshold, CompletionMode::BusyPoll);
        let above = p.one_way(p.eager_threshold + 1, CompletionMode::BusyPoll);
        let delta_us = above.as_micros_f64() - below.as_micros_f64();
        assert!(delta_us > p.rendezvous_us, "delta={delta_us}");
    }

    #[test]
    fn large_transfer_approaches_bandwidth() {
        let p = LogGpParams::ugni();
        let size = 1usize << 30; // 1 GiB
        let t = p.one_way(size, CompletionMode::BusyPoll).as_secs_f64();
        let gbps = size as f64 / t / 1e9;
        assert!((gbps - 10.0).abs() < 0.5, "gbps={gbps}");
    }

    #[test]
    fn tcp_is_an_order_of_magnitude_slower_for_small_messages() {
        let hpc = LogGpParams::ugni().one_way(64, CompletionMode::BusyPoll);
        let tcp = LogGpParams::tcp().one_way(64, CompletionMode::BusyPoll);
        assert!(tcp.as_nanos() > 8 * hpc.as_nanos());
    }

    #[test]
    fn rma_read_pays_double_latency() {
        let p = LogGpParams::ugni();
        let w = p.rma(false, 1024, CompletionMode::BusyPoll);
        let r = p.rma(true, 1024, CompletionMode::BusyPoll);
        let delta = r.as_micros_f64() - w.as_micros_f64();
        assert!((delta - p.latency_us).abs() < 1e-9);
    }

    #[test]
    fn completion_cpu_overhead() {
        assert_eq!(CompletionMode::BusyPoll.cpu_overhead(), 1.0);
        assert!(CompletionMode::EventWait.cpu_overhead() < 0.1);
    }
}
