//! Deterministic fault injection for chaos testing (DESIGN.md §12).
//!
//! A [`FaultPlan`] is a seeded schedule of injected failures at the three
//! I/O boundaries of the event-loop server:
//!
//! - **sockets** — every N-th read or write call suffers a seeded fault:
//!   an I/O error, a fake disconnect, a short transfer (a chosen byte
//!   offset), or a small delay ([`FaultyIo`] wraps the stream);
//! - **shard mailboxes** — every N-th completed job has its reply dropped
//!   or delayed ([`FaultPlan::reply_fault`]), and every N-th job kills
//!   the worker outright ([`FaultPlan::kill_now`] → a panic the
//!   supervisor catches and turns into a shard restart);
//! - **WAL appends** — scheduled by [`c1p_engine::WalFaultPlan`], which
//!   [`FaultPlan::wal`] translates into (torn and refused appends that
//!   panic the pushing worker).
//!
//! The plan is compiled in always and *zero-cost when empty*: every
//! injection point starts with one branch on a plain field, and an empty
//! plan never touches an atomic. Given the same seed and knobs, the
//! schedule — which op faults, and how — is a pure function of the op
//! index, so a chaos run is exactly reproducible.

use crate::trace::splitmix64;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One injected socket fault, chosen deterministically per faulted op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// The op fails with `ConnectionReset` (the server drops the peer).
    Error,
    /// The peer "vanishes": reads see EOF, writes see `BrokenPipe`.
    Disconnect,
    /// The op transfers at most this many bytes (never zero — a short
    /// transfer still makes progress, it just lands at a chosen offset).
    Short(usize),
    /// The op is stalled by this much first (a scheduling hiccup; kept
    /// small so a chaos run still terminates briskly).
    Delay(Duration),
}

/// One injected mailbox fault for a completed shard job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyFault {
    /// The reply is never posted; the request-deadline reaper answers
    /// `Unavailable` in its place.
    Drop,
    /// The reply is withheld for this long before the event loop may
    /// release it.
    Delay(Duration),
}

/// A seeded, deterministic fault schedule. All knobs are "every N-th op"
/// rates (`0` = off); the seed staggers each schedule's phase and picks
/// each fault's flavor. Share it with `Arc` — counters are atomic.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    read_every: u64,
    write_every: u64,
    kill_every: u64,
    drop_every: u64,
    delay_every: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    jobs: AtomicU64,
    replies: AtomicU64,
}

impl FaultPlan {
    /// The empty plan: nothing ever faults (the production state).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with every schedule driven by `seed`. Knobs start at 0
    /// (off); chain the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Faults every N-th socket read call.
    pub fn with_read_every(mut self, n: u64) -> FaultPlan {
        self.read_every = n;
        self
    }

    /// Faults every N-th socket write call.
    pub fn with_write_every(mut self, n: u64) -> FaultPlan {
        self.write_every = n;
        self
    }

    /// Kills the owning shard worker before every N-th job (a panic the
    /// supervisor turns into a restart).
    pub fn with_kill_every(mut self, n: u64) -> FaultPlan {
        self.kill_every = n;
        self
    }

    /// Drops every N-th shard reply on the mailbox floor.
    pub fn with_drop_every(mut self, n: u64) -> FaultPlan {
        self.drop_every = n;
        self
    }

    /// Delays every N-th shard reply.
    pub fn with_delay_every(mut self, n: u64) -> FaultPlan {
        self.delay_every = n;
        self
    }

    /// `true` when no schedule is armed — the zero-cost fast path.
    pub fn is_empty(&self) -> bool {
        self.read_every == 0
            && self.write_every == 0
            && self.kill_every == 0
            && self.drop_every == 0
            && self.delay_every == 0
    }

    /// The WAL-append schedule this plan implies (same seed; rates set by
    /// the caller). Lives in `c1p_engine` because the append path does.
    pub fn wal(&self, torn_every: u64, fail_every: u64) -> c1p_engine::WalFaultPlan {
        c1p_engine::WalFaultPlan::new(torn_every, fail_every, self.seed)
    }

    /// Whether schedule op index `i` (1-based after the increment) under
    /// rate `every` fires, with a seed-dependent phase so independent
    /// schedules interleave.
    fn fires(&self, every: u64, k: u64, i: u64) -> bool {
        if every == 0 {
            return false;
        }
        let phase = splitmix64(self.seed ^ k) % every;
        i % every == phase
    }

    /// Consults the read schedule; advances its op counter.
    pub fn read_fault(&self) -> Option<SocketFault> {
        if self.read_every == 0 {
            return None;
        }
        let i = self.reads.fetch_add(1, Ordering::Relaxed);
        self.fires(self.read_every, 1, i).then(|| self.socket_flavor(1, i))
    }

    /// Consults the write schedule; advances its op counter.
    pub fn write_fault(&self) -> Option<SocketFault> {
        if self.write_every == 0 {
            return None;
        }
        let i = self.writes.fetch_add(1, Ordering::Relaxed);
        self.fires(self.write_every, 2, i).then(|| self.socket_flavor(2, i))
    }

    /// Whether the worker should die before running its next job.
    pub fn kill_now(&self) -> bool {
        if self.kill_every == 0 {
            return false;
        }
        let i = self.jobs.fetch_add(1, Ordering::Relaxed);
        self.fires(self.kill_every, 3, i)
    }

    /// Consults the reply (mailbox) schedules; advances their op counter.
    pub fn reply_fault(&self) -> Option<ReplyFault> {
        if self.drop_every == 0 && self.delay_every == 0 {
            return None;
        }
        let i = self.replies.fetch_add(1, Ordering::Relaxed);
        if self.fires(self.drop_every, 4, i) {
            return Some(ReplyFault::Drop);
        }
        if self.fires(self.delay_every, 5, i) {
            let ms = 1 + splitmix64(self.seed ^ 5 ^ i) % 40;
            return Some(ReplyFault::Delay(Duration::from_millis(ms)));
        }
        None
    }

    /// The flavor of socket fault for op `i` of schedule `k` — a pure
    /// function of the seed, so runs replay identically.
    fn socket_flavor(&self, k: u64, i: u64) -> SocketFault {
        let r = splitmix64(self.seed ^ (k << 32) ^ i);
        match r % 4 {
            0 => SocketFault::Error,
            1 => SocketFault::Disconnect,
            2 => SocketFault::Short(1 + (r >> 8) as usize % 64),
            _ => SocketFault::Delay(Duration::from_millis(1 + (r >> 8) % 4)),
        }
    }
}

/// A stream wrapper applying a [`FaultPlan`]'s socket schedules to every
/// read/write call. `injected` counts the faults actually delivered (the
/// caller feeds its metrics counter from it).
pub struct FaultyIo<'a, S> {
    /// The real stream.
    pub inner: S,
    /// The schedule.
    pub plan: &'a FaultPlan,
    /// Faults delivered through this wrapper.
    pub injected: u64,
}

impl<'a, S> FaultyIo<'a, S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: &'a FaultPlan) -> FaultyIo<'a, S> {
        FaultyIo { inner, plan, injected: 0 }
    }
}

impl<S: Read> Read for FaultyIo<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan.read_fault() {
            None => self.inner.read(buf),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    SocketFault::Error => Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "chaos: injected read error",
                    )),
                    SocketFault::Disconnect => Ok(0),
                    SocketFault::Short(n) => {
                        let cap = if buf.is_empty() { 0 } else { n.clamp(1, buf.len()) };
                        self.inner.read(&mut buf[..cap])
                    }
                    SocketFault::Delay(d) => {
                        std::thread::sleep(d);
                        self.inner.read(buf)
                    }
                }
            }
        }
    }
}

impl<S: Write> Write for FaultyIo<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan.write_fault() {
            None => self.inner.write(buf),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    SocketFault::Error => Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "chaos: injected write error",
                    )),
                    SocketFault::Disconnect => {
                        Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: injected disconnect"))
                    }
                    SocketFault::Short(n) => {
                        let cap = if buf.is_empty() { 0 } else { n.clamp(1, buf.len()) };
                        self.inner.write(&buf[..cap])
                    }
                    SocketFault::Delay(d) => {
                        std::thread::sleep(d);
                        self.inner.write(buf)
                    }
                }
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults_and_never_counts() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for _ in 0..1000 {
            assert_eq!(plan.read_fault(), None);
            assert_eq!(plan.write_fault(), None);
            assert!(!plan.kill_now());
            assert_eq!(plan.reply_fault(), None);
        }
        // the fast path must not even tick the op counters
        assert_eq!(plan.reads.load(Ordering::Relaxed), 0);
        assert_eq!(plan.jobs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn schedules_are_deterministic_and_hit_the_configured_rate() {
        let run = |seed| {
            let plan = FaultPlan::seeded(seed)
                .with_read_every(10)
                .with_write_every(7)
                .with_kill_every(50)
                .with_drop_every(9)
                .with_delay_every(11);
            let mut log = Vec::new();
            for i in 0..1000u64 {
                log.push((
                    i,
                    plan.read_fault(),
                    plan.write_fault(),
                    plan.kill_now(),
                    plan.reply_fault(),
                ));
            }
            log
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same schedule");
        assert_ne!(a, run(43), "different seed, different schedule");
        assert_eq!(a.iter().filter(|e| e.1.is_some()).count(), 100, "every 10th read");
        assert_eq!(a.iter().filter(|e| e.3).count(), 20, "every 50th job");
        // drop wins ties, so drops land exactly at their rate
        let drops = a.iter().filter(|e| e.4 == Some(ReplyFault::Drop)).count();
        assert_eq!(drops, 1000 / 9);
    }

    #[test]
    fn faulty_io_applies_short_transfers_and_errors() {
        // every write faults; flavors are seed-chosen, so scan a window
        // and check each flavor behaves as specified
        let plan = FaultPlan::seeded(7).with_write_every(1);
        let mut sink = Vec::new();
        let mut seen_short = false;
        let mut seen_err = false;
        for _ in 0..64 {
            let mut io = FaultyIo::new(&mut sink, &plan);
            match io.write(&[0xAB; 100]) {
                Ok(n) => {
                    assert!((1..=100).contains(&n));
                    seen_short |= n < 100;
                }
                Err(e) => {
                    assert!(
                        e.kind() == io::ErrorKind::ConnectionReset
                            || e.kind() == io::ErrorKind::BrokenPipe
                    );
                    seen_err = true;
                }
            }
            assert_eq!(io.injected, 1, "every call faults under with_write_every(1)");
        }
        assert!(seen_short && seen_err, "the seed must exercise both flavor classes");
        // reads: a Disconnect flavor reads as EOF, a Short flavor still
        // makes progress (never Ok(0) on a nonempty buffer with data)
        let plan = FaultPlan::seeded(9).with_read_every(1);
        let data = [1u8; 256];
        for _ in 0..64 {
            let mut src: &[u8] = &data;
            let mut io = FaultyIo::new(&mut src, &plan);
            let mut buf = [0u8; 128];
            match io.read(&mut buf) {
                // Ok(0) is an injected disconnect; anything else made progress
                Ok(n) => assert!(n <= 128),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            }
        }
    }
}
