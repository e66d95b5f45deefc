//! The five wire workloads: which system, how the server is set, and
//! the fixed list of RPCs one round sends. README.md holds the glossary
//! and the reason each exists; the numbers here are the definition.

use crate::systems::System;

/// How the server child is configured. The WAL is always on with
/// `group_commit = 64`; everything else a workload may vary is here.
#[derive(Debug, Clone, Copy)]
pub struct ServerShape {
    pub threads: usize,
    pub admission_batch: usize,
    /// Simulated work per held lock, microseconds.
    pub work_us: u64,
    /// `fsync` every commit decision.
    pub wal_sync: bool,
}

/// What the reader connection asks for on every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSet {
    /// Four seeded accounts out of those the templates write.
    FourAccounts,
    /// `entities = []`: a full scan of all 1024 accounts.
    FullScan,
    /// The one entity every template locks.
    Hot,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub system: System,
    pub server: ServerShape,
    /// Writer connections, each on its own thread, closed loop.
    pub writers: usize,
    /// `Submit` RPCs each writer sends in one round.
    pub submits: usize,
    /// Instances per `Submit`: 1 names a seeded template, more submits
    /// `template = ""` (round-robin over all templates).
    pub count: u32,
    /// Reader connections, each on its own thread, closed loop with 1 ms
    /// think time. `writers + readers` is 2 on every workload: one
    /// client thread and connection per core of the host this was sized
    /// on.
    pub readers: usize,
    /// What a read asks for; the layer probes of the traced run use it
    /// even where no reader runs.
    pub reads: ReadSet,
}

const WIDE_BANK_SERVER: ServerShape = ServerShape {
    threads: 2,
    admission_batch: 16,
    work_us: 0,
    wal_sync: false,
};

/// `admission_batch = 1` is pinned: at the shipped 16 one round-robin
/// chunk takes every k = 1 gate and the whole run serialises, so the hot
/// lock is never contended and wait-die never aborts.
const HOT_SERVER: ServerShape = ServerShape {
    threads: 8,
    admission_batch: 1,
    work_us: 20,
    wal_sync: false,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "single-commit",
        why: "count=1 Submits on wide-bank: wire RTT and the engine's per-run fixed cost (thread spawn, auditor rebuild, report) are nearly all of it",
        system: System::WideBank,
        server: WIDE_BANK_SERVER,
        writers: 1,
        submits: 5000,
        count: 1,
        readers: 1,
        reads: ReadSet::FourAccounts,
    },
    Workload {
        name: "durable-commit",
        why: "the same with wal_sync on and two writer connections: fsync and group flush dominate, and the writers serialise on the engine mutex",
        system: System::WideBank,
        server: ServerShape {
            wal_sync: true,
            ..WIDE_BANK_SERVER
        },
        writers: 2,
        submits: 400,
        count: 1,
        readers: 0,
        reads: ReadSet::FourAccounts,
    },
    Workload {
        name: "batch-readers",
        why: "512-instance Submits beside full 1024-entity scans: per-instance executor, store, mvcc publish, WAL append and auditor; wire cost vanishes",
        system: System::WideBank,
        server: WIDE_BANK_SERVER,
        writers: 1,
        submits: 160,
        count: 512,
        readers: 1,
        reads: ReadSet::FullScan,
    },
    Workload {
        name: "hot-certified",
        why: "nine certified templates on one hot lock: registration is Theorem 4's cycle enumeration, the run is FIFO blocking with zero aborts",
        system: System::HotOrdered,
        server: HOT_SERVER,
        writers: 1,
        submits: 15,
        count: 256,
        readers: 1,
        reads: ReadSet::Hot,
    },
    Workload {
        name: "hot-waitdie",
        why: "the same hot key through a rejected system: wait-die polling, deaths, backoff and undo; the detector side of the certified contrast",
        system: System::HotCrossed,
        server: HOT_SERVER,
        writers: 1,
        submits: 15,
        count: 256,
        readers: 1,
        reads: ReadSet::Hot,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the system certifies, so any abort is a failed check.
    pub fn certified(&self) -> bool {
        self.system != System::HotCrossed
    }
}
