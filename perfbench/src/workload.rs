//! The three workloads: instance, request mix, load shape, and the
//! value oracle every reply is checked against.

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::default_value;
use wmlp_core::types::PageId;
use wmlp_loadgen::client::PutValues;
use wmlp_workloads::{zipf_trace, LevelDist};

/// Instance tuple shared by the server flags and the in-process replay.
pub const PAGES: usize = 65_536;
pub const LEVELS: u8 = 3;
pub const K: usize = 4096;
pub const WEIGHT_SEED: u64 = 7;
pub const SHARDS: usize = 2;
pub const POLICY: &str = "landlord";
pub const VALUE_SIZE: usize = 64;
/// Plan epoch length in routed requests (the server default, stated so
/// the replay's partitioner matches the server's).
pub const EPOCH_LEN: u64 = 4096;
/// Client connections; each closed-loop connection is one client thread.
pub const CONNS: usize = 2;
/// Closed-loop window per connection.
pub const WINDOW: usize = 64;
/// The server's per-connection in-flight cap (`--max-inflight` default):
/// the open-loop sender never exceeds it, so its writes cannot wedge
/// against a server that has stopped reading.
pub const MAX_INFLIGHT: u64 = 256;
/// Requests generated per connection; a run that gets further wraps.
pub const STREAM_LEN: usize = 1 << 20;

/// How load is offered in the main measured phase.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Each connection keeps [`WINDOW`] requests in flight.
    Closed,
    /// Requests leave on a fixed schedule at `reference_rps` in total;
    /// then the sustained-rate ladder climbs from `ladder_base` (req/s).
    Open {
        reference_rps: f64,
        ladder_base: f64,
    },
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Zipf exponent of page popularity.
    pub alpha: f64,
    pub levels: LevelDist,
    /// `--partition` of the server.
    pub partition: &'static str,
    /// Whether the server runs the on-disk segment store.
    pub store: bool,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pipelined",
        alpha: 0.9,
        levels: LevelDist::Uniform,
        partition: "hash",
        store: false,
        load: Load::Closed,
    },
    Workload {
        name: "paced",
        alpha: 1.2,
        levels: LevelDist::Uniform,
        // The skew-aware `replicate` partition loses writes at plan
        // changes (see the replay's tests), which the value check
        // catches; until the server keeps values across plan changes,
        // `paced` runs hash.
        partition: "hash",
        store: false,
        load: Load::Open {
            reference_rps: 50e3,
            ladder_base: 50e3,
        },
    },
    Workload {
        name: "store-writeback",
        alpha: 0.9,
        levels: LevelDist::TopProb(0.5),
        partition: "hash",
        store: true,
        load: Load::Closed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The instance both the server (from the same flags) and the replay use.
pub fn instance() -> Result<MlInstance, String> {
    wmlp_serve::default_instance(PAGES, LEVELS, K, WEIGHT_SEED)
}

/// SplitMix64 finaliser, used to derive per-connection seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// One request stream per connection, a pure function of `seed`.
    pub fn streams(&self, inst: &MlInstance, seed: u64, len: usize) -> Vec<Vec<Request>> {
        (0..CONNS)
            .map(|c| {
                zipf_trace(
                    inst,
                    self.alpha,
                    len,
                    self.levels,
                    mix(seed ^ mix(c as u64)),
                )
            })
            .collect()
    }
}

/// What a page may legally hold during a run: its synthesized default
/// or the run's PUT value, which depends only on the seed and the page.
#[derive(Debug, Clone, Copy)]
pub struct Values {
    put: PutValues,
}

impl Values {
    pub fn new(seed: u64) -> Self {
        Values {
            put: PutValues {
                seed,
                size: VALUE_SIZE,
            },
        }
    }

    /// The value every PUT of `page` writes.
    pub fn put_value(&self, page: PageId, out: &mut Vec<u8>) {
        self.put.fill(page, out);
    }

    /// Whether `value` is the PUT value of `page`.
    pub fn put_ok(&self, page: PageId, value: &[u8], scratch: &mut Vec<u8>) -> bool {
        self.put.fill(page, scratch);
        value == scratch.as_slice()
    }

    /// Whether `value` is a legal read of `page` that no acknowledged PUT
    /// of it precedes.
    pub fn read_ok(&self, page: PageId, value: &[u8], scratch: &mut Vec<u8>) -> bool {
        scratch.clear();
        default_value(page, VALUE_SIZE, scratch);
        if value == scratch.as_slice() {
            return true;
        }
        self.put.fill(page, scratch);
        value == scratch.as_slice()
    }
}
