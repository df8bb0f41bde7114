//! Everything the workloads feed the library, derived from `--seed`:
//! keys, operation mixes, permutations and the expected values. The
//! library only ever sees these generated inputs.

/// SplitMix64: a small, fast generator with a full 64-bit state, so a
/// stream is pinned by `(seed, stream id)` alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A generator for one named stream of one seed: streams with
    /// different ids are unrelated.
    pub fn stream(seed: u64, id: u64) -> Self {
        SplitMix64(mix64(seed ^ mix64(id.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is far below 2^32 here, so
    /// the bias is below 2^-32).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `f(key)`: the value every map entry holds, so any reader can check a
/// returned value without a second copy of the data. Never equals
/// [`ABSENT`].
#[inline]
pub fn value_of(key: u64) -> u64 {
    mix64(key ^ 0xC0FF_EE00_D15E_A5E5) | 1
}

/// How a `get` that found nothing is encoded in a reply checksum.
pub const ABSENT: u64 = 0;

/// Encodes a `get` result as a reply checksum.
#[inline]
pub fn encode_get(found: Option<u64>) -> u64 {
    found.unwrap_or(ABSENT)
}

/// Keys `0..STATIC_KEYS` form the read-only range of `rr_light` and
/// `rr_map_read`; the even half is prefilled.
pub const STATIC_KEYS: u64 = 1 << 20;

/// `rr_light` reads only the first `HOT_KEYS` keys, which stay in L1/L2:
/// its single `get` is to cost as little as a map read can, so that the
/// workload measures the pipeline around it. (A uniformly random `get`
/// over the whole range is three dependent cache misses, about 370 ns in
/// place, a quarter of the request's path.)
pub const HOT_KEYS: u64 = 1024;

/// `rr_map_read` reads only the first `READ_KEYS` keys: their buckets
/// and entries (about 1 MiB) fit the 2 MiB private L2. Reads over the
/// whole range go to DRAM, and on a shared host their cost swung between
/// 140 and 270 ns from one round to the next with the neighbours'
/// memory traffic: 26 to 36 % run-to-run spread, which no bound holds.
pub const READ_KEYS: u64 = 1 << 13;

/// Whether a static-range key is prefilled (512 Ki of the 1 Mi keys).
#[inline]
pub fn static_prefilled(key: u64) -> bool {
    key & 1 == 0
}

/// What `get(key)` must return for a static-range key, as a checksum.
#[inline]
pub fn expected_static_get(key: u64) -> u64 {
    if static_prefilled(key) {
        value_of(key)
    } else {
        ABSENT
    }
}

/// One operation on a keyed set or map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOp {
    Get(u64),
    Insert(u64),
    Remove(u64),
}

/// Operation stream of one `direct_sets` thread: `read_pct` percent
/// `Get`, the rest split evenly between `Insert` and `Remove`, over the
/// thread's own partition `{k : k % threads == thread}` of `0..keys`.
#[derive(Debug, Clone)]
pub struct SetOps {
    rng: SplitMix64,
    read_pct: u64,
    threads: u64,
    thread: u64,
    per_thread: u64,
}

impl SetOps {
    pub fn new(
        seed: u64,
        cell: u64,
        thread: usize,
        threads: usize,
        keys: u64,
        read_pct: u64,
    ) -> Self {
        SetOps {
            rng: SplitMix64::stream(seed, (cell << 8) | thread as u64),
            read_pct,
            threads: threads as u64,
            thread: thread as u64,
            per_thread: keys / threads as u64,
        }
    }

    /// Number of keys this thread owns; its model bitmap has this many bits.
    pub fn per_thread(&self) -> u64 {
        self.per_thread
    }

    /// Index of `key` in the owning thread's model bitmap.
    #[inline]
    pub fn model_index(&self, key: u64) -> usize {
        (key / self.threads) as usize
    }

    #[inline]
    pub fn next_op(&mut self) -> KeyOp {
        let r = self.rng.next_u64();
        let key = (((r >> 32) * self.per_thread) >> 32) * self.threads + self.thread;
        let dice = (r & 0xFFFF_FFFF) % 200;
        if dice < self.read_pct * 2 {
            KeyOp::Get(key)
        } else if dice.is_multiple_of(2) {
            KeyOp::Insert(key)
        } else {
            KeyOp::Remove(key)
        }
    }
}

/// Map operations of one `rr_map_read` request. Large enough that the
/// request's map work (about 120 us) outweighs the futex wake-up its
/// reply costs (about 17 us on the reference host, where the idle
/// client parks before every reply).
pub const READ_OPS_PER_REQUEST: usize = 2048;

/// Writes of one `rr_map_grow` request (about 150 us of map work).
pub const GROW_OPS_PER_REQUEST: usize = 512;

/// `rr_map_read`: each of the window's request slots owns this many
/// churn keys (one model word), which only the slot's single outstanding
/// request writes, so every insert/remove result is known in advance.
pub const CHURN_PER_SLOT: u64 = 64;
const CHURN_BASE: u64 = 1 << 32;

/// The `j`-th churn key of request slot `slot`.
#[inline]
pub fn churn_key(slot: usize, j: u64) -> u64 {
    CHURN_BASE + slot as u64 * CHURN_PER_SLOT + j
}

/// The static key an `rr_map_read` request reads first and replies with;
/// the client recomputes it from the request seed to check the reply.
#[inline]
pub fn probe_key(request_seed: u64) -> u64 {
    mix64(request_seed) % READ_KEYS
}

/// Operation stream of one `rr_map_read` request: op 0 is the probe
/// `Get`; the others are 90 % `Get` on the read range, 5 % `Insert`
/// and 5 % `Remove` on the slot's churn keys. Insert/remove carry the
/// churn index `j`, not the key, so the caller can update its model.
#[derive(Debug, Clone)]
pub struct ReadRequestOps {
    rng: SplitMix64,
    issued: usize,
    probe: u64,
}

impl ReadRequestOps {
    pub fn new(request_seed: u64) -> Self {
        ReadRequestOps {
            rng: SplitMix64::new(request_seed),
            issued: 0,
            probe: probe_key(request_seed),
        }
    }
}

impl Iterator for ReadRequestOps {
    type Item = KeyOp;

    #[inline]
    fn next(&mut self) -> Option<KeyOp> {
        if self.issued == READ_OPS_PER_REQUEST {
            return None;
        }
        self.issued += 1;
        if self.issued == 1 {
            return Some(KeyOp::Get(self.probe));
        }
        let r = self.rng.next_u64();
        let dice = (r & 0xFFFF_FFFF) % 100;
        let pick = r >> 32;
        Some(if dice < 90 {
            KeyOp::Get((pick * READ_KEYS) >> 32)
        } else if dice < 95 {
            KeyOp::Insert((pick * CHURN_PER_SLOT) >> 32)
        } else {
            KeyOp::Remove((pick * CHURN_PER_SLOT) >> 32)
        })
    }
}

/// `rr_map_grow`: one cycle inserts this many distinct keys, then
/// removes them in another order.
pub const GROW_KEYS: usize = 1 << 20;
const GROW_BASE: u64 = 1 << 40;

/// The two key orders of an `rr_map_grow` cycle.
#[derive(Debug)]
pub struct GrowPlan {
    pub insert_order: Vec<u32>,
    pub remove_order: Vec<u32>,
}

impl GrowPlan {
    pub fn new(seed: u64) -> Self {
        GrowPlan {
            insert_order: permutation(GROW_KEYS, SplitMix64::stream(seed, 0x6701)),
            remove_order: permutation(GROW_KEYS, SplitMix64::stream(seed, 0x6702)),
        }
    }

    /// The map key behind an entry of either order.
    #[inline]
    pub fn key(index: u32) -> u64 {
        GROW_BASE + index as u64
    }
}

/// Fisher–Yates shuffle of `0..n`.
pub fn permutation(n: usize, mut rng: SplitMix64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Push-or-pop decisions of one `direct_transport` thread, 50/50, one
/// bit per operation.
#[derive(Debug, Clone)]
pub struct CoinFlips {
    rng: SplitMix64,
    bits: u64,
    left: u32,
}

impl CoinFlips {
    pub fn new(seed: u64, cell: u64, thread: usize) -> Self {
        CoinFlips {
            rng: SplitMix64::stream(seed, 0x7000 | (cell << 8) | thread as u64),
            bits: 0,
            left: 0,
        }
    }

    /// `true` = produce (push/enqueue), `false` = consume.
    #[inline]
    pub fn next_flip(&mut self) -> bool {
        if self.left == 0 {
            self.bits = self.rng.next_u64();
            self.left = 64;
        }
        let bit = self.bits & 1 == 1;
        self.bits >>= 1;
        self.left -= 1;
        bit
    }
}
