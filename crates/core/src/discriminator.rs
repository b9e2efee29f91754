//! Discriminating functions (paper §3).
//!
//! A discriminating function maps ground instances of a *discriminating
//! sequence of variables* to processors:
//!
//! ```text
//! h : set of ground instances of v(r) → P
//! ```
//!
//! Every concrete function here is deterministic and free of per-instance
//! state, so all workers of a run — and repeated runs — agree on every
//! assignment. The implementations cover each function the paper uses:
//!
//! * [`HashMod`] — an arbitrary hash partition (the "discriminating
//!   functions based on hashing" of §3, and Examples 1/3);
//! * [`SymmetricHashMod`] — order-invariant hashing, the function family
//!   that realizes Theorem 3's zero-communication choice for cyclic
//!   dataflow graphs (the cycle permutes the sequence, so `h` must not
//!   care about order);
//! * [`BitVector`] — `h(a₁…a_L) = (g(a₁), …, g(a_L))` over a bit-valued
//!   `g`, the four-processor function of Example 6;
//! * [`Linear`] — `h(a₁…a_L) = Σ c_k · g(a_k)`, the linear function of
//!   Example 7 whose network graph is derived by solving linear systems;
//! * [`FragmentOwner`] — `h(t) = i ⇔ t ∈ fragmentⁱ`, Example 2's
//!   function; **not locally evaluable** (processor `i` cannot test
//!   membership in a fragment it does not store), which is exactly why
//!   Example 2 broadcasts;
//! * [`Constant`] — `h_i(x) = i`, the keep-everything-local choice that
//!   §6 shows degenerates to the redundant, communication-free scheme of
//!   [Wolfson 88];
//! * [`Mixed`] — keep a tuple local with probability `α` (deterministic
//!   per tuple), else defer to a base function: the knob that sweeps §6's
//!   redundancy/communication spectrum.

use std::hash::Hasher;
use std::sync::Arc;

use gst_common::fxhash::hash_one;
use gst_common::{Error, FxHasher, Interner, Result, Tuple, Value};
use gst_frontend::{Constraint, Variable};
use gst_storage::Fragmentation;

/// A discriminating function: ground tuple → processor.
pub trait Discriminator: Send + Sync {
    /// Number of processors in the range `P = {0, …, processors()-1}`.
    fn processors(&self) -> usize;

    /// Assign a ground instance to a processor.
    fn assign(&self, ground: &[Value]) -> usize;

    /// [`Discriminator::assign`] of the ground instance held in `row`'s
    /// `columns`. A function that can work on the row's untagged words
    /// ([`Tuple::word`]) overrides this and must agree with the default,
    /// which rebuilds the values.
    fn assign_words(&self, row: &Tuple, columns: &[usize]) -> usize {
        self.assign(&columns.iter().map(|&c| row.get(c)).collect::<Vec<_>>())
    }

    /// Whether a processor can evaluate this function from a tuple alone.
    /// When `false`, sending rules cannot carry the `h(v(r)) = j`
    /// condition and the scheme falls back to broadcasting (paper §4,
    /// Example 2: "the second conjunct ... cannot be verified at
    /// processor i. Hence, all tuples ... are communicated").
    fn locally_evaluable(&self) -> bool {
        true
    }

    /// Human-readable name for reports.
    fn describe(&self) -> String;

    /// Append this function's wire encoding to `buf`, or return `false`
    /// when the implementation cannot travel across a process boundary.
    ///
    /// Every concrete function in this module encodes itself (the format
    /// lives in [`decode_constraint`]); the default covers out-of-tree
    /// implementations, which a multi-process transport rejects with a
    /// clean error instead of shipping an unevaluable rule.
    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        let _ = buf;
        false
    }

    /// The length of the shortest leading prefix of the discriminating
    /// sequence that narrows the processors an instance may be assigned
    /// to, or `None` (the default) when only a full instance does.
    fn narrowing_prefix(&self) -> Option<usize> {
        None
    }

    /// Whether a ground instance whose leading values are `row`'s
    /// `columns` may be assigned to `processor` (`true`, the default, when
    /// the prefix is shorter than [`Discriminator::narrowing_prefix`]).
    ///
    /// This is the hook behind §6-style replication: a fragmenting base
    /// atom that binds only the key prefix of an extended sequence keeps a
    /// tuple at every processor this admits. Implementations must stay
    /// consistent with [`Discriminator::assign`]: the processor assigned to
    /// every full ground instance extending the prefix must be admitted.
    fn may_assign_prefix(&self, row: &Tuple, columns: &[usize], processor: usize) -> bool {
        let _ = (row, columns, processor);
        true
    }
}

/// Shared handle to a discriminating function.
pub type DiscriminatorRef = Arc<dyn Discriminator>;

/// The bit-valued helper `g : constants → {0, 1}` of Examples 6 and 7.
///
/// "Let g be any arbitrary function on the domain ... with range {0,1}" —
/// we use one hash bit, parameterized by `seed` so experiments can draw
/// several independent `g`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFn {
    /// Seed mixed into the hash, selecting one function from the family.
    pub seed: u64,
}

impl BitFn {
    /// The function `g` with the given seed.
    pub fn new(seed: u64) -> Self {
        BitFn { seed }
    }

    /// Evaluate `g(value) ∈ {0, 1}`.
    pub fn bit(&self, value: Value) -> u8 {
        // Take the top bit: FxHash's final multiply mixes high bits far
        // better than low ones (the low bit survives odd multiplication).
        (hash_one(&(self.seed, value)) >> 63) as u8
    }
}

/// `h(ā) = hash(ā) mod n` — an arbitrary hash partition.
#[derive(Debug, Clone)]
pub struct HashMod {
    n: usize,
    seed: u64,
}

impl HashMod {
    /// A hash partition over `n` processors.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "need at least one processor");
        HashMod { n, seed }
    }
}

impl Discriminator for HashMod {
    fn processors(&self) -> usize {
        self.n
    }

    fn assign(&self, ground: &[Value]) -> usize {
        (hash_one(&(self.seed, ground)) % self.n as u64) as usize
    }

    /// `hash_one(&(seed, ground))` replayed step for step on the words:
    /// the seed, the slice's length prefix, then each value's variant
    /// index and payload.
    fn assign_words(&self, row: &Tuple, columns: &[usize]) -> usize {
        let mut h = FxHasher::default();
        h.write_u64(self.seed);
        h.write_usize(columns.len());
        for &c in columns {
            let (word, sym) = row.word(c);
            h.write_u64(u64::from(sym));
            h.write_u64(word);
        }
        let (hash, n) = (h.finish(), self.n as u64);
        // A mask is the remainder when `n` is a power of two.
        (if n.is_power_of_two() { hash & (n - 1) } else { hash % n }) as usize
    }

    fn describe(&self) -> String {
        format!("hash mod {}", self.n)
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_HASH_MOD);
        wire::put_uv(buf, self.n as u64);
        wire::put_uv(buf, self.seed);
        true
    }
}

/// Order-invariant hash partition: `h(ā) = (Σ hash(a_k)) mod n`.
///
/// Realizes Theorem 3: when the discriminating positions lie on a cycle of
/// the dataflow graph, the multiset of values at those positions is
/// preserved from consumed tuple to produced tuple, so a symmetric `h`
/// keeps every derivation on one processor.
#[derive(Debug, Clone)]
pub struct SymmetricHashMod {
    n: usize,
    seed: u64,
}

impl SymmetricHashMod {
    /// A symmetric hash partition over `n` processors.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        SymmetricHashMod { n, seed }
    }
}

impl Discriminator for SymmetricHashMod {
    fn processors(&self) -> usize {
        self.n
    }

    fn assign(&self, ground: &[Value]) -> usize {
        let sum: u64 = ground
            .iter()
            .map(|v| hash_one(&(self.seed, v)))
            .fold(0u64, u64::wrapping_add);
        (sum % self.n as u64) as usize
    }

    fn describe(&self) -> String {
        format!("symmetric hash mod {}", self.n)
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_SYMMETRIC);
        wire::put_uv(buf, self.n as u64);
        wire::put_uv(buf, self.seed);
        true
    }
}

/// Example 6's function: `h(a₁…a_L) = (g(a₁), …, g(a_L))`, a bit string
/// read big-endian as the processor index; `2^L` processors.
#[derive(Debug, Clone)]
pub struct BitVector {
    g: BitFn,
    len: usize,
}

impl BitVector {
    /// Bit-vector function over sequences of length `len`.
    pub fn new(g: BitFn, len: usize) -> Self {
        assert!((1..=16).contains(&len), "2^len processors must stay sane");
        BitVector { g, len }
    }

    /// Render a processor index as the paper's bit-string, e.g. `(01)`.
    pub fn processor_name(&self, index: usize) -> String {
        let mut s = String::with_capacity(self.len + 2);
        s.push('(');
        for k in 0..self.len {
            let bit = (index >> (self.len - 1 - k)) & 1;
            s.push(if bit == 1 { '1' } else { '0' });
        }
        s.push(')');
        s
    }
}

impl Discriminator for BitVector {
    fn processors(&self) -> usize {
        1 << self.len
    }

    fn assign(&self, ground: &[Value]) -> usize {
        debug_assert_eq!(ground.len(), self.len);
        ground
            .iter()
            .fold(0usize, |acc, &v| (acc << 1) | self.g.bit(v) as usize)
    }

    fn describe(&self) -> String {
        format!("(g(a1),…,g(a{})) bit vector", self.len)
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_BIT_VECTOR);
        wire::put_uv(buf, self.g.seed);
        wire::put_uv(buf, self.len as u64);
        true
    }
}

/// Example 7's function: `h(a₁…a_L) = Σ c_k · g(a_k)`; the processor set
/// is the set of achievable sums (e.g. `{0, 1, −1, 2}` for `+1 −1 +1`),
/// indexed in sorted order.
#[derive(Debug, Clone)]
pub struct Linear {
    g: BitFn,
    coefficients: Vec<i64>,
    /// Sorted distinct achievable values; index = processor id.
    values: Vec<i64>,
}

impl Linear {
    /// Linear function with the given ±1 (or any integer) coefficients.
    pub fn new(g: BitFn, coefficients: Vec<i64>) -> Self {
        assert!(!coefficients.is_empty() && coefficients.len() <= 20);
        let values = achievable_sums(&coefficients);
        Linear {
            g,
            coefficients,
            values,
        }
    }

    /// The achievable sums, sorted: the paper's processor set `P`.
    pub fn processor_values(&self) -> &[i64] {
        &self.values
    }

    /// Processor index of an achievable sum.
    pub fn processor_of_value(&self, value: i64) -> Option<usize> {
        self.values.binary_search(&value).ok()
    }

    /// The coefficients `c_k`.
    pub fn coefficients(&self) -> &[i64] {
        &self.coefficients
    }
}

/// All sums `Σ c_k·b_k` over `b ∈ {0,1}^L`, sorted and deduplicated.
pub fn achievable_sums(coefficients: &[i64]) -> Vec<i64> {
    let mut values = vec![0i64];
    for &c in coefficients {
        let mut next = Vec::with_capacity(values.len() * 2);
        for &v in &values {
            next.push(v);
            next.push(v + c);
        }
        next.sort_unstable();
        next.dedup();
        values = next;
    }
    values
}

impl Discriminator for Linear {
    fn processors(&self) -> usize {
        self.values.len()
    }

    fn assign(&self, ground: &[Value]) -> usize {
        debug_assert_eq!(ground.len(), self.coefficients.len());
        let sum: i64 = ground
            .iter()
            .zip(&self.coefficients)
            .map(|(&v, &c)| c * self.g.bit(v) as i64)
            .sum();
        self.processor_of_value(sum)
            .expect("every bit assignment yields an achievable sum")
    }

    fn describe(&self) -> String {
        let terms: Vec<String> = self
            .coefficients
            .iter()
            .enumerate()
            .map(|(k, c)| match c {
                1 => format!("+g(a{})", k + 1),
                -1 => format!("-g(a{})", k + 1),
                c => format!("{:+}·g(a{})", c, k + 1),
            })
            .collect();
        format!("linear {}", terms.join(" "))
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_LINEAR);
        wire::put_uv(buf, self.g.seed);
        wire::put_uv(buf, self.coefficients.len() as u64);
        for &c in &self.coefficients {
            wire::put_sv(buf, c);
        }
        true
    }
}

/// Example 2's function: `h(t) = i ⇔ t ∈ fragmentⁱ`. Only the site
/// storing the fragment can evaluate membership, so this function is not
/// locally evaluable and forces broadcasting.
#[derive(Debug, Clone)]
pub struct FragmentOwner {
    fragmentation: Arc<Fragmentation>,
}

impl FragmentOwner {
    /// Ownership function of an existing fragmentation.
    pub fn new(fragmentation: Arc<Fragmentation>) -> Self {
        FragmentOwner { fragmentation }
    }
}

impl Discriminator for FragmentOwner {
    fn processors(&self) -> usize {
        self.fragmentation.len()
    }

    fn assign(&self, ground: &[Value]) -> usize {
        // Tuples outside every fragment can never fire a processing rule;
        // parking them on processor 0 is safe and keeps `assign` total.
        self.fragmentation
            .owner_of(&Tuple::new(ground))
            .unwrap_or(0)
    }

    fn assign_words(&self, row: &Tuple, columns: &[usize]) -> usize {
        self.fragmentation.owner_of(&row.project(columns)).unwrap_or(0)
    }

    fn locally_evaluable(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("fragment owner over {} fragments", self.fragmentation.len())
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        // The fragments themselves travel: ownership is defined by
        // membership, so the function *is* the data.
        buf.push(wire::DISC_FRAGMENT_OWNER);
        wire::put_uv(buf, self.fragmentation.len() as u64);
        let arity = self
            .fragmentation
            .fragments()
            .first()
            .map_or(0, |f| f.arity());
        wire::put_uv(buf, arity as u64);
        for fragment in self.fragmentation.fragments() {
            wire::put_uv(buf, fragment.len() as u64);
            for tuple in fragment.iter() {
                for value in tuple.iter() {
                    wire::put_value(buf, value);
                }
            }
        }
        true
    }
}

/// `h_i(x) = i` — route everything to a fixed processor (§6: with every
/// processor using its own constant, no tuple ever leaves its producer).
#[derive(Debug, Clone)]
pub struct Constant {
    n: usize,
    target: usize,
}

impl Constant {
    /// The constant function onto `target` out of `n` processors.
    pub fn new(n: usize, target: usize) -> Self {
        assert!(target < n);
        Constant { n, target }
    }
}

impl Discriminator for Constant {
    fn processors(&self) -> usize {
        self.n
    }

    fn assign(&self, _ground: &[Value]) -> usize {
        self.target
    }

    /// The image is `{target}` whatever is known of the instance.
    fn narrowing_prefix(&self) -> Option<usize> {
        Some(0)
    }

    fn may_assign_prefix(&self, _row: &Tuple, _columns: &[usize], processor: usize) -> bool {
        processor == self.target
    }

    fn describe(&self) -> String {
        format!("constant {}", self.target)
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_CONSTANT);
        wire::put_uv(buf, self.n as u64);
        wire::put_uv(buf, self.target as u64);
        true
    }
}

/// §6 spectrum knob: keep a tuple on `local` with probability `alpha`
/// (decided by a deterministic hash of the tuple), otherwise defer to
/// `base`. `alpha = 0` reproduces the non-redundant scheme, `alpha = 1`
/// the redundant zero-communication scheme.
#[derive(Clone)]
pub struct Mixed {
    local: usize,
    base: DiscriminatorRef,
    alpha: f64,
    seed: u64,
}

impl Mixed {
    /// Keep-local mix for processor `local`.
    pub fn new(local: usize, base: DiscriminatorRef, alpha: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        assert!(local < base.processors());
        Mixed {
            local,
            base,
            alpha,
            seed,
        }
    }
}

impl Discriminator for Mixed {
    fn processors(&self) -> usize {
        self.base.processors()
    }

    fn assign(&self, ground: &[Value]) -> usize {
        let draw = hash_one(&(self.seed, ground)) as f64 / u64::MAX as f64;
        if draw < self.alpha {
            self.local
        } else {
            self.base.assign(ground)
        }
    }

    fn describe(&self) -> String {
        format!(
            "keep-local(p={}, α={:.2}) else {}",
            self.local,
            self.alpha,
            self.base.describe()
        )
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_MIXED);
        wire::put_uv(buf, self.local as u64);
        wire::put_uv(buf, self.alpha.to_bits());
        wire::put_uv(buf, self.seed);
        self.base.wire_encode_into(buf)
    }
}

/// Skew-aware hash partition over an *extended* discriminating sequence
/// (ROADMAP item 4 / §6 `R_i` trade-off).
///
/// The sequence is `key ++ rest`: the first `key_len` positions are the
/// join key the classic [`HashMod`] would partition on, the remainder are
/// the other variables of the recursive atom. Cold keys route exactly like
/// `HashMod` on the key prefix, so the scheme degenerates to the uniform
/// plan when no skew is detected. Keys sampled as *hot* at compile time
/// carry an explicit split set of `k` processors, and each full instance
/// picks one member by a secondary hash over the whole sequence — the
/// firings of one hot key spread across `k` workers instead of melting
/// one. Correctness is the standard Theorem 1/2 argument: this is just a
/// deterministic total function over a longer valid discriminating
/// sequence. The price is §6's `R_i` redundancy: the complementary base
/// fragment of a hot key must be replicated to every processor in its
/// split set, which [`Discriminator::may_assign_prefix`] exposes to the
/// fragmenter.
#[derive(Debug, Clone)]
pub struct SkewAwareHashMod {
    n: usize,
    key_len: usize,
    seed: u64,
    secondary_seed: u64,
    /// Hot keys with their split sets, sorted by key for deterministic
    /// lookup and wire encoding. Split sets are sorted, deduplicated, and
    /// non-empty, with every member `< n`.
    hot: Vec<(Vec<Value>, Vec<usize>)>,
}

impl SkewAwareHashMod {
    /// A skew-aware partition over `n` processors with a `key_len`-value
    /// key prefix and no hot keys (behaves exactly like [`HashMod`] over
    /// the prefix).
    pub fn new(n: usize, key_len: usize, seed: u64, secondary_seed: u64) -> Self {
        assert!(n >= 1, "need at least one processor");
        assert!(key_len >= 1, "key prefix must be non-empty");
        SkewAwareHashMod {
            n,
            key_len,
            seed,
            secondary_seed,
            hot: Vec::new(),
        }
    }

    /// Register hot keys with their split sets. Keys must have exactly
    /// `key_len` values; split sets are sorted and deduplicated, must be
    /// non-empty, and every member must be a valid processor.
    pub fn with_hot_keys(mut self, hot: impl IntoIterator<Item = (Vec<Value>, Vec<usize>)>) -> Self {
        for (key, mut targets) in hot {
            assert_eq!(key.len(), self.key_len, "hot key length mismatch");
            targets.sort_unstable();
            targets.dedup();
            assert!(!targets.is_empty(), "hot key needs at least one target");
            assert!(
                targets.iter().all(|&t| t < self.n),
                "hot key target out of range"
            );
            self.hot.push((key, targets));
        }
        self.hot.sort();
        self.hot.dedup_by(|a, b| a.0 == b.0);
        self
    }

    /// Number of hot keys carrying a split set — the `hot_keys_split`
    /// figure surfaced in `--stats`.
    pub fn hot_key_count(&self) -> usize {
        self.hot.len()
    }

    /// The base assignment of a key prefix, ignoring hot-key splitting.
    fn base_assign(&self, key: &[Value]) -> usize {
        (hash_one(&(self.seed, key)) % self.n as u64) as usize
    }

    /// The split set of a hot key, if the key is hot.
    fn split_set(&self, key: &[Value]) -> Option<&[usize]> {
        self.hot
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.hot[i].1.as_slice())
    }
}

impl Discriminator for SkewAwareHashMod {
    fn processors(&self) -> usize {
        self.n
    }

    fn assign(&self, ground: &[Value]) -> usize {
        debug_assert!(ground.len() >= self.key_len);
        let key = &ground[..self.key_len.min(ground.len())];
        match self.split_set(key) {
            Some(targets) => {
                let pick = hash_one(&(self.secondary_seed, ground)) % targets.len() as u64;
                targets[pick as usize]
            }
            None => self.base_assign(key),
        }
    }

    fn narrowing_prefix(&self) -> Option<usize> {
        Some(self.key_len)
    }

    /// A hot key may go to its split set, a cold one to where [`HashMod`]
    /// over the key sends it — decided on the row's words.
    fn may_assign_prefix(&self, row: &Tuple, columns: &[usize], processor: usize) -> bool {
        let Some(key) = columns.get(..self.key_len) else {
            return true;
        };
        let hot = self.hot.binary_search_by(|(k, _)| k.iter().copied().cmp(key.iter().map(|&c| row.get(c))));
        match hot {
            Ok(i) => self.hot[i].1.contains(&processor),
            Err(_) => HashMod::new(self.n, self.seed).assign_words(row, key) == processor,
        }
    }

    fn describe(&self) -> String {
        format!(
            "skew-aware hash mod {} (key {}, {} hot)",
            self.n,
            self.key_len,
            self.hot.len()
        )
    }

    fn wire_encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.push(wire::DISC_SKEW_AWARE);
        wire::put_uv(buf, self.n as u64);
        wire::put_uv(buf, self.key_len as u64);
        wire::put_uv(buf, self.seed);
        wire::put_uv(buf, self.secondary_seed);
        wire::put_uv(buf, self.hot.len() as u64);
        for (key, targets) in &self.hot {
            for &value in key {
                wire::put_value(buf, value);
            }
            wire::put_uv(buf, targets.len() as u64);
            for &t in targets {
                wire::put_uv(buf, t as u64);
            }
        }
        true
    }
}

/// The constraint literal `h(v) = expect` that the rewriting schemes
/// insert into rule bodies.
pub struct DiscConstraint {
    /// The discriminating sequence `v`.
    pub vars: Vec<Variable>,
    /// The function `h`.
    pub disc: DiscriminatorRef,
    /// The processor the instance must hash to.
    pub expect: usize,
}

impl DiscConstraint {
    /// Build the constraint `disc(vars) = expect` as a shareable literal.
    pub fn literal(
        vars: Vec<Variable>,
        disc: DiscriminatorRef,
        expect: usize,
    ) -> gst_frontend::ast::ConstraintRef {
        Arc::new(DiscConstraint { vars, disc, expect })
    }
}

impl Constraint for DiscConstraint {
    fn variables(&self) -> &[Variable] {
        &self.vars
    }

    fn holds(&self, bound: &[Value]) -> bool {
        self.disc.assign(bound) == self.expect
    }

    fn partition(&self, bound: &[Value]) -> Option<usize> {
        Some(self.disc.assign(bound))
    }

    fn partition_words(&self, row: &Tuple, columns: &[usize]) -> Option<usize> {
        Some(self.disc.assign_words(row, columns))
    }

    fn describe(&self, interner: &Interner) -> String {
        let names: Vec<String> = self.vars.iter().map(|v| v.name(interner)).collect();
        format!(
            "h({}) = {} [{}]",
            names.join(", "),
            self.expect,
            self.disc.describe()
        )
    }

    fn wire_encode(&self) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(16 + self.vars.len() * 2);
        buf.push(wire::CONSTRAINT_MAGIC);
        wire::put_uv(&mut buf, self.vars.len() as u64);
        for v in &self.vars {
            wire::put_uv(&mut buf, v.0 .0 as u64);
        }
        wire::put_uv(&mut buf, self.expect as u64);
        if self.disc.wire_encode_into(&mut buf) {
            Some(buf)
        } else {
            None
        }
    }

    fn may_hold_prefix(&self, row: &Tuple, columns: &[usize]) -> bool {
        if columns.len() == self.vars.len() {
            self.disc.assign_words(row, columns) == self.expect
        } else {
            self.disc.may_assign_prefix(row, columns, self.expect)
        }
    }

    fn narrows(&self, bound: usize) -> bool {
        bound == self.vars.len() || self.disc.narrowing_prefix().is_some_and(|len| bound >= len)
    }
}

/// Byte format of serialized constraints (`h(v) = i` literals).
///
/// Shared between [`Discriminator::wire_encode_into`] producers and the
/// [`decode_constraint`] consumer; symbol ids are raw interner indexes, so
/// the decoding side must have rebuilt the sender's symbol table first
/// (the multi-process transport ships it once per job).
///
/// ```text
/// constraint := 0xD5 | nvars:uv | symid:uv × nvars | expect:uv | disc
/// disc       := tag:u8 | body
///   0 HashMod          n:uv seed:uv
///   1 SymmetricHashMod n:uv seed:uv
///   2 BitVector        gseed:uv len:uv
///   3 Linear           gseed:uv ncoef:uv coef:sv × ncoef
///   4 FragmentOwner    nfrags:uv arity:uv × (count:uv (value × arity) × count)
///   5 Constant         n:uv target:uv
///   6 Mixed            local:uv alpha:uv(f64 bits) seed:uv base:disc
///   7 SkewAwareHashMod n:uv keylen:uv seed:uv seed2:uv nhot:uv
///                      × (value × keylen ntargets:uv target:uv × ntargets)
/// value      := 0 int:sv | 1 sym:uv
/// uv = unsigned LEB128 varint, sv = zigzag LEB128 varint
/// ```
mod wire {
    use gst_common::{SymbolId, Value};

    pub(super) const CONSTRAINT_MAGIC: u8 = 0xD5;
    pub(super) const DISC_HASH_MOD: u8 = 0;
    pub(super) const DISC_SYMMETRIC: u8 = 1;
    pub(super) const DISC_BIT_VECTOR: u8 = 2;
    pub(super) const DISC_LINEAR: u8 = 3;
    pub(super) const DISC_FRAGMENT_OWNER: u8 = 4;
    pub(super) const DISC_CONSTANT: u8 = 5;
    pub(super) const DISC_MIXED: u8 = 6;
    pub(super) const DISC_SKEW_AWARE: u8 = 7;
    const VALUE_INT: u8 = 0;
    const VALUE_SYM: u8 = 1;

    pub(super) fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    pub(super) fn put_sv(buf: &mut Vec<u8>, n: i64) {
        put_uv(buf, ((n << 1) ^ (n >> 63)) as u64);
    }

    pub(super) fn put_value(buf: &mut Vec<u8>, value: Value) {
        match value {
            Value::Int(n) => {
                buf.push(VALUE_INT);
                put_sv(buf, n);
            }
            Value::Sym(s) => {
                buf.push(VALUE_SYM);
                put_uv(buf, s.0 as u64);
            }
        }
    }

    /// A bounds-checked reader mirroring the runtime codec's discipline:
    /// truncation and overlong varints yield `None`, never a panic.
    pub(super) struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(super) fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        pub(super) fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        pub(super) fn get_u8(&mut self) -> Option<u8> {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            Some(b)
        }

        pub(super) fn get_uv(&mut self) -> Option<u64> {
            let mut value = 0u64;
            for shift in 0..10 {
                let byte = self.get_u8()?;
                let bits = (byte & 0x7f) as u64;
                if shift == 9 && bits > 1 {
                    return None;
                }
                value |= bits << (shift * 7);
                if byte & 0x80 == 0 {
                    return Some(value);
                }
            }
            None
        }

        pub(super) fn get_sv(&mut self) -> Option<i64> {
            let v = self.get_uv()?;
            Some(((v >> 1) as i64) ^ -((v & 1) as i64))
        }

        pub(super) fn get_value(&mut self) -> Option<Value> {
            match self.get_u8()? {
                VALUE_INT => Some(Value::Int(self.get_sv()?)),
                VALUE_SYM => {
                    let v = self.get_uv()?;
                    u32::try_from(v).ok().map(|s| Value::Sym(SymbolId(s)))
                }
                _ => None,
            }
        }
    }
}

/// Sanity bound shared with the runtime codec: no real scheme uses 65k
/// processors, variables, or coefficients.
const IMPLAUSIBLE: usize = 1 << 16;

fn corrupt(what: &str) -> Error {
    Error::Discriminator(format!("corrupt constraint encoding: {what}"))
}

fn decode_disc(r: &mut wire::Reader<'_>, depth: usize) -> Result<DiscriminatorRef> {
    if depth > 8 {
        return Err(corrupt("discriminator nesting too deep"));
    }
    let bounded = |name: &str, v: u64| -> Result<usize> {
        let v = v as usize;
        if v == 0 || v > IMPLAUSIBLE {
            return Err(corrupt(&format!("implausible {name} {v}")));
        }
        Ok(v)
    };
    match r.get_u8() {
        None => Err(corrupt("truncated discriminator tag")),
        Some(wire::DISC_HASH_MOD) => {
            let n = bounded("processor count", r.get_uv().ok_or_else(|| corrupt("truncated HashMod"))?)?;
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated HashMod"))?;
            Ok(Arc::new(HashMod::new(n, seed)))
        }
        Some(wire::DISC_SYMMETRIC) => {
            let n = bounded("processor count", r.get_uv().ok_or_else(|| corrupt("truncated SymmetricHashMod"))?)?;
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated SymmetricHashMod"))?;
            Ok(Arc::new(SymmetricHashMod::new(n, seed)))
        }
        Some(wire::DISC_BIT_VECTOR) => {
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated BitVector"))?;
            let len = r.get_uv().ok_or_else(|| corrupt("truncated BitVector"))? as usize;
            if !(1..=16).contains(&len) {
                return Err(corrupt("BitVector length out of range"));
            }
            Ok(Arc::new(BitVector::new(BitFn::new(seed), len)))
        }
        Some(wire::DISC_LINEAR) => {
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated Linear"))?;
            let ncoef = r.get_uv().ok_or_else(|| corrupt("truncated Linear"))? as usize;
            if !(1..=20).contains(&ncoef) {
                return Err(corrupt("Linear coefficient count out of range"));
            }
            let mut coefficients = Vec::with_capacity(ncoef);
            for _ in 0..ncoef {
                coefficients.push(r.get_sv().ok_or_else(|| corrupt("truncated Linear coefficient"))?);
            }
            Ok(Arc::new(Linear::new(BitFn::new(seed), coefficients)))
        }
        Some(wire::DISC_FRAGMENT_OWNER) => {
            let nfrags = bounded("fragment count", r.get_uv().ok_or_else(|| corrupt("truncated FragmentOwner"))?)?;
            let arity = r.get_uv().ok_or_else(|| corrupt("truncated FragmentOwner"))? as usize;
            if arity > IMPLAUSIBLE {
                return Err(corrupt("implausible fragment arity"));
            }
            let mut fragments = Vec::with_capacity(nfrags);
            for _ in 0..nfrags {
                let count = r.get_uv().ok_or_else(|| corrupt("truncated fragment"))? as usize;
                // Every value costs at least one tag byte, so a lying
                // count is rejected before any allocation is sized by it.
                if count
                    .checked_mul(arity.max(1))
                    .is_none_or(|b| b > r.remaining() + 1)
                {
                    return Err(corrupt("fragment count implausible for payload size"));
                }
                let mut fragment = gst_storage::Relation::with_capacity(arity, count);
                let mut row = Vec::with_capacity(arity);
                for _ in 0..count {
                    row.clear();
                    for _ in 0..arity {
                        row.push(r.get_value().ok_or_else(|| corrupt("truncated fragment tuple"))?);
                    }
                    fragment
                        .insert(Tuple::new(&row))
                        .map_err(|e| corrupt(&format!("fragment tuple rejected: {e}")))?;
                }
                fragments.push(fragment);
            }
            let fragmentation = Fragmentation::from_fragments(fragments)
                .map_err(|e| corrupt(&format!("fragmentation rejected: {e}")))?;
            Ok(Arc::new(FragmentOwner::new(Arc::new(fragmentation))))
        }
        Some(wire::DISC_CONSTANT) => {
            let n = bounded("processor count", r.get_uv().ok_or_else(|| corrupt("truncated Constant"))?)?;
            let target = r.get_uv().ok_or_else(|| corrupt("truncated Constant"))? as usize;
            if target >= n {
                return Err(corrupt("Constant target out of range"));
            }
            Ok(Arc::new(Constant::new(n, target)))
        }
        Some(wire::DISC_MIXED) => {
            let local = r.get_uv().ok_or_else(|| corrupt("truncated Mixed"))? as usize;
            let alpha = f64::from_bits(r.get_uv().ok_or_else(|| corrupt("truncated Mixed"))?);
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated Mixed"))?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err(corrupt("Mixed alpha out of range"));
            }
            let base = decode_disc(r, depth + 1)?;
            if local >= base.processors() {
                return Err(corrupt("Mixed local processor out of range"));
            }
            Ok(Arc::new(Mixed::new(local, base, alpha, seed)))
        }
        Some(wire::DISC_SKEW_AWARE) => {
            let n = bounded("processor count", r.get_uv().ok_or_else(|| corrupt("truncated SkewAware"))?)?;
            let key_len = bounded("key length", r.get_uv().ok_or_else(|| corrupt("truncated SkewAware"))?)?;
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated SkewAware"))?;
            let secondary_seed = r.get_uv().ok_or_else(|| corrupt("truncated SkewAware"))?;
            let nhot = r.get_uv().ok_or_else(|| corrupt("truncated SkewAware"))? as usize;
            // Every hot entry costs at least keylen value tags plus one
            // count byte, so a lying count is rejected before any
            // allocation is sized by it.
            if nhot
                .checked_mul(key_len + 1)
                .is_none_or(|b| b > r.remaining() + 1)
            {
                return Err(corrupt("hot key count implausible for payload size"));
            }
            let mut hot = Vec::with_capacity(nhot);
            for _ in 0..nhot {
                let mut key = Vec::with_capacity(key_len);
                for _ in 0..key_len {
                    key.push(r.get_value().ok_or_else(|| corrupt("truncated hot key"))?);
                }
                let ntargets = r.get_uv().ok_or_else(|| corrupt("truncated hot key targets"))? as usize;
                if ntargets == 0 || ntargets > n || ntargets > r.remaining() + 1 {
                    return Err(corrupt("hot key target count out of range"));
                }
                let mut targets = Vec::with_capacity(ntargets);
                for _ in 0..ntargets {
                    let t = r.get_uv().ok_or_else(|| corrupt("truncated hot key target"))? as usize;
                    if t >= n {
                        return Err(corrupt("hot key target out of range"));
                    }
                    targets.push(t);
                }
                hot.push((key, targets));
            }
            Ok(Arc::new(
                SkewAwareHashMod::new(n, key_len, seed, secondary_seed).with_hot_keys(hot),
            ))
        }
        Some(tag) => Err(corrupt(&format!("unknown discriminator tag {tag}"))),
    }
}

/// Decode a constraint serialized by [`Constraint::wire_encode`] back into
/// an evaluable literal.
///
/// This is the callback a multi-process transport injects into its worker
/// loop (`gst-runtime` cannot depend on this crate, so the binary wires
/// the two together). Malformed input never panics: every failure is a
/// typed [`Error::Discriminator`].
///
/// # Errors
/// Rejects truncated input, unknown tags, out-of-range parameters, and
/// trailing bytes.
pub fn decode_constraint(bytes: &[u8]) -> Result<gst_frontend::ast::ConstraintRef> {
    let mut r = wire::Reader::new(bytes);
    match r.get_u8() {
        Some(wire::CONSTRAINT_MAGIC) => {}
        Some(b) => return Err(corrupt(&format!("bad magic byte {b:#x}"))),
        None => return Err(corrupt("empty input")),
    }
    let nvars = r.get_uv().ok_or_else(|| corrupt("truncated variable count"))? as usize;
    if nvars > IMPLAUSIBLE || nvars > r.remaining() {
        return Err(corrupt("implausible variable count"));
    }
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let raw = r.get_uv().ok_or_else(|| corrupt("truncated variable id"))?;
        let raw = u32::try_from(raw).map_err(|_| corrupt("variable id overflows u32"))?;
        vars.push(Variable(gst_common::SymbolId(raw)));
    }
    let expect = r.get_uv().ok_or_else(|| corrupt("truncated expected processor"))? as usize;
    let disc = decode_disc(&mut r, 0)?;
    if r.remaining() > 0 {
        return Err(corrupt("trailing bytes"));
    }
    if expect >= disc.processors() {
        return Err(corrupt("expected processor out of range"));
    }
    Ok(DiscConstraint::literal(vars, disc, expect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;
    use gst_storage::{hash_fragment, Relation};

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn hash_mod_is_deterministic_and_in_range() {
        let h = HashMod::new(4, 1);
        for k in 0..100i64 {
            let a = h.assign(&vals(&[k, k + 1]));
            assert!(a < 4);
            assert_eq!(a, h.assign(&vals(&[k, k + 1])));
        }
    }

    #[test]
    fn hash_mod_spreads() {
        let h = HashMod::new(4, 1);
        let mut hit = [false; 4];
        for k in 0..64i64 {
            hit[h.assign(&vals(&[k]))] = true;
        }
        assert!(hit.iter().all(|&b| b), "all processors used");
    }

    #[test]
    fn symmetric_is_order_invariant() {
        let h = SymmetricHashMod::new(8, 3);
        for k in 0..50i64 {
            assert_eq!(h.assign(&vals(&[k, k + 7])), h.assign(&vals(&[k + 7, k])));
        }
    }

    #[test]
    fn plain_hash_is_order_sensitive_somewhere() {
        let h = HashMod::new(8, 3);
        let sensitive = (0..100i64)
            .any(|k| h.assign(&vals(&[k, k + 1])) != h.assign(&vals(&[k + 1, k])));
        assert!(sensitive);
    }

    #[test]
    fn bit_vector_composes_g() {
        let g = BitFn::new(5);
        let h = BitVector::new(g, 2);
        assert_eq!(h.processors(), 4);
        for a in 0..10i64 {
            for b in 0..10i64 {
                let expect =
                    ((g.bit(Value::Int(a)) as usize) << 1) | g.bit(Value::Int(b)) as usize;
                assert_eq!(h.assign(&vals(&[a, b])), expect);
            }
        }
        assert_eq!(h.processor_name(0b10), "(10)");
        assert_eq!(h.processor_name(0), "(00)");
    }

    #[test]
    fn linear_matches_example7() {
        // h = g(a1) - g(a2) + g(a3): P = {-1, 0, 1, 2} (sorted).
        let h = Linear::new(BitFn::new(9), vec![1, -1, 1]);
        assert_eq!(h.processor_values(), &[-1, 0, 1, 2]);
        assert_eq!(h.processors(), 4);
        // Every assignment lands on an achievable value.
        for a in 0..20i64 {
            let p = h.assign(&vals(&[a, a + 1, a + 2]));
            assert!(p < 4);
        }
        assert_eq!(h.processor_of_value(2), Some(3));
        assert_eq!(h.processor_of_value(5), None);
    }

    #[test]
    fn achievable_sums_enumerates() {
        assert_eq!(achievable_sums(&[1, 1]), vec![0, 1, 2]);
        assert_eq!(achievable_sums(&[1, -1]), vec![-1, 0, 1]);
        assert_eq!(achievable_sums(&[2]), vec![0, 2]);
    }

    #[test]
    fn fragment_owner_matches_fragments() {
        let rel: Relation = (0..40i64).map(|k| ituple![k, k + 1]).collect();
        let frag = Arc::new(hash_fragment(&rel, &[0], 4).unwrap());
        let h = FragmentOwner::new(frag.clone());
        assert!(!h.locally_evaluable());
        for t in rel.iter() {
            let owner = h.assign(&t.iter().collect::<Vec<_>>());
            assert!(frag.fragment(owner).contains(t));
        }
        // Unknown tuples park on 0.
        assert_eq!(h.assign(&vals(&[999, 999])), 0);
    }

    #[test]
    fn constant_routes_to_target() {
        let h = Constant::new(5, 3);
        assert_eq!(h.assign(&vals(&[1])), 3);
        assert_eq!(h.assign(&vals(&[99, 4])), 3);
        assert_eq!(h.processors(), 5);
    }

    #[test]
    fn mixed_extremes_degenerate() {
        let base: DiscriminatorRef = Arc::new(HashMod::new(4, 2));
        let all_local = Mixed::new(1, base.clone(), 1.0, 7);
        let never_local = Mixed::new(1, base.clone(), 0.0, 7);
        for k in 0..50i64 {
            let v = vals(&[k, k * 3]);
            assert_eq!(all_local.assign(&v), 1);
            assert_eq!(never_local.assign(&v), base.assign(&v));
        }
    }

    #[test]
    fn mixed_midpoint_is_a_true_mix() {
        let base: DiscriminatorRef = Arc::new(HashMod::new(4, 2));
        let mixed = Mixed::new(1, base.clone(), 0.5, 7);
        let mut kept = 0;
        let mut routed = 0;
        for k in 0..400i64 {
            let v = vals(&[k]);
            let a = mixed.assign(&v);
            if a == base.assign(&v) && a != 1 {
                routed += 1;
            } else if a == 1 {
                kept += 1;
            }
        }
        assert!(kept > 100, "keeps a fair share: {kept}");
        assert!(routed > 100, "routes a fair share: {routed}");
    }

    #[test]
    fn constraint_literal_evaluates() {
        let interner = Interner::new();
        let x = Variable(interner.intern("X"));
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 0));
        let expect = h.assign(&vals(&[42]));
        let c = DiscConstraint::literal(vec![x], h, expect);
        assert!(c.holds(&vals(&[42])));
        let miss = (0..10i64)
            .map(Value::Int)
            .any(|v| !c.holds(&[v]));
        assert!(miss, "some value hashes elsewhere");
        assert!(c.describe(&interner).contains("h(X)"));
    }

    #[test]
    fn bitfn_seeds_differ() {
        let g1 = BitFn::new(1);
        let g2 = BitFn::new(2);
        let differs = (0..64i64).any(|k| g1.bit(Value::Int(k)) != g2.bit(Value::Int(k)));
        assert!(differs);
    }

    #[test]
    fn skew_aware_cold_keys_match_prefix_hash() {
        let h = SkewAwareHashMod::new(4, 1, 0x5A, 0x5B);
        let plain = HashMod::new(4, 0x5A);
        for k in 0..100i64 {
            // Cold key routing depends only on the key prefix, matching a
            // plain hash of the one-value key.
            let a = h.assign(&vals(&[k, 7]));
            assert_eq!(a, h.assign(&vals(&[k, 99])));
            assert_eq!(a, plain.assign(&vals(&[k])));
        }
    }

    #[test]
    fn skew_aware_splits_hot_key_across_targets() {
        let h = SkewAwareHashMod::new(8, 1, 1, 2)
            .with_hot_keys([(vals(&[0]), vec![1, 3, 5])]);
        let mut hit = [0usize; 8];
        for y in 0..300i64 {
            let a = h.assign(&vals(&[0, y]));
            assert!([1, 3, 5].contains(&a), "hot key stays in its split set");
            assert_eq!(a, h.assign(&vals(&[0, y])), "deterministic");
            hit[a] += 1;
        }
        assert!(hit[1] > 50 && hit[3] > 50 && hit[5] > 50, "spread: {hit:?}");
        // Cold keys are untouched by the hot table.
        let cold = SkewAwareHashMod::new(8, 1, 1, 2);
        for k in 1..50i64 {
            assert_eq!(h.assign(&vals(&[k, 0])), cold.assign(&vals(&[k, 0])));
        }
    }

    #[test]
    fn skew_aware_prefix_is_consistent_with_assign() {
        let h = SkewAwareHashMod::new(6, 1, 3, 4)
            .with_hot_keys([(vals(&[2]), vec![0, 4]), (vals(&[5]), vec![1, 2, 3])]);
        let admitted = |k: i64| (0..6).filter(|&p| h.may_assign_prefix(&ituple![k], &[0], p)).collect::<Vec<_>>();
        assert_eq!(h.narrowing_prefix(), Some(1));
        assert!((0..6).all(|p| h.may_assign_prefix(&ituple![2], &[], p)), "short prefix narrows nothing");
        for k in 0..20i64 {
            let targets = admitted(k);
            for y in 0..40i64 {
                let a = h.assign(&vals(&[k, y]));
                assert!(targets.contains(&a), "assign ∈ the admitted set");
            }
        }
        assert_eq!(admitted(2), vec![0, 4]);
        assert_eq!(admitted(5).len(), 3);
        assert_eq!(admitted(7), vec![h.assign(&vals(&[7]))]);
    }

    #[test]
    fn skew_aware_constraint_prefix_replicates_hot_keys() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let y = Variable(interner.intern("Y"));
        let h: DiscriminatorRef = Arc::new(
            SkewAwareHashMod::new(4, 1, 9, 10).with_hot_keys([(vals(&[1]), vec![0, 2])]),
        );
        for expect in 0..4 {
            let c = DiscConstraint::literal(vec![z, y], h.clone(), expect);
            // Hot key 1 may land on workers 0 and 2 only.
            assert_eq!(c.may_hold_prefix(&ituple![1, 8], &[0]), expect == 0 || expect == 2);
            // Cold keys land exactly where the base hash says.
            let base = HashMod::new(4, 9).assign(&vals(&[3]));
            assert_eq!(c.may_hold_prefix(&ituple![3, 8], &[0]), expect == base);
            // A full binding decides exactly.
            assert_eq!(c.may_hold_prefix(&ituple![1, 8], &[0, 1]), h.assign(&vals(&[1, 8])) == expect);
            assert!(c.narrows(1) && c.narrows(2));
        }
    }

    #[test]
    fn default_constraint_prefix_is_conservative() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let y = Variable(interner.intern("Y"));
        let h: DiscriminatorRef = Arc::new(HashMod::new(4, 1));
        let c = DiscConstraint::literal(vec![z, y], h, 3);
        // HashMod cannot narrow a prefix, so fragmentation must keep the
        // tuple — and knows so before reading one.
        assert!(c.may_hold_prefix(&ituple![5], &[0]));
        assert!(!c.narrows(1) && c.narrows(2));
    }

    #[test]
    fn skew_aware_wire_roundtrip() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let y = Variable(interner.intern("Y"));
        let h: DiscriminatorRef = Arc::new(
            SkewAwareHashMod::new(4, 1, 0xAB, 0xCD)
                .with_hot_keys([(vals(&[0]), vec![0, 1, 2, 3]), (vals(&[-7]), vec![1, 3])]),
        );
        let c = DiscConstraint::literal(vec![z, y], h.clone(), 2);
        let bytes = c.wire_encode().expect("skew-aware travels");
        let decoded = decode_constraint(&bytes).expect("roundtrip");
        assert_eq!(decoded.variables(), c.variables());
        for k in -10..10i64 {
            for v in 0..10i64 {
                let ground = vals(&[k, v]);
                assert_eq!(decoded.holds(&ground), c.holds(&ground));
                assert_eq!(
                    decoded.may_hold_prefix(&ituple![k, v], &[0]),
                    c.may_hold_prefix(&ituple![k, v], &[0])
                );
            }
        }
    }

    #[test]
    fn skew_aware_decode_rejects_corruption() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let h: DiscriminatorRef =
            Arc::new(SkewAwareHashMod::new(4, 1, 1, 2).with_hot_keys([(vals(&[0]), vec![1, 2])]));
        let bytes = DiscConstraint::literal(vec![z], h, 1)
            .wire_encode()
            .unwrap();
        // Truncations never panic.
        for cut in 0..bytes.len() {
            assert!(decode_constraint(&bytes[..cut]).is_err());
        }
        // A lying hot-key count is rejected by the plausibility bound.
        let mut lying = bytes.clone();
        // Find the nhot byte: magic, nvars=1, symid, expect=1, tag=7,
        // n=4, keylen=1, seed=1, seed2=2, nhot — position 9.
        lying[9] = 0x7f;
        assert!(decode_constraint(&lying).is_err());
    }
}
