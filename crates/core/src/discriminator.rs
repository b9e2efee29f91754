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

use gst_common::{Error, FxHasher, Interner, Result, Tuple, Value, Word};
use gst_frontend::{Constraint, Variable};
use gst_runtime::codec::{self, IMPLAUSIBLE};
use gst_storage::Fragmentation;

/// A discriminating function: ground tuple → processor. It has one
/// entrance, [`Discriminator::assign`], which reads the instance as the
/// words a row stores, so a route, a filter and the fragmenter evaluate
/// the same function the same way.
pub trait Discriminator: Send + Sync {
    /// Number of processors in the range `P = {0, …, processors()-1}`.
    fn processors(&self) -> usize;

    /// Assign a ground instance to a processor. The instance is given as
    /// the [`Word`]s a row's columns and a join's slots hold; a caller
    /// holding [`Value`]s maps them through [`Value::word`].
    fn assign(&self, ground: &[Word]) -> usize;

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

    /// The processors [`Discriminator::assign`] can name — all of them
    /// (the default), or fewer for a function whose image is smaller. A
    /// route built on this function sends to these only.
    fn image(&self) -> Vec<usize> {
        (0..self.processors()).collect()
    }
}

/// Shared handle to a discriminating function.
pub type DiscriminatorRef = Arc<dyn Discriminator>;

/// Whether `a` and `b` are one function: one allocation, or two whose
/// wire encodings — kind, `n`, seed, coefficients, fragment rows — are
/// equal bytes, which [`decode_constraint`] rebuilds into one function. A
/// function that cannot encode itself is only itself.
pub fn same_function(a: &DiscriminatorRef, b: &DiscriminatorRef) -> bool {
    let encoding = |h: &DiscriminatorRef| {
        let mut buf = Vec::new();
        h.wire_encode_into(&mut buf).then_some(buf)
    };
    Arc::ptr_eq(a, b) || encoding(a).is_some_and(|bytes| encoding(b) == Some(bytes))
}

impl std::fmt::Debug for dyn Discriminator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

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

    /// Evaluate `g(value) ∈ {0, 1}` of the value whose word is `word`.
    pub fn bit(&self, word: Word) -> u8 {
        // Take the top bit: FxHash's final multiply mixes high bits far
        // better than low ones (the low bit survives odd multiplication).
        (hash_word(self.seed, word) >> 63) as u8
    }
}

/// Feed one value, as its word, to `h` the way its derived `Hash` does:
/// the variant index, then the payload (a `Sym`'s `u32` id hashes as its
/// zero-extended word).
fn write_word(h: &mut FxHasher, (word, sym): Word) {
    h.write_u64(u64::from(sym));
    h.write_u64(word);
}

/// The hash of a seeded ground instance: `hash_one(&(seed, ground))` over
/// the values whose words are `words`, replayed step for step — the seed,
/// the slice's length prefix, then each value.
fn hash_words(seed: u64, words: &[Word]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_usize(words.len());
    words.iter().for_each(|&word| write_word(&mut h, word));
    h.finish()
}

/// The hash of one seeded value: `hash_one(&(seed, value))`, replayed —
/// the seed, then the value, with no length prefix.
fn hash_word(seed: u64, word: Word) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    write_word(&mut h, word);
    h.finish()
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

    fn assign(&self, ground: &[Word]) -> usize {
        let (hash, n) = (hash_words(self.seed, ground), self.n as u64);
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

    fn assign(&self, ground: &[Word]) -> usize {
        let sum: u64 = ground
            .iter()
            .map(|&w| hash_word(self.seed, w))
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
    ///
    /// # Errors
    /// [`Error::Discriminator`] unless `len` is 1 to 16: `2^len` processors.
    pub fn new(g: BitFn, len: usize) -> Result<Self> {
        if !(1..=16).contains(&len) {
            return Err(Error::Discriminator(format!(
                "a bit-vector function takes a sequence of 1 to 16 variables (2^len processors), not {len}"
            )));
        }
        Ok(BitVector { g, len })
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

    fn assign(&self, ground: &[Word]) -> usize {
        debug_assert_eq!(ground.len(), self.len);
        ground
            .iter()
            .fold(0usize, |acc, &w| (acc << 1) | self.g.bit(w) as usize)
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
    ///
    /// # Errors
    /// [`Error::Discriminator`] unless there are 1 to 20 coefficients and
    /// every achievable sum fits an `i64`.
    pub fn new(g: BitFn, coefficients: Vec<i64>) -> Result<Self> {
        if !(1..=20).contains(&coefficients.len()) {
            return Err(Error::Discriminator(format!(
                "a linear function takes 1 to 20 coefficients, not {}",
                coefficients.len()
            )));
        }
        let values = achievable_sums(&coefficients).ok_or_else(|| {
            Error::Discriminator(format!("linear coefficients {coefficients:?} have a sum that overflows i64"))
        })?;
        Ok(Linear {
            g,
            coefficients,
            values,
        })
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

/// All sums `Σ c_k·b_k` over `b ∈ {0,1}^L`, sorted and deduplicated;
/// `None` when one overflows `i64`. Every partial sum [`Linear`] adds while
/// it assigns is itself such a sum, so an assignment never overflows.
pub fn achievable_sums(coefficients: &[i64]) -> Option<Vec<i64>> {
    let mut values = vec![0i64];
    for &c in coefficients {
        let mut next = Vec::with_capacity(values.len() * 2);
        for &v in &values {
            next.push(v);
            next.push(v.checked_add(c)?);
        }
        next.sort_unstable();
        next.dedup();
        values = next;
    }
    Some(values)
}

impl Discriminator for Linear {
    fn processors(&self) -> usize {
        self.values.len()
    }

    fn assign(&self, ground: &[Word]) -> usize {
        debug_assert_eq!(ground.len(), self.coefficients.len());
        let sum: i64 = ground
            .iter()
            .zip(&self.coefficients)
            .map(|(&w, &c)| c * self.g.bit(w) as i64)
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

    fn assign(&self, ground: &[Word]) -> usize {
        // Tuples outside every fragment can never fire a processing rule;
        // parking them on processor 0 is safe and keeps `assign` total.
        let tuple: Tuple = ground.iter().map(|&(word, sym)| Value::from_word(word, sym)).collect();
        self.fragmentation.owner_of(&tuple).unwrap_or(0)
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
        for fragment in self.fragmentation.fragments() {
            let tuples: Vec<Tuple> = fragment.iter().cloned().collect();
            match codec::encode_batch(fragment.arity(), &tuples) {
                Ok(batch) => codec::put_bytes(buf, &batch),
                Err(_) => return false,
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

    /// `h_i(x) = i` for every processor `i < n`: §6's per-processor list
    /// under which no tuple leaves its producer.
    pub fn each(n: usize) -> Vec<DiscriminatorRef> {
        (0..n).map(|i| Arc::new(Constant::new(n, i)) as DiscriminatorRef).collect()
    }
}

impl Discriminator for Constant {
    fn processors(&self) -> usize {
        self.n
    }

    fn assign(&self, _ground: &[Word]) -> usize {
        self.target
    }

    fn image(&self) -> Vec<usize> {
        vec![self.target]
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

    fn assign(&self, ground: &[Word]) -> usize {
        let draw = hash_words(self.seed, ground) as f64 / u64::MAX as f64;
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

/// The constraint literal `h(v) = expect` that the rewriting schemes
/// insert into rule bodies.
pub struct DiscConstraint {
    /// The discriminating sequence `v`.
    pub vars: Vec<Variable>,
    /// The function `h`.
    pub disc: DiscriminatorRef,
    /// The processor the instance must hash to.
    pub expect: usize,
    /// The data placement guarantees the literal ([`Constraint::implied`]).
    pub implied: bool,
}

impl DiscConstraint {
    /// Build the constraint `disc(vars) = expect` as a shareable literal.
    pub fn literal(
        vars: Vec<Variable>,
        disc: DiscriminatorRef,
        expect: usize,
    ) -> gst_frontend::ast::ConstraintRef {
        Arc::new(DiscConstraint { vars, disc, expect, implied: false })
    }
}

impl Constraint for DiscConstraint {
    fn variables(&self) -> &[Variable] {
        &self.vars
    }

    fn holds(&self, bound: &[Word]) -> bool {
        self.disc.assign(bound) == self.expect
    }

    fn implied(&self) -> bool {
        self.implied
    }

    fn partition(&self, bound: &[Word]) -> Option<usize> {
        Some(self.disc.assign(bound))
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
        buf.push(u8::from(self.implied));
        if self.disc.wire_encode_into(&mut buf) {
            Some(buf)
        } else {
            None
        }
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
/// constraint := 0xD5 | nvars:uv | symid:uv × nvars | expect:uv | implied:u8 | disc
/// disc       := tag:u8 | body
///   0 HashMod          n:uv seed:uv
///   1 SymmetricHashMod n:uv seed:uv
///   2 BitVector        gseed:uv len:uv
///   3 Linear           gseed:uv ncoef:uv coef:sv × ncoef
///   4 FragmentOwner    nfrags:uv (len:uv batch) × nfrags
///   5 Constant         n:uv target:uv
///   6 Mixed            local:uv alpha:uv(f64 bits) seed:uv base:disc
/// batch      := a fragment's tuples as `gst_runtime::codec::encode_batch`
///               writes them
/// uv = unsigned LEB128 varint, sv = zigzag LEB128 varint
/// ```
mod wire {
    pub(super) use gst_runtime::codec::{put_sv, put_uv, Cursor};

    pub(super) const CONSTRAINT_MAGIC: u8 = 0xD5;
    pub(super) const DISC_HASH_MOD: u8 = 0;
    pub(super) const DISC_SYMMETRIC: u8 = 1;
    pub(super) const DISC_BIT_VECTOR: u8 = 2;
    pub(super) const DISC_LINEAR: u8 = 3;
    pub(super) const DISC_FRAGMENT_OWNER: u8 = 4;
    pub(super) const DISC_CONSTANT: u8 = 5;
    pub(super) const DISC_MIXED: u8 = 6;
}

fn corrupt(what: &str) -> Error {
    Error::Discriminator(format!("corrupt constraint encoding: {what}"))
}

fn decode_disc(r: &mut wire::Cursor<'_>, depth: usize) -> Result<DiscriminatorRef> {
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
            Ok(Arc::new(BitVector::new(BitFn::new(seed), len)?))
        }
        Some(wire::DISC_LINEAR) => {
            let seed = r.get_uv().ok_or_else(|| corrupt("truncated Linear"))?;
            let ncoef = r.get_uv().ok_or_else(|| corrupt("truncated Linear"))?;
            // No buffer is sized by the count: a lying one runs out of bytes.
            let coefficients: Option<Vec<i64>> = (0..ncoef).map(|_| r.get_sv()).collect();
            let coefficients = coefficients.ok_or_else(|| corrupt("truncated Linear coefficient"))?;
            Ok(Arc::new(Linear::new(BitFn::new(seed), coefficients)?))
        }
        Some(wire::DISC_FRAGMENT_OWNER) => {
            let nfrags = bounded("fragment count", r.get_uv().ok_or_else(|| corrupt("truncated FragmentOwner"))?)?;
            let mut fragments = Vec::with_capacity(nfrags);
            for _ in 0..nfrags {
                let batch = r.get_bytes().ok_or_else(|| corrupt("truncated fragment"))?;
                let (arity, _) = codec::peek_batch(batch).map_err(|e| corrupt(&format!("fragment: {e}")))?;
                let mut tuples = codec::decode_batch(batch).map_err(|e| corrupt(&format!("fragment: {e}")))?;
                let mut fragment = gst_storage::Relation::with_capacity(arity, tuples.len());
                fragment.insert_batch(&mut tuples);
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
    let mut r = wire::Cursor::new(bytes);
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
    let implied = match r.get_u8() {
        Some(flag @ (0 | 1)) => flag == 1,
        Some(flag) => return Err(corrupt(&format!("implied flag {flag}"))),
        None => return Err(corrupt("truncated implied flag")),
    };
    let disc = decode_disc(&mut r, 0)?;
    if r.remaining() > 0 {
        return Err(corrupt("trailing bytes"));
    }
    if expect >= disc.processors() {
        return Err(corrupt("expected processor out of range"));
    }
    Ok(Arc::new(DiscConstraint { vars, disc, expect, implied }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;
    use gst_storage::{hash_fragment, Relation};

    fn vals(xs: &[i64]) -> Vec<Word> {
        xs.iter().map(|&x| Value::Int(x).word()).collect()
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
        let h = BitVector::new(g, 2).unwrap();
        assert_eq!(h.processors(), 4);
        for a in 0..10i64 {
            for b in 0..10i64 {
                let expect =
                    ((g.bit(Value::Int(a).word()) as usize) << 1) | g.bit(Value::Int(b).word()) as usize;
                assert_eq!(h.assign(&vals(&[a, b])), expect);
            }
        }
        assert_eq!(h.processor_name(0b10), "(10)");
        assert_eq!(h.processor_name(0), "(00)");
    }

    #[test]
    fn linear_matches_example7() {
        // h = g(a1) - g(a2) + g(a3): P = {-1, 0, 1, 2} (sorted).
        let h = Linear::new(BitFn::new(9), vec![1, -1, 1]).unwrap();
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
        assert_eq!(achievable_sums(&[1, 1]), Some(vec![0, 1, 2]));
        assert_eq!(achievable_sums(&[1, -1]), Some(vec![-1, 0, 1]));
        assert_eq!(achievable_sums(&[2]), Some(vec![0, 2]));
        assert_eq!(achievable_sums(&[i64::MAX, 1]), None);
        assert_eq!(achievable_sums(&[i64::MIN, -1]), None);
        assert!(Linear::new(BitFn::new(1), vec![i64::MAX, i64::MAX]).is_err());
        assert!(Linear::new(BitFn::new(1), vec![]).is_err());
    }

    #[test]
    fn fragment_owner_matches_fragments() {
        let rel: Relation = (0..40i64).map(|k| ituple![k, k + 1]).collect();
        let frag = Arc::new(hash_fragment(&rel, &[0], 4).unwrap());
        let h = FragmentOwner::new(frag.clone());
        assert!(!h.locally_evaluable());
        for t in rel.iter() {
            let owner = h.assign(&t.iter().map(Value::word).collect::<Vec<_>>());
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
        // A route on it sends to its one target; a hash names everyone.
        assert_eq!(h.image(), vec![3]);
        assert_eq!(HashMod::new(3, 0).image(), vec![0, 1, 2]);
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
            .map(|k| Value::Int(k).word())
            .any(|w| !c.holds(&[w]));
        assert!(miss, "some value hashes elsewhere");
        assert!(c.describe(&interner).contains("h(X)"));
    }

    /// Two functions are one when their encodings are: built apart, a
    /// `HashMod` or a `Mixed` over equal bases is the same function, another
    /// seed is not, and a function that cannot encode is only itself.
    #[test]
    fn a_function_is_compared_by_what_it_is() {
        struct Opaque;
        impl Discriminator for Opaque {
            fn processors(&self) -> usize {
                1
            }
            fn assign(&self, _: &[Word]) -> usize {
                0
            }
            fn describe(&self) -> String {
                "opaque".into()
            }
        }
        let hash = |seed| Arc::new(HashMod::new(3, seed)) as DiscriminatorRef;
        let mixed = |seed| Arc::new(Mixed::new(1, hash(seed), 0.5, 9)) as DiscriminatorRef;
        assert!(same_function(&hash(7), &hash(7)));
        assert!(!same_function(&hash(7), &hash(8)));
        assert!(same_function(&mixed(7), &mixed(7)));
        assert!(!same_function(&mixed(7), &mixed(8)));
        let opaque: DiscriminatorRef = Arc::new(Opaque);
        assert!(same_function(&opaque, &opaque.clone()));
        assert!(!same_function(&opaque, &(Arc::new(Opaque) as DiscriminatorRef)));
    }

    #[test]
    fn bitfn_seeds_differ() {
        let g1 = BitFn::new(1);
        let g2 = BitFn::new(2);
        let differs = (0..64i64).map(|k| Value::Int(k).word()).any(|w| g1.bit(w) != g2.bit(w));
        assert!(differs);
    }

    #[test]
    fn the_implied_mark_travels_and_a_bad_flag_is_refused() {
        let interner = Interner::new();
        let x = Variable(interner.intern("X"));
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 0));
        for implied in [false, true] {
            let c = DiscConstraint { vars: vec![x], disc: h.clone(), expect: 2, implied };
            assert_eq!(decode_constraint(&c.wire_encode().unwrap()).unwrap().implied(), implied);
        }
        // magic, nvars=1, symid, expect=2, then the flag.
        let mut bytes = DiscConstraint::literal(vec![x], h, 2).wire_encode().unwrap();
        bytes[4] = 2;
        assert!(decode_constraint(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let h: DiscriminatorRef = Arc::new(Mixed::new(1, Arc::new(HashMod::new(4, 1)), 0.5, 2));
        let bytes = DiscConstraint::literal(vec![z], h, 1).wire_encode().unwrap();
        // Truncations never panic.
        for cut in 0..bytes.len() {
            assert!(decode_constraint(&bytes[..cut]).is_err());
        }
        // Tag 7 names no function: magic, nvars=1, symid, expect=1,
        // implied=0, then the tag at position 5.
        let mut unknown = bytes.clone();
        unknown[5] = 7;
        let err = decode_constraint(&unknown).err().expect("tag 7 is refused").to_string();
        assert!(err.contains("unknown discriminator tag 7"), "{err}");
        // A fragment whose batch lies about its tuple count is refused by
        // the codec: tag=4, nfrags=2, the first fragment's length prefix,
        // then its batch's arity and, at position 9, its count.
        let rel: Relation = (0..4i64).map(|k| ituple![k, k + 1]).collect();
        let owner: DiscriminatorRef = Arc::new(FragmentOwner::new(Arc::new(hash_fragment(&rel, &[0], 2).unwrap())));
        let literal = DiscConstraint::literal(vec![z], owner, 1);
        let honest = literal.wire_encode().unwrap();
        let decoded = decode_constraint(&honest).unwrap();
        for t in rel.iter() {
            let words = [t.word(0), t.word(1)];
            assert_eq!(decoded.partition(&words), literal.partition(&words));
        }
        let mut lying = honest.clone();
        lying[9] = 0x7f;
        assert!(decode_constraint(&lying).is_err());
        // Two coefficients `i64::MAX` sum past `i64`: tag=3, gseed=0,
        // ncoef=2, then the two zigzag varints.
        let mut overflow = bytes[..5].to_vec();
        overflow.extend([3, 0, 2]);
        for _ in 0..2 {
            wire::put_sv(&mut overflow, i64::MAX);
        }
        let err = decode_constraint(&overflow).err().expect("an overflowing Linear is refused");
        assert!(matches!(err, Error::Discriminator(_)) && err.to_string().contains("overflows i64"), "{err}");
    }
}
