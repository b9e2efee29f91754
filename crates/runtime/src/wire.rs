//! Framed wire protocol for the multi-process TCP transport.
//!
//! Everything a worker process exchanges with its coordinator travels as
//! length-prefixed frames:
//!
//! ```text
//! frame   := len:u32le  kind:u8  body[len-1]
//! ```
//!
//! `len` counts the kind byte plus the body, so an empty-bodied frame has
//! `len == 1`. A length above [`MAX_FRAME`] is rejected before any
//! allocation — a garbage prefix (or a peer speaking a different
//! protocol) costs a typed error, not an OOM.
//!
//! Frame kinds:
//!
//! | kind | name     | direction | body                                   |
//! |------|----------|-----------|----------------------------------------|
//! | 0    | Hello    | w → c     | `index uv, incarnation uv`             |
//! | 1    | Job      | c → w     | epoch, fleet size, worker config, symbol table, spec |
//! | 2    | Envelope | both      | `dest uv` then the serialized envelope |
//! | 3    | Result   | w → c     | [`WorkerReport`] + pooled relations    |
//! | 4    | Error    | w → c     | `fatal u8, message utf8`               |
//! | 5    | Ping     | c → w     | `nonce uv`                             |
//! | 6    | Pong     | w → c     | `nonce uv`                             |
//! | 7    | Shutdown | c → w     | empty                                  |
//! | 8    | Report   | w → c     | `epoch uv`, then `batch_seq` and `recv_floor`, fleet-size uv each |
//!
//! The `Envelope` body leads with the *destination* processor. The
//! coordinator relays worker-to-worker traffic by validating the whole
//! envelope (a structurally complete frame can still carry a corrupt
//! body — the garbage fault cuts exactly that shape, and corruption must
//! be charged to the *sender's* link) and then forwarding the original
//! frame bytes verbatim — validate, never re-encode.
//!
//! Scalars are the codec's LEB128 varints ([`crate::codec`]); tuple data
//! reuses [`crate::codec::encode_batch`] so batches cross the process
//! boundary in the same columnar format they cross thread boundaries in.
//! Every decode path shares the codec's never-panic contract: truncated,
//! corrupt, or adversarial bytes yield a typed [`Error::Runtime`] (see
//! the fuzz sweep in this module's tests).

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use gst_common::{Error, Interner, Result, SymbolId, Tuple};
use gst_eval::plan::RelationId;
use gst_eval::EvalStats;
use gst_frontend::ast::{
    Atom, ConstraintRef, Literal, Program, Rule, Term, Variable,
};
use gst_storage::{Database, Relation};

use crate::codec::{self, put_bytes, put_uv, put_sv, Cursor};
use crate::message::{Envelope, Message, Payload};
use crate::supervisor::PassiveReport;
use crate::spec::{ProcessorProgram, Route, SessionSeed, Shards, WorkerSpec};
use crate::stats::WorkerReport;
use crate::worker::{PooledRelations, WorkerConfig};

/// Upper bound on a frame's declared length (256 MiB). A length prefix
/// beyond this is treated as corruption before any buffer is allocated.
pub(crate) const MAX_FRAME: u32 = 1 << 28;

/// Worker → coordinator: identify yourself after connecting.
pub(crate) const FRAME_HELLO: u8 = 0;
/// Coordinator → worker: the job to run (spec, config, symbols).
pub(crate) const FRAME_JOB: u8 = 1;
/// Either direction: a routed worker-to-worker [`Envelope`].
pub(crate) const FRAME_ENVELOPE: u8 = 2;
/// Worker → coordinator: terminated cleanly; report + pooled relations.
pub(crate) const FRAME_RESULT: u8 = 3;
/// Worker → coordinator: a typed error (fatal or recoverable).
pub(crate) const FRAME_ERROR: u8 = 4;
/// Coordinator → worker: heartbeat probe.
pub(crate) const FRAME_PING: u8 = 5;
/// Worker → coordinator: heartbeat reply (echoes the nonce).
pub(crate) const FRAME_PONG: u8 = 6;
/// Coordinator → worker: tear down and exit cleanly.
pub(crate) const FRAME_SHUTDOWN: u8 = 7;
/// Worker → coordinator: went passive; its link watermarks.
pub(crate) const FRAME_REPORT: u8 = 8;

/// A decoder for constraint literals shipped inside a [`FRAME_JOB`].
///
/// The runtime cannot depend on `gst-core` (where the discriminating
/// functions live), so whoever launches a net worker injects the decoder
/// — typically `gst_core::prelude::decode_constraint`.
pub(crate) type ConstraintDecode<'a> =
    Option<&'a (dyn Fn(&[u8]) -> Result<ConstraintRef> + Send + Sync)>;

fn corrupt(what: &str) -> Error {
    Error::Runtime(format!("corrupt frame: {what}"))
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

/// Write one frame. Failures are I/O failures (the peer is gone).
pub(crate) fn write_frame(w: &mut dyn Write, kind: u8, body: &[u8]) -> Result<()> {
    if body.len() as u64 + 1 > u64::from(MAX_FRAME) {
        return Err(Error::Runtime(format!(
            "frame too large to send: {} bytes",
            body.len()
        )));
    }
    let len = body.len() as u32 + 1;
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4] = kind;
    w.write_all(&head)
        .and_then(|()| w.write_all(body))
        .and_then(|()| w.flush())
        .map_err(|e| Error::Runtime(format!("link write failed ({:?}): {e}", e.kind())))
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary (the
/// peer closed deliberately); EOF inside a frame, an oversized length
/// prefix, or any I/O error (including a read timeout) is an `Err`.
pub(crate) fn read_frame(r: &mut dyn Read) -> Result<Option<(u8, Vec<u8>)>> {
    let mut head = [0u8; 5];
    let mut got = 0;
    // The header is assembled byte by byte so a split read (TCP hands
    // back whatever is buffered) never loses data, and an EOF before the
    // first byte is distinguishable as a deliberate close.
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(corrupt("EOF inside frame header")),
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Runtime(format!("link read failed: {e}"))),
        }
        if got >= 4 {
            let len = u32::from_le_bytes(head[..4].try_into().expect("four bytes"));
            if len == 0 {
                return Err(corrupt("zero-length frame"));
            }
            if len > MAX_FRAME {
                return Err(corrupt(&format!("implausible frame length {len}")));
            }
        }
    }
    let len = u32::from_le_bytes(head[..4].try_into().expect("four bytes"));
    let kind = head[4];
    let mut body = vec![0u8; len as usize - 1];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt("EOF inside frame body")
        } else {
            Error::Runtime(format!("link read failed: {e}"))
        }
    })?;
    Ok(Some((kind, body)))
}

// ---------------------------------------------------------------------
// Shared decode helpers
// ---------------------------------------------------------------------

/// Read a count that prefixes a list whose elements occupy at least one
/// byte each: anything larger than the remaining bytes is corruption,
/// which also bounds allocations by the (already bounded) frame size.
fn get_count(c: &mut Cursor, what: &str) -> Result<usize> {
    let n = c.get_uv().ok_or_else(|| corrupt(what))?;
    if n > c.remaining() as u64 {
        return Err(corrupt(&format!("implausible {what} count {n}")));
    }
    Ok(n as usize)
}

fn get_usize(c: &mut Cursor, what: &str) -> Result<usize> {
    let v = c.get_uv().ok_or_else(|| corrupt(what))?;
    usize::try_from(v).map_err(|_| corrupt(what))
}

fn get_flag(c: &mut Cursor, what: &str) -> Result<bool> {
    match c.get_u8() {
        Some(0) => Ok(false),
        Some(1) => Ok(true),
        _ => Err(corrupt(what)),
    }
}

/// How a pooled predicate's shards relate, as one byte of the JOB frame
/// (`take_pooled` reads it): its index here.
const SHARDS: [Shards; 3] = [Shards::Partition, Shards::Replica, Shards::Overlap];

fn get_symbol(c: &mut Cursor, interner: &Interner, what: &str) -> Result<SymbolId> {
    let idx = c.get_uv().ok_or_else(|| corrupt(what))?;
    if idx >= interner.len() as u64 {
        return Err(corrupt(&format!("{what}: symbol {idx} outside table")));
    }
    Ok(SymbolId(idx as u32))
}

fn put_relation_id(buf: &mut Vec<u8>, id: RelationId) {
    put_uv(buf, u64::from(id.0 .0));
    put_uv(buf, id.1 as u64);
}

fn get_relation_id(c: &mut Cursor, interner: &Interner) -> Result<RelationId> {
    let sym = get_symbol(c, interner, "relation id")?;
    let arity = get_usize(c, "relation arity")?;
    if arity > codec::IMPLAUSIBLE {
        return Err(corrupt(&format!("implausible relation arity {arity}")));
    }
    Ok((sym, arity))
}

/// Encode a relation's live tuples as one columnar batch (sorted, so the
/// encoding is deterministic across runs and processes).
fn put_relation_tuples(buf: &mut Vec<u8>, arity: usize, rel: &Relation) -> Result<()> {
    let mut tuples: Vec<Tuple> = rel.iter().cloned().collect();
    tuples.sort();
    put_bytes(buf, &codec::encode_batch(arity, &tuples)?);
    Ok(())
}

fn get_relation_tuples(c: &mut Cursor, arity: usize) -> Result<Relation> {
    let bytes = c.get_bytes().ok_or_else(|| corrupt("relation payload"))?;
    let mut tuples = codec::decode_batch(bytes)?;
    // A batch has one arity, so the first row speaks for all of them.
    if let Some(got) = tuples.first().map(Tuple::arity).filter(|&a| a != arity) {
        return Err(Error::Storage(format!(
            "arity mismatch: relation has arity {arity}, tuple has {got}"
        )));
    }
    let mut rel = Relation::with_capacity(arity, tuples.len());
    rel.insert_batch(&mut tuples);
    Ok(rel)
}

// ---------------------------------------------------------------------
// Hello / Error / heartbeat bodies
// ---------------------------------------------------------------------

pub(crate) fn encode_hello(index: usize, incarnation: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    put_uv(&mut buf, index as u64);
    put_uv(&mut buf, incarnation);
    buf
}

pub(crate) fn decode_hello(bytes: &[u8]) -> Result<(usize, u64)> {
    let mut c = Cursor::new(bytes);
    let index = get_usize(&mut c, "hello index")?;
    let incarnation = c.get_uv().ok_or_else(|| corrupt("hello incarnation"))?;
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after hello"));
    }
    Ok((index, incarnation))
}

pub(crate) fn encode_error(fatal: bool, message: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(message.len() + 2);
    buf.push(u8::from(fatal));
    put_bytes(&mut buf, message.as_bytes());
    buf
}

pub(crate) fn decode_error(bytes: &[u8]) -> Result<(bool, String)> {
    let mut c = Cursor::new(bytes);
    let fatal = get_flag(&mut c, "error flag")?;
    let msg = c.get_bytes().ok_or_else(|| corrupt("error message"))?;
    let msg = std::str::from_utf8(msg).map_err(|_| corrupt("error message utf8"))?;
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after error"));
    }
    Ok((fatal, msg.to_string()))
}

pub(crate) fn encode_nonce(nonce: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10);
    put_uv(&mut buf, nonce);
    buf
}

pub(crate) fn decode_nonce(bytes: &[u8]) -> Result<u64> {
    let mut c = Cursor::new(bytes);
    let nonce = c.get_uv().ok_or_else(|| corrupt("nonce"))?;
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after nonce"));
    }
    Ok(nonce)
}

pub(crate) fn encode_report(report: &PassiveReport) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 4 * report.batch_seq.len());
    put_uv(&mut buf, report.epoch);
    for &v in report.batch_seq.iter().chain(&report.recv_floor) {
        put_uv(&mut buf, v);
    }
    buf
}

/// Decode a report from a fleet of `n`: anything but `n` entries per
/// watermark is corruption.
pub(crate) fn decode_report(bytes: &[u8], n: usize) -> Result<PassiveReport> {
    let mut c = Cursor::new(bytes);
    let epoch = c.get_uv().ok_or_else(|| corrupt("report epoch"))?;
    let mut watermarks = (0..2 * n).map(|_| c.get_uv().ok_or_else(|| corrupt("report watermark")));
    let batch_seq = watermarks.by_ref().take(n).collect::<Result<_>>()?;
    let recv_floor = watermarks.collect::<Result<_>>()?;
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after report"));
    }
    Ok(PassiveReport { epoch, batch_seq, recv_floor })
}

// ---------------------------------------------------------------------
// Job frames
// ---------------------------------------------------------------------

/// A decoded [`FRAME_JOB`]: everything a fresh worker process needs.
pub(crate) struct JobFrame {
    /// Recovery epoch this incarnation starts in.
    pub(crate) epoch: u64,
    /// Fleet size.
    pub(crate) n: usize,
    /// Per-worker runtime knobs.
    pub(crate) worker: WorkerConfig,
    /// What to run (program, routing, EDB, optional session seed).
    pub(crate) spec: WorkerSpec,
    /// A pending `Recover` the incarnation must absorb before anything
    /// else: its `AckSync`s are what ask the peers to replay. Embedding it
    /// in the job (rather than sending it as a separate envelope frame)
    /// removes the race between the reader thread delivering it and the
    /// main loop stepping: a `Recover` absorbed after a current-epoch batch
    /// clears that batch's place above the watermark, no replay resends a
    /// current-epoch batch, and the link never balances.
    pub(crate) recover: Option<Envelope>,
}

pub(crate) fn encode_job(
    epoch: u64,
    n: usize,
    worker: &WorkerConfig,
    spec: &WorkerSpec,
    recover: Option<&Envelope>,
) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(1024);
    put_uv(&mut buf, epoch);
    put_uv(&mut buf, n as u64);
    put_uv(&mut buf, worker.idle_watchdog.as_micros() as u64);
    buf.push(u8::from(worker.profile));

    // Symbol table: the entire interner, ids 0..len in order. The worker
    // re-interns into a fresh table and every SymbolId below resolves to
    // the same string on both sides.
    let interner = &spec.program.program.interner;
    put_uv(&mut buf, interner.len() as u64);
    for idx in 0..interner.len() {
        put_bytes(&mut buf, interner.resolve(SymbolId(idx as u32)).as_bytes());
    }

    put_processor_program(&mut buf, &spec.program)?;

    // EDB: live tuples per relation, deterministic relation order.
    let mut rels: Vec<(&RelationId, &Relation)> = spec.edb.iter().collect();
    rels.sort_by_key(|(id, _)| **id);
    put_uv(&mut buf, rels.len() as u64);
    for (id, rel) in rels {
        put_relation_id(&mut buf, *id);
        put_relation_tuples(&mut buf, id.1, rel)?;
    }

    // Update-session seed.
    match &spec.session {
        None => buf.push(0),
        Some(seed) => {
            buf.push(1);
            put_uv(&mut buf, seed.preseed.len() as u64);
            for (id, rel) in &seed.preseed {
                put_relation_id(&mut buf, *id);
                put_relation_tuples(&mut buf, id.1, rel)?;
            }
            put_uv(&mut buf, seed.inject.len() as u64);
            for (id, tuples) in &seed.inject {
                put_relation_id(&mut buf, *id);
                put_bytes(&mut buf, &codec::encode_batch(id.1, tuples)?);
            }
        }
    }

    // Pending recovery handshake, absorbed before the first engine step.
    match recover {
        None => buf.push(0),
        Some(env) => {
            buf.push(1);
            put_bytes(&mut buf, &encode_envelope(spec.program.processor, env));
        }
    }
    Ok(buf)
}

pub(crate) fn decode_job(bytes: &[u8], decode_constraint: ConstraintDecode) -> Result<JobFrame> {
    let mut c = Cursor::new(bytes);
    let epoch = c.get_uv().ok_or_else(|| corrupt("job epoch"))?;
    let n = get_usize(&mut c, "job fleet size")?;
    if n == 0 || n > 1 << 16 {
        return Err(corrupt(&format!("implausible fleet size {n}")));
    }
    let idle_watchdog = c.get_uv().ok_or_else(|| corrupt("job idle_watchdog"))?;
    let profile = get_flag(&mut c, "job profile flag")?;
    let worker = WorkerConfig {
        idle_watchdog: Duration::from_micros(idle_watchdog),
        profile,
    };

    // Rebuild the symbol table; sequential re-interning must reproduce
    // the shipped ids exactly (the interner hands them out densely).
    let interner = Interner::new();
    let nsyms = get_count(&mut c, "symbol table")?;
    for idx in 0..nsyms {
        let name = c.get_bytes().ok_or_else(|| corrupt("symbol"))?;
        let name = std::str::from_utf8(name).map_err(|_| corrupt("symbol utf8"))?;
        let id = interner.intern(name);
        if id.index() != idx {
            return Err(corrupt(&format!(
                "duplicate symbol {name:?} in table (id {} at position {idx})",
                id.index()
            )));
        }
    }

    let program = get_processor_program(&mut c, &interner, decode_constraint)?;
    if program.processor >= n {
        return Err(corrupt(&format!(
            "processor {} outside fleet of {n}",
            program.processor
        )));
    }
    if let Some((dest, _)) = program.routes.iter().flat_map(|r| &r.dests).find(|(d, _)| *d >= n) {
        return Err(corrupt(&format!("route to processor {dest} outside fleet of {n}")));
    }
    program.check_pooling()?;

    let mut edb = Database::new(interner.clone());
    let nrels = get_count(&mut c, "edb relations")?;
    for _ in 0..nrels {
        let id = get_relation_id(&mut c, &interner)?;
        let rel = get_relation_tuples(&mut c, id.1)?;
        edb.put_relation(id, rel)?;
    }

    let session = if get_flag(&mut c, "session flag")? {
        let npre = get_count(&mut c, "preseed relations")?;
        let mut preseed = Vec::with_capacity(npre.min(1024));
        for _ in 0..npre {
            let id = get_relation_id(&mut c, &interner)?;
            preseed.push((id, get_relation_tuples(&mut c, id.1)?));
        }
        let ninj = get_count(&mut c, "inject relations")?;
        let mut inject = Vec::with_capacity(ninj.min(1024));
        for _ in 0..ninj {
            let id = get_relation_id(&mut c, &interner)?;
            let bytes = c.get_bytes().ok_or_else(|| corrupt("inject payload"))?;
            inject.push((id, codec::decode_batch(bytes)?));
        }
        Some(Arc::new(SessionSeed { preseed, inject }))
    } else {
        None
    };
    let recover = if get_flag(&mut c, "recover flag")? {
        let bytes = c.get_bytes().ok_or_else(|| corrupt("recover envelope"))?;
        let (_, env) = decode_envelope(bytes, &interner)?;
        if !matches!(env.message, Message::Recover { .. }) {
            return Err(corrupt("job recovery slot holds a non-Recover message"));
        }
        Some(env)
    } else {
        None
    };
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after job"));
    }
    Ok(JobFrame {
        epoch,
        n,
        worker,
        spec: WorkerSpec { program, edb: Arc::new(edb), session },
        recover,
    })
}

fn put_processor_program(buf: &mut Vec<u8>, pp: &ProcessorProgram) -> Result<()> {
    put_uv(buf, pp.processor as u64);
    put_program(buf, &pp.program)?;
    put_uv(buf, pp.routes.len() as u64);
    for route in &pp.routes {
        put_atom(buf, &route.source);
        match &route.key {
            None => buf.push(0),
            Some(key) => {
                buf.push(1);
                put_constraint(buf, key, &pp.program.interner)?;
            }
        }
        put_uv(buf, route.dests.len() as u64);
        for (dest, inbox) in &route.dests {
            put_uv(buf, *dest as u64);
            put_relation_id(buf, *inbox);
        }
        buf.push(u8::from(route.retract));
    }
    put_uv(buf, pp.inboxes.len() as u64);
    for id in &pp.inboxes {
        put_relation_id(buf, *id);
    }
    put_uv(buf, pp.processing_rules.len() as u64);
    for r in &pp.processing_rules {
        put_uv(buf, *r as u64);
    }
    put_uv(buf, pp.pooling.len() as u64);
    for (local, global, shards) in &pp.pooling {
        put_relation_id(buf, *local);
        put_relation_id(buf, *global);
        buf.push(SHARDS.iter().position(|s| s == shards).expect("every kind is listed") as u8);
    }
    put_uv(buf, pp.local_idb.len() as u64);
    for id in &pp.local_idb {
        put_relation_id(buf, *id);
    }
    Ok(())
}

fn get_processor_program(
    c: &mut Cursor,
    interner: &Interner,
    decode_constraint: ConstraintDecode,
) -> Result<ProcessorProgram> {
    let processor = get_usize(c, "processor index")?;
    let program = get_program(c, interner, decode_constraint)?;
    let nroutes = get_count(c, "routes")?;
    let mut routes = Vec::with_capacity(nroutes.min(1024));
    for _ in 0..nroutes {
        let source = get_atom(c, interner)?;
        let keyed = get_flag(c, "route key flag")?;
        let key = keyed.then(|| get_constraint(c, decode_constraint)).transpose()?;
        let ndests = get_count(c, "route destinations")?;
        let mut dests = Vec::with_capacity(ndests.min(1024));
        for _ in 0..ndests {
            let dest = get_usize(c, "route dest")?;
            dests.push((dest, get_relation_id(c, interner)?));
        }
        let retract = get_flag(c, "route retract flag")?;
        routes.push(Route { source, key, dests, retract });
    }
    let read_ids = |c: &mut Cursor, what: &str| -> Result<Vec<RelationId>> {
        let k = get_count(c, what)?;
        let mut v = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            v.push(get_relation_id(c, interner)?);
        }
        Ok(v)
    };
    let inboxes = read_ids(c, "inboxes")?;
    let nproc = get_count(c, "processing rules")?;
    let mut processing_rules = Vec::with_capacity(nproc.min(1024));
    for _ in 0..nproc {
        processing_rules.push(get_usize(c, "processing rule index")?);
    }
    let npool = get_count(c, "pooling pairs")?;
    let mut pooling = Vec::with_capacity(npool.min(1024));
    for _ in 0..npool {
        let local = get_relation_id(c, interner)?;
        let global = get_relation_id(c, interner)?;
        let shards = c.get_u8().and_then(|b| SHARDS.get(usize::from(b)));
        pooling.push((local, global, *shards.ok_or_else(|| corrupt("pooling shards"))?));
    }
    let local_idb = read_ids(c, "local idb")?;
    Ok(ProcessorProgram {
        processor,
        program,
        routes,
        inboxes,
        processing_rules,
        pooling,
        local_idb,
    })
}

const LIT_ATOM: u8 = 0;
const LIT_CONSTRAINT: u8 = 1;
const TERM_VAR: u8 = 0;
const TERM_INT: u8 = 1;
const TERM_SYM: u8 = 2;

fn put_program(buf: &mut Vec<u8>, program: &Program) -> Result<()> {
    put_uv(buf, program.rules.len() as u64);
    for rule in &program.rules {
        put_atom(buf, &rule.head);
        put_uv(buf, rule.body.len() as u64);
        for lit in &rule.body {
            match lit {
                Literal::Atom(a) => {
                    buf.push(LIT_ATOM);
                    put_atom(buf, a);
                }
                Literal::Constraint(cref) => {
                    buf.push(LIT_CONSTRAINT);
                    put_constraint(buf, cref, &program.interner)?;
                }
            }
        }
    }
    Ok(())
}

fn put_constraint(buf: &mut Vec<u8>, cref: &ConstraintRef, interner: &Interner) -> Result<()> {
    let encoded = cref.wire_encode().ok_or_else(|| {
        Error::Runtime(format!(
            "constraint {} cannot travel to a worker process (no wire encoding)",
            cref.describe(interner)
        ))
    })?;
    put_bytes(buf, &encoded);
    Ok(())
}

fn get_constraint(c: &mut Cursor, decode_constraint: ConstraintDecode) -> Result<ConstraintRef> {
    let bytes = c.get_bytes().ok_or_else(|| corrupt("constraint bytes"))?;
    let decode = decode_constraint.ok_or_else(|| {
        Error::Runtime(
            "job carries a constraint but this worker has no constraint decoder".into(),
        )
    })?;
    decode(bytes)
}

fn put_atom(buf: &mut Vec<u8>, atom: &Atom) {
    put_uv(buf, u64::from(atom.predicate.0));
    put_uv(buf, atom.terms.len() as u64);
    for term in &atom.terms {
        match term {
            Term::Var(v) => {
                buf.push(TERM_VAR);
                put_uv(buf, u64::from(v.0 .0));
            }
            Term::Const(gst_common::Value::Int(i)) => {
                buf.push(TERM_INT);
                put_sv(buf, *i);
            }
            Term::Const(gst_common::Value::Sym(s)) => {
                buf.push(TERM_SYM);
                put_uv(buf, u64::from(s.0));
            }
        }
    }
}

fn get_program(
    c: &mut Cursor,
    interner: &Interner,
    decode_constraint: ConstraintDecode,
) -> Result<Program> {
    let nrules = get_count(c, "rules")?;
    let mut rules = Vec::with_capacity(nrules.min(1024));
    for _ in 0..nrules {
        let head = get_atom(c, interner)?;
        let nbody = get_count(c, "body literals")?;
        let mut body = Vec::with_capacity(nbody.min(1024));
        for _ in 0..nbody {
            match c.get_u8().ok_or_else(|| corrupt("literal tag"))? {
                LIT_ATOM => body.push(Literal::Atom(get_atom(c, interner)?)),
                LIT_CONSTRAINT => {
                    body.push(Literal::Constraint(get_constraint(c, decode_constraint)?));
                }
                other => return Err(corrupt(&format!("unknown literal tag {other}"))),
            }
        }
        rules.push(Rule { head, body });
    }
    Ok(Program::new(rules, interner.clone()))
}

fn get_atom(c: &mut Cursor, interner: &Interner) -> Result<Atom> {
    let predicate = get_symbol(c, interner, "atom predicate")?;
    let nterms = get_count(c, "atom terms")?;
    let mut terms = Vec::with_capacity(nterms.min(64));
    for _ in 0..nterms {
        terms.push(match c.get_u8().ok_or_else(|| corrupt("term tag"))? {
            TERM_VAR => Term::Var(Variable(get_symbol(c, interner, "term variable")?)),
            TERM_INT => Term::Const(gst_common::Value::Int(
                c.get_sv().ok_or_else(|| corrupt("term int"))?,
            )),
            TERM_SYM => Term::Const(gst_common::Value::Sym(get_symbol(
                c, interner, "term symbol",
            )?)),
            other => return Err(corrupt(&format!("unknown term tag {other}"))),
        });
    }
    Ok(Atom { predicate, terms })
}

// ---------------------------------------------------------------------
// Envelope frames
// ---------------------------------------------------------------------

const MSG_BATCH: u8 = 0;
const MSG_TERMINATE: u8 = 1;
const MSG_RECOVER: u8 = 2;
const MSG_ACK_SYNC: u8 = 3;
const MSG_SNAPSHOT: u8 = 4;
const MSG_ABORT: u8 = 5;

/// Encode a routed envelope. The destination leads so a relay can route
/// the frame without decoding the rest.
pub(crate) fn encode_envelope(dest: usize, env: &Envelope) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_uv(&mut buf, dest as u64);
    put_uv(&mut buf, env.from as u64);
    put_uv(&mut buf, env.seq);
    put_uv(&mut buf, env.epoch);
    put_uv(&mut buf, env.ack);
    match &env.message {
        Message::Batch { inbox, payload, retract } => {
            buf.push(MSG_BATCH);
            put_relation_id(&mut buf, *inbox);
            buf.push(u8::from(*retract));
            put_bytes(&mut buf, payload);
        }
        Message::Terminate => buf.push(MSG_TERMINATE),
        Message::Recover { epoch, restarted } => {
            buf.push(MSG_RECOVER);
            put_uv(&mut buf, *epoch);
            put_uv(&mut buf, *restarted as u64);
        }
        Message::AckSync { acked } => {
            buf.push(MSG_ACK_SYNC);
            put_uv(&mut buf, *acked);
        }
        Message::Snapshot { payloads, upto } => {
            buf.push(MSG_SNAPSHOT);
            put_uv(&mut buf, *upto);
            put_uv(&mut buf, payloads.len() as u64);
            for (inbox, payload) in payloads {
                put_relation_id(&mut buf, *inbox);
                put_bytes(&mut buf, payload);
            }
        }
        Message::Abort { reason } => {
            buf.push(MSG_ABORT);
            put_bytes(&mut buf, reason.as_bytes());
        }
    }
    buf
}

/// Read just the destination off an envelope body without decoding the
/// rest (the relay validates the full envelope separately before
/// forwarding, but routing-layer tests pin the dest-leads-the-body
/// invariant through this).
#[cfg(test)]
pub(crate) fn peek_envelope_dest(bytes: &[u8]) -> Result<usize> {
    let mut c = Cursor::new(bytes);
    get_usize(&mut c, "envelope dest")
}

/// Decode a routed envelope body into `(dest, envelope)`.
pub(crate) fn decode_envelope(bytes: &[u8], interner: &Interner) -> Result<(usize, Envelope)> {
    let mut c = Cursor::new(bytes);
    let dest = get_usize(&mut c, "envelope dest")?;
    let from = get_usize(&mut c, "envelope from")?;
    let seq = c.get_uv().ok_or_else(|| corrupt("envelope seq"))?;
    let epoch = c.get_uv().ok_or_else(|| corrupt("envelope epoch"))?;
    let ack = c.get_uv().ok_or_else(|| corrupt("envelope ack"))?;
    let message = match c.get_u8().ok_or_else(|| corrupt("message tag"))? {
        MSG_BATCH => {
            let inbox = get_relation_id(&mut c, interner)?;
            let retract = get_flag(&mut c, "retract flag")?;
            let payload = c.get_bytes().ok_or_else(|| corrupt("batch payload"))?;
            // Full structural walk, not just the header: a corrupt
            // payload must die at the link (recoverable) instead of in
            // the worker's deferred decode (fatal).
            codec::validate_batch(payload)?;
            Message::Batch {
                inbox,
                payload: Payload::new(payload.to_vec()),
                retract,
            }
        }
        MSG_TERMINATE => Message::Terminate,
        MSG_RECOVER => {
            let repoch = c.get_uv().ok_or_else(|| corrupt("recover epoch"))?;
            let restarted = get_usize(&mut c, "recover restarted")?;
            Message::Recover { epoch: repoch, restarted }
        }
        MSG_ACK_SYNC => Message::AckSync {
            acked: c.get_uv().ok_or_else(|| corrupt("ack-sync watermark"))?,
        },
        MSG_SNAPSHOT => {
            let upto = c.get_uv().ok_or_else(|| corrupt("snapshot watermark"))?;
            let npay = get_count(&mut c, "snapshot payloads")?;
            let mut payloads = Vec::with_capacity(npay.min(1024));
            for _ in 0..npay {
                let inbox = get_relation_id(&mut c, interner)?;
                let payload = c.get_bytes().ok_or_else(|| corrupt("snapshot payload"))?;
                codec::validate_batch(payload)?;
                payloads.push((inbox, Payload::new(payload.to_vec())));
            }
            Message::Snapshot { payloads, upto }
        }
        MSG_ABORT => {
            let reason = c.get_bytes().ok_or_else(|| corrupt("abort reason"))?;
            let reason =
                std::str::from_utf8(reason).map_err(|_| corrupt("abort reason utf8"))?;
            Message::Abort { reason: reason.to_string() }
        }
        other => return Err(corrupt(&format!("unknown message tag {other}"))),
    };
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after envelope"));
    }
    Ok((dest, Envelope { from, seq, epoch, ack, message }))
}

// ---------------------------------------------------------------------
// Result frames
// ---------------------------------------------------------------------

fn put_phase_totals(buf: &mut Vec<u8>, p: &crate::profile::PhaseTotals) {
    for v in p.as_array() {
        put_uv(buf, v);
    }
}

fn get_phase_totals(c: &mut Cursor, what: &str) -> Result<crate::profile::PhaseTotals> {
    let mut vals = [0u64; 5];
    for slot in vals.iter_mut() {
        *slot = c.get_uv().ok_or_else(|| corrupt(what))?;
    }
    Ok(crate::profile::PhaseTotals {
        compute: vals[0],
        encode: vals[1],
        decode: vals[2],
        replay: vals[3],
        idle: vals[4],
    })
}

pub(crate) fn encode_result(
    report: &WorkerReport,
    pooled: &[(RelationId, Relation)],
) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(256);
    put_uv(&mut buf, report.processor as u64);
    put_uv(&mut buf, report.eval.rounds);
    put_uv(&mut buf, report.eval.firings);
    put_uv(&mut buf, report.eval.derived);
    put_uv(&mut buf, report.eval.duplicates);
    put_uv(&mut buf, report.eval.firings_by_rule.len() as u64);
    for f in &report.eval.firings_by_rule {
        put_uv(&mut buf, *f);
    }
    put_uv(&mut buf, report.eval.time_by_rule.len() as u64);
    for t in &report.eval.time_by_rule {
        put_uv(&mut buf, *t);
    }
    put_uv(&mut buf, report.processing_firings);
    put_uv(&mut buf, report.sent_tuples_to.len() as u64);
    for v in &report.sent_tuples_to {
        put_uv(&mut buf, *v);
    }
    for v in &report.sent_bytes_to {
        put_uv(&mut buf, *v);
    }
    for v in [
        report.sent_messages,
        report.received_tuples,
        report.received_bytes,
        report.encode_calls,
        report.encoded_bytes,
        report.encoded_raw_bytes,
        report.duplicate_batches,
        report.replayed_batches,
        report.stale_dropped,
        report.retract_tuples_sent,
        report.retract_tuples_received,
        report.pooled_tuples,
        report.busy.as_micros() as u64,
    ] {
        put_uv(&mut buf, v);
    }
    match &report.profile {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            put_phase_totals(&mut buf, &p.phases);
        }
    }
    put_uv(&mut buf, pooled.len() as u64);
    for (id, rel) in pooled {
        put_relation_id(&mut buf, *id);
        put_relation_tuples(&mut buf, id.1, rel)?;
    }
    Ok(buf)
}

pub(crate) fn decode_result(
    bytes: &[u8],
    interner: &Interner,
) -> Result<(WorkerReport, PooledRelations)> {
    let mut c = Cursor::new(bytes);
    let processor = get_usize(&mut c, "result processor")?;
    let rounds = c.get_uv().ok_or_else(|| corrupt("eval rounds"))?;
    let firings = c.get_uv().ok_or_else(|| corrupt("eval firings"))?;
    let derived = c.get_uv().ok_or_else(|| corrupt("eval derived"))?;
    let duplicates = c.get_uv().ok_or_else(|| corrupt("eval duplicates"))?;
    let nrules = get_count(&mut c, "firings by rule")?;
    let mut firings_by_rule = Vec::with_capacity(nrules.min(1024));
    for _ in 0..nrules {
        firings_by_rule.push(c.get_uv().ok_or_else(|| corrupt("rule firings"))?);
    }
    let ntimes = get_count(&mut c, "time by rule")?;
    let mut time_by_rule = Vec::with_capacity(ntimes.min(1024));
    for _ in 0..ntimes {
        time_by_rule.push(c.get_uv().ok_or_else(|| corrupt("rule time"))?);
    }
    let eval = EvalStats {
        rounds,
        firings,
        derived,
        duplicates,
        firings_by_rule,
        time_by_rule,
    };
    let processing_firings = c.get_uv().ok_or_else(|| corrupt("processing firings"))?;
    let nlinks = get_count(&mut c, "link counters")?;
    let mut sent_tuples_to = Vec::with_capacity(nlinks.min(1024));
    for _ in 0..nlinks {
        sent_tuples_to.push(c.get_uv().ok_or_else(|| corrupt("sent tuples"))?);
    }
    let mut sent_bytes_to = Vec::with_capacity(nlinks.min(1024));
    for _ in 0..nlinks {
        sent_bytes_to.push(c.get_uv().ok_or_else(|| corrupt("sent bytes"))?);
    }
    let mut scalars = [0u64; 13];
    for (k, slot) in scalars.iter_mut().enumerate() {
        *slot = c
            .get_uv()
            .ok_or_else(|| corrupt(&format!("report scalar {k}")))?;
    }
    let profile = if get_flag(&mut c, "profile flag")? {
        let phases = get_phase_totals(&mut c, "profile phases")?;
        Some(crate::profile::WorkerProfile { phases })
    } else {
        None
    };
    let report = WorkerReport {
        processor,
        eval,
        processing_firings,
        sent_tuples_to,
        sent_bytes_to,
        sent_messages: scalars[0],
        received_tuples: scalars[1],
        received_bytes: scalars[2],
        encode_calls: scalars[3],
        encoded_bytes: scalars[4],
        encoded_raw_bytes: scalars[5],
        duplicate_batches: scalars[6],
        replayed_batches: scalars[7],
        stale_dropped: scalars[8],
        retract_tuples_sent: scalars[9],
        retract_tuples_received: scalars[10],
        pooled_tuples: scalars[11],
        busy: Duration::from_micros(scalars[12]),
        profile,
    };
    let npooled = get_count(&mut c, "pooled relations")?;
    let mut pooled: PooledRelations = Vec::with_capacity(npooled.min(1024));
    for _ in 0..npooled {
        let id = get_relation_id(&mut c, interner)?;
        pooled.push((id, get_relation_tuples(&mut c, id.1)?));
    }
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after result"));
    }
    Ok((report, pooled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{ituple, SmallRng, Value};
    use gst_frontend::parse_program;

    fn sample_spec() -> WorkerSpec {
        let unit = parse_program(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Y) :- e(X,Z), t(Z,Y).",
        )
        .unwrap();
        let interner = unit.program.interner.clone();
        let e = (interner.get("e").unwrap(), 2);
        let t = (interner.get("t").unwrap(), 2);
        let inbox = (interner.intern("t@in"), 2);
        let answer = (interner.intern("answer"), 2);
        let sym = interner.intern("leaf");
        let mut db = Database::new(interner.clone());
        for k in 0..5i64 {
            db.insert(e, ituple![k, k + 1]).unwrap();
        }
        db.insert(e, Tuple::new(&[Value::Sym(sym), Value::Int(-3)])).unwrap();
        let route = Route {
            retract: true,
            ..Route::broadcast(t, &interner, vec![(0, inbox), (1, inbox)])
        };
        crate::fixtures::spec(1, unit.program, vec![route], vec![inbox], vec![(t, answer)], db)
    }

    fn roundtrip_job(spec: &WorkerSpec) -> JobFrame {
        let body = encode_job(3, 4, &WorkerConfig::default(), spec, None).unwrap();
        decode_job(&body, None).unwrap()
    }

    #[test]
    fn job_round_trips_spec_and_config() {
        let spec = sample_spec();
        let job = roundtrip_job(&spec);
        assert_eq!(job.epoch, 3);
        assert_eq!(job.n, 4);
        assert_eq!(job.worker.idle_watchdog, WorkerConfig::default().idle_watchdog);
        assert_eq!(job.worker.profile, WorkerConfig::default().profile);
        assert_eq!(job.spec.program.processor, 1);
        assert_eq!(job.spec.program.program.rules, spec.program.program.rules);
        let (got, sent) = (&job.spec.program.routes[0], &spec.program.routes[0]);
        assert_eq!(job.spec.program.routes.len(), 1);
        assert_eq!((&got.source, &got.dests, got.retract), (&sent.source, &sent.dests, true));
        assert!(got.key.is_none());
        assert_eq!(job.spec.program.inboxes, spec.program.inboxes);
        assert_eq!(job.spec.program.processing_rules, spec.program.processing_rules);
        assert_eq!(job.spec.program.pooling, spec.program.pooling);
        // The decoded interner resolves every shipped symbol identically.
        let a = &spec.program.program.interner;
        let b = &job.spec.program.program.interner;
        assert_eq!(a.len(), b.len());
        for idx in 0..a.len() {
            assert_eq!(
                a.resolve(SymbolId(idx as u32)),
                b.resolve(SymbolId(idx as u32))
            );
        }
        // EDB relations survive as sets.
        for (id, rel) in spec.edb.iter() {
            let got = job.spec.edb.relation(*id).expect("relation shipped");
            assert!(rel.set_eq(got), "relation {id:?} differs");
        }
        assert_eq!(job.spec.edb.relation_count(), spec.edb.relation_count());
    }

    #[test]
    fn job_rejects_a_pooling_pair_the_processor_does_not_hold() {
        let mut spec = sample_spec();
        spec.program.pooling[0].0 = (spec.program.program.interner.intern("elsewhere"), 2);
        let body = encode_job(0, 2, &WorkerConfig::default(), &spec, None).unwrap();
        let e = decode_job(&body, None).err().unwrap().to_string();
        assert!(e.contains("processor 1 pools elsewhere/2, which it neither derives"), "{e}");
    }

    #[test]
    fn job_round_trips_session_seed() {
        let mut spec = sample_spec();
        let interner = spec.program.program.interner.clone();
        let t = (interner.get("t").unwrap(), 2);
        let mut state = Relation::new(2);
        state.insert(ituple![10, 11]).unwrap();
        state.insert(ituple![11, 12]).unwrap();
        spec.session = Some(Arc::new(SessionSeed {
            preseed: vec![(t, state.clone())],
            inject: vec![(t, vec![ituple![99, 100]])],
        }));
        let job = roundtrip_job(&spec);
        let seed = job.spec.session.expect("seed shipped");
        assert_eq!(seed.preseed.len(), 1);
        assert!(seed.preseed[0].1.set_eq(&state));
        assert_eq!(seed.inject, vec![(t, vec![ituple![99, 100]])]);
    }

    #[test]
    fn job_with_untravelable_constraint_is_a_clean_error() {
        struct Opaque(Vec<Variable>);
        impl gst_frontend::ast::Constraint for Opaque {
            fn variables(&self) -> &[Variable] {
                &self.0
            }
            fn holds(&self, _: &[gst_common::Word]) -> bool {
                true
            }
            fn describe(&self, _: &Interner) -> String {
                "opaque".into()
            }
        }
        let mut spec = sample_spec();
        spec.program.program.rules[0]
            .body
            .push(Literal::Constraint(Arc::new(Opaque(vec![]))));
        let err = encode_job(0, 2, &WorkerConfig::default(), &spec, None).unwrap_err();
        assert!(err.to_string().contains("cannot travel"), "got: {err}");
    }

    #[test]
    fn envelope_round_trips_every_message_kind() {
        let spec = sample_spec();
        let interner = spec.program.program.interner.clone();
        let inbox = (interner.get("t@in").unwrap(), 2);
        let payload = codec::encode_batch(2, &[ituple![1, 2], ituple![3, 4]]).unwrap();
        let messages = vec![
            Message::Batch { inbox, payload: payload.clone(), retract: true },
            Message::Terminate,
            Message::Recover { epoch: 5, restarted: 3 },
            Message::AckSync { acked: 42 },
            Message::Snapshot { payloads: vec![(inbox, payload)], upto: 9 },
            Message::Abort { reason: "boom".into() },
        ];
        for (k, message) in messages.into_iter().enumerate() {
            let env = Envelope { from: 2, seq: k as u64, epoch: 1, ack: 8, message };
            let body = encode_envelope(3, &env);
            assert_eq!(peek_envelope_dest(&body).unwrap(), 3, "kind {k}");
            let (dest, decoded) = decode_envelope(&body, &interner).unwrap();
            assert_eq!(dest, 3);
            assert_eq!(decoded, env, "message kind {k}");
        }
    }

    #[test]
    fn result_round_trips_report_and_pooled() {
        let report = WorkerReport {
            processor: 2,
            eval: EvalStats {
                rounds: 7,
                firings: 100,
                derived: 60,
                duplicates: 40,
                firings_by_rule: vec![10, 90],
                time_by_rule: vec![3, 1200],
            },
            processing_firings: 90,
            sent_tuples_to: vec![0, 4, 9],
            sent_bytes_to: vec![0, 44, 99],
            sent_messages: 6,
            received_tuples: 11,
            received_bytes: 220,
            encode_calls: 3,
            encoded_bytes: 150,
            encoded_raw_bytes: 600,
            duplicate_batches: 1,
            replayed_batches: 2,
            stale_dropped: 3,
            retract_tuples_sent: 4,
            retract_tuples_received: 5,
            pooled_tuples: 2,
            busy: Duration::from_micros(12345),
            profile: Some(crate::profile::WorkerProfile {
                phases: crate::profile::PhaseTotals {
                    compute: 900,
                    encode: 50,
                    decode: 30,
                    replay: 7,
                    idle: 400,
                },
            }),
        };
        let interner = Interner::new();
        let answer = (interner.intern("answer"), 2);
        let mut rel = Relation::new(2);
        rel.insert(ituple![1, 2]).unwrap();
        rel.insert(ituple![3, 4]).unwrap();
        let pooled: PooledRelations = vec![(answer, rel.clone())];
        let body = encode_result(&report, &pooled).unwrap();
        let (got_report, got_pooled) = decode_result(&body, &interner).unwrap();
        assert_eq!(got_report.processor, 2);
        assert_eq!(got_report.eval.firings, 100);
        assert_eq!(got_report.eval.firings_by_rule, vec![10, 90]);
        assert_eq!(got_report.sent_tuples_to, vec![0, 4, 9]);
        assert_eq!(got_report.sent_bytes_to, vec![0, 44, 99]);
        assert_eq!(got_report.replayed_batches, 2);
        assert_eq!(got_report.busy, Duration::from_micros(12345));
        assert_eq!(got_report.eval.time_by_rule, vec![3, 1200]);
        assert_eq!(got_report.eval, report.eval);
        assert_eq!(got_report.profile, report.profile);
        assert_eq!(got_pooled.len(), 1);
        assert_eq!(got_pooled[0].0, answer);
        assert!(got_pooled[0].1.set_eq(&rel));
    }

    #[test]
    fn relation_payload_of_the_wrong_arity_is_a_typed_error() {
        let mut frame = Vec::new();
        let batch = [ituple![5], ituple![5], ituple![6]];
        put_bytes(&mut frame, &codec::encode_batch(1, &batch).unwrap());
        let err = get_relation_tuples(&mut Cursor::new(&frame), 2).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "got {err:?}");
        assert!(err.to_string().contains("arity mismatch"));
        // The right arity takes the batch insert, duplicates dropped.
        let rel = get_relation_tuples(&mut Cursor::new(&frame), 1).unwrap();
        assert_eq!(rel.sorted(), vec![ituple![5], ituple![6]]);
    }

    #[test]
    fn hello_error_and_nonce_round_trip() {
        assert_eq!(decode_hello(&encode_hello(3, 2)).unwrap(), (3, 2));
        assert_eq!(
            decode_error(&encode_error(true, "watchdog expired")).unwrap(),
            (true, "watchdog expired".to_string())
        );
        assert_eq!(decode_nonce(&encode_nonce(0xFEED)).unwrap(), 0xFEED);
    }

    #[test]
    fn report_round_trips_and_checks_the_fleet_size() {
        let report = PassiveReport { epoch: 2, batch_seq: vec![0, 7, 300], recv_floor: vec![5, 0, 1] };
        let body = encode_report(&report);
        assert_eq!(decode_report(&body, 3).unwrap(), report);
        assert!(decode_report(&body, 2).is_err() && decode_report(&body, 4).is_err());
    }

    /// A `Read` that hands out at most `chunk` bytes per call — the
    /// split-read shape a real TCP stream produces.
    struct Chunked<'a> {
        bytes: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out
                .len()
                .min(self.chunk)
                .min(self.bytes.len() - self.pos);
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_survive_arbitrarily_split_reads() {
        let body = encode_hello(7, 3);
        let mut stream = Vec::new();
        write_frame(&mut stream, FRAME_HELLO, &body).unwrap();
        write_frame(&mut stream, FRAME_SHUTDOWN, &[]).unwrap();
        for chunk in 1..=stream.len() {
            let mut r = Chunked { bytes: &stream, pos: 0, chunk };
            let (kind, got) = read_frame(&mut r).unwrap().expect("first frame");
            assert_eq!((kind, got.as_slice()), (FRAME_HELLO, body.as_slice()));
            let (kind, got) = read_frame(&mut r).unwrap().expect("second frame");
            assert_eq!((kind, got.as_slice()), (FRAME_SHUTDOWN, &[] as &[u8]));
            assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        }
    }

    /// A failed write names the I/O error's kind and text: the heartbeat
    /// failure the coordinator reports is built from this message.
    #[test]
    fn write_failure_carries_the_io_error() {
        struct Refusing;
        impl Write for Refusing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "socket full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Refusing, FRAME_PING, &[]).unwrap_err().to_string();
        assert!(err.contains("WouldBlock") && err.contains("socket full"), "{err}");
    }

    #[test]
    fn garbage_length_prefix_is_rejected_before_allocation() {
        // Length far beyond MAX_FRAME: must fail fast, not allocate 4 GB.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.push(FRAME_HELLO);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible frame length"));

        let err = read_frame(&mut 0u32.to_le_bytes().as_slice()).unwrap_err();
        assert!(err.to_string().contains("zero-length frame"));
    }

    /// Every strict prefix of a framed stream is either a clean EOF (cut
    /// at a frame boundary) or a typed error — never a panic, never an
    /// accepted partial frame.
    #[test]
    fn every_frame_truncation_is_clean_eof_or_typed_error() {
        let spec = sample_spec();
        let job = encode_job(0, 2, &WorkerConfig::default(), &spec, None).unwrap();
        let mut stream = Vec::new();
        write_frame(&mut stream, FRAME_JOB, &job).unwrap();
        let boundary = stream.len();
        write_frame(&mut stream, FRAME_PING, &encode_nonce(1)).unwrap();
        for len in 0..stream.len() {
            let result = std::panic::catch_unwind(|| {
                let mut r = &stream[..len];
                loop {
                    match read_frame(&mut r) {
                        Ok(Some(_)) => {}
                        Ok(None) => return Ok(()),
                        Err(e) => return Err(e),
                    }
                }
            })
            .unwrap_or_else(|_| panic!("prefix {len} panicked"));
            match result {
                Ok(()) => assert!(
                    len == 0 || len == boundary,
                    "prefix {len} accepted but is not a frame boundary"
                ),
                Err(e) => {
                    assert!(matches!(e, Error::Runtime(_)), "prefix {len}: {e:?}")
                }
            }
        }
    }

    /// Truncating and mutating *decoded bodies* (past the frame layer)
    /// must also yield typed errors, never panics: the seeded sweep runs
    /// every body decoder over every strict prefix and a batch of
    /// single-byte corruptions.
    #[test]
    fn fuzz_body_decoders_never_panic() {
        let spec = sample_spec();
        let interner = spec.program.program.interner.clone();
        let inbox = (interner.get("t@in").unwrap(), 2);
        let payload = codec::encode_batch(2, &[ituple![1, 2]]).unwrap();
        let env = Envelope {
            from: 0,
            seq: 5,
            epoch: 1,
            ack: 2,
            message: Message::Batch { inbox, payload, retract: false },
        };
        let report = WorkerReport {
            eval: EvalStats::new(2),
            profile: Some(crate::profile::WorkerProfile {
                phases: crate::profile::PhaseTotals { compute: 77, ..Default::default() },
            }),
            ..WorkerReport::new(0, 2)
        };
        let bodies: Vec<(&str, Vec<u8>)> = vec![
            ("hello", encode_hello(1, 0)),
            ("job", encode_job(0, 2, &WorkerConfig::default(), &spec, None).unwrap()),
            ("envelope", encode_envelope(1, &env)),
            ("result", encode_result(&report, &[]).unwrap()),
            ("error", encode_error(false, "x")),
            ("nonce", encode_nonce(7)),
            ("report", encode_report(&PassiveReport { epoch: 1, batch_seq: vec![3, 0], recv_floor: vec![0, 4] })),
        ];
        let decode_all = |name: &str, bytes: &[u8]| {
            // Each decoder must return cleanly (Ok or typed Err) on any
            // input; panics propagate out of catch_unwind and fail the
            // test with the case context.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = decode_hello(bytes);
                let _ = decode_job(bytes, None);
                let _ = decode_envelope(bytes, &interner);
                let _ = decode_result(bytes, &interner);
                let _ = decode_error(bytes);
                let _ = decode_nonce(bytes);
                let _ = decode_report(bytes, 2);
            }));
            assert!(r.is_ok(), "decoder panicked on corrupted {name} body");
        };
        let mut rng = SmallRng::seed_from_u64(0x0F_F1CE);
        for (name, body) in &bodies {
            for len in 0..body.len() {
                decode_all(name, &body[..len]);
            }
            for _ in 0..200 {
                let mut mutated = body.clone();
                if mutated.is_empty() {
                    continue;
                }
                let at = rng.gen_below(mutated.len() as u64) as usize;
                mutated[at] = rng.gen_below(256) as u8;
                decode_all(name, &mutated);
            }
        }
    }
}
