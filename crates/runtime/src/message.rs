//! Wire format between workers.

use std::sync::Arc;

use gst_eval::plan::RelationId;

/// An immutable, cheaply cloneable serialized batch. Cloning an envelope
/// (e.g. when the fault injector duplicates a delivery) copies a pointer,
/// not the payload.
pub type Payload = Arc<Vec<u8>>;

/// A message traveling on a channel `i → j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A serialized batch of derived tuples for the destination's inbox
    /// predicate (see [`crate::codec`]). This is the paper's channel
    /// relation `t_ij`: "addition of tuples to the predicate `t_ij` ...
    /// should be interpreted as processor i sending the tuples to
    /// processor j". Batches travel encoded so communication is measured
    /// in wire bytes. The inbox rides in the envelope, not the payload:
    /// payload bytes are destination-independent, so a broadcast encodes
    /// its delta once and every destination shares the same `Arc`.
    Batch {
        /// The destination's inbox predicate the tuples inject into.
        inbox: RelationId,
        /// The encoded columnar batch.
        payload: Payload,
        /// Delete-marked batch: the tuples are retractions (facts of a
        /// DRed `~del` predicate shipped during an update round's
        /// over-deletion phase) rather than derivations. Injection and
        /// replay are identical to ordinary batches — the deletion
        /// phase is itself a monotone fixpoint over `~del` facts — but
        /// receivers account the traffic separately.
        retract: bool,
    },
    /// Global termination announcement, broadcast by the supervisor once
    /// every link balances (`supervisor.rs`).
    Terminate,
    /// Recovery: processor `restarted` was rebuilt; every receiver enters
    /// `epoch`, forgets the restarted link's receive state, and answers
    /// with [`Message::AckSync`] so senders know where to replay from.
    Recover {
        /// The new recovery epoch.
        epoch: u64,
        /// The processor that was restarted.
        restarted: usize,
    },
    /// Recovery handshake: "my contiguous receive watermark for your link
    /// is `acked` — replay everything from there". Sent to every peer on
    /// [`Message::Recover`].
    AckSync {
        /// All batch sequence numbers `< acked` on this link have been
        /// absorbed by the sender of this message.
        acked: u64,
    },
    /// Replay of a compacted log prefix: every batch with sequence number
    /// `< upto` on this link, as one logical message. Sets the receiver's
    /// watermark to `upto`.
    Snapshot {
        /// The compacted batches' payloads as first shipped, in ship
        /// order, each with the inbox it addresses.
        payloads: Vec<(RelationId, Payload)>,
        /// The watermark this snapshot stands in for.
        upto: u64,
    },
    /// Fatal-error broadcast from the supervisor: tear down immediately
    /// instead of idling into the watchdog.
    Abort {
        /// Human-readable cause (the originating worker's error).
        reason: String,
    },
}

impl Message {
    /// Short tag for traces and diagnostics.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Batch { .. } => MessageKind::Batch,
            Message::Terminate => MessageKind::Terminate,
            Message::Recover { .. } => MessageKind::Recover,
            Message::AckSync { .. } => MessageKind::AckSync,
            Message::Snapshot { .. } => MessageKind::Snapshot,
            Message::Abort { .. } => MessageKind::Abort,
        }
    }
}

/// The variant of a [`Message`], without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A tuple batch (the only kind subject to duplication/drop faults).
    Batch,
    /// The termination broadcast.
    Terminate,
    /// The recovery broadcast.
    Recover,
    /// The recovery watermark handshake.
    AckSync,
    /// A compacted replay-log prefix.
    Snapshot,
    /// The fatal-error teardown broadcast.
    Abort,
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageKind::Batch => write!(f, "batch"),
            MessageKind::Terminate => write!(f, "terminate"),
            MessageKind::Recover => write!(f, "recover"),
            MessageKind::AckSync => write!(f, "ack-sync"),
            MessageKind::Snapshot => write!(f, "snapshot"),
            MessageKind::Abort => write!(f, "abort"),
        }
    }
}

/// A message with its routing metadata, as delivered to a worker's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending processor index.
    pub from: usize,
    /// Per-link sequence number, assigned by the sender. Batches draw from
    /// a dense per-link space (so the receiver can keep a contiguous
    /// watermark for replay truncation); control messages draw from a
    /// separate space used only for traces. A transport that duplicates a
    /// delivery (fault injection) reuses the sequence number, so the
    /// duplicate moves no receive watermark while its payload is still
    /// absorbed (harmless under set semantics).
    pub seq: u64,
    /// Recovery epoch the envelope was sent in. Receivers in a later epoch
    /// drop the envelope uncounted — its content is guaranteed by replay.
    pub epoch: u64,
    /// Piggybacked cumulative acknowledgement: the sender's contiguous
    /// receive watermark for the *destination's* link. Lets the receiver
    /// truncate (compact) its replay log for this link.
    pub ack: u64,
    /// Payload.
    pub message: Message,
}

impl Envelope {
    /// A supervisor's broadcast (`Recover`, `Terminate`, `Abort`): it
    /// travels on no link, so it has no sequence number and acknowledges
    /// nothing. `from` is the processor a `Recover` or `Abort` concerns,
    /// and 0 for `Terminate`.
    pub(crate) fn control(from: usize, epoch: u64, message: Message) -> Envelope {
        Envelope { from, seq: 0, epoch, ack: 0, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    #[test]
    fn envelope_carries_payloads() {
        let interner = gst_common::Interner::new();
        let pred = (interner.intern("anc_in"), 2);
        let payload = crate::codec::encode_batch(pred.1, &[ituple![1, 2]]).unwrap();
        let env = Envelope {
            from: 3,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Batch { inbox: pred, payload, retract: false },
        };
        assert_eq!(env.from, 3);
        assert_eq!(env.message.kind(), MessageKind::Batch);
        match env.message {
            Message::Batch { inbox, payload, retract: false } => {
                assert_eq!(inbox, pred, "the inbox rides in the envelope");
                let tuples = crate::codec::decode_batch(&payload).unwrap();
                assert_eq!(tuples, vec![ituple![1, 2]]);
            }
            _ => panic!("wrong variant"),
        }
        let term = Envelope::control(0, 0, Message::Terminate);
        assert_eq!(term.message.kind(), MessageKind::Terminate);
    }

    #[test]
    fn envelope_clone_shares_payload() {
        let interner = gst_common::Interner::new();
        let pred = (interner.intern("t_in"), 1);
        let payload = crate::codec::encode_batch(pred.1, &[ituple![7]]).unwrap();
        let env = Envelope {
            from: 1,
            seq: 9,
            epoch: 0,
            ack: 0,
            message: Message::Batch { inbox: pred, payload, retract: false },
        };
        let dup = env.clone();
        match (&env.message, &dup.message) {
            (Message::Batch { payload: a, .. }, Message::Batch { payload: b, .. }) => {
                assert!(std::sync::Arc::ptr_eq(a, b), "clone is pointer-cheap");
            }
            _ => panic!("wrong variants"),
        }
        assert_eq!(env, dup);
    }

    #[test]
    fn recovery_kinds_have_display_tags() {
        for (msg, tag) in [
            (Message::Terminate, "terminate"),
            (Message::Recover { epoch: 1, restarted: 2 }, "recover"),
            (Message::AckSync { acked: 3 }, "ack-sync"),
            (Message::Snapshot { payloads: vec![], upto: 4 }, "snapshot"),
            (Message::Abort { reason: "boom".into() }, "abort"),
        ] {
            assert_eq!(msg.kind().to_string(), tag);
        }
    }
}
