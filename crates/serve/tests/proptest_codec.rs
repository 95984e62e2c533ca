//! Property tests for the DOM-VXD frame codec: `decode ∘ encode` is the
//! identity on every valid request/reply, and *no* byte string — random
//! garbage, truncations, corruptions — can make the decoder panic or
//! silently mis-parse. The codec is the server's outer wall; these are
//! the bricks-thrown-at-it tests.

use mix_serve::codec::{
    read_frame, write_frame, ErrorCode, FirstAnswer, FrameError, Link, Reply, Request,
    ShippedNode, TraceContext, Verb,
};
use proptest::prelude::*;

fn arb_str() -> impl Strategy<Value = String> {
    // Includes empty strings, multi-byte UTF-8, and protocol-ish names.
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,12}".prop_map(|s| s.to_string()),
        Just("med_home".to_string()),
        Just("düsseldorf-κ".to_string()),
    ]
}

fn arb_verb() -> impl Strategy<Value = Verb> {
    prop_oneof![
        arb_str().prop_map(|template| Verb::Open { template }),
        (0u64..=u64::MAX).prop_map(|node| Verb::Down { node }),
        (0u64..=u64::MAX).prop_map(|node| Verb::Right { node }),
        (0u64..=u64::MAX).prop_map(|node| Verb::Fetch { node }),
        ((0u64..=u64::MAX), arb_str()).prop_map(|(node, label)| Verb::Select { node, label }),
        Just(Verb::Close),
    ]
}

fn arb_trace() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        ((0u64..=u64::MAX), prop_oneof![Just(false), Just(true)])
            .prop_map(|(span, sampled)| Some(TraceContext { span, sampled })),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    ((0u64..=u64::MAX), arb_verb(), arb_trace()).prop_map(|(session, verb, trace)| {
        let req = Request::new(session, verb);
        match trace {
            Some(ctx) => req.with_trace(ctx),
            None => req,
        }
    })
}

/// The PR-8 context-free encoder, re-rolled by hand: session, opcode,
/// verb args, nothing else. Back-compat oracle for the trailer change.
fn encode_pr8(session: u64, verb: &Verb) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&session.to_le_bytes());
    let put_str = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    match verb {
        Verb::Open { template } => {
            out.push(0x01);
            put_str(&mut out, template);
        }
        Verb::Down { node } => {
            out.push(0x02);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Verb::Right { node } => {
            out.push(0x03);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Verb::Fetch { node } => {
            out.push(0x04);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Verb::Select { node, label } => {
            out.push(0x05);
            out.extend_from_slice(&node.to_le_bytes());
            put_str(&mut out, label);
        }
        Verb::Close => out.push(0x06),
    }
    out
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::UnknownSession),
        Just(ErrorCode::UnknownHandle),
        Just(ErrorCode::UnknownTemplate),
        Just(ErrorCode::BadFrame),
        Just(ErrorCode::Internal),
        Just(ErrorCode::SessionLimit),
        Just(ErrorCode::LabelTooLong),
    ]
}

fn arb_nodes() -> impl Strategy<Value = Vec<ShippedNode>> {
    // Links are drawn as (kind, raw index) and bound to the list's length
    // once it is known.
    let link = ((0u8..3), (0u16..=u16::MAX));
    let node = ((0u64..=u64::MAX), arb_str(), link.clone(), link);
    proptest::collection::vec(node, 1..6).prop_map(|raw| {
        let n = raw.len() as u16;
        let bind = |(kind, index): (u8, u16)| match kind {
            0 => Link::Unknown,
            1 => Link::End,
            _ => Link::To(index % n),
        };
        raw.into_iter()
            .map(|(handle, label, down, right)| ShippedNode {
                handle,
                label,
                down: bind(down),
                right: bind(right),
            })
            .collect()
    })
}

fn arb_node_list() -> impl Strategy<Value = Reply> {
    arb_nodes().prop_map(|nodes| Reply::Nodes { nodes })
}

/// `Opened` with each kind of first answer: unknown (with or without
/// degraded sources), the end of the axis, or a node list.
fn arb_opened() -> impl Strategy<Value = Reply> {
    let first = prop_oneof![
        proptest::collection::vec(arb_str(), 0..4)
            .prop_map(|degraded| FirstAnswer::Unknown { degraded }),
        Just(FirstAnswer::End),
        arb_nodes().prop_map(FirstAnswer::Nodes),
    ];
    ((0u64..=u64::MAX), (0u64..=u64::MAX), first)
        .prop_map(|(session, root, first)| Reply::Opened { session, root, first })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        arb_opened(),
        (0u64..=u64::MAX).prop_map(|handle| Reply::Node { handle }),
        arb_node_list(),
        Just(Reply::End),
        arb_str().prop_map(|label| Reply::Label { label }),
        (arb_str(), proptest::collection::vec(arb_str(), 0..4))
            .prop_map(|(label, sources)| Reply::DegradedLabel { label, sources }),
        Just(Reply::Closed),
        (arb_error_code(), arb_str()).prop_map(|(code, msg)| Reply::Error { code, msg }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn requests_round_trip(req in arb_request()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn replies_round_trip(reply in arb_reply()) {
        prop_assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
    }

    /// A reply has no optional part, so every strict prefix of its
    /// encoding is `Truncated` — the whole ladder, not one random rung.
    #[test]
    fn every_reply_truncation_is_truncated(reply in arb_reply()) {
        let enc = reply.encode();
        for cut in 0..enc.len() {
            prop_assert!(
                matches!(Reply::decode(&enc[..cut]), Err(FrameError::Truncated { .. })),
                "cut {} of {:?}", cut, reply
            );
        }
    }

    /// Bytes after a complete reply are counted, never absorbed.
    #[test]
    fn reply_trailing_bytes_are_typed(
        reply in arb_reply(),
        junk in proptest::collection::vec(0u8..=255, 1..8),
    ) {
        let mut enc = reply.encode();
        enc.extend_from_slice(&junk);
        prop_assert_eq!(Reply::decode(&enc), Err(FrameError::TrailingBytes { extra: junk.len() }));
    }

    /// Every strict prefix of a node list is `Truncated`, at every rung.
    #[test]
    fn every_node_list_truncation_is_truncated(reply in arb_node_list()) {
        let enc = reply.encode();
        for cut in 0..enc.len() {
            prop_assert!(
                matches!(Reply::decode(&enc[..cut]), Err(FrameError::Truncated { .. })),
                "cut {} of {:?}", cut, reply
            );
        }
        let mut padded = enc.clone();
        padded.push(0);
        prop_assert_eq!(Reply::decode(&padded), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    /// Random bodies behind the node-list tag (each shipped node is a
    /// labelled node): a typed error, or a value that re-encodes to
    /// exactly those bytes.
    #[test]
    fn random_labelled_node_bodies_never_panic(
        count in 0u16..4,
        nodes in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..=255, 0..12),
                prop_oneof![Just(None), (0u16..8).prop_map(Some)],
                proptest::collection::vec(prop_oneof![0u8..=3, 0u8..=255], 0..6),
            ),
            0..4,
        ),
    ) {
        // A count, then per node: bytes for its handle and maybe a
        // plausible string length, then bytes for its label and links,
        // mostly valid link tags.
        let mut bytes = vec![0x87];
        bytes.extend_from_slice(&count.to_le_bytes());
        for (head, str_len, tail) in &nodes {
            let handle_end = head.len().min(8);
            bytes.extend_from_slice(&head[..handle_end]);
            if let Some(len) = str_len {
                bytes.extend_from_slice(&len.to_le_bytes());
            }
            bytes.extend_from_slice(&head[handle_end..]);
            bytes.extend_from_slice(tail);
        }
        match Reply::decode(&bytes) {
            Ok(reply) => {
                prop_assert!(matches!(&reply, Reply::Nodes { nodes } if !nodes.is_empty()));
                prop_assert_eq!(reply.encode(), bytes, "lossless parse only");
            }
            Err(err) => prop_assert!(
                matches!(err, FrameError::Truncated { .. } | FrameError::BadUtf8
                    | FrameError::TrailingBytes { .. } | FrameError::EmptyNodeList
                    | FrameError::BadLinkTag(_) | FrameError::LinkOutOfRange { .. }),
                "unexpected error class: {err}"
            ),
        }
    }

    /// Random bytes after an `Opened` header: a typed error, or a value
    /// that re-encodes to exactly those bytes.
    #[test]
    fn random_first_answers_never_panic(
        tag in prop_oneof![Just(0x00u8), Just(0x01), Just(0x87), 0u8..=255],
        body in proptest::collection::vec(prop_oneof![0u8..=3, 0u8..=255], 0..40),
    ) {
        let mut bytes = vec![0x81];
        bytes.extend_from_slice(&[7; 16]);
        bytes.push(tag);
        bytes.extend_from_slice(&body);
        match Reply::decode(&bytes) {
            Ok(reply) => {
                prop_assert!(matches!(reply, Reply::Opened { .. }));
                prop_assert_eq!(reply.encode(), bytes, "lossless parse only");
            }
            Err(err) => prop_assert!(
                matches!(err, FrameError::Truncated { .. } | FrameError::BadUtf8
                    | FrameError::TrailingBytes { .. } | FrameError::EmptyNodeList
                    | FrameError::BadLinkTag(_) | FrameError::LinkOutOfRange { .. }),
                "unexpected error class: {err}"
            ),
        }
    }

    #[test]
    fn framing_round_trips(req in arb_request()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Garbage in, typed error or valid value out — never a panic, and
    /// strictness means a successful parse re-encodes to the same bytes.
    #[test]
    fn random_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        if let Ok(req) = Request::decode(&bytes) {
            prop_assert_eq!(req.encode(), bytes.clone(), "lossless parse only");
        }
        if let Ok(reply) = Reply::decode(&bytes) {
            prop_assert_eq!(reply.encode(), bytes, "lossless parse only");
        }
    }

    /// Any strict prefix of a valid encoding is a typed error — except
    /// the one prefix that is itself a complete valid encoding: cutting a
    /// traced request exactly at the trailer boundary yields the
    /// context-free form of the same request (that's the back-compat
    /// contract, not a parser hole). Strictness still demands any
    /// accepted prefix re-encode to exactly those bytes.
    #[test]
    fn every_truncation_is_a_typed_error(req in arb_request(), cut in 0usize..64) {
        let enc = req.encode();
        if cut < enc.len() {
            match Request::decode(&enc[..cut]) {
                Ok(parsed) => prop_assert_eq!(parsed.encode(), &enc[..cut], "lossless parse only"),
                Err(err) => prop_assert!(
                    matches!(err, FrameError::Truncated { .. } | FrameError::UnknownOpcode(_)
                        | FrameError::BadUtf8 | FrameError::BadTraceMarker(_)
                        | FrameError::BadTraceFlags(_) | FrameError::TrailingBytes { .. }),
                    "unexpected error class: {err}"
                ),
            }
        }
    }

    /// PR-8 byte strings — frames encoded before the trace trailer
    /// existed — still decode, to the same request with no context, and
    /// re-encode byte-identically.
    #[test]
    fn pr8_context_free_bytes_still_decode(session in 0u64..=u64::MAX, verb in arb_verb()) {
        let legacy = encode_pr8(session, &verb);
        let parsed = Request::decode(&legacy).expect("legacy frame decodes");
        prop_assert_eq!(parsed.trace, None, "no invented context");
        prop_assert_eq!(&parsed.session, &session);
        prop_assert_eq!(&parsed.verb, &verb);
        prop_assert_eq!(parsed.encode(), legacy, "same bytes both eras");
    }

    /// The trailer is strict: a wrong marker byte or reserved flag bits
    /// are typed errors, not ignored decoration.
    #[test]
    fn trailer_corruption_is_typed(req in arb_request(), marker in 0u8..=255, flags in 2u8..=255) {
        let base = Request::new(req.session, req.verb.clone());
        let mut enc = base.with_trace(TraceContext { span: 7, sampled: true }).encode();
        let len = enc.len();
        if marker != 0x54 {
            enc[len - 10] = marker;
            prop_assert!(matches!(
                Request::decode(&enc),
                Err(FrameError::BadTraceMarker(_)) | Err(FrameError::Truncated { .. })
                    | Err(FrameError::BadUtf8) | Err(FrameError::TrailingBytes { .. })
            ));
            enc[len - 10] = 0x54;
        }
        enc[len - 1] = flags;
        prop_assert!(matches!(Request::decode(&enc), Err(FrameError::BadTraceFlags(_))));
    }

    /// Appending garbage to a valid encoding is always caught: either the
    /// trailing check fires, or a length-prefixed string absorbed the
    /// extra bytes and a structural error resulted — never a silent
    /// accept of the original value plus junk.
    #[test]
    fn trailing_garbage_never_parses_as_the_original(
        req in arb_request(),
        junk in proptest::collection::vec(0u8..=255, 1..8),
    ) {
        let mut enc = req.encode();
        enc.extend_from_slice(&junk);
        if let Ok(parsed) = Request::decode(&enc) {
            // Only reachable if the junk re-shaped a string field; the
            // strict re-encode must then equal the junked bytes.
            prop_assert_eq!(parsed.encode(), enc);
        }
    }
}

/// The stream-level guards are deterministic; pin them outside proptest.
#[test]
fn stream_guards_are_typed() {
    // Oversized prefix: rejected before any allocation.
    let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0x7F, 0, 0];
    assert!(matches!(read_frame(&mut bytes), Err(FrameError::Oversized { .. })));
    // Truncated prefix.
    let mut bytes: &[u8] = &[9, 0];
    assert!(matches!(read_frame(&mut bytes), Err(FrameError::Truncated { .. })));
    // EOF between frames is the clean close.
    let mut bytes: &[u8] = &[];
    assert_eq!(read_frame(&mut bytes), Err(FrameError::Closed));
    // Truncated payload.
    let mut bytes: &[u8] = &[8, 0, 0, 0, 1, 2, 3];
    assert!(matches!(read_frame(&mut bytes), Err(FrameError::Truncated { .. })));
}
