//! Property tests for the tenant-tagged wire frames: a `Tenant` wrapper
//! must round-trip faithfully for arbitrary tenant identities, stay
//! byte-compatible with untagged (pre-tenant) frames in both
//! directions, and never panic on malformed or truncated input — the
//! peek path included, since the reactor runs it on every admission.

use bda_net::proto::{
    decode_request, encode_request, encode_tenant_wrapped, kind, peek_frame, Request,
};
use proptest::prelude::*;

/// Tenant identities: empty, ascii slug of varying length, and a
/// multibyte unicode name (the codec carries UTF-8 lengths in bytes).
fn tenant_id() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-zA-Z0-9_.:-]{1,24}",
        Just("tenant-\u{7d42}\u{03b1}".to_string()),
    ]
}

/// A small pool of inner requests covering the tag-relevant shapes:
/// plain, traced, and payload-bearing.
fn inner_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello),
        Just(Request::Catalog),
        Just(Request::Metrics),
        "[a-z]{0,12}".prop_map(|name| Request::Remove { name }),
        any::<u64>().prop_map(|trace_id| Request::Traced {
            trace_id,
            inner: Box::new(Request::Catalog),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A tenant wrapper survives encode→decode byte-faithfully for any
    /// tenant string (unicode included), and the cheap peek used at
    /// admission sees the same identity without a full decode.
    #[test]
    fn tenant_wrapper_round_trips_and_peeks(
        tenant in tenant_id(),
        inner in inner_request(),
    ) {
        let req = Request::Tenant { tenant: tenant.clone(), inner: Box::new(inner) };
        let (k, payload) = encode_request(&req);
        prop_assert_eq!(k, kind::TENANT);
        let decoded = decode_request(k, &payload).unwrap();
        prop_assert_eq!(&decoded, &req);
        let peek = peek_frame(k, &payload);
        prop_assert_eq!(peek.tenant.as_deref(), Some(tenant.as_str()));
        prop_assert_eq!(peek.tag, None);
    }

    /// Wrapping already-encoded bytes (the client's clone-free path)
    /// produces the exact wire image of encoding the wrapped request —
    /// old and new encoders can never disagree.
    #[test]
    fn clone_free_wrapping_matches_direct_encoding(
        tenant in tenant_id(),
        inner in inner_request(),
    ) {
        let (ik, ipayload) = encode_request(&inner);
        let wrapped = encode_tenant_wrapped(&tenant, ik, &ipayload);
        let direct =
            encode_request(&Request::Tenant { tenant, inner: Box::new(inner) });
        prop_assert_eq!(wrapped, direct);
    }

    /// Old→new compatibility: untagged frames from a pre-tenant client
    /// decode unchanged, and the peek reports no tenant (so the server
    /// falls back to the peer address, the pre-tenant behaviour).
    #[test]
    fn untagged_frames_decode_as_before(inner in inner_request()) {
        let (k, payload) = encode_request(&inner);
        prop_assert_eq!(decode_request(k, &payload).unwrap(), inner);
        prop_assert_eq!(peek_frame(k, &payload).tenant, None);
    }

    /// New→old shape guarantee: the tenant wrapper adds exactly the tag
    /// prefix (len + utf8 + kind byte + block header) in front of the
    /// unchanged inner bytes, so a reader that strips the prefix sees a
    /// byte-identical pre-tenant frame.
    #[test]
    fn wrapper_embeds_inner_bytes_verbatim(
        tenant in tenant_id(),
        inner in inner_request(),
    ) {
        let (ik, ipayload) = encode_request(&inner);
        let (_, wrapped) =
            encode_tenant_wrapped(&tenant, ik, &ipayload);
        let prefix = 4 + tenant.len() + 1 + 4;
        prop_assert_eq!(wrapped.len(), prefix + ipayload.len());
        prop_assert_eq!(wrapped[4 + tenant.len()], ik);
        prop_assert_eq!(&wrapped[prefix..], &ipayload[..]);
    }

    /// Truncating a tagged frame at any point is an error from the full
    /// decoder and a graceful non-panic from the peek.
    #[test]
    fn truncated_tagged_frames_error_and_peek_never_panics(
        tenant in tenant_id(),
        inner in inner_request(),
        frac in 0.0f64..1.0,
    ) {
        let (k, payload) =
            encode_request(&Request::Tenant { tenant, inner: Box::new(inner) });
        let cut = ((payload.len() as f64) * frac) as usize; // always < len
        prop_assert!(decode_request(k, &payload[..cut]).is_err());
        let _ = peek_frame(k, &payload[..cut]);
    }

    /// Arbitrary bytes presented as a tenant frame never panic either
    /// decoder, and a self-nested tenant tag is always rejected.
    #[test]
    fn malformed_tagged_frames_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        tenant in tenant_id(),
    ) {
        let _ = decode_request(kind::TENANT, &bytes);
        let _ = peek_frame(kind::TENANT, &bytes);
        // Hand-build Tenant{Tenant{Hello}} — illegal nesting.
        let (ik, ipayload) = encode_request(&Request::Hello);
        let (nk, nested) = encode_tenant_wrapped(&tenant, ik, &ipayload);
        let (ok, outer) = encode_tenant_wrapped(&tenant, nk, &nested);
        prop_assert!(decode_request(ok, &outer).is_err());
    }
}
