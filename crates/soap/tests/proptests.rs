//! Property tests: the SOAP codec is lossless for every value the PortTypes
//! can carry, and the decoders never panic on arbitrary input.

use pperf_soap::{
    decode_binary_batch_call, decode_binary_batch_response, decode_call, decode_response,
    encode_binary_batch_call, encode_binary_batch_response, encode_call, encode_fault,
    encode_response, pack_strs, unpack_strs, BatchEntry, Fault, SoapError, Value, WireError,
};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::string::string_regex("\\PC{0,60}")
            .unwrap()
            .prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks equality, covered by a unit test.
        proptest::num::f64::NORMAL.prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(proptest::string::string_regex("\\PC{0,40}").unwrap(), 0..8)
            .prop_map(Value::StrArray),
        Just(Value::Nil),
    ]
}

fn method_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,20}"
}

proptest! {
    #[test]
    fn call_roundtrip(
        method in method_strategy(),
        params in proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,12}", value_strategy()), 0..6),
    ) {
        let borrowed: Vec<(&str, Value)> =
            params.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let wire = encode_call(&method, "urn:test", &borrowed);
        let call = decode_call(&wire).expect("own encoding must decode");
        prop_assert_eq!(&call.method, &method);
        prop_assert_eq!(call.params.len(), params.len());
        for ((name, value), (dn, dv)) in params.iter().zip(&call.params) {
            prop_assert_eq!(name, dn);
            prop_assert_eq!(value, dv);
        }
    }

    #[test]
    fn response_roundtrip(method in method_strategy(), value in value_strategy()) {
        let wire = encode_response(&method, &value);
        let decoded = decode_response(&wire).expect("own encoding must decode");
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn fault_roundtrip(msg in "\\PC{0,60}", detail in proptest::option::of("\\PC{0,60}")) {
        let mut fault = Fault::server(msg.clone());
        if let Some(d) = &detail {
            fault = fault.with_detail(d.clone());
        }
        let wire = encode_fault(&fault);
        match decode_response(&wire) {
            Err(SoapError::Fault(f)) => {
                prop_assert_eq!(f.string, msg);
                prop_assert_eq!(f.detail, detail);
            }
            other => prop_assert!(false, "expected fault, got {:?}", other),
        }
    }

    #[test]
    fn decoders_never_panic(input in "\\PC{0,300}") {
        let _ = decode_call(&input);
        let _ = decode_response(&input);
    }

    #[test]
    fn packed_codec_roundtrip(
        items in proptest::collection::vec(proptest::string::string_regex("\\PC{0,40}").unwrap(), 0..24),
    ) {
        prop_assert_eq!(unpack_strs(&pack_strs(&items)).unwrap(), items.clone());
        // And through the full wire path, where arrays at/above the pack
        // threshold take the columnar form.
        let wire = encode_response("getPR", &Value::StrArray(items.clone()));
        prop_assert_eq!(decode_response(&wire).unwrap(), Value::StrArray(items));
    }

    #[test]
    fn unpack_never_panics(input in "\\PC{0,200}") {
        let _ = unpack_strs(&input);
    }

    #[test]
    fn ppgb_call_roundtrip_byte_identical(
        entries in proptest::collection::vec(
            (
                "[a-zA-Z0-9/_-]{1,40}",
                method_strategy(),
                proptest::option::of("[a-z:]{1,20}"),
                proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,12}", value_strategy()), 0..4),
            ),
            0..6,
        ),
    ) {
        let built: Vec<BatchEntry> = entries
            .iter()
            .map(|(path, method, ns, params)| BatchEntry {
                path: format!("/{path}"),
                method: method.clone(),
                namespace: ns.clone(),
                params: params.clone(),
            })
            .collect();
        let frame = encode_binary_batch_call(&built, None);
        let (decoded, ctx) = decode_binary_batch_call(&frame).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &built);
        prop_assert!(ctx.is_none());
        // The codec is canonical: re-encoding the decoded envelope yields
        // the original frame byte for byte.
        prop_assert_eq!(encode_binary_batch_call(&decoded, None), frame);
    }

    #[test]
    fn ppgb_response_roundtrip_byte_identical(
        outcomes in proptest::collection::vec(
            prop_oneof![
                value_strategy().prop_map(Ok),
                ("\\PC{0,40}", proptest::option::of("\\PC{0,40}")).prop_map(|(msg, detail)| {
                    let mut f = Fault::server(msg);
                    if let Some(d) = detail {
                        f = f.with_detail(d);
                    }
                    Err(f)
                }),
            ],
            0..8,
        ),
    ) {
        let frame = encode_binary_batch_response(&outcomes);
        let decoded = decode_binary_batch_response(&frame).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &outcomes);
        prop_assert_eq!(encode_binary_batch_response(&decoded), frame);
    }

    #[test]
    fn ppgb_truncation_yields_typed_error(
        outcomes in proptest::collection::vec(value_strategy().prop_map(Ok), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let frame = encode_binary_batch_response(&outcomes);
        let cut = (cut_seed % frame.len() as u64) as usize;
        match decode_binary_batch_response(&frame[..cut]) {
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
            Err(e) => prop_assert!(e.is_corrupt(), "truncation must be corrupt, got {:?}", e),
        }
    }

    #[test]
    fn ppgb_bit_flips_never_panic(
        entries in proptest::collection::vec(
            ("[a-zA-Z0-9/_-]{1,30}", method_strategy()),
            1..4,
        ),
        flip_seed in any::<u64>(),
    ) {
        let built: Vec<BatchEntry> = entries
            .iter()
            .map(|(path, method)| BatchEntry {
                path: format!("/{path}"),
                method: method.clone(),
                namespace: None,
                params: vec![],
            })
            .collect();
        let mut frame = encode_binary_batch_call(&built, None);
        let i = (flip_seed % frame.len() as u64) as usize;
        frame[i] ^= 1 << ((flip_seed >> 32) % 8);
        // The flip may still decode (a length byte that stays consistent, a
        // character swap); what it must never do is panic or allocate wild.
        match decode_binary_batch_call(&frame) {
            Ok(_) => {}
            Err(WireError::Fault(_)) => {} // kind byte flipped to 3
            Err(e) => prop_assert!(e.is_corrupt()),
        }
    }

    #[test]
    fn ppgb_decoders_never_panic(input in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_binary_batch_call(&input);
        let _ = decode_binary_batch_response(&input);
    }

    #[test]
    fn doubles_roundtrip_exactly(d in any::<f64>()) {
        let wire = encode_response("m", &Value::Double(d));
        match decode_response(&wire).unwrap() {
            Value::Double(back) => {
                if d.is_nan() {
                    prop_assert!(back.is_nan());
                } else {
                    prop_assert_eq!(back, d);
                }
            }
            other => prop_assert!(false, "expected double, got {:?}", other),
        }
    }
}
