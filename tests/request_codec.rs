//! One request codec, pinned by bytes: a WAL admit record
//! (`fol_serve::encode_admit`) and a wire submit frame
//! (`fol_net::wire::ClientMsg::Submit`) each wrap the same
//! `Request::encode` bytes in their own header. Every variant is checked
//! against literal bytes, so a codec change that would strand logs on disk
//! or peers on the wire fails here first.

use fol_net::wire::ClientMsg;
use fol_serve::{decode_record, encode_admit, DurRecord, Priority, Request, WorkloadClass};
use std::time::Duration;

/// Little-endian hex, spaces between fields for the reader only.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(&p.iter().collect::<String>(), 16).unwrap())
        .collect()
}

#[test]
fn admit_records_and_submit_frames_carry_the_same_request_bytes() {
    use WorkloadClass::*;
    // Every variant: a tag, then a u32 key count and i64 keys, or a class
    // tag and the u32 shard count and shard.
    let variants = [
        (
            Request::ChainInsert { keys: vec![1, -2] },
            "00 02000000 0100000000000000 feffffffffffffff",
        ),
        (
            Request::OaInsert { keys: vec![3] },
            "01 01000000 0300000000000000",
        ),
        (Request::OaLookup { keys: vec![] }, "02 00000000"),
        (
            Request::BstInsert { keys: vec![0x0102] },
            "03 01000000 0201000000000000",
        ),
        (Request::InjectRot { class: Bst }, "04 02"),
        (Request::PoisonPill { class: Chain }, "05 00"),
        (Request::Digest { class: OpenAddr }, "06 01"),
        (
            Request::ShardDigest {
                class: Bst,
                shards: 32,
                shard: 5,
            },
            "07 02 20000000 05000000",
        ),
        (
            Request::ShardKeys {
                class: Chain,
                shards: 8,
                shard: 7,
            },
            "08 00 08000000 07000000",
        ),
    ];
    // Admit: record tag, seq 5, priority High, deadline 250 ms.
    let admit_header = hex("01 0500000000000000 02 01 fa00000000000000");
    // Submit: op, client 9, seq 5, floor 3, deadline 250 ms, shard 2,
    // epoch 4, priority Normal.
    let submit_header = hex(
        "01 0900000000000000 0500000000000000 0300000000000000 01 fa00000000000000 \
         02000000 0400000000000000 01",
    );
    for (request, bytes) in variants {
        let bytes = hex(bytes);
        let admit = encode_admit(
            5,
            &request,
            Priority::High,
            Some(Duration::from_millis(250)),
        );
        assert_eq!(admit, [&admit_header[..], &bytes].concat(), "{request:?}");
        assert_eq!(
            decode_record(&admit),
            Ok(DurRecord::Admit {
                seq: 5,
                request: request.clone(),
                priority: Priority::High,
                deadline_millis: Some(250),
            })
        );

        let submit = ClientMsg::Submit {
            client_id: 9,
            seq: 5,
            acked_floor: 3,
            deadline_millis: Some(250),
            shard: 2,
            map_epoch: 4,
            request: request.clone(),
        };
        let encoded = submit.encode();
        assert_eq!(
            encoded,
            [&submit_header[..], &bytes].concat(),
            "{request:?}"
        );
        assert_eq!(ClientMsg::decode(&encoded), Ok(submit));
    }
}
