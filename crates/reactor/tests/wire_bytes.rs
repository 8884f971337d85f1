//! The wire-byte counters agree with the socket: on both serving cores,
//! `bda_net_wire_bytes_total{direction="sent"}` is exactly the number of
//! bytes a client read back, and `direction="received"` exactly the
//! number it wrote — across small replies, an error reply, a malformed
//! request, and a dataset large enough to span several frames.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bda_core::{Plan, ReferenceProvider};
use bda_net::frame::{read_message, write_message};
use bda_net::proto::{decode_response, encode_request};
use bda_net::{Request, Response, MAX_FRAME_PAYLOAD};
use bda_obs::MetricsHub;
use bda_reactor::{serve_reactor, ReactorOptions};
use bda_storage::{Column, DataSet, Schema};

/// Rows enough that the dataset reply needs more than one frame.
const ROWS: usize = MAX_FRAME_PAYLOAD / 8 + 1024;

fn big() -> DataSet {
    DataSet::from_columns(vec![(
        "v",
        Column::from((0..ROWS).map(|i| i as f64).collect::<Vec<f64>>()),
    )])
    .unwrap()
}

/// Send every request on one connection; returns (bytes written, bytes
/// read, replies).
fn drive(addr: SocketAddr, schema: Schema) -> (u64, u64, Vec<Response>) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames: Vec<(u8, Vec<u8>)> = [
        Request::Hello,
        Request::Store {
            name: "big".into(),
            data: big(),
        },
        Request::Execute {
            plan: Plan::scan("big", schema.clone()),
        },
        Request::Execute {
            plan: Plan::scan("missing", schema),
        },
        Request::Catalog,
    ]
    .iter()
    .map(encode_request)
    .collect();
    frames.push((0x7E, b"junk".to_vec()));
    let (mut written, mut read, mut replies) = (0, 0, Vec::new());
    for (kind, payload) in frames {
        written += write_message(&mut conn, kind, &payload).unwrap();
        conn.flush().unwrap();
        let (rkind, rpayload, n) = read_message(&mut conn).unwrap();
        read += n;
        replies.push(decode_response(rkind, &rpayload).unwrap());
    }
    (written, read, replies)
}

fn counter(hub: &MetricsHub, direction: &str) -> u64 {
    let key = format!("bda_net_wire_bytes_total{{direction=\"{direction}\"}} ");
    let text = hub.render();
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .unwrap_or_else(|| panic!("no {key} in:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

fn check(core: &str, addr: SocketAddr, hub: &MetricsHub) {
    let schema = big().schema().clone();
    let (written, read, replies) = drive(addr, schema);
    assert!(
        matches!(&replies[2], Response::DataSet(d) if d.num_rows() == ROWS),
        "{core}: scan reply"
    );
    assert!(
        matches!(replies[3], Response::Error { .. }),
        "{core}: missing dataset is an error reply"
    );
    assert!(
        matches!(replies[5], Response::Error { .. }),
        "{core}: junk kind is an error reply"
    );
    assert!(read > MAX_FRAME_PAYLOAD as u64, "{core}: multi-frame");
    assert_eq!(counter(hub, "sent"), read, "{core}: sent vs read");
    assert_eq!(
        counter(hub, "received"),
        written,
        "{core}: received vs written"
    );
}

#[test]
fn sent_bytes_equal_what_the_client_read_on_both_cores() {
    let classic = bda_net::serve(Arc::new(ReferenceProvider::new("ref")), "127.0.0.1:0").unwrap();
    check("classic", classic.addr(), &classic.metrics());

    let reactor = serve_reactor(
        Arc::new(ReferenceProvider::new("ref")),
        "127.0.0.1:0",
        ReactorOptions::default(),
    )
    .unwrap();
    check("reactor", reactor.addr(), &reactor.metrics());
}
