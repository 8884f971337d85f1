//! The README multi-process quick start, runnable: connect to two
//! `bda-served` processes and run a federated query over real TCP.
//!
//! ```bash
//! bda-served --engine relational --name rel --listen 127.0.0.1:7401 --demo &
//! bda-served --engine linalg --name la --listen 127.0.0.1:7402 --demo &
//! cargo run --example remote_quickstart            # default addresses
//! cargo run --example remote_quickstart -- HOST:PORT HOST:PORT
//! ```

use std::sync::Arc;

use bda::core::{col, lit, Provider};
use bda::federation::{ExecOptions, Federation, TransferMode};
use bda::lang::Query;
use bda_net::RemoteProvider;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let rel_addr = args.next().unwrap_or_else(|| "127.0.0.1:7401".into());
    let la_addr = args.next().unwrap_or_else(|| "127.0.0.1:7402".into());

    let rel = Arc::new(RemoteProvider::connect(rel_addr)?);
    let la = Arc::new(RemoteProvider::connect(la_addr)?);
    println!(
        "connected: `{}` at {} and `{}` at {}",
        rel.name(),
        rel.addr(),
        la.name(),
        la.addr()
    );

    let mut fed = Federation::new();
    fed.register(Arc::clone(&rel) as Arc<dyn Provider>);
    fed.register(Arc::clone(&la) as Arc<dyn Provider>);

    // `--demo` preloaded `sales` on the relational server.
    let q = Query::scan("sales", fed.registry().schema_of("sales")?).where_(col("v").gt(lit(15.0)));
    let (result, metrics) = fed.run_with(
        q.plan(),
        &ExecOptions {
            transfer: TransferMode::RemoteTcp,
            ..Default::default()
        },
    )?;
    println!(
        "query: {} rows; {} real bytes on the wire",
        result.num_rows(),
        metrics.real_wire_bytes
    );
    // The demo `sales` holds v = 10, 20, 30, 40.
    assert_eq!(result.num_rows(), 3, "three demo sales exceed 15.0");
    assert!(metrics.real_wire_bytes > 0, "the query crossed a socket");

    // Desideratum 4 on a real socket: the linalg server pushes its demo
    // matrix directly to the relational server — the bytes never pass
    // through this process.
    let m = Query::scan("m", fed.registry().schema_of("m")?);
    let pushed = la
        .execute_push(m.plan(), rel.addr(), "m_from_la")
        .expect("remote providers support push")?;
    let copied = rel.schema_of("m_from_la").expect("matrix landed on rel");
    println!("push: {pushed} bytes moved la -> rel directly; rel now stores m_from_la ({copied})");
    assert_eq!(copied, la.schema_of("m").expect("demo matrix on la"));
    assert_eq!(copied.to_string(), "([row]=0..2, [col]=0..3, v: f64)");
    Ok(())
}
