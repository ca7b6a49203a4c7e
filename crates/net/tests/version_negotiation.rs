//! The protocol speaks exactly one version. HELLO still carries each
//! side's version, and a peer offering any other value — older *or*
//! newer, client *or* server — is refused at the handshake with a clean
//! error naming both versions: no panic, no half-open session.

use std::net::{TcpListener, TcpStream};

use stair_device::BlockDevice;
use stair_net::protocol::{
    read_request, read_response, write_request, write_response, Request, Response, ServerInfo,
    PROTOCOL_VERSION,
};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-vers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(tag: &str) -> (String, impl FnOnce()) {
    let dir = tmpdir(tag);
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 4,
    };
    let set = ShardSet::create(&dir, 2, &opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, move || {
        handle.shutdown();
        join.join().expect("server thread").expect("server run");
        std::fs::remove_dir_all(&dir).ok();
    })
}

/// A one-connection stand-in for a server of another release: answers
/// the first HELLO announcing `version`, then hangs up.
fn fake_server(version: u32) -> (String, std::thread::JoinHandle<u32>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (id, req) = read_request(&mut stream).expect("HELLO frame");
        let Request::Hello { version: offered } = req else {
            panic!("first frame must be HELLO, got {req:?}")
        };
        let info = ServerInfo {
            version,
            shards: 1,
            capacity: 20 * 64,
            block_size: 64,
            range_blocks: 20,
            codec: "stair:8,4,2,1-1-2".into(),
        };
        write_response(&mut stream, id, &Response::Hello(info)).expect("reply");
        offered
    });
    (addr, join)
}

#[test]
fn a_client_of_any_other_version_is_refused_at_hello() {
    let (addr, stop) = start_server("client");
    for offered in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 0, u32::MAX] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_request(&mut stream, 1, &Request::Hello { version: offered }).expect("HELLO");
        let (id, resp) = read_response(&mut stream).expect("a clean reply, not a hangup");
        assert_eq!(id, 1);
        let Response::Error(msg) = resp else {
            panic!("v{offered} must be refused, got {resp:?}")
        };
        assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "{msg}");
        assert!(msg.contains(&format!("v{offered}")), "{msg}");
        // The server hung up after refusing: no session was opened.
        assert!(read_response(&mut stream).is_err());
    }
    // The refusals cost the server nothing: a current client still works.
    let client = Client::connect(&addr).expect("current client");
    assert_eq!(client.info().version, PROTOCOL_VERSION);
    client.write_at(0, &[7u8; 100]).expect("write");
    assert_eq!(client.read_at(0, 100).expect("read"), vec![7u8; 100]);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("srv.errors.hello"), Some(4));
    stop();
}

#[test]
fn a_server_of_any_other_version_is_refused_by_the_client() {
    for theirs in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let (addr, join) = fake_server(theirs);
        match Client::connect(&addr) {
            Err(NetError::Version { ours, theirs: got }) => {
                assert_eq!((ours, got), (PROTOCOL_VERSION, theirs));
            }
            Err(other) => panic!("expected a Version refusal, got {other:?}"),
            Ok(_) => panic!("a v{theirs} server must be refused"),
        }
        assert_eq!(join.join().expect("fake server"), PROTOCOL_VERSION);
    }
    let err = NetError::Version {
        ours: PROTOCOL_VERSION,
        theirs: 4,
    };
    let msg = err.to_string();
    assert!(msg.contains("v5") && msg.contains("v4"), "{msg}");
}
