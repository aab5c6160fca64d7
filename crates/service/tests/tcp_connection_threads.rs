//! A closed TCP connection must give its thread back: a finished thread
//! that is never joined keeps its stack mapped until shutdown. The test
//! reads `/proc/self/maps`, so it is Linux-only, and it has this test
//! binary to itself so that no other test's threads share the process.

#![cfg(target_os = "linux")]

use mcs_service::{Request, Response, Service, ServiceConfig, TcpClient, TcpServer};

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn sequential_connections_do_not_accumulate_thread_stacks() {
    const CONNECTIONS: usize = 500;

    let service = Service::start(ServiceConfig::default());
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let health = || {
        let mut conn = TcpClient::connect(tcp.local_addr()).expect("connect");
        let response = conn.call(&Request::Health).expect("health call");
        assert!(matches!(response, Response::Health(_)), "{response:?}");
    };
    // The first connection maps what every later one reuses.
    health();
    let before = mapped_regions();
    for _ in 0..CONNECTIONS {
        health();
    }
    let grown = mapped_regions().saturating_sub(before);
    tcp.shutdown();
    service.shutdown();
    // One leaked thread costs two regions (stack and guard page).
    assert!(
        grown < 100,
        "{CONNECTIONS} closed connections grew /proc/self/maps by {grown} lines"
    );
}
