//! A `ServiceClient` holds one socket. This test counts the process's
//! open file descriptors around 64 connected clients, so it lives in a
//! test binary of its own: no other test opens sockets meanwhile.

use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::{ServiceClient, ServiceConfig, ServiceServer, SummaryService};

/// Open file descriptors of this process, or `None` where `/proc` does
/// not list them.
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn each_client_holds_one_socket() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: open fds are counted through /proc/self/fd");
        return;
    }
    let service = SummaryService::start(1, 7, 64, |_, s| ReservoirSampler::<u64>::with_seed(8, s));
    let server =
        ServiceServer::spawn(service, ServiceConfig::default()).expect("bind ephemeral port");
    let before = open_fds().expect("/proc/self/fd lists this process's fds");
    // Both wires: the first half speaks text, the second binary.
    let clients: Vec<ServiceClient> = (0..64)
        .map(|i| {
            let client = if i < 32 {
                ServiceClient::connect(server.addr())
            } else {
                ServiceClient::connect_binary(server.addr())
            };
            client.expect("connect")
        })
        .collect();
    // A STATS round trip on each: its reply shows the server accepted
    // the connection (and holds its end of it) before the count.
    for client in &clients {
        assert_eq!(client.stats().unwrap().items, 0);
    }
    let after = open_fds().unwrap();
    // One fd per client plus the server's accepted end of each.
    assert_eq!(after - before, 2 * clients.len());
    drop(clients);
    server.shutdown();
}
