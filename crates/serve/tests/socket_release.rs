//! A closed connection must give back every file descriptor it used:
//! a long-running server that kept one per past session would run out
//! (`EMFILE`). Its own test binary, so no concurrent test opens or
//! closes descriptors while this one counts them.
#![cfg(target_os = "linux")]

use std::thread;
use std::time::{Duration, Instant};

use ivm::prelude::ViewManager;
use ivm_serve::{scenario, Client, Server};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn closed_sessions_release_their_sockets() {
    const CYCLES: u64 = 300;

    let mut mgr = ViewManager::new();
    scenario::install(&mut mgr).unwrap();
    let server = Server::start(mgr, "127.0.0.1:0").unwrap();
    let baseline = open_fds();

    for _ in 0..CYCLES {
        let mut c = Client::connect(server.addr()).unwrap();
        c.ping().unwrap();
    }
    // Sessions end on their own threads once they read the disconnect.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server
        .stats()
        .counters
        .get("serve.sessions_closed")
        .copied()
        .unwrap_or_default()
        < CYCLES
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(10));
    }

    let after = open_fds();
    assert!(
        after <= baseline + 4,
        "{after} fds open after {CYCLES} connect/disconnect cycles, {baseline} before"
    );
    server.stop().unwrap();
}
