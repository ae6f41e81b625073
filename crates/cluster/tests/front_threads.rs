//! A front is one reactor thread at any client count. The check counts
//! the process's threads in `/proc/self/task`, so it is the only test
//! in this binary — a concurrently running test would move the count.

mod common;

use common::node_dir;
use locble_cluster::{serve_node, Front, FrontConfig, NodeSpec};
use locble_net::wire::{NodeEntry, WirePartitionMap};
use locble_net::Client;
use locble_obs::Obs;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

/// The thread count once it reaches `want`, or after a second.
fn settled_thread_count(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let count = thread_count();
        if count == want || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn client_connections_add_no_thread_to_a_front() {
    let dir = node_dir("threads");
    let owner = serve_node(&NodeSpec::new(1, &dir), Obs::noop()).expect("bind owner");
    let map = WirePartitionMap {
        epoch: 1,
        nodes: vec![NodeEntry {
            node_id: 1,
            addr: owner.addr().to_string(),
        }],
    };

    let start = thread_count();
    let front = Front::bind(
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map,
        },
        Obs::noop(),
    )
    .expect("bind front");
    assert_eq!(
        settled_thread_count(start + 1),
        start + 1,
        "a front is one thread"
    );

    // Every connection is accepted and served (stats fan out to the
    // owner) before the count.
    let mut clients: Vec<Client> = (0..256)
        .map(|_| Client::connect(front.addr()).expect("connect front"))
        .collect();
    for client in &mut clients {
        client.stats().expect("served through the front");
    }
    assert_eq!(
        thread_count(),
        start + 1,
        "256 client connections added threads"
    );

    drop(clients);
    front.shutdown();
    owner.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
