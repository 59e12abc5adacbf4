//! The socket frontend in process: `serve::net::run_connections` on a
//! thread over a unix listener. A fresh connection must be answered
//! without waiting on an accept timer, and a client that stops reading
//! its replies must be dropped as a slow client while a sibling
//! connection keeps being served. One test, because the stop flag that
//! ends the loop is process-global.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use fjs_cli::serve::net::{bind_unix, run_connections};
use fjs_cli::serve::{ServeOptions, Server, Sink};
use fjs_cli::soak::{clear_stop, request_stop};

/// Sends one request and reads its one-line reply.
fn ask(stream: &mut UnixStream, reader: &mut BufReader<UnixStream>, req: &str) -> String {
    writeln!(stream, "{req}").expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line.trim_end().to_string()
}

/// Connects and asks a bare `stats`, returning the reply and the time
/// from `connect` to the reply.
fn fresh_stats(sock: &Path) -> (String, Duration) {
    let start = Instant::now();
    let mut s = UnixStream::connect(sock).expect("connect");
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    let reply = ask(&mut s, &mut reader, "stats");
    (reply, start.elapsed())
}

#[test]
fn socket_loop_answers_new_connections_at_once_and_drops_slow_clients() {
    let dir = std::env::temp_dir().join(format!("fjs-serve-socket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("fjs.sock");
    let listener = bind_unix(&sock).expect("bind unix socket");

    clear_stop();
    let daemon = std::thread::spawn(|| {
        let opts = ServeOptions {
            writer_queue: 4,
            ..ServeOptions::default()
        };
        let mut server = Server::new(opts, Sink::Null, None);
        let served = run_connections(&mut server, vec![listener]);
        let (summary, _) = server.finish().expect("finish");
        (served, summary)
    });

    // A new connection is accepted as soon as it is queued: 20 fresh
    // connections, each timed from `connect` to its first reply.
    let mut rtts = Vec::new();
    for _ in 0..20 {
        let (reply, rtt) = fresh_stats(&sock);
        assert!(reply.starts_with("ok stats daemon "), "{reply}");
        rtts.push(rtt);
    }
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median connect-to-reply is {median:?}; want < 2 ms (sorted: {rtts:?})"
    );

    // A client that pipelines requests and never reads overflows the
    // 4-reply writer queue once the kernel stops taking its replies.
    let mut sibling = UnixStream::connect(&sock).expect("connect sibling");
    let mut sibling_reader = BufReader::new(sibling.try_clone().expect("clone"));
    let mut flood = UnixStream::connect(&sock).expect("connect flood");
    // The daemon may close the flood mid-write; that error is expected.
    let _ = flood.write_all("stats\n".repeat(20_000).as_bytes());

    let deadline = Instant::now() + Duration::from_secs(10);
    let reply = loop {
        let reply = ask(&mut sibling, &mut sibling_reader, "stats");
        assert!(reply.starts_with("ok stats daemon "), "{reply}");
        if reply.contains("slow-clients=1") || Instant::now() > deadline {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        reply.contains("slow-clients=1 peak-writer-queue=4"),
        "the flood must be dropped as one slow client at queue depth 4: {reply}"
    );
    drop(flood);
    drop(sibling_reader);
    drop(sibling);

    request_stop();
    let (served, summary) = daemon.join().expect("daemon thread");
    clear_stop();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(served, Ok(()));
    assert_eq!(summary.slow_disconnects, 1);
    assert_eq!(summary.connections, 22);
}
