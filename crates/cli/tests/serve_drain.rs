//! `POST /admin/drain` against the real `scanbist serve` process: the
//! `{"status":"draining"}` reply must reach the client before the
//! drained daemon exits, and the exit must be clean.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Spawns `scanbist serve` on an ephemeral port and returns the child,
/// its stdout reader, and the announced address.
fn spawn_daemon() -> (Child, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scanbist"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scanbist serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no listening address in {line:?}"));
    (child, stdout, addr)
}

/// Waits up to 30 s (in 10 ms polls) for the child to exit; kills it
/// on timeout.
fn wait_for_exit(child: &mut Child) -> std::process::ExitStatus {
    for _ in 0..3_000 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon did not exit within 30 s of the drain");
}

/// The lost reply is a race (the daemon exiting between the reply's
/// head and body writes), so the drain is repeated on fresh daemons.
#[test]
fn drain_reply_arrives_before_the_daemon_exits() {
    for round in 0..100 {
        let (mut child, mut stdout, addr) = spawn_daemon();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"POST /admin/drain HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .expect("send drain");
        let mut reply = Vec::new();
        let read = stream.read_to_end(&mut reply);
        let status = wait_for_exit(&mut child);
        let reply = String::from_utf8_lossy(&reply);
        assert!(
            read.is_ok(),
            "round {round}: reading the reply failed: {read:?}"
        );
        assert!(
            reply.starts_with("HTTP/1.1 200"),
            "round {round}: drain reply lost or wrong: {reply:?}"
        );
        assert!(
            reply.ends_with("{\"status\":\"draining\"}"),
            "round {round}: {reply:?}"
        );
        assert!(
            status.success(),
            "round {round}: daemon exited with {status}"
        );
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).expect("read stdout");
        assert!(
            rest.contains("scanbistd: drained"),
            "round {round}: {rest:?}"
        );
    }
}
