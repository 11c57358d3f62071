//! The `ccdp` ops CLI end to end: a `ccdp serve` child on an ephemeral
//! loopback port, then one-shot commands against it, checked by exit code
//! and output.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

const CCDP: &str = env!("CARGO_BIN_EXE_ccdp");

/// The `serve` child process, killed when the test ends, pass or panic.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn ccdp(args: &[&str]) -> Output {
    Command::new(CCDP).args(args).output().expect("ccdp runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn cli_drives_the_smoke_fleet_over_a_live_socket() {
    let mut child = Command::new(CCDP)
        .args(["serve", "addr=127.0.0.1:0", "duration_s=30"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("ccdp serve starts");
    let serve_out = child.stdout.take().expect("piped stdout");
    let _server = ServeChild(child);

    // `serve` announces the fleet, then the address it bound.
    let mut lines = BufReader::new(serve_out).lines();
    let mut banner = Vec::new();
    let bound = loop {
        let line = lines
            .next()
            .expect("serve exited before it bound")
            .expect("serve stdout is UTF-8");
        if let Some(rest) = line.strip_prefix("serving on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
        banner.push(line);
    };
    assert!(
        banner
            .iter()
            .any(|l| l == "provisioned smoke fleet: 8 graphs, 4 tenants"),
        "{banner:?}"
    );
    let addr = format!("addr={bound}");

    let health = ccdp(&["health", &addr]);
    assert!(health.status.success(), "{}", stderr(&health));
    assert!(stdout(&health).contains("graphs=8"), "{}", stdout(&health));

    let est = ccdp(&[
        "estimate",
        &addr,
        "tenant=beta",
        "graph=fleet/g3",
        "epsilon=0.5",
    ]);
    assert!(est.status.success(), "{}", stderr(&est));
    // `beta on fleet/g3@v0: <value>  (ε=0.5, …)`
    let text = stdout(&est);
    let value: f64 = text
        .split_once(": ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no value in {text:?}"));
    assert!(value.is_finite(), "{text}");

    // The whole fleet is addressable by its catalog ids.
    for i in 0..8 {
        let graph = format!("graph=fleet/g{i}");
        let out = ccdp(&["estimate", &addr, "tenant=alpha", &graph, "epsilon=0.25"]);
        assert!(out.status.success(), "{graph}: {}", stderr(&out));
    }

    // The four tenants carry their quotas.
    for (tenant, quota) in [
        ("alpha", "80.0000"),
        ("beta", "80.0000"),
        ("gamma", "80.0000"),
        ("burst", "4.0000"),
    ] {
        let out = ccdp(&["audit", &addr, &format!("tenant={tenant}")]);
        assert!(out.status.success(), "{tenant}: {}", stderr(&out));
        assert!(
            stdout(&out).contains(&format!("of {quota} ε")),
            "{tenant}: {}",
            stdout(&out)
        );
    }

    let unknown = ccdp(&[
        "estimate",
        &addr,
        "tenant=nobody",
        "graph=fleet/g3",
        "epsilon=0.5",
    ]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(
        stderr(&unknown).contains("server refused (404"),
        "{}",
        stderr(&unknown)
    );

    // `top` is the CLI's one view of the counters: exactly what the
    // requests above imply (9 releases, 1 unknown-tenant failure).
    let top = ccdp(&["top", &addr]);
    assert!(top.status.success(), "{}", stderr(&top));
    let text = stdout(&top);
    let line = |prefix: &str| {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in {text}"))
    };
    assert!(line("serve ").contains(" completed=9 failed=1 "), "{text}");
    let catalog = line("catalog ");
    assert!(catalog.contains(" graphs=8 "), "{text}");
    assert!(catalog.ends_with(" tenants=4"), "{text}");
    assert!(line("budget ").contains(" charges=9 "), "{text}");

    for retired in ["bench", "slo", "stats"] {
        let out = ccdp(&[retired]);
        assert_eq!(out.status.code(), Some(1), "{retired}");
        assert!(
            stderr(&out).contains(&format!("unknown command `{retired}`")),
            "{}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage: ccdp"), "{}", stderr(&out));
    }
}
