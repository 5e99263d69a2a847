//! The `serve` binary's argument checks: a zero scheduler size or a
//! removed flag is a usage error (exit 2), never a panic in the server.

use std::process::Command;

#[test]
fn zero_sizes_and_removed_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("serve-args-{}", std::process::id()));
    for (args, message) in [
        (["--queue-depth", "0"], "serve: --queue-depth must be at least 1"),
        (["--max-batch", "0"], "serve: --max-batch must be at least 1"),
        (["--workers", "0"], "serve: --workers must be at least 1"),
        (["--batch-wait-us", "200"], "serve: unknown flag --batch-wait-us"),
    ] {
        // An address with no valid port fails to bind, so a binary that
        // accepts these arguments exits instead of serving forever.
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .arg("--artifacts")
            .arg(&dir)
            .args(["--addr", "127.0.0.1:no-port"])
            .args(args)
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message) && stderr.contains("usage:"), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
