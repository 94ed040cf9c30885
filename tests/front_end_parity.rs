//! Front-end parity over the whole command grammar: for every command
//! `dbmined` serves and every parameter in `render::PARAMS`, one valid
//! value goes to the `dbmine` CLI as a flag and to the daemon as a
//! request field. The CLI accepts it exactly when the daemon does;
//! when both accept, CLI stdout equals the daemon's `output` byte for
//! byte, and when both refuse, each names the same parameter. A name
//! outside the grammar (`shards`, the retired Phase 1 knob, or `wat`)
//! is refused by both as unknown. (`--spill` and `--profile` are CLI
//! load flags and not in the grammar at all.)

use dbmine::render::{Kind, COMMANDS, PARAMS};
use dbmine::server::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const DB2: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/db2_sample.csv");

#[test]
fn cli_and_daemon_accept_read_and_refuse_alike() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_dbmined"))
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut stdin = daemon.stdin.take().unwrap();
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut request = |line: String| -> Json {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let mut reply = String::new();
        stdout.read_line(&mut reply).unwrap();
        parse(reply.trim_end()).unwrap_or_else(|e| panic!("invalid reply ({e}): {reply}"))
    };

    let mut compared = 0;
    for spec in COMMANDS.iter().filter(|s| s.served) {
        for param in PARAMS {
            let (flag_value, field_value) = match param.kind {
                Kind::Real => ("0.5", "0.5"),
                Kind::Count => ("2", "2"),
                Kind::Score => ("rfi", "\"rfi\""),
            };
            let flag = format!("--{}", param.name.replace('_', "-"));
            let cli = Command::new(env!("CARGO_BIN_EXE_dbmine"))
                .args([spec.name, DB2, &flag, flag_value])
                .output()
                .expect("cli runs");
            let reply = request(format!(
                "{{\"cmd\":\"{}\",\"path\":\"{DB2}\",\"{}\":{field_value}}}",
                spec.name, param.name
            ));
            let what = format!("{} {flag} {flag_value}", spec.name);
            let cli_stderr = String::from_utf8_lossy(&cli.stderr);
            let daemon_ok = reply.get("ok") == Some(&Json::Bool(true));
            assert_eq!(
                cli.status.success(),
                daemon_ok,
                "{what}: cli {cli_stderr:?}, daemon {reply:?}"
            );
            if daemon_ok {
                assert_eq!(
                    reply.get("output").and_then(Json::as_str),
                    Some(String::from_utf8_lossy(&cli.stdout).as_ref()),
                    "{what}: output differs"
                );
                compared += 1;
            } else {
                assert_eq!(cli.status.code(), Some(2), "{what}: {cli_stderr}");
                assert!(cli_stderr.contains(&flag), "{what}: {cli_stderr}");
                let error = reply.get("error").and_then(Json::as_str).unwrap();
                assert!(
                    error.contains(&format!("`{}`", param.name)),
                    "{what}: {error}"
                );
            }
        }
    }
    // Every served command reads at least its thread count.
    assert!(compared >= 5, "only {compared} accepted pairs");
    for spec in COMMANDS.iter().filter(|s| s.served) {
        for name in ["shards", "wat"] {
            let cli = Command::new(env!("CARGO_BIN_EXE_dbmine"))
                .args([spec.name, DB2, &format!("--{name}"), "2"])
                .output()
                .expect("cli runs");
            assert_eq!(cli.status.code(), Some(2), "{} --{name}", spec.name);
            assert!(String::from_utf8_lossy(&cli.stderr)
                .contains(&format!("error: unknown flag --{name} for `{}`", spec.name)));
            let reply = request(format!(
                "{{\"cmd\":\"{}\",\"path\":\"{DB2}\",\"{name}\":2}}",
                spec.name
            ));
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some(format!("unknown field `{name}` for `{}`", spec.name).as_str())
            );
        }
    }
    assert!(request("{\"cmd\":\"shutdown\"}".to_string()).get("ok") == Some(&Json::Bool(true)));
    assert!(daemon.wait().unwrap().success());
}
