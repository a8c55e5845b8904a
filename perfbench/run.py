#!/usr/bin/env python3
"""Builds and runs the NoCAlert benchmark (see README.md).

    python3 perfbench/run.py --workload transient-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record     # re-record perfbench/expected.json

Run it from the root of a checkout. It builds `nocalertd` from the
repository workspace and the benchmark package in this directory (with the
workspace's release profile) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark binary. The binary's last line of
standard output is the result JSON; everything else goes to standard error.
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tomllib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transient-sweep", "recovery-sweep", "service-mixed")
# A measured run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 3600


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def toml_literal(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return str(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise ValueError(f"unsupported profile value {v!r}")


def profile_flags(manifest):
    """`--config` flags that give the benchmark package the repository
    workspace's `[profile.*]` settings, so in-process workloads run code
    built exactly as the repository builds it."""
    with open(manifest, "rb") as f:
        profiles = tomllib.load(f).get("profile", {})
    flags = []

    def walk(prefix, table):
        for key, val in table.items():
            part = key if key.replace("-", "").replace("_", "").isalnum() else f'"{key}"'
            if isinstance(val, dict):
                walk(f"{prefix}.{part}", val)
            else:
                flags.extend(["--config", f"{prefix}.{part}={toml_literal(val)}"])

    walk("profile", profiles)
    return flags


def run(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and kills the whole group if it
    outlives `timeout`, so no daemon it started survives it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file() or not (ROOT / "crates" / "service" / "Cargo.toml").is_file():
        fail(f"no NoCAlert workspace at {ROOT}; run from a full checkout")
    if shutil.which("cargo") is None:
        fail("cargo is not on PATH")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "nocalert-service", "--bin", "nocalertd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), *profile_flags(manifest)],
    ]
    for cmd in builds:
        code, _ = run(cmd, None, cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}", 4)

    work = target / "perfbench-work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(target / "release" / "nocalert-perfbench"),
           "--nocalertd", str(target / "release" / "nocalertd"),
           "--work-dir", str(work),
           "--spans-dir", str(target / "perfbench-spans"),
           "--expected", str(HERE / "expected.json")]
    if args.record:
        cmd.append("--record")
        timeout = RECORD_TIMEOUT_S
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        timeout = RUN_TIMEOUT_S
    try:
        code, out = run(cmd, timeout, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
