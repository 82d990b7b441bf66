#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in
`perfbench/` (release, offline) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the `e2e` binary (`--trace 0`) or the traced
`layers` binary (`--trace 1`). The binary prints the metrics and, as
its last line, the JSON result. Every file the run writes (segment
spills, the disguise journal, span and result files) stays under the
target directory. `TDF_*` variables from the caller's environment are
dropped, so only the knobs the workload sets reach the program.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value == "1"
    return False


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames]
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def fs_type(path):
    """Filesystem type of the mount holding `path`, from mountinfo."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                prefix = mount.rstrip("/") + "/"
                if (path == mount or path.startswith(prefix)) and len(mount) > len(best):
                    best, best_type = mount, right.split()[0]
    except OSError:
        pass
    return best_type


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # benchmark binary before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        fail("the program sources (crates/) are missing; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = "layers" if trace_flag(argv) else "e2e"
    env = {k: v for k, v in os.environ.items() if not k.startswith("TDF_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("cargo build failed", 3)
    tmp = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env.update({
        "TMPDIR": tmp,
        "PERFBENCH_OUT": os.path.join(target, "perfbench-results"),
        "PERFBENCH_COMMIT": (os.path.exists(os.path.join(ROOT, ".git"))
                             and command_output(["git", "rev-parse", "HEAD"])) or "none (not a git checkout)",
        "PERFBENCH_SOURCE_DIGEST": source_digest(),
        "PERFBENCH_RUSTC": command_output(["rustc", "-V"]) or "unknown",
        "PERFBENCH_TMP_FS": fs_type(tmp),
    })
    try:
        run = subprocess.run([os.path.join(target, "release", binary)] + argv,
                             cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        code = run.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 4
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
