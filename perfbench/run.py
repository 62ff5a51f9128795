#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness together with the program's sources (sbt, offline) the
first time and whenever a source changes, then runs it in one JVM. The
harness prints a report and, as its last line, the result as one JSON
object. Everything it writes stays under perfbench/out and perfbench/target.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TARGET = HERE / "target"
WORKLOADS = ["market-hhi", "credit-hybrid", "aspirin-sliced", "comorbidity-topk"]
HEAP = "3g"
RUN_TIMEOUT_S = 170

# Spark 4 on Java 17 needs these packages opened, as in the main build.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Digest of every file the build reads, so a change triggers a rebuild."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in [ROOT / "src" / "main", HERE / "src"]:
        files += sorted(p for p in d.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Return the harness classpath and the source stamp, building the
    harness first if it is stale."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        log(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
        sys.exit(2)
    stamp = source_stamp()
    stamp_file = TARGET / "build.stamp"
    cp_file = TARGET / "classpath.txt"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text(), stamp
    log("building harness and program (sbt)")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={OUT / 'sbt-global'}", "writeClasspath"]
    rc = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0 or not cp_file.exists():
        log(f"build failed (exit {rc})")
        sys.exit(3)
    stamp_file.write_text(stamp)
    return cp_file.read_text(), stamp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classpath, stamp = build()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), f"-Xmx{HEAP}", *JVM_OPENS, f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", str(OUT), "--stamp", stamp[:16]]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        rc = 4
    sys.exit(rc)


if __name__ == "__main__":
    main()
