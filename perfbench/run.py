#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, checks its
outputs and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record-dir DIR]

Run it from the repository root. The first run configures and builds the
harness and the hwsec libraries under .bench_build/. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics.
Every run also saves its full record (host fingerprint, raw samples,
checks, simulated counts) under --record-dir (default .bench_out/runs);
compare.py reads two such directories.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
# Time a run may take beyond --seconds: set-up, the unit of work that
# overruns the deadline (a million-trace CPA campaign), the output checks
# and, in a traced run, the probes and the Figure-1 evaluation.
HARNESS_MARGIN_S = 120

# Variables that change what or how the program runs behind the benchmark's
# back: HWSEC_SHARD_HOSTS reroutes run_spec through TCP workers,
# HWSEC_DISPATCH selects another interpreter, the others turn on tracing,
# metric dumps or heartbeat output.
FOREIGN_ENV = ("HWSEC_DISPATCH", "HWSEC_SHARD_HOSTS", "HWSEC_TRACE_OUT",
               "HWSEC_METRICS_JSON", "HWSEC_HEARTBEAT_MS")
# At most two worker threads per workload, shared pools included.
WORKERS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no hwsec sources next to {HERE.name}/ (expected {ROOT}/src); "
             "run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            _quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator)
        _quiet(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_harness",
                "-j", "2"])
    return BUILD_DIR / "perfbench_harness"


def _quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed: {' '.join(cmd)}")


def clean_env():
    env = dict(os.environ)
    cleared = [name for name in FOREIGN_ENV if env.pop(name, None) is not None]
    for name in cleared:
        print(f"perfbench: cleared {name} for this run", file=sys.stderr)
    env["HWSEC_WORKERS"] = WORKERS
    return env, cleared


def run_harness(harness, args, env):
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so a timeout can stop the forked shard workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    timeout = args.seconds + HARNESS_MARGIN_S
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness exceeded {timeout} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def fingerprint():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    for path in glob.glob(str(BUILD_DIR / "CMakeFiles" / "*" / "CMakeCXXCompiler.cmake")):
        fields = {}
        for line in Path(path).read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split('"')[1]
        compiler = " ".join(fields.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the sources the harness is built from; identifies the commit
    where no git metadata exists."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in ("src", HERE.name):
        files += sorted(p for p in (ROOT / base).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(raw, spec):
    units = raw["units"]
    metrics = {
        "trials_per_s": statistics.median(t / s for s, t, _ in units),
        "traces_per_s": statistics.median(x / s for s, _, x in units),
        "eval_ms_p50": 1e3 * statistics.median(s for s, _, _ in units),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(raw, spec):
    layers = dict(raw["layers"])
    layers["failed_frac"] = raw["failed"] / raw["attempted"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        fail(f"traced run did not report {', '.join(missing)}")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def check_outputs(args, raw):
    problems = list(raw["failures"])
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} operations failed")
    checks = raw["checks"]
    if args.workload == "spectre_sharded":
        want = json.loads((HERE / "reference_digests.json").read_text())["spectre_leak"]
        if checks.get("reference_digest") != want:
            problems.append(f"reference digest {checks.get('reference_digest')} != {want}")
    if "figure1_seed42" in checks:
        golden = json.loads((ROOT / "tests" / "golden" / "figure1.json").read_text())
        if json.loads(checks["figure1_seed42"]) != golden:
            problems.append("seed-42 Figure-1 matrix differs from tests/golden/figure1.json")
    if args.workload == "cpa_stream" and checks.get("min_key_bytes") != "16":
        problems.append(f"CPA recovered only {checks.get('min_key_bytes')}/16 key bytes")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spectre_sharded", "cpa_stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-dir", default=str(ROOT / ".bench_out" / "runs"))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    harness = build()
    env, cleared = clean_env()
    raw = run_harness(harness, args, env)

    metrics = per_layer(raw, spec) if args.trace else end_to_end(raw, spec)
    problems = check_outputs(args, raw)
    result = {"correct": not problems, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.time(), "host": fingerprint(),
              "cleared_env": cleared, "problems": problems, "result": result, "raw": raw}
    record_dir = Path(args.record_dir)
    record_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}.trace{args.trace}.seed{args.seed}.{time.time_ns()}.json"
    (record_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    host = record["host"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} compiler={host['compiler']} "
          f"build={host['build_type']} git={host['git_sha']} src={host['source_sha256'][:16]}")
    for key, value in sorted(raw["checks"].items()):
        if key != "figure1_seed42":
            print(f"check {key}: {value}")
    if not args.trace:
        eval_ms = [1e3 * s for s, _, _ in raw["units"]]
        tail = tail_percentile(eval_ms)
        tail_text = f", p{tail[0]} {tail[1]:.3f} ms" if tail else ""
        print(f"units: {len(eval_ms)}, median {statistics.median(eval_ms):.3f} ms{tail_text}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"record: {record_dir / name}")
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
