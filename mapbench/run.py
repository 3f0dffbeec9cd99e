#!/usr/bin/env python3
"""The repository's mapping benchmark: one command per run.

    python3 mapbench/run.py --workload long-2mbp --seed 1 --seconds 35 --trace 0
    python3 mapbench/run.py --self-test

Run from the repository root. It builds the library, the `segram` CLI
and the benchmark binary (mapbench/src) into .bench_build/, generates the
workload's inputs from --seed, measures for --seconds, checks the
outputs (trial-to-trial PAF identity, 1-thread vs 2-thread, PAF
parse-back, serve payloads vs offline, and PAF identical to
`segram map` with the same flags), and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The line before it
records the environment; the full result, with the trace of a traced
run, is kept under .bench_build/results/. Workloads, metrics and the
predictions they test are described in mapbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "mapbench")
BENCH_BIN = os.path.join(BUILD_DIR, "mapbench")
CLI = os.path.join(BUILD_DIR, "segram", "segram")
RUN_TIMEOUT_S = 170


def log(message):
    print("mapbench: " + message, file=sys.stderr, flush=True)


def check_repo_root():
    for path in ("CMakeLists.txt", "src/core/segram.h", "tools/segram_cli.cc",
                 "BENCHMARK.json"):
        if not os.path.isfile(path):
            log("run from the repository root (missing %s)" % path)
            sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        log("failed (%d): %s" % (result.returncode, " ".join(cmd)))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "mapbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "mapbench",
               "segram_cli", "-j", "4"], timeout=840)


def bench(args, capture=False):
    return subprocess.run([BENCH_BIN] + args, stdout=subprocess.PIPE if capture
                          else sys.stderr, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)


def generate(workload, seed, data, tiny=False):
    if os.path.exists(data):
        shutil.rmtree(data)
    os.makedirs(data)
    result = bench(["gen", "--workload", workload, "--seed", str(seed),
                     "--data", data] + (["--tiny"] if tiny else []))
    if result.returncode != 0:
        log("input generation failed")
        sys.exit(1)


def cli_parity(flags, data):
    """`segram map` on the check reads must print the benchmark's PAF."""
    cmd = ([CLI, "map"] + flags +
           [os.path.join(data, "ref.segram"), os.path.join(data, "check.fq")])
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S,
                            check=False)
    with open(os.path.join(data, "check.bench.paf"), "rb") as handle:
        expected = handle.read()
    return result.returncode == 0 and result.stdout == expected


def last_cache_size():
    """Size of the last-level cache of cpu0, as the kernel reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, entry, "size")) as handle:
                size = handle.read().strip()
            if level >= best[0]:
                best = (level, size)
    except OSError:
        pass
    return best[1]


def source_digest():
    """sha256 over the library, CLI and build sources."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools"):
        for root, _, files in os.walk(top):
            paths += [os.path.join(root, name) for name in files]
    for path in sorted(paths):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10, check=False)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run. @return (result dict or None, exit code)."""
    data = os.path.join(".bench_build", "runs", "%s-%d-t%d" %
                        (workload, seed, trace))
    try:
        generate(workload, seed, data, tiny)
        result = bench(["run", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace),
                         "--data", data] + (["--tiny"] if tiny else []),
                        capture=True)
        lines = result.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            log("mapbench exited %d without a result" % result.returncode)
            return None, 1
        if not cli_parity(report["env"]["cli_flags"], data):
            report["correct"] = False
            report["failures"].append("segram map PAF differs from the "
                                      "benchmark's")
        report["env"].update({
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": len(os.sched_getaffinity(0)),
            "llc": last_cache_size(), "git_commit": git_commit(),
            "source_sha256": source_digest()})
        results = os.path.join(".bench_build", "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, os.path.basename(data))
        with open(stem + ".json", "w") as handle:
            json.dump(report, handle, indent=1)
        if trace:
            shutil.move(os.path.join(data, "trace.jsonl"),
                        stem + ".trace.jsonl")
    finally:
        shutil.rmtree(data, ignore_errors=True)
    for failure in report["failures"]:
        log("check failed: " + failure)
    ok = report["correct"] and result.returncode == 0
    return report, 0 if ok else 1


def self_test():
    """Tiny runs of every workload: every metric named in BENCHMARK.json
    is printed with its unit, and the output checks fire."""
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            report, code = measure(workload, 7, 2, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in names}
            got = ({k: v["unit"] for k, v in report["metrics"].items()}
                   if report else None)
            ok = code == 0 and got == want
            if report and got != want:
                log("metrics differ: missing %s, unexpected %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            log("self-test %s trace %d: %s" % (workload, trace,
                                                "ok" if ok else "FAILED"))
            failures += 0 if ok else 1

    data = os.path.join(".bench_build", "runs", "self-test")
    generate("short-2mbp", 7, data, tiny=True)
    if bench(["self-test", "--data", data]).returncode != 0:
        failures += 1
    flags = ["--threads", "2"]
    parity = cli_parity(flags, data)
    with open(os.path.join(data, "check.bench.paf"), "ab") as handle:
        handle.write(b"read0\t1\t0\t1\t+\tchr1\t1\t0\t1\t1\t1\t60\n")
    caught = not cli_parity(flags, data)
    log("self-test CLI parity holds: %s" % ("ok" if parity else "FAILED"))
    log("self-test CLI parity mismatch is rejected: %s" %
        ("ok" if caught else "FAILED"))
    failures += (0 if parity else 1) + (0 if caught else 1)
    shutil.rmtree(data)
    log("self-test: %s" % ("passed" if failures == 0 else
                           "%d failures" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    check_repo_root()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    report, code = measure(args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        return code
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
