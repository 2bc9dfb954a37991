#!/usr/bin/env python3
"""Checks behind adbench's `bench` ctest tests.

    check.py smoke   --benchmark B --save F -- <adbench command>
    check.py trace   --benchmark B --trace-json P -- <adbench command>
    check.py threads --reference F -- <adbench command>
    check.py adctl   --reference F --adctl A
    check.py flags   -- <adbench binary>
    check.py guard   DIR

Each prints what it checked and exits non-zero on the first failure.
"""

import argparse
import json
import math
import pathlib
import re
import subprocess
import sys

# Metrics the simulator computes; they depend on neither --threads nor
# --seed.
SIMULATED = ("sim_cycles", "sim_energy_uj", "lat_mean_mcycles",
             "lat_p99_mcycles", "serve_rps", "slo_rps")

# Names adbench may not use: the entry points it is built on must
# survive the planned removal of these.
FORBIDDEN = ("surrogate", "OrchestratorResult", "Orchestrator::run",
             "sim/trace.hh", "LsPlan")


def die(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout=120):
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout, check=False)


def result_of(stdout):
    """The JSON object on the last line of adbench's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        die("adbench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"result keys are {sorted(result)}")
    return result


def check_result(result, benchmark, section):
    """Every metric of @section printed with its unit, nothing else, all
    finite, and no failed operation."""
    spec = json.loads(pathlib.Path(benchmark).read_text())[section]
    expected = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(expected):
        die(f"{section} metrics differ: missing "
            f"{sorted(set(expected) - set(got))}, extra "
            f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            die(f"{name} has unit {got[name]['unit']}, expected {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die(f"{name} = {value!r} is not a finite number")
        if section == "end_to_end" and value <= 0:
            die(f"end-to-end metric {name} = {value} is not positive")
    if not result["correct"] or result["failed"] != 0:
        die(f"{result['failed']} of {result['attempted']} operations failed")
    if result["attempted"] < 1:
        die("no operation was attempted")
    print(f"{len(expected)} {section} metrics, "
          f"{result['attempted']} operations, none failed")


def run_adbench(command):
    proc = run(command)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"adbench exited {proc.returncode}")
    return proc.stdout


def cmd_smoke(args):
    stdout = run_adbench(args.command)
    check_result(result_of(stdout), args.benchmark, "end_to_end")
    pathlib.Path(args.save).parent.mkdir(parents=True, exist_ok=True)
    pathlib.Path(args.save).write_text(stdout)


def cmd_trace(args):
    pathlib.Path(args.trace_json).unlink(missing_ok=True)
    check_result(result_of(run_adbench(args.command)), args.benchmark,
                 "per_layer")
    events = json.loads(pathlib.Path(args.trace_json).read_text())
    events = events["traceEvents"]
    tracks = [e for e in events if e.get("name") == "thread_name"
              and e["args"]["name"] == "host.bench"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not tracks or not spans:
        die("trace has no host.bench spans")
    if any("id" not in e.get("args", {}) for e in spans):
        die("a host.bench span carries no id")
    print(f"{len(spans)} host.bench spans in {args.trace_json}")


def net_rows(stdout):
    """{net: {field: value}} from adbench's per-net rows."""
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("net="):
            fields = dict(f.split("=", 1) for f in line.split())
            rows[fields["net"]] = fields
    return rows


def cmd_threads(args):
    reference = pathlib.Path(args.reference).read_text()
    stdout = run_adbench(args.command)
    want, got = result_of(reference)["metrics"], result_of(stdout)["metrics"]
    for name in SIMULATED:
        if want[name]["value"] != got[name]["value"]:
            die(f"{name}: {got[name]['value']} vs {want[name]['value']} "
                "at another thread count and seed")
    want_rows, got_rows = net_rows(reference), net_rows(stdout)
    for net, row in want_rows.items():
        for field in ("cycles", "energy_uj"):
            if got_rows[net][field] != row[field]:
                die(f"{net} {field} differs across thread counts and seeds")
    print(f"{len(SIMULATED)} simulated metrics and {len(want_rows)} nets "
          "identical across thread counts and seeds")


def cmd_adctl(args):
    rows = net_rows(pathlib.Path(args.reference).read_text())
    if not rows:
        die("no per-net rows in the reference output")
    for net, row in rows.items():
        proc = run([args.adctl, "run", net, "--threads", "4"])
        match = re.search(r"^cycles\s+(\d+)", proc.stdout, re.MULTILINE)
        if proc.returncode != 0 or not match:
            die(f"adctl run {net} failed")
        if match.group(1) != row["cycles"]:
            die(f"{net}: adbench {row['cycles']} vs adctl "
                f"{match.group(1)} cycles")
    print(f"{len(rows)} nets plan to the cycles adctl run reports")


BAD_FLAGS = (
    [],
    ["--workload"],
    ["--workload", "nope"],
    ["--workload", "plan-zoo", "--threads", "abc"],
    ["--workload", "plan-zoo", "--threads", "0"],
    ["--workload", "plan-zoo", "--threads", "4x"],
    ["--workload", "plan-zoo", "--seed", "-1"],
    ["--workload", "plan-zoo", "--seed", "7.5"],
    ["--workload", "plan-zoo", "--seconds", "0"],
    ["--workload", "plan-zoo", "--seconds", "ten"],
    ["--workload", "plan-zoo", "--trace", "yes"],
    ["--workload", "plan-zoo", "--out", ""],
    ["--workload", "plan-zoo", "--frobnicate"],
)


def cmd_flags(args):
    for flags in BAD_FLAGS:
        proc = run(args.command + flags, timeout=30)
        if proc.returncode != 2 or proc.stdout.strip():
            die(f"{flags}: exit {proc.returncode}, expected 2 and no "
                "result")
    print(f"{len(BAD_FLAGS)} malformed command lines exit 2")


def cmd_guard(args):
    sources = sorted(pathlib.Path(args.dir).glob("*.cc")) + \
        sorted(pathlib.Path(args.dir).glob("*.hh"))
    if not sources:
        die(f"no sources under {args.dir}")
    for path in sources:
        text = path.read_text()
        for word in FORBIDDEN:
            if word.lower() in text.lower():
                die(f"{path.name} names {word}")
    print(f"{len(sources)} sources name none of {', '.join(FORBIDDEN)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)

    smoke = sub.add_parser("smoke")
    smoke.add_argument("--benchmark", required=True)
    smoke.add_argument("--save", required=True)
    smoke.add_argument("command", nargs="+")
    smoke.set_defaults(fn=cmd_smoke)

    trace = sub.add_parser("trace")
    trace.add_argument("--benchmark", required=True)
    trace.add_argument("--trace-json", required=True)
    trace.add_argument("command", nargs="+")
    trace.set_defaults(fn=cmd_trace)

    threads = sub.add_parser("threads")
    threads.add_argument("--reference", required=True)
    threads.add_argument("command", nargs="+")
    threads.set_defaults(fn=cmd_threads)

    adctl = sub.add_parser("adctl")
    adctl.add_argument("--reference", required=True)
    adctl.add_argument("--adctl", required=True)
    adctl.set_defaults(fn=cmd_adctl)

    flags = sub.add_parser("flags")
    flags.add_argument("command", nargs="+")
    flags.set_defaults(fn=cmd_flags)

    guard = sub.add_parser("guard")
    guard.add_argument("dir")
    guard.set_defaults(fn=cmd_guard)

    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
