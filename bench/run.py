#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py                       all seven workloads
    python3 bench/run.py --workload root_flap  one of them
    python3 bench/run.py --trace 1             the per-layer (traced) pass
    python3 bench/run.py --out set.json        keep the results
    python3 bench/run.py --compare A.json B.json

A run is a number of **rounds**; in each round every selected workload
runs once, at its fixed size, in a fresh subprocess (so import time and
peak RSS belong to that workload), round-robin across workloads so a
slow phase of a shared box is spread over all of them. Rounds are
started until ``--seconds`` (per selected workload) are used up — the
work inside a round never changes, so two commits are always compared
on the same work. An end-to-end value is that of the **best round**
(for the latency metrics, the best round's percentile): a shared host
can only slow a round down, so the best round is the steadiest estimate
of what the program costs; median and quartiles are kept beside it.
``--trace 1`` replaces the rounds by one untraced reference round and
one traced round and reports the per-layer metrics instead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` when exactly one
workload ran. The exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: A run never has fewer rounds than this, whatever ``--seconds`` says.
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds
    every table and verdict below is built from."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One round


def run_one_round(
    name: str, seed: int, traced: bool, size: Optional[dict] = None
) -> dict:
    """One round of one workload in this process, as plain data."""
    recorder = spans.Recorder() if traced else None
    meter = workloads.run_round(name, seed, size=size, recorder=recorder)
    marks = meter.marks
    verified = marks.get("extra", marks["done"])
    own = resource.getrusage(resource.RUSAGE_SELF)
    payload = {
        "ready_at": marks.get("run"),
        "verified_at": verified,
        "run_s": marks.get("verify", verified) - marks.get("run", verified),
        "latencies": meter.latencies,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "notes": meter.notes,
        "fingerprint": meter.fingerprint,
        "counts": meter.counts,
        "peak_rss_mb": own.ru_maxrss / 1024,
    }
    if recorder is not None:
        pool = resource.getrusage(resource.RUSAGE_CHILDREN)
        seen = {
            **meter.counts,
            **meter.traced,
            "harness.import_s": marks["instrument"] - marks["import"],
            "harness.generator_s": meter.generator_s,
            "harness.run_s": payload["run_s"],
            "harness.verify_s": verified - marks.get("verify", verified),
            "harness.cpu_s": own.ru_utime + own.ru_stime
            + pool.ru_utime + pool.ru_stime,
        }
        payload["layers"] = spans.layer_metrics(recorder, seen)
        OUT.mkdir(exist_ok=True)
        trace = {"workload": name, "seed": seed, "round": "traced"}
        trace.update(recorder.dump())
        (OUT / f"trace-{name}.json").write_text(json.dumps(trace))
    return payload


def seen_from_outside(payload: dict, spawned: float, exited: float) -> dict:
    """Turn a round's own clock marks into what its caller saw. The
    marks are ``time.monotonic()``, which on Linux is one clock for
    all processes, so they subtract across the process boundary."""
    payload["wall_s"] = exited - spawned
    ready = payload.pop("ready_at")
    # A round that failed before its world was ready has no setup time
    # of its own; it is reported incorrect, so the value is never used.
    payload["setup_s"] = (ready or exited) - spawned
    payload["verified_s"] = payload.pop("verified_at") - spawned
    return payload


class RoundError(RuntimeError):
    """A round's subprocess did not produce a result."""


def spawn_round(name: str, seed: int, traced: bool) -> dict:
    """One round as a user would see it: start a fresh interpreter,
    wait for it to exit, and time that from outside."""
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--child", name, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    # A fixed hash seed: str-keyed set and dict order is one more
    # per-process random input otherwise, worth a few percent of wall.
    environment = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    # Its own session, so a round that has to be killed takes its pool
    # workers with it.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=environment,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    exited = time.monotonic()
    lines = output.splitlines()
    if process.returncode != 0 or not lines:
        raise RoundError(
            f"{name}: round exited with code {process.returncode}"
        )
    return seen_from_outside(json.loads(lines[-1]), spawned, exited)


# ----------------------------------------------------------------------
# Statistics


def percentile(ordered: Sequence[float], percent: float) -> float:
    """Linear interpolation between closest ranks of a sorted sample."""
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * percent / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float], better: str = "lower") -> dict:
    """One metric from its per-round values. The value reported is that
    of the **best round**: noise on a shared host is one-sided (a
    neighbour can slow a round, never speed it up), so the best round
    is the closest a run gets to what the program itself costs, and it
    moves least from run to run. Median and quartiles say how disturbed
    the run was."""
    ordered = sorted(values)
    return {
        "value": ordered[0] if better == "lower" else ordered[-1],
        "median": statistics.median(ordered),
        "q1": percentile(ordered, 25),
        "q3": percentile(ordered, 75),
        "values": list(values),
    }


PERCENTILES = (50, 75, 90, 95, 99)

#: Which way each end-to-end metric is better; BENCHMARK.json says the
#: same (test_bench.py checks that it does).
BETTER = {
    "wall_s": "lower", "setup_s": "lower", "ops_per_s": "higher",
    "op_p50_ms": "lower", "op_tail_ms": "lower", "peak_rss_mb": "lower",
}


def summarise(rounds: List[dict], tail: int) -> dict:
    """The end-to-end metrics of one workload from its untraced rounds."""
    per_round: Dict[str, List[float]] = {
        "wall_s": [], "setup_s": [], "ops_per_s": [], "op_p50_ms": [],
        "op_tail_ms": [], "peak_rss_mb": [],
    }
    #: Every round's p50/p75/p90/p95/p99, for whoever reads ``--out``.
    ladder: Dict[str, List[float]] = {str(p): [] for p in PERCENTILES}
    samples = 0
    for result in rounds:
        ordered = sorted(result["latencies"])
        for percent in PERCENTILES:
            ladder[str(percent)].append(percentile(ordered, percent) * 1e3)
        samples += len(ordered)
        per_round["wall_s"].append(result["wall_s"])
        per_round["setup_s"].append(result["setup_s"])
        per_round["ops_per_s"].append(
            len(ordered) / result["run_s"] if result["run_s"] > 0 else 0.0
        )
        per_round["op_p50_ms"].append(percentile(ordered, 50) * 1e3)
        per_round["op_tail_ms"].append(percentile(ordered, tail) * 1e3)
        per_round["peak_rss_mb"].append(result["peak_rss_mb"])
    metrics = {
        metric: spread(values, BETTER[metric])
        for metric, values in per_round.items()
    }
    fingerprints = sorted({result["fingerprint"] for result in rounds})
    attempted = sum(result["attempted"] for result in rounds)
    failed = sum(result["failed"] for result in rounds)
    notes = [note for result in rounds for note in result["notes"]]
    if len(fingerprints) > 1:
        # Rounds of one seed that disagree make every number suspect.
        failed = attempted
        notes.append(f"round fingerprints disagree: {fingerprints}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "fingerprint": fingerprints[0],
        "counts": rounds[0]["counts"],
        "samples": samples,
        "tail_percentile": tail,
        "op_percentiles_ms": ladder,
        "rounds": len(rounds),
    }


# ----------------------------------------------------------------------
# Measuring


def measure(names: List[str], seed: int, seconds: int, traced: bool) -> dict:
    """Run the rounds, round-robin over ``names``, and summarise.

    Untraced, rounds are started for ``seconds`` per workload: another
    sweep over ``names`` begins only if one as long as the longest so
    far would still end in time (but never fewer than ``MIN_ROUNDS``).
    """
    plain: Dict[str, List[dict]] = {name: [] for name in names}
    started = time.monotonic()
    deadline = started + seconds * len(names)
    longest = 0.0
    while True:
        sweep = time.monotonic()
        for name in names:
            plain[name].append(spawn_round(name, seed, traced=False))
        done = time.monotonic()
        longest = max(longest, done - sweep)
        if traced:
            break
        if len(plain[names[0]]) >= MIN_ROUNDS and done + longest > deadline:
            break
    results = {
        name: summarise(plain[name], workloads.TAIL[name])
        for name in names
    }
    if traced:
        for name in names:
            outcome = spawn_round(name, seed, traced=True)
            layers = outcome["layers"]
            layers["harness.trace_overhead_ratio"] = (
                outcome["verified_s"] / plain[name][0]["verified_s"] - 1.0
            )
            result = results[name]
            result["layers"] = layers
            result["attempted"] += outcome["attempted"]
            result["failed"] += outcome["failed"]
            result["notes"] += outcome["notes"]
    return results


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_results(results: dict, spec: dict, traced: bool) -> None:
    for name, result in results.items():
        status = "ok" if result["failed"] == 0 else "INCORRECT"
        print(
            f"\n{name}: {status}, {result['failed']}/{result['attempted']} "
            f"failed, {result['rounds']} round(s), {result['samples']} "
            f"samples, tail = p{result['tail_percentile']}"
        )
        for note in result["notes"][:5]:
            print(f"  ! {note.strip().splitlines()[-1]}")
        if traced:
            for metric in spec["per_layer"]:
                value = result["layers"].get(metric["name"])
                shown = "null" if value is None else f"{value:.6g}"
                print(f"  {metric['name']:34s} {shown:>14s} {metric['unit']}")
            continue
        for metric in spec["end_to_end"]:
            stats = result["metrics"][metric["name"]]
            print(
                f"  {metric['name']:12s} {stats['value']:12.4f} "
                f"{metric['unit']:4s} best round (median "
                f"{stats['median']:.4f}, quartiles {stats['q1']:.4f}.."
                f"{stats['q3']:.4f})"
            )


def driver_line(result: dict, spec: dict, traced: bool) -> str:
    """The one-object result the contract in BENCHMARK.json asks for.
    A per-layer metric whose entry point is gone reads 0 here (the
    line carries numbers only); the trace file and ``--out`` keep the
    ``null``."""
    if traced:
        metrics = {
            metric["name"]: {
                "value": result["layers"].get(metric["name"]) or 0,
                "unit": metric["unit"],
            }
            for metric in spec["per_layer"]
        }
    else:
        metrics = {
            metric["name"]: {
                "value": result["metrics"][metric["name"]]["value"],
                "unit": metric["unit"],
            }
            for metric in spec["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# --compare


def verdict(base: dict, other: dict, better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved`` for
    one metric on one workload, ``other`` against ``base``.

    Beyond the bound is a verdict only when the two sides' own
    round-to-round spread (quartile distance over the value) is within
    it. When it is not, the bound cannot tell the values apart and the
    row is ``unresolved`` — except that values which all lie on one side
    of all of the other's still rule a regression in (if also beyond
    the bound) or out. An improvement is never claimed from noisy sides.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (other["value"] - base["value"]) / base["value"]
    noise = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (base, other)
    )
    if noise > bound:
        gaps = [
            sign * (theirs - ours)
            for ours in base["values"]
            for theirs in other["values"]
        ]
        if all(gap < 0 for gap in gaps):
            return "unchanged"
        if all(gap > 0 for gap in gaps) and worsening > bound:
            return "regressed"
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(base_path: str, other_path: str, spec: dict) -> int:
    base_set = json.loads(Path(base_path).read_text())
    other_set = json.loads(Path(other_path).read_text())
    print(f"base  A = {base_path}\nother B = {other_path}")
    print(
        f"{'workload':15s} {'metric':12s} {'A best':>11s} "
        f"{'A q1..q3':>21s} {'B best':>11s} {'B q1..q3':>21s} "
        f"{'B/A':>6s}  verdict"
    )
    worst = 0
    for name, base in base_set["workloads"].items():
        other = other_set["workloads"].get(name)
        if other is None:
            continue
        for metric in spec["end_to_end"]:
            ours = base["metrics"][metric["name"]]
            theirs = other["metrics"][metric["name"]]
            outcome = verdict(ours, theirs, metric["better"], metric["bound"])
            worst |= outcome == "regressed"
            print(
                f"{name:15s} {metric['name']:12s} {ours['value']:11.4f} "
                f"{ours['q1']:10.4f}..{ours['q3']:<9.4f} "
                f"{theirs['value']:11.4f} "
                f"{theirs['q1']:10.4f}..{theirs['q3']:<9.4f} "
                f"{theirs['value'] / ours['value']:6.3f}  {outcome}"
            )
        shares = [
            side["failed"] / side["attempted"] for side in (base, other)
        ]
        rose = shares[1] > shares[0]
        worst |= rose
        print(
            f"{name:15s} failed_share {shares[0]:11.6f} {'':21s} "
            f"{shares[1]:11.6f} {'':21s} {'':6s}  "
            f"{'regressed' if rose else 'unchanged'}"
        )
        differing = sorted(
            key
            for key in set(base["counts"]) | set(other["counts"])
            if base["counts"].get(key) != other["counts"].get(key)
        )
        if base["fingerprint"] != other["fingerprint"] or differing:
            print(
                f"{name:15s} exact counts differ: "
                f"{', '.join(differing) or 'fingerprint only'}"
            )
    return int(worst)


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=None,
        help="how long one run measures, per selected workload "
        "(default: BENCHMARK.json's run_seconds); sets the number of rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result set to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(run_one_round(args.child, args.seed, bool(args.trace))))
        return 0
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    known = list(workloads.WORKLOADS)
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {known}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    traced = bool(args.trace)
    try:
        results = measure(names, args.seed, seconds, traced)
    except RoundError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print_results(results, spec, traced)
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": seconds,
                    "traced": traced,
                    "machine": machine_facts(),
                    "sizes": {name: workloads.SIZES[name] for name in names},
                    "workloads": results,
                },
                indent=1,
            )
            + "\n"
        )
    if len(names) == 1:
        print(driver_line(results[names[0]], spec, traced))
    return int(any(result["failed"] for result in results.values()))


if __name__ == "__main__":
    sys.exit(main())
