"""Benchmark of the nmds verifier.

    python3 perfbench/run.py --workload verify-m7 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Untraced passes of the workload run one at
a time, each in a fresh interpreter, until the next one would end after
--seconds (at least MIN_PASSES of them).  Every pair's output is checked
against the stored reference.  With --trace 1 one traced pass follows, and
the per-layer metrics are reported instead of the end-to-end ones.  Human
lines come first; the last line of standard output is one JSON object with
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import summarize
from workloads import SPAN_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PASS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pair_s.p50": "s",
    "pair_s.tail": "s",
    "peak_rss_mb": "MiB",
}

# Work counts a traced pass reports; absent ones are 0.
COUNTERS = {
    "codes.codewords": "count",
    "codes.projective_messages": "count",
    "codes.min_weight_words": "count",
    "codes.column_triples": "count",
    "codes.singular_triples": "count",
    "codes.krawtchouk_terms": "count",
    "codes.max_count_bits": "bit",
    "lrc.repair_fallback_coords": "count",
    "cli.report_bytes": "B",
}

PER_LAYER = {
    **{f"{span}_s": "s" for span in SPAN_NAMES},
    **{f"{module}.errors": "count"
       for module in ("field", "constructions", "codes", "classify", "lrc", "cli")},
    **COUNTERS,
    "codes.codewords_per_s": "1/s",
    "codes.min_weight_yield": "1",
    "codes.triple_yield": "1",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "fail_ratio": "1",
}


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, index: int) -> dict:
    """Run passrun.py in a fresh interpreter; adds setup_s and wall to its result."""
    cmd = [sys.executable, str(HERE / "passrun.py"), mode, workload, str(seed), str(index)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass {index} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["wall"] = wall
    return result


def run_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + median(p["wall"] for p in passes) <= seconds
    ):
        passes.append(spawn("run", workload, seed, len(passes)))
    return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_PERCENTILES with at least ten samples
    above it (nearest rank), and that percentile.

    A fixed ladder keeps the percentile the same from run to run although the
    sample count varies.  The exact rank ten from the top of a verify-small
    run (about p99.6) falls among the first pairs of fresh interpreters and
    varied by a third between runs.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(math.ceil(pct / 100 * n) - 1, 0)
        if n - 1 - rank >= 10:
            return ordered[rank], pct
    return ordered[-1], 100.0


def fastest(passes: list[dict]) -> tuple[dict[str, float], float]:
    """Each pair's fastest time over the passes, and the fastest time a pass
    spent outside its pairs (rendering).

    Neighbours on the measuring host slow a process by up to a factor of two
    for seconds at a time, with CPU time equal to wall time, and the share of
    slow seconds changes from run to run.  A median over passes follows that
    share: it moved by a quarter between runs of the same code.  A pair's
    fastest time over the run is its time when no neighbour interferes.
    """
    best: dict[str, float] = {}
    for p in passes:
        for key, seconds, _ in p["pairs"]:
            best[key] = min(seconds, best.get(key, seconds))
    rest = min(p["pass_s"] - sum(seconds for _, seconds, _ in p["pairs"]) for p in passes)
    return best, rest


def end_to_end(passes: list[dict]) -> tuple[dict, float, int]:
    times = [seconds for p in passes for _, seconds, _ in p["pairs"]]
    tail_s, tail_pct = tail(times)
    best, rest = fastest(passes)
    values = {
        "setup_s": median(p["setup_s"] for p in passes),
        "pass_s": sum(best.values()) + rest,
        "pair_s.p50": median(best.values()),
        "pair_s.tail": tail_s,
        "peak_rss_mb": median(p["rss_kib"] for p in passes) / 1024,
    }
    return values, tail_pct, len(times)


def per_layer(traced: dict, passes: list[dict], fail_ratio: float) -> dict:
    busy, errors, unattributed = summarize(traced["spans"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {f"{span}_s": busy.get(span, 0.0) for span in SPAN_NAMES}
    values.update({name: errors.get(name.split(".")[0], 0)
                   for name in PER_LAYER if name.endswith(".errors")})
    values.update({name: traced["counters"].get(name, 0) for name in COUNTERS})
    values["codes.codewords_per_s"] = ratio(values["codes.codewords"], values["codes.distribution_s"])
    values["codes.min_weight_yield"] = ratio(
        values["codes.min_weight_words"], values["codes.projective_messages"])
    values["codes.triple_yield"] = ratio(values["codes.singular_triples"], values["codes.column_triples"])
    values["trace.overhead_s"] = traced["pass_s"] - median(p["pass_s"] for p in passes)
    values["trace.unattributed_s"] = unattributed
    values["fail_ratio"] = fail_ratio
    assert values.keys() == PER_LAYER.keys(), sorted(values.keys() ^ PER_LAYER.keys())
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nmds" / "__init__.py").is_file():
        print(f"perfbench: no nmds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spawn("setup", args.workload, args.seed, 0)  # imports fail here, and bytecode is cached
        passes = run_passes(args.workload, args.seed, args.seconds)
        traced = spawn("trace", args.workload, args.seed, 0) if args.trace else None
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    pairs = [pair for p in passes + ([traced] if traced else []) for pair in p["pairs"]]
    failed = [pair for pair in pairs if pair[2]]
    for key, _, problem in failed[:10]:
        print(f"perfbench: FAIL {key}: {problem}", file=sys.stderr)
    fail_ratio = len(failed) / len(pairs)

    e2e, tail_pct, samples = end_to_end(passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes, "
          f"{samples} pairs" + (", 1 traced pass" if traced else ""))
    notes = {
        "pass_s": f"fastest time of each of {len(passes[0]['pairs'])} pairs over {len(passes)} passes, summed",
        "pair_s.p50": f"median over pairs of the fastest time of each, {samples} pairs run",
        "pair_s.tail": f"p{tail_pct:g} of {samples} pairs, at least 10 above it",
    }
    for name, unit in END_TO_END.items():
        note = notes.get(name, f"median of {len(passes)} passes")
        print(f"  {name:<14} {e2e[name]:12.6f} {unit:<4} {note}")
    print(f"  {'fail_ratio':<14} {fail_ratio:12.6f} 1    {len(failed)} of {len(pairs)} pairs failed")

    if traced:
        layer = per_layer(traced, passes, fail_ratio)
        pair_time = sum(s["end"] - s["start"] for s in traced["spans"] if s["name"] == "pair")
        print(f"per layer, one traced pass ({traced['pass_s']:.4f} s):")
        for name, unit in PER_LAYER.items():
            span = name.removesuffix("_s")
            share = f"{100 * layer[name] / pair_time:5.1f}% of pair time" if (
                span in SPAN_NAMES and span != "cli.render") else ""
            value = layer[name]
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6g}"
            print(f"  {name:<28} {shown} {unit:<6} {share}")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"metrics": layer, "spans": traced["spans"]}) + "\n")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": not failed,
        "attempted": len(pairs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
