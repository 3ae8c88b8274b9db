"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks the seeded input generator, that every span wraps the intended
function, that a wrong count is counted as a failure, that a traced pass
reproduces the reference with counters that repeat across seeds, that
``nmds verify --all`` still prints the stored reference with exit status 0,
how the end-to-end times are built from the fastest pair times, and that
BENCHMARK.json names the metrics this benchmark prints.  Takes about 20 s;
exits 1 at the first failed check.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CALLS, IDS, SPAN_NAMES, WORKLOADS, Layers, Pass, irreducibles, pass_inputs, reference_path,
)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_irreducibles() -> None:
    for m in range(1, 11):
        expected = sum(_mobius(d) * 2 ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        check(len(irreducibles(m)) == expected, f"{expected} irreducible polynomials of degree {m}")
    find_factor = importlib.import_module("nmds.field").find_factor
    for m in range(2, 9):
        trial = tuple(f for f in range(1 << m, 1 << (m + 1)) if find_factor(f) is None)
        check(irreducibles(m) == trial, f"Rabin's test agrees with trial division at degree {m}")


def test_inputs() -> None:
    for name, workload in WORKLOADS.items():
        first = [pass_inputs(name, 1, i) for i in range(4)]
        check(first == [pass_inputs(name, 1, i) for i in range(4)], f"{name}: same seed, same inputs")
        check(first != [pass_inputs(name, 2, i) for i in range(4)], f"{name}: other seed, other inputs")
        keys = sorted(f"{cid}@{m}" for cid, m, _ in first[0])
        check(keys == sorted(workload.keys()), f"{name}: each pair once per pass")
        check(all(modulus in irreducibles(m) for p in first for _, m, modulus in p),
              f"{name}: every modulus irreducible of degree m")


def test_span_targets() -> None:
    layers = Layers()
    for name, (module, _) in CALLS.items():
        fn = layers.fns[name]
        check(fn.__module__ == module and fn.__name__ == name, f"{name} is {module}.{name}")
    package = importlib.import_module("nmds")
    check(package.classify is layers.fns["classify"],
          "the package attribute classify is the function, hence dotted imports")


def _failed(job: Pass) -> list[str]:
    pairs = job.run()["pairs"]
    failed = [key for key, _, problem in pairs if problem]
    print(f"     fail_ratio {len(failed)}/{len(pairs)}")
    return failed


def test_failures_counted() -> None:
    job = Pass("verify-small", 1, 0)
    counts = job.ref["c@3"]["distribution"]
    weight = next(iter(counts))
    counts[weight] = str(int(counts[weight]) + 1)
    check(_failed(job) == ["c@3"], "verify-small: a wrong count fails its pair")

    job = Pass("dual-m7", 1, 0)
    job.ref["f3@7"]["dual_words"] += 1
    check(_failed(job) == ["f3@7"], "dual-m7: a wrong count fails its pair")

    job = Pass("verify-small", 1, 0)
    job.ref_text += " "
    check(len(_failed(job)) == len(IDS) * 2, "verify-small: a rendering difference fails every pair")


def test_traced_passes() -> None:
    for name in WORKLOADS:
        counters = []
        for seed in (1, 2):
            tracer = Tracer()
            result = Pass(name, seed, 0, tracer).run()
            check(not any(pair[2] for pair in result["pairs"]), f"{name} seed {seed}: traced pass matches")
            pairs = {span["id"]: span["pair"] for span in tracer.spans if span["name"] == "pair"}
            check(all(span["name"] in SPAN_NAMES and pairs.get(span["parent"]) == span["pair"]
                      for span in tracer.spans
                      if span["name"] not in ("pair", "cli.render")),
                  f"{name} seed {seed}: every layer span sits in its pair span")
            counters.append(result["counters"])
        check(counters[0] == counters[1], f"{name}: counters repeat across seeds")


def test_cli_reference() -> None:
    cli = importlib.import_module("nmds.cli")
    for name, m in (("verify-small", "3,4"), ("verify-m7", "7")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["verify", "--all", "--m", m])
        check(status == 0, f"nmds verify --all --m {m} exits 0")
        check(out.getvalue() == reference_path(name).read_text(),
              f"nmds verify --all --m {m} prints the {name} reference")


def test_fastest_times() -> None:
    passes = [
        {"pass_s": 1.0, "pairs": [["a@3", 0.2, None], ["b@3", 0.7, None]]},
        {"pass_s": 0.8, "pairs": [["b@3", 0.3, None], ["a@3", 0.4, None]]},
    ]
    best, rest = run.fastest(passes)
    check(best == {"a@3": 0.2, "b@3": 0.3} and abs(rest - 0.1) < 1e-12,
          "each pair's fastest time over the passes, and the fastest rest of a pass")
    values, _, _ = run.end_to_end([{**p, "setup_s": 0.1, "rss_kib": 1024} for p in passes])
    check(abs(values["pass_s"] - 0.6) < 1e-12 and abs(values["pair_s.p50"] - 0.25) < 1e-12,
          "pass_s sums the fastest times, pair_s.p50 is their median")


def test_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer metrics")


if __name__ == "__main__":
    for test in (test_irreducibles, test_inputs, test_span_targets, test_failures_counted,
                 test_traced_passes, test_cli_reference, test_fastest_times, test_benchmark_json):
        test()
