"""Workloads of the verifier benchmark: seeded inputs, passes and reference checks.

A *pair* is one input ``(construction id, m, modulus)``.  A *pass* runs every
pair of one workload once, in seeded order, inside one interpreter, the way
one ``nmds verify`` call does.  The seed picks an irreducible modulus of
degree m for every (pass, m) and the order of the pairs; the program only
ever sees the generated triples.  Reports do not depend on the modulus, so
one stored reference (made with the default moduli) serves every seed.

Workloads:

* ``verify-small``: ``run_verification`` for all twelve ids at m = 3 and 4,
  then ``report_to_json``.  Fixed cost per pair dominates; at m = 4 eight ids
  violate their m-constraint and take the non-NMDS path.
* ``verify-m7``: the same at m = 7, where exhaustive primal counting takes
  most of each pair.
* ``dual-m7``: at m = 7, only calls that never enumerate codewords: the
  triple scan, weight-3 dual words, MacWilliams of the closed-form
  distribution, both NMDS recurrences and the repair map, with every witness
  checked on seeded messages.
"""

from __future__ import annotations

import importlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from tracing import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Fixed here rather than read from the program, so the program cannot change
# its own inputs.
IDS = ("c", "c1", "d", "d1", "d2", "e", "e1", "e2", "e1bar", "f1", "f2", "f3")


@dataclass(frozen=True)
class Workload:
    kind: str  # "verify" or "dual"
    ms: tuple[int, ...]

    def keys(self) -> list[str]:
        """Pair keys in the order ``nmds verify --all --m ...`` reports them."""
        return [f"{cid}@{m}" for m in self.ms for cid in IDS]


WORKLOADS = {
    "verify-small": Workload("verify", (3, 4)),
    "verify-m7": Workload("verify", (7,)),
    "dual-m7": Workload("dual", (7,)),
}

# Seeded messages on which every repair witness of a dual-m7 pair is checked.
REPAIR_MESSAGES = 4

# Every program function the benchmark calls: name -> (module, span name).
# Each is resolved from its dotted module path, because the package namespace
# rebinds ``nmds.classify`` to the function of that name.  Calls whose span is
# None are never traced.
CALLS = {
    "GF2m": ("nmds.field", "field.tables"),
    "build": ("nmds.constructions", "constructions.build"),
    "verify_construction": ("nmds.constructions", "constructions.verify"),
    "expected_profile": ("nmds.constructions", None),
    "expected_locality": ("nmds.constructions", None),
    "weight_distribution": ("nmds.codes", "codes.distribution"),
    "min_weight_codewords": ("nmds.codes", "codes.min_weight"),
    "dual_distance_exact": ("nmds.codes", "codes.triple_scan"),
    "min_weight_dual_codewords": ("nmds.codes", "codes.dual_words"),
    "macwilliams": ("nmds.codes", "codes.macwilliams"),
    "WeightDistribution": ("nmds.codes", None),
    "nmds_dual_distribution_from_Ak": ("nmds.classify", "classify.recurrence"),
    "nmds_primal_distribution_from_Ank": ("nmds.classify", "classify.recurrence"),
    "classify": ("nmds.classify", "classify.classify"),
    "check_min_weight_pairing": ("nmds.classify", "classify.pairing"),
    "locality_of_code": ("nmds.lrc", "lrc.locality"),
    "locality_of_dual": ("nmds.lrc", "lrc.locality"),
    "classify_lrc": ("nmds.lrc", "lrc.bounds"),
    "repair_map": ("nmds.lrc", "lrc.repair_map"),
    "repair_value": ("nmds.lrc", None),
    "run_verification": ("nmds.cli", None),
    "report_to_json": ("nmds.cli", "cli.render"),
}

SPAN_NAMES = sorted({span for _, span in CALLS.values() if span})


class Layers:
    """The program's functions, called through the tracer when there is one."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.fns = {
            name: getattr(importlib.import_module(module), name)
            for name, (module, _) in CALLS.items()
        }

    def __call__(self, name: str, *args):
        span = CALLS[name][1]
        if self.tracer is None or span is None:
            return self.fns[name](*args)
        return self.tracer.call(span, self.fns[name], args)


# -- seeded inputs ---------------------------------------------------------------
# GF(2)[x] polynomials are ints whose bits are coefficients.  The irreducibility
# test is Rabin's, independent of the trial division in nmds.field, so a change
# to the field layer cannot change the inputs.

def _polymod(a: int, f: int) -> int:
    while a.bit_length() >= f.bit_length():
        a ^= f << (a.bit_length() - f.bit_length())
    return a


def _mulmod(a: int, b: int, f: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a = _polymod(a << 1, f)
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def is_irreducible(f: int) -> bool:
    """Rabin's test: f of degree m >= 1 is irreducible over GF(2) iff
    x^(2^m) = x mod f and gcd(x^(2^(m/p)) - x, f) = 1 for each prime p | m."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    x = _polymod(0b10, f)

    def frobenius(times: int) -> int:
        v = x
        for _ in range(times):
            v = _mulmod(v, v, f)
        return v

    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]
    return frobenius(m) == x and all(_gcd(frobenius(m // p) ^ x, f) == 1 for p in primes)


@cache
def irreducibles(m: int) -> tuple[int, ...]:
    return tuple(f for f in range(1 << m, 1 << (m + 1)) if is_irreducible(f))


def pass_inputs(workload: str, seed: int, index: int) -> list[tuple[str, int, int]]:
    """The pairs of pass ``index``: one modulus per m, all pairs shuffled."""
    ms = WORKLOADS[workload].ms
    rng = random.Random(f"{workload}/{seed}/{index}")
    moduli = {m: rng.choice(irreducibles(m)) for m in ms}
    pairs = [(cid, m, moduli[m]) for m in ms for cid in IDS]
    rng.shuffle(pairs)
    return pairs


# -- reference ---------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> tuple[str, dict]:
    """The stored reference text and its entries by pair key.

    For verify workloads the text is ``report_to_json`` of every pair in
    ``Workload.keys()`` order; for dual-m7 it maps each key to its outputs.
    """
    text = reference_path(workload).read_text()
    data = json.loads(text)
    if WORKLOADS[workload].kind == "verify":
        data = {report["key"]: report for report in data}
    return text, data


# -- passes --------------------------------------------------------------------------

class Outcome(NamedTuple):
    output: dict          # compared with the reference entry of the pair
    problems: list[str]   # checks the program or the benchmark saw fail
    counters: dict        # work counts for the traced run


def _transform_counters(dist, dual_dist) -> dict:
    """Krawtchouk terms MacWilliams evaluates for ``dist``, and the size of its output."""
    items = dist.nonzero_items()
    return {
        "codes.krawtchouk_terms": sum(
            min(i, j) + 1 for j in range(dist.n + 1) for i, _ in items
        ),
        "codes.max_count_bits": max(c.bit_length() for c in dual_dist.counts),
    }


def _flags(opt) -> dict:
    return {
        "d_optimal": opt.d_optimal,
        "almost_d_optimal": opt.almost_d_optimal,
        "k_optimal": opt.k_optimal,
    }


class Pass:
    """One pass of a workload: set up by the constructor, timed by ``run``."""

    def __init__(self, workload: str, seed: int, index: int, tracer: Tracer | None = None):
        self.workload = WORKLOADS[workload]
        self.label = f"{workload}/{seed}/{index}"
        self.tracer = tracer
        self.layers = Layers(tracer)
        self.inputs = pass_inputs(workload, seed, index)
        self.ref_text, self.ref = load_reference(workload)

    def run(self) -> dict:
        """Run every pair, render, then check against the reference.

        Returns pass_s, one ``[key, seconds, problem or None]`` per pair in run
        order, and the summed work counters.
        """
        if self.workload.kind == "dual":
            pair_fn = partial(dual_pair, self.layers, self.label)
        elif self.tracer:
            pair_fn = partial(traced_verify_pair, self.layers, self.ref)
        else:
            pair_fn = partial(verify_pair, self.layers)
        results = []
        start = perf_counter()
        for cid, m, modulus in self.inputs:
            key = f"{cid}@{m}"
            t = perf_counter()
            with self.tracer.pair(key) if self.tracer else nullcontext():
                try:
                    outcome = pair_fn(cid, m, modulus)
                except Exception as exc:  # a raising pair is counted as failed
                    outcome = exc
            results.append((key, perf_counter() - t, outcome))
        text = self._render(results) if self.workload.kind == "verify" else None
        pass_s = perf_counter() - start
        return {"pass_s": pass_s, **self._check(results, text)}

    def _render(self, results) -> str | None:
        """report_to_json of the pass's reports, in reference order.

        A traced pass builds no full reports, so it renders the reference's.
        """
        if self.tracer:
            reports = [self.ref[key] for key in self.workload.keys()]
        else:
            done = {key: o.output for key, _, o in results if isinstance(o, Outcome)}
            if len(done) != len(results):
                return None
            reports = [done[key] for key in self.workload.keys()]
        return self.layers("report_to_json", reports)

    def _check(self, results, text: str | None) -> dict:
        render_ok = self.workload.kind == "dual" or text == self.ref_text
        pairs, counters = [], {}
        for key, seconds, outcome in results:
            if isinstance(outcome, Exception):
                problem = f"raised {type(outcome).__name__}: {outcome}"
            elif outcome.problems:
                problem = "failed checks: " + ", ".join(outcome.problems)
            elif outcome.output != self.ref[key]:
                problem = "differs from the reference"
            elif not render_ok:
                problem = "rendered report differs from the reference"
            else:
                problem = None
            pairs.append([key, seconds, problem])
            if isinstance(outcome, Outcome):
                for name, value in outcome.counters.items():
                    old = counters.get(name, 0)
                    counters[name] = max(old, value) if name == "codes.max_count_bits" else old + value
        if text is not None:
            counters["cli.report_bytes"] = len(text.encode())
        return {"pairs": pairs, "counters": counters}


# -- one pair per workload kind ----------------------------------------------------

def verify_pair(L: Layers, cid: str, m: int, modulus: int | None) -> Outcome:
    report, failures = L("run_verification", cid, m, modulus)
    return Outcome(report, failures, {})


def traced_verify_pair(L: Layers, ref: dict, cid: str, m: int, modulus: int | None) -> Outcome:
    """The calls ``run_verification`` makes, one layer at a time in
    dependency order, so each memoized input exists before its consumer."""
    ref = ref[f"{cid}@{m}"]
    nmds_path = ref["class"] == "NMDS" and ref["d_dual"] == 3
    ctx = L("GF2m", m, modulus)
    q = ctx.q
    code = L("build", cid, ctx)
    dist = L("weight_distribution", code)
    primal = L("min_weight_codewords", code) if nmds_path else []
    dd = L("dual_distance_exact", code)
    duals = L("min_weight_dual_codewords", code) if dd == 3 else []
    vr = L("verify_construction", cid, ctx, code)
    problems = vr.failing_fields()
    counters = {
        "codes.codewords": q**3,
        "codes.projective_messages": q * q + q + 1 if nmds_path else 0,
        "codes.min_weight_words": len(primal),
        "codes.column_triples": comb(code.n, 3) if dd in (3, None) else 0,
        "codes.singular_triples": len(duals),
    }
    report = {
        "key": f"{cid}@{m}", "id": cid, "m": m, "q": q,
        "n": vr.n, "k": vr.k, "d": vr.d, "d_dual": vr.d_dual, "class": None,
        "distribution": {str(w): str(c) for w, c in dist.nonzero_items()},
        "dual_weight3_count": (
            None if vr.dual_weight3_count is None else str(vr.dual_weight3_count)
        ),
        "pairing_ok": None, "locality": None, "bounds": None,
        "warnings": list(vr.warnings),
    }
    if nmds_path:
        mw = L("macwilliams", dist, vr.k, q)
        rec_dual = L("nmds_dual_distribution_from_Ak", vr.n, vr.k, q, vr.dual_weight3_count or 0)
        rec_primal = L("nmds_primal_distribution_from_Ank", vr.n, vr.k, q, dist.counts[vr.n - vr.k])
        counters.update(_transform_counters(dist, mw))
        if mw.counts != rec_dual.counts:
            problems.append("macwilliams_vs_recurrence")
        if rec_primal.counts != dist.counts:
            problems.append("primal_recurrence")
    report["class"] = L("classify", code).tag
    if nmds_path:
        report["pairing_ok"] = L("check_min_weight_pairing", code).ok
        loc_code = L("locality_of_code", code)
        loc_dual = L("locality_of_dual", code)
        opt_code, opt_dual = L("classify_lrc", code, loc_code.r, loc_dual.r)
        report["locality"] = {
            "code": loc_code.r, "dual": loc_dual.r,
            "mechanism_code": loc_code.mechanism, "mechanism_dual": loc_dual.mechanism,
        }
        report["bounds"] = {
            "sl_rhs_code": opt_code.sl_rhs, "sl_rhs_dual": opt_dual.sl_rhs,
            "cm_rhs_code": opt_code.cm_rhs, "cm_rhs_dual": opt_dual.cm_rhs,
            "flags": {"code": _flags(opt_code), "dual": _flags(opt_dual)},
        }
    return Outcome(report, problems, counters)


def dual_pair(L: Layers, label: str, cid: str, m: int, modulus: int | None) -> Outcome:
    """Dual side only: no call here enumerates codewords."""
    ctx = L("GF2m", m, modulus)
    q = ctx.q
    code = L("build", cid, ctx)
    n, k = code.n, code.k
    dd = L("dual_distance_exact", code)
    words = L("min_weight_dual_codewords", code)
    profile = L("expected_profile", cid, q)
    closed = L("WeightDistribution", n, profile.distribution_counts())
    mw = L("macwilliams", closed, k, q)
    a3 = (q - 1) * len(words)
    rec_dual = L("nmds_dual_distribution_from_Ak", n, k, q, a3)
    rec_primal = L("nmds_primal_distribution_from_Ank", n, k, q, closed.counts[n - k])
    witnesses = L("repair_map", code)
    rng = random.Random(f"{label}/{cid}@{m}")
    repaired = len(witnesses) == n
    for _ in range(REPAIR_MESSAGES):
        word = code.codeword([rng.randrange(q) for _ in range(k)])
        repaired &= all(
            L("repair_value", word, witness, ctx) == word[i] for i, witness in witnesses.items()
        )
    r_code = L("expected_locality", cid, q)[0]
    fallback = sum(len(idx) > 2 for idx, _ in witnesses.values())
    problems = [name for name, ok in (
        ("d_dual", dd == profile.d_dual),
        ("dual_weight3_count", a3 == profile.dual_weight3_count),
        ("macwilliams_vs_recurrence", mw.counts == rec_dual.counts),
        ("primal_recurrence", rec_primal.counts == closed.counts),
        ("repair", repaired and all(len(idx) <= r_code for idx, _ in witnesses.values())),
    ) if not ok]
    output = {
        "d_dual": dd,
        "dual_words": len(words),
        "repair_fallback_coords": fallback,
        "dual_distribution": [str(c) for c in mw.counts],
    }
    counters = {
        "codes.column_triples": comb(n, 3),
        "codes.singular_triples": len(words),
        "lrc.repair_fallback_coords": fallback,
        **_transform_counters(closed, mw),
    }
    return Outcome(output, problems, counters)
