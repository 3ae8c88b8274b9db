"""Concurrent workers: reports and per-code derivations do not depend on threads."""

import sys
from concurrent.futures import ThreadPoolExecutor

from nmds.classify import check_min_weight_pairing, classify
from nmds.cli import run_verification
from nmds.codes import (
    LinearCode,
    conic_arc,
    min_weight_codewords,
    min_weight_dual_codewords,
    weight_distribution,
)
from nmds.constructions import CONSTRUCTION_IDS, build
from nmds.field import GF2m
from nmds.lrc import classify_lrc, locality_of_code, locality_of_dual, repair_map

WORKERS = 4  # more than the cores of a small runner, so threads interleave
TIMEOUT_S = 120


def _with_fast_switching(fn):
    """Run fn with a short thread switch interval, so threads interleave often."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(old)


def test_run_verification_threaded_matches_serial():
    serial = [run_verification(cid, 5) for cid in CONSTRUCTION_IDS]

    def threaded():
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(run_verification, cid, 5) for cid in CONSTRUCTION_IDS]
            return [f.result(timeout=TIMEOUT_S) for f in futures]

    assert _with_fast_switching(threaded) == serial


# Derivations kept on the code, so every caller gets the same object.
CACHED = (weight_distribution, min_weight_codewords, min_weight_dual_codewords, classify)
# Derivations that build a fresh report from the cached ones.
REBUILT = (check_min_weight_pairing, locality_of_code, locality_of_dual, classify_lrc, repair_map)


def test_shared_code_derivations_agree_across_threads():
    for cid in ("c", "e2", "f3"):
        code = build(cid, GF2m(5))

        def derive():
            return [fn(code) for fn in CACHED + REBUILT]

        def threaded():
            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                futures = [pool.submit(derive) for _ in range(WORKERS)]
                return [f.result(timeout=TIMEOUT_S) for f in futures]

        results = _with_fast_switching(threaded)
        first = results[0]
        for other in results[1:]:
            assert other == first, cid
            for a, b in zip(other[: len(CACHED)], first[: len(CACHED)]):
                assert a is b, cid
        fresh = build(cid, GF2m(5))
        assert [fn(fresh) for fn in CACHED + REBUILT] == first, cid


def test_codes_over_one_field_share_each_pencil_across_threads():
    # A modulus no other test builds codes over, so the threads race to
    # derive every pencil of the field's arc.
    ctx = GF2m(5, 0b111101)  # x^5+x^4+x^3+x^2+1
    q = ctx.q

    def derive(cid):
        code = build(cid, ctx)
        return code, min_weight_codewords(code), min_weight_dual_codewords(code)

    def threaded():
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(derive, cid) for cid in CONSTRUCTION_IDS]
            return [f.result(timeout=TIMEOUT_S) for f in futures]

    results = _with_fast_switching(threaded)
    arc = conic_arc(ctx)
    assert set(arc._pencils) == {(0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)}
    for cid, (code, words, duals) in zip(CONSTRUCTION_IDS, results):
        alone = LinearCode(ctx, code.columns)  # no stated arc: no pencils to share
        assert (words, duals) == (min_weight_codewords(alone), min_weight_dual_codewords(alone)), cid
        assert code.arc is arc, cid
        for cols, coeffs in duals:
            if cols[1] < q - 1:  # a secant of a pencil: its dependency is the pencil's object
                pencil = arc._pencils[code.columns[cols[2]]]
                assert any(coeffs is dep for _, _, dep in pencil.values()), (cid, cols)


def test_classify_runs_once_per_code():
    code = build("c", GF2m(3))
    assert classify(code) is classify(code)
