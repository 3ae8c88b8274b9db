"""Command surface: argument handling, report schema, exit codes, formats."""

import hashlib
import json
from pathlib import Path

import pytest

import nmds.cli
import nmds.constructions as cons
from nmds.cli import main, report_to_json, run_verification
from nmds.field import GF2m

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

REPORT_KEYS = {
    "key", "id", "m", "q", "n", "k", "d", "d_dual", "class", "distribution",
    "dual_weight3_count", "pairing_ok", "locality", "bounds", "warnings",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_m3(capsys):
    code, out, err = run(capsys, ["verify", "--all", "--m", "3"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 12
    assert {r["key"] for r in reports} == {f"{cid}@3" for cid in cons.CONSTRUCTION_IDS}
    for r in reports:
        assert set(r) == REPORT_KEYS
        assert r["class"] == "NMDS"
        assert r["pairing_ok"] is True
        assert r["warnings"] == []


def test_verify_report_schema_and_string_counts(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "c", "--m", "3"])
    assert code == 0
    (report,) = json.loads(out)
    assert report["distribution"] == {"0": "1", "9": "70", "10": "252", "11": "42", "12": "147"}
    assert report["dual_weight3_count"] == "70"
    assert report["locality"] == {
        "code": 2, "dual": 8,
        "mechanism_code": "union-covers", "mechanism_dual": "intersection-empty",
    }
    assert report["bounds"]["sl_rhs_code"] == 9
    assert report["bounds"]["cm_rhs_dual"] == 9
    assert report["bounds"]["flags"]["code"] == {
        "d_optimal": True, "almost_d_optimal": False, "k_optimal": True,
    }


def test_verify_json_round_trips(capsys):
    _, out, _ = run(capsys, ["verify", "--id", "f3", "--m", "3,5"])
    reports = json.loads(out)
    assert json.loads(json.dumps(reports)) == reports
    assert [r["key"] for r in reports] == ["f3@3", "f3@5"]


def test_verify_m_constraint_warning(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "c", "--m", "2"])
    assert code == 0  # warnings do not fail the run
    (report,) = json.loads(out)
    assert report["warnings"] and "m=2" in report["warnings"][0]
    assert report["class"] == "other"
    assert report["locality"] is None and report["bounds"] is None


def test_verify_e_passes_at_m2(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "e", "--m", "2"])
    assert code == 0
    (report,) = json.loads(out)
    assert report["warnings"] == []
    assert report["class"] == "NMDS"


def test_verify_modulus_override(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "c", "--m", "3", "--modulus", "0xD"])
    assert code == 0
    (report,) = json.loads(out)
    assert report["distribution"]["9"] == "70"


def test_verify_detects_mismatch(capsys, monkeypatch):
    real = cons.CONSTRUCTIONS["d"]
    (a, b, c), *rest = real.lines
    corrupted = real._replace(lines=((a, b, c + 14), *rest))  # break one closed form
    monkeypatch.setitem(cons.CONSTRUCTIONS, "d", corrupted)
    code, out, err = run(capsys, ["verify", "--id", "d", "--m", "3"])
    assert code == 1
    assert err == "nmds: FAIL d@3: distribution, dual_weight3_count\n"


def test_verify_names_every_check_a_full_conic_fails(capsys, monkeypatch):
    # e's tail replaced by (1, 0, 0) and (0, 0, 1) makes its nine columns the
    # whole conic at m = 3: an MDS code of the right length, no weight-3
    # dual word, and d = 7 where the closed forms say 6.
    conic = cons.CONSTRUCTIONS["e"]._replace(tail=((1, 0, 0), (0, 0, 1)))
    monkeypatch.setitem(cons.CONSTRUCTIONS, "e", conic)
    code, out, err = run(capsys, ["verify", "--id", "e", "--m", "3"])
    assert code == 1
    assert err == "nmds: FAIL e@3: d, d_dual, distribution, dual_weight3_count, class\n"
    (report,) = json.loads(out)
    assert (report["class"], report["d"], report["d_dual"]) == ("MDS", 7, None)
    assert report["dual_weight3_count"] is None


def test_verify_names_a_locality_mismatch(capsys, monkeypatch):
    wrong = cons.CONSTRUCTIONS["c"]._replace(r_code=3)
    monkeypatch.setitem(cons.CONSTRUCTIONS, "c", wrong)
    code, _, err = run(capsys, ["verify", "--id", "c", "--m", "3", "-v"])
    assert code == 1
    assert err == "c@3: FAIL\nnmds: FAIL c@3: locality\n"


def test_verify_verbose_streams_one_line_per_pair(capsys):
    code, _, err = run(capsys, ["verify", "--id", "c", "--m", "3,4", "-v"])
    assert code == 0
    assert err == "c@3: ok\nc@4: ok (1 warning)\n"


@pytest.mark.parametrize("field, claim, failed", [
    ("flags_code", (False, True, True), "flags_code"),
    ("flags_dual", (False, True, True), "flags_dual"),
    ("r_dual_offset", -1, "locality"),
])
def test_verify_names_a_flag_or_dual_locality_mismatch(capsys, monkeypatch, field, claim, failed):
    # c at m = 3 is d-optimal on both sides with dual locality q; one claim
    # changed fails its own check, on the command and in the report alike.
    wrong = cons.CONSTRUCTIONS["c"]._replace(**{field: claim})
    monkeypatch.setitem(cons.CONSTRUCTIONS, "c", wrong)
    code, _, err = run(capsys, ["verify", "--id", "c", "--m", "3"])
    assert (code, err) == (1, f"nmds: FAIL c@3: {failed}\n")
    ctx = GF2m(3)
    assert cons.verify_construction("c", ctx, cons.build("c", ctx)).failing_fields() == [failed]


@pytest.mark.parametrize("j, failed", [
    (3, "macwilliams_vs_recurrence"),
    (2, "macwilliams_vs_recurrence, primal_recurrence"),
], ids=["B_3", "B_2"])
def test_verify_detects_a_recurrence_mismatch(capsys, monkeypatch, j, failed):
    # one dual count off: B_3 fails the dual check alone, B_2 both checks
    real = cons.dual_moments

    def off_at_weight_j(dist, q):
        moments = real(dist, q)
        moments[j] += 1
        return moments

    monkeypatch.setattr(cons, "dual_moments", off_at_weight_j)
    code, _, err = run(capsys, ["verify", "--id", "c", "--m", "3"])
    assert code == 1
    assert err == f"nmds: FAIL c@3: {failed}\n"


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_verify_unwritable_out_exits_2(capsys, tmp_path, where):
    path = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, ["verify", "--id", "c", "--m", "3", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nmds: ") and str(path) in err


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, ["verify", "--id", "zz", "--m", "3"])
    assert code == 2
    assert "unknown construction" in err


def test_verify_bad_m_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--m", "77"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cid, m", [("c", "15"), ("d1", "16")])
def test_verify_reaches_the_top_of_the_field_range(capsys, cid, m):
    code, out, err = run(capsys, ["verify", "--id", cid, "--m", m])
    assert (code, err) == (0, "")
    (report,) = json.loads(out)
    assert report["class"] == "NMDS" and report["warnings"] == []


@pytest.mark.parametrize("argv", [
    ["--m", "9,10", "--modulus", "0x211"],  # a degree-9 modulus fits m = 9 only
    ["--m", "3,16", "--modulus", "0xB"],  # and a degree-3 one m = 3 only
])
def test_verify_rejects_every_m_before_the_first_pair(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(nmds.cli, "run_verification", lambda *args: calls.append(args))
    code, out, err = run(capsys, ["verify", "--all", *argv])
    assert code == 2
    assert calls == [] and out == ""
    assert err.startswith("nmds: ")


@pytest.mark.parametrize("name, m", [("verify-small", "3,4"), ("verify-m7", "7")])
def test_verify_prints_the_benchmark_reference(capsys, name, m):
    code, out, _ = run(capsys, ["verify", "--all", "--m", m])
    assert code == 0
    assert out == (REFERENCE_DIR / f"{name}.json").read_text()


# sha256 of report_to_json for all ids at each m up to 13 that the benchmark
# reference (m = 3, 4 and 7) does not pin.  A refactor keeps every byte.
REPORT_SHA256 = {
    2: "1be3af4209bedee3c64fd60c7c0328131e54750cc2b0aaf79c51fda23377df53",
    5: "cf571d636cf9a250749ea6ce405ac52052575c37be2e7a6402d608f57436210d",
    6: "47a817ae2a79733ba40f557b00dd3d821d1ba934c848e6e4ce71f79a8432abd3",
    8: "ccfeb92d354f45d6bed9542ad3e5600553f8eafccc16f6b0595f76850c0f049a",
    9: "3bc36146a68625e34bb45639cca7d8cca540fd73e5abae3bb120e04e62526541",
    10: "3f9225d844ddd6a723765bb91039ff82090f2ea8c3d8abba21b3289945bae297",
    11: "35ddda2a7496516206196ec5c2731debc5a10fe8e5e22bbb300fa538aae52e02",
    12: "cd81a88202fc6729d1f3b7feb19b69af9155f2e3266ac93326ed83f215e2d269",
    13: "0008fee7cb588f9e9587933d4cca88acae80a67f5b81696dbc09e090294e2fd0",
}


@pytest.mark.parametrize("m", sorted(REPORT_SHA256))
def test_verify_reports_are_pinned(m):
    text = report_to_json([run_verification(cid, m)[0] for cid in cons.CONSTRUCTION_IDS])
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[m]


# sha256 of `verify --all` in csv and in markdown at the m whose json the
# benchmark reference pins.
FORMAT_SHA256 = {
    ("csv", 3): "bff650abb64dd8a2835ffa8bb4375644b219be620a3fb6e2fa6edb9d66cc7b8c",
    ("csv", 4): "909b076fb8925e550affdb2559be47620b04fbd25c46d4e2a6a6347001603bb6",
    ("csv", 7): "d671a7599e9c7509a56bcbd902f708e33349190a26d341f003f52f3d416cc71f",
    ("markdown", 3): "6ddf69da73cb746a4ef3f4bac2f1d6d25886e10eb797ea0d96cdd51691596cea",
    ("markdown", 4): "1ff4cd7865eabe5621492a52e953f66f830799bf38dd761ea3eabf0d677fb243",
    ("markdown", 7): "1e346cdcf168901a2680efd5e7c55fd2b2d1ff6979734976d27ce4034507ac9f",
}


@pytest.mark.parametrize("fmt, m", sorted(FORMAT_SHA256))
def test_verify_csv_and_markdown_are_pinned(capsys, fmt, m):
    code, out, _ = run(capsys, ["verify", "--all", "--m", str(m), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[fmt, m]


def test_verify_bad_format_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--m", "3", "--format", "yaml"])
    assert exc.value.code == 2


def test_verify_out_file_csv(tmp_path, capsys):
    out_path = tmp_path / "reports.csv"
    code, out, _ = run(
        capsys, ["verify", "--id", "e", "--m", "3", "--format", "csv", "--out", str(out_path)]
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("key,id,m,q,n,k,d,d_dual,class")
    assert lines[1].startswith("e@3,e,3,8,9,3,6,3,NMDS")


def test_verify_out_file_markdown(tmp_path, capsys):
    out_path = tmp_path / "reports.md"
    code, _, _ = run(
        capsys,
        ["verify", "--all", "--m", "3", "--format", "markdown", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("| key |")
    assert len(lines) == 14  # header, separator, 12 rows


def test_verify_markdown_leaves_the_cells_of_a_non_nmds_pair_empty(capsys):
    code, out, _ = run(capsys, ["verify", "--id", "c", "--m", "4", "--format", "markdown"])
    assert code == 0
    assert out == (
        "| key | n | k | d | d_dual | class | pairing_ok | locality_code | locality_dual"
        " | warnings |\n"
        "|---|---|---|---|---|---|---|---|---|---|\n"
        "| c@4 | 20 | 3 | 16 | 3 | other |  |  |  | m=4 violates the constraint (m >= 3, m odd);"
        " closed forms not asserted, observed values reported |\n"
    )


# ---------------------------------------------------------------------------
# show
# ---------------------------------------------------------------------------

def test_show_matrix_roundtrip(capsys, ctx8):
    code, out, _ = run(capsys, ["show", "--id", "d", "--m", "3", "--what", "matrix"])
    assert code == 0
    head, *rows = out.splitlines()
    assert head.split() == ["3", "11", "3", "0xb"]  # rows, cols, m, modulus
    assert tuple(tuple(int(v, 16) for v in row.split()) for row in rows) == (
        tuple(zip(*cons.build("d", ctx8).columns))
    )


def test_show_enumerator(capsys):
    code, out, _ = run(capsys, ["show", "--id", "c", "--m", "3", "--what", "enumerator"])
    assert code == 0
    assert out.strip() == "1 + 70z^9 + 252z^10 + 42z^11 + 147z^12"


def test_show_locality(capsys):
    code, out, _ = run(capsys, ["show", "--id", "f3", "--m", "3", "--what", "locality"])
    assert code == 0
    assert out.strip() == "(3, 7)"


def test_show_bounds(capsys):
    for cid, expected in {
        "c": "code: [n=12, k=3, d=9] r=2 singleton_like_rhs=9 cm_rhs=3 (t=1) d-optimal, k-optimal\n"
             "dual: [n=12, k=9, d=3] r=8 singleton_like_rhs=3 cm_rhs=9 (t=1) d-optimal, k-optimal\n",
        "e2": "code: [n=9, k=3, d=6] r=3 singleton_like_rhs=7 cm_rhs=3 (t=1)"
              " almost-d-optimal, k-optimal\n"
              "dual: [n=9, k=6, d=3] r=6 singleton_like_rhs=4 cm_rhs=6 (t=1)"
              " almost-d-optimal, k-optimal\n",
    }.items():
        assert run(capsys, ["show", "--id", cid, "--m", "3", "--what", "bounds"]) == (0, expected, "")


def test_show_matrix_at_the_largest_m(capsys):
    code, out, _ = run(capsys, ["show", "--id", "c", "--m", "16", "--what", "matrix"])
    assert code == 0
    assert out.split("\n", 1)[0] == "3 65540 16 0x1100b"


def test_show_unknown_id(capsys):
    code, _, err = run(capsys, ["show", "--id", "qq", "--m", "3", "--what", "matrix"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--all", "--m", ""], "empty m list"),
    (["verify", "--all", "--m", ","], "empty m list"),
    (["show", "--id", "c", "--m", "3,5", "--what", "matrix"], "expected a single m value"),
    (["verify", "--id", "c", "--m", "3,5,3"], "argument --m: m=3 given more than once"),
])
def test_m_list_parsers_reject_the_wrong_number_of_values(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--all", "--m", "3,x"], "argument --m: bad m list '3,x'"),
    (["show", "--id", "c", "--m", "3", "--what", "matrix", "--modulus", "0xZ"],
     "argument --modulus: modulus must be a hex integer, got '0xZ'"),
])
def test_parsers_reject_text_that_is_no_number(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_c_coordinate_zero(capsys):
    code, out, _ = run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", "0"])
    assert code == 0
    assert "recovered" in out and "ok" in out
    assert "repair set" in out


def test_repair_output_is_pinned(capsys):
    # The message is drawn from random.Random(0x5EED), so the whole output is fixed.
    code, out, err = run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", "0"])
    assert (code, err) == (0, "")
    assert out == (
        "construction c over GF(8), locality r=2\n"
        "message [2, 6, 3] -> codeword [7, 2, 7, 6, 3, 6, 3, 2, 3, 6, 1, 5]\n"
        "erased c[0] = 0x7\n"
        "repair set [7, 11], linear function c[0] = 0x1*c[7] + 0x1*c[11]\n"
        "recovered 0x7: ok\n"
    )


# sha256 over the exit code and output of `repair --m 3` for every id and
# every coordinate, the seven fallback coordinates among them.
REPAIR_SHA256 = "12b079187a5089e9b048389cdb9959ee3e42e3b32503f936ff6cb2b3408c4322"


def test_repair_output_is_pinned_for_every_id_and_coordinate(capsys):
    digest = hashlib.sha256()
    for cid in cons.CONSTRUCTION_IDS:
        for i in range(cons.build(cid, GF2m(3)).n):
            code, out, err = run(capsys, ["repair", "--id", cid, "--m", "3", "--erase", str(i)])
            digest.update(f"{cid} {i} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == REPAIR_SHA256


def test_repair_e1_uncovered_coordinate_uses_three_elements(capsys):
    code, out, _ = run(capsys, ["repair", "--id", "e1", "--m", "3", "--erase", "0"])
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("repair set"))
    assert line.count("c[") == 4  # three sources plus the repaired symbol


def test_repair_every_coordinate_c(capsys):
    for i in range(12):
        code, out, _ = run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", str(i)])
        assert code == 0, i


def test_repair_erase_out_of_range(capsys):
    for erase in (12, 99, -1):  # c has n = 12 at m = 3
        assert run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", str(erase)]) == (
            2, "", f"nmds: erase index {erase} outside [0, 12)\n"
        )


NOT_NMDS = (
    "nmds: {cid} at m={m} is other, not NMDS: m={m} violates the constraint (m >= 3, m odd), "
    "and locality, bounds and repair need an NMDS code\n"
)


@pytest.mark.parametrize("argv", [
    "show --id c --m 4 --what locality",
    "show --id e1 --m 2 --what bounds",
    "repair --id c --m 4 --erase 0",
])
def test_locality_bounds_and_repair_name_a_pair_that_is_not_nmds(capsys, argv):
    args = argv.split()
    assert run(capsys, args) == (2, "", NOT_NMDS.format(cid=args[2], m=args[4]))


def test_a_pair_on_its_m_constraint_that_is_not_nmds_is_refused_by_its_class(capsys, monkeypatch):
    # e at m = 3 with the full-conic tail of
    # test_verify_names_every_check_a_full_conic_fails is MDS, and e has no
    # m-constraint to violate, so the refusal names only the class.
    conic = cons.CONSTRUCTIONS["e"]._replace(tail=((1, 0, 0), (0, 0, 1)))
    monkeypatch.setitem(cons.CONSTRUCTIONS, "e", conic)
    assert run(capsys, ["show", "--id", "e", "--m", "3", "--what", "locality"]) == (
        2, "", "nmds: e at m=3 is MDS, not NMDS, and locality, bounds and repair need an NMDS code\n"
    )


def test_show_reads_what_it_can_off_the_m_constraint(capsys):
    # f3 is NMDS at every m, and a distribution needs no class.
    locality = ["show", "--id", "f3", "--m", "4", "--what", "locality"]
    assert run(capsys, locality) == (0, "(3, 15)\n", "")
    assert run(capsys, ["show", "--id", "c", "--m", "4", "--what", "enumerator"]) == (
        0, "1 + 15z^16 + 240z^17 + 2040z^18 + 240z^19 + 1560z^20\n", ""
    )


def test_repair_refuses_a_repair_set_larger_than_the_locality(capsys, monkeypatch):
    monkeypatch.setattr(nmds.cli, "repair_map", lambda code: {0: ((1, 2, 3), (1, 1, 1))})
    assert run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", "0"]) == (
        1, "", "nmds: no repair set of size 2 covers coordinate 0\n"
    )


def test_repair_reports_a_mismatch_with_exit_1(capsys, monkeypatch):
    real = nmds.cli.repair_value
    monkeypatch.setattr(nmds.cli, "repair_value", lambda *args: real(*args) ^ 1)
    code, out, err = run(capsys, ["repair", "--id", "c", "--m", "3", "--erase", "0"])
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        "erased c[0] = 0x7",
        "repair set [7, 11], linear function c[0] = 0x1*c[7] + 0x1*c[11]",
        "recovered 0x6: MISMATCH",
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "zz", "--m", "3"],
    ["show", "--id", "zz", "--m", "3", "--what", "matrix"],
    ["repair", "--id", "zz", "--m", "3", "--erase", "0"],
], ids=lambda argv: argv[0])
def test_unknown_id_is_one_unquoted_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (
        "nmds: unknown construction id 'zz'; "
        "known: c, c1, d, d1, d2, e, e1, e2, e1bar, f1, f2, f3\n"
    )


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "c", "--m", "3"],
    ["show", "--id", "c", "--m", "3", "--what", "matrix"],
    ["repair", "--id", "c", "--m", "3", "--erase", "0"],
], ids=lambda argv: argv[0])
def test_negative_modulus_is_one_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, [*argv, "--modulus=-0xB"])
    assert code == 2
    assert out == ""
    assert err == "nmds: modulus -0xb is negative; give its coefficient bits\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "c", "--m", "3"],
    ["show", "--id", "c", "--m", "3", "--what", "matrix"],
    ["repair", "--id", "c", "--m", "3", "--erase", "0"],
], ids=lambda argv: argv[0])
def test_zero_modulus_is_one_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, [*argv, "--modulus", "0x0"])
    assert code == 2
    assert out == ""
    assert err == "nmds: modulus 0 is the zero polynomial, expected degree 3\n"


# ---------------------------------------------------------------------------
# library-level pipeline
# ---------------------------------------------------------------------------

def test_run_verification_clean():
    report, failures = run_verification("e1bar", 3)
    assert failures == []
    assert report["key"] == "e1bar@3"
    assert report["locality"] == {
        "code": 2, "dual": 6,
        "mechanism_code": "union-covers", "mechanism_dual": "intersection-empty",
    }


def test_run_verification_full_matrix_m3_m5():
    for m in (3, 5):
        for cid in cons.CONSTRUCTION_IDS:
            report, failures = run_verification(cid, m)
            assert failures == [], (cid, m, failures)


def test_cli_exit_zero_on_full_matrix(capsys):
    code, out, err = run(capsys, ["verify", "--all", "--m", "3,5"])
    assert code == 0
    assert len(json.loads(out)) == 24
