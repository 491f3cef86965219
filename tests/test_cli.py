"""Command-line surface: JSON output, exit codes, determinism."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from graphlhv import chain_protocol, cli, lhv, nogo
from graphlhv.cli import main
from graphlhv.graphs import Graph, grid, star
from graphlhv.pauli import Measurement
from reference import gf2_nullspace


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_command(capsys):
    code, out, err = _run(capsys, "oracle", "--graph", "chain:2", "--measurement", "YY")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"kind": "deterministic", "value": 1}
    assert payload["command"] == "oracle"
    assert "deterministic(+1)" in err


def test_oracle_uniform(capsys):
    code, out, _ = _run(capsys, "oracle", "--graph", "ring:4", "--measurement", "ZIII")
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "uniform", "value": None}


def test_graph_file_ingestion(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[1, 2]]}')
    code, out, _ = _run(capsys, "oracle", "--graph", str(path), "--measurement", "YY")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["graph"]["kind"] == "file"
    assert payload["result"]["value"] == 1

    # the digest is the sha256 of the bytes parsed, spaces and CRLF line ends included
    raw = b'{ "n" : 2,\r\n  "edges" : [ [1,2] ]\r\n}\r\n'
    path.write_bytes(raw)
    code, out, _ = _run(capsys, "oracle", "--graph", str(path), "--measurement", "YY")
    assert code == 0
    assert json.loads(out)["inputs"]["graph"]["sha256"] == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_graph_file_errors_count_every_line_end(tmp_path, capsys, end):
    # the file is parsed with universal newlines, so a lone \r ends a line too
    path = tmp_path / "g.json"
    path.write_bytes(f'{{"n": 2,{end}"edges": [[1, 2]{end}}}'.encode())
    code, out, err = _run(capsys, "oracle", "--graph", str(path), "--measurement", "YY")
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON at line 3, column 1: Expecting ',' delimiter\n"


def test_bad_graph_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[1, 2], [2, 1]]}')
    code, _, err = _run(capsys, "oracle", "--graph", str(path), "--measurement", "YY")
    assert code == 2
    assert "duplicate" in err


def test_bad_measurement_is_usage_error(capsys):
    code, _, err = _run(capsys, "oracle", "--graph", "chain:2", "--measurement", "YQ")
    assert code == 2
    code, _, err = _run(capsys, "oracle", "--graph", "chain:2", "--measurement", "YYY")
    assert code == 2
    assert "letters" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = _run(capsys, "oracle", "--graph", "moebius:4", "--measurement", "XXXX")
    assert code == 2


def test_lhv_run_exact(capsys):
    code, out, _ = _run(
        capsys, "lhv", "run", "--graph", "grid:2x3", "--measurement", "YYYYYY",
        "--subset", "1,2,3,5",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == {"kind": "deterministic", "value": 1}
    assert result["mode"] == "exact"
    assert result["flipped"] == [2, 5]
    assert result["monomial"] == []


def test_lhv_run_sampling(capsys):
    code, out, _ = _run(
        capsys, "lhv", "run", "--graph", "ring:4", "--measurement", "ZIII",
        "--samples", "50", "--seed", "5",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "sampling"
    assert result["seed"] == 5
    assert sum(result["counts"]) == 50


def test_verify_sub_grid_2x3(capsys):
    code, out, _ = _run(
        capsys, "verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY",
    )
    assert code == 0  # no expectation supplied
    result = json.loads(out)["result"]
    assert [1, 2, 3, 5] in [c["sites"] for c in result["mismatches"]]

    code, _, _ = _run(
        capsys, "verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY",
        "--expect", "mismatch",
    )
    assert code == 0
    code, _, _ = _run(
        capsys, "verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY",
        "--expect", "clean",
    )
    assert code == 1


def test_verify_sub_star_clean(capsys):
    code, out, _ = _run(
        capsys, "verify-sub", "--graph", "star:5", "--measurement", "XYZXY",
        "--expect", "clean",
    )
    assert code == 0
    assert json.loads(out)["result"]["mismatches"] == []


@pytest.mark.parametrize(
    "graph, letters, rules, expect_mismatch",
    [
        ("chain:5", "XXXXX", "standard", True),
        ("chain:5", "XXXXX", "symmetric", True),
        ("chain:4", "XXYY", "standard", False),
        ("chain:4", "XXYY", "symmetric", True),
    ],
    ids=["chain5-standard", "chain5-symmetric", "chain4-standard", "chain4-symmetric"],
)
def test_verify_sub_smallest_failing_chains(capsys, graph, letters, rules, expect_mismatch):
    argv = ["verify-sub", "--graph", graph, "--measurement", letters, "--rules", rules]
    right, wrong = ("mismatch", "clean") if expect_mismatch else ("clean", "mismatch")
    code, out, _ = _run(capsys, *argv, "--expect", right)
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = _run(capsys, *argv, "--expect", wrong)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_nogo_ring(capsys):
    code, out, _ = _run(capsys, "nogo", "ring", "--f", "1", "--d", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["consistent"] is False
    assert result["certificate"] == [0, 1, 2, 3, 4]
    assert len(result["equations"]) == 5

    code, _, err = _run(capsys, "nogo", "ring", "--f", "2", "--d", "1")
    assert code == 2


def test_nogo_ring_distance_beyond_the_graph_is_cheap(capsys):
    # the balls stop growing after at most n - 1 rounds, whatever d is
    code, out, _ = _run(capsys, "nogo", "ring", "--f", "1", "--d", "99999999999")
    assert code == 0
    assert json.loads(out)["result"]["consistent"] is True


def test_nogo_site_invariance(capsys):
    code, out, _ = _run(
        capsys, "nogo", "site-invariance", "--graph", "grid:2x3",
        "--measurement", "YYYYYY", "--expect", "inconsistent",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["consistent"] is False
    assert [[1, 3, 4, 6], [2, 5]] == result["orbits"]


def test_site_invariance_refuses_a_kernel_past_the_walk_guard(monkeypatch, capsys):
    # the walk's guard is the one limit: star:23 all-X has kernel dimension 21
    def build(*args, **kwargs):
        raise AssertionError("orbit-flip system built for a listing the guard refuses")

    monkeypatch.setattr(nogo, "site_invariance_system", build)
    code, out, err = _run(
        capsys, "nogo", "site-invariance", "--graph", "star:23", "--measurement", "X" * 23,
    )
    assert code == 2 and out == ""
    assert err == ("error: 2097152 certain subsets (kernel dimension 21) exceed "
                   "the guard of 2^20\n")


def test_site_invariance_lists_every_certain_subset_past_twelve_nodes(capsys):
    n = 16
    g = star(n)
    # an X site's monomial is the XOR of its neighbours' coins, so coin r's row
    # of the map marks the sites adjacent to node r
    rows = [sum(1 << (j - 1) for j in g.neighbors[r - 1]) for r in range(1, n + 1)]
    kernel = gf2_nullspace(rows, n)
    code, out, err = _run(capsys, "nogo", "site-invariance", "--graph", f"star:{n}",
                          "--measurement", "X" * n, "--expect", "consistent")
    assert code == 0
    assert err == "orbit flip system is consistent (2 orbits)\n"
    subs = [tuple(sub["sites"]) for sub in json.loads(out)["result"]["certain_submeasurements"]]
    assert len(kernel) == n - 2
    assert len(subs) == 2 ** len(kernel)
    assert all(list(sites) == sorted(set(sites)) for sites in subs)
    assert len(set(subs)) == len(subs)


def test_site_invariance_runs_at_the_node_limit(capsys):
    code, out, err = _run(capsys, "nogo", "site-invariance", "--graph", "grid:3x4",
                          "--measurement", "Y" * 12, "--expect", "consistent")
    assert code == 0
    assert json.loads(out)["result"]["orbits"] == [[1, 4, 9, 12], [2, 3, 10, 11], [5, 8], [6, 7]]
    assert err == "orbit flip system is consistent (4 orbits)\n"


def test_max_nodes_flag_is_gone(capsys):
    code, out, err = _run(capsys, "nogo", "site-invariance", "--graph", "star:18",
                          "--measurement", "X" * 18, "--max-nodes", "20")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-nodes 20" in err
    assert "Traceback" not in err


def test_verify_sub_decides_a_clean_word_beyond_the_walk_guard(capsys):
    # the 199 leaves share one monomial: kernel dimension 198, decided from
    # 198 basis words without walking the kernel
    code, out, err = _run(capsys, "verify-sub", "--graph", "star:200", "--measurement",
                          "X" * 200, "--expect", "clean")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["deterministic_subsets"] == 2 ** 198
    assert result["subsets_checked"] == 2 ** 200
    assert result["mismatches"] == []
    assert err.endswith(", 0 mismatches\n")


def test_verify_sub_refuses_to_list_mismatches_beyond_the_walk_guard(tmp_path, capsys):
    # star:21 all-X beside grid:2x3 all-Y: kernel dimension 19 + 2, with mismatches
    edges = star(21).edges + tuple((u + 21, v + 21) for u, v in grid(2, 3).edges)
    path = tmp_path / "g.json"
    path.write_text(Graph(27, edges).to_json())
    code, out, err = _run(capsys, "verify-sub", "--graph", str(path), "--measurement",
                          "X" * 21 + "Y" * 6)
    assert code == 2 and out == ""
    assert err == ("error: 2097152 certain subsets (kernel dimension 21) exceed "
                   "the guard of 2^20\n")


def test_verify_sub_refuses_a_subset_count_past_the_digit_limit(capsys):
    # 2^14285 has 4,301 digits, one more than the interpreter writes by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = _run(capsys, "verify-sub", "--graph", "chain:14285",
                              "--measurement", "Z" * 14285)
        assert code == 2 and out == ""
        assert err == ("error: the report's subset count 2^14285 has more than 4300 digits, "
                       "the interpreter's limit for integer string conversion\n")
        code, out, err = _run(capsys, "verify-sub", "--graph", "chain:15000",
                              "--measurement", "Z" * 15000)
        assert code == 2 and out == ""
        assert err.startswith("error: the report's subset count 2^15000 has more than 4300 ")
        code, out, err = _run(capsys, "verify-sub", "--graph", "chain:14284",
                              "--measurement", "Z" * 14284)
        assert code == 0
        assert json.loads(out)["result"]["subsets_checked"] == 2 ** 14284
        assert err == f"{2 ** 14284} subsets checked, 1 deterministic, 0 mismatches\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_include_matches_flag_is_gone(capsys):
    code, out, err = _run(capsys, "verify-sub", "--graph", "grid:2x3", "--measurement",
                          "YYYYYY", "--include-matches")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --include-matches" in err
    assert "Traceback" not in err


# sha256 of the stdout of `nogo site-invariance`, recorded while orbits still came
# from enumerating the whole automorphism group; orbits are a group invariant,
# so the reports must not change. Version-bound like the digests below.
@pytest.mark.parametrize(
    "graph, letters, digest",
    [
        ("star:9", "X" * 9, "c70f87d304b406512bd8d3de3cb30ee0e32e6552d728749034051afb19313cb2"),
        ("complete-bipartite:3x5", "X" * 8,
         "dbb567d92a59a744bdd7ece8a41b4cba57f768983f3398707faf3c44358cfe89"),
        ("grid:3x4", "Y" * 12, "39489e174197d1f737383582d4a8f1b3126e47ec328d29a6873809885df161fa"),
        # the first inconsistent word of the census, and an I orbit with no variable
        ("ring:6", "XYYXYY", "05ce54ca732bcb521a0e7929e67019ac676ecae054743413bb812c141573bbbf"),
        ("ring:4", "XIXI", "6224664222f2860e6fb102afeafc659c57d9c19ef16c962348dc57ced38aa0a5"),
    ],
    ids=["star9-allX", "K35-allX", "grid3x4-allY", "ring6-XYYXYY", "ring4-XIXI"],
)
def test_site_invariance_report_is_pinned(capsys, graph, letters, digest):
    code, out, _ = _run(capsys, "nogo", "site-invariance", "--graph", graph,
                        "--measurement", letters)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the canned reports whose mismatch lists carry
# classify signs, recorded while those signs still came from a phase-tracked
# generator product; the closed form must not change them. Version-bound like
# the digests around them.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["reproduce", "fig1"], "54d37438647fccc181dd198e0e81295b3897798d39b87cb930c180bf6f8d1c6b"),
        (["reproduce", "fig2"], "972d123e1066003f59f2d95e73930655bbd7087269d61b80eddf1e20dca824d1"),
        (["verify-sub", "--graph", "grid:4x4", "--measurement", "Y" * 16],
         "a52977f33dc99a14c7aaef84013fdb9dfd178820fb0d98049446a592ecc22368"),
    ],
    ids=["fig1", "fig2", "grid4x4-allY"],
)
def test_signed_report_is_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# 16 certain subsets on 8 nodes, 8 of them mismatched without communication
# (`_EIGHT_MISMATCHES` in test_kernel_sweep.py), read from a JSON file.
_EIGHT_MISMATCHES_JSON = ('{"edges": [[2, 3], [2, 6], [2, 7], [3, 5], [3, 6], [4, 7], [4, 8], '
                          '[5, 6], [5, 7], [5, 8], [7, 8]], "n": 8}')


# sha256 of the stdout of `verify-sub` and `nogo site-invariance`, recorded while
# every certain subset's sign still came from its own `classify` call; signs
# derived from the kernel basis must not change a byte. `nogo site-invariance`
# on star:9 and `reproduce fig2` are pinned above. Version-bound like the
# digests around them.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY"],
         "5477a0b23824cb6a1c54e8c3f90b75ad1c918d15f586872728af4f15ca033045"),
        (["verify-sub", "--graph", "star:11", "--measurement", "X" * 11],
         "eeb77a5694f1473d188d020c2eca45b399e3c6c4810db845d4f31b1e822fd622"),
        (["verify-sub", "--graph", "star:11", "--measurement", "X" * 11, "--rules", "none"],
         "30b7c127e2cb36de721ff9d6d1e8b5f6e0da024f24428488186f0361fe5e49d2"),
        (["verify-sub", "--graph", "ring:9", "--measurement", "XYZYXYZYX",
          "--rules", "symmetric"],
         "067f5acfbc90172a7455be0917f5f1b9107e6b623c1dbab87fb66cd510ebcbe7"),
        (["verify-sub", "--graph", "eight.json", "--measurement", "XYYZXYYX", "--rules", "none"],
         "877502c72fc81799582e213a791fc81326a3d4093be2c631f8870f8c46e22873"),
        (["nogo", "site-invariance", "--graph", "grid:2x3", "--measurement", "YYYYYY"],
         "dd15c10ed1280713077e153db913eac688aa73f5850ceaf84f31abe7d3df5ff1"),
    ],
    ids=["grid2x3-allY", "star11-allX", "star11-allX-none", "ring9-mixed-symmetric",
         "eight-mismatches-none", "site-invariance-grid2x3"],
)
def test_kernel_sweep_report_is_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)  # the report names the graph file by the path given
    (tmp_path / "eight.json").write_text(_EIGHT_MISMATCHES_JSON)
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `nogo ring`, recorded while every (case, site) view was
# built in full and variables were ordered by sorting their reprs; the
# difference-site keys must not change a byte. The three distances above the
# bound were re-recorded when their `ok` became null, the only field that
# changed. The last three (a 2 MB report, one-node views, every ball the whole
# ring) were recorded while the report was encoded pair by pair; splicing
# pre-encoded view text must not change a byte either. `reproduce fig1` is
# pinned above. Version-bound like the digests around them.
@pytest.mark.parametrize(
    "args, digest",
    [
        (("--f", "1"), "56e5d40a6931e850cd7f0dbe0a511163dfac7e74c689cdd2f248dead1a585b53"),
        (("--f", "3"), "c2c9a2f218762920f411d8c3ade92cee194b3320adbcac36fb965f1f2a2fdf65"),
        (("--f", "5"), "3be1d64724e8203d618043c717601de31cc97a1783c09c373749b7873e433f09"),
        (("--f", "7"), "71984216b208d9fec96058cae0baaabf25d001dc47f9c4a58a407108a78db8cb"),
        (("--f", "9"), "057cd19b8afe0f82f28cfa4e267549f8fca326a4671ec8cd2bc7221430117f4a"),
        (("--f", "13"), "dc50b2e93e966a2cc5a502707b95678ada3e85950c43fe16f5a4abf633439f58"),
        (("--f", "17"), "10cae136dc49ba08f71d72eb614b8e47d8c5d528a95b6aebab16beb4fbdbc599"),
        (("--f", "25"), "54ed95bdfe7fd3863e43b7737f86895583a76053371f29b3be52a03dd5aa6eea"),
        (("--f", "1", "--d", "0"), "f7cb3d238214163f391e472f1339daa2b33de62661d9823d97fdb91e510692d8"),
        (("--f", "1", "--d", "2"), "20c60b29e30400af0075a3e05d59758ff85b493a14c4b6c8e5a8ef41c7f8294d"),
        (("--f", "1", "--d", "6"), "717a93e8a3c1eb12f77d2d2ee113d1500bdee1fe2278b3fd8d5ebfb8a2bb782e"),
        (("--f", "3", "--d", "9"), "abccf4d0bcc9ab85235e393d536f2ae0fcae74a0e88fb62cd5bd57c6f39b3ec7"),
        (("--f", "49"), "f46c5972ce0522e3f4c8e641f4175c31c070aa0c2fa66ca5422f179562b13706"),
        (("--f", "25", "--d", "0"), "dff576a9598e8d77b801d461161bc7f4833de93b0eb7aa3c8310d4603e8de28c"),
        (("--f", "5", "--d", "99999999999"), "680b82eb624c259dd313387df35dfc57267d0652e66a5efa452700c625756cce"),
    ],
    ids=["f1", "f3", "f5", "f7", "f9", "f13", "f17", "f25", "f1-d0", "f1-d2", "f1-d6", "f3-d9",
         "f49", "f25-d0", "f5-saturated"],
)
def test_ring_report_is_pinned(capsys, args, digest):
    code, out, _ = _run(capsys, "nogo", "ring", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _emitted(result, texts=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli._emit("probe", {}, result, None, "", texts)
    return out.getvalue()


def test_spliced_system_text_matches_the_encoder():
    # The view texts replace the encoder's walk over every (node, letter)
    # pair, so the text written for a system must be the encoder's own, on
    # padded rings too (isolated I extras) and from one-node views to
    # saturated balls.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def draws(draw):
        n = draw(st.integers(12, 200))
        bound = nogo.distance_bound(n)
        return n, draw(st.sampled_from((0, 1, bound, bound + 3, n)))

    @settings(max_examples=60, deadline=None)
    @given(draws())
    def check(draw):
        cert = nogo.certify_distance(*draw)
        want = json.dumps(cert.system.to_json_dict(), sort_keys=True, check_circular=False)
        spliced = _emitted({"system": cert.system}, cli._system_texts(cert))
        assert f'"result": {{"system": {want}}}, ' in spliced
        assert spliced == _emitted({"system": cert.system})
        # the command's own result, with the variables' texts spliced in
        assert _emitted(cert, cli._system_texts(cert)) == _emitted(cert)

    check()


def test_texts_are_spliced_at_any_depth_and_only_where_given():
    result = {"b": {"y": [1, 2], "x": "kept"}, "a": Measurement("XY"), "c": None}
    plain = _emitted(result)
    assert _emitted(result, {"b": {"y": ["[1, ", "2]"]}}) == plain
    assert _emitted(result, {"b": ["TE", "XT"], "z": ["unused"]}) == plain.replace(
        '{"x": "kept", "y": [1, 2]}', "TEXT")


def test_ring_above_the_bound_checks_nothing(capsys):
    # at f = 1 the bound is 1: d = 2 admits a model, as expected, so the
    # report claims no check (ok null, exit 0); d = 1 is certified
    code, out, _ = _run(capsys, "nogo", "ring", "--f", "1", "--d", "2")
    report = json.loads(out)
    assert (code, report["ok"], report["result"]["consistent"]) == (0, None, True)
    code, out, _ = _run(capsys, "nogo", "ring", "--f", "1", "--d", "1")
    report = json.loads(out)
    assert (code, report["ok"], report["result"]["consistent"]) == (0, True, False)


def test_rendered_constraints_prime_repeated_names():
    # two views of site 1 share the short name x1: the second declared is
    # primed, and each equation lists its terms by site, then observable
    from graphlhv.nogo import ContextVariable, Equation, OrbitVariable, ParityConstraintSystem

    x1, x1b, x1c = (ContextVariable(1, "x", ((1, "X"), (2, letter))) for letter in "XYZ")
    y2 = ContextVariable(2, "y", ((2, "Y"),))
    system = ParityConstraintSystem(
        (y2, x1, x1b, x1c),
        (Equation(0b1111, -1, "all"), Equation(0b1001, 1, "ends"), Equation(0, -1, "none")),
    )
    assert cli._render_system(system) == [
        "[all] x1 * x1' * x1'' * y2 = -1", "[ends] x1'' * y2 = +1", "[none] 1 = -1",
    ]
    orbits = ParityConstraintSystem(
        (OrbitVariable((2, 5), "y"), OrbitVariable((1, 3), "y")), (Equation(0b11, 1, "o"),)
    )
    assert cli._render_system(orbits) == ["[o] y{1,3} * y{2,5} = +1"]


# sha256 of the stdout of sampled `chain verify --seed 1`, recorded while each
# sampled measurement was its own numpy draw; drawing the whole sample at once
# must not change a byte. Version-bound like the digests around them.
@pytest.mark.parametrize(
    "n, sample, reading, digest",
    [
        (8, 40, (), "fb07c66c86a6da2fa17f33e308deb03f8a37cdd29c9d3db6005f2cf8ff57078e"),
        (8, 40, ("--broadcast-y",),
         "ef516423bc8b41d50f99817474b20d6d108e53a5d3d445772a91326ec31c9907"),
        (9, 40, (), "92cdaca58e32dd3ff495d727864ab02d30a35653316da3d95259318dde7a8955"),
        (9, 40, ("--broadcast-y",),
         "a3aa4bdd5995690a2c487025e98f3b90d5e085785f3be607cbbc1d4f4d25b3b2"),
        (10, 40, (), "9d55ce007edcf746de86a6cc50322aeb90d3149b5a0f5fa353e1ee152510ee4c"),
        (10, 40, ("--broadcast-y",),
         "c2a33e8a81d2cceb5aa774aff36681a087856136922ea35ea901af1181e295b8"),
        (40, 200, (), "b9e0241bab91c9c2da151748aeaa6da373bffdaf81e92249a17fd78287ad5dd1"),
        (40, 200, ("--broadcast-y",),
         "3fe92865ff600d8edae8ed4f7e98210caaefcf1760230815781aac2d37f93639"),
    ],
    ids=["n8", "n8-by", "n9", "n9-by", "n10", "n10-by", "n40", "n40-by"],
)
def test_sampled_chain_report_is_pinned(capsys, n, sample, reading, digest):
    code, out, _ = _run(capsys, "chain", "verify", "--n", str(n), "--sample", str(sample),
                        "--seed", "1", *reading)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `chain decompose` and exhaustive `chain verify --n 5`,
# recorded while decompose rebuilt its input letter by letter and the overlap
# pass compared sentences site by site; the tiling check on Z sites and the
# site-mask overlap test must not change a byte, error messages included.
# Version-bound like the digests around them.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["decompose", "--measurement", "YXYIYYZZXZ"],
         "63e16a60352b4c939a7997b2b01166c9db3426f43327a98e8f0aacaadd1b1505"),
        (["decompose", "--measurement", "Y"],
         "698c4a99bebbf6ff5f4dfb5e296fb415436fa1bbbee1f5620cdd8e96d0573665"),
        (["decompose", "--measurement", "ZZ"],
         "cd4743b2f6c0e09f0ee532b1800cbda984500ee777fc9febd44894f79a465839"),
        (["decompose", "--measurement", "XZX"],
         "cdcf47f48b2e80e839cf58c1e89d256b24c6ed96943b5ae64e06c7897f12d765"),
        (["decompose", "--measurement", "IXI"],
         "43fc861a25e4d676c6cb36f9fa29d6076fd4a9e9a9d1ad82dde4519accf2e7eb"),
        (["verify", "--n", "5"], "f191ec1dab2cda0cf11d3cb51cfdd4735ab6d01e30ad9b0a39d8fdcb94eea477"),
        (["verify", "--n", "5", "--broadcast-y"],
         "08df1bab96c2fb8d3d7293da5e020eecba4f02203657a6be5cd53177f732c1a1"),
        # recorded while the checker keyed certain words by a one-byte-per-site code
        (["verify", "--n", "6"], "6f2ea020b09808be1a862b113e622da7ddcb65c68c9cc92046c1f3db305ec8f5"),
        (["verify", "--n", "6", "--broadcast-y"],
         "0dee1a9a20584fbf16178c427f59a020e15e1c4ad0208b8161d8f9bcec19dcf0"),
        (["verify", "--n", "7"], "8a50a6fad809799599bd930aa10d51cb6c592fd843dbb6b87d4f4c01a5b5f8ad"),
        (["verify", "--n", "7", "--broadcast-y"],
         "205c7dcd31156c169355caa6c6847f8a4f2548c6599e654dd46daa5fd78a8549"),
    ],
    ids=["sentences", "not-a-word", "bracketless-z", "z-inside-sentence", "missing-bracket",
         "verify-n5", "verify-n5-by", "verify-n6", "verify-n6-by", "verify-n7", "verify-n7-by"],
)
def test_chain_report_is_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, "chain", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `lhv run --graph ring:24 --measurement IXIX... --samples 256
# --seed 7`, recorded before sampling mode was batched; the README example has a
# certain product, so a uniform subset pins the coin stream itself. The report
# carries the package version, so a version bump needs new digests.
@pytest.mark.parametrize(
    "subset, counts, digest",
    [
        (None, [256, 0], "d25e0e7c9c53da9c9dfee898da647ba44df9b6ff526fd30978066df117e49499"),
        ("2", [136, 120], "f23e55707ffe65daf95b3fd12a0fb1798cdb6d57bc735702b5adbbff971452f3"),
    ],
    ids=["readme-example", "uniform-subset"],
)
def test_sampling_stream_is_pinned(capsys, subset, counts, digest):
    argv = ["lhv", "run", "--graph", "ring:24", "--measurement", "IX" * 12,
            "--samples", "256", "--seed", "7"]
    if subset is not None:
        argv += ["--subset", subset]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["result"]["counts"] == counts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (exit code, sha256 of stdout, stderr) of the commands whose report assembly was
# folded into one `_emit` call, recorded before the fold: the `--expect` outcome
# of `verify-sub` and `nogo site-invariance` both ways, `oracle` both verdicts,
# and an exact `lhv run` on a subset. `chain decompose` of the identity word,
# which no other test ran, was added later, recorded on the code before the
# certain words became generator products. Version-bound like the digests above.
@pytest.mark.parametrize(
    "argv, code, digest, err",
    [
        (["oracle", "--graph", "ring:12", "--measurement", "IXIXIXIXIXIX"], 0,
         "344790f36e636e874d63f515d4c4151dd4b5b88fbc4c00b3dfc1930a65c759c7",
         "IXIXIXIXIXIX: deterministic(+1)\n"),
        (["oracle", "--graph", "ring:4", "--measurement", "XIII"], 0,
         "1537e92a14f026d074c4854fc561d3458482cdcc1ae41c5b5d64aeca880dc4cc",
         "XIII: uniform\n"),
        (["lhv", "run", "--graph", "grid:2x3", "--measurement", "YYYYYY",
          "--subset", "1,2,3,5"], 0,
         "a814af4e672f2e534415ce524738b9b0f78b2104b685d55ca43fd99bc2c7bbbd",
         "product over [1, 2, 3, 5]: deterministic(+1) [exact]\n"),
        (["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY",
          "--expect", "clean"], 1,
         "77f140e60cc064927f71e1d6aeff4a1306fc43a49905d00be0f4191aa58ad584",
         "64 subsets checked, 4 deterministic, 2 mismatches\n"),
        (["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY",
          "--expect", "mismatch"], 0,
         "aad0307c76d28afb7a483feafc094e7c40094c4031a485a2b0b470ab9dbfe4e0",
         "64 subsets checked, 4 deterministic, 2 mismatches\n"),
        (["nogo", "site-invariance", "--graph", "grid:2x3", "--measurement", "YYYYYY",
          "--expect", "consistent"], 1,
         "2a893273db295ca182fac211c5d0fde2547f260fbeacd44a3bc48c2ea20f75b6",
         "orbit flip system is inconsistent (2 orbits)\n"),
        (["nogo", "site-invariance", "--graph", "grid:2x3", "--measurement", "YYYYYY",
          "--expect", "inconsistent"], 0,
         "9d89cfd082c4d5137f776dffb1b000ed41c8b49c67f28e9ee414d1e9c53c1e6a",
         "orbit flip system is inconsistent (2 orbits)\n"),
        (["chain", "decompose", "--measurement", "IIII"], 0,
         "6b283025786a33b5cc2176887e9ad7e5a682219e0ad7f525463a86167a0e6aa5",
         "sign +1: (identity)\n"),
    ],
    ids=["oracle-certain", "oracle-uniform", "lhv-run-subset", "verify-sub-expect-clean",
         "verify-sub-expect-mismatch", "site-expect-consistent", "site-expect-inconsistent",
         "decompose-identity"],
)
def test_emitted_report_is_pinned(capsys, argv, code, digest, err):
    got_code, out, got_err = _run(capsys, *argv)
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _flip_every_x(m, broadcast_y=False):
    return frozenset(j for j, ch in enumerate(m.letters, start=1) if ch == "X")


_parse = chain_protocol._parse


def _reject_first_generator(word):
    if word == "XZII":
        return chain_protocol.NotStabilizerShaped("rejected for the test")
    return _parse(word)


def _one_overlap(m, spans):
    return 1, [chain_protocol.OverlapViolation(m, (1, 3), (2, 4), 2)]


# (exit code, sha256 of stdout, stderr) of `chain verify --n 4` with a broken
# protocol, grammar or overlap pass, so that the report lists violations of
# each kind; recorded while each violation class wrote its own JSON dict.
# Version-bound like the digests above.
@pytest.mark.parametrize(
    "attr, fake, code, digest, err",
    [
        ("flip_sites_for", _flip_every_x, 1,
         "dbf8ddb3baa6e0e674eaaa8bd83bacb68a66942e88649173f0d5a52f8d1761be",
         "n=4 (exhaustive): 325 deterministic subs, 48 violations, 0 overlap violations\n"),
        ("_parse", _reject_first_generator, 1,
         "5cce7d3d3f6120cdcaf68682a7f1243fc44f66dd5ae0b87bf3df5dd717ca77dc",
         "n=4 (exhaustive): 325 deterministic subs, 16 violations, 0 overlap violations\n"),
        ("_overlap_violations", _one_overlap, 1,
         "c60f7c399f606110d8e393a2e9d2940bc1bd5cf343eddf1e100ba14b28e0850d",
         "n=4 (exhaustive): 325 deterministic subs, 0 violations, 59 overlap violations\n"),
    ],
    ids=["wrong-sign", "grammar-rejected", "overlap"],
)
def test_chain_violation_report_is_pinned(monkeypatch, capsys, attr, fake, code, digest, err):
    monkeypatch.setattr(chain_protocol, attr, fake)
    got_code, out, got_err = _run(capsys, "chain", "verify", "--n", "4")
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_internal_error_exits_3_on_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("oracle and state vector disagree\non ring:4")

    monkeypatch.setattr(cli, "_cmd_oracle", broken)
    code, out, err = _run(capsys, "oracle", "--graph", "ring:4", "--measurement", "ZIII")
    assert code == 3 and out == ""
    assert err == "error: internal RuntimeError: oracle and state vector disagree on ring:4\n"


def test_a_parser_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(chain_protocol, "_SHAPED", re.compile("(?!)"))  # rejects every word
    code, out, err = _run(capsys, "chain", "verify", "--n", "3")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal RuntimeError: IZX decomposes but the sentence pattern rejects it\n"
    )


def test_nogo_ring_reports_a_broken_case_as_internal(capsys, monkeypatch):
    # a negative --d is the one usage error; a ValueError from the certifier is a fault
    assert _run(capsys, "nogo", "ring", "--f", "1", "--d", "-1") == (
        2, "", "error: distance must be non-negative, got -1\n"
    )
    ring_cases = nogo._ring_cases

    def short_sub(g, f):
        first, *rest = ring_cases(g, f)
        return (dataclasses.replace(first, sub=Measurement(first.sub.letters[:-1])), *rest)

    monkeypatch.setattr(nogo, "_ring_cases", short_sub)
    code, out, err = _run(capsys, "nogo", "ring", "--f", "1")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal ValueError: case xxx: global and sub must have n=12 letters, "
        "got 12 and 11\n"
    )


def test_a_result_with_no_json_form_is_internal(capsys, monkeypatch):
    def opaque(args):
        return cli._emit("oracle", {}, object(), None, "unreachable")

    monkeypatch.setattr(cli, "_cmd_oracle", opaque)
    code, out, err = _run(capsys, "oracle", "--graph", "ring:4", "--measurement", "ZIII")
    assert (code, out) == (3, "")
    assert err == "error: internal TypeError: object has no JSON form\n"


def test_chain_verify(capsys):
    code, out, _ = _run(capsys, "chain", "verify", "--n", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["violations"] == [] and result["overlap_violations"] == []
    code, _, _ = _run(capsys, "chain", "verify", "--n", "3", "--broadcast-y")
    assert code == 0


def test_chain_verify_names_the_sample_option_past_the_guard(capsys):
    code, out, err = _run(capsys, "chain", "verify", "--n", "8")
    assert (code, out) == (2, "")
    assert err == "error: full sweep is guarded at n = 7; pass --sample K (sample=K) for larger n\n"


def test_chain_verify_reports_an_unconfirmed_basis_word_as_internal(capsys, monkeypatch):
    # Z carrying no coin puts IIZ in a kernel the oracle does not confirm
    monkeypatch.setitem(lhv.LETTER_COINS, "Z", (0, 0))
    code, out, err = _run(capsys, "chain", "verify", "--n", "3")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal RuntimeError: IIZ has an empty monomial but the oracle finds it uniform\n"
    )


def test_chain_decompose(capsys):
    code, out, _ = _run(capsys, "chain", "decompose", "--measurement", "YXYIYYZZXZ")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sign"] == -1
    assert [w["letters"] for s in result["sentences"] for w in s["words"]] == ["YXY", "YY", "X"]

    code, out, _ = _run(capsys, "chain", "decompose", "--measurement", "XZX")
    assert code == 0
    assert json.loads(out)["result"]["stabilizer_shaped"] is False


def test_reproduce_commands(capsys):
    code, out, _ = _run(capsys, "reproduce", "fig1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certificate"] == [0, 1, 2, 3, 4]
    assert len(result["constraints"]) == 5

    code, out, _ = _run(capsys, "reproduce", "fig2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["site_invariance_consistent"] is False
    assert result["highlight"]["sites"] == [1, 2, 3, 5]


def test_byte_identical_reports(capsys):
    _, out1, _ = _run(capsys, "lhv", "run", "--graph", "ring:12",
                      "--measurement", "IXIXIXIXIXIX", "--samples", "32", "--seed", "9")
    _, out2, _ = _run(capsys, "lhv", "run", "--graph", "ring:12",
                      "--measurement", "IXIXIXIXIXIX", "--samples", "32", "--seed", "9")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, graph_json",
    [
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--samples", "0"], None),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--samples", "-3"], None),
        (["chain", "verify", "--n", "0"], None),
        (["chain", "verify", "--n", "8", "--sample", "0"], None),
        (["oracle", "--graph", "{dir}", "--measurement", "XX"], None),
        (["oracle", "--graph", "{file}", "--measurement", "XX"], '{"n": 2, "edges": [[1.0, 2.0]]}'),
        (["oracle", "--graph", "{file}", "--measurement", "XX"], '{"n": 2, "edges": [[1, "2"]]}'),
        (["oracle", "--graph", "{file}", "--measurement", "X"], '{"n": true, "edges": []}'),
        (["oracle", "--graph", "{file}", "--measurement", "XX"], '{"n": 2, "edges": 5}'),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--subset", "1,1"], None),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--subset", "2,3,2"], None),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--seed", "-1"], None),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--samples", "8",
          "--seed", "-1"], None),
        (["chain", "verify", "--n", "3", "--seed", "-1"], None),
        (["chain", "verify", "--n", "8", "--sample", "4", "--seed", "-1"], None),
        (["nogo", "ring", "--f", "1", "--d", "-1"], None),
        (["lhv", "run", "--graph", "ring:4", "--measurement", "XXXX", "--subset", "1,x"], None),
        (["oracle", "--graph", "{file}", "--measurement", "XX"], b'{"n": 2, "edges": []}\xff'),
        (["oracle", "--graph", "{file}", "--measurement", "XX"], '{"n": 2, "edges": [[1, 2, 3]]}'),
        (["nogo", "ring", "--f", "0"], None),
        (["nogo", "ring", "--f", "-1"], None),
    ],
    ids=["samples-0", "samples-negative", "chain-n-0", "chain-sample-0", "graph-dir",
         "float-endpoints", "string-endpoint", "bool-n", "edges-not-a-list",
         "subset-repeats-site", "subset-repeats-site-apart", "seed-negative-lhv-exact",
         "seed-negative-lhv-sampled", "seed-negative-chain-exhaustive",
         "seed-negative-chain-sampled", "ring-distance-negative", "subset-not-an-integer",
         "file-not-utf8", "edge-not-a-pair", "ring-f-0", "ring-f-negative"],
)
def test_bad_input_is_usage_error(tmp_path, capsys, argv, graph_json):
    path = tmp_path / "g.json"
    if graph_json is not None:
        path.write_bytes(graph_json if isinstance(graph_json, bytes) else graph_json.encode())
    argv = [a.format(dir=tmp_path, file=path) for a in argv]
    code, out, err = _run(capsys, *argv)  # an exception here is a CLI traceback
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_decompose_refuses_the_empty_word_like_verify(capsys):
    # a chain has at least one site, whichever command is given its length
    code, out, err = _run(capsys, "chain", "decompose", "--measurement", "")
    assert (code, out, err) == (2, "", "error: a chain needs at least 1 site, got n = 0\n")
    assert _run(capsys, "chain", "verify", "--n", "0") == (code, out, err)


def test_kernel_walk_guard_refuses_a_huge_kernel(capsys):
    # the one sampled word on 2000 sites has a 66-dimensional kernel
    code, out, err = _run(capsys, "chain", "verify", "--n", "2000", "--sample", "1")
    assert (code, out) == (2, "")
    assert err == ("error: 73786976294838206464 certain subsets (kernel dimension 66) "
                   "exceed the guard of 2^20\n")


def test_negative_seed_names_the_flag(capsys):
    code, _, err = _run(capsys, "chain", "verify", "--n", "8", "--sample", "4", "--seed", "-3")
    assert code == 2
    assert err == "error: --seed must be a non-negative integer, got -3\n"


# main() builds its parser once per process; these calls run back to back on it.

def test_reused_parser_forgets_expect(capsys):
    argv = ["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY"]
    code, out, _ = _run(capsys, *argv, "--expect", "mismatch")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is None


def test_reused_parser_forgets_samples(capsys):
    argv = ["lhv", "run", "--graph", "ring:12", "--measurement", "IXIXIXIXIXIX"]
    code, out, _ = _run(capsys, *argv, "--samples", "64")
    assert code == 0 and json.loads(out)["result"]["mode"] == "sampling"
    code, out, _ = _run(capsys, *argv)
    result = json.loads(out)["result"]
    assert code == 0 and result["mode"] == "exact" and result["samples"] is None


def test_usage_error_after_a_good_call(capsys):
    code, _, _ = _run(capsys, "chain", "decompose", "--measurement", "YXY")
    assert code == 0
    code, out, err = _run(capsys, "oracle", "--graph", "ring:4")
    assert code == 2 and out == ""
    assert "--measurement" in err
    code, _, _ = _run(capsys, "oracle", "--graph", "ring:4", "--measurement", "ZIII")
    assert code == 0


def test_handler_patched_after_first_call_is_reached(capsys, monkeypatch):
    argv = ["oracle", "--graph", "ring:4", "--measurement", "ZIII"]
    assert _run(capsys, *argv)[0] == 0
    seen = []

    def patched(args):
        seen.append(args.measurement)
        return 1

    monkeypatch.setattr(cli, "_cmd_oracle", patched)
    code, out, _ = _run(capsys, *argv)
    assert code == 1 and out == "" and seen == ["ZIII"]


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_OVERSIZED = "error: measurement has 1 letters but the graph has 99999999999 nodes\n"


# Built, these specs would need far more than 1 GiB: the limit makes a build
# fail fast (MemoryError, exit 3) instead of exhausting the machine.
@pytest.mark.parametrize(
    "argv, spec, letters, err",
    [
        (["oracle"], "ring:99999999999", "X", _OVERSIZED),
        (["lhv", "run"], "ring:99999999999", "X", _OVERSIZED),
        (["verify-sub"], "ring:99999999999", "X", _OVERSIZED),
        (["nogo", "site-invariance"], "ring:99999999999", "X", _OVERSIZED),
        (["oracle"], "star:3000000000", "XY",
         "error: measurement has 2 letters but the graph has 3000000000 nodes\n"),
    ],
    ids=["oracle", "lhv-run", "verify-sub", "site-invariance", "oracle-star"],
)
def test_oversized_family_spec_is_refused_before_it_is_built(argv, spec, letters, err):
    proc = subprocess.run(
        [sys.executable, "-m", "graphlhv", *argv, "--graph", spec, "--measurement", letters],
        capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_oversized_graph_file_gives_the_same_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 99999999999, "edges": []}')
    assert _run(capsys, "oracle", "--graph", str(path), "--measurement", "X") == (2, "", _OVERSIZED)


# A family with fewer nodes than letters is built first, so its own parameter
# errors come first; one with more is refused with the usual size message.
@pytest.mark.parametrize(
    "spec, letters, fragment",
    [
        ("ring:2", "XX", "a ring needs at least 3 nodes"),
        ("ring:-5", "X", "a ring needs at least 3 nodes"),
        ("grid:2x3", "YYYYY", "measurement has 5 letters but the graph has 6 nodes"),
        ("grid:23", "X", "expected AxB dimensions"),
        ("chain:0", "X", "a chain needs at least 1 node, got 0"),
        ("star:0", "X", "a star needs at least 1 node, got 0"),
        ("grid:0x3", "X", "grid dimensions must be positive, got 0x3"),
        ("complete-bipartite:0x2", "XX", "part sizes must be positive, got 0, 2"),
    ],
)
def test_family_spec_errors(capsys, spec, letters, fragment):
    code, out, err = _run(capsys, "oracle", "--graph", spec, "--measurement", letters)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and fragment in err


# Only the state vector and the two seeded samplers need numpy. The sampled
# digests are the ones pinned above (`lhv run` on ring:24 with subset 2, and
# `chain verify --n 9 --sample 40 --seed 1`).
_NUMPY_ON_DEMAND = """
import contextlib, hashlib, io, json, sys
from graphlhv import Measurement, grid, statevector_verdict
from graphlhv.cli import main

def run(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(line.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

exact = [run(line)[0] for line in (
    "verify-sub --graph grid:4x4 --measurement " + "Y" * 16,
    "oracle --graph ring:4 --measurement ZIII",
    "chain verify --n 4",
    "chain decompose --measurement YXYIYYZZXZ",
    "nogo ring --f 1",
    "nogo site-invariance --graph grid:2x3 --measurement YYYYYY",
    "reproduce fig1",
)]
loaded = ["numpy" in sys.modules]
lhv = run("lhv run --graph ring:24 --measurement " + "IX" * 12
          + " --samples 256 --seed 7 --subset 2")
loaded.append("numpy" in sys.modules)
chain = run("chain verify --n 9 --sample 40 --seed 1")
verdicts = [str(statevector_verdict(grid(2, 3), Measurement(w))) for w in ("YYYIYI", "YYYYYY")]
loaded.append("numpy" in sys.modules)
print(json.dumps({"exact": exact, "loaded": loaded, "lhv": lhv, "chain": chain,
                  "verdicts": verdicts}))
"""


def test_numpy_is_loaded_only_by_the_paths_that_sample_or_build_the_state():
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_DEMAND], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exact"] == [0] * 7
    assert result["loaded"] == [False, True, True]
    assert result["lhv"] == [
        0, "f23e55707ffe65daf95b3fd12a0fb1798cdb6d57bc735702b5adbbff971452f3"]
    assert result["chain"] == [
        0, "92cdaca58e32dd3ff495d727864ab02d30a35653316da3d95259318dde7a8955"]
    assert result["verdicts"] == ["deterministic(-1)", "uniform"]


def test_importing_the_package_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import graphlhv, graphlhv.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# Each command imports the modules it runs. The two reports are the ones pinned
# in test_emitted_report_is_pinned; `python -m graphlhv` is run through runpy.
_MODULES_ON_DEMAND = """
import contextlib, hashlib, io, json, runpy, sys
import graphlhv, graphlhv.cli

def loaded():
    return sorted(k for k in sys.modules if k.startswith("graphlhv."))

def run(line):
    sys.argv = ["graphlhv", *line.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("graphlhv", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), loaded()]

steps = [loaded()]
steps.append(run("oracle --graph ring:12 --measurement IXIXIXIXIXIX"))
steps.append(run("lhv run --graph grid:2x3 --measurement YYYYYY --subset 1,2,3,5"))
print(json.dumps(steps))
"""


def test_a_command_loads_only_the_modules_it_runs():
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_ON_DEMAND], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    imported, oracle, lhv_run = json.loads(proc.stdout)
    assert imported == ["graphlhv.cli", "graphlhv.graphs", "graphlhv.pauli"]
    assert oracle == [0, "344790f36e636e874d63f515d4c4151dd4b5b88fbc4c00b3dfc1930a65c759c7",
                      ["graphlhv.cli", "graphlhv.graphs", "graphlhv.oracle", "graphlhv.pauli"]]
    assert lhv_run == [0, "a814af4e672f2e534415ce524738b9b0f78b2104b685d55ca43fd99bc2c7bbbd",
                       ["graphlhv.cli", "graphlhv.graphs", "graphlhv.lhv", "graphlhv.oracle",
                        "graphlhv.pauli"]]


def test_lhv_run_exact_beyond_old_guard(capsys):
    code, out, _ = _run(capsys, "lhv", "run", "--graph", "ring:30", "--measurement", "X" * 30)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "exact"
    assert result["verdict"]["kind"] == "deterministic"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "graphlhv.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "graphlhv" in proc.stdout


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "graphlhv", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("graphlhv ")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "graphlhv.cli", "oracle"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def _run_into_closed_pipe(argv, unbuffered):
    """(exit code, stderr) of the command run with a stdout whose read end is
    closed before the child starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "graphlhv", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


# A reader that closes stdout early is no internal error: the command exits as a
# SIGPIPE kill would (128 + 13) and writes nothing on stderr, with or without
# buffered stdout.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["oracle", "--graph", "ring:5", "--measurement", "XXXXX"], ["nogo", "ring", "--f", "25"]],
    ids=["oracle", "nogo-ring"],
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    assert _run_into_closed_pipe(argv, unbuffered) == (141, b"")


# Help and version text is no report. argparse drops a failed write of it
# itself when stdout is unbuffered; buffered, the write fails at main's flush
# and is dropped there. Either way the exit code is argparse's own.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_into_a_closed_stdout_is_quiet(unbuffered):
    for argv in (["--help"], ["--version"], ["nogo", "--help"]):
        assert _run_into_closed_pipe(argv, unbuffered) == (0, b""), argv


# A closed stderr only drops the human line: the report and the exit code are
# those of a run with an open one, also for a violation and a usage error.
@pytest.mark.parametrize(
    "argv, code",
    [
        (["oracle", "--graph", "ring:5", "--measurement", "XXXXX"], 0),
        (["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY", "--expect", "clean"], 1),
        (["oracle", "--graph", "ring:5", "--measurement", "XXQXX"], 2),
    ],
    ids=["oracle", "violation", "usage-error"],
)
def test_closed_stderr_changes_no_exit_code(argv, code):
    command = [sys.executable, "-m", "graphlhv", *argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == subprocess.run(command, capture_output=True, timeout=120).stdout


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S))
    for line in blocks.replace("\\\n", " ").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("graphlhv ") and "[" not in line:
            yield line


def test_readme_commands_run(capsys):
    commands = list(_readme_commands())
    assert len(commands) >= 8
    for line in commands:
        code, _, err = _run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_readme_library_tour_runs():
    # run the tour statement by statement, keeping each bare expression's value
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (tour,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    namespace, values = {}, {}
    for node in ast.parse(tour).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(tour, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values["[c.sites for c in report.mismatches]"] == [(1, 2, 3, 5), (2, 4, 5, 6)]
    assert values['STANDARD_RULES.flip_sites(grid(2, 3), Measurement("YYYYYY"))'] == {2, 5}
    assert values["gf2_solve(system).consistent"] is False


def test_graph_input_never_gives_an_internal_error(tmp_path):
    # Valid and malformed graph files through every command that reads one:
    # a usage error is exit 2, and exits 0 and 1 print one JSON report.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    faults = ["none", "self-loop", "endpoint-0", "endpoint-past-n", "bool-n", "float-n",
              "string-n", "truncated", "short-letters", "long-letters", "lower-case"]

    @st.composite
    def inputs(draw):
        n = draw(st.integers(1, 8))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [list(p) for p, k in zip(pairs, keep) if k]
        letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        fault = draw(st.sampled_from(faults))
        data = {"n": n, "edges": edges}
        if fault == "self-loop":
            edges.append([draw(st.integers(1, n))] * 2)
        elif fault.startswith("endpoint"):
            edges.append([0 if fault == "endpoint-0" else n + 1, draw(st.integers(1, n))])
        elif fault.endswith("-n"):
            data["n"] = {"bool-n": True, "float-n": n + 0.5, "string-n": str(n)}[fault]
        elif fault == "short-letters":
            letters = letters[:-1]
        elif fault == "long-letters":
            letters += draw(st.sampled_from("IXYZ"))
        elif fault == "lower-case":
            letters = letters.lower()
        text = json.dumps(data)
        if fault == "truncated":
            text = text[:draw(st.integers(0, len(text) - 1))]
        subset = ",".join(map(str, draw(st.sets(st.integers(1, n), min_size=1))))
        return text, letters, subset, draw(st.integers(1, 64))

    path = tmp_path / "g.json"

    @settings(max_examples=150, deadline=None)
    @given(inputs())
    def check(case):
        text, letters, subset, samples = case
        path.write_text(text)
        graph = ["--graph", str(path), "--measurement", letters]
        for argv in (["oracle", *graph], ["verify-sub", *graph],
                     ["nogo", "site-invariance", *graph], ["lhv", "run", *graph],
                     ["lhv", "run", *graph, "--subset", subset],
                     ["lhv", "run", *graph, "--samples", str(samples)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text)
            assert not any(line.startswith("error: internal")
                           for line in err.getvalue().splitlines()), (argv, text, err.getvalue())
            if code in (0, 1):
                assert out.getvalue().count("\n") == 1, (argv, text)
                assert isinstance(json.loads(out.getvalue()), dict)

    check()
