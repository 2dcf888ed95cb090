"""Exit codes, report determinism, and argument parsing of the command line."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import blowup.cli as cli
import blowup.solver as solver_module
from blowup.cli import UsageError, main, parse_domain, parse_mesh_size
from blowup.geometry import Disk
from blowup.inequalities import c2_constant, sigma_q
from blowup.whitney import (
    WhitneyDecomposition,
    WhitneyParams,
    decompose,
    derive_constants,
)


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv("BLOWUP_REPORT_DIR", raising=False)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _stripped_bytes(path):
    # determinism is promised modulo the timestamp and the solve runtime
    payload = _load(path)
    payload.pop("generated_at")
    payload.pop("runtime_seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


# -- argument parsing -------------------------------------------------------


def test_mesh_size_accepts_fractions_and_decimals():
    assert parse_mesh_size("1/256") == 1.0 / 256.0
    assert parse_mesh_size("0.01") == 0.01
    assert parse_mesh_size(" 1/8 ") == 0.125


@pytest.mark.parametrize("bad", ["abc", "1/0", "0", "-1/4", "3/4", ""])
def test_mesh_size_rejects_garbage(bad):
    with pytest.raises(UsageError):
        parse_mesh_size(bad)


def test_domain_shorthand_and_inline_json():
    d = parse_domain("disk")
    assert isinstance(d, Disk)
    d2 = parse_domain('{"shape": "disk", "radius": 2.0}')
    assert isinstance(d2, Disk)
    assert d2.radius == 2.0


def test_domain_from_file(tmp_path):
    spec = tmp_path / "dom.json"
    spec.write_text('{"shape": "rectangle", "corner_min": [0, 0], "corner_max": [1, 2]}')
    d = parse_domain(str(spec))
    assert d.to_json_dict()["shape"] == "rectangle"


def test_unknown_domain_raises():
    with pytest.raises(UsageError):
        parse_domain("pentagon")


# -- exit codes -------------------------------------------------------------


def test_unparseable_flag_prints_usage_and_exits_1(capsys):
    rc = main(["solve", "--domain", "disk", "--h", "abc"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error:" in err


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_missing_required_domain_exits_1(capsys):
    assert main(["whitney"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_bad_exponent_list_exits_1(tmp_path, capsys):
    rc = main(
        ["verify-inequality", "--domain", "disk", "--q", "2", "--report", str(tmp_path)]
    )
    assert rc == 1


# every float option, with the arguments its subcommand needs besides it
FLOAT_FLAGS = [
    (["solve", "--domain", "disk"], "--gradient-tol"),
    (["solve", "--domain", "disk"], "--hardy"),
    (["whitney", "--domain", "square"], "--eta"),
    (["whitney", "--domain", "square"], "--eta-prime"),
    (["verify-inequality", "--domain", "square"], "--eta"),
    (["verify-inequality", "--domain", "square"], "--eta-prime"),
    (["constants"], "--q"),
    (["constants"], "--eta"),
    (["constants"], "--eta-prime"),
    (["constants"], "--c1"),
    (["audit-chain", "--domain", "square"], "--q"),
    (["audit-chain", "--domain", "square"], "--eta"),
    (["audit-chain", "--domain", "square"], "--eta-prime"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "args, flag", FLOAT_FLAGS, ids=[f"{a[0]}{f}" for a, f in FLOAT_FLAGS]
)
def test_non_finite_float_option_exits_1_before_any_work(
    tmp_path, capsys, args, flag, value
):
    rc = main([*args, f"{flag}={value}", "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {flag}: expected a finite number, got {value!r}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-inf", "-nan", "-INF"])
def test_non_finite_value_as_a_separate_token_exits_1(tmp_path, capsys, value):
    # argparse takes a token that starts with "-" for a flag unless it looks
    # like a negative number, as "-3" does and "-inf" and "-nan" must
    rc = main(["solve", "--domain", "disk", "--hardy", value, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument --hardy: expected a finite number, got {value!r}" in err
    assert not any(tmp_path.iterdir())


def test_every_float_option_is_parsed_as_finite():
    subparsers = next(
        a for a in cli.build_parser()._actions if a.dest == "command"
    ).choices
    typed = {
        (command, action.option_strings[0]): action.type
        for command, sub in subparsers.items()
        for action in sub._actions
        if action.type in (float, cli._finite)
    }
    assert set(typed) == {(args[0], flag) for args, flag in FLOAT_FLAGS}
    assert set(typed.values()) == {cli._finite}


def test_non_finite_exponent_list_exits_1(tmp_path, capsys):
    rc = main(
        ["verify-inequality", "--domain", "disk", "--q", "3,inf", "--report", str(tmp_path)]
    )
    assert rc == 1
    assert "every q > 2 and finite" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["disk", "square"])
def test_understated_hardy_constant_exits_2(tmp_path, capsys, domain):
    # a deliberately tiny constant makes the gradient bound fail: the report
    # must still be written and the exit code must flag the failed check,
    # also on the square, which lies outside the corollary's hypothesis
    rc = main(
        [
            "solve",
            "--domain",
            domain,
            "--h",
            "1/24",
            "--hardy",
            "0.05",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 2
    payload = _load(tmp_path / "solve_report.json")
    assert payload["converged"] is True
    assert payload["corollary4"]["pass"] is False
    assert "[FAIL] gradient-energy bound  (lhs " in capsys.readouterr().out


def test_grid_too_coarse_for_the_profile_exits_1(tmp_path, capsys):
    # the annulus at h = 1/4 once solved and then failed the gradient-energy
    # bound (rhs 0) with exit 2; now the singular part refuses the grid
    annulus = '{"shape": "annulus", "inner_radius": 0.5, "outer_radius": 1.0}'
    rc = main(["solve", "--domain", annulus, "--h", "1/4", "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ValueError: grid too coarse for the smoothing profile: at h = 0.25" in err
    assert not (tmp_path / "solve_report.json").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--hardy", "-1", "--hardy must be positive", id="hardy"),
        pytest.param("--gradient-tol", "0", "tolerances must be positive", id="gradient-tol"),
        pytest.param("--max-iterations", "0", "need at least one iteration", id="max-iterations"),
    ],
)
def test_nonpositive_solve_flags_rejected_before_solving(
    tmp_path, monkeypatch, capsys, flag, value, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the flag was validated")

    monkeypatch.setattr("blowup.cli.solve", no_solve)
    rc = main(["solve", "--domain", "disk", flag, value, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert message in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_polygon_with_a_non_finite_vertex_exits_1(tmp_path, capsys, value):
    # json reads NaN and Infinity, so a domain can carry them
    spec = '{"shape": "polygon", "vertices": [[0, 0], [%s, 0], [1, 1]]}' % value
    rc = main(["whitney", "--domain", spec, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "polygon vertices must be finite" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [["--samples", "0"], ["--coverage-samples", "0"], ["--samples", "-5"], ["--seed", "-1"]],
)
def test_whitney_nonpositive_sample_counts_exit_1(tmp_path, monkeypatch, capsys, flags):
    def no_decompose(*args, **kwargs):
        raise AssertionError("decompose ran before the flags were validated")

    monkeypatch.setattr("blowup.cli.decompose", no_decompose)
    rc = main(["whitney", "--domain", "square", *flags, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert flags[0] in err
    assert ("must be non-negative" if flags[0] == "--seed" else "must be positive") in err


# -- solve ------------------------------------------------------------------


def test_solve_disk_report_passes_checks(tmp_path):
    rc = main(["solve", "--domain", "disk", "--h", "1/32", "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "solve_report.json")
    assert payload["converged"] is True
    assert payload["linear_converged"] is True
    assert payload["corollary4"]["pass"] is True
    assert payload["oracle"]["sup_error"] < 5e-3
    assert payload["hardy"]["value"] == 2.0
    assert payload["liouville_residual"]["residual_mode"] == "continuum"


@pytest.mark.parametrize("domain", ["disk", "square"])
def test_convex_solve_evaluates_no_witness(tmp_path, monkeypatch, domain):
    def no_witness(*args, **kwargs):
        raise AssertionError("a witness was evaluated on a convex domain")

    monkeypatch.setattr("blowup.inequalities.grid_family", no_witness)
    monkeypatch.setattr("blowup.inequalities.hardy_quotient", no_witness)
    rc = main(["solve", "--domain", domain, "--h", "1/32", "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "solve_report.json")
    assert payload["hardy"] == {
        "value": 2.0, "empirical_max": None, "method": "convex literature value", "witness": None,
    }


ANNULUS = '{"shape": "annulus", "inner_radius": 0.5, "outer_radius": 1.0}'


@pytest.mark.parametrize(
    "domain, in_hypothesis",
    [("disk", True), (ANNULUS, True), ("square", False), ("lshape", False)],
    ids=["disk", "annulus", "square", "lshape"],
)
def test_gradient_energy_line_marks_domains_outside_the_hypothesis(
    tmp_path, capsys, domain, in_hypothesis
):
    rc = main(["solve", "--domain", domain, "--h", "1/32", "--report", str(tmp_path)])
    assert rc == 0
    c4 = _load(tmp_path / "solve_report.json")["corollary4"]
    assert c4["pass"] is True
    assert c4["in_hypothesis"] is in_hypothesis
    detail = f"lhs {c4['lhs']:.6g} <= rhs {c4['rhs']:.6g}, H {c4['H']:.6g}"
    line = (
        f"[ok  ] gradient-energy bound  ({detail})"
        if in_hypothesis
        else "[n/a ] gradient-energy bound "
        f"(outside the paper's smooth-boundary hypothesis; {detail})"
    )
    assert line in capsys.readouterr().out.splitlines()


# the keys the README's solve_report.json schema lists
SOLVE_REPORT_KEYS = [
    "generated_at", "domain", "h", "nodes", "converged", "iterations",
    "final_grad_norm", "runtime_seconds", "linear_converged", "energy_history",
    "final_energy", "steps", "corollary4", "hardy", "oracle",
    "liouville_residual", "singular_part", "verification",
]
HARDY_KEYS = ["value", "empirical_max", "method", "witness"]
COROLLARY4_KEYS = ["lhs", "rhs", "H", "margin", "pass", "in_hypothesis"]
SINGULAR_PART_KEYS = [
    "h", "nodes", "residual_mode", "boundary_layer", "full_stencil_nodes",
    "l2_delta_d", "max_abs_r", "max_r_times_d",
]

# the whitney_cubes.json schema of the README: its top-level keys, and the
# keys of each entry of its cubes list
CUBE_FILE_KEYS = [
    "generated_at", "format", "domain", "eta", "eta_prime", "k_max", "cube_count",
    "truncated_per_level", "constants", "cubes",
]
CUBE_RECORD_KEYS = ["level", "index"]
# the whitney_properties.json schema of the README: its top-level keys, and
# the keys of each entry of its checks list
PROPERTIES_KEYS = [
    "generated_at", "domain", "seed", "sample_count", "coverage_samples", "all_passed",
    "empirical_overlap_max", "empirical_grad_max", "checks",
]
CHECK_KEYS = ["name", "passed", "worst", "detail"]


def test_solve_report_has_exactly_the_documented_keys(tmp_path):
    rc = main(["solve", "--domain", "disk", "--h", "1/16", "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "solve_report.json")
    assert set(payload) == set(SOLVE_REPORT_KEYS)
    assert set(payload["hardy"]) == set(HARDY_KEYS)
    assert set(payload["corollary4"]) == set(COROLLARY4_KEYS)
    assert set(payload["singular_part"]) == set(SINGULAR_PART_KEYS)
    assert payload["verification"] is None


def test_cube_file_has_exactly_the_documented_keys(tmp_path):
    rc = main(["whitney", "--domain", "disk", "--k-max", "6", "--samples", "2000",
               "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "whitney_cubes.json")
    assert set(payload) == set(CUBE_FILE_KEYS)
    assert payload["format"] == 2
    assert payload["cubes"]
    assert all(set(c) == set(CUBE_RECORD_KEYS) for c in payload["cubes"])


@pytest.mark.parametrize("coverage", [None, 3000])
def test_properties_file_has_exactly_the_documented_keys(tmp_path, coverage):
    flags = [] if coverage is None else ["--coverage-samples", str(coverage)]
    rc = main(["whitney", "--domain", "disk", "--k-max", "6", "--samples", "2000", *flags,
               "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "whitney_properties.json")
    assert set(payload) == set(PROPERTIES_KEYS)
    assert len(payload["checks"]) == 12
    assert all(set(c) == set(CHECK_KEYS) for c in payload["checks"])
    # the coverage sample size asked, sample_count without the flag
    assert payload["sample_count"] == 2000
    assert payload["coverage_samples"] == (2000 if coverage is None else coverage)


def test_unconverged_linear_solves_exit_2(tmp_path, monkeypatch, capsys):
    # CG capped at 2 iterations: Newton still meets its gradient test, but
    # from the third step on no linear solve meets its own cg_rtol
    pcg = solver_module._pcg
    capped = lambda op, prec, b, rtol, maxiter: pcg(op, prec, b, rtol, 2)
    monkeypatch.setattr(solver_module, "_pcg", capped)
    rc = main(["solve", "--domain", "disk", "--h", "1/16", "--report", str(tmp_path)])
    assert rc == 2
    payload = _load(tmp_path / "solve_report.json")
    assert payload["converged"] is True
    assert payload["corollary4"]["pass"] is True
    assert payload["linear_converged"] is False
    steps = payload["steps"]
    assert [s["linear_converged"] for s in steps[:3]] == [True, True, False]
    for s in steps:
        assert s["linear_converged"] == (s["cg_true_relres"] <= s["cg_rtol"])
    worst = max(steps, key=lambda s: s["cg_true_relres"] / s["cg_rtol"])
    assert (
        f"[FAIL] linear solves  (worst step {worst['iteration']}: |b - Ax| / |b| "
        f"{worst['cg_true_relres']:.3e} against its cg_rtol {worst['cg_rtol']:.3e})"
    ) in capsys.readouterr().out


def test_solve_csv_and_svg_outputs(tmp_path):
    rc = main(
        [
            "solve",
            "--domain",
            "disk",
            "--h",
            "1/24",
            "--csv",
            "--svg",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 0
    for name in ("u.csv", "w.csv", "v.csv"):
        text = (tmp_path / name).read_text()
        assert text.startswith("x,y,value")
    for name in ("solution.svg", "residual.svg"):
        assert (tmp_path / name).read_text().startswith("<svg")


def test_solve_square_has_no_oracle(tmp_path):
    rc = main(["solve", "--domain", "square", "--h", "1/24", "--report", str(tmp_path)])
    assert rc == 0
    assert _load(tmp_path / "solve_report.json")["oracle"] is None


# -- whitney ----------------------------------------------------------------


def test_whitney_square_reports_zero_violations(tmp_path):
    rc = main(
        [
            "whitney",
            "--domain",
            "square",
            "--eta",
            "2",
            "--eta-prime",
            "1.05",
            "--k-max",
            "8",
            "--samples",
            "20000",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 0
    props = _load(tmp_path / "whitney_properties.json")
    assert props["all_passed"] is True
    assert all(c["passed"] for c in props["checks"])
    cubes = _load(tmp_path / "whitney_cubes.json")
    assert cubes["cube_count"] == len(cubes["cubes"]) > 0
    assert all(set(c) == {"level", "index"} for c in cubes["cubes"])
    assert len({c["level"] for c in cubes["cubes"]}) > 1


def _lshape_truncated_at_two_levels():
    d = decompose(parse_domain("lshape"), WhitneyParams(k_max=10))
    # decompose records truncation at k_max only; two levels pin the
    # string order of sort_keys ("10" before "9")
    return WhitneyDecomposition(d.domain, d.params, d.levels, {9: 7, **d.truncated})


def _assert_same_text(got: str, want: str, context: int = 200):
    """Exact equality that fails with the first differing offset and the text
    around it: a bare ``==`` on multi-megabyte strings makes pytest build a
    diff of them, which takes minutes."""
    if got == want:
        return
    block = 4096
    at = next(
        i for i in range(0, max(len(got), len(want)), block)
        if got[i : i + block] != want[i : i + block]
    )
    while at < min(len(got), len(want)) and got[at] == want[at]:
        at += 1
    lo, hi = max(at - context, 0), at + context
    pytest.fail(
        f"texts differ at offset {at} (lengths {len(got)} and {len(want)})\n"
        f"got:  {got[lo:hi]!r}\nwant: {want[lo:hi]!r}",
        pytrace=False,
    )


def test_assert_same_text_names_the_first_difference():
    want = "a" * 10_000 + "b" + "c" * 10_000
    _assert_same_text(want, want)
    with pytest.raises(pytest.fail.Exception, match="offset 10000 .lengths 20001 and 20001"):
        _assert_same_text(want.replace("b", "x"), want)
    with pytest.raises(pytest.fail.Exception, match="offset 20001 .lengths 20002 and 20001"):
        _assert_same_text(want + "\n", want)


_CUBE_FILE_CASES = {
    "disk": lambda: decompose(parse_domain("disk"), WhitneyParams(k_max=6)),
    "lshape": _lshape_truncated_at_two_levels,
    # index ranges that start far from 0 on one axis and near 0 on the other
    "translated": lambda: decompose(
        parse_domain('{"shape": "rectangle", "corner_min": [40, 0], "corner_max": [41, 1]}'),
        WhitneyParams(k_max=6),
    ),
    "box3": lambda: decompose(
        parse_domain('{"shape": "rectangle", "corner_min": [0, 0, 0], "corner_max": [1, 1, 2]}'),
        WhitneyParams(eta=3.0, dim=3, k_max=5),
    ),
}


@pytest.mark.parametrize("case", sorted(_CUBE_FILE_CASES))
def test_cube_file_rebuilds_arrays_bit_for_bit(tmp_path, case):
    decomp = _CUBE_FILE_CASES[case]()
    path = cli._write_json(decomp, str(tmp_path), "whitney_cubes.json")
    text = open(path).read()
    payload = json.loads(text)
    assert payload["format"] == 2
    # the header as json.dumps lays it out, and one compact record per line
    ks, ms = (a.tolist() for a in decomp.arrays()[:2])
    records = [f'    {{"level": {k}, "index": {json.dumps(m)}}}' for k, m in zip(ks, ms)]
    head = json.dumps({**payload, "cubes": []}, indent=2, sort_keys=True)
    want = head.replace('"cubes": []', '"cubes": [\n' + ",\n".join(records) + "\n  ]")
    _assert_same_text(text, want + "\n")
    assert text.encode().count(b'"level": ') == decomp.cube_count
    # side 2**-level and center (index + 0.5) * side, as the README gives them
    cubes = payload["cubes"]
    sides = [2.0 ** -c["level"] for c in cubes]
    rebuilt = (
        np.array([c["level"] for c in cubes], dtype=np.int64),
        np.array([c["index"] for c in cubes], dtype=np.int64),
        np.array(sides),
        np.array([[(i + 0.5) * s for i in c["index"]] for c, s in zip(cubes, sides)]),
    )
    for got, expected in zip(rebuilt, decomp.arrays()):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    if case == "disk":
        assert min(decomp.arrays()[1].ravel()) < 0
    if case == "translated":
        ms = decomp.arrays()[1]
        assert ms[:, 0].min() >= 40 * 2**2 and ms[:, 1].max() < 2**6
    if case == "lshape":
        assert list(json.loads(text)["truncated_per_level"]) == ["10", "9"]


def test_cube_file_texts_do_not_grow_with_the_domain_offset():
    def write_peak(corner_min):
        corner_max = [c + 1 for c in corner_min]
        domain = parse_domain(
            json.dumps({"shape": "rectangle", "corner_min": corner_min, "corner_max": corner_max})
        )
        decomp = decompose(domain, WhitneyParams(k_max=8))
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in decomp.json_chunks({}))
            return size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size0, peak0 = write_peak([0, 0])
    size1, peak1 = write_peak([1000, 0])
    # at level 8 the x indices sit near 256000 and the y indices near 0
    assert size1 > size0
    assert peak1 < 2 * peak0


BOX3 = '{"shape": "rectangle", "corner_min": [0, 0, 0], "corner_max": [1, 1, 2]}'


def test_whitney_three_dimensional_box(tmp_path):
    # the dimension comes from the domain; no flag sets it
    rc = main(["whitney", "--domain", BOX3, "--k-max", "5", "--report", str(tmp_path)])
    assert rc == 0
    props = _load(tmp_path / "whitney_properties.json")
    assert props["all_passed"] is True
    assert len(props["checks"]) == 12
    cubes = _load(tmp_path / "whitney_cubes.json")
    assert cubes["cube_count"] == len(cubes["cubes"]) == 10944
    assert all(len(c["index"]) == 3 for c in cubes["cubes"])


def test_whitney_svg_of_a_three_dimensional_domain_exits_1_before_any_work(
    tmp_path, monkeypatch, capsys
):
    def no_decompose(*args, **kwargs):
        raise AssertionError("decompose ran before --svg was validated")

    monkeypatch.setattr("blowup.cli.decompose", no_decompose)
    rc = main(["whitney", "--domain", BOX3, "--svg", "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--svg draws planar domains only, got dimension 3" in err
    assert not any(tmp_path.iterdir())


def test_whitney_invalid_dilation_pair_exits_1(tmp_path, capsys):
    rc = main(
        [
            "whitney",
            "--domain",
            "square",
            "--eta",
            "1.2",
            "--eta-prime",
            "1.05",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert "usage:" in capsys.readouterr().err


def test_whitney_too_shallow_exits_1(tmp_path, capsys):
    rc = main(["whitney", "--domain", "square", "--k-max", "2", "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "epsilon_cut=" in err and "k_max=2" in err
    assert "zero-size array" not in err


def test_whitney_empty_decomposition_exits_1_with_its_numbers(tmp_path, capsys):
    # no cube of a disk of radius 0.01 passes selection by level 3; the
    # message carries the truncation report's numbers
    rc = main(
        [
            "whitney",
            "--domain",
            '{"shape": "disk", "center": [0, 0], "radius": 0.01}',
            "--k-max",
            "3",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    cut = derive_constants(WhitneyParams(k_max=3)).epsilon_cut
    assert "error: TruncationError: empty decomposition" in err
    assert f"(k_max=3, truncated_at_cap=4, epsilon_cut={cut:.3e})" in err
    assert not (tmp_path / "whitney_cubes.json").exists()


# -- verify-inequality and audit-chain -------------------------------------


def test_verify_inequality_all_rows_pass(tmp_path):
    rc = main(
        [
            "verify-inequality",
            "--domain",
            "disk",
            "--h",
            "1/32",
            "--q",
            "3,4",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 0
    payload = _load(tmp_path / "inequality_report.json")
    assert payload["rows"]
    assert all(row["pass"] for row in payload["rows"])
    qs = {row["q"] for row in payload["rows"]}
    assert qs == {3.0, 4.0}


def test_verify_inequality_passes_where_the_plain_power_overflows(tmp_path):
    # |u|^1000 overflows on the L-shape at 1/32; max |u| factored out of the
    # power keeps every row finite, and q = 700 ran clean before
    argv = ["verify-inequality", "--domain", "lshape", "--h", "1/32", "--q", "1000"]
    assert main([*argv, "--report", str(tmp_path)]) == 0
    rows = _load(tmp_path / "inequality_report.json")["rows"]
    assert rows and all(row["pass"] and 0.0 < row["ratio"] < 1.0 for row in rows)


@pytest.mark.parametrize("q", ["240", "400"])
def test_audit_chain_passes_where_the_chained_powers_overflow(tmp_path, q):
    # P^q and the collapsed power sum pass the float range at these q, and
    # the per-cube powers |v|^q reach subnormal values
    argv = ["audit-chain", "--domain", "square", "--h", "1/16", "--q", q]
    assert main([*argv, "--report", str(tmp_path)]) == 0
    payload = _load(tmp_path / "chain_report.json")
    assert payload["runs"] and all(run["all_passed"] for run in payload["runs"])


def test_audit_chain_single_function_clean(tmp_path):
    rc = main(
        [
            "audit-chain",
            "--domain",
            "square",
            "--h",
            "1/50",
            "--function",
            "tent",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 0
    payload = _load(tmp_path / "chain_report.json")
    assert payload["total_violations"] == 0
    assert len(payload["runs"]) == 1
    assert payload["runs"][0]["function"] == "tent"


def test_audit_chain_builds_the_partition_once(tmp_path, monkeypatch):
    calls = []
    partition_values = WhitneyDecomposition.partition_values

    def counted(self, points):
        calls.append(len(points))
        return partition_values(self, points)

    monkeypatch.setattr(WhitneyDecomposition, "partition_values", counted)
    argv = ["audit-chain", "--domain", "square", "--h", "1/64", "--report", str(tmp_path)]
    assert main(argv) == 0
    assert len(_load(tmp_path / "chain_report.json")["runs"]) == 13
    assert len(calls) == 1


def test_audit_chain_failure_names_each_failing_step(tmp_path, monkeypatch, capsys):
    # one step of one run is made to fail; its line names that step with
    # both sides, every other line stays as a passing run prints it, and a
    # failed check exits 2
    audit = cli.chain_audit

    def one_failing_step(u, decomp, **kwargs):
        rep = audit(u, decomp, **kwargs)
        calls.append(u)
        if len(calls) == 2:
            step = next(s for s in rep.steps if s.name == "scaled_sobolev")
            step.passed, step.lhs, step.rhs, step.violations = False, 1.25, 1.0, 3
        return rep

    calls = []
    argv = ["audit-chain", "--domain", "square", "--h", "1/50", "--report", str(tmp_path)]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(cli, "chain_audit", one_failing_step)
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] chain[bump_f0.95_e2]  (11 steps, 3 violations; scaled_sobolev failed: "
        "lhs 1.25, rhs 1, 3 violating cubes)"
    ]
    assert [line for line in lines if line not in failed] == [
        line for line in clean if "bump_f0.95_e2" not in line
    ]
    report = _load(tmp_path / "chain_report.json")
    assert report["total_violations"] == 3
    assert [r["all_passed"] for r in report["runs"]].count(False) == 1


def test_audit_chain_unknown_function_exits_1(tmp_path, monkeypatch, capsys):
    # the name is checked before any work: decompose must not run (main
    # turns any exception into exit 1, so the call is recorded as well)
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("decompose ran before the name was checked")

    monkeypatch.setattr(cli, "decompose", refuse)
    rc = main(
        [
            "audit-chain",
            "--domain",
            "square",
            "--function",
            "nonsense",
            "--report",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert calls == []
    assert "unknown test function 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "domain, h",
    [
        ("square", "1/2"),  # one interior node
        ('{"shape": "annulus", "inner_radius": 0.5, "outer_radius": 1.0}', "1/4"),
    ],
    ids=["square-1/2", "annulus-1/4"],
)
def test_audit_chain_refuses_a_grid_too_coarse_to_difference(
    domain, h, tmp_path, monkeypatch, capsys
):
    # no interior node has an interior neighbor, so every grid gradient
    # vanishes while sum u^2 / delta^2 does not, which no continuum u does;
    # the audit refuses before it builds the partition
    def refuse(*args):
        raise AssertionError("the partition was built")

    monkeypatch.setattr(WhitneyDecomposition, "partition_values", refuse)
    rc = main(["audit-chain", "--domain", domain, "--h", h, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "DegenerateInputError: gradient vanishes identically on the grid at h = " in err
    assert err.rstrip().endswith(f"h = {parse_mesh_size(h):g}")
    assert not (tmp_path / "chain_report.json").exists()


# -- constants --------------------------------------------------------------


def test_constants_match_direct_evaluation(tmp_path):
    rc = main(
        ["constants", "--N", "2", "--q", "4", "--c1", "3.0", "--report", str(tmp_path)]
    )
    assert rc == 0
    payload = _load(tmp_path / "constants_report.json")
    params = WhitneyParams(eta=2.0, eta_prime=1.05)
    constants = derive_constants(params)
    assert payload["sigma_q"] == sigma_q(constants, 4.0)
    direct = c2_constant(3.0, constants)
    assert payload["series"]["diverges"] == direct.diverges
    if not direct.diverges:
        assert payload["series"]["value"] == direct.value


def test_constants_in_three_dimensions(tmp_path):
    # the closed-form overlap bound at the default eta and eta_prime
    assert main(["constants", "--N", "3", "--report", str(tmp_path)]) == 0
    payload = _load(tmp_path / "constants_report.json")
    constants = derive_constants(WhitneyParams(dim=3))
    assert payload["constants"]["overlap_bound"] == 48
    assert payload["constants"] == asdict(constants)
    assert payload["sigma_q"] == sigma_q(constants, 4.0)


@pytest.mark.parametrize("dim", ["1", "0"])
def test_constants_dimension_below_2_exits_1(tmp_path, capsys, dim):
    rc = main(["constants", "--N", dim, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--N must be at least 2" in err


def test_constants_q_below_dimension_exits_1(tmp_path, capsys):
    rc = main(["constants", "--q", "1.5", "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--q must be at least --N" in err
    assert not (tmp_path / "constants_report.json").exists()
    assert main(["constants", "--q", "2", "--report", str(tmp_path)]) == 0


def test_p_flag_removed(tmp_path, capsys):
    # the embedding constants exist only at p = n, so no command takes --p;
    # reports still record p as the dimension
    for cmd in (
        ["constants"],
        ["verify-inequality", "--domain", "disk"],
        ["audit-chain", "--domain", "disk"],
    ):
        assert main([*cmd, "--p", "2", "--report", str(tmp_path)]) == 1
        assert "unrecognized arguments: --p" in capsys.readouterr().err
    assert main(["constants", "--report", str(tmp_path)]) == 0
    payload = _load(tmp_path / "constants_report.json")
    assert payload["p"] == float(payload["dim"]) == 2.0


def test_constants_default_coupling_converges(tmp_path):
    rc = main(["constants", "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "constants_report.json")
    assert payload["series"]["diverges"] is False
    assert payload["series"]["c1"] == 2.0 * payload["series"]["threshold_c1"]


def test_constants_just_above_the_threshold_report_an_upper_bound(tmp_path, capsys):
    # 119231789 is about 1e-7 above the threshold 1.19232e8: the sum needs
    # more terms than the cap, so the value is partial sum plus tail bound
    rc = main(["constants", "--c1", "119231789", "--report", str(tmp_path)])
    assert rc == 0
    series = _load(tmp_path / "constants_report.json")["series"]
    assert series["diverges"] is False
    assert series["terms_used"] == 100_000
    assert series["tail_bound"] <= series["value"]
    assert "series constant <= " in capsys.readouterr().out


def test_constants_growth_table(tmp_path):
    rc = main(["constants", "--report", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sigma_growth.csv").read_text().strip().splitlines()
    assert lines[0] == "q,sigma_q,normalized"
    assert len(lines) == 1 + 58
    q, sig, norm = lines[1].split(",")
    params = WhitneyParams(eta=2.0, eta_prime=1.05)
    constants = derive_constants(params)
    assert float(q) == 3.0
    assert float(sig) == sigma_q(constants, 3.0)
    normalized = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b < a for a, b in zip(normalized, normalized[1:]))


# -- determinism and output routing ----------------------------------------


def test_same_config_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [
        "whitney",
        "--domain",
        "disk",
        "--k-max",
        "7",
        "--samples",
        "5000",
        "--seed",
        "3",
    ]
    assert main(argv + ["--report", str(a)]) == 0
    assert main(argv + ["--report", str(b)]) == 0
    for name in ("whitney_cubes.json", "whitney_properties.json"):
        assert _stripped_bytes(a / name) == _stripped_bytes(b / name)


def test_solve_reports_identical_apart_from_timestamp_and_runtime(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["solve", "--domain", "disk", "--h", "1/32"]
    assert main(argv + ["--report", str(a)]) == 0
    assert main(argv + ["--report", str(b)]) == 0
    name = "solve_report.json"
    assert _stripped_bytes(a / name) == _stripped_bytes(b / name)


def test_env_var_overrides_report_directory(tmp_path, monkeypatch):
    flag_dir = tmp_path / "flagged"
    env_dir = tmp_path / "forced"
    monkeypatch.setenv("BLOWUP_REPORT_DIR", str(env_dir))
    rc = main(["constants", "--report", str(flag_dir)])
    assert rc == 0
    assert (env_dir / "constants_report.json").exists()
    assert not flag_dir.exists()
