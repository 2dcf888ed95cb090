"""Exit codes, report determinism, and argument parsing of the command line."""

import json

import pytest

from blowup.cli import UsageError, main, parse_domain, parse_mesh_size
from blowup.geometry import Disk
from blowup.inequalities import c2_constant, sigma_q
from blowup.whitney import (
    BumpFunction,
    WhitneyDecomposition,
    WhitneyParams,
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


def test_understated_hardy_constant_exits_2(tmp_path):
    # a deliberately tiny constant makes the gradient bound fail: the report
    # must still be written and the exit code must flag the failed check
    rc = main(
        [
            "solve",
            "--domain",
            "disk",
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


@pytest.mark.parametrize(
    "flags", [["--samples", "0"], ["--coverage-samples", "0"], ["--samples", "-5"]]
)
def test_whitney_nonpositive_sample_counts_exit_1(tmp_path, monkeypatch, capsys, flags):
    def no_decompose(*args, **kwargs):
        raise AssertionError("decompose ran before the flags were validated")

    monkeypatch.setattr("blowup.cli.decompose", no_decompose)
    rc = main(["whitney", "--domain", "square", *flags, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "must be positive" in err


# -- solve ------------------------------------------------------------------


def test_solve_disk_report_passes_checks(tmp_path):
    rc = main(["solve", "--domain", "disk", "--h", "1/32", "--report", str(tmp_path)])
    assert rc == 0
    payload = _load(tmp_path / "solve_report.json")
    assert payload["converged"] is True
    assert payload["corollary4"]["pass"] is True
    assert payload["oracle"]["sup_error"] < 5e-3
    assert payload["hardy"]["value"] == 2.0
    assert payload["liouville_residual"]["residual_mode"] == "continuum"


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
    sides = {c["side"] for c in cubes["cubes"]}
    assert all(s == 2.0 ** -c["level"] for c in cubes["cubes"] for s in [c["side"]])
    assert len(sides) > 1


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


def test_audit_chain_unknown_function_exits_1(tmp_path):
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


# -- constants --------------------------------------------------------------


def test_constants_match_direct_evaluation(tmp_path):
    rc = main(
        ["constants", "--N", "2", "--q", "4", "--c1", "3.0", "--report", str(tmp_path)]
    )
    assert rc == 0
    payload = _load(tmp_path / "constants_report.json")
    params = WhitneyParams(eta=2.0, eta_prime=1.05)
    constants = derive_constants(params, BumpFunction(params.eta_prime))
    assert payload["sigma_q"] == sigma_q(constants, 4.0, n=2)
    direct = c2_constant(3.0, constants, n=2)
    assert payload["series"]["diverges"] == direct.diverges
    if not direct.diverges:
        assert payload["series"]["value"] == direct.value


@pytest.mark.parametrize("dim", ["1", "0"])
def test_constants_dimension_below_2_exits_1(tmp_path, capsys, dim):
    rc = main(["constants", "--N", dim, "--report", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--N must be at least 2" in err


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


def test_constants_growth_table(tmp_path):
    rc = main(["constants", "--report", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sigma_growth.csv").read_text().strip().splitlines()
    assert lines[0] == "q,sigma_q,normalized"
    assert len(lines) == 1 + 58
    q, sig, norm = lines[1].split(",")
    params = WhitneyParams(eta=2.0, eta_prime=1.05)
    constants = derive_constants(params, BumpFunction(params.eta_prime))
    assert float(q) == 3.0
    assert float(sig) == sigma_q(constants, 3.0, n=2)
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
