"""The benchmark's traced child runs each benchmarked subcommand through the
package, and its span metrics read the counters those runs are known to
have.  A signature change that the tracer's attribute readers cannot bind,
or that bypasses the names the child patches, fails here."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from blowup.cli import parse_domain
from blowup.grid import Grid
from blowup.inequalities import grid_family

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

CASES = {
    "solve": (["solve", "--domain", "disk", "--h", "1/16"], "solver.newton_steps", 4),
    "whitney": (
        ["whitney", "--domain", "square", "--k-max", "6", "--samples", "2000"],
        "whitney.cubes",
        436,
    ),
    # the decomposition's and the cube checks' predicate boxes: no pass over
    # the eta_prime-dilates of the 436 cubes
    "whitney-boxes": (
        ["whitney", "--domain", "square", "--k-max", "6", "--samples", "2000"],
        "geometry.cube_predicate_boxes",
        2070,
    ),
    "audit-chain": (
        ["audit-chain", "--domain", "square", "--h", "1/40"],
        "inequalities.chain_audits",
        13,
    ),
}


def _spans_module():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_spans(tmp_path, argv):
    """The spans of one traced child run of the CLI arguments ``argv``."""
    env = {k: v for k, v in os.environ.items() if k != "BLOWUP_REPORT_DIR"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path), "trace", "--", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "child.json").read_text())["rc"] == 0
    return json.loads((tmp_path / "spans.json").read_text())["spans"]


@pytest.mark.parametrize("argv, metric, expected", CASES.values(), ids=list(CASES))
def test_traced_child_reads_the_counters(tmp_path, argv, metric, expected):
    spans = _traced_spans(tmp_path, argv)
    assert _spans_module().layer_metrics(spans)[metric] == expected


def test_whitney_run_scans_no_neighbour_pairs(tmp_path):
    # the neighbour side ratio follows from the support window, so cube_ids
    # answers only the nesting walk (4 spans) and the partition sample's
    # support queries (5); a scan over level pairs took it to 19
    spans = _traced_spans(tmp_path, CASES["whitney"][0])
    names = [s[1] for s in spans]
    assert names.count("whitney.WhitneyDecomposition.cube_ids") == 9


@pytest.mark.parametrize("domain", ["disk", "lshape"])
def test_hardy_span_times_the_witnesses_only_off_convex_domains(tmp_path, domain):
    # inequalities.hardy_s times resolve_hardy_constant: on a convex domain
    # it evaluates no witness, elsewhere one quotient per non-vanishing one
    spans = _traced_spans(tmp_path, ["solve", "--domain", domain, "--h", "1/16"])
    names = [s[1] for s in spans]
    assert names.count("inequalities.resolve_hardy_constant") == 1
    if domain == "disk":
        assert "inequalities.hardy_quotient" not in names
    else:
        witnesses = list(grid_family(Grid(parse_domain(domain), 1 / 16)))
        assert names.count("inequalities.hardy_quotient") == len(witnesses) == 13
