"""One benchmark invocation: run a ``blowup`` subcommand through
``blowup.cli.main`` in this fresh process and record when it got ready,
when it finished, the process CPU time at both points and its peak memory.

    python3 perfbench/child.py OUT_DIR MODE -- CLI_ARGS...

MODE is ``run`` (untraced), ``trace`` (spans recorded by ``spans.Tracer``)
or ``setup`` (stop once set-up is complete).  Set-up ends when the handler
has parsed the domain, i.e. after importing ``blowup`` and parsing the
arguments and the domain; the subcommand's wall time runs from there until
``main`` returns, report writing included.  ``ready``/``done`` are
``time.monotonic`` readings; ``ready_cpu``/``done_cpu`` are
``time.process_time`` readings (user plus system CPU seconds of this
process since it started).
The result goes to OUT_DIR/child.json, spans to OUT_DIR/spans.json.
"""

import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


class _SetupDone(BaseException):
    """Raised through ``main`` to stop a set-up-only run."""


def main() -> int:
    out, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py OUT_DIR run|trace|setup -- CLI_ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(run_id=os.path.basename(out))
    import blowup
    import blowup.cli as cli

    source = pathlib.Path(blowup.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported blowup from {source}, not from {ROOT / 'src'}")
    if tracer is not None:
        tracer.install()

    marks = {}
    parse_domain = cli.parse_domain

    def parse_domain_marked(text):
        domain = parse_domain(text)
        if "ready" not in marks:
            marks["ready_cpu"] = time.process_time()
            marks["ready"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return domain

    # probe, not a timer: the audit run's gate needs the decomposition's size,
    # which no report records
    decompose = cli.decompose

    def decompose_probe(*args, **kwargs):
        decomp = decompose(*args, **kwargs)
        marks["cubes"] = decomp.cube_count
        return decomp

    cli.parse_domain = parse_domain_marked
    cli.decompose = decompose_probe
    try:
        rc = cli.main(argv + ["--report", out])
    except _SetupDone:
        rc = 0
    marks["done"] = time.monotonic()
    marks["done_cpu"] = time.process_time()
    marks["rc"] = rc
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(os.path.join(out, "spans.json"))
    with open(os.path.join(out, "child.json"), "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
