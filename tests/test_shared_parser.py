"""``cli.main`` parses every call with one lazily built parser."""
import contextlib
import io
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ewbench import cli as cli_mod
from ewbench.cli import EXIT_CONFIG, EXIT_PASS, main

SRC = Path(__file__).resolve().parent.parent / "src"
VERIFY = ["verify", "--case", "heisenberg", "--checks", "gt,monopole,weyl",
          "--points", "7", "--seed", "3"]


def strip_wall_time(text):
    return re.sub(r',\n  "wall_time_s": [^\n]*', "", text)


@pytest.fixture
def builds(monkeypatch):
    """The number of parsers built since the shared one was dropped."""
    calls = []
    make_parser = cli_mod.make_parser

    def counted():
        calls.append(1)
        time.sleep(0.02)  # long enough for a concurrent first call to arrive
        return make_parser()

    monkeypatch.setattr(cli_mod, "make_parser", counted)
    cli_mod._built_parser.cache_clear()
    yield calls
    cli_mod._built_parser.cache_clear()


def call(argv):
    """(exit code, stdout, stderr) of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(builds):
    rc, out, err = call(["verify", "--case", "heisenberg", "--points", "many"])
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err.startswith("usage: ewbench verify")
    assert "argument --points: invalid int value: 'many'" in err

    rc, out, err = call(["verify", "--case", "class-a", "--ell", "5"])
    assert (rc, out, err) == (EXIT_CONFIG, "", "error: --ell is not used by verify --case class-a\n")

    rc, out, err = call(["limit", "--ells", "-100,-200"])
    assert (rc, err) == (EXIT_PASS, "")
    assert '"ells": "-100,-200"' in out

    rc, out, err = call(["eval", "--expr", "p*ln(p)-p", "--at", "p=1", "--order", "2"])
    assert (rc, err) == (EXIT_PASS, "")
    assert '"value": -1.0' in out

    first = call(VERIFY)
    second = call(VERIFY)
    assert builds == [1]

    fresh = subprocess.run(
        [sys.executable, "-m", "ewbench", *VERIFY], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))),
    )
    assert fresh.returncode == EXIT_PASS
    for rc, out, err in (first, second):
        assert (rc, err) == (EXIT_PASS, "")
        assert strip_wall_time(out) == strip_wall_time(fresh.stdout)


def test_threads_share_the_parser_with_a_usage_error_among_them(tmp_path, builds):
    argvs = [
        VERIFY,
        ["lift", "--case", "class-b", "--F", "1", "--c", "0.5", "--points", "4"],
        ["lift", "--case", "heisenberg", "--points", "-"],
        ["eval", "--expr", "sin(x)*y", "--at", "x=1,y=2", "--order", "3"],
        ["limit", "--case", "class-b", "--ells", "100,200,1000"],
    ]

    def run(argv, path):
        try:
            return main(argv + ["--out", str(path)])
        except SystemExit as exc:
            return exc.code

    def report(path):
        """The written report without its wall time and output path."""
        if not path.exists():
            return None
        return re.sub(r'"out": "[^"]*"', "", strip_wall_time(path.read_text()))

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        serial = [run(argv, tmp_path / f"serial{i}.json") for i, argv in enumerate(argvs)]
        cli_mod._built_parser.cache_clear()
        codes = {}
        threads = [
            threading.Thread(
                target=lambda i=i, argv=argv: codes.__setitem__(
                    i, run(argv, tmp_path / f"thread{i}.json"))
            )
            for i, argv in enumerate(argvs * 3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert serial == [EXIT_PASS, EXIT_PASS, EXIT_CONFIG, EXIT_PASS, EXIT_PASS]
    assert codes == {i: serial[i % len(argvs)] for i in range(len(threads))}
    assert report(tmp_path / "serial2.json") is None
    for i in range(len(threads)):
        assert report(tmp_path / f"thread{i}.json") == report(
            tmp_path / f"serial{i % len(argvs)}.json")
    # one build for the serial runs, one for the threads after the cache was dropped
    assert builds == [1, 1]
