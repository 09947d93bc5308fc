"""What the package loads, each case in a fresh interpreter with src/ on PYTHONPATH.

Importing `rankpart` or `rankpart.cli` loads no module that does the work;
a head command loads the modules it runs and not the census, the checks or
the reshuffle families; every exported name still resolves to its defining
module's own object.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter with warnings as errors; it must exit 0."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'rankpart')))"


def test_importing_the_cli_loads_only_config_and_errors():
    out = run_python(f"""
        import json, sys
        import rankpart.cli
        {LOADED}
    """)
    assert json.loads(out) == ["rankpart", "rankpart.cli", "rankpart.config", "rankpart.errors"]


def test_head_commands_leave_census_checks_and_reshuffle_unloaded(tmp_path):
    path = tmp_path / "head.txt"
    path.write_text("0 1 2\n3 4 5\n6 7 10\n8 11 13\n9 14 _\n")
    out = run_python(f"""
        import io, json, sys
        from contextlib import redirect_stdout
        from rankpart.cli import main
        with redirect_stdout(io.StringIO()):
            codes = [
                main(["generate", "--m", "7", "--head", "3", "--horizon", "64"]),
                main(["generate", "--head", {str(path)!r}, "--horizon", "64"]),
                main(["diff", "--head", "8", "--horizon", "64"]),
            ]
        assert codes == [0, 0, 0], codes
        {LOADED}
    """)
    loaded = set(json.loads(out))
    assert {"rankpart.greedy", "rankpart.headfile", "rankpart.equivalence"} <= loaded
    assert not loaded & {"rankpart.census", "rankpart.checks", "rankpart.reshuffle"}


def test_every_exported_name_is_its_modules_own_object():
    run_python("""
        import importlib, inspect, sys
        import rankpart
        assert sorted(m for m in sys.modules if m.startswith("rankpart")) == ["rankpart"]
        assert set(dir(rankpart)) >= set(rankpart.__all__)
        for name in rankpart.__all__:
            module = importlib.import_module(f"rankpart.{rankpart._MODULE_OF[name]}")
            value = getattr(rankpart, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
        namespace = {}
        exec("from rankpart import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(rankpart.__all__)
        assert set(dir(rankpart)) >= set(rankpart.__all__)
    """)


def test_unknown_names_raise_attribute_error():
    run_python("""
        import rankpart, rankpart.cli, rankpart.greedy
        for module in (rankpart, rankpart.cli):
            try:
                module.no_such_name
            except AttributeError as e:
                assert str(e) == f"module {module.__name__!r} has no attribute 'no_such_name'", e
            else:
                raise AssertionError(f"{module.__name__}.no_such_name resolved")
        assert not hasattr(rankpart.cli, "__path__")
        # names the CLI module once imported at load time still resolve through it
        assert rankpart.cli.greedy_extend is rankpart.greedy.greedy_extend
    """)


def test_cli_names_follow_their_modules(monkeypatch):
    """A module-level replacement, as perfbench's tracer makes, shows through the CLI module."""
    import rankpart.cli
    import rankpart.greedy

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(rankpart.greedy, "greedy_extend", replacement)
    assert rankpart.cli.greedy_extend is replacement
