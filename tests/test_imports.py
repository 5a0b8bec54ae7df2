"""What a fresh process loads: numpy only on the numeric and estimator paths, scipy never.

Each check runs in a new interpreter, because this test process has numpy
loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the README's commands that need no numpy; norm at p != 2, mult estimate and
# batch load it.  The p = 2 norm is ||S_t f||_2^2, exact by Plancherel
NUMPY_FREE_COMMANDS = (
    ["profile", "ind:-1,1", "--p", "4"],
    ["profile", "ind:-1,1", "--p", "4", "--emit", "csv"],
    ["class-s", "ind:-1,1 + ind:10,11 + ind:-11,-10"],
    ["mult", "constants", "--p", "4"],
    ["mult", "bounds", "square", "--p", "4", "--A", "1", "--t", "0.5"],
    ["mult", "bounds", "two_way", "--p", "4", "--A", "1", "--t", "0.6", "--ell", "1", "--m-norm", "1", "--in-R"],
    ["mult", "exact-positive", "tent:-1,0,1", "--p", "4"],
    ["series", "coeffs.json", "--p", "4", "--t-max", "6"],
    ["norm", "ind:-1,1", "--p", "2", "--t", "0.25", "--err", "1e-3"],
)

# argv: "blocked" or "normal", then the commands as JSON.  "blocked" makes
# every import of numpy raise ImportError before splitnorm is imported.
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import splitnorm.cli
modules = sorted(name for name in sys.modules if name.startswith("splitnorm."))
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = splitnorm.cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"modules": modules, "numpy": sys.modules.get("numpy") is not None,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "scipy": any(name.partition(".")[0] == "scipy" for name in sys.modules),
                  "runs": runs}))
"""


def _run(mode, commands, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, mode, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert not run["scipy"]  # no command, numeric or exact, needs scipy
    return run


def _spans():
    """The (module, attr, span) rows of perfbench/tracer.py's SPANS table."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_numpy_free_commands_run_without_numpy(tmp_path):
    (tmp_path / "coeffs.json").write_text('{"A": 1, "coeffs": {"-1": "1/2", "0": "1", "1": "2"}}')
    commands = [list(argv) for argv in NUMPY_FREE_COMMANDS]
    normal = _run("normal", commands, tmp_path)
    blocked = _run("blocked", commands, tmp_path)
    assert not normal["numpy"] and not blocked["numpy"]
    assert [code for code, _, _ in normal["runs"]] == [0] * len(commands)
    assert all(out and not err for _, out, err in normal["runs"])
    assert blocked["runs"] == normal["runs"]


def test_numeric_norm_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs a cold process over 1 MB of peak memory; np.unique, for
    # one, imports it, so grouping the panels by width must not call it
    run = _run("normal", [["norm", "ind:-1,1", "--p", "3", "--t", "0.25", "--err", "1e-3"]], tmp_path)
    assert run["numpy"] and run["runs"][0][0] == 0
    assert not run["numpy.ma"]


def test_cli_import_loads_every_traced_module(tmp_path):
    # the traced benchmark imports splitnorm.cli, then looks each SPANS module
    # up in sys.modules: a submodule loaded lazily would not be there
    loaded = _run("normal", [], tmp_path)["modules"]
    assert {f"splitnorm.{mod}" for mod, _, _ in _spans()} <= set(loaded)


def test_every_traced_name_resolves():
    # the tracer wraps each SPANS name after importing splitnorm.cli: a
    # function by getattr, "Class.method" through the class __dict__, so a
    # deleted or renamed name would break the traced benchmark run
    import splitnorm.cli  # noqa: F401

    missing = []
    for mod, attr, _ in _spans():
        owner = sys.modules[f"splitnorm.{mod}"]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and meth in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{mod}.{attr}")
    assert not missing
