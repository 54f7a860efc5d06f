import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levyhull

MODULES = sorted(
    f"levyhull.{m.name}" for m in pkgutil.iter_modules(levyhull.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale ``__all__`` entry otherwise fails only on ``import *``
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_root_reexports_only_exported_names():
    # a name a module retires from its ``__all__`` cannot linger at the root
    tree = ast.parse(Path(levyhull.__file__).read_text())
    stale = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"levyhull.{node.module}").__all__
    ]
    assert stale == []


def test_package_module_list_is_complete():
    assert {"levyhull.sbrep", "levyhull.experiments", "levyhull.limitlaws"} <= set(MODULES)


def _loaded_after(code):
    """Which of ``scipy.integrate`` and ``scipy.special`` a fresh interpreter
    holds after running ``code``."""
    probe = f"{code}\nimport sys; print(*(m in sys.modules for m in ('scipy.integrate', 'scipy.special')))"
    env = dict(os.environ, PYTHONPATH=str(Path(levyhull.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()[-2:]


def test_package_import_leaves_scipy_integrate_unloaded():
    # the quadratures are numpy's own double-exponential rule, and the normal
    # CDF is math.erfc: importing the package loads neither scipy module
    assert _loaded_after("import levyhull, levyhull.experiments") == ["False", "False"]


def test_clt_trend_run_leaves_scipy_special_unloaded():
    # the CDF that clt-trend evaluates must not pull the import into the run
    code = (
        "from levyhull.config import config_from_mapping\n"
        "from levyhull.experiments import run\n"
        "rep = run(config_from_mapping({'experiment': 'clt-trend',\n"
        "    'model': {'kind': 'brownian', 'sigma': 1, 'mu': 0}, 'T_grid': [1e3], 'reps': 200, 'seed': 5}))\n"
        "assert any(r.statistic == 'clt_ks_distance' for r in rep.rows)"
    )
    assert _loaded_after(code)[1] == "False"


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_sources_parse_as_python_3_10():
    # CI runs Python 3.10 as well; syntax newer than that, such as
    # ``except*``, should fail on 3.11 too
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
