"""The benchmark harness under bench/ reaches into the package by name; a
removed or renamed name would only show when a workload runs."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import geomgw

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_every_binding():
    # install() looks up every FUNCTIONS and GENERATORS owner attribute and
    # rebinds it, so it runs in its own interpreter
    src = os.path.dirname(os.path.dirname(geomgw.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(BENCH)])}
    out = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr


def test_bench_names_exist_in_the_package():
    missing = []
    seen = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "geomgw"
            ):
                pairs = [(geomgw, node.attr)]
            elif isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "geomgw":
                mod = importlib.import_module(node.module)
                pairs = [(mod, alias.name) for alias in node.names]
            else:
                continue
            for owner, name in pairs:
                seen += 1
                if not hasattr(owner, name):
                    missing.append(f"{path.name}: {owner.__name__}.{name}")
    assert seen > 0
    assert missing == []
