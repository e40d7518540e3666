"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; networkx ships
with the ``test`` extra and only ``repro.query.nxbridge`` imports it.
This guard imports the public entry points, then every other module,
in a fresh interpreter and fails if a third-party package was loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro, repro.server, repro.cli, repro.analysis, repro.core
entry_points = sorted(m for m in ("numpy", "scipy", "networkx")
                      if m in sys.modules)
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name not in ("repro.__main__", "repro.query.nxbridge"):
        importlib.import_module(info.name)
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
print(json.dumps({"entry_points": entry_points,
                  "third_party": third_party}))
"""


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["entry_points"] == []
    assert report["third_party"] == []
