"""The package's public surface: `caster.__all__`, and what importing it loads."""

import json
import subprocess
import sys
from pathlib import Path

import caster

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve_once():
    names = caster.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(caster, name)]
    assert not missing


def test_import_loads_one_blas():
    # scipy bundles its own OpenBLAS, which importing scipy.special maps next
    # to numpy's, with its own thread; the package imports no scipy module
    probe = """
import json, sys
import caster, caster.cli
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
blas = None
if sys.platform.startswith("linux"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        blas = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
print(json.dumps({"scipy": scipy, "blas": blas}))
"""
    run = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC, capture_output=True, text=True, check=True, timeout=120
    )
    loaded = json.loads(run.stdout)
    assert loaded["scipy"] == []
    if loaded["blas"] is not None:
        assert len(loaded["blas"]) == 1, loaded["blas"]
