"""Every module-level import of a package module is used in that module, and
the package does not pull in numpy.ma."""

import ast
import subprocess
import sys
from pathlib import Path

import coversmooth

_SRC = Path(coversmooth.__file__).resolve().parent


def _imported(tree):
    """Names the module's top-level imports bind, except __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(_imported(tree)) - set(_used(tree))
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


# S1's pipeline and one mollified block of S3's D1 in a fresh interpreter;
# it prints whether numpy.ma was imported
_PIPELINE_AND_BLOCK = """
import sys
from coversmooth.covers import pushforward
from coversmooth.geometry import halton_sample
from coversmooth.psh import mollify
from coversmooth.scenarios import build_scenario
from coversmooth.smoothing import smooth_pushforward

s = build_scenario("S1")
smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps, s.steps, s.params)
s = build_scenario("S3")
pair = next(p for p in s.cover if p.downstairs_name == "D1")
f = pushforward(pair.cover, s.upstairs.chart(pair.upstairs_name).potential)
fe = mollify(f, s.params.eps)
fe.eval_many(halton_sample(fe.valid_on, 3125))
print("numpy.ma" in sys.modules)
"""


def test_the_pipeline_and_a_mollified_block_do_not_import_numpy_ma(subprocess_env):
    # nothing the package runs needs numpy.ma, and importing it costs
    # about a megabyte of resident memory in every benchmark process, which
    # no other test would see
    proc = subprocess.run((sys.executable, "-c", _PIPELINE_AND_BLOCK),
                          capture_output=True, text=True, env=subprocess_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
