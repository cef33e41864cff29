"""The package's import surface: each public name comes from its defining
module, which is loaded the first time one of its names is used, so a
caller that needs only the analysis engine loads only that."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import b2sets

PUBLIC = {
    "analyze": [
        "additive_energy", "collision_census", "family_sumset_disjointness", "is_b2",
        "is_b2_circ", "rep_profile", "subset_doubling_audit",
    ],
    "codes": [
        "CodeFamily", "ReducedVandermonde", "hadamard_code_vectors", "reduced_vandermonde",
        "star_code_vectors", "walsh_rows",
    ],
    "construct": [
        "F2Embedding", "SetFamily", "build_meyer", "build_product", "build_proposition",
        "build_w", "build_w_circ", "dyadic_pack", "f2_embed",
        "lattice_points", "translate",
    ],
    "decompose": [
        "counting_certificate", "exact_min_union", "greedy_union", "meyer_extract",
        "mixed_certificate", "no_large_bsubset_certificate",
    ],
    "digitnum": ["DigitVector"],
    "errors": [
        "B2SetsError", "EmptyConstruction", "InternalVerificationFailure", "ParameterError",
        "ResourceCap",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_imports_load_only_what_they_use():
    # a fresh interpreter, so no module loaded by another test counts
    code = (
        "import sys\n"
        "from b2sets import analyze\n"
        "print(sorted(m for m in sys.modules if m.startswith('b2sets.')))\n"
        "print('dataclasses' in sys.modules, 'numpy' in sys.modules)\n"
        "import b2sets.cli\n"
        "print('dataclasses' in sys.modules, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "['b2sets.analyze', 'b2sets.digitnum', 'b2sets.errors']",
        "False False",
        "False False",
    ]


def test_public_names():
    assert len(NAMES) == 36
    assert sorted(b2sets.__all__) == sorted(name for _, name in NAMES)
    namespace = {}
    exec("from b2sets import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(b2sets.__all__)


def _outside_definition(path, name):
    """The text of ``path`` without the top-level def or class of ``name``."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            del lines[node.lineno - 1 : node.end_lineno]
    return "\n".join(lines)


def test_every_public_name_is_used_outside_the_tests():
    # no public path may be reachable only from tests: each name appears
    # in another module of the package or in a demo, outside its own
    # definition
    files = [p for p in Path(b2sets.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    files += Path(__file__).parents[1].joinpath("demos").glob("*.py")
    unused = [
        name
        for name in b2sets.__all__
        if not any(re.search(rf"\b{name}\b", _outside_definition(p, name)) for p in files)
    ]
    assert unused == []


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"b2sets.{module}")
    assert getattr(b2sets, name) is getattr(defining, name)
    assert name in dir(b2sets)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        b2sets.no_such_name
    with pytest.raises(ImportError):
        from b2sets import no_such_name  # noqa: F401
