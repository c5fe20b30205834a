"""The README's Library section and the package namespace match the current API."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import spintops
from spintops.harness import MODELS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    gamma_sq, two_ell, energy, k_sq = ast.literal_eval(capsys.readouterr().out.strip())
    assert gamma_sq == pytest.approx(1.0, abs=1e-12)
    assert k_sq == pytest.approx((4.0 - np.sqrt(1 - 1e-6)) ** 2, abs=1e-12)


def test_library_names_resolve():
    # Every backticked identifier in the Library section (a function, class,
    # constant or module) names something in spintops, so a rename or a
    # deletion cannot leave it stale.
    text = README.read_text()
    library = text[text.index("## Library"):]
    modules = [spintops] + [importlib.import_module(f"spintops.{m.name}")
                            for m in pkgutil.iter_modules(spintops.__path__)]
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", library))
    assert names
    missing = sorted(n for n in names if not any(hasattr(m, n) for m in modules))
    assert not missing, missing


def test_star_import_binds_no_module():
    # `from spintops import *` binds the public functions, classes and
    # constants, not the submodules they come from.
    modules = [name for name in spintops.__all__
               if isinstance(getattr(spintops, name), ModuleType)]
    assert not modules, modules


def test_scheme_table_names_the_models_and_their_schemes():
    # The README's table of which schemes each model runs lists exactly the
    # models and schemes of MODELS, the one list of them; `bohlin-a/b/c`
    # stands for bohlin-a, bohlin-b and bohlin-c.
    text = README.read_text()
    table = text[text.index("Which schemes each model runs"):].split("\n\n")[1]
    listed = {}
    for row in table.splitlines()[2:]:
        model, _, schemes = (cell.strip() for cell in row.strip("|").split("|"))
        names = []
        for first, *rest in (s.split("/") for s in re.findall(r"`([^`]+)`", schemes)):
            names += [first, *(first[:-1] + suffix for suffix in rest)]
        listed[model.strip("`")] = sorted(names)
    assert listed == {model: sorted(m.schemes) for model, m in MODELS.items()}
    assert list(listed) == list(MODELS)
