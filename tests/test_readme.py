"""The README's Library section and the package namespace match the current API."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import spintops
from spintops.harness import MODELS

from conftest import spawn

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


def table(after: str) -> list[list[str]]:
    """The cells of each body row of the first table after the text `after`;
    an escaped pipe stays in its cell."""
    text = README.read_text()
    block = text[text.index(after):].split("\n\n")[1]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row.strip()[1:-1])]
            for row in block.splitlines()[2:]]


def names(cell: str) -> list[str]:
    """The backticked names of a cell; `bohlin-a/b/c` stands for bohlin-a,
    bohlin-b and bohlin-c."""
    out = []
    for first, *rest in (s.split("/") for s in re.findall(r"`([^`]+)`", cell)):
        out += [first, *(first[:-1] + suffix for suffix in rest)]
    return out


def test_scheme_table_names_the_models_and_their_schemes():
    # The README's table of which schemes each model runs lists exactly the
    # models and schemes of MODELS, the one list of them.
    listed = {model.strip("`"): sorted(names(schemes))
              for model, _, schemes in table("Which schemes each model runs")}
    assert listed == {model: sorted(m.schemes) for model, m in MODELS.items()}
    assert list(listed) == list(MODELS)


def test_scheme_contracts_match_the_table():
    # The README's scheme table gives, for each model and scheme, what the
    # Scheme of MODELS declares: its exact columns, whether it is reversible
    # and its order, where a dash is no order.
    listed = {}
    for scheme, models, _, exact, _, reversible, order in table("## Schemes"):
        assert reversible.split()[0] in ("yes", "no"), reversible
        for pair in ((m, s) for m in names(models) for s in names(scheme)):
            assert pair not in listed, pair
            listed[pair] = (tuple(names(exact)), reversible.startswith("yes"),
                            int(order) if order.isdigit() else None)
    assert listed == {(m, s): (c.exact, c.reversible, c.order)
                      for m, model in MODELS.items() for s, c in model.schemes.items()}


@pytest.mark.slow
def test_cli_commands_run_without_numpy(tmp_path):
    # numpy is not a dependency of the package: with it made unimportable,
    # every command of the README's CLI block exits 0, in one fresh
    # interpreter that imports neither numpy nor dataclasses.
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv]
    assert len(commands) == 8 and all(argv[0] in ("run", "reverse", "converge", "period")
                                      for argv in commands)
    script = f"""if True:
        import sys
        sys.modules["numpy"] = None
        from spintops.cli import main
        for argv in {commands!r}:
            assert main(argv) == 0, argv
        assert "dataclasses" not in sys.modules
    """
    out = spawn(script, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "traj.csv").is_file()
