"""The README's Library example runs against the current API."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    two_ell, energy, k_sq = ast.literal_eval(capsys.readouterr().out.strip())
    assert k_sq == pytest.approx((4.0 - np.sqrt(1 - 1e-6)) ** 2, abs=1e-12)
