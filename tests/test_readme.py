"""The README's library tour runs as documented."""

from __future__ import annotations

import contextlib
import io
import re

from conftest import SRC_DIR

README = SRC_DIR.parent / "README.md"


def test_library_tour_runs_and_prints_what_it_says():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    injective, defect = out.getvalue().splitlines()
    assert injective == "(True, None)"
    assert float(defect) <= 1e-6
