"""The README's library examples run as written: its python blocks, in
order, in one namespace (the second block uses the first one's imports and
configuration)."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_run_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue())
    # the packaged problem completes its 150 iterations
    assert printed[0].split()[0] == "completed"
    # the problem of your own, whose evaluators return arrays, ends near
    # its optimum max(c, 0) = [1, 0, 2]
    np.testing.assert_allclose(namespace["result"].state.x, [1.0, 0.0, 2.0], atol=0.1)
