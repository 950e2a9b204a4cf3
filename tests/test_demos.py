import contextlib
import io
import pathlib
import runpy
import warnings

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_without_a_warning(path):
    # each demo as `python -W error demos/<name>.py` runs it: any warning, an
    # overflow or a NaN on the way, is an error, and it prints what it shows
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
