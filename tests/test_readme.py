"""The README's examples run as written, so renamed public names show up here."""

import json
import re
from pathlib import Path

import pytest

from ocflow import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_quick_start_runs_and_converges():
    (code,) = _blocks("python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.converged
    assert report.tf_final == pytest.approx(0.8165, abs=1e-3)
    assert namespace["lam"](report.tf_final).shape == (namespace["bp"].prob.n,)


def test_cli_example_config_builds():
    (text,) = _blocks("json")
    bundle, par, gains, mode, init, stop, *_, out_dir = cli.build_run(json.loads(text))
    assert bundle.prob.tf_mode == "free"
    assert (par.kind, par.s, mode.kind) == ("piecewise_constant", 20, "form2")
    assert (init.t_f, stop.tau_max, out_dir) == (1.0, 300.0, "out")
