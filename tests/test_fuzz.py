"""Seeded config fuzzing: every mutant is rejected with a message or solves finitely."""

import functools
import warnings

import pytest

from config_fuzz import mutants, solves
from mdflow.cli import main

COUNT = 300
CLI_EVERY = 4  # every fourth of those mutants also runs through `mdflow custom`
# mutants of seed 0 beyond COUNT that ended in a traceback, a non-finite
# state or a solve of an overflowed right-hand side before the checks
# that now reject them: extent, origin and a terminal coordinate of nan,
# r1 = 1e308, a root pressure and rD0 of 1e308, an edge conductivity of
# 1e308 (whose solve overflowed), and kT0 = 0 and r3 = 1e308 in a series
# reference
FOUND = (312, 1615, 2231, 685, 2331, 140, 2178, 1112, 2669)


def test_mutants_are_rejected_or_solve_finitely():
    outcomes = [solves(text, mesh) for text, mesh in mutants(COUNT)]
    # both outcomes occur, so the corpus reaches the solver
    assert 0 < sum(outcomes) < COUNT


def run_cli(tmp_path, capsys, text, mesh):
    cfg = tmp_path / "mutant.cfg"
    cfg.write_text(text)
    rc = main(["custom", "--config", str(cfg), "--meshes", str(mesh),
               "--no-timings", "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


def test_cli_exits_0_1_or_2_without_traceback(tmp_path, capsys):
    for i, (text, mesh) in enumerate(mutants(COUNT)):
        if i % CLI_EVERY == 0:
            rc, err = run_cli(tmp_path, capsys, text, mesh)
            assert rc in (0, 1, 2) and "Traceback" not in err, (i, rc, err)
            assert rc != 1 or "error: " in err, (i, err)


@functools.lru_cache(maxsize=1)
def corpus():
    return list(mutants(max(FOUND) + 1))


@pytest.mark.parametrize("index", FOUND)
def test_found_mutants_exit_1(tmp_path, capsys, index):
    # and with no numpy warning before the error line (mutant 2178's
    # 1e308 entries once overflowed the strength threshold)
    text, mesh = corpus()[index]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert solves(text, mesh) is False
        rc, err = run_cli(tmp_path, capsys, text, mesh)
    assert not caught, [str(w.message) for w in caught]
    assert rc == 1 and "error: " in err and "Traceback" not in err, err
