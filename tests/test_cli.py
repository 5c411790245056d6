"""Command-line interface: exit codes, outputs, determinism."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mdflow.assembly import assemble_blocks, schur_tpfa, write_matrix_market
from mdflow import cli
from mdflow.cli import main
from mdflow.model import case1, case2, case_to_text


class TestValidation:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["case1a", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_mesh_list(self, capsys):
        assert main(["case1a", "--meshes", "16,banana"]) == 1
        assert main(["case1a", "--meshes", "-4"]) == 1

    def test_non_power_of_two_rejected_for_builtin(self, capsys):
        assert main(["case1a", "--meshes", "12,24"]) == 1
        assert "power-of-two" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["custom", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_unknown_cycle_exits_1(self, capsys, tmp_path):
        for argv in (["case1a", "--meshes", "8"],
                     ["solve", "--matrix", "A.mtx", "--rhs", "b.txt"]):
            assert main([*argv, "--cycle", "W", "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert "--cycle: invalid choice" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
                        ("--maxit", "0"), ("--maxit", "-5")],
    )
    def test_bad_solver_setting_exits_1(self, capsys, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["case1a", "--meshes", "8,16", flag, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "need a finite tol > 0 and maxit >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-8"])
    def test_nonpositive_reference_resolution_exits_1(self, capsys, tmp_path, value):
        out = tmp_path / "out"
        assert main(["case2", "--meshes", "4,8", "--reference-resolution", value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"--reference-resolution must be positive, got {value}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_reference_no_finer_than_a_mesh_exits_1(self, capsys, tmp_path):
        # a 1/h=8 reference would score the 1/h=8 mesh against itself
        out = tmp_path / "out"
        assert main(["case2", "--meshes", "4,8", "--reference-resolution", "8",
                     "--no-timings", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "reference resolution 8 is not finer than mesh 8" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes, message",
        [("5", "radial_axes (5,)"), ("0, 0", "radial_axes (0, 0)"), ("0.5", "'0.5'")],
    )
    def test_bad_radial_axes_exits_1(self, capsys, tmp_path, axes, message):
        text = case_to_text(case1("A")).replace(
            "kT0: 1.0\n", f"kT0: 1.0; radial_axes: {axes}\n", 1
        )
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["custom", "--config", str(cfg), "--meshes", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("dim = 2\n", "", "missing key 'dim' in [grid]"),
            ("kind = series\n", "kind = finegrid\n", "missing key 'resolution' in [reference]"),
            ("edge 0 1 1.0", "edge 0 1", "short edge line: 'edge 0 1'"),
            ("node 1 terminal 0.0 0.0", "node 1 terminal", "at the transfer anchor ()"),
            ("node 1 terminal 0.0 0.0", "node 1 terminal 0.3 0.3",
             "source centre (0.0, 0.0) at the transfer anchor (0.3, 0.3)"),
            ("center: 0.0, 0.0", "center: 0.1, 0.0", "source centre (0.1, 0.0)"),
            ("kD = 1.0, 1.0\n", "kD = 1.0, 2.0\n", "isotropic kD"),
            ("dim = 2\n", "dim = 3\n", "[grid] origin has 2 entries for dim = 3"),
            ("dim = 2\n", "dim = 4\n", "[grid] origin has 2 entries for dim = 4"),
            ("kD = 1.0, 1.0\n", "kD = 1.0, 1.0, 1.0\n",
             "[coefficients] kD has 3 entries for dim = 2"),
            ("origin = -0.5, -0.5\n", "origin = -0.5, -0.5, 0.0\n",
             "[grid] origin has 3 entries for dim = 2"),
            ("kD = 1.0, 1.0\n", "kD = 5.0, 5.0\nkD = 1.0, 1.0\n",
             "repeated key 'kD' in [coefficients]"),
        ],
    )
    def test_malformed_config_exits_1(self, capsys, tmp_path, old, new, message):
        text = case_to_text(case1("A"))
        assert old in text
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        assert main(["custom", "--config", str(cfg), "--meshes", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())


    @pytest.mark.parametrize("node", [0, 99])
    def test_rN_off_the_free_nodes_exits_1(self, capsys, tmp_path, node):
        # node 0 is case 1A's Dirichlet root, and there is no node 99
        text = case_to_text(case1("A")).replace(
            "\n[reference]", f"rN = {node}: 5.0\n\n[reference]"
        )
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["custom", "--config", str(cfg), "--meshes", "8,16",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"rN names node {node}" in err and "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "case, old, new, message",
        [
            pytest.param(case, *edit, id="-".join(edit))
            for case, edits in [
                ("case1a", [
                    ("extent = 1.0, 1.0", "extent = nan, 1.0",
                     "spacings must be finite and positive"),
                    ("origin = -0.5, -0.5", "origin = nan, -0.5", "origin must be finite"),
                    ("node 1 terminal 0.0 0.0", "node 1 terminal nan 0.0",
                     "anchor [nan, 0.0] lies outside the grid"),
                    ("r1: 0.2", "r1: 1e308", "r1 = 1e+308 is too large"),
                    ("r0: 0.1", "r0: nan", "need 0 < r0 <= r1 < inf"),
                    ("kT0: 1.0", "kT0: inf", "need kT0 > 0 and finite"),
                    ("kD = 1.0, 1.0", "kD = nan, 1.0", "kD must be positive and finite"),
                    ("kD = 1.0, 1.0", "kD = 1.0, inf", "kD must be positive and finite"),
                    # transmissibilities that overflow to inf in A, silently
                    ("kD = 1.0, 1.0", "kD = 1e308, 1.0",
                     "non-finite entry in row 8, column 8: a_ij = inf"),
                    ("rD0: 1.0", "rD0: 1e308", "right-hand side 2-norm overflows"),
                    ("node 0 dirichlet 0.0", "node 0 dirichlet 1e308",
                     "right-hand side 2-norm overflows"),
                    ("extent = 1.0, 1.0", "extent = 1.0, 1e308",
                     "extent [1.0, 1e+308] is too large: squared distances overflow"),
                    ("r1: 0.2", "r1: 0.10000000000000002",
                     "taper r0 = 0.1, r1 = 0.10000000000000002 is too narrow"),
                ]),
                # the first transfer's cell averages overflow, in a
                # compartment whose zero fractions would make them NaN
                ("case2", [
                    ("kT0: 1.0", "kT0: 1e308",
                     "transfer coefficient of terminal 2 overflows"),
                ]),
            ]
            for edit in edits
        ],
    )
    def test_non_finite_or_overflowing_value_exits_1(self, capsys, tmp_path, case, old,
                                                     new, message):
        # in a config without a reference, so the mesh's own checks answer;
        # the one stderr line is the message, with no numpy warning before it
        text = case_to_text({"case1a": case1("A"), "case2": case2()}[case])
        text = text[: text.index("[reference]")] + "[reference]\nkind = none\n"
        assert old in text
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["custom", "--config", str(cfg), "--meshes", "8",
                         "--out", str(out)]) == 1
        assert not caught, [str(w.message) for w in caught]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 32.0 GiB for an array with shape (4294967296,)"),
        MemoryError(),
    ])
    def test_failed_allocation_exits_1(self, capsys, monkeypatch, tmp_path, exc):
        # numpy's message for an array it could not allocate, and the bare
        # MemoryError the interpreter raises for its own objects
        def run_case(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_case", run_case)
        assert main(["case1a", "--meshes", "8", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: out of memory: {exc}" in err and "Traceback" not in err

    def test_other_runtime_error_propagates(self, monkeypatch, tmp_path):
        def run_case(*args, **kwargs):
            raise RuntimeError("not an allocation")

        monkeypatch.setattr(cli, "run_case", run_case)
        with pytest.raises(RuntimeError, match="not an allocation"):
            main(["case1a", "--meshes", "8", "--out", str(tmp_path)])


class TestReferenceCommand:
    def test_writes_profile_csv(self, tmp_path):
        rc = main(["reference", "--case", "1a", "--samples", "100",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "case1a_reference.csv").read_text().splitlines()
        assert lines[0] == "r,pD,q_r"
        assert len(lines) == 101

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MDFLOW_OUT", str(tmp_path))
        assert main(["reference", "--case", "1b", "--samples", "10"]) == 0
        assert (tmp_path / "case1b_reference.csv").exists()

    @pytest.mark.parametrize("rmax", ["nan", "inf"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_rmax_exits_1(self, capsys, tmp_path, rmax):
        # linspace(0, rmax) holds nan in either case
        assert main(["reference", "--rmax", rmax, "--samples", "4",
                     "--out", str(tmp_path)]) == 1
        assert "error: non-finite radius" in capsys.readouterr().err
        assert not (tmp_path / "case1a_reference.csv").exists()


class TestSolveCommand:
    def test_round_trip(self, tmp_path):
        spec = case1("A")
        grid = spec.grid(8)
        A, b = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", b)
        rc = main([
            "solve", "--matrix", str(tmp_path / "A.mtx"),
            "--rhs", str(tmp_path / "b.txt"),
            "--tol", "1e-10", "--out", str(tmp_path),
        ])
        assert rc == 0
        x = np.loadtxt(tmp_path / "solution.txt")
        assert np.linalg.norm(b - A @ x) <= 1e-8 * np.linalg.norm(b)
        report = (tmp_path / "solve_report.csv").read_text().splitlines()
        assert report[0].startswith("inv_h,")

    def test_rhs_dimension_mismatch(self, tmp_path, capsys):
        spec = case1("A")
        grid = spec.grid(4)
        A, _ = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", np.ones(3))
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"length 3 for a matrix of dimension {A.shape[0]}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()

    def test_nonsymmetric_matrix_exits_1(self, tmp_path, capsys):
        A = np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [0.0, -0.5, 2.0]])
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", np.ones(3))
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not symmetric" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()

    def test_negative_diagonal_exits_1(self, tmp_path, capsys):
        A = np.array([[2.0, -1.0, 0.0], [-1.0, -3.0, 0.0], [0.0, 0.0, 1.0]])
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", np.ones(3))
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-positive diagonal in row 1: a_ii = -3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()


    @pytest.mark.parametrize(
        "entry, value, message",
        [
            ((1, 1), np.nan, "non-finite entry in row 1, column 1: a_ij = nan"),
            ((0, 2), np.inf, "non-finite entry in row 0, column 2: a_ij = inf"),
        ],
    )
    def test_non_finite_entry_exits_1(self, tmp_path, capsys, entry, value, message):
        A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        A[entry] = A[entry[::-1]] = value
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", np.ones(3))
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()

    def test_non_finite_entry_with_zero_rhs_exits_1(self, tmp_path, capsys):
        # x = 0 solves any system with b = 0, but A is still checked
        A = np.array([[2.0, -1.0, 0.0], [-1.0, np.nan, -1.0], [0.0, -1.0, 2.0]])
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", np.zeros(3))
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-finite entry in row 1, column 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rhs_exits_1(self, tmp_path, capsys, value):
        # a 400-unknown tridiagonal system: the right-hand side is
        # rejected before any setup, not after maxit cycles
        n = 400
        A = sp.diags([-np.ones(n - 1), 3 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        write_matrix_market(A.tocsr(), tmp_path / "A.mtx")
        b = np.ones(n)
        b[[123, 300]] = float(value)
        np.savetxt(tmp_path / "b.txt", b)
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"non-finite right-hand side entry 123: b_i = {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solution.txt").exists()


class TestCaseCommands:
    def test_case1a_small_run(self, tmp_path):
        rc = main(["case1a", "--meshes", "8,16", "--out", str(tmp_path),
                   "--tol", "1e-8", "--no-timings"])
        assert rc == 0
        conv = (tmp_path / "case1a_convergence.csv").read_text()
        assert conv.startswith("variable,inv_h,errD,rateD")
        solver = (tmp_path / "case1a_solver.csv").read_text().splitlines()
        assert len(solver) == 3

    def test_cycle_flag_reaches_solver(self, tmp_path):
        niter = {}
        for cycle in ("V", "K"):
            assert main(["case1a", "--meshes", "16", "--cycle", cycle,
                         "--no-timings", "--out", str(tmp_path / cycle)]) == 0
            row = (tmp_path / cycle / "case1a_solver.csv").read_text().splitlines()[1]
            niter[cycle] = int(row.split(",")[4])
        assert niter == {"V": 19, "K": 19}
        # `solve` on the exported 1/h=16 system, at its own default tol
        spec = case1("A")
        grid = spec.grid(16)
        A, b = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", b)
        niter = {}
        for cycle in ("V", "K"):
            out = tmp_path / f"solve_{cycle}"
            assert main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                         "--rhs", str(tmp_path / "b.txt"), "--cycle", cycle,
                         "--no-timings", "--out", str(out)]) == 0
            row = (out / "solve_report.csv").read_text().splitlines()[1]
            niter[cycle] = int(row.split(",")[4])
        assert niter == {"V": 13, "K": 12}

    def test_unconverged_reference_is_flagged(self, tmp_path):
        # at maxit 11 the 1/h=4 mesh converges and its 1/h=16 reference does not
        assert main(["case2", "--meshes", "4", "--reference-resolution", "16",
                     "--maxit", "11", "--no-timings", "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "case2_convergence.csv").read_text().splitlines()
        assert [line for line in lines if line.startswith("#")] == [
            "# reference 16: solver did not converge"
        ]

    def test_byte_identical_rerun_with_no_timings(self, tmp_path):
        args = ["case1b", "--meshes", "8,16", "--tol", "1e-8", "--no-timings"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("case1b_convergence.csv", "case1b_solver.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_custom_config_without_reference(self, tmp_path):
        # strip the reference section: solver report only
        spec = case1("A")
        text = case_to_text(spec)
        text = text[: text.index("[reference]")] + "[reference]\nkind = none\n"
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        # any mesh list: without a reference nothing needs the meshes to double
        rc = main(["custom", "--config", str(cfg), "--meshes", "8,24",
                   "--out", str(tmp_path), "--no-timings"])
        assert rc == 0
        assert len((tmp_path / "case1a_solver.csv").read_text().splitlines()) == 3
        assert not (tmp_path / "case1a_convergence.csv").exists()

    def test_custom_config_with_series_reference(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(case_to_text(case1("B")))
        rc = main(["custom", "--config", str(cfg), "--meshes", "8,16",
                   "--out", str(tmp_path), "--tol", "1e-8"])
        assert rc == 0
        assert (tmp_path / "case1b_convergence.csv").exists()

    def test_export_states(self, tmp_path):
        rc = main(["case1a", "--meshes", "8", "--out", str(tmp_path),
                   "--tol", "1e-8", "--export-states"])
        assert rc == 0
        assert (tmp_path / "case1a_m8_cells.csv").exists()
        assert (tmp_path / "case1a_m8_edges.csv").exists()

    def test_custom_export_states_with_reference(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(case_to_text(case1("B")))
        rc = main(["custom", "--config", str(cfg), "--meshes", "8,16",
                   "--out", str(tmp_path), "--tol", "1e-8", "--export-states"])
        assert rc == 0
        assert (tmp_path / "case1b_convergence.csv").exists()
        for m in (8, 16):
            cells = (tmp_path / f"case1b_m{m}_cells.csv").read_text().splitlines()
            assert cells[0] == "cell,x1,x2,pD"
            assert len(cells) == 1 + m * m
            edges = (tmp_path / f"case1b_m{m}_edges.csv").read_text().splitlines()
            assert edges == ["edge,tail,head,qN", edges[1]]

    def test_custom_export_states_without_reference(self, tmp_path):
        spec = case1("A")
        text = case_to_text(spec)
        text = text[: text.index("[reference]")] + "[reference]\nkind = none\n"
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "new_dir"  # created by the command
        rc = main(["custom", "--config", str(cfg), "--meshes", "8",
                   "--out", str(out), "--tol", "1e-8", "--export-states"])
        assert rc == 0
        assert (out / "case1a_solver.csv").exists()
        assert not (out / "case1a_convergence.csv").exists()
        for part in ("cells", "faces", "nodes", "edges"):
            assert (out / f"case1a_m8_{part}.csv").exists()
        nodes = (out / "case1a_m8_nodes.csv").read_text().splitlines()
        assert nodes[0] == "node,pN" and len(nodes) == 2
