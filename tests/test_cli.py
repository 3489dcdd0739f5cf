import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceopt import GenConfig, Instance, storage
from priceopt.cli import run
from priceopt.storage import read_instance, write_instance, write_vector
from conftest import huge_baseline_instance, two_product_instance

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def gen(tmp_path, n=30, seed=7, extra=()):
    path = tmp_path / "inst.txt"
    code = run(["gen", "--n", str(n), "--seed", str(seed), "--out", str(path), *extra])
    assert code == 0
    return path


class TestGen:
    def test_writes_instance(self, tmp_path):
        path = gen(tmp_path)
        inst = read_instance(str(path))
        assert inst.n == 30 and inst.k == 3

    def test_deterministic_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = gen(tmp_path / "a", seed=9)
        p2 = gen(tmp_path / "b", seed=9)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bounds_flag(self, tmp_path):
        path = tmp_path / "inst.txt"
        assert run(["gen", "--n", "20", "--bounds", "1,5,5,10", "--delta", "const:0.5",
                    "--out", str(path)]) == 0
        assert read_instance(str(path)).bounds is not None

    def test_bad_delta_flag(self, tmp_path):
        code = run(["gen", "--n", "20", "--delta", "wat:1", "--out", str(tmp_path / "x.txt")])
        assert code == 2

    @pytest.mark.parametrize("bounds", ["1,5,10", "1,5,5,10,12", "1,,5,10", "nonsense"])
    def test_malformed_bounds_flag(self, tmp_path, capsys, bounds):
        out = tmp_path / "x.txt"
        assert run(["gen", "--n", "20", "--bounds", bounds, "--out", str(out)]) == 2
        assert "four comma-separated numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["const:1e-16", "const:1e-160", "frac:1e-300"])
    def test_threshold_below_baseline_spacing_is_data_error(self, tmp_path, capsys, delta):
        out = tmp_path / "inst.txt"
        code = run(["gen", "--n", "5", "--seed", "0", "--delta", delta, "--out", str(out)])
        assert code == 2
        assert "below the float spacing" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_capacity_error(self, tmp_path, capsys, monkeypatch):
        from priceopt import generator

        def exhausted(config):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(generator, "generate", exhausted)
        out = tmp_path / "inst.txt"
        assert run(["gen", "--n", "20", "--seed", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: gen: out of memory\n"
        assert not out.exists()

    def test_missing_out_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.txt"
        assert run(["gen", "--n", "5", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.rglob(".tmp-priceopt-*")) == []

    def test_out_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "target_dir"
        out.mkdir()
        assert run(["gen", "--n", "5", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert out.is_dir() and list(tmp_path.rglob(".tmp-priceopt-*")) == []

    def test_non_numeric_delta_is_data_error(self, tmp_path):
        code = run(["gen", "--n", "20", "--delta", "const:abc", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("bounds", ["1,2,3,x", "1,inf,5,10", "5,1,10,15"])
    def test_bad_bounds_is_data_error(self, tmp_path, bounds):
        code = run(["gen", "--n", "20", "--bounds", bounds, "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert not (tmp_path / "x.txt").exists()

    def test_overlapping_bound_ranges_are_data_error(self, tmp_path, capsys):
        # some u_i would fall below l_i, which left p0 ~ U[l, u] no range
        out = tmp_path / "x.txt"
        assert run(["gen", "--n", "1000", "--bounds", "1,5,3,10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bounds_mode ranges must not overlap: l in [1, 5] and u in [3, 10]\n"
        )
        assert not out.exists()

    def test_negative_baseline_with_fraction_delta_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run(["gen", "--n", "20", "--bounds=-5,-4,-3,-1", "--delta", "frac:0.1", "--out", str(out)]) == 2
        assert "delta_mode produced non-positive thresholds" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_report_has_five_start_rows(self, tmp_path):
        inst = gen(tmp_path)
        report = tmp_path / "rep.csv"
        assert run(["solve", "--instance", str(inst), "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 6  # header + 5 starts
        assert [line.split(",")[5] for line in lines[1:]] == ["1", "2", "3", "4", "5"]

    def test_fewer_starts(self, tmp_path):
        inst = gen(tmp_path)
        report = tmp_path / "rep.csv"
        assert run(["solve", "--instance", str(inst), "--starts", "2",
                    "--report", str(report)]) == 0
        assert len(report.read_text().splitlines()) == 3

    def test_byte_order_mark_is_skipped(self, tmp_path):
        inst = gen(tmp_path)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert run(["solve", "--instance", str(inst), "--report", str(plain)]) == 0
        inst.write_bytes(b"\xef\xbb\xbf" + inst.read_bytes())
        assert run(["solve", "--instance", str(inst), "--report", str(marked)]) == 0
        wall = plain.read_text().splitlines()[0].split(",").index("wall_time_s")

        def rows(path):
            return [row.split(",")[:wall] + row.split(",")[wall + 1:] for row in path.read_text().splitlines()]

        assert rows(marked) == rows(plain)

    def test_missing_instance_is_data_error(self, tmp_path):
        assert run(["solve", "--instance", str(tmp_path / "nope.txt"),
                    "--report", str(tmp_path / "r.csv")]) == 2

    def test_non_utf8_instance_is_data_error(self, tmp_path):
        inst = tmp_path / "bad.txt"
        inst.write_bytes(b"n 1\nk 1\na \xff\n")
        assert run(["solve", "--instance", str(inst), "--report", str(tmp_path / "r.csv")]) == 2

    def test_non_utf8_byte_after_a_parse_error_is_data_error(self, tmp_path, capsys):
        # the bad "n" line is read first; the byte lies more than one read block after it
        inst = tmp_path / "bad.txt"
        inst.write_bytes(b"n x\n" + b"# comment\n" * (storage._LINE_BLOCK // 5) + b"\xff\n")
        assert run(["solve", "--instance", str(inst), "--report", str(tmp_path / "r.csv")]) == 2
        assert "file is not UTF-8 text: byte 0xff" in capsys.readouterr().err

    def test_blank_entry_block_is_data_error_without_warning(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("n 1\nk 1\na 1\nc 1\np0 2\ndelta 1\nD 1\n \n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "priceopt", "solve", "--instance", str(path),
             "--report", str(tmp_path / "r.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "line 8" in proc.stderr and "Warning" not in proc.stderr

    def test_bounds_report_flag(self, tmp_path):
        inst = gen(tmp_path, n=20)
        report = tmp_path / "rep.csv"
        assert run(["solve", "--instance", str(inst), "--bounds-report",
                    "--report", str(report)]) == 0
        rows = report.read_text().splitlines()[1:]
        bound_cells = [line.split(",")[11] for line in rows]
        assert any(cell not in ("", "0") for cell in bound_cells)

    def test_bounds_report_on_bounded_instance(self, tmp_path, capsys):
        inst = gen(tmp_path, n=20, extra=["--bounds", "1,5,5,10"])
        report = tmp_path / "rep.csv"
        assert run(["solve", "--instance", str(inst), "--bounds-report", "--report", str(report)]) == 0
        assert "valid for the unbounded model only" in capsys.readouterr().out
        rows = report.read_text().splitlines()[1:]
        assert len(rows) == 5 and all(row.endswith(",") for row in rows)  # bound_ii left blank

    def test_bounds_report_finds_lambda_n(self, tmp_path, capsys):
        # the README's library instance: lambda_n = 1.829 lies within 1.3 %
        # of lambda_{n-1}, so a slowly converging estimate misses it
        inst = gen(tmp_path, n=5000, seed=7)
        report = tmp_path / "rep.csv"
        assert run(["solve", "--instance", str(inst), "--bounds-report",
                    "--report", str(report)]) == 0
        assert "suboptimality bounds attached" in capsys.readouterr().out
        header, *rows = report.read_text().splitlines()
        col = header.split(",").index("bound_ii")
        cells = [row.split(",")[col] for row in rows if row.split(",")[col]]
        assert len(cells) == 1 and float(cells[0]) > 0.0


class TestOracleCmd:
    def test_small_instance(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))
        out = tmp_path / "opt.txt"
        assert run(["oracle", "--instance", str(inst_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert "q_value -9.0" in text

    def test_capacity_guard_exit_code(self, tmp_path):
        inst = gen(tmp_path, n=50)
        code = run(["oracle", "--instance", str(inst), "--out", str(tmp_path / "o.txt")])
        assert code == 3
        assert not (tmp_path / "o.txt").exists()


class TestProjectCmd:
    def test_projection_output(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))
        qfile = tmp_path / "q.txt"
        write_vector(np.array([2.0, 0.5]), str(qfile))
        out = tmp_path / "p.txt"
        assert run(["project", "--instance", str(inst_path), "--q", str(qfile),
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "in_H 1" in text
        assert "p 2.0 0.0" in text

    def test_byte_order_mark_is_skipped(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))
        qfile = tmp_path / "q.txt"
        write_vector(np.array([2.0, 0.5]), str(qfile))
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        assert run(["project", "--instance", str(inst_path), "--q", str(qfile), "--out", str(plain)]) == 0
        for path in (inst_path, qfile):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(["project", "--instance", str(inst_path), "--q", str(qfile), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_wrong_length_query(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))
        qfile = tmp_path / "q.txt"
        write_vector(np.ones(5), str(qfile))
        assert run(["project", "--instance", str(inst_path), "--q", str(qfile),
                    "--out", str(tmp_path / "p.txt")]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_query_is_data_error(self, tmp_path, capsys, token):
        inst = gen(tmp_path, n=4, seed=1)
        qfile = tmp_path / "q.txt"
        qfile.write_text(f"{token} 1 2 3\n")
        out = tmp_path / "p.txt"
        assert run(["project", "--instance", str(inst), "--q", str(qfile), "--out", str(out)]) == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_distance_is_numeric_error(self, tmp_path, capsys):
        # far beyond u_0 both candidate squared distances overflow, so no
        # float distance exists: exit 4, no output file, and no warning
        inst_path = gen(tmp_path, n=6, seed=1, extra=("--bounds", "1,5,8,14"))
        q = read_instance(str(inst_path)).p0.copy()
        q[0] = 1e200
        qfile = tmp_path / "q.txt"
        write_vector(q, str(qfile))
        out = tmp_path / "p.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["project", "--instance", str(inst_path), "--q", str(qfile),
                        "--out", str(out)]) == 4
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


class TestCompareCmd:
    def test_prints_gap(self, tmp_path, capsys):
        assert run(["compare", "--base-profit", "100", "--a", "100", "--b", "129.37"]) == 0
        assert capsys.readouterr().out.strip() == "29.37"

    def test_zero_baseline(self):
        assert run(["compare", "--base-profit", "0", "--a", "1", "--b", "2"]) == 2

    def test_overflowing_gap_is_numeric_error(self, capsys):
        assert run(["compare", "--base-profit", "1", "--a=-1e308", "--b", "1e308"]) == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--base-profit", "--a", "--b"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "x"])
    def test_non_finite_is_data_error(self, capsys, flag, token):
        argv = {"--base-profit": "100", "--a": "1", "--b": "2"}
        argv[flag] = token
        assert run(["compare", *[f"{name}={value}" for name, value in argv.items()]]) == 2
        assert capsys.readouterr().out == ""


class TestExportCmd:
    def test_export(self, tmp_path):
        inst = gen(tmp_path, n=10)
        out = tmp_path / "m.lp"
        assert run(["export-mip", "--instance", str(inst), "--out", str(out)]) == 0
        from priceopt import validate_lp_file

        validate_lp_file(str(out))

    def test_big_m_at_reach_accepted(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))  # max |p0| + delta = 0.5
        out = tmp_path / "m.lp"
        assert run(["export-mip", "--instance", str(inst_path), "--big-m", "0.5", "--out", str(out)]) == 0

    def test_default_big_m_of_a_huge_baseline(self, tmp_path):
        # 10 max(|p0| + delta) overflows, so the default is the largest double
        inst_path = tmp_path / "inst.txt"
        write_instance(huge_baseline_instance(), str(inst_path))
        out = tmp_path / "m.lp"
        assert run(["export-mip", "--instance", str(inst_path), "--out", str(out)]) == 0
        from priceopt import validate_lp_file

        validate_lp_file(str(out))
        assert "big-M 1.79769313486e+308" in out.read_text()

    @pytest.mark.parametrize("big_m", ["nan", "inf", "-5", "0", "0.49"])
    def test_bad_big_m_is_data_error(self, tmp_path, big_m):
        inst_path = tmp_path / "inst.txt"
        write_instance(two_product_instance(), str(inst_path))
        out = tmp_path / "m.lp"
        assert run(["export-mip", "--instance", str(inst_path), "--big-m", big_m, "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_coefficient_is_numeric_error(self, tmp_path, capsys):
        # every entry of D is finite, but S = D + D^T doubles 1e308 to inf
        inst_path = tmp_path / "inst.txt"
        write_instance(Instance(n=2, k=1, a=np.ones(2), D=np.diag([1e308, 1e308]), c=np.ones(2),
                                p0=np.full(2, 5.0), delta=np.ones(2)), str(inst_path))
        out = tmp_path / "m.lp"
        assert run(["export-mip", "--instance", str(inst_path), "--out", str(out)]) == 4
        assert "the bracket coefficient of p_1 ^ 2 is not finite (-inf)" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["inst.txt"]


class TestSweepCmd:
    def test_profit_nondecreasing_in_budget(self, tmp_path):
        inst = gen(tmp_path, n=40, seed=3)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--instance", str(inst), "--k-list", "0.05,0.1,0.2,0.5",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        profits = [float(line.split(",")[6]) for line in lines]
        assert profits == sorted(profits)

    def test_power_mode_estimates_lambda_1_once(self, tmp_path, monkeypatch):
        # the sweep-illcond benchmark instance: six budgets and five warm
        # starts share one S, so one Lanczos run serves all eleven solves
        import scipy.sparse.linalg as linalg

        from priceopt import generate

        calls = []
        eigsh = linalg.eigsh
        monkeypatch.setattr(linalg, "eigsh", lambda *a, **kw: calls.append(kw["which"]) or eigsh(*a, **kw))
        inst = tmp_path / "illcond.txt"
        write_instance(generate(GenConfig(seed=101, n=5000, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9)),
                       str(inst))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--instance", str(inst), "--l-mode", "power", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7
        assert calls == ["LA"]

    @pytest.mark.parametrize("k_list", ["0.5,abc", "nan", "0.5,inf", "-0.5", "0", "0.5,5", ","])
    def test_bad_k_list_is_data_error(self, tmp_path, k_list):
        inst = gen(tmp_path, n=10)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--instance", str(inst), "--k-list", k_list, "--out", str(out)]) == 2
        assert not out.exists()


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", "x.txt", "--report", "r.csv", "--parallel-starts", "2"],
        ["solve", "--instance", "x.txt", "--report", "r.csv", "--absolute-eps"],
        ["suite", "--out-dir", "out", "--eps", "1e-6"],
    ])
    def test_removed_options(self, argv):
        # the starts run one after another, eps is always relative, and the
        # suite solves at the default eps
        assert run(argv) == 1

    def test_unknown_flag(self):
        assert run(["gen", "--n", "5", "--out", "x", "--frobnicate"]) == 1

    def test_missing_required(self):
        assert run(["gen", "--n", "5"]) == 1


class TestSuiteCmd:
    def test_tiny_grid_end_to_end(self, tmp_path, monkeypatch):
        import priceopt.generator as gen_mod

        def tiny(scale, base_seed=0):
            return [
                GenConfig(n=12, seed=base_seed + 1, delta_mode=("const", 0.5)),
                GenConfig(n=12, seed=base_seed + 2, bounds_mode=(1, 5, 5, 10)),
            ]

        monkeypatch.setattr(gen_mod, "benchmark_suite", tiny)
        out = tmp_path / "suite"
        assert run(["suite", "--scale", "desk", "--out-dir", str(out), "--seed", "11"]) == 0
        results = out / "results.csv"
        assert results.exists()
        assert len(results.read_text().splitlines()) == 1 + 2 * 5
        assert len(list((out / "instances").iterdir())) == 2

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        import priceopt.generator as gen_mod

        def tiny(scale, base_seed=0):
            return [GenConfig(n=15, seed=base_seed + 3)]

        monkeypatch.setattr(gen_mod, "benchmark_suite", tiny)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["suite", "--scale", "desk", "--out-dir", str(out1), "--seed", "4"]) == 0
        assert run(["suite", "--scale", "desk", "--out-dir", str(out2), "--seed", "4"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


class TestSeedEnvVar:
    def test_solver_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOLVER_SEED", "123")
        p1 = tmp_path / "a.txt"
        assert run(["gen", "--n", "10", "--out", str(p1)]) == 0
        monkeypatch.delenv("SOLVER_SEED")
        p2 = tmp_path / "b.txt"
        assert run(["gen", "--n", "10", "--seed", "123", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestNumericExit:
    def test_divergent_instance_exits_4(self, tmp_path):
        from priceopt import Instance

        inst = Instance(n=2, k=2, a=[1.0, 1.0], D=[[1.0, -1.5], [-1.5, 1.0]],
                        c=[1, 1], p0=[5.0, 5.0], delta=[1.0, 1.0])
        path = tmp_path / "bad.txt"
        write_instance(inst, str(path))
        code = run(["solve", "--instance", str(path), "--report", str(tmp_path / "r.csv")])
        assert code == 4
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("delta", ["const:1e200", "const:1e308"])
    def test_huge_thresholds_exit_4(self, tmp_path, delta):
        # the squared threshold overflows past 1e154, and near the float
        # maximum the random starts do as well: either way the run ends in a
        # NumericError, with no traceback and no warning
        inst = gen(tmp_path, extra=("--delta", delta))
        report = tmp_path / "r.csv"
        assert run(["solve", "--instance", str(inst), "--report", str(report)]) == 4
        assert not report.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_indefinite_s_exits_4_without_warning(self, tmp_path, command):
        # D diagonal (1, -0.5): the iterates diverge until a gain score
        # squares past the float range, which must not surface as a warning
        from priceopt import Instance

        inst = Instance(n=2, k=1, a=[5.0, 5.0], D=[[1.0, 0.0], [0.0, -0.5]],
                        c=[1.0, 1.0], p0=[5.0, 5.0], delta=[0.5, 0.5])
        path = tmp_path / "bad.txt"
        write_instance(inst, str(path))
        out = tmp_path / "out.csv"
        out_flag = "--report" if command == "solve" else "--out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--instance", str(path), out_flag, str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_overflowing_step_exits_4_without_warning(self, tmp_path, capsys, command):
        # S = 2e-320: the step constant is subnormal and both the long-step
        # start and the first projected step g / L overflow
        path = tmp_path / "tiny.txt"
        path.write_text("n 1\nk 1\na 5\nc 1\np0 3\ndelta 0.5\nD 1\n0 0 1e-320\n")
        out = tmp_path / "out.csv"
        out_flag = "--report" if command == "solve" else "--out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--instance", str(path), out_flag, str(out)]) == 4
        assert capsys.readouterr().err == "error: objective/gradient evaluated to non-finite values\n"
        assert not out.exists()


class TestEpsValidation:
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps_is_data_error(self, tmp_path, command, eps):
        # an infinite eps would stop every start after one iteration
        inst = gen(tmp_path, n=10)
        out = tmp_path / "out.csv"
        out_flag = "--report" if command == "solve" else "--out"
        assert run([command, "--instance", str(inst), "--eps", eps, out_flag, str(out)]) == 2
        assert not out.exists()


class TestByteIdenticalOutputs:
    def test_solve_reports_reproducible(self, tmp_path):
        inst = gen(tmp_path, n=25, seed=2)
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(["solve", "--instance", str(inst), "--seed", "3", "--report", str(r1)]) == 0
        assert run(["solve", "--instance", str(inst), "--seed", "3", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestSeedEnvValidation:
    def test_garbage_seed_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOLVER_SEED", "not-a-number")
        code = run(["gen", "--n", "5", "--out", str(tmp_path / "x.txt")])
        assert code == 2

    @pytest.mark.parametrize("command", ["help", "compare", "oracle", "gen"])
    def test_garbage_seed_unread_without_the_default(self, tmp_path, monkeypatch, capsys, command):
        # only a command that falls back on the default seed reads SOLVER_SEED
        argv, code, message = {
            "help": (["--help"], 0, ""),
            "compare": (["compare", "--base-profit", "100", "--a", "90", "--b", "95"], 0, ""),
            "oracle": (["oracle", "--instance", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o.txt")],
                       2, "instance file not found"),
            "gen": (["gen", "--n", "5", "--seed", "5", "--out", str(tmp_path / "x.txt")], 0, ""),
        }[command]
        monkeypatch.setenv("SOLVER_SEED", "x")
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err and "SOLVER_SEED" not in err

    @pytest.mark.parametrize("command", ["gen", "solve", "sweep", "suite", "SOLVER_SEED"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, command):
        inst = gen(tmp_path, n=10)
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--n", "5", "--seed", "-1", "--out", str(out)],
            "solve": ["solve", "--instance", str(inst), "--seed", "-1", "--report", str(out)],
            "sweep": ["sweep", "--instance", str(inst), "--seed", "-1", "--out", str(out)],
            "suite": ["suite", "--out-dir", str(out), "--seed", "-3"],
            "SOLVER_SEED": ["gen", "--n", "5", "--out", str(out)],
        }[command]
        monkeypatch.setenv("SOLVER_SEED", "-1" if command == "SOLVER_SEED" else "0")
        assert run(argv) == 2
        assert not out.exists()


# Option name -> value tokens, the first one valid (None for a flag).
# "{name}" tokens are replaced by fixture paths.  The sizes are kept small:
# gen --n <= 50, oracle only sees the n = 6 file, and suite always carries a
# negative --seed, so it is rejected before generating anything.
_INSTANCES = ["{small}", "{bounded}", "{garbage}", "{missing}"]
_OUTS = ["{out}", "{out_dir}", "{no_dir}"]
_SEEDS = ["0", "-1", "7", "x", "18446744073709551616"]
_SOLVER = {
    "--l-mode": ["power", "gershgorin", "exact"],
    "--eps": ["1e-3", "1e-9", "0", "-1", "nan", "inf", "x"],
    "--max-iters": ["5", "1", "0", "-1", "x"],
    "--refine": None,
    "--no-refine": None,
    "--seed": _SEEDS,
}
_NUMBERS = ["100", "0", "-5", "2.5", "1e308", "nan", "inf", "x"]
_CLI_OPTIONS = {
    "gen": {
        "--n": ["6", "1", "50", "0", "-2", "x", "1e3"],
        "--k-frac": ["0.5", "1", "0", "1.5", "nan", "-0.1", "x"],
        "--delta": ["frac:0.1", "const:1.0", "const:-1", "const:nan", "frac:inf", "wat:1", "const:1e308"],
        "--bounds": ["1,5,5,10", "none", "1,2,3", "1,inf,5,10", "5,1,10,5", "x"],
        "--seed": _SEEDS,
        "--mixed-signs": None,
        "--no-dominance-fix": None,
        "--literal-sign": None,
        "--out": _OUTS,
    },
    "solve": {
        "--instance": _INSTANCES,
        "--starts": ["2", "5", "0", "6", "x"],
        "--bounds-report": None,
        "--report": _OUTS,
        **_SOLVER,
    },
    "sweep": {
        "--instance": _INSTANCES,
        "--k-list": ["0.5", "0.1,1.0", "0", "nan", "0.5,abc", ""],
        "--out": _OUTS,
        **_SOLVER,
    },
    "project": {"--out": _OUTS},
    "oracle": {"--instance": ["{small}", "{garbage}", "{missing}"], "--out": _OUTS},
    "compare": {"--base-profit": _NUMBERS, "--a": _NUMBERS, "--b": _NUMBERS},
    "export-mip": {
        "--instance": _INSTANCES,
        "--big-m": ["100", "0.5", "0", "-5", "nan", "inf", "x", "1e308"],
        "--out": _OUTS,
    },
    "suite": {"--scale": ["desk", "full", "bogus"], "--out-dir": _OUTS},
}
# required options, and --k-list, whose default sweeps six budgets
_MOSTLY_SET = {"--n", "--out", "--instance", "--report", "--base-profit", "--a", "--b", "--out-dir",
               "--k-list"}
# project's --instance and --q, drawn (or left out) together: the first
# pairs match in n, so that most project examples run the projection
_PROJECT_INPUTS = [
    ("{small}", "{q}"),
    ("{bounded}", "{q_bounded}"),
    ("{small}", "{q_inf}"),
    ("{bounded}", "{q_inf_bounded}"),
    ("{bounded}", "{q}"),
    ("{small}", "{garbage}"),
    ("{small}", "{missing}"),
    ("{garbage}", "{q}"),
    ("{missing}", "{q_bounded}"),
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    from priceopt import generate

    root = tmp_path_factory.mktemp("cli_fuzz")
    files = {
        "small": root / "small.txt",
        "bounded": root / "bounded.txt",
        "garbage": root / "garbage.txt",
        "missing": root / "missing.txt",
        "q": root / "q.txt",
        "q_inf": root / "q_inf.txt",
        "q_bounded": root / "q_bounded.txt",
        "q_inf_bounded": root / "q_inf_bounded.txt",
        "out_dir": root / "out",
        "out": root / "out" / "result",
        "no_dir": root / "no_dir" / "result",
    }
    write_instance(generate(GenConfig(n=6, k_fraction=0.5, seed=1)), str(files["small"]))
    write_instance(generate(GenConfig(n=12, bounds_mode=(1, 5, 8, 14), seed=2)), str(files["bounded"]))
    files["garbage"].write_text("n 3\nk one\n")
    write_vector(np.linspace(-2.0, 12.0, 6), str(files["q"]))
    files["q_inf"].write_text("inf 1 2 3 4 5\n")
    write_vector(np.linspace(0.0, 16.0, 12), str(files["q_bounded"]))
    files["q_inf_bounded"].write_text("1 2 3 4 5 6 7 8 9 10 11 -inf\n")
    files["out_dir"].mkdir()
    return {name: str(path) for name, path in files.items()}


def _one_in(n):
    """True with probability 1/n."""
    return st.sampled_from([True] + [False] * (n - 1))


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_argv_ends_in_documented_exit_code(self, cli_files, data):
        from unittest import mock

        command = data.draw(st.sampled_from(sorted(_CLI_OPTIONS)), label="command")
        argv = [command]
        for name, tokens in _CLI_OPTIONS[command].items():
            if data.draw(_one_in(8)) if name in _MOSTLY_SET else not data.draw(_one_in(3)):
                continue
            argv.append(name)
            if tokens is not None:
                token = data.draw(st.sampled_from(tokens)) if data.draw(_one_in(3)) else tokens[0]
                argv.append(token.format(**cli_files))
        if command == "suite":
            argv += ["--seed", data.draw(st.sampled_from(["-1", "-3"]))]
        if command == "project" and not data.draw(_one_in(8)):
            pairs = _PROJECT_INPUTS if data.draw(_one_in(3)) else _PROJECT_INPUTS[:2]
            instance, q = data.draw(st.sampled_from(pairs), label="project inputs")
            argv += ["--instance", instance.format(**cli_files), "--q", q.format(**cli_files)]
        if data.draw(_one_in(8)):
            stray = data.draw(st.sampled_from(["--frobnicate", "extra", "--n"]))
            argv.insert(data.draw(st.integers(1, len(argv))), stray)
        env_seed = data.draw(st.sampled_from([None, None, "3", "x", "-1", "-1"]), label="SOLVER_SEED")
        with mock.patch.dict(os.environ):
            os.environ.pop("SOLVER_SEED", None)
            if env_seed is not None:
                os.environ["SOLVER_SEED"] = env_seed
            code = run(argv)
        assert code in range(5)
