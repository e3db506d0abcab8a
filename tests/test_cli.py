import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwsparse.cli as cli
from rwsparse.cli import main
from rwsparse.model import ProblemInstance
from rwsparse.probgen import EnsembleSpec, gen_noiseless
from rwsparse.solvers import NoConvergenceError

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def small_instance(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--n", "24", "--m", "12", "--s", "3", "--seed", "4", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_matches_library_generation(self, tmp_path, small_instance):
        loaded = ProblemInstance.load(small_instance)
        direct = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=4))
        assert loaded.content_digest() == direct.content_digest()

    def test_noisy_gen_sets_eta(self, tmp_path):
        path = tmp_path / "noisy.json"
        rc = main(["gen", "--n", "24", "--m", "12", "--s", "3", "--sigma", "0.1",
                   "--seed", "1", "--out", str(path)])
        assert rc == 0
        inst = ProblemInstance.load(path)
        assert inst.eta is not None and inst.sigma == 0.1

    def test_bad_dimensions_exit_1(self, tmp_path):
        rc = main(["gen", "--n", "10", "--m", "20", "--s", "3", "--out", str(tmp_path / "x.json")])
        assert rc == 1


class TestSolve:
    def test_l1_and_trace(self, small_instance, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["solve", "--algo", "rw-sub", "--instance", str(small_instance),
                   "--rw-iter", "2", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algo=rw-sub" in out and "recovered=" in out
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "seed", "k", "alpha", "obj", "l0", "linf_err"]
        inner = trace.parent / (trace.name + ".inner.csv")
        with open(inner, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "inner_iters", "objective", "residual"]

    def test_oracle_without_ground_truth_exit_1(self, tmp_path):
        phi = np.array([[1.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([1.0]))
        path = tmp_path / "nogt.json"
        inst.save(path)
        assert main(["solve", "--algo", "oracle", "--instance", str(path)]) == 1

    def test_noisy_algo_on_noiseless_exit_1(self, small_instance):
        assert main(["solve", "--algo", "rw-lasso", "--instance", str(small_instance)]) == 1

    def test_missing_instance_exit_1(self, tmp_path):
        assert main(["solve", "--algo", "l1", "--instance", str(tmp_path / "nope.json")]) == 1

    def test_unknown_algo_exit_1(self, small_instance):
        assert main(["solve", "--algo", "magic", "--instance", str(small_instance)]) == 1

    def test_zero_observation_noisy_exit_1(self, tmp_path):
        # rw-lasso cannot start its multiplier at b = 0: unusable instance
        phi = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        ProblemInstance(phi=phi, b=np.zeros(2), eta=0.1).save(tmp_path / "zero.json")
        assert main(["solve", "--algo", "rw-lasso", "--instance", str(tmp_path / "zero.json")]) == 1

    def test_rank_deficient_exit_1(self, tmp_path):
        # duplicated rows make phi phi^T singular: unusable instance
        phi = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ProblemInstance(phi=phi, b=np.array([1.0, 1.0])).save(tmp_path / "bad.json")
        assert main(["solve", "--algo", "l1", "--instance", str(tmp_path / "bad.json")]) == 1

    def test_traces_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # solve pins one BLAS thread, as sweeps do: unpinned, the Gram
        # Cholesky factor of this instance (and with it rw-lasso's lambda0)
        # moves in its last bits between one and two OpenBLAS threads
        inst = tmp_path / "inst.json"
        assert main(["gen", "--n", "256", "--m", "128", "--s", "38", "--sigma", "0.05",
                     "--seed", "2", "--out", str(inst)]) == 0
        traces = []
        for threads in ("1", "2"):
            trace = tmp_path / f"threads{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "rwsparse", "solve", "--algo", "rw-lasso",
                 "--instance", str(inst), "--trace", str(trace)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                check=True,
                timeout=120,
            )
            traces.append([trace.read_bytes(), Path(f"{trace}.inner.csv").read_bytes()])
        assert traces[0] == traces[1]

    def test_solver_failure_exit_2(self, small_instance, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise NoConvergenceError("the weighted-LASSO path cannot be followed")

        monkeypatch.setattr(cli, "run_algorithm", no_convergence)
        assert main(["solve", "--algo", "l1", "--instance", str(small_instance)]) == 2

    def test_programming_error_is_not_a_solver_failure(self, small_instance, monkeypatch):
        # only the solvers' failures (RuntimeError, ValueError) exit 2; a
        # bug in the program keeps its traceback
        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "run_algorithm", bug)
        with pytest.raises(TypeError, match="unsupported operand"):
            main(["solve", "--algo", "l1", "--instance", str(small_instance)])


class TestSweep:
    def test_writes_csv_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--algos", "rw-sub", "--s-min", "3", "--s-max", "6", "--s-step", "3",
                "--trials", "2", "--seed", "9", "--rw-iter", "1",
                "--n", "32", "--m", "16"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "s", "trials", "recovered", "rate"]
        algos = {r[0] for r in rows[1:]}
        assert algos == {"l1", "rw-sub"}

    def test_reproduces_the_committed_sweep(self, tmp_path):
        # the yardstick for solver changes: this sweep's CSV stays
        # byte-identical (regenerate the file only with a justified change
        # of recovery outcomes)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--algos", "oracle,rw-sub,rw-cwb", "--s-min", "20", "--s-max", "40",
                "--trials", "3", "--rw-iter", "2", "--seed", "0", "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == (DATA / "sweep_fig1_s20-40_seed0.csv").read_bytes()

    def test_reproduces_the_committed_noisy_bench(self, tmp_path):
        # the same yardstick for the noisy path: LASSO and constrained
        # solver changes leave these improvements byte-identical
        out = tmp_path / "noisy.csv"
        args = ["noisy-bench", "--n", "64", "--m", "32", "--s", "6", "--trials", "3",
                "--seed", "0", "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == (DATA / "noisy_n64_m32_s6_seed0.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "algorithms": ["rw-cwb"],
            "s_values": [3],
            "trials": 3,
            "n": 32,
            "m": 16,
            "rw_iters": [1],
        }))
        out = tmp_path / "out.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--trials", "2", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(r[2] == "2" for r in rows[1:])  # flag wins over file
        assert {r[0] for r in rows[1:]} == {"l1", "rw-cwb"}

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_s_step_below_one_exit_1(self, tmp_path, capsys, step):
        args = ["sweep", "--s-min", "3", "--s-max", "6", "--s-step", step,
                "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1
        assert "--s-step must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["--rw-iter", "-1"], None, "rw_iters must be distinct integers >= 0"),
            (["--algos", "rw-sub,rw-sub"], None, "duplicate algorithms"),
            ([], {"s_values": 5}, "s_values must be a list"),
            ([], {"s_values": [3], "algorithms": "rw-sub"}, "algorithms must be a list"),
            ([], {"s_values": [3, 3]}, "duplicate sparsity levels"),
            # these two once ended in a TypeError traceback
            ([], {"s_values": [3], "trials": "2", "n": 32, "m": 16}, "trials must be an integer, got '2'"),
            ([], {"s_values": [3], "parallelism": 1.5}, "parallelism must be an integer, got 1.5"),
        ],
    )
    def test_unrunnable_sweep_exit_1(self, tmp_path, capsys, args, config, message):
        if config is None:
            args = args + ["--s-min", "3", "--s-max", "3"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = args + ["--config", str(tmp_path / "cfg.json")]
        # the sizes the config does not set, as flags (which win over it)
        sizes = {"trials": 1, "n": 32, "m": 16}
        args += [f"--{key}={value}" for key, value in sizes.items() if key not in (config or {})]
        out = tmp_path / "o.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("doc", ["5", "null", '"abc"', '["trials"]'])
    def test_config_that_is_not_an_object_exit_1(self, tmp_path, capsys, doc):
        # these once ended in a TypeError traceback or a misleading message
        (tmp_path / "cfg.json").write_text(doc)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_1(self, tmp_path):
        assert main(["sweep"]) == 1  # --out is required


class TestNoisyBench:
    def test_writes_improvements(self, tmp_path, capsys):
        out = tmp_path / "imp.csv"
        rc = main(["noisy-bench", "--s", "4", "--trials", "2", "--sigma", "0.02",
                   "--seed", "3", "--n", "32", "--m", "16", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "mean improvement" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "seed", "improvement_pct"]
        assert len(rows) == 1 + 2 * 2

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"rw_iters": [0]}, "noisy-bench runs rw_iter=4; rw_iters must be [4], got [0]"),
            ({"algorithms": ["l1"]}, "algorithms must name one of ['rw-lasso', 'cwb-noisy']"),
            ({"algorithms": []}, "algorithms must name one of ['rw-lasso', 'cwb-noisy']"),
        ],
    )
    def test_settings_it_would_not_run_exit_1(self, tmp_path, capsys, config, message):
        # each of these once ran rw-lasso and cwb-noisy at rw_iter=4 and exited 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "imp.csv"
        rc = main(["noisy-bench", "--config", str(tmp_path / "cfg.json"), "--s", "4",
                   "--trials", "1", "--n", "32", "--m", "16", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rw_iters_of_the_budget_it_runs(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"rw_iters": [4]}))
        args = ["noisy-bench", "--s", "4", "--trials", "1", "--n", "32", "--m", "16"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--config", str(tmp_path / "cfg.json"),
                            "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # python -m rwsparse runs __main__.py, which no in-process test does
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rwsparse", "gen", "--n", "16", "--m", "8",
             "--s", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        assert proc.stdout.startswith("wrote instance n=16 m=8 s=2 seed=0 to ")
        proc = subprocess.run(
            [sys.executable, "-m", "rwsparse", "solve", "--algo", "l1", "--instance", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("algo=l1 n=16 m=8 l0=2 ")
        assert proc.stdout.rstrip().endswith(" recovered=True")

    def test_help_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rwsparse", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
