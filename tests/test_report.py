import csv
import importlib.util
import io
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from loopforms import report as rp, sampling
from loopforms.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _script(name: str):
    """``scripts/<name>.py`` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "loopforms.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def lie_report():
    return rp.run_suite(rp.RunConfig(suite="lie", seed=99))


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(rp.ConfigError):
            rp.run_suite(rp.RunConfig(suite="nonsense"))

    def test_tiny_sample_count_rejected_before_running(self):
        with pytest.raises(rp.ConfigError):
            rp.run_suite(rp.RunConfig(samples=2))

    def test_odd_samples_rejected(self):
        with pytest.raises(rp.ConfigError):
            rp.run_suite(rp.RunConfig(samples=63))

    def test_bad_rank_rejected(self):
        with pytest.raises(rp.ConfigError):
            rp.run_suite(rp.RunConfig(n=1))

    def test_memory_budget_rejected_without_allocating(self):
        import tracemalloc

        cfg = rp.RunConfig(samples=100_000_000, n=50)
        tracemalloc.start()
        try:
            with pytest.raises(rp.ConfigError, match="budget"):
                cfg.validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_memory_budget_edge(self, monkeypatch):
        cfg = rp.RunConfig(n=3, samples=128)
        monkeypatch.setattr(rp, "MEMORY_BUDGET_BYTES", cfg.peak_loop_bytes())
        cfg.validate()
        monkeypatch.setattr(rp, "MEMORY_BUDGET_BYTES", cfg.peak_loop_bytes() - 1)
        with pytest.raises(rp.ConfigError, match="budget"):
            cfg.validate()

    def test_memory_budget_per_suite(self):
        # lie and loops hold a handful of loops; validation only, nothing runs
        for suite in ("lie", "loops", "pathfib"):
            rp.RunConfig(suite=suite, samples=16384).validate()
        for suite in ("string", "caloron", "centralext", "forms", "all"):
            with pytest.raises(rp.ConfigError, match="budget"):
                rp.RunConfig(suite=suite, samples=16384).validate()

    @pytest.mark.parametrize(
        "n, samples, pathfib_samples, want",
        [(2, 64, 256, 5_529_600), (2, 64, 4096, 8_388_608), (3, 128, 256, 11_059_200),
         (4, 64, 256, 11_829_248), (5, 1000, 4, 627_200_000)],
    )
    def test_memory_budget_of_all_is_the_largest_suite(self, n, samples, pathfib_samples, want):
        sizes = dict(n=n, samples=samples, pathfib_samples=pathfib_samples)
        assert rp.RunConfig(**sizes).peak_loop_bytes() == want
        assert want == max(rp.RunConfig(suite=s, **sizes).peak_loop_bytes() for s in rp.SUITES)

    @pytest.mark.parametrize(
        "name, n, samples",
        [pytest.param(name, 3, 256, id=name)
         for name in ("string.independence", "string.closed.k3", "string.gauge_invariance_twisted")]
        + [pytest.param(name, n, 64, id=f"{name}-n{n}")
           for name in ("caloron.transport", "caloron.transport_twisted",
                        "caloron.transport_twisted.step_refinement", "caloron.loop_bundle_slice",
                        "caloron.pontrjagyn_matches_string",
                        "caloron.pontrjagyn_matches_string_twisted")
           for n in (4, 5)],
    )
    def test_memory_budget_covers_traced_peak(self, name, n, samples):
        # the heaviest chart checks, at n = 3 where every check counts in
        # loops of its own n, and the caloron checks that build the extended
        # chart from n = 4 on, where its term of the budget passes
        # CHART_PEAK_LOOPS
        import tracemalloc

        cfg = rp.RunConfig(n=n, samples=samples)
        (check,) = [c for c in rp.checks_for("all") if c.name == name]
        rng = sampling.rng_for(cfg.seed, name)
        tracemalloc.start()
        try:
            check.run(cfg, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.peak_loop_bytes()

    def test_lie_suite_passes(self, lie_report):
        assert lie_report.all_passed
        assert all(c.name.startswith("lie.") for c in lie_report.checks)

    def test_checks_sorted_by_name(self, lie_report):
        names = [c.name for c in lie_report.checks]
        assert names == sorted(names)

    def test_determinism_bitwise(self, lie_report):
        again = rp.run_suite(rp.RunConfig(suite="lie", seed=99))
        for a, b in zip(lie_report.checks, again.checks):
            assert a.name == b.name
            assert a.residual == b.residual  # bitwise

    def test_seed_changes_residuals(self, lie_report):
        other = rp.run_suite(rp.RunConfig(suite="lie", seed=100))
        diffs = [
            a.residual != b.residual
            for a, b in zip(lie_report.checks, other.checks)
            if a.residual != 0.0
        ]
        assert any(diffs)

    def test_tolerance_override_forces_failure(self):
        cfg = rp.RunConfig(
            suite="lie",
            seed=99,
            tolerance_overrides={"lie.bracket.jacobi": 0.0},
        )
        report = rp.run_suite(cfg)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["lie.bracket.jacobi"]

    def test_unknown_override_name_rejected(self):
        cfg = rp.RunConfig(suite="lie", tolerance_overrides={"lie.bracket.jacobbi": 0.0})
        with pytest.raises(rp.ConfigError, match="lie.bracket.jacobbi"):
            cfg.validate()
        with pytest.raises(rp.ConfigError):
            rp.run_suite(cfg)

    def test_pass_flag_consistent(self, lie_report):
        for c in lie_report.checks:
            assert c.passed == (c.residual <= c.tolerance)


class TestRegistry:
    def test_matches_golden_registry(self):
        # check names seed the per-check generators: a renamed check
        # silently draws different data
        golden = json.loads((Path(__file__).parent / "golden" / "check_registry.json").read_text())
        registry = [
            {"name": name, "suite": suite, "anchor": anchor, "tolerance": tol}
            for name, suite, anchor, tol, _ in sorted(rp.checks_for("all"))
        ]
        assert registry == golden

    def test_raising_check_is_an_error_and_the_run_goes_on(self, monkeypatch):
        def raises(cfg, rng):
            raise ZeroDivisionError("planted")

        planted = rp.Check("lie.raises", "lie", "x/y", 1.0, raises)
        lie = rp.checks_for("lie")
        monkeypatch.setattr(rp, "_REGISTRY", rp._REGISTRY + [planted])
        report = rp.run_suite(rp.RunConfig(suite="lie", seed=99))
        by_name = {c.name: c for c in report.checks}
        assert set(by_name) == {c.name for c in lie} | {"lie.raises"}
        rec = by_name.pop("lie.raises")
        assert (rec.status, rec.error, rec.passed) == ("error", "ZeroDivisionError", False)
        assert math.isnan(rec.residual)
        assert all(c.status == "pass" and c.error == "" for c in by_name.values())
        text = rp.emit_report(report, "text")
        assert "ZeroDivisionError" in text and "1 raised an error" in text

    def test_nan_trial_fails_the_check(self, monkeypatch):
        trials = iter([1e-20, math.nan, 1e-20])

        def check(cfg, rng):
            return rp._worst_over(3, lambda: next(trials))

        monkeypatch.setattr(rp, "_REGISTRY", [rp.Check("lie.nan_trial", "lie", "x/y", 1e-10, check)])
        (rec,) = rp.run_suite(rp.RunConfig(suite="lie")).checks
        assert math.isnan(rec.residual)
        assert not rec.passed


class TestP1Normalization:
    # p1 = -(1/8 pi^2) <., .> is written once, in liecore.  Two checks hold
    # it against a normalization of their own: string.higher_matches_degree3
    # against -(1/4 pi^2) Int <F, nabla Phi> dtheta, pathfib.generator
    # against the generator (1/48 pi^2) <., [., .]>.
    NAMES = ("pathfib.generator", "string.higher_matches_degree3")

    def test_checks_fail_a_scaled_p1(self, monkeypatch):
        p1 = rp.liecore.pontrjagyn_polynomial

        def scaled():
            f = p1()
            return rp.liecore.InvariantPolynomial(f.degree, (1.0 + 1e-6) * f.scale)

        for name, module in list(sys.modules.items()):
            if name.startswith("loopforms") and getattr(module, "pontrjagyn_polynomial", None) is p1:
                monkeypatch.setattr(module, "pontrjagyn_polynomial", scaled)
        checks = [c for c in rp.checks_for("all") if c.name in self.NAMES]
        monkeypatch.setattr(rp, "_REGISTRY", checks)
        report = rp.run_suite(rp.RunConfig())
        assert {c.name: c.status for c in report.checks} == dict.fromkeys(self.NAMES, "FAIL")


class TestEmit:
    def test_json_shape(self, lie_report):
        payload = json.loads(rp.emit_report(lie_report, "json"))
        assert set(payload) == {"config", "seed", "checks"}
        assert payload["seed"] == 99
        for check in payload["checks"]:
            assert set(check) == {
                "name",
                "anchor",
                "residual",
                "tolerance",
                "pass",
                "millis",
                "status",
                "error",
            }

    def test_json_roundtrip_preserves_fields(self, lie_report):
        payload = json.loads(rp.emit_report(lie_report, "json"))
        for rec, check in zip(payload["checks"], lie_report.checks):
            assert rec["name"] == check.name
            assert rec["residual"] == check.residual
            assert rec["tolerance"] == check.tolerance
            assert rec["pass"] == check.passed

    def test_empty_report_valid_json(self):
        empty = rp.VerificationReport(suite="lie", seed=1, config={}, checks=())
        payload = json.loads(rp.emit_report(empty, "json"))
        assert payload["checks"] == []

    def test_csv_header_and_rows(self, lie_report):
        text = rp.emit_report(lie_report, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "name", "anchor", "residual", "tolerance", "pass", "millis", "status", "error"
        ]
        assert len(rows) == len(lie_report.checks) + 1

    def test_single_check_csv_two_lines(self):
        single = rp.VerificationReport(
            suite="lie",
            seed=1,
            config={},
            checks=(
                rp.CheckRecord("a.b", "x/y", 0.0, 1.0, True, 0.1, "pass", ""),
            ),
        )
        text = rp.emit_report(single, "csv").strip()
        assert len(text.splitlines()) == 2

    def test_text_table(self, lie_report):
        text = rp.emit_report(lie_report, "text")
        assert "all passed" in text

    def test_unknown_format(self, lie_report):
        with pytest.raises(ValueError):
            rp.emit_report(lie_report, "yaml")

    def test_json_schema_matches_golden_file(self, lie_report):
        golden = json.loads(
            (Path(__file__).parent / "golden" / "report_schema.json").read_text()
        )
        payload = json.loads(rp.emit_report(lie_report, "json"))
        assert sorted(payload) == golden["top_level"]
        assert sorted(payload["config"]) == golden["config"]
        for check in payload["checks"]:
            assert sorted(check) == golden["check_record"]


class TestCoefficientTable:
    def test_k1(self):
        rows = list(csv.reader(io.StringIO(rp.coefficient_table(1))))
        assert rows[0] == ["k", "lhs", "rhs", "equal"]
        assert rows[1] == ["1", "1", "1", "True"]

    def test_k2_exact_thirds(self):
        rows = list(csv.reader(io.StringIO(rp.coefficient_table(2))))
        assert rows[2] == ["2", "1/3", "1/3", "True"]

    def test_k20_all_equal(self):
        rows = list(csv.reader(io.StringIO(rp.coefficient_table(20))))
        assert len(rows) == 21
        assert all(r[3] == "True" for r in rows[1:])

    def test_rejects_bad_kmax(self):
        with pytest.raises(rp.ConfigError):
            rp.coefficient_table(0)


class TestCLI:
    def test_verify_exit_zero(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli_main(
            ["verify", "--suite", "lie", "--seed", "99", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(c["pass"] for c in payload["checks"])

    def test_verify_exit_nonzero_on_failure(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"tolerance_overrides": {"lie.bracket.jacobi": 0.0}})
        )
        code = cli_main(
            ["verify", "--suite", "lie", "--seed", "99", "--config", str(cfgfile),
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1

    @pytest.mark.parametrize("override", [{}, {"lie.bracket.jacobi": 0.0}],
                             ids=["only-error", "error-and-fail"])
    def test_raising_check_exit_three(self, override, monkeypatch, tmp_path):
        def raises(cfg, rng):
            raise RuntimeError("planted")

        planted = rp.Check("lie.raises", "lie", "x/y", 1.0, raises)
        monkeypatch.setattr(rp, "_REGISTRY", rp._REGISTRY + [planted])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tolerance_overrides": override}))
        out = tmp_path / "r.json"
        code = cli_main(["verify", "--suite", "lie", "--seed", "99", "--config", str(cfgfile),
                         "--format", "json", "--out", str(out)])
        assert code == 3
        records = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert len(records) == len(rp.checks_for("lie"))
        assert (records["lie.raises"]["status"], records["lie.raises"]["error"]) == (
            "error", "RuntimeError")
        assert [n for n, c in records.items() if c["status"] == "FAIL"] == list(override)

    def test_config_error_exit_two(self):
        code = cli_main(["verify", "--samples", "2"])
        assert code == 2

    def test_unknown_config_field_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"spam": 1}))
        code = cli_main(["verify", "--config", str(cfgfile)])
        assert code == 2

    def test_unknown_override_name_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"tolerance_overrides": {"lie.bracket.jacobbi": 0.0}})
        )
        out = tmp_path / "r.json"
        code = cli_main(
            ["verify", "--suite", "lie", "--config", str(cfgfile), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "lie.bracket.jacobbi" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify", "--suite", "lie"],
                                         ["table", "coefficients", "--kmax", "3"]],
                             ids=["verify", "table"])
    def test_unwritable_out_exit_two(self, command, tmp_path, monkeypatch, capsys):
        def must_not_run(suite):
            raise AssertionError("checks selected")

        monkeypatch.setattr(rp, "checks_for", must_not_run)
        out = tmp_path / "missing-dir" / "r.json"
        code = cli_main(command + ["--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_memory_budget_exit_two(self, monkeypatch, capsys):
        # run_suite validates the config before it selects any check
        def must_not_run(suite):
            raise AssertionError("checks selected")

        monkeypatch.setattr(rp, "checks_for", must_not_run)
        code = cli_main(["verify", "--samples", "100000000", "--n", "50"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, env_seed",
        [
            ({"tolerance_overrides": {"lie.bracket.jacobi": "x"}}, None),
            ({"tolerance_overrides": {"lie.bracket.jacobi": -1}}, None),
            ({"fd_step": "1e-4"}, None),
            ({"samples": 64.0, "suite": "loops"}, None),
            ({"seed": "7"}, None),
            ({"tolerance_overrides": ["lie.bracket.jacobi"]}, None),
            ({}, "abc"),
            ([1, 2], None),
        ],
        ids=["override-str", "override-negative", "fd_step-str", "samples-float",
             "seed-str", "overrides-list", "env-seed", "config-not-object"],
    )
    def test_bad_input_exit_two(self, config, env_seed, tmp_path, monkeypatch, capsys):
        def must_not_run(suite):
            raise AssertionError("checks selected")

        monkeypatch.setattr(rp, "checks_for", must_not_run)
        if env_seed is None:
            monkeypatch.delenv("LOOPFORMS_SEED", raising=False)
        else:
            monkeypatch.setenv("LOOPFORMS_SEED", env_seed)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        code = cli_main(["verify", "--config", str(cfgfile), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "{not json", "\xff"],
                             ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_config_exit_two(self, text, tmp_path, monkeypatch, capsys):
        def must_not_run(suite):
            raise AssertionError("checks selected")

        monkeypatch.setattr(rp, "checks_for", must_not_run)
        cfgfile = tmp_path / "cfg.json"
        if text is not None:
            cfgfile.write_bytes(text.encode("latin-1"))
        out = tmp_path / "r.json"
        code = cli_main(["verify", "--config", str(cfgfile), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_suite_honoured(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"suite": "pathfib"}))
        out = tmp_path / "r.json"
        code = cli_main(
            ["verify", "--config", str(cfgfile), "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["suite"] == "pathfib"
        assert len(payload["checks"]) == 11

    def test_table_subcommand(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli_main(["table", "coefficients", "--kmax", "3", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 4

    def test_env_seed_override(self, tmp_path):
        proc = run_cli(
            "verify", "--suite", "lie", "--format", "json",
            env_extra={"LOOPFORMS_SEED": "12345"},
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["seed"] == 12345

    def test_flag_beats_env(self, tmp_path):
        proc = run_cli(
            "verify", "--suite", "lie", "--seed", "7", "--format", "json",
            env_extra={"LOOPFORMS_SEED": "12345"},
        )
        payload = json.loads(proc.stdout)
        assert payload["seed"] == 7

    def test_csv_stdout(self):
        proc = run_cli("verify", "--suite", "lie", "--format", "csv")
        assert proc.returncode == 0
        first = proc.stdout.splitlines()[0]
        assert first == "name,anchor,residual,tolerance,pass,millis,status,error"


class TestThreadPin:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def thread_env(self, code, **env):
        import os

        base = {k: v for k, v in os.environ.items() if k not in self.VARS}
        base["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
        code += "; import os; print(*(os.environ.get(v) for v in %r))" % (self.VARS,)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env}
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_pinned_before_numpy_user_value_kept(self):
        assert self.thread_env("import loopforms") == ["1", "1", "1"]
        assert self.thread_env("import loopforms", OMP_NUM_THREADS="3") == ["1", "3", "1"]

    def test_untouched_after_numpy(self):
        assert self.thread_env("import numpy, loopforms") == ["None"] * 3


class TestNoScipyAtRuntime:
    def test_cli_and_logarithm_suites_never_import_scipy(self):
        """The runtime needs numpy only; pytest has scipy loaded, so a fresh
        interpreter runs the two suites that take a matrix logarithm."""
        import os

        code = (
            "import sys, loopforms, loopforms.cli\n"
            "from loopforms import report\n"
            "for suite in ('pathfib', 'caloron'):\n"
            "    rep = report.run_suite(report.RunConfig(suite=suite))\n"
            "    assert rep.checks and not [c.name for c in rep.checks if c.status == 'error']\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestTransportConvergence:
    @pytest.mark.parametrize("args", [[], ["--twisted"]], ids=["lg", "twisted"])
    def test_second_order_ladder(self, args):
        script = str(ROOT / "scripts" / "transport_convergence.py")
        proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        assert len(rows) == 9
        # the truncation-dominated steps 2e-2 ... 2.5e-3 quarter the residual
        ratios = {float(step): float(ratio) for step, _, ratio in rows[1:]}
        for step in (2e-2, 1e-2, 5e-3, 2.5e-3):
            assert 3.5 <= ratios[step] <= 4.5, (step, ratios[step])


class TestLoopRepeats:
    def test_forms_suite_smoke(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "loop_repeats.py"), "--suite", "forms"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "forms.pure_gauge_flat" in proc.stdout
        assert "5 checks, all passed" in proc.stdout

    def test_one_check(self):
        script = str(ROOT / "scripts" / "loop_repeats.py")
        proc = subprocess.run(
            [sys.executable, script, "--suite", "forms", "--check", "forms.d_squared"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        table = proc.stdout.split("\n\n")[0].splitlines()
        assert [row.split()[0] for row in table[1:]] == ["forms.d_squared", "total"]
        assert "1 checks, all passed" in proc.stdout
        proc = subprocess.run(
            [sys.executable, script, "--suite", "lie", "--check", "forms.d_squared"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "no check 'forms.d_squared' in suite lie" in proc.stderr


class TestCoeffRepeats:
    def test_forms_suite_smoke(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "coeff_repeats.py"), "--suite", "forms"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert any(row.split()[:1] == ["total"] for row in proc.stdout.splitlines())
        assert "5 checks, all passed" in proc.stdout


class TestMutationSweep:
    SCRIPT = str(ROOT / "scripts" / "mutation_sweep.py")

    def test_one_mutant_on_the_caloron_suite(self):
        proc = subprocess.run(
            [sys.executable, self.SCRIPT, "--suite", "caloron", "--mutant", "M6"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        (row,) = [line for line in proc.stdout.splitlines() if line.startswith("M6 ")]
        killers = {word.rstrip(",") for word in row.split()}
        assert "caloron.pontrjagyn_matches_string_twisted" in killers
        assert "caloron.pontrjagyn_matches_string" not in killers
        assert proc.stdout.splitlines()[-1] == "killed 1 of 1 (1.00)"

    def test_every_mutant_text_occurs_once(self):
        # a mutant whose text has moved or gone is stale; the sweep would
        # refuse it only when it runs
        sweep = _script("mutation_sweep")
        assert sweep.stale(sweep.MUTANTS) == []

    def test_unknown_mutant_runs_nothing(self):
        proc = subprocess.run(
            [sys.executable, self.SCRIPT, "--mutant", "M0"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "unknown mutant" in proc.stderr and proc.stdout == ""


class TestDiffReports:
    def run_diff(self, tmp_path, before, after):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(before))
        b.write_text(json.dumps(after))
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "diff_reports.py"), str(a), str(b)],
            capture_output=True,
            text=True,
        )

    def test_identical_reports_agree(self, tmp_path, lie_report):
        payload = json.loads(rp.emit_report(lie_report, "json"))
        proc = self.run_diff(tmp_path, payload, payload)
        assert proc.returncode == 0

    def test_headroom_min_and_median_printed(self, tmp_path, lie_report):
        # log10(tol / residual), a residual below tol * 1e-16 read as 16 decades
        payload = json.loads(rp.emit_report(lie_report, "json"))
        dec = [math.log10(c["tolerance"] / max(c["residual"], c["tolerance"] * 1e-16))
               for c in payload["checks"] if c["tolerance"] > 0]
        proc = self.run_diff(tmp_path, payload, payload)
        want = f"min {min(dec):.4f} dec, median {statistics.median(dec):.4f} dec"
        assert f"headroom before: {want}" in proc.stdout
        assert f"headroom after: {want}" in proc.stdout

    def test_every_kind_of_difference_is_listed(self, tmp_path, lie_report):
        before = json.loads(rp.emit_report(lie_report, "json"))
        after = json.loads(rp.emit_report(lie_report, "json"))
        removed = after["checks"].pop()
        after["checks"][0]["residual"] = math.nextafter(after["checks"][0]["residual"], 1.0)
        after["checks"][1]["tolerance"] *= 2.0
        after["checks"][2]["anchor"] = "moved/anchor"
        for report, exc in ((before, "ValueError"), (after, "TypeError")):
            report["checks"][3].update(residual=math.nan, status="error", error=exc)
        after["config"]["seed"] = before["config"]["seed"] + 1
        proc = self.run_diff(tmp_path, before, after)
        assert proc.returncode == 1
        out = proc.stdout
        assert f"removed: {removed['name']}" in out
        assert f"residual changed: {before['checks'][0]['name']}" in out
        assert f"tolerance changed: {before['checks'][1]['name']}" in out
        assert f"anchor changed: {before['checks'][2]['name']}" in out
        assert f"error changed: {before['checks'][3]['name']}" in out
        seed = before["config"]["seed"]
        assert f"config changed: seed: {seed} -> {seed + 1}" in out
        assert "6 differences" in out


# perfbench/run.py stand-in: starts one child, writes "own child" pids, sleeps
_STUB_RUN = """\
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
path = os.environ["STUB_PIDS"]
with open(path + ".part", "w") as fh:
    fh.write(f"{os.getpid()} {child.pid}")
os.replace(path + ".part", path)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether a process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
class TestBenchPairs:
    def test_machine_without_scipy(self):
        env = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas_threads": 1}
        line = _script("bench_pairs").machine(env)
        assert "numpy 2.4.6, scipy not installed, BLAS 1 thread(s)" in line

    def test_sigterm_kills_the_run_and_removes_the_base_tree(self, tmp_path):
        import os
        import shutil
        import signal
        import time

        repo = tmp_path / "repo"
        (repo / "scripts").mkdir(parents=True)
        (repo / "perfbench").mkdir()
        shutil.copy(ROOT / "scripts" / "bench_pairs.py", repo / "scripts")
        (repo / "perfbench" / "run.py").write_text(_STUB_RUN)
        (repo / "BENCHMARK.json").write_text('{"end_to_end": []}')
        for args in (["init", "-q"], ["add", "-A"],
                     ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "stub"]):
            subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
        tmpdir, pids = tmp_path / "tmp", tmp_path / "pids"
        tmpdir.mkdir()
        env = dict(os.environ, TMPDIR=str(tmpdir), STUB_PIDS=str(pids))
        proc = subprocess.Popen(
            [sys.executable, "scripts/bench_pairs.py", "HEAD", "--workload", "w",
             "--pairs", "1", "--out-prefix", str(tmp_path / "B")],
            cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        started = []
        try:
            deadline = time.monotonic() + 30.0
            while not pids.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            started = [int(p) for p in pids.read_text().split()]
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
            assert proc.returncode == 128 + signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while any(map(_running, started)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, started))
            assert list(tmpdir.iterdir()) == []
        finally:
            for pid in [proc.pid] + started:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()


class TestStep:
    # checks of the string and caloron suites whose data or identity takes a
    # central difference at fd_step.  The rest (exact identities and the
    # fixed-step refinement ratios) must not see --step at all.  Each suite
    # runs at one fixed seed.
    FD_CHECKS = {
        "string": [
            "string.closed.k1",
            "string.closed.k2",
            "string.closed.k3",
            "string.covariant_derivative_identity",
            "string.gauge_invariance",
            "string.gauge_invariance_twisted",
            "string.independence",
        ],
        "caloron": [
            "caloron.loop_bundle_slice",
            "caloron.pontrjagyn_matches_string",
            "caloron.pontrjagyn_matches_string_twisted",
            "caloron.transport",
            "caloron.transport.base_point",
            "caloron.transport_twisted",
        ],
    }
    # checks that compare two forms built from one finite-difference
    # curvature: the step cancels, and whether their round-off residual
    # moves with it depends on the seed (and on the rounding of the
    # invariant polynomial), so neither "moved" nor "kept" can be pinned.
    # Each is tested by the step its stencil receives: the fd_step of the
    # connection data handed to the builder named here.
    SAME_STENCIL = {
        "string.higher_matches_degree3": "connections.higher_string_form",
    }

    @pytest.mark.parametrize(
        "suite, seed", [("string", rp.DEFAULT_SEED), ("caloron", 1)], ids=["string", "caloron"]
    )
    def test_step_reaches_every_stencil(self, suite, seed):
        residuals = {}
        for h in (1e-4, 1e-3):
            rep = rp.run_suite(rp.RunConfig(suite=suite, samples=16, fd_step=h, seed=seed))
            residuals[h] = {c.name: c.residual for c in rep.checks}
        assert set(self.FD_CHECKS[suite]) < set(residuals[1e-4])
        for name, r in residuals[1e-4].items():
            if name in self.SAME_STENCIL:
                continue
            moved = r != residuals[1e-3][name]
            assert moved == (name in self.FD_CHECKS[suite]), name

    @pytest.mark.parametrize("name", sorted(SAME_STENCIL))
    def test_step_reaches_same_stencil_pairs(self, name, monkeypatch):
        module, attr = self.SAME_STENCIL[name].split(".")
        owner = getattr(rp, module)
        build = getattr(owner, attr)
        steps = []

        def spy(*args):
            steps.append(args[-1].fd_step)
            return build(*args)

        monkeypatch.setattr(owner, attr, spy)
        ((_, suite, _, _, fn),) = [e for e in rp.checks_for("all") if e[0] == name]
        cfg = rp.RunConfig(suite=suite, samples=16, fd_step=1e-3)
        fn(cfg, rp.sampling.rng_for(cfg.seed, name))
        assert steps and set(steps) == {1e-3}
