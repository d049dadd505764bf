import itertools
import json
import math
import os
import re
from collections import Counter

import numpy as np
import pytest

from entcap.cli import RunConfig, main, parse_grid_spec
from entcap.core import ConfigurationError
from entcap.mixed import capacity_mixed, closest_separable_family, family_state
from entcap.speed_limits import family_entropy, family_sqrt_capacity


def counted(function, calls):
    def wrapper(*args, **kwargs):
        calls[function.__name__] += 1
        return function(*args, **kwargs)
    return wrapper


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            for piece in line[1:].split():
                if "=" in piece:
                    k, v = piece.split("=", 1)
                    meta[k] = v
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return meta, header, rows


class TestGridSpec:
    def test_parse(self):
        assert parse_grid_spec("p=0:1:11,t=0:2:5") == {"p": (0.0, 1.0, 11), "t": (0.0, 2.0, 5)}

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        code = main(["--command", "figure1", "--grid", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("argv, config", [
        (["--command", "maximize", "--target", "h-max", "--mu", "1,2"], None),
        (["--command", "maximize", "--target", "h-max", "--mu", "1,x,0"], None),
        (["--command", "figure2", "--theta-list", "a"], None),
        (None, {"command": "figures34", "lambda_count": "a"}),
        (None, {"command": "figure1", "grid": {"p": [0, 1]}}),
        (["--command", "figure1", "--grid", "p=0:2:3"], None),
        (["--command", "figure1", "--grid", "p=-1:1:3"], None),
        (["--command", "figure2", "--grid", "T=0:1:0"], None),
        (["--command", "verify", "--n-samples", "-5"], None),
        (["--command", "verify", "--n-samples", "0"], None),
        (["--command", "figures34", "--lambda-count", "0"], None),
        (["--command", "figures34", "--lambda-count", "-3"], None),
        # grid axes the command does not read
        (["--command", "figure2", "--grid", "t=0:1:3"], None),
        (["--command", "figure1", "--grid", "T=0:1:3"], None),
        (["--command", "verify", "--grid", "p=0:1:3"], None),
        (None, {"command": "figure2", "grid": {"t": [0, 1, 3]}}),
        # values outside a field's choices
        (["--command", "figure1", "--log-base", "3"], None),
        (["--command", "figures34", "--method", "foo"], None),
        (None, {"command": "figures34", "family": 3}),
        # fields the command does not read, on a flag or as a config key
        (["--command", "figure2", "--theta", "0.3"], None),
        (["--command", "figure2", "--family", "2"], None),
        (["--command", "figure2", "--mu", "3,2,1"], None),
        (["--command", "figure1", "--theta-list", "9"], None),
        (["--command", "maximize", "--target", "beta", "--n-samples", "5"], None),
        (None, {"command": "verify", "theta": 1.0}),
        # a theta above core.MAX_ENTRY, whose product with a duration can overflow
        (["--command", "figure2", "--theta-list", "1e308", "--grid", "T=0:10:3"], None),
        # a negative seed, an infinite coupling and an infinite grid end
        (None, {"command": "verify", "seed": -1}),
        (["--command", "maximize", "--target", "h-max", "--mu", "inf,0,0"], None),
        (["--command", "figure1", "--grid", "p=0:1:2,t=0:inf:3"], None),
        # a figure1 theta above core.MAX_ENTRY and a coupling whose square overflows
        (["--command", "figure1", "--theta", "1e308", "--grid", "p=0:1:3,t=0:3:3"], None),
        (["--command", "maximize", "--target", "h-max", "--mu", "1e200,0,0"], None),
        # the flag forms of a family outside {1, 2}, a negative seed and an infinite theta
        (["--command", "figures34", "--family", "3"], None),
        (["--command", "verify", "--seed", "-1"], None),
        (["--command", "figure2", "--theta-list", "inf"], None),
        # an empty theta list, as a flag and as a config key, would make a header-only figure
        (["--command", "figure2", "--theta-list", ","], None),
        (None, {"command": "figure2", "theta_list": []}),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, argv, config):
        if config is not None:
            with pytest.raises(ConfigurationError):
                RunConfig.from_json(json.dumps(config))
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv = ["--config", str(cfg_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")


class TestFigure1:
    def test_csv_content(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main(["--command", "figure1", "--log-base", "2", "--out", str(out),
                     "--grid", "p=0:1:11,t=0:2:9"])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["p", "t", "C_E", "S_EE"]
        assert meta["log_base"] == "2"
        assert len(rows) == 11 * 9
        for row in rows:
            p, t, cap, ent = (float(x) for x in row)
            if p == 0.5:
                assert abs(cap) < 1e-12
            if t == 0.0 and 0.0 < p < 1.0:
                expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
                assert ent == pytest.approx(expected, abs=1e-10)
        # the (p, t) mesh gives each p row the bits of a call on the t grid alone
        table = np.array(rows, dtype=float).reshape(11, 9, 4)
        ts = np.linspace(0.0, 2.0, 9)
        for p, block in zip(np.linspace(0.0, 1.0, 11), table):
            assert np.array_equal(block[:, 2], family_sqrt_capacity(p, 1.0, ts, "2") ** 2)
            assert np.array_equal(block[:, 3], family_entropy(p, 1.0, ts, "2"))

    def test_desk_scale_runtime(self, tmp_path):
        import time

        out = tmp_path / "fig1_large.csv"
        start = time.monotonic()
        assert main(["--command", "figure1", "--out", str(out),
                     "--grid", "p=0:1:101,t=0:3:101"]) == 0
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exit_code(self, tmp_path, theta):
        # a configuration error, as figure2 treats a bad theta; no CSV is written
        out = tmp_path / "fig1_bad.csv"
        assert main(["--command", "figure1", f"--theta={theta}", "--out", str(out)]) == 2
        assert not out.exists()


class TestFigure2:
    def test_bound_and_ratio(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["--command", "figure2", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["theta", "T", "T_qsl", "ratio"]
        thetas = set()
        for row in rows:
            theta, duration, t_qsl, ratio = (float(x) for x in row)
            thetas.add(theta)
            assert t_qsl <= duration + 1e-9
            if duration <= 0.45:
                assert ratio >= 0.95
        assert thetas == {0.5, 1.0}

    def test_small_duration_no_blowup(self, tmp_path):
        out = tmp_path / "fig2s.csv"
        assert main(["--command", "figure2", "--grid", "T=0:0.01:45", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row)

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_bad_theta_exit_code(self, tmp_path, theta):
        # a non-finite theta once built arrays of unbounded size and ended in a traceback
        out = tmp_path / "fig2_bad.csv"
        assert main(["--command", "figure2", "--theta-list", f"0.5,{theta}", "--out", str(out)]) == 2
        assert not out.exists()

    def test_default_durations_are_the_grid(self, tmp_path):
        out_default, out_grid = tmp_path / "default.csv", tmp_path / "grid.csv"
        assert main(["--command", "figure2", "--out", str(out_default)]) == 0
        assert main(["--command", "figure2", "--grid", "T=0:0.45:45", "--out", str(out_grid)]) == 0
        assert out_default.read_bytes() == out_grid.read_bytes()

    def test_window_of_many_periods(self, tmp_path):
        # 2 theta T = 6000: the quadrature's panels cover one period
        out = tmp_path / "fig2long.csv"
        assert main(["--command", "figure2", "--theta-list", "3", "--grid", "T=0:1000:5", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5 and all(math.isfinite(float(x)) for row in rows for x in row)

    def test_grid_sets_duration_range(self, tmp_path):
        # count durations spaced evenly over (lo, hi], for each theta
        out = tmp_path / "fig2g.csv"
        assert main(["--command", "figure2", "--grid", "T=0.1:0.5:4", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        durations = [float(row[1]) for row in rows]
        assert durations == pytest.approx([0.2, 0.3, 0.4, 0.5] * 2, abs=1e-15)


class TestFigures34:
    def test_analytic_rows(self, tmp_path):
        out = tmp_path / "fig34.csv"
        assert main(["--command", "figures34", "--family", "1", "--lambda-count", "11",
                     "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["lambda", "E_R", "C_E", "method", "converged"]
        first = rows[0]
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) < 1e-10
        assert abs(float(first[2])) < 1e-8
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert abs(float(last[2])) < 1e-8

    def test_numeric_agrees_with_analytic(self, tmp_path):
        # both families in both bases at the default 101 lambda: every numeric row is converged, with E_R
        # and C_E within 1e-9 of the closed forms (the barrier's C_E reads 3e-10 off in nats, 6.3e-10 in
        # bits).  The lambda = 1 row is the Bell state, solved on the exact pure path, so its C_E agrees
        # to 1e-13.  Family 2 is maximally correlated: its rows at 0 < lambda < 1 take the exact
        # correlated path, with E_R and C_E within 1e-13
        outs = {run: tmp_path / f"{run}.csv" for run in ("analytic", "numeric", "again")}
        for family, base in itertools.product("12", "e2"):
            args = ["--command", "figures34", "--family", family, "--log-base", base]
            assert main(args + ["--method", "analytic", "--out", str(outs["analytic"])]) == 0
            for run in ("numeric", "again"):
                assert main(args + ["--method", "numeric", "--out", str(outs[run])]) == 0
            # a fixed-seed output is byte-identical from run to run
            assert outs["numeric"].read_bytes() == outs["again"].read_bytes(), (family, base)
            _, _, rows_a = read_csv(outs["analytic"])
            _, _, rows_n = read_csv(outs["numeric"])
            assert len(rows_n) == 101, (family, base)
            for ra, rn in zip(rows_a, rows_n, strict=True):
                assert rn[0] == ra[0] and rn[4] == "1", (family, base, rn)
                correlated = family == "2" and 0.0 < float(rn[0]) < 1.0
                assert (rn[3] == "exact-correlated") == correlated, (family, base, rn)
                assert abs(float(rn[1]) - float(ra[1])) <= (1e-13 if correlated else 1e-9), (family, base, rn)
                exact = correlated or rn[0] == "1.0"
                assert abs(float(rn[2]) - float(ra[2])) <= (1e-13 if exact else 1e-9), (family, base, rn)

    @pytest.mark.parametrize("base", ["2", "e"])
    @pytest.mark.parametrize("family", [1, 2])
    def test_stacked_rows_match_one_lambda_calls(self, tmp_path, family, base):
        # one stacked check, relative entropy and capacity over every lambda
        # give each row's bits of the one-lambda public functions
        out = tmp_path / "fig34.csv"
        assert main(["--command", "figures34", "--family", str(family), "--log-base", base,
                     "--lambda-count", "37", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 37
        for row, lam in zip(rows, np.linspace(0.0, 1.0, 37)):
            approx = closest_separable_family(family, float(lam), base)
            cap = capacity_mixed(family_state(family, float(lam)), approx.sigma_star, base)
            assert row == [repr(float(lam)), repr(approx.relative_entropy), repr(cap), approx.method, "1"]

    @pytest.mark.parametrize("family", [1, 2])
    def test_analytic_linalg_calls_do_not_grow_with_lambda_count(self, monkeypatch, family):
        # two stacked density checks (one eigvalsh each, plus one eigh where
        # some matrix needs the round-off clamp), two eigh for E_R, two for C_E,
        # whatever the number of lambda.  Family 2's rho needs the clamp at 1001
        # lambda but not at 11
        calls = Counter()
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), calls))
        counts = []
        for count in ("11", "1001"):
            calls.clear()
            assert main(["--command", "figures34", "--family", str(family), "--lambda-count", count,
                         "--out", os.devnull]) == 0
            counts.append(sum(calls.values()))
        assert counts == ([8, 8] if family == 1 else [6, 7])

    def test_bad_family(self):
        assert main(["--command", "figures34", "--family", "3"]) == 2


class TestMaximize:
    def test_ancilla_factor(self, tmp_path):
        out = tmp_path / "anc.txt"
        assert main(["--command", "maximize", "--target", "ancilla-factor",
                     "--out", str(out)]) == 0
        text = out.read_text()
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line and not line.startswith("#"))
        assert float(fields["maximizer p0"]) == pytest.approx(0.6036, abs=5e-4)
        assert float(fields["value"]) == pytest.approx(1.4459, abs=1e-3)
        assert float(fields["capacity_at_maximizer"]) == pytest.approx(0.5523, abs=1e-3)

    def test_rate_factor_reports_discrepancy(self, tmp_path):
        out = tmp_path / "rf.txt"
        assert main(["--command", "maximize", "--target", "rate-factor",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "reported_value=1.2108" in text
        assert "discrepancy=" in text
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line and not line.startswith("#"))
        assert 0.003 < float(fields["maximizer p0"]) < 0.008

    def test_beta(self, tmp_path):
        out = tmp_path / "beta.txt"
        assert main(["--command", "maximize", "--target", "beta", "--log-base", "2",
                     "--out", str(out)]) == 0
        fields = dict(line.split("=", 1) for line in out.read_text().splitlines()
                      if "=" in line and not line.startswith("#"))
        assert float(fields["value"]) == pytest.approx(1.9123, abs=1e-4)

    @pytest.mark.parametrize("target", ["rate-factor", "ancilla-factor"])
    def test_maximizer_p0_same_in_both_bases(self, tmp_path, target):
        # a rate factor scales with the log base as the capacity does, so its maximizer prints the same
        lines = []
        for base in ("2", "e"):
            out = tmp_path / f"{base}.txt"
            assert main(["--command", "maximize", "--target", target, "--log-base", base, "--out", str(out)]) == 0
            lines.append([line for line in out.read_text().splitlines() if line.startswith("maximizer p0=")])
        assert len(lines[0]) == 1 and lines[0] == lines[1]

    def test_h_max(self, tmp_path):
        # the default mu = (1, 0.5, 0.2), then degenerate and near-degenerate couplings; maximize exits 0
        # whatever the discrepancy, so the test reads it
        out = tmp_path / "hmax.txt"
        for mu, analytic in ((None, 1.5), ("2,1e-9,0", 2.000000001), ("1,0,0", 1.0), ("1,1,1", 2.0)):
            assert main(["--command", "maximize", "--target", "h-max", *(["--mu", mu] if mu else []),
                         "--out", str(out)]) == 0
            fields = dict(line.split("=", 1) for line in out.read_text().splitlines()
                          if "=" in line and not line.startswith("#"))
            assert float(fields["analytic"]) == analytic, mu
            assert float(fields["numeric"]) == pytest.approx(analytic, abs=1e-12), mu
            assert float(fields["discrepancy"]) <= 1e-12, mu

    def test_unknown_target(self):
        assert main(["--command", "maximize", "--target", "nope"]) == 2


class TestVerify:
    def test_exit_code_and_determinism(self, tmp_path):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        args = ["--command", "verify", "--suite", "properties", "--n-samples", "40",
                "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "PASS hard" in text
        assert "FAIL hard" not in text

    def test_summary_counts_hard_failures_only(self):
        from entcap.verify import CheckResult, format_report, hard_failures

        results = [CheckResult("a", True, False, ""), CheckResult("b", False, False, ""),
                   CheckResult("c", True, True, "")]
        assert hard_failures(results) == 1
        assert format_report(results).endswith("SUMMARY checks=3 hard_failures=1\n")

    def test_properties_report_pinned(self, tmp_path):
        # pins the RNG draw order of every properties ensemble (each drawn
        # whole, one generator call per quantity) as well as every check
        out = tmp_path / "vp.txt"
        assert main(["--command", "verify", "--suite", "properties", "--n-samples", "50",
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.read_text() == (
            "# command=verify suite=properties n_samples=50 seed=7 log_base=e\n"
            "PASS hard partial-trace-factor-recovery max_dev=2.220e-16\n"
            "PASS hard schmidt-equals-reduced-spectrum max_dev=2.220e-16\n"
            "PASS hard entropy-base-conversion max_dev=2.220e-16\n"
            "PASS hard relative-entropy-nonnegative min_value=1.759e-01\n"
            "PASS hard capacity-additivity max_dev=8.882e-16\n"
            "PASS hard capacity-positivity min_value=1.529e-01\n"
            "PASS hard flat-state-zero-capacity max_dev=0.000e+00\n"
            "PASS hard uncertainty-convexity max_excess=-1.564e-03\n"
            "PASS hard uncertainty-perturbation max_excess=-2.086e-01\n"
            "PASS hard capacity-subsystem-symmetry max_dev=6.106e-16\n"
            "PASS hard max-variance-bracket d3=1.5856,d4=2.1303,d8=3.6977,d16=5.6587\n"
            "PASS hard family-closest-states-ppt lam in {0,0.3,0.7,1}\n"
            "PASS soft continuity-constant-estimate xi_hat=0.104642\n"
            "PASS soft subadditivity-constant-estimate chi_hat=0.193128\n"
            "SUMMARY checks=14 hard_failures=0\n"
        )

    @pytest.mark.parametrize("suite", ["bounds", "properties"])
    def test_large_ensemble(self, tmp_path, suite):
        # the batched checks at 10000 samples; verify exits 1 on a hard failure
        out = tmp_path / "v.txt"
        assert main(["--command", "verify", "--suite", suite, "--n-samples", "10000", "--seed", "1",
                     "--out", str(out)]) == 0

    def test_bounds_suite(self, tmp_path):
        out = tmp_path / "vb.txt"
        assert main(["--command", "verify", "--suite", "bounds", "--n-samples", "20",
                     "--seed", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "entanglement-rate-bound" in text
        assert "qsl-validity" in text
        assert "capacity-rate-bound-chain" in text


class TestConfig:
    def test_round_trip(self, tmp_path):
        # to_json writes only the fields the command reads
        for cfg in (RunConfig(command="figure1", log_base="2", seed=5, theta=0.7, grid={"p": (0.0, 1.0, 11)}),
                    RunConfig(command="maximize", target="h-max", mu=(2.0, 1.0, 0.5))):
            rebuilt = RunConfig.from_json(cfg.to_json())
            assert rebuilt == cfg

    @pytest.mark.parametrize("argv", [
        ["--command", "figure1", "--grid", "p=0:1:3,t=0:1:3"],
        ["--command", "figure2", "--grid", "T=0:0.1:3"],
        ["--command", "figures34", "--lambda-count", "3"],
        ["--command", "maximize", "--target", "beta"],
        ["--command", "verify", "--suite", "properties", "--n-samples", "10"],
    ])
    def test_every_command_reads_seed_base_and_out(self, tmp_path, argv):
        out = tmp_path / "out.txt"
        assert main(argv + ["--seed", "3", "--log-base", "2", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        # a flag beside --config is an error, not silently dropped for the document's values
        out = tmp_path / "flag.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(RunConfig(command="maximize", target="beta").to_json())
        argv = ["--command", "figure1", "--theta", "0.3", "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "configuration error: --config takes no other flag, got --command, --out, --theta\n"
        assert main(["--config", str(cfg_path)]) == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"command": "figure1", "bogus": 1}))
        assert main(["--config", str(cfg_path)]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        # the decoder's own message, reported as a configuration error
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"command": ')
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(cfg_path.read_text())
        with pytest.raises(ConfigurationError, match=re.escape(str(decoded.value))):
            RunConfig.from_json(cfg_path.read_text())
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {decoded.value}\n"

    def test_missing_command(self):
        assert main([]) == 2

    def test_unwritable_output(self):
        assert main(["--command", "figure1", "--grid", "p=0:1:3,t=0:1:3",
                     "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_identical_seed_identical_bytes(self, tmp_path):
        out1 = tmp_path / "f1.csv"
        out2 = tmp_path / "f2.csv"
        args = ["--command", "figure1", "--grid", "p=0:1:5,t=0:1:5", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
