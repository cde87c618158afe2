"""Command line interface: output shapes, oracles, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resolvent_asym import cli, experiments, qmeans
from resolvent_asym.cli import main
from resolvent_asym.params import ProblemParams
from resolvent_asym.radial import Geometry, RadialSolution, eval_log_u


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if "," in ln]
    keys = lines[0].split(",")
    return [dict(zip(keys, ln.split(","))) for ln in lines[1:]]


class TestEvalRadial:
    def test_ball_boundary_values(self, capsys):
        code, out, _ = run_cli(capsys, "eval-radial", "--N", "3", "--p", "2",
                               "--eps", "0.2", "--geometry", "ball",
                               "--R", "1.0", "--r", "0.5", "1.0")
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["r", "log_u", "varadhan_residual"]
        boundary = rows[1]
        assert float(boundary["log_u"]) == pytest.approx(0.0, abs=1e-12)
        assert float(boundary["varadhan_residual"]) == pytest.approx(
            0.0, abs=1e-12)
        params = ProblemParams(n=3, p=2.0, eps=0.2)
        sol = RadialSolution(params, Geometry.ball(1.0))
        assert float(rows[0]["log_u"]) == pytest.approx(
            eval_log_u(sol, 0.5), rel=1e-10)

    def test_exterior_infinity_residual_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval-radial", "--N", "2", "--p",
                               "inf", "--eps", "0.1", "--geometry",
                               "exterior", "--R", "1.0",
                               "--r", "1.0", "1.5", "3.0")
        assert code == 0
        for row in parse_csv(out):
            r = float(row["r"])
            assert float(row["log_u"]) == pytest.approx(-(r - 1.0) / 0.1,
                                                        abs=1e-12)
            assert float(row["varadhan_residual"]) == pytest.approx(
                0.0, abs=1e-12)

    def test_invalid_exponent_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval-radial", "--N", "2", "--p", "1",
                               "--eps", "0.1", "--geometry", "ball",
                               "--R", "1.0", "--r", "0.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("p", ["2", "inf"])
    @pytest.mark.parametrize("geometry,r", [("ball", "0.5"),
                                            ("exterior", "1.5")])
    def test_nan_radius_exits_2_naming_the_radius(self, capsys, p, geometry,
                                                  r):
        # no nan rows with exit 0, and an error about the radius, not sigma
        code, out, err = run_cli(capsys, "eval-radial", "--N", "2", "--p", p,
                                 "--eps", "0.1", "--geometry", geometry,
                                 "--R", "1.0", "--r", r, "nan")
        assert code == 2
        assert out == ""
        assert "radius must be finite, got nan" in err

    @pytest.mark.parametrize("p", ["3", "inf"])
    @pytest.mark.parametrize("geometry,r", [("ball", "0.5"),
                                            ("exterior", "1.5")])
    @pytest.mark.parametrize("eps", ["1e-310", "1e-320"])
    def test_overflowing_eps_exits_2_naming_eps(self, capsys, p, geometry,
                                                 r, eps):
        # sqrt(p') R / eps overflows: no nan/inf rows with exit 0, and an
        # error about eps, not sigma
        code, out, err = run_cli(capsys, "eval-radial", "--N", "3", "--p", p,
                                 "--eps", eps, "--geometry", geometry,
                                 "--R", "1", "--r", "1", r)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"eps = {float(eps)} is too small" in err

    @pytest.mark.parametrize("p", ["3", "inf"])
    def test_overflow_at_an_exterior_radius_exits_2_naming_eps(self, capsys,
                                                                p):
        # sqrt(p') R / eps is finite, but not at r = 1e10: no -inf row with
        # exit 0 (p = inf), and an error about eps, not sigma (p = 3)
        code, out, err = run_cli(capsys, "eval-radial", "--N", "3", "--p", p,
                                 "--eps", "1e-306", "--geometry", "exterior",
                                 "--R", "1", "--r", "1", "1e10")
        assert code == 2
        assert out == ""
        assert err == ("error: eps = 1e-306 is too small: sqrt(p') r / eps "
                       "overflows at r = 10000000000.0\n")

    @pytest.mark.parametrize("p", ["1e17", "1e300"])
    def test_exponent_too_large_for_alpha_exits_2_naming_p(self, capsys, p):
        code, out, err = run_cli(capsys, "eval-radial", "--N", "3", "--p", p,
                                 "--eps", "0.1", "--geometry", "ball",
                                 "--R", "1", "--r", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: p = {float(p)} is too large")
        assert "use p = inf" in err

    @pytest.mark.parametrize("text", ["inf", "Infinity", " INF "])
    def test_infinite_exponent_spellings(self, capsys, text):
        code, out, _ = run_cli(capsys, "eval-radial", "--N", "2", "--p",
                               text, "--eps", "0.1", "--geometry",
                               "exterior", "--R", "1.0", "--r", "1.5")
        assert code == 0
        assert parse_csv(out)[0]["log_u"] == "-5"

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval-radial", "--N", "2", "--p", "2", "--eps", "0.1",
                  "--geometry", "annulus", "--R", "1.0", "--r", "0.5"])
        assert ei.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2


class TestSpecialF:
    def test_alpha_one_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "special-f", "--sigma", "2.0",
                               "--alpha", "1.0")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["f"]) == pytest.approx(0.5, rel=1e-10)
        assert float(row["log_f"]) == pytest.approx(math.log(0.5), rel=1e-10)

    def test_check_bessel_column(self, capsys):
        code, out, _ = run_cli(capsys, "special-f", "--sigma", "3.0",
                               "--alpha", "0.5", "--check-bessel")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["bessel_residual"])) < 1e-6

    def test_check_bessel_where_cosh_overflows(self, capsys):
        # nu t = 19.5 t passes 710 inside the sinh cutoff at sigma = 1e-20
        code, out, _ = run_cli(capsys, "special-f", "--sigma", "1e-20",
                               "--alpha", "39", "--check-bessel")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["bessel_residual"])) < 1e-10

    def test_starved_refinement_exits_3(self, capsys, engine_constants):
        # f is the closed form; the Bessel-K check runs the quadrature
        engine_constants(1e-15, 1)
        code, _, err = run_cli(capsys, "special-f", "--sigma", "5.0",
                               "--alpha", "0.7", "--check-bessel")
        assert code == 3
        assert "non-convergence" in err

    def test_non_convergence_reports_last_two_estimates(self, capsys,
                                                        engine_constants):
        engine_constants(1e-15, 1)
        code, _, err = run_cli(capsys, "special-f", "--sigma", "1e-3",
                               "--alpha", "39", "--check-bessel")
        assert code == 3
        assert "np.float64" not in err
        tail = err.split("(last estimate ")[1].rstrip(")\n")
        last, prev = (float(v) for v in tail.split(", previous "))
        assert last != prev

    def test_overflowing_f_prints_inf(self, capsys):
        # log f is finite (about 1899) while f itself is past the float range
        code, out, _ = run_cli(capsys, "special-f", "--sigma", "1e-20",
                               "--alpha", "39")
        assert code == 0
        row = parse_csv(out)[0]
        assert math.isfinite(float(row["log_f"]))
        assert float(row["log_f"]) > 709.0
        assert row["f"] == "inf"

    def test_closed_form_past_the_quadrature_range(self, capsys):
        code, out, _ = run_cli(capsys, "special-f", "--sigma", "1e40",
                               "--alpha", "1")
        assert code == 0
        assert parse_csv(out)[0]["log_f"] == "-92.1034037198"

    def test_tolerance_flags_are_gone(self):
        with pytest.raises(SystemExit) as ei:
            main(["special-f", "--sigma", "2", "--alpha", "1",
                  "--rel-tol", "1e-8"])
        assert ei.value.code == 2

    def test_negative_sigma_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "special-f", "--sigma", "-1.0",
                               "--alpha", "1.0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv,message", [
        (("--sigma", "1", "--alpha", "inf"),
         "alpha must be finite and > -1, got inf"),
        (("--sigma", "inf", "--alpha", "1"),
         "sigma must be finite and > 0, got inf"),
        (("--sigma", "inf", "--alpha", "1", "--check-bessel"),
         "sigma must be finite and > 0, got inf"),
    ])
    def test_non_finite_input_exits_2(self, capsys, recwarn, argv, message):
        # bad input, not a non-convergence (exit 3) or a nan row (exit 0)
        code, out, err = run_cli(capsys, "special-f", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not [w for w in recwarn if w.category is RuntimeWarning]


class TestBarriers:
    def test_infinity_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "barriers", "--N", "2", "--p", "inf",
                               "--eps", "0.1", "--r-inner", "1.0",
                               "--r-outer", "1.0", "--tau", "0.0", "0.5",
                               "3.0")
        assert code == 0
        rows = parse_csv(out)
        sigma_i = 10.0
        for row in rows:
            tau = float(row["tau"])
            assert float(row["log_U"]) == pytest.approx(-tau, abs=1e-12)
            expected_v = (math.log(math.cosh(sigma_i - tau))
                          - math.log(math.cosh(sigma_i)))
            assert float(row["log_V"]) == pytest.approx(expected_v, rel=1e-9)
            assert float(row["log_V"]) >= float(row["log_U"]) - 1e-12

    def test_finite_p_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "barriers", "--N", "3", "--p", "2.5",
                               "--eps", "0.25", "--r-inner", "0.8",
                               "--r-outer", "1.2", "--tau", "0.0", "1.0",
                               "4.0")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["log_V"]) >= float(row["log_U"]) - 1e-12

    def test_negative_tau_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "barriers", "--N", "2", "--p", "2",
                               "--eps", "0.1", "--r-inner", "1.0",
                               "--r-outer", "1.0", "--tau", "-0.5")
        assert code == 2
        assert "tau" in err

    @pytest.mark.parametrize("p", ["3", "inf"])
    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_2_naming_tau(self, capsys, p, tau):
        # no nan/inf rows with exit 0, and an error about tau, not sigma
        code, out, err = run_cli(capsys, "barriers", "--N", "2", "--p", p,
                                 "--eps", "0.1", "--r-inner", "1",
                                 "--r-outer", "1", "--tau", tau, "0.5")
        assert code == 2
        assert out == ""
        assert f"tau must be finite and >= 0, got {tau}" in err

    @pytest.mark.parametrize("p", ["3", "inf"])
    @pytest.mark.parametrize("r_inner,r_outer", [("inf", "1"), ("1", "inf")])
    def test_infinite_radius_exits_2(self, capsys, recwarn, p, r_inner,
                                     r_outer):
        # no nan log_U/log_V rows with exit 0 and a RuntimeWarning
        code, out, err = run_cli(capsys, "barriers", "--N", "2", "--p", p,
                                 "--eps", "0.1", "--r-inner", r_inner,
                                 "--r-outer", r_outer, "--tau", "0.5")
        assert code == 2
        assert out == ""
        assert err == (f"error: ball radii must be finite and positive, got "
                       f"r_i={float(r_inner)}, r_e={float(r_outer)}\n")
        assert not [w for w in recwarn if w.category is RuntimeWarning]


    @pytest.mark.parametrize("p", ["3", "inf"])
    @pytest.mark.parametrize("eps", ["1e-310", "1e-320"])
    def test_overflowing_eps_exits_2_naming_eps(self, capsys, p, eps):
        code, out, err = run_cli(capsys, "barriers", "--N", "2", "--p", p,
                                 "--eps", eps, "--r-inner", "1",
                                 "--r-outer", "1", "--tau", "0", "0.5")
        assert code == 2
        assert out == ""
        assert err == (f"error: eps = {float(eps)} is too small: sqrt(p') r "
                       f"/ eps overflows at r = 1.0\n")

    def test_exponent_too_large_for_alpha_exits_2_naming_p(self, capsys):
        code, out, err = run_cli(capsys, "barriers", "--N", "3", "--p",
                                 "1e17", "--eps", "0.1", "--r-inner", "1",
                                 "--r-outer", "1", "--tau", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: p = 1e+17 is too large")


class TestGeom:
    def test_ball_benchmark_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "--kind", "ball",
                               "--domain-radius", "1.0", "--R", "0.5",
                               "--N", "2", "--s", "1e-4")
        assert code == 0
        row = parse_csv(out)[0]
        # cells carry 12 significant digits, so parsing loses the tail
        limit = float(row["predicted_limit"])
        assert limit == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-11)
        assert float(row["ratio"]) == pytest.approx(limit, rel=0.01)

    def test_exterior_benchmark_three_dim(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "--kind", "exterior",
                               "--domain-radius", "1.0", "--R", "1.0",
                               "--N", "3", "--s", "1e-4")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["predicted_limit"]) == pytest.approx(math.pi,
                                                              rel=1e-11)
        assert float(row["ratio"]) == pytest.approx(math.pi, rel=0.01)

    def test_invalid_level_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "geom", "--kind", "ball",
                               "--domain-radius", "1.0", "--R", "0.5",
                               "--N", "2", "--s", "-0.1")
        assert code == 2
        assert "error" in err


def qmean_config(tmp_path, **overrides):
    doc = {
        "params_grid": {"N": [2], "p": ["inf"], "q": [2.0]},
        "eps_sequence": {"start": 0.05, "factor": 0.5, "count": 2},
        "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5},
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestQmeanCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        cfg_path = qmean_config(tmp_path, output=str(out_path))
        code, out, _ = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 0
        assert f"wrote 2 rows to {out_path}" in out
        text = out_path.read_text()
        assert text.startswith("n,p,q,eps,")
        assert text.endswith("\n")

    def test_reruns_byte_identical(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code, _, _ = run_cli(capsys, "qmean", "--config",
                             str(qmean_config(tmp_path, output=str(out_a))))
        assert code == 0
        code, _, _ = run_cli(capsys, "qmean", "--config",
                             str(qmean_config(tmp_path, output=str(out_b))))
        assert code == 0
        a = out_a.read_bytes()
        b = out_b.read_bytes()
        assert a.replace(b"a.json", b"x") == b.replace(b"b.json", b"x")

    def test_stdout_when_no_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "qmean", "--config",
                               str(qmean_config(tmp_path)))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0]["path"] == "coarea"

    def test_missing_config_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "qmean", "--config", str(missing))
        assert code == 2
        assert "nope.json" in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "qmean", "--config", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    def test_fractional_seed_exits_2(self, capsys, tmp_path):
        cfg_path = qmean_config(tmp_path, seed=7.9)
        code, _, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 2
        assert "seed must be an integer" in err

    @pytest.mark.parametrize("override,msg", [
        ({"params_grid": {"N": 2, "p": ["inf"], "q": [2.0]}},
         "params_grid.N must be a list"),
        ({"eps_sequence": {"start": None, "factor": 0.5, "count": 2}},
         "eps_sequence.start must be a number"),
    ])
    def test_config_type_error_exits_2(self, capsys, tmp_path, override,
                                       msg):
        cfg_path = qmean_config(tmp_path, **override)
        code, _, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 2
        assert err.startswith(f"error: {msg}")
        assert err.count("\n") == 1

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg_path = qmean_config(tmp_path, typo=1)
        code, _, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("section,doc,extra", [
        ("params_grid", {"N": [2], "p": ["inf"], "q": [2.0], "eps": [0.1]},
         "eps"),
        ("eps_sequence", {"start": 0.05, "factor": 0.5, "count": 2,
                          "cnt": 9}, "cnt"),
        ("geometry", {"kind": "ball", "domain_radius": 1.0, "R": 0.5,
                      "N": 3}, "N"),
        ("modulus", {"kind": "sqrt", "r": 1.0, "Slope": 2.0}, "Slope"),
    ])
    def test_unknown_section_key_exits_2(self, capsys, tmp_path, section,
                                         doc, extra):
        cfg_path = qmean_config(tmp_path, **{section: doc})
        code, out, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert f"unknown config keys in {section}: [{extra!r}]" in err

    @pytest.mark.parametrize("override", [{"output": ""}, {"output": None}])
    def test_empty_output_prints_as_absent_output(self, capsys, tmp_path,
                                                  override):
        code, out, _ = run_cli(capsys, "qmean", "--config",
                               str(qmean_config(tmp_path, **override)))
        assert code == 0
        _, absent, _ = run_cli(capsys, "qmean", "--config",
                               str(qmean_config(tmp_path)))
        assert out == absent
        assert out.startswith("n,p,q,eps,")

    @pytest.mark.parametrize("name,is_json", [
        ("rows.json", True), ("rows.JSON", True), ("rows.Json", True),
        ("rows.csv", False), ("rows.txt", False), ("rows", False),
        ("rows.json.bak", False)])
    def test_output_suffix_decides_the_format(self, capsys, tmp_path, name,
                                              is_json):
        out_path = tmp_path / name
        code, out, _ = run_cli(
            capsys, "qmean", "--config",
            str(qmean_config(tmp_path, output=str(out_path))))
        assert code == 0
        assert out == f"wrote 2 rows to {out_path}\n"
        text = out_path.read_text()
        if is_json:
            doc = json.loads(text)
            assert doc["metadata"]["seed"] == 3
            assert len(doc["rows"]) == 2
        else:
            assert text.startswith("n,p,q,eps,")

    @pytest.mark.parametrize("p", [2.0, "inf"])
    @pytest.mark.parametrize("kind", ["ball", "exterior"])
    def test_overflowing_eps_exits_2_naming_eps(self, capsys, tmp_path, p,
                                                kind):
        cfg_path = qmean_config(
            tmp_path, params_grid={"N": [2], "p": [p], "q": [2.0]},
            eps_sequence={"start": 1e-310, "factor": 0.5, "count": 2},
            geometry={"kind": kind, "domain_radius": 1.0, "R": 0.5})
        code, out, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err == ("error: eps = 1e-310 is too small: sqrt(p') r / eps "
                       "overflows at r = 1.0\n")

    def test_unresolved_small_mean_exits_3(self, capsys, tmp_path):
        # at eps = 1e-4 mu is about 5e-21, below the root's absolute tolerance
        cfg_path = qmean_config(
            tmp_path, params_grid={"N": [6], "p": [3.0], "q": [1.5]},
            eps_sequence={"start": 1e-3, "factor": 0.1, "count": 2})
        code, out, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: the q-mean lies within "
                              "the root's absolute tolerance 8.67e-19")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n,eps", [(4, 2.1544e-5), (5, 6.8129e-5)])
    def test_root_within_the_tolerance_exits_3(self, capsys, tmp_path, n,
                                               eps):
        # Brent stops at mu = 5.45e-19 (N = 4) and 4.34e-19 (N = 5): above
        # the profile's end value 0, but within the root's absolute
        # tolerance, so the q-mean and its ratio are not resolved
        cfg_path = qmean_config(
            tmp_path, params_grid={"N": [n], "p": [3.0], "q": [1.5]},
            eps_sequence={"start": eps, "factor": 0.5, "count": 1})
        code, out, err = run_cli(capsys, "qmean", "--config", str(cfg_path))
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: the q-mean lies within "
                              "the root's absolute tolerance 8.67e-19 of "
                              "the profile's end value 0;")
        assert err.count("\n") == 1

    def test_nan_in_the_root_exits_3(self, capsys, tmp_path, monkeypatch):
        real = qmeans._coarea_G
        calls = []

        def nan_inside(mu, *args):
            # the two end values, then NaN
            calls.append(mu)
            return real(mu, *args) if len(calls) <= 2 else math.nan

        monkeypatch.setattr(qmeans, "_coarea_G", nan_inside)
        code, _, err = run_cli(capsys, "qmean", "--config",
                               str(qmean_config(tmp_path)))
        assert code == 3
        assert err == ("numerical failure: the root's function is NaN at "
                       f"x={calls[2]!r}\n")


class TestRatesCommand:
    def test_degenerate_exterior_with_psi_table(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        cfg_path = qmean_config(
            tmp_path,
            output=str(out_path),
            geometry={"kind": "exterior", "domain_radius": 1.0, "R": 1.0},
            eps_sequence={"start": 0.1, "factor": 0.1, "count": 4},
            modulus={"kind": "linear", "r": 1.0, "slope": 2.0})
        code, out, _ = run_cli(capsys, "rates", "--config", str(cfg_path))
        assert code == 0
        assert "fit N=2 p=inf model=eps" in out
        assert "degenerate=true" in out
        assert "eps,psi,eps_log_psi,eps_loglog_psi" in out
        assert "eps_log_psi_converges true" in out
        assert out_path.exists()

    def test_psi_below_the_float_range_exits_2_naming_eps(self, capsys,
                                                          tmp_path):
        # omega(tiny) = 1/log(1/tiny) = 1.41e-3: at eps = 1e-3 the crossing
        # e^{-1/eps} = e^{-1000}, and psi with it, underflows.  The psi
        # table is checked before the sweep's rows are printed or written
        out_path = tmp_path / "rates.csv"
        for output in ({}, {"output": str(out_path)}):
            cfg_path = qmean_config(
                tmp_path,
                eps_sequence={"start": 0.1, "factor": 0.1, "count": 4},
                modulus={"kind": "log_reciprocal", "r": 0.5}, **output)
            code, out, err = run_cli(capsys, "rates", "--config",
                                     str(cfg_path))
            assert code == 2
            assert out == ""
            assert not out_path.exists()
            assert err.startswith("error: eps = 0.00100000000000000")
            assert err.endswith("psi(eps) underflows\n")
            assert err.count("\n") == 1

    def test_ball_finite_p_matched(self, capsys, tmp_path):
        cfg_path = qmean_config(
            tmp_path,
            params_grid={"N": [2], "p": [2.0], "q": [2.0]},
            eps_sequence={"start": 0.1, "factor": 0.1, "count": 4})
        code, out, _ = run_cli(capsys, "rates", "--config", str(cfg_path))
        assert code == 0
        assert "model=eps_log" in out
        assert "matched=true" in out
        assert "eps_log_psi_converges" not in out

    def test_growing_ratio_exits_3(self, capsys, tmp_path, monkeypatch):
        # |residual| = sqrt(eps) outgrows eps log(1/eps): the ratios along
        # eps = 0.1 .. 1e-4 are 1.37, 2.17, 4.58 and 10.9, and the last is
        # more than twice their median 3.37
        monkeypatch.setattr(experiments, "varadhan_residual",
                            lambda sol, r: np.full(np.shape(r), math.sqrt(
                                sol.params.eps)))
        cfg_path = qmean_config(
            tmp_path, params_grid={"N": [2], "p": [2.0], "q": [2.0]},
            eps_sequence={"start": 0.1, "factor": 0.1, "count": 4})
        code, out, err = run_cli(capsys, "rates", "--config", str(cfg_path))
        assert code == 3
        assert out == ""
        assert err == ("numerical failure: residual/model ratio grows along "
                       "the sweep for N=2, p=2.0: last 1.086e+01 exceeds "
                       "twice the median 3.375e+00\n")

    def test_numerical_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        def growing_ratio(cfg):
            raise RuntimeError("residual/model ratio grows along the sweep")

        monkeypatch.setattr(cli, "run_varadhan_sweep", growing_ratio)
        cfg_path = qmean_config(
            tmp_path, eps_sequence={"start": 0.1, "factor": 0.1, "count": 4})
        code, _, err = run_cli(capsys, "rates", "--config", str(cfg_path))
        assert code == 3
        assert err == ("numerical failure: residual/model ratio grows along "
                       "the sweep\n")


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "resolvent_asym.cli",
                           "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("eval-radial", "special-f", "barriers", "geom", "qmean",
                 "rates"):
        assert name in proc.stdout


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path):
    # each of these costs a command start-up time it never uses, also in a
    # qmean run whose co-area route takes Brent roots
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    heavy = ("scipy.optimize", "scipy.integrate", "mpmath", "hypothesis")
    cfg_path = qmean_config(tmp_path, output=str(tmp_path / "rows.csv"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, resolvent_asym.cli\n"
         f"assert resolvent_asym.cli.main(['qmean', '--config', "
         f"{str(cfg_path)!r}]) == 0\n"
         f"print(sorted(m for m in {heavy!r} if m in sys.modules))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"wrote 2 rows to {tmp_path / 'rows.csv'}", "[]"]
