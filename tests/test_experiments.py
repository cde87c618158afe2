"""Sweep drivers, rate fitting and table emission."""

import json
import math

import numpy as np
import pytest

from resolvent_asym.experiments import (
    GeometrySpec,
    ModulusSpec,
    RateModel,
    SweepConfig,
    emit,
    fit_rate,
    make_modulus,
    run_psi_rate_table,
    run_qmean_sweep,
    run_varadhan_sweep,
    touching_config,
)
from resolvent_asym.params import INFINITY

BALL_GEO = GeometrySpec("ball", 1.0, 0.5)
EXT_GEO = GeometrySpec("exterior", 1.0, 1.0)


def make_cfg(**kw):
    base = dict(n_values=(2,), p_values=(2.0,), q_values=(2.0,),
                eps_start=0.1, eps_factor=0.1, eps_count=4,
                geometry=BALL_GEO)
    base.update(kw)
    return SweepConfig(**base)


class TestConfig:
    def test_from_dict_roundtrip(self):
        doc = {
            "params_grid": {"N": [2, 3], "p": ["inf", 2.0], "q": [2]},
            "eps_sequence": {"start": 0.1, "factor": 0.5, "count": 4},
            "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5},
            "modulus": {"kind": "linear", "r": 1.0, "slope": 2.0},
            "output": "out.csv",
            "seed": 7,
        }
        cfg = SweepConfig.from_dict(doc)
        assert cfg.n_values == (2, 3)
        assert cfg.p_values == (INFINITY, 2.0)
        assert cfg.q_values == (2.0,)
        assert cfg.eps_sequence == pytest.approx((0.1, 0.05, 0.025, 0.0125))
        assert cfg.geometry == BALL_GEO
        assert cfg.modulus.slope == 2.0
        assert cfg.output == "out.csv"
        assert cfg.seed == 7

    def test_unknown_key_rejected(self):
        doc = {"params_grid": {"N": [2], "p": [2], "q": [2]},
               "eps_sequence": {"start": 0.1, "factor": 0.5, "count": 4},
               "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5},
               "epsilon": 0.1}
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepConfig.from_dict(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            SweepConfig.from_dict({"params_grid": {"N": [2], "p": [2],
                                                   "q": [2]}})

    def test_bad_exponent_string(self):
        doc = {"params_grid": {"N": [2], "p": ["huge"], "q": [2]},
               "eps_sequence": {"start": 0.1, "factor": 0.5, "count": 4},
               "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5}}
        with pytest.raises(ValueError, match="cannot parse exponent"):
            SweepConfig.from_dict(doc)

    @pytest.mark.parametrize("section,key,value,msg", [
        (None, "seed", 7.9, "seed"),
        (None, "seed", True, "seed"),
        ("eps_sequence", "count", 3.7, "eps_count"),
        ("params_grid", "N", [2.9], "integers >= 2"),
    ])
    def test_from_dict_rejects_non_integers(self, section, key, value, msg):
        doc = {"params_grid": {"N": [2], "p": [2], "q": [2]},
               "eps_sequence": {"start": 0.1, "factor": 0.5, "count": 4},
               "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5}}
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ValueError, match=msg):
            SweepConfig.from_dict(doc)

    @pytest.mark.parametrize("section,key,value,msg", [
        ("params_grid", "p", 2.0, "params_grid.p must be a list"),
        ("params_grid", "q", [None], "exponent must be a number"),
        ("eps_sequence", "factor", "0.5", "eps_sequence.factor"),
        ("geometry", "R", None, "geometry.R must be a number"),
        ("geometry", "domain_radius", True, "geometry.domain_radius"),
        (None, "geometry", 3, "geometry must be an object"),
        (None, "modulus", {"kind": "linear", "r": 1.0, "slope": [1]},
         "modulus.slope must be a number"),
        (None, "output", 5, "output must be a string or null"),
        (None, "output", True, "output must be a string or null"),
        (None, "output", ["a.json"], "output must be a string or null"),
    ])
    def test_from_dict_rejects_wrong_types(self, section, key, value, msg):
        doc = {"params_grid": {"N": [2], "p": [2], "q": [2]},
               "eps_sequence": {"start": 0.1, "factor": 0.5, "count": 4},
               "geometry": {"kind": "ball", "domain_radius": 1.0, "R": 0.5}}
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ValueError, match=msg):
            SweepConfig.from_dict(doc)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            SweepConfig.from_dict([1, 2])

    @pytest.mark.parametrize("field,value,msg", [
        ("n_values", (1,), "integers >= 2"),
        ("n_values", (), "integers >= 2"),
        ("p_values", (1.0,), "p grid"),
        ("q_values", (0.5,), "q grid"),
        ("eps_start", -0.1, "eps_start"),
        ("eps_factor", 1.5, "eps_factor"),
        ("eps_factor", 0.0, "eps_factor"),
        ("eps_count", 0, "eps_count"),
        ("eps_count", 2.5, "eps_count"),
        ("seed", 1.5, "seed"),
    ])
    def test_invalid_fields(self, field, value, msg):
        with pytest.raises(ValueError, match=msg):
            make_cfg(**{field: value})

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="ball or exterior"):
            GeometrySpec("torus", 1.0, 0.5)
        with pytest.raises(ValueError, match="smaller than the ball"):
            GeometrySpec("ball", 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            GeometrySpec("exterior", -1.0, 0.5)

    @pytest.mark.parametrize("kind", [["ball"], {"ball": 1}, None, 1.0])
    def test_geometry_kind_not_a_name(self, kind):
        # an unhashable kind is a config error, not a TypeError from the table
        with pytest.raises(ValueError, match="ball or exterior"):
            GeometrySpec(kind, 1.0, 0.5)

    def test_modulus_validation(self):
        with pytest.raises(ValueError, match="unknown modulus kind"):
            ModulusSpec("cubic", 1.0)
        with pytest.raises(ValueError, match="positive slope"):
            ModulusSpec("linear", 1.0)
        ModulusSpec("sqrt", 1.0)

    def test_eps_sequence_geometric(self):
        cfg = make_cfg(eps_start=0.2, eps_factor=0.5, eps_count=5)
        seq = cfg.eps_sequence
        assert len(seq) == 5
        assert all(a > b > 0 for a, b in zip(seq, seq[1:]))
        assert seq[3] == pytest.approx(0.2 * 0.5 ** 3, rel=1e-15)

    def test_touching_config_ball(self):
        cfg = touching_config(BALL_GEO, 2)
        assert cfg.R == 0.5
        assert np.allclose(cfg.x, [0.5, 0.0])
        assert cfg.pi_gamma == pytest.approx(0.5)

    def test_touching_config_exterior(self):
        cfg = touching_config(EXT_GEO, 3)
        assert np.allclose(cfg.x, [2.0, 0.0, 0.0])
        assert cfg.pi_gamma == pytest.approx(4.0)


class TestFitRate:
    def test_exact_eps_power(self):
        eps = np.geomspace(0.1, 1e-4, 6)
        fit = fit_rate(RateModel.EPS, eps, 3.7 * eps)
        assert fit.coefficient == pytest.approx(3.7, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.max_ratio == pytest.approx(3.7, rel=1e-12)
        assert fit.matched and not fit.degenerate

    def test_exact_eps_log_power(self):
        eps = np.geomspace(0.1, 1e-4, 5)
        res = 2.2 * eps * np.log(1.0 / eps)
        fit = fit_rate(RateModel.EPS_LOG, eps, res)
        assert fit.coefficient == pytest.approx(2.2, rel=1e-12)
        assert fit.matched

    def test_nonpositive_model_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            fit_rate(RateModel.EPS_LOG, [2.0, 0.5], [0.1, 0.05])

    def test_degenerate_on_zero_residual(self):
        fit = fit_rate(RateModel.EPS, [0.1, 0.01, 0.001, 1e-4],
                       [0.0, 0.0, 0.0, 0.0])
        assert fit.degenerate
        assert fit.coefficient == 0.0
        assert not fit.matched

    def test_constant_residuals_do_not_match(self):
        # log|residual| has no spread, so r^2 has no denominator: a fit
        # that misses the slope-1 model scores 0, not NaN
        fit = fit_rate(RateModel.EPS, [0.1, 0.01, 0.001, 1e-4], [0.5] * 4)
        assert not fit.degenerate
        assert fit.r_squared == 0.0
        assert not fit.matched

    def test_noisy_fit_keeps_coefficient(self):
        eps = np.geomspace(0.1, 1e-3, 8)
        bump = 1.0 + 0.05 * np.cos(np.arange(8.0))
        fit = fit_rate(RateModel.EPS, eps, 1.3 * eps * bump)
        assert fit.coefficient == pytest.approx(1.3, rel=0.1)
        assert fit.r_squared > 0.99

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            fit_rate(RateModel.EPS, [0.1], [0.1])


class TestVaradhanSweep:
    def test_ball_regimes(self):
        cfg = make_cfg(p_values=(2.0, INFINITY))
        rows, fits = run_varadhan_sweep(cfg)
        assert len(rows) == 2 * 4 * 2
        assert rows[0]["eps"] == pytest.approx(0.1)
        assert sorted({row["r"] for row in rows}) == [0.0, 0.5]
        eps_block = [row["eps"] for row in rows[:8]]
        assert eps_block == sorted(eps_block, reverse=True)
        assert all(row["residual"] >= -1e-12 for row in rows)

        fit_finite = fits[(2, 2.0)]
        assert fit_finite.model is RateModel.EPS_LOG
        assert not fit_finite.degenerate
        assert fit_finite.matched
        assert 0.05 < fit_finite.coefficient < 20.0

        fit_inf = fits[(2, INFINITY)]
        assert fit_inf.model is RateModel.EPS
        # residual at the center is eps log 2 up to exponentially small terms
        assert fit_inf.coefficient == pytest.approx(math.log(2.0), rel=1e-6)
        assert fit_inf.r_squared > 0.9999

    def test_exterior_infinity_degenerate(self):
        cfg = make_cfg(n_values=(2, 3), p_values=(INFINITY,),
                       geometry=EXT_GEO)
        rows, fits = run_varadhan_sweep(cfg)
        assert all(abs(row["residual"]) <= 1e-15 for row in rows)
        for key, fit in fits.items():
            assert fit.degenerate
            assert fit.coefficient == 0.0
            assert fit.max_ratio == 0.0

    def test_exterior_finite_p_no_growth(self):
        cfg = make_cfg(p_values=(2.0,), geometry=EXT_GEO)
        rows, fits = run_varadhan_sweep(cfg)
        fit = fits[(2, 2.0)]
        assert not fit.degenerate
        assert all(row["residual"] <= 1e-12 for row in rows)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="count >= 4"):
            run_varadhan_sweep(make_cfg(eps_count=3))

    def test_large_eps_rejected_for_log_model(self):
        cfg = make_cfg(eps_start=1.2, eps_factor=0.5, eps_count=4)
        with pytest.raises(ValueError, match="eps < 1"):
            run_varadhan_sweep(cfg)


class TestPsiRateTable:
    def test_linear_modulus_converges(self):
        modulus = make_modulus(ModulusSpec("linear", r=1.0, slope=2.0))
        eps_seq = [0.1, 0.01, 0.001, 1e-4]
        rows, converges = run_psi_rate_table(modulus, eps_seq)
        assert converges
        for row in rows:
            assert row["psi"] == pytest.approx(row["eps"] / math.sqrt(5.0),
                                               rel=1e-6)
            assert row["eps_log_psi"] == pytest.approx(
                row["eps"] * math.log(row["psi"]), rel=1e-12)

    def test_dini_modulus_does_not_converge(self):
        modulus = make_modulus(ModulusSpec("log_reciprocal", r=0.5))
        rows, converges = run_psi_rate_table(modulus, [0.05, 0.02, 0.01])
        assert not converges
        for row in rows:
            assert row["eps_log_psi"] == pytest.approx(-1.0, abs=0.15)

    def test_sqrt_modulus_converges(self):
        modulus = make_modulus(ModulusSpec("sqrt", r=1.0))
        rows, converges = run_psi_rate_table(
            modulus, [0.1, 0.05, 0.025, 0.0125])
        assert converges
        # psi is quadratically small in eps for the square-root modulus
        for row in rows:
            assert 0.2 * row["eps"] ** 2 < row["psi"] < 2.0 * row["eps"] ** 2

    def test_empty_sequence_rejected(self):
        modulus = make_modulus(ModulusSpec("sqrt", r=1.0))
        with pytest.raises(ValueError, match="empty"):
            run_psi_rate_table(modulus, [])

    def test_eps_beyond_modulus_range(self):
        modulus = make_modulus(ModulusSpec("linear", r=1.0, slope=2.0))
        with pytest.raises(ValueError):
            run_psi_rate_table(modulus, [3.0, 1.5, 0.7, 0.3])


@pytest.fixture(scope="module")
def ball_rows():
    cfg = make_cfg(p_values=(2.0, INFINITY), q_values=(2.0,),
                   eps_start=0.02, eps_factor=0.5, eps_count=3)
    return run_qmean_sweep(cfg)


class TestQmeanSweep:
    def test_shape_and_order(self, ball_rows):
        assert len(ball_rows) == 6
        assert [row["p"] for row in ball_rows[:3]] == [2.0] * 3
        eps = [row["eps"] for row in ball_rows[:3]]
        assert eps == sorted(eps, reverse=True)
        assert all(row["path"] == "coarea" for row in ball_rows)

    def test_ratio_near_one(self, ball_rows):
        last = ball_rows[2]
        assert last["eps"] == pytest.approx(0.005)
        assert 0.95 <= last["ratio"] <= 1.05

    def test_richardson_column(self, ball_rows):
        assert math.isnan(ball_rows[0]["richardson"])
        assert math.isnan(ball_rows[3]["richardson"])
        for row in (ball_rows[1], ball_rows[2], ball_rows[4], ball_rows[5]):
            assert math.isfinite(row["richardson"])
        # the extrapolation removes the first-order error in eps
        for row in (ball_rows[2], ball_rows[5]):
            assert abs(row["richardson"] / row["prediction"] - 1.0) < 0.05
            raw_dev = abs(row["ratio"] - 1.0)
            rich_dev = abs(row["richardson"] / row["prediction"] - 1.0)
            assert rich_dev < max(raw_dev, 1e-3)

    def test_prediction_ratio_across_p(self, ball_rows):
        pred_finite = ball_rows[0]["prediction"]
        pred_inf = ball_rows[3]["prediction"]
        assert pred_finite / pred_inf == pytest.approx(2.0 ** -0.75,
                                                       rel=1e-12)

    def test_infinity_q_midrange(self):
        cfg = make_cfg(p_values=(INFINITY,), q_values=(INFINITY,),
                       eps_start=0.02, eps_factor=0.5, eps_count=3)
        rows = run_qmean_sweep(cfg)
        for row in rows:
            assert row["scaled"] == row["mu"]
            assert row["prediction"] == pytest.approx(0.5)
        assert abs(rows[-1]["mu"] - 0.5) < 1e-3


class TestEmit:
    TABLE = [{"a": 1.0 / 3.0, "b": 7, "name": "coarea", "flag": True,
              "hole": math.nan, "p": INFINITY}]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.TABLE, str(path))
        text = path.read_text()
        assert text == ("a,b,name,flag,hole,p\n"
                        "0.333333333333,7,coarea,true,nan,inf\n")

    def test_json_format(self, tmp_path):
        path = tmp_path / "out.json"
        cfg = make_cfg(seed=11)
        emit(self.TABLE, str(path), config=cfg)
        doc = json.loads(path.read_text())
        assert doc["metadata"]["seed"] == 11
        assert doc["metadata"]["config"]["geometry"]["kind"] == "ball"
        versions = doc["metadata"]["versions"]
        assert set(versions) == {"package", "numpy", "scipy"}
        row = doc["rows"][0]
        assert row["hole"] is None
        assert row["p"] == "inf"
        assert row["a"] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_byte_identical_reruns(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        cfg = make_cfg()
        emit(self.TABLE, str(pa), config=cfg)
        emit(self.TABLE, str(pb), config=cfg)
        assert pa.read_bytes() == pb.read_bytes()

    def test_no_path_prints_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        emit(self.TABLE, str(path))
        emit(self.TABLE, config=make_cfg())
        assert capsys.readouterr().out == path.read_text()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty table"):
            emit([], str(tmp_path / "x.csv"))

    def test_inconsistent_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent"):
            emit([{"a": 1.0}, {"b": 2.0}], str(tmp_path / "x.csv"))

    def test_io_error_carries_path(self, tmp_path):
        bad = tmp_path / "no_such_dir" / "out.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            emit(self.TABLE, str(bad))


class TestDeterminism:
    def test_qmean_sweep_bytes_stable(self, tmp_path):
        cfg = make_cfg(p_values=(INFINITY,), q_values=(2.0,),
                       eps_start=0.05, eps_factor=0.5, eps_count=2)
        rows_a = run_qmean_sweep(cfg)
        rows_b = run_qmean_sweep(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows_a, str(pa), config=cfg)
        emit(rows_b, str(pb), config=cfg)
        assert pa.read_bytes() == pb.read_bytes()
