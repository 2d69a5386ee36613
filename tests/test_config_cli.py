import json
import math
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy

from mhdwave import cli, config, decay
from mhdwave.checkpoint import load_checkpoint, save_checkpoint
from mhdwave.cli import main
from mhdwave.config import config_hash, parse_config, serialize_config
from mhdwave.decay import DecayExperimentConfig
from mhdwave.errors import ConfigurationError, DomainError
from mhdwave.grid import GridSpec
from mhdwave.initial import INITIAL_FAMILIES, make_initial_data
from mhdwave.kernels import kernel_pair
from mhdwave.solver import SolverConfig

from conftest import count_steps

MINIMAL = """
{
  "grid": {"n": 128, "box_length": "32*pi"},
  "physics": {"gamma": 1},
  "time": {"dt": 0.005, "t_end": 50}
}
"""


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n == 128
        assert cfg.grid.box_length == pytest.approx(32 * math.pi)
        assert cfg.gamma == 1.0
        assert cfg.dt == 0.005
        assert cfg.t_end == 50.0
        # defaults materialized
        assert cfg.q_list == (2.0, 4.0)

    def test_pi_literals(self):
        cfg = parse_config('{"grid": {"box_length": "pi/4"}}')
        assert cfg.grid.box_length == pytest.approx(math.pi / 4)
        cfg = parse_config('{"grid": {"box_length": "2.5*pi"}}')
        assert cfg.grid.box_length == pytest.approx(2.5 * math.pi)

    @pytest.mark.parametrize("text", ["pi/0", "pi/0.0", "2*pi/0", "0*pi/0"])
    def test_pi_over_zero_names_path(self, text):
        with pytest.raises(ConfigurationError, match="division by zero") as err:
            parse_config(json.dumps({"grid": {"box_length": text}}))
        assert err.value.path == "grid.box_length"

    def test_negative_gamma_names_path(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"physics": {"gamma": -1}}')
        assert "physics.gamma" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"physics": {"viscosity": 2}}')
        assert "physics.viscosity" in str(err.value)
        with pytest.raises(ConfigurationError):
            parse_config('{"plasma": {}}')
        # every fit is paired with the c = 1 rate: the label is gone
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"diagnostics": {"c_label": 1.5}}')
        assert "diagnostics.c_label" in str(err.value)

    def test_malformed_document(self):
        with pytest.raises(ConfigurationError):
            parse_config("{not json")

    def test_deeply_nested_document(self):
        # json's decoder recurses once per nesting level
        with pytest.raises(ConfigurationError, match="malformed config document"):
            parse_config(DEEP)

    def test_round_trip(self):
        cfg = parse_config(MINIMAL)
        echo = serialize_config(cfg)
        cfg2 = parse_config(echo)
        assert serialize_config(cfg2) == echo
        assert config_hash(cfg2) == config_hash(cfg)

    @pytest.mark.parametrize("path", ["physics.gamma", "time.t_end"])
    @pytest.mark.parametrize("zero", [-0.0, "-0.0", "-0*pi"])
    def test_negative_zero_reads_as_zero(self, path, zero):
        # one number, one echo and one hash
        section, key = path.split(".")
        cfg = parse_config(json.dumps({section: {key: zero}}))
        plain = parse_config(json.dumps({section: {key: 0}}))
        assert math.copysign(1.0, getattr(cfg, key)) == 1.0
        assert serialize_config(cfg) == serialize_config(plain)
        assert config_hash(cfg) == config_hash(plain)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            parse_config('{"fit": {"window": [10, 5]}}')

    def test_bad_scheme(self):
        # gamma alone selects the tables: every scheme key, the old default
        # too, is an unknown key
        for scheme in ("rk4", "exp_integrator"):
            with pytest.raises(ConfigurationError) as err:
                parse_config(json.dumps({"scheme": scheme}))
            assert err.value.path == "scheme"


# every key of the table set to a value other than its default; the
# family is set per test
EVERY_KEY = {
    "grid": {"n": 16, "box_length": 6.0},
    "physics": {"gamma": 0.25},
    "time": {"dt": 0.01, "t_end": 2.0, "snapshot_every": 3},
    "initial_data": {"amplitude": 0.02, "amplitude_b": 0.03, "width": 0.5,
                     "separation": 1.5, "k_min": 1.2, "k_max": 3.0,
                     "spectral_exponent": -1.0, "a0_amplitude": 0.01, "seed": 9},
    "diagnostics": {"q_list": [3.0], "s_list_u": [0.5], "s_list_b": [0.25], "m": 2.0},
    "fit": {"window": [0.5, 1.5]},
    "solver": {"nonlinear": False},
}

# the keys whose null means unset; every other key refuses null
NULLABLE = {"fit.window", *(f"initial_data.{key}" for key in (
    "amplitude", "amplitude_b", "width", "separation", "k_min", "k_max",
    "spectral_exponent", "a0_amplitude"))}
TABLE_PATHS = [f"{section}.{key}" for section, readers in config._KEYS.items()
               for key in readers]


class TestKeyTable:
    def test_every_field_is_a_table_key(self):
        keys = {key for readers in config._KEYS.values() for key in readers}
        names = {f.name for f in fields(DecayExperimentConfig)}
        assert names <= keys | {"grid", "family", "params"}
        assert set(EVERY_KEY) == set(config._KEYS)
        assert all(set(EVERY_KEY[s]) | {"family"} >= set(r) for s, r in config._KEYS.items())

    @pytest.mark.parametrize("family", sorted(INITIAL_FAMILIES))
    def test_every_key_round_trips(self, family):
        doc = json.loads(json.dumps(EVERY_KEY))
        doc["initial_data"]["family"] = family
        cfg = parse_config(json.dumps(doc))
        echo = serialize_config(cfg)
        again = parse_config(echo)
        assert serialize_config(again) == echo
        assert config_hash(again) == config_hash(cfg)
        # every key the echo holds has the value the document set, which is not
        # its default (random_band is the default family); the params the
        # family does not read are dropped
        default = json.loads(serialize_config(parse_config("{}")))
        read = {"amplitude", "amplitude_b", "seed", *INITIAL_FAMILIES[family]}
        for section, values in json.loads(echo).items():
            expect = {key: value for key, value in doc[section].items()
                      if section != "initial_data" or key in read or key == "family"}
            assert values == expect
            assert all(values[key] != default[section].get(key)
                       for key in values if key != "family"), section

    @pytest.mark.parametrize("path", [p for p in TABLE_PATHS if p not in NULLABLE])
    def test_null_scalar_key_exit_code(self, tmp_path, capsys, path):
        section, key = path.split(".")
        cfgp = write_config(tmp_path, {section: {key: None}})
        assert main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")]) == 2
        assert f"configuration error: {path}:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("path", sorted(NULLABLE))
    def test_null_leaves_key_unset(self, path):
        section, key = path.split(".")
        cfg = parse_config(json.dumps({section: {key: None}}))
        assert serialize_config(cfg) == serialize_config(parse_config("{}"))


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# a document nested past the decoder's recursion limit
DEEP = "[" * 10**5 + "]" * 10**5

# the documents test_bad_cli_input_exit_code reads, by file name
BAD_DOCUMENTS = {
    "gamma0.json": {"physics": {"gamma": 0}},
    "family_list.json": {"initial_data": {"family": ["x"]}},
    "family_object.json": {"initial_data": {"family": {"a": 1}}},
    "amplitude_b.json": {"initial_data": {"amplitude_b": -1}},
    "pi_zero.json": {"grid": {"box_length": "pi/0"}},
    "pi_zero_float.json": {"initial_data": {"family": "gaussian_vortex_pair",
                                            "width": "2*pi/0.0"}},
    "gamma_subnormal.json": {"physics": {"gamma": 1e-310}},
    "gamma_1e307.json": {"physics": {"gamma": 1e307}},
    "gamma_1e308.json": {"physics": {"gamma": 1e308}},
}


SMALL_RUN = {
    "grid": {"n": 32, "box_length": "4*pi"},
    "physics": {"gamma": 1.0},
    "time": {"dt": 0.02, "t_end": 0.5, "snapshot_every": 5},
    "initial_data": {"family": "random_band", "amplitude": 0.05,
                     "k_max": 2.0, "seed": 7},
    "diagnostics": {"q_list": [2], "s_list_u": [0, 1], "s_list_b": [0, 1.5]},
}


# the document of test_sweep_and_compare_mhd
SWEEP_RUN = {
    "grid": {"n": 32, "box_length": "8*pi"},
    "time": {"dt": 0.05, "t_end": 12, "snapshot_every": 2},
    "initial_data": {"family": "random_band", "amplitude": 0.02,
                     "k_max": 1.5, "seed": 3},
    "diagnostics": {"q_list": [2], "s_list_u": [0], "s_list_b": [0]},
    "fit": {"window": [1.0, 11.0]},
}


class TestCli:
    def test_simulate_t_end_zero(self, tmp_path):
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 0})
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfgp, "--output", str(out)])
        assert rc == 0
        series = (out / "series.csv").read_text().strip().splitlines()
        assert len(series) == 2  # header + single snapshot
        manifest = [json.loads(line) for line in
                    (out / "manifest.jsonl").read_text().splitlines()]
        assert manifest[0]["kind"] == "run"
        assert "config_hash" in manifest[0]

    def test_simulate_determinism(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_RUN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfgp, "--output", str(out1)]) == 0
        assert main(["simulate", "--config", cfgp, "--output", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfgp = write_config(tmp_path, {"physics": {"gamma": -2}})
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
        assert rc == 2

    def test_solver_blowup_exit_code(self, tmp_path):
        doc = dict(SMALL_RUN)
        doc["initial_data"] = dict(doc["initial_data"], amplitude=100.0)
        cfgp = write_config(tmp_path, doc)
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
        assert rc == 3  # CFL/step failure is a solver error, not config

    def test_fit_decay_on_synthetic_power_law(self, tmp_path):
        t = np.linspace(1.0, 30.0, 40)
        series = tmp_path / "series.csv"
        with open(series, "w") as fh:
            fh.write("t,u_L2\n")
            for ti in t:
                fh.write(f"{float(ti)!r},{float(3.0 * ti**-0.5)!r}\n")
        cfgp = write_config(tmp_path, {"fit": {"window": [1.0, 30.0]}})
        out = tmp_path / "fit"
        rc = main(["fit-decay", "--config", cfgp, "--output", str(out), str(series)])
        assert rc == 0
        rows = (out / "fit_summary.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        row = rows[1].split(",")
        delta = float(row[header.index("delta")])
        assert abs(delta) < 1e-9  # fitted -0.5 against the u_L2 rate, 1/2 - 1

    def test_fit_decay_leaves_foreign_columns_without_theory(self, tmp_path):
        # only u_ or b_, then L or H, then a number, names a tracked norm
        cols = ["u_L4", "x_H1", "u_Q3", "b_Z0.5", "uu_L2"]
        series = tmp_path / "series.csv"
        with open(series, "w") as fh:
            fh.write(",".join(["t"] + cols) + "\n")
            for ti in np.linspace(1.0, 30.0, 40):
                fh.write(",".join([repr(float(ti))] + [repr(float(3.0 * ti**-0.5))] * 5) + "\n")
        cfgp = write_config(tmp_path, {"fit": {"window": [1.0, 30.0]}})
        out = tmp_path / "fit"
        assert main(["fit-decay", "--config", cfgp, "--output", str(out), str(series)]) == 0
        rows = [r.split(",") for r in (out / "fit_summary.csv").read_text().strip().splitlines()]
        theory, delta = rows[0].index("theory"), rows[0].index("delta")
        cells = {r[0]: (r[theory], r[delta]) for r in rows[1:]}
        assert list(cells) == cols
        assert cells.pop("u_L4")[0] == "-0.75"
        assert set(cells.values()) == {("", "")}

    @pytest.mark.parametrize("text", [
        pytest.param("t,u_L2\n1.0,0.5\n", id="one_row_no_window"),
        pytest.param("t,u_L2\n", id="header_only"),
        pytest.param("t,u_L2\n1.0,0.5\n2.0,abc\n", id="non_numeric"),
        pytest.param("t,u_L2\n1.0,0.5\n2.0\n", id="ragged"),
        pytest.param("", id="empty"),
        pytest.param(None, id="missing"),
        pytest.param("t,u_L2\n" + "".join(f"{t}.0,{'nan' if t == 9 else 1 / t}\n"
                                          for t in range(1, 31)), id="non_finite"),
        pytest.param("t\n" + "".join(f"{t}.0\n" for t in range(1, 31)), id="no_norm_column"),
    ])
    def test_fit_decay_bad_series_exit_code(self, tmp_path, capsys, text):
        series = tmp_path / "series.csv"
        if text is not None:
            series.write_text(text)
        rc = main(["fit-decay", "--output", str(tmp_path / "fit"), str(series)])
        assert rc == 4
        assert '"error": "data"' in capsys.readouterr().err
        assert not (tmp_path / "fit" / "fit_summary.csv").exists()

    def test_dt_beyond_t_end_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL_RUN, time={"dt": 1e10, "t_end": 1})
        cfgp = write_config(tmp_path, doc)
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
        assert rc == 2
        assert "time.dt" in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    def test_resume_from_final_checkpoint(self, tmp_path):
        # 11 * 0.03 falls one ulp short of 0.33: the resumed run has nothing
        # left to integrate and writes the checkpoint's row only
        doc = dict(SMALL_RUN, time={"dt": 0.03, "t_end": 0.33, "snapshot_every": 11})
        cfgp = write_config(tmp_path, doc)
        ck = tmp_path / "ck"
        assert main(["simulate", "--config", cfgp, "--output", str(ck),
                     "--checkpoint-every", "11"]) == 0
        (final,) = ck.glob("checkpoint_*.mhdw")
        res = tmp_path / "res"
        assert main(["simulate", "--config", cfgp, "--output", str(res),
                     "--resume", str(final)]) == 0
        rows = (res / "series.csv").read_text().strip().splitlines()
        assert rows[1:] == (ck / "series.csv").read_text().strip().splitlines()[-1:]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_resume_unreadable_path_exit_code(self, tmp_path, capsys, kind):
        ck = tmp_path / "ck.mhdw"
        if kind == "directory":
            ck.mkdir()
        cfgp = write_config(tmp_path, SMALL_RUN)
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x"),
                   "--resume", str(ck)])
        assert rc == 4
        assert '"error": "data"' in capsys.readouterr().err

    @pytest.mark.parametrize("argv,rc,where", [
        pytest.param(["simulate", "--config", "missing.json"], 4, '"error": "data"',
                     id="missing_config"),
        pytest.param(["sweep", "--gammas", "abc"], 2, "gammas:", id="gammas_abc"),
        pytest.param(["sweep", "--gammas", ""], 2, "gammas:", id="gammas_empty"),
        pytest.param(["sweep", "--gammas", "0,1"], 2, "gammas:", id="sweep_gamma_zero"),
        pytest.param(["compare-mhd", "--gammas", "0.1,x"], 2, "gammas:",
                     id="compare_gammas"),
        pytest.param(["compare-mhd", "--gammas", "0,0.1"], 2, "gammas:",
                     id="compare_gamma_zero"),
        pytest.param(["sweep", "--gammas", "0.5,inf"], 2, "gammas:", id="sweep_gamma_inf"),
        pytest.param(["compare-mhd", "--gammas", "inf,0.1"], 2, "gammas:",
                     id="compare_gamma_inf"),
        pytest.param(["sweep", "--gammas", "0.5,0.5"], 2, "gammas:",
                     id="sweep_gamma_repeated"),
        pytest.param(["compare-mhd", "--gammas", "0.1,0.1"], 2, "gammas:",
                     id="compare_gamma_repeated"),
        pytest.param(["simulate", "--seed", "-1"], 2, "seed:", id="negative_seed"),
        pytest.param(["simulate", "--checkpoint-every", "-1"], 2, "checkpoint_every:",
                     id="checkpoint_every_negative"),
        pytest.param(["simulate", "--checkpoint-every", "0"], 2, "checkpoint_every:",
                     id="checkpoint_every_zero"),
        # gamma = 0 runs the MHD system, which has no damped-wave kernels
        pytest.param(["verify-kernels", "--config", "gamma0.json"], 2, "physics.gamma:",
                     id="verify_kernels_gamma_zero"),
        pytest.param(["simulate", "--config", "family_list.json"], 2, "initial_data.family:",
                     id="family_list"),
        pytest.param(["simulate", "--config", "family_object.json"], 2,
                     "initial_data.family:", id="family_object"),
        pytest.param(["simulate", "--config", "amplitude_b.json"], 2,
                     "initial_data.amplitude_b:", id="negative_amplitude_b"),
        pytest.param(["simulate", "--config", "deep.json"], 2, "malformed config document",
                     id="deeply_nested"),
        pytest.param(["simulate", "--config", "pi_zero.json"], 2, "grid.box_length:",
                     id="pi_over_zero"),
        pytest.param(["simulate", "--config", "pi_zero_float.json"], 2, "initial_data.width:",
                     id="pi_over_zero_float"),
        # below the smallest normal float the kernels' 1/(2 gamma) overflows
        pytest.param(["simulate", "--config", "gamma_subnormal.json"], 2, "physics.gamma:",
                     id="gamma_subnormal"),
        pytest.param(["sweep", "--gammas", "0.5,1e-310"], 2, "gammas:",
                     id="sweep_gamma_subnormal"),
        pytest.param(["compare-mhd", "--gammas", "1e-310"], 2, "gammas:",
                     id="compare_gamma_subnormal"),
        # above 2.5e306 the kernel-bound samples' 40 gamma passes 1e308
        pytest.param(["verify-kernels", "--config", "gamma_1e307.json"], 2, "physics.gamma:",
                     id="verify_kernels_gamma_1e307"),
        pytest.param(["verify-kernels", "--config", "gamma_1e308.json"], 2, "physics.gamma:",
                     id="verify_kernels_gamma_1e308"),
        pytest.param(["simulate", "--config", "gamma_1e307.json"], 2, "physics.gamma:",
                     id="gamma_1e307"),
        pytest.param(["sweep", "--gammas", "0.5,1e307"], 2, "gammas:",
                     id="sweep_gamma_1e307"),
    ])
    def test_bad_cli_input_exit_code(self, tmp_path, capsys, monkeypatch, argv, rc, where):
        monkeypatch.chdir(tmp_path)
        for name, doc in BAD_DOCUMENTS.items():
            write_config(tmp_path, doc, name)
        (tmp_path / "deep.json").write_text(DEEP)
        assert main(argv + ["--output", str(tmp_path / "x")]) == rc
        assert where in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threads_flag_is_usage_error(self, tmp_path, command):
        # how many sweep members run at once follows from the gamma list
        with pytest.raises(SystemExit) as err:
            main([command, "--output", str(tmp_path / "x"), "--threads", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_seed_beyond_generator_key_exit_code(self, tmp_path, capsys, where):
        # numpy's Philox takes keys below 2**128
        seed = 2**130
        doc, flag = SMALL_RUN, ["--seed", str(seed)]
        if where == "config":
            doc, flag = dict(SMALL_RUN, initial_data=dict(SMALL_RUN["initial_data"],
                                                          seed=seed)), []
        rc = main(["simulate", "--config", write_config(tmp_path, doc),
                   "--output", str(tmp_path / "x")] + flag)
        assert rc == 2
        assert "initial_data.seed" in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    @pytest.mark.parametrize("key,s,box_length", [
        ("s_list_u", 1e6, "2*pi"),     # |k| >= 1: |k|^(2s) overflows
        ("s_list_b", -1e6, "32*pi"),   # |k| < 1 exists: the negative power overflows
    ])
    def test_overflowing_sobolev_order_exit_code(self, tmp_path, capsys, key, s, box_length):
        doc = dict(SMALL_RUN, grid={"n": 32, "box_length": box_length},
                   diagnostics=dict(SMALL_RUN["diagnostics"], **{key: [0, s]}))
        rc = main(["simulate", "--config", write_config(tmp_path, doc),
                   "--output", str(tmp_path / "x")])
        assert rc == 2
        assert f"diagnostics.{key}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    @pytest.mark.parametrize("initial_data,path", [
        pytest.param({"family": "random_band", "k_min": 3.0, "k_max": 2.0},
                     "initial_data.k_min", id="k_min_above_k_max"),
        pytest.param({"family": "random_band", "k_min": 0.3, "k_max": 0.4},
                     "initial_data.k_min", id="band_between_modes"),
        pytest.param({"family": "gaussian_vortex_pair", "width": 0},
                     "initial_data.width", id="width_zero"),
        pytest.param({"family": "gaussian_vortex_pair", "width": -1.0},
                     "initial_data.width", id="width_negative"),
    ])
    def test_initial_data_without_modes_exit_code(self, tmp_path, capsys, initial_data, path):
        # the 4*pi box of SMALL_RUN has its modes at multiples of |k| = 0.5
        doc = dict(SMALL_RUN, initial_data=dict(initial_data, amplitude=0.05))
        rc = main(["simulate", "--config", write_config(tmp_path, doc),
                   "--output", str(tmp_path / "x")])
        assert rc == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    def test_huge_gamma_writes_finite_cells(self, tmp_path):
        doc = dict(SMALL_RUN, physics={"gamma": 1e300})
        out = tmp_path / "x"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--output", str(out)]) == 0
        header, *rows = (out / "series.csv").read_text().strip().splitlines()
        assert len(rows) == 6
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))

    def test_compare_mhd_rejects_non_positive_t(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, SWEEP_RUN)
        rc = main(["compare-mhd", "--config", cfgp, "--output", str(tmp_path / "c"),
                   "--gammas", "0.1,0.05", "--T", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert '"error": "configuration"' in err and "T: must be positive" in err

    @pytest.mark.parametrize("T", ["0.33", "0.01"])
    def test_compare_mhd_t_off_the_step_grid_exit_code(self, tmp_path, capsys, monkeypatch, T):
        # at dt = 0.05, 0.33 is 6.6 steps and 0.01 less than one: the error
        # names T, which the user set, before any initial data is built
        built = []
        monkeypatch.setattr(decay, "make_initial_data", lambda *a: built.append(a))
        cfgp = write_config(tmp_path, SWEEP_RUN)
        rc = main(["compare-mhd", "--config", cfgp, "--output", str(tmp_path / "c"),
                   "--gammas", "0.1,0.05", "--T", T])
        assert rc == 2
        assert f"configuration error: T: {T} is not a whole number of steps at dt=0.05" \
            in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "c").exists()

    def test_compare_mhd_zero_errors_leave_ratio_empty(self, tmp_path):
        doc = dict(SWEEP_RUN, initial_data=dict(SWEEP_RUN["initial_data"], amplitude=0))
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "c"
        assert main(["compare-mhd", "--config", cfgp, "--output", str(out),
                     "--gammas", "0.1,0.05", "--T", "0.5"]) == 0
        rows = (out / "singular_limit.csv").read_text().strip().splitlines()
        assert rows[1:] == ["0.1,0.0,", "0.05,0.0,"]

    def test_verify_lemmas_outputs(self, tmp_path):
        out = tmp_path / "lem"
        rc = main(["verify-lemmas", "--output", str(out)])
        assert rc == 0
        for ineq in ("p-1", "p-2", "p-3"):
            assert (out / f"expintegral_{ineq}.csv").exists()

    def test_verify_kernels_columns(self, tmp_path):
        out = tmp_path / "kb"
        rc = main(["verify-kernels", "--output", str(out)])
        assert rc == 0
        header = (out / "kernel_bounds.csv").read_text().splitlines()[0]
        assert header == "bound_id,gamma,theta,C_emp,n_samples"
        assert (out / "kernel_bounds_refined.csv").exists()

    def test_sweep_and_compare_mhd(self, tmp_path):
        doc = {
            "grid": {"n": 32, "box_length": "8*pi"},
            "time": {"dt": 0.05, "t_end": 12, "snapshot_every": 2},
            "initial_data": {"family": "random_band", "amplitude": 0.02,
                             "k_max": 1.5, "seed": 3},
            "diagnostics": {"q_list": [2], "s_list_u": [0], "s_list_b": [0]},
            "fit": {"window": [1.0, 11.0]},
        }
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfgp, "--output", str(out),
                   "--gammas", "0.5,1.0"])
        assert rc == 0
        assert (out / "sweep.csv").exists()
        assert (out / "prefactor_curve.csv").exists()
        out2 = tmp_path / "cmp"
        rc = main(["compare-mhd", "--config", cfgp, "--output", str(out2),
                   "--gammas", "0.1,0.05", "--T", "1.0"])
        assert rc == 0
        rows = (out2 / "singular_limit.csv").read_text().strip().splitlines()
        assert rows[0] == "gamma,error,ratio_to_previous"
        assert len(rows) == 3

    @pytest.mark.parametrize("section,key,value", [
        ("time", "dt", "nan"),
        ("time", "dt", "inf"),
        ("grid", "box_length", "inf"),
        ("time", "t_end", 10**400),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, section, key, value):
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 1})
        doc[section] = dict(doc[section], **{key: value})
        cfgp = write_config(tmp_path, doc)
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
        assert rc == 2

    def test_output_formats_key_rejected(self, tmp_path, capsys):
        # deleted keys and sections: a document that still sets one fails at its path
        for section, value, path in (("output", {"formats": ["csv"]}, "output:"),
                                     ("solver", {"cfl_safety": 0.5}, "solver.cfl_safety:")):
            cfgp = write_config(tmp_path, dict(SMALL_RUN, **{section: value}))
            rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
            assert rc == 2
            assert f"configuration error: {path}" in capsys.readouterr().err

    def test_output_directory_is_not_part_of_the_run(self, tmp_path, capsys):
        # the same config written to two directories is the same run
        cfgp = write_config(tmp_path, SMALL_RUN)
        heads = []
        for name in ("a", "b"):
            assert main(["simulate", "--config", cfgp, "--output", str(tmp_path / name)]) == 0
            manifest = (tmp_path / name / "manifest.jsonl").read_text().splitlines()
            heads.append(json.loads(manifest[0]))
        assert heads[0]["config_hash"] == heads[1]["config_hash"]
        assert heads[0]["config"] == heads[1]["config"]
        assert "output" not in heads[0]["config"]
        # where a run writes is a flag only: the config section is gone
        cfgp = write_config(tmp_path, dict(SMALL_RUN, output={"directory": str(tmp_path / "c")}))
        assert main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")]) == 2
        assert "configuration error: output:" in capsys.readouterr().err
        assert not (tmp_path / "c").exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_under_a_file_exit_code(self, tmp_path, capsys, monkeypatch, below):
        # found before the run, which takes no step; the file keeps its bytes
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("integrated"))
        f = tmp_path / "f"
        f.write_bytes(b"not a directory\n")
        rc = main(["simulate", "--config", write_config(tmp_path, SMALL_RUN),
                   "--output", str(f / below)])
        assert rc == 2
        assert "configuration error: output:" in capsys.readouterr().err
        assert f.read_bytes() == b"not a directory\n"

    def test_failed_write_exit_code(self, tmp_path, capsys):
        # a directory where series.csv goes: the write fails after the run
        out = tmp_path / "x"
        (out / "series.csv").mkdir(parents=True)
        rc = main(["simulate", "--config", write_config(tmp_path, SMALL_RUN),
                   "--output", str(out)])
        assert rc == 4
        assert '"error": "data"' in capsys.readouterr().err
        assert not (out / "manifest.jsonl").exists()

    def test_failed_checkpoint_write_exit_code(self, tmp_path, capsys, monkeypatch):
        # the second write fails on the writer thread: no write after it, no
        # series and no manifest, and the first checkpoint stays
        calls = []

        def save(path, state, gamma):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError("no space left on device")
            save_checkpoint(path, state, gamma)

        monkeypatch.setattr(cli, "save_checkpoint", save)
        out = tmp_path / "x"
        rc = main(["simulate", "--config", write_config(tmp_path, SMALL_RUN),
                   "--output", str(out), "--checkpoint-every", "1"])
        assert rc == 4
        assert '"error": "data"' in capsys.readouterr().err
        assert len(calls) == 2
        assert [p.name for p in out.iterdir()] == ["checkpoint_t00000.020000.mhdw"]

    @pytest.mark.parametrize("argv,doc", [(["simulate"], SMALL_RUN),
                                          (["sweep", "--gammas", "1.0"], SWEEP_RUN)],
                             ids=["simulate", "sweep"])
    def test_manifest_records_versions(self, tmp_path, argv, doc):
        # the versions describe the run's environment, not the run: the hash
        # is that of the config alone
        out = tmp_path / "out"
        assert main(argv + ["--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
        head = json.loads((out / "manifest.jsonl").read_text().splitlines()[0])
        assert head["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}
        assert head["config_hash"] == config_hash(parse_config(json.dumps(doc)))

    def test_sweep_and_compare_mhd_cfl_violation_exit_code(self, tmp_path):
        doc = dict(SWEEP_RUN, initial_data=dict(SWEEP_RUN["initial_data"], amplitude=50.0))
        cfgp = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                     "--gammas", "0.5,1.0"]) == 3
        assert main(["compare-mhd", "--config", cfgp, "--output", str(tmp_path / "c"),
                     "--gammas", "0.1,0.05", "--T", "1.0"]) == 3

    def test_sweep_negative_order_fails_before_stepping(self, tmp_path, capsys, monkeypatch):
        doc = dict(SWEEP_RUN, diagnostics=dict(SWEEP_RUN["diagnostics"], s_list_u=[0, -0.5]))
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 4
        assert "u_H-0.5: no rate for a negative order" in capsys.readouterr().err
        assert steps == []
        # simulate has no theory rate to resolve and writes the column
        assert main(["simulate", "--config", cfgp, "--output", str(tmp_path / "sim")]) == 0
        assert "u_H-0.5" in (tmp_path / "sim" / "series.csv").read_text().splitlines()[0]

    def test_sweep_b_order_beyond_m_fails_before_stepping(self, tmp_path, capsys, monkeypatch):
        # the rate of b covers orders below m + 1
        doc = dict(SWEEP_RUN, diagnostics=dict(SWEEP_RUN["diagnostics"], s_list_b=[2], m=1))
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 4
        assert "b_H2: a rate of b needs an order < m + 1 = 2" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("doc,message", [
        # the default window of a t_end = 0.5 run is (5.0, 0.4)
        (SMALL_RUN, "window must satisfy t_lo < t_hi"),
        # 240 steps stamp t = 0, 5, 10, 12: two of them inside [1, 11]
        (dict(SWEEP_RUN, time=dict(SWEEP_RUN["time"], snapshot_every=100)),
         "holds 2 samples, need >= 5"),
    ], ids=["unordered", "too_few_snapshots"])
    def test_sweep_window_fails_before_stepping(self, tmp_path, capsys, monkeypatch, doc,
                                                message):
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.25,0.5"])
        assert rc == 4
        assert message in capsys.readouterr().err
        assert steps == []

    def test_sweep_window_at_t_zero_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the t = 0 snapshot would fall inside, where a log-log fit has no point
        cfgp = write_config(tmp_path, dict(SWEEP_RUN, fit={"window": [0.0, 11.0]}))
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5"])
        assert rc == 2
        assert "fit.window" in capsys.readouterr().err
        assert steps == []

    def test_sweep_of_the_baseline_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # gamma = 0 selects the MHD baseline, and --gammas overrides gamma: a
        # scheme key that once chose the baseline is an unknown key
        cfgp = write_config(tmp_path, dict(SWEEP_RUN, scheme="mhd_baseline"))
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 2
        assert "configuration error: scheme:" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "s").exists()

    def test_sweep_low_q_leaves_theory_empty(self, tmp_path):
        # no theorem covers L^q with q < 2: the theory cell stays empty, as in
        # fit-decay, while q = 2 keeps its rate
        doc = dict(SWEEP_RUN, diagnostics=dict(SWEEP_RUN["diagnostics"], q_list=[1.5, 2]))
        cfgp = write_config(tmp_path, doc)
        sweep, sim, fit = tmp_path / "sweep", tmp_path / "sim", tmp_path / "fit"
        assert main(["sweep", "--config", cfgp, "--output", str(sweep),
                     "--gammas", "0.5,1.0"]) == 0
        assert main(["simulate", "--config", cfgp, "--output", str(sim)]) == 0
        assert main(["fit-decay", "--config", cfgp, "--output", str(fit),
                     str(sim / "series.csv")]) == 0
        for path, key in ((sweep / "sweep.csv", 1), (fit / "fit_summary.csv", 0)):
            rows = [r.split(",") for r in path.read_text().strip().splitlines()]
            theory = {r[key]: r[rows[0].index("theory")] for r in rows[1:]}
            assert theory["u_L1.5"] == theory["b_L1.5"] == ""
            assert float(theory["u_L2"]) == -0.5

    def test_sweep_of_zero_data_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        # every norm is zero: no log-log fit exists, and no member steps
        doc = dict(SWEEP_RUN, initial_data=dict(SWEEP_RUN["initial_data"], amplitude=0))
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 4
        assert '"error": "data"' in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_linear_sweep_of_a_zero_velocity_is_a_data_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # psi = A = 0 with d_t A != 0 is not zero data, but without the
        # nonlinear terms u stays zero: u_L2 has no decay to fit, and no member steps
        doc = dict(SWEEP_RUN, solver={"nonlinear": False},
                   initial_data=dict(SWEEP_RUN["initial_data"], amplitude=0,
                                     a0_amplitude=0.02))
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 4
        err = capsys.readouterr().err
        assert '"error": "data"' in err and "u_L2: its potentials are zero" in err
        assert steps == []
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_sweep_without_norms_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # no tracked norm: nothing to fit, so no initial data, no step, no table
        doc = dict(SWEEP_RUN, diagnostics={"q_list": [], "s_list_u": [], "s_list_b": []})
        cfgp = write_config(tmp_path, doc)
        built = []
        monkeypatch.setattr(decay, "make_initial_data", lambda *a: built.append(a))
        steps = count_steps(monkeypatch)
        rc = main(["sweep", "--config", cfgp, "--output", str(tmp_path / "s"),
                   "--gammas", "0.5,1.0"])
        assert rc == 2
        assert "configuration error: diagnostics:" in capsys.readouterr().err
        assert built == [] and steps == []
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_simulate_without_norms_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # a series of t alone has nothing to fit: refused before any step or directory
        doc = dict(SMALL_RUN, diagnostics={"q_list": [], "s_list_u": [], "s_list_b": []})
        cfgp = write_config(tmp_path, doc)
        steps = count_steps(monkeypatch)
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x"),
                   "--checkpoint-every", "5"])
        assert rc == 2
        assert "configuration error: diagnostics:" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("diagnostics", [
        pytest.param({"q_list": [2, 2.0000001, 4, 4]}, id="q_list"),
        pytest.param({"s_list_u": [0, 1, 1.0]}, id="s_list_u"),
        pytest.param({"s_list_b": [1.5, 1.5]}, id="s_list_b"),
    ])
    def test_norms_sharing_a_column_id_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 diagnostics, command):
        # {:g} ids that coincide would overwrite each other's cells in a row:
        # refused before any step or directory
        cfgp = write_config(tmp_path, dict(SWEEP_RUN, diagnostics=diagnostics))
        steps = count_steps(monkeypatch)
        extra = ["--gammas", "0.5"] if command == "sweep" else ["--checkpoint-every", "5"]
        rc = main([command, "--config", cfgp, "--output", str(tmp_path / "x"), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: diagnostics: two tracked norms share" in err
        assert steps == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("amplitude", [1e160, 1e200])
    def test_non_finite_norm_row_exit_code(self, tmp_path, capsys, amplitude):
        # finite grid values whose squares overflow: the L2 and H^s cells are
        # inf and the L4 cells NaN, a solver error at t = 0 with no series.csv
        doc = dict(SMALL_RUN, initial_data=dict(SMALL_RUN["initial_data"], amplitude=amplitude),
                   diagnostics={"q_list": [2, 4]}, solver={"nonlinear": False})
        cfgp = write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "solver" and err["t"] == 0.0
        assert not (tmp_path / "x" / "series.csv").exists()

    def test_fit_error_names_the_norm(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,u_L2,b_L2\n" + "".join(f"{t}.0,{1 / t!r},0.0\n"
                                                     for t in range(1, 13)))
        cfgp = write_config(tmp_path, {"fit": {"window": [1.0, 12.0]}})
        rc = main(["fit-decay", "--config", cfgp, "--output", str(tmp_path / "fit"),
                   str(series)])
        assert rc == 4
        assert "b_L2: nonpositive values inside the fit window" in capsys.readouterr().err

    def test_fit_decay_default_window_matches_sweep(self, tmp_path):
        # no fit.window: fit-decay of simulate's series fits the window sweep
        # fits, (5, 12) here, and writes the same exponents
        doc = {"grid": {"n": 16, "box_length": "32*pi"}, "physics": {"gamma": 0.5},
               "time": {"dt": 0.05, "t_end": 12},
               "initial_data": {"family": "random_band", "amplitude": 0.02,
                                "k_max": 0.8, "seed": 3}}
        cfgp = write_config(tmp_path, doc)
        sweep, sim, fit = tmp_path / "sweep", tmp_path / "sim", tmp_path / "fit"
        assert main(["sweep", "--config", cfgp, "--output", str(sweep), "--gammas", "0.5"]) == 0
        assert main(["simulate", "--config", cfgp, "--output", str(sim)]) == 0
        assert main(["fit-decay", "--config", cfgp, "--output", str(fit),
                     str(sim / "series.csv")]) == 0
        swept = [r.split(",") for r in (sweep / "sweep.csv").read_text().splitlines()[1:]]
        fitted = [r.split(",") for r in (fit / "fit_summary.csv").read_text().splitlines()[1:]]
        assert [r[1:3] for r in swept] == [r[:2] for r in fitted]
        assert {(r[5], r[6]) for r in fitted} == {("5.0", "12.0")}

    def test_sweep_honours_nonlinear_false(self, tmp_path):
        doc = dict(SWEEP_RUN, solver={"nonlinear": False})
        cfgp = write_config(tmp_path, doc)
        sim, sweep = tmp_path / "sim", tmp_path / "sweep"
        assert main(["simulate", "--config", cfgp, "--output", str(sim)]) == 0
        assert main(["sweep", "--config", cfgp, "--output", str(sweep),
                     "--gammas", "1.0"]) == 0
        series = (sim / "series.csv").read_text().strip().splitlines()
        b_h0 = series[-1].split(",")[series[0].split(",").index("b_H0")]
        rows = [r.split(",") for r in (sweep / "sweep.csv").read_text().strip().splitlines()]
        header = rows[0]
        final = [r[header.index("final_value")] for r in rows[1:]
                 if r[header.index("norm_id")] == "b_H0"]
        assert final == [b_h0]

    def test_checkpoint_resume_cli(self, tmp_path):
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 0.4, "snapshot_every": 5})
        cfgp = write_config(tmp_path, doc)
        full = tmp_path / "full"
        assert main(["simulate", "--config", cfgp, "--output", str(full)]) == 0
        ck = tmp_path / "ck"
        assert main(["simulate", "--config", cfgp, "--output", str(ck),
                     "--checkpoint-every", "10"]) == 0
        cks = sorted(ck.glob("checkpoint_*.mhdw"))
        assert cks
        res = tmp_path / "res"
        assert main(["simulate", "--config", cfgp, "--output", str(res),
                     "--resume", str(cks[0])]) == 0
        # resumed series must end at the same final diagnostics
        def last_row(p):
            return (p / "series.csv").read_text().strip().splitlines()[-1]

        full_vals = [float(x) for x in last_row(full).split(",")]
        res_vals = [float(x) for x in last_row(res).split(",")]
        assert full_vals[0] == res_vals[0]
        for a, b in zip(full_vals[1:], res_vals[1:]):
            assert a == pytest.approx(b, rel=1e-12)


    @pytest.mark.parametrize("field,value,where", [
        ("t", math.nan, "header has gamma=1.0, t=nan"),
        ("gamma", math.nan, "header has gamma=nan, t=0.0"),
        ("t", 5.0, "time.t_end: 0.2 lies before the checkpoint time 5.0"),
        ("t", -1.0, "header has gamma=1.0, t=-1.0"),
        ("gamma", -1.0, "header has gamma=-1.0"),
    ], ids=["t_nan", "gamma_nan", "t_past_t_end", "t_negative", "gamma_negative"])
    def test_resume_bad_checkpoint_header_exit_code(self, tmp_path, capsys, field, value,
                                                     where):
        # t_end = 0.2: a checkpoint at t = 5 lies past the end of the run
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 0.2})
        cfgp = write_config(tmp_path, doc)
        cfg = parse_config(json.dumps(doc))
        state = make_initial_data(cfg.family, cfg.params, cfg.grid)
        header = {"t": 0.0, "gamma": cfg.gamma, field: value}
        ck = tmp_path / "ck.mhdw"
        save_checkpoint(ck, replace(state, t=header["t"]), header["gamma"])
        rc = main(["simulate", "--config", cfgp, "--output", str(tmp_path / "x"),
                   "--resume", str(ck)])
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    def test_resumed_step_error_reports_the_run_time(self, tmp_path, capsys):
        # resumed from t = 0.2, the first step fails at t = 0.2: dt = 0.4 is
        # past the CFL limit 0.8 L/n = 0.31 of SMALL_RUN's grid at any speed
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 0.4})
        ck = tmp_path / "ck"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--output", str(ck),
                     "--checkpoint-every", "10"]) == 0
        first = ck / "checkpoint_t00000.200000.mhdw"
        cfl = dict(SMALL_RUN, time={"dt": 0.4, "t_end": 0.6})
        rc = main(["simulate", "--config", write_config(tmp_path, cfl, "cfl.json"),
                   "--output", str(tmp_path / "x"), "--resume", str(first)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["t"] == 0.2
        assert not (tmp_path / "x").exists()

    def test_resume_on_another_grid_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL_RUN, time={"dt": 0.02, "t_end": 0.2})
        cfg = parse_config(json.dumps(doc))
        ck = tmp_path / "ck.mhdw"
        save_checkpoint(ck, make_initial_data(cfg.family, cfg.params, cfg.grid), cfg.gamma)
        other = dict(doc, grid={"n": 16, "box_length": "4*pi"})
        rc = main(["simulate", "--config", write_config(tmp_path, other),
                   "--output", str(tmp_path / "x"), "--resume", str(ck)])
        assert rc == 2
        assert "configuration error: grid.n:" in capsys.readouterr().err
        assert not (tmp_path / "x" / "series.csv").exists()

    def test_resume_gamma_match_is_relative(self, tmp_path, capsys):
        # a gamma written as an expression resumes into the config its run echoed
        doc = dict(SMALL_RUN, physics={"gamma": "pi/4"}, time={"dt": 0.02, "t_end": 0.2})
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--output", str(run_dir), "--checkpoint-every", "5"]) == 0
        echo = json.loads((run_dir / "manifest.jsonl").read_text().splitlines()[0])["config"]
        assert echo["physics"]["gamma"] == math.pi / 4
        assert main(["simulate", "--config", write_config(tmp_path, echo, "echo.json"),
                     "--output", str(tmp_path / "echo"),
                     "--resume", str(run_dir / "checkpoint_t00000.100000.mhdw")]) == 0
        # gamma = 0 runs the MHD system: it matches a checkpoint of gamma = 0
        # only, however small the other gamma
        for gamma_ck, gamma_cfg in ((5e-16, 0.0), (0.0, 5e-16)):
            doc = dict(doc, physics={"gamma": gamma_cfg})
            cfg = parse_config(json.dumps(doc))
            ck = tmp_path / "ck.mhdw"
            save_checkpoint(ck, make_initial_data(cfg.family, cfg.params, cfg.grid), gamma_ck)
            capsys.readouterr()
            rc = main(["simulate", "--config", write_config(tmp_path, doc),
                       "--output", str(tmp_path / "x"), "--resume", str(ck)])
            assert rc == 2
            assert "physics.gamma: checkpoint gamma" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv,echo,files", [
        pytest.param(["simulate", "--checkpoint-every", "10"], {},
                     ["series.csv", "checkpoint_t00000.200000.mhdw",
                      "checkpoint_t00000.400000.mhdw"], id="simulate"),
        pytest.param(["sweep", "--gammas", "1.0"], {"gammas": [1.0]},
                     ["sweep.csv", "prefactor_curve.csv"], id="sweep"),
        pytest.param(["fit-decay", "SERIES"], {"series": "SERIES"}, ["fit_summary.csv"],
                     id="fit-decay"),
        pytest.param(["verify-kernels"], {}, ["kernel_bounds.csv", "kernel_bounds_refined.csv"],
                     id="verify-kernels"),
        pytest.param(["verify-lemmas"], {},
                     [f"expintegral_{x}.csv" for x in ("p-1", "p-2", "p-3", "summary")],
                     id="verify-lemmas"),
        pytest.param(["compare-mhd", "--gammas", "0.1,0.05", "--T", "0.2"],
                     {"gammas": [0.1, 0.05], "T": 0.2}, ["singular_limit.csv"],
                     id="compare-mhd"),
    ])
    def test_manifest_lists_the_written_files(self, tmp_path, argv, echo, files):
        # the tables in the order they were written, then the checkpoints
        series = tmp_path / "in.csv"
        series.write_text("t,u_L2\n" + "".join(f"{t}.0,{1 / t!r}\n" for t in range(1, 13)))
        argv = [str(series) if a == "SERIES" else a for a in argv]
        echo = {k: str(series) if v == "SERIES" else v for k, v in echo.items()}
        out = tmp_path / "out"
        # the default fit window of SMALL_RUN's 4*pi box is empty
        doc = SWEEP_RUN if argv[0] in ("sweep", "fit-decay") else SMALL_RUN
        assert main(argv + ["--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
        head, *rows = [json.loads(line) for line in
                       (out / "manifest.jsonl").read_text().splitlines()]
        assert head["kind"] == "run"
        assert head["args"] == {"command": argv[0], **echo}
        assert [r["path"] for r in rows] == files
        assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.jsonl"])
        for r in rows:
            assert r["config_hash"] == head["config_hash"]
            assert r["kind"] == ("checkpoint" if r["path"].endswith(".mhdw")
                                 else r["path"].removesuffix(".csv"))


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mhdwave.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


_TINY = float(np.finfo(float).tiny)
_BOUND = 2.5e306  # 40 gamma, the kernel-bound samples' longest time, at 1e308


# gamma, whether a surface that runs the MHD system at gamma = 0 takes it,
# and whether a damped-wave surface does
GAMMA_VERDICTS = [
    (math.nan, False, False),
    (-math.inf, False, False),
    (-1.0, False, False),
    (-0.0, True, False),
    (0.0, True, False),
    (5e-324, False, False),
    (float(np.nextafter(_TINY, 0)), False, False),
    (_TINY, True, True),
    (1.0, True, True),
    (_BOUND, True, True),
    (float(np.nextafter(_BOUND, math.inf)), False, False),
    (math.inf, False, False),
]


@pytest.mark.parametrize("gamma,mhd_ok,wave_ok", GAMMA_VERDICTS,
                         ids=[repr(g) for g, *_ in GAMMA_VERDICTS])
def test_gamma_verdicts(tmp_path, capsys, gamma, mhd_ok, wave_ok):
    """Every gamma surface takes or refuses a gamma alike; gamma = 0 passes
    only where the MHD system runs."""
    def verdict(call, error):
        try:
            call()
        except error:
            return False
        return True

    grid = GridSpec(16, 2 * math.pi)
    ck = tmp_path / "ck.mhdw"
    save_checkpoint(ck, make_initial_data("taylor_green", {"amplitude": 1.0}, grid), gamma)
    taken = {
        "SolverConfig": verdict(lambda: SolverConfig(gamma=gamma, dt=0.1, t_end=1.0, grid=grid),
                                ConfigurationError),
        "load_checkpoint": verdict(lambda: load_checkpoint(ck), ConfigurationError),
        "_positive_gammas": verdict(lambda: decay._positive_gammas([gamma]),
                                    ConfigurationError),
        "kernel_pair": verdict(lambda: kernel_pair(gamma, 0.0, 0.0), DomainError),
    }
    # through the CLI a refusal is exit 2 at the gamma's path, and writes
    # nothing.  A taken gamma: verify-kernels writes finite constants, or at
    # gamma = tiny, whose S1 sample 75/gamma is past the float range, exits 4;
    # a sweep of zero data exits 4 (nothing to fit) before any step
    doc = {"physics": {"gamma": gamma}}
    zero = dict(SMALL_RUN, initial_data=dict(SMALL_RUN["initial_data"], amplitude=0))
    for name, argv, path, rc_taken in [
        ("verify-kernels", ["verify-kernels", "--config", write_config(tmp_path, doc)],
         "physics.gamma:", 4 if gamma == _TINY else 0),
        ("sweep --gammas", ["sweep", "--config", write_config(tmp_path, zero, "zero.json"),
                            f"--gammas={gamma!r}"], "gammas:", 4),
    ]:
        out = tmp_path / name.replace(" ", "")
        capsys.readouterr()
        rc = main(argv + ["--output", str(out)])
        err = capsys.readouterr().err
        taken[name] = rc != 2
        if rc == 2:
            assert f"configuration error: {path}" in err
            assert not out.exists()
        else:
            assert rc == rc_taken, err
        if rc == 0:
            _, *rows = (out / "kernel_bounds.csv").read_text().splitlines()
            assert all(math.isfinite(float(row.split(",")[3])) for row in rows)
    runs_mhd = {"SolverConfig", "load_checkpoint"}
    assert taken == {k: mhd_ok if k in runs_mhd else wave_ok for k in taken}
