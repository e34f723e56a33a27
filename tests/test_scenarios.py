import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwelltime.scenarios as scenarios
import dwelltime.threebody as threebody
from dwelltime import cli
from dwelltime.cli import COMMANDS, build_parser, main
from dwelltime.errors import ConfigurationError
from dwelltime.potentials import PotentialSpec
from dwelltime.radial import RadialGrid, phase_shift_scan
from dwelltime.resonance import find_kp_eigenvalues
from dwelltime.scenarios import (
    RUNNERS,
    Numerics,
    bundled_regression_config,
    load_config,
    parse_numerics,
    run_scenario,
    write_csv,
    write_wave_csv,
)

SW = {"kind": "square_well", "params": {"V0": 10.0, "a": 1.0}, "support_radius": 1.0}
FREE = {"kind": "square_well", "params": {"V0": 0.0, "a": 1.0}, "support_radius": 1.0}
BARRIER = {"kind": "rectangular_barrier_1d", "params": {"V0": 5.0, "L": 1.0}, "support_radius": 1.0}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_directory_is_not_a_config(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path)

    def test_invalid_json_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(bad)

    def test_messages_name_offending_key_and_type(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "scatter_scan", "mass": 1.0,
                                      "energy_range": "nope", "potential": FREE})
        assert run_scenario(cfg) == 1
        cfg2 = write_config(tmp_path, {"scenario": "scatter_scan",
                                       "energy_range": [0.1, 1.0, 5], "potential": FREE},
                            name="c2.json")
        assert run_scenario(cfg2) == 1  # missing 'mass'

    def test_numerics_validation(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="grid_spacing"):
                parse_numerics({"grid_spacing": bad})
        with pytest.raises(ConfigurationError, match="k_mode"):
            parse_numerics({"k_mode": "magic"})
        with pytest.raises(ConfigurationError, match="tolerances"):
            parse_numerics({"tolerances": {"winful": 1e-5}})
        assert parse_numerics({"grid_spacing": 0.002}) == Numerics(grid_spacing=0.002)
        assert parse_numerics({"k_mode": "probe", "k_fixed": 1.5}) == Numerics(1e-3, "probe", 1.5)
        assert parse_numerics(None) == Numerics()

    def test_unknown_scenario_rejected(self, tmp_path):
        for name in ("warp_drive", "verify_eq10"):
            cfg = write_config(tmp_path, {"scenario": name})
            assert run_scenario(cfg) == 1

    def test_subcommand_scenario_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "dwell_scan", "potential": FREE,
                                      "mass": 1.0, "energy_range": [0.5, 1.0, 3]})
        assert main(["scatter", "--config", str(cfg)]) == 1


class TestScatterScan:
    def test_free_potential_gives_zero_delta_column(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "scatter_scan", "potential": FREE, "mass": 1.0,
            "energy_range": [0.1, 10.0, 20],
            "output": {"path": "scatter.csv", "format": "csv"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "scatter.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("delta")
        deltas = [abs(float(row.split(",")[idx])) for row in lines[1:]]
        assert len(deltas) == 20
        assert max(deltas) < 1e-10

    def test_no_tmp_file_left_and_sidecar_written(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "scatter_scan", "potential": SW, "mass": 1.0,
            "energy_range": [0.5, 2.0, 5], "output": {"path": "s.csv"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        assert not list(tmp_path.glob("*.tmp"))
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["package_version"]
        assert "config_echo" in meta

    def test_determinism_two_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "scatter_scan", "potential": SW, "mass": 1.0,
            "energy_range": [0.5, 2.0, 7], "output": {"path": "s.csv"},
        })
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/s.csv").read_bytes() == (tmp_path / "b/s.csv").read_bytes()

    def test_wavefunction_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "scatter_scan", "potential": SW, "mass": 1.0,
            "energy_range": [0.5, 1.0, 2], "output": {"path": "s.csv"},
        })
        assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path),
                     "--dump-wavefunction"]) == 0
        dump = tmp_path / "s_wavefunction_0000.csv"
        assert dump.exists()
        assert dump.read_text().splitlines()[0] == "r,re_phi,im_phi"

    def test_wave_writer_matches_the_per_cell_writer(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16, -1.0 / 3.0]
        nodes = np.array(special + list(np.linspace(0.0, 2.0, 5)))
        values = np.array([complex(a, b) for a, b in zip(special[::-1] + [0.0] * 5,
                                                        np.r_[special[2:], special[:2], 1e-300,
                                                              -2.5, 7.0, 3e15, -0.0])])
        rows = np.column_stack((nodes, values.real, values.imag)).tolist()
        write_csv(tmp_path / "cells.csv", ["r", "re_phi", "im_phi"], rows)
        write_wave_csv(tmp_path / "one.csv", nodes, values)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_one_call_writes_every_file_like_the_per_cell_writer(self, tmp_path):
        nodes = np.linspace(0.0, 3.0, 7)
        re_part = np.array([0.0, 0.1, -1.0 / 3.0, 1e16, 5e-324, -2.5, 7.0])
        negative_zero = re_part + 0.0j
        negative_zero.imag[4] = -0.0
        non_finite = re_part + 1e-300j
        non_finite[[1, 5]] = [complex(math.nan, math.inf), complex(-math.inf, math.nan)]
        files = {"real": re_part + 0.0j, "negative_zero": negative_zero,
                 "non_finite": non_finite}
        scenarios.write_wave_csvs(nodes, [(tmp_path / f"{name}.csv", values)
                                          for name, values in files.items()])
        for name, values in files.items():
            rows = np.column_stack((nodes, values.real, values.imag)).tolist()
            write_csv(tmp_path / f"{name}_cells.csv", ["r", "re_phi", "im_phi"], rows)
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_cells.csv").read_bytes()), name
        assert (tmp_path / "negative_zero.csv").read_text().splitlines()[5].endswith(",-0")
        assert all(row.endswith(",0") for row in (tmp_path / "real.csv").read_text().splitlines()[1:])

    def test_cli_dumps_equal_the_per_cell_writer(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "scatter_scan", "potential": SW, "mass": 1.3, "r0": 2.0,
            "energy_range": [0.5, 4.0, 3], "output": {"path": "s.csv"},
        })
        assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path),
                     "--dump-wavefunction"]) == 0
        wavefunctions = []
        phase_shift_scan(PotentialSpec.from_dict(SW), np.linspace(0.5, 4.0, 3), 1.3, r0=2.0,
                         spacing=1e-3, wavefunctions=wavefunctions)
        nodes = RadialGrid.from_spacing(2.0, 1e-3).nodes()
        for idx, values in enumerate(wavefunctions):
            write_csv(tmp_path / "cells.csv", ["r", "re_phi", "im_phi"],
                      np.column_stack((nodes, values.real, values.imag)).tolist())
            assert ((tmp_path / f"s_wavefunction_{idx:04d}.csv").read_bytes()
                    == (tmp_path / "cells.csv").read_bytes())

        seeds = [[0.49, -0.4], [3.85, -2.07]]
        cfg = write_config(tmp_path, {
            "scenario": "kp_find", "potential": SW, "mass": 1.0, "r0": 2.0,
            "seeds": seeds, "output": {"path": "kp.json"},
        }, name="kp.json.config")
        assert main(["kp", "--config", str(cfg), "--out", str(tmp_path),
                     "--dump-eigenfunctions"]) == 0
        found = find_kp_eigenvalues(PotentialSpec.from_dict(SW), 1.0,
                                    [complex(*s) for s in seeds], 2.0, spacing=1e-3)
        assert len(found.eigenpairs) == 2
        for idx, pair in enumerate(found.eigenpairs):
            values = pair.eigenfunction.values
            write_csv(tmp_path / "cells.csv", ["r", "re_phi", "im_phi"],
                      np.column_stack((nodes, values.real, values.imag)).tolist())
            assert ((tmp_path / f"kp_eigenfunction_{idx:04d}.csv").read_bytes()
                    == (tmp_path / "cells.csv").read_bytes())

    def test_dwell_rejects_wavefunction_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "dwell_scan", "potential": SW, "mass": 1.0, "r0": 1.0,
            "energy_range": [0.5, 1.0, 2], "output": {"path": "d.csv"},
        })
        with pytest.raises(SystemExit) as exc:
            main(["dwell", "--config", str(cfg), "--out", str(tmp_path), "--dump-wavefunction"])
        assert exc.value.code != 0
        assert not (tmp_path / "d.csv").exists()


class TestDwellAndWinful:
    def test_dwell_scan_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "dwell_scan", "potential": SW, "mass": 1.0, "r0": 1.0,
            "energy_range": [0.5, 2.0, 4], "output": {"path": "dwell.csv"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "dwell.csv").read_text().strip().splitlines()
        assert lines[0] == ("E,tau_dwell,tau_phase,tau_free,dwell_delay,"
                            "phase_delay,self_interference,flags")
        assert len(lines) == 5
        # 17-significant-digit round trip
        cell = lines[1].split(",")[1]
        assert float(cell) == float(format(float(cell), ".17g"))

    def test_winful_flags_column_below_threshold(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "winful_1d", "potential": BARRIER, "mass": 1.0,
            "energy_range": [0.01, 2.0, 4], "output": {"path": "w.csv"},
        })
        assert main(["winful1d", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "w.csv").read_text().strip().splitlines()[1:]
        assert "threshold_singular" in rows[0]
        assert "threshold_singular" not in rows[-1]


class TestKPScenarios:
    def test_kp_find_json_contract(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "kp_find", "potential": SW, "mass": 1.0, "r0": 1.0,
            "seeds": [[1.17, -1.57]], "output": {"path": "kp.json"},
        })
        assert main(["kp", "--config", str(cfg), "--out", str(tmp_path),
                     "--dump-eigenfunctions"]) == 0
        payload = json.loads((tmp_path / "kp.json").read_text())
        (entry,) = payload["eigenpairs"]
        assert set(entry) == {"E_R", "Gamma", "k_fixed", "residual",
                              "eq10_relative_residual"}
        assert entry["Gamma"] > 0.0
        assert entry["residual"] < 1e-10
        assert entry["eq10_relative_residual"] < 1e-8
        assert (tmp_path / "kp_eigenfunction_0000.csv").exists()

    def test_kp_find_without_seeds_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "scenario": "kp_find", "potential": FREE, "mass": 1.0, "r0": 1.0,
            "seed_scan": {"energy_range": [0.1, 8.0], "n_scan": 30},
            "output": {"path": "kp.json"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 2
        assert "no resonance seeds found" in capsys.readouterr().out


class TestThreeBodyScenario:
    def test_json_report_keys(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "three_body", "masses": [4.0, 4.0, 1.0],
            "potential_r": SW, "potential_rho": SW,
            "r_chi": 2.0, "rho_phi": 2.0,
            "seeds_r": [[0.8, -0.6]], "seeds_rho": [[1.4, -1.0]],
            "output": {"path": "tb.json"},
        })
        assert main(["threebody", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "tb.json").read_text())
        assert set(payload) == {"W_chi", "W_phi", "Gamma_R", "tau_R", "tau_chi",
                                "tau_phi", "tau_3b", "identity_residual",
                                "continuity_residual"}
        assert payload["identity_residual"] < 1e-8
        assert payload["tau_3b"] == pytest.approx(payload["tau_R"], rel=1e-8)


class TestVerify:
    def test_bundled_regression_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        for name, entry in report.items():
            assert entry.get("pass", True), name

    def test_free_model_skips_resonance_checks(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "identity_suite",
            "models": {"radial": {"potential": FREE, "mass": 1.0,
                                  "energy_range": [0.3, 5.0, 9], "r0": 2.0}},
            "output": {"path": "report.json"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["width_dwell_identity"] == {
            "skipped": "not applicable: free potential has no resonances"}
        assert report["free_dwell_anchor"]["pass"]
        assert report["phase_shift_zero"]["pass"]

    def test_coarsened_grid_fails_width_dwell_check(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "identity_suite",
            "models": {"radial": {"potential": SW, "mass": 1.0,
                                  "energy_range": [0.3, 5.0, 9], "r0": 2.0,
                                  "kp_r0": 1.0, "kp_seeds": [[1.17, -1.57]]}},
            "numerics": {"grid_spacing": 0.02},
            "output": {"path": "report.json"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        entry = report["width_dwell_identity"]
        assert not entry["pass"]
        assert entry["value"] > entry["tolerance"]

    def test_continuity_order_skipped_when_the_coarse_grid_misses_a_jump(self, tmp_path):
        # the well edge is a node at 5e-4 on [0, 2.0005] but not at 1e-3
        cfg = write_config(tmp_path, {
            "scenario": "identity_suite",
            "models": {"three_body": {**THREE_BODY, **TB_SEEDS, "r_chi": 2.0005,
                                      "rho_phi": 2.0005}},
            "numerics": {"grid_spacing": 5e-4},
            "output": {"path": "report.json"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["continuity_order"] == {
            "skipped": "a jump of V is off the nodes at spacing 0.001"}
        assert report["continuity_integrated"]["pass"]


def test_write_csv_formats_17_significant_digits(tmp_path):
    path = tmp_path / "x.csv"
    value = math.pi * 1e-7
    write_csv(path, ["v"], [[value]])
    text = path.read_text()
    assert text == "v\n%s\n" % format(value, ".17g")
    assert float(text.splitlines()[1]) == value


def test_bundled_config_is_packaged():
    path = bundled_regression_config()
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "identity_suite"


def kp_config(**extra) -> dict:
    return {"scenario": "kp_find", "potential": SW, "mass": 1.0, "r0": 1.0,
            "seeds": [[1.17, -1.57]], **extra}


THREE_BODY = {"masses": [4.0, 4.0, 1.0], "potential_r": SW, "potential_rho": SW,
              "r_chi": 2.0, "rho_phi": 2.0}


TB_SEEDS = {"seeds_r": [[0.8, -0.6]], "seeds_rho": [[1.4, -1.0]]}


def three_body_config(**extra) -> dict:
    return {"scenario": "three_body", **THREE_BODY, **extra}


def rejected(tmp_path, capsys, payload: dict) -> str:
    """Run a config that must be refused with exit 1; return the printed message."""
    cfg = write_config(tmp_path, payload)
    assert run_scenario(cfg, out_dir=tmp_path / "out") == 1
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().out


class TestConfigContract:
    """A config key either does something or is rejected with exit 1, naming the key."""

    @pytest.mark.parametrize("numerics,key", [
        ({"grid_spacnig": 0.5}, "grid_spacnig"),
        ({"diff_step_rel": 1e-4}, "diff_step_rel"),
        ({"identity_diff_step_rel": 1e-3}, "identity_diff_step_rel"),
        ({"e_min": 0.05}, "e_min"),
        ({"root_tol": 1e-10}, "root_tol"),
        ({"tolerances": {"width_dwell": 1.0}}, "tolerances"),
        ({"k_mode": "probe"}, "k_fixed"),
        ({"k_fixed": 1.3}, "k_fixed"),
        ({"k_mode": "self_consistent", "k_fixed": 1.3}, "k_fixed"),
    ])
    def test_numerics_keys(self, tmp_path, capsys, numerics, key):
        out = rejected(tmp_path, capsys, kp_config(numerics=numerics))
        assert f"numerics.{key}" in out

    @pytest.mark.parametrize("seed_scan,key", [
        ({"energy_range": ["low", 8.0], "n_scan": 40}, "seed_scan.energy_range"),
        ({"energy_range": [0.1], "n_scan": 40}, "seed_scan.energy_range"),
        ({"energy_range": [8.0, 0.1], "n_scan": 40}, "seed_scan.energy_range"),
        ({"energy_range": [0.0, 8.0], "n_scan": 40}, "seed_scan.energy_range"),
        ({"energy_range": [0.1, math.inf], "n_scan": 40}, "seed_scan.energy_range"),
        ({"energy_range": [0.1, 8.0], "n_scan": 2}, "seed_scan.n_scan"),
        ({"energy_range": [0.1, 8.0], "n_scan": 40.5}, "seed_scan.n_scan"),
        ({"energy_range": [0.1, 8.0]}, "n_scan"),
        ([0.1, 8.0, 40], "seed_scan"),
    ])
    @pytest.mark.parametrize("make", [kp_config, three_body_config], ids=["kp", "threebody"])
    def test_seed_scan(self, tmp_path, capsys, make, seed_scan, key):
        assert key in rejected(tmp_path, capsys, make(seed_scan=seed_scan))

    @pytest.mark.parametrize("payload", [
        {"scenario": "scatter_scan", "potential": SW, "mass": 1.0,
         "energy_range": [0.5, 1.0, 2], "output": {"format": "json"}},
        kp_config(output={"path": "kp.json", "format": "csv"}),
        {"scenario": "identity_suite", "models": {}, "output": {"format": "csv"}},
    ])
    def test_output_format_must_match_the_written_file(self, tmp_path, capsys, payload):
        assert "output.format" in rejected(tmp_path, capsys, payload)

    @pytest.mark.parametrize("payload,key", [
        ({"scenario": "scatter_scan", "potential": SW, "mass": True,
          "energy_range": [0.5, 1.0, 2]}, "scatter_scan.mass"),
        ({"scenario": "scatter_scan", "potential": SW, "mass": 1.0,
          "energy_range": [0.5, True, 2]}, "scatter_scan.energy_range"),
        ({"scenario": "dwell_scan", "potential": SW, "mass": 1.0,
          "energy_range": [0.5, 1.0, 2], "r0": True}, "dwell_scan.r0"),
        (kp_config(numerics={"grid_spacing": True}), "numerics.grid_spacing"),
        (kp_config(numerics={"k_mode": "probe", "k_fixed": True}), "numerics.k_fixed"),
        (kp_config(seeds=[[1.17, False]]), "kp_find.seeds[0]"),
        (kp_config(seed_scan={"energy_range": [True, 8.0], "n_scan": 40}),
         "kp_find.seed_scan.energy_range"),
        (kp_config(seed_scan={"energy_range": [0.1, 8.0], "n_scan": True}),
         "kp_find.seed_scan.n_scan"),
        (three_body_config(masses=[4.0, True, 1.0], **TB_SEEDS), "three_body.masses"),
        (three_body_config(r_chi=True, **TB_SEEDS), "three_body.r_chi"),
        (three_body_config(seeds_r=[[0.8, True]], seeds_rho=TB_SEEDS["seeds_rho"]),
         "three_body.seeds_r[0]"),
        ({"scenario": "identity_suite",
          "models": {"radial": {"potential": SW, "mass": 1.0,
                                "energy_range": [0.5, 1.0, 2], "kp_r0": True}}},
         "models.radial.kp_r0"),
    ])
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, payload, key):
        # bool subclasses int; "mass": true must not run as mass 1.0
        assert key in rejected(tmp_path, capsys, payload)

    @pytest.mark.parametrize("potential,key", [
        ({"kind": "square_well", "params": {"V0": True, "a": 1.0}}, "'V0'"),
        ({"kind": "square_well", "params": {"V0": "10", "a": 1.0}}, "'V0'"),
        ({"kind": "square_well", "params": {"V0": 10.0, "a": [1.0]}}, "'a'"),
        ({**SW, "support_radius": True}, "'support_radius'"),
        ({"kind": "tabulated", "r": [0.0, "1.0"], "v": [-1.0, 0.0]}, "'r'"),
        ({"kind": "tabulated", "r": [0.0, 1.0], "v": [-1.0, False]}, "'v'"),
        ({"kind": "tabulated", "r": [0.0, "x"], "v": [-1.0, 0.0]}, "'r'"),
    ])
    def test_potential_values_are_real_numbers(self, tmp_path, capsys, potential, key):
        # "V0": true ran as V0 = 1 and "V0": "10" as 10; a non-numeric table
        # entry crashed with a traceback
        out = rejected(tmp_path, capsys, {"scenario": "scatter_scan", "potential": potential,
                                          "mass": 1.0, "energy_range": [0.5, 1.0, 2]})
        assert "scatter_scan.potential" in out and key in out

    @pytest.mark.parametrize("count", [2.7, math.nan, True, 1, 2.0])
    def test_energy_range_point_count_is_an_integer_of_at_least_two(self, tmp_path, capsys,
                                                                       count):
        # 2.7 ran 2 energies; NaN crashed in int()
        out = rejected(tmp_path, capsys, {"scenario": "scatter_scan", "potential": SW,
                                          "mass": 1.0, "energy_range": [0.5, 1.0, count]})
        assert "scatter_scan.energy_range" in out

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                       "1" * 400, "-" + "9" * 5000],
                             ids=["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                  "int400", "int-5000"])
    @pytest.mark.parametrize("payload,key", [
        ({"scenario": "scatter_scan", "potential": SW, "mass": "@",
          "energy_range": [0.5, 1.0, 2]}, "scatter_scan.mass"),
        ({"scenario": "dwell_scan", "potential": SW, "mass": 1.0,
          "energy_range": [0.5, 1.0, 2], "r0": "@"}, "dwell_scan.r0"),
        ({"scenario": "scatter_scan", "mass": 1.0, "energy_range": [0.5, 1.0, 2],
          "potential": {"kind": "tabulated", "r": [0.0, 0.5, 1.0], "v": [-5.0, "@", 0.0]}},
         "scatter_scan.potential.v[1]"),
        (kp_config(seeds=[["@", -1]]), "kp_find.seeds[0][0]"),
        (kp_config(numerics={"k_mode": "probe", "k_fixed": "@"}), "kp_find.numerics.k_fixed"),
    ], ids=["mass", "r0", "table_v", "seeds", "k_fixed"])
    def test_non_finite_numbers_are_rejected(self, tmp_path, capsys, token, payload, key):
        # json reads NaN and +-Infinity, turns 1e999 into inf and keeps
        # integers no float can hold; these ran into physics failures or
        # tracebacks
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace('"@"', token), encoding="utf-8")
        assert run_scenario(path, out_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        out = capsys.readouterr().out
        assert f"{key}: {token if len(token) <= 24 else token[:12]}" in out

    def test_finite_extremes_load_unchanged(self, tmp_path):
        text = '{"a": 1e308, "b": -0.0, "c": 5e-324, "d": %d, "e": [1, 2.5]}' % 10 ** 300
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_config(path)
        assert loaded == json.loads(text)
        assert [type(v) for v in loaded.values()] == [float, float, float, int, list]
        assert math.copysign(1.0, loaded["b"]) == -1.0

    def test_three_body_potential_error_names_its_key(self, tmp_path, capsys):
        payload = three_body_config(seeds_r=[[0.8, -0.6]], seeds_rho=[[1.4, -1.0]])
        payload["potential_rho"] = {"kind": "square_wel", "params": {}}
        assert "three_body.potential_rho" in rejected(tmp_path, capsys, payload)


def test_every_runner_is_reached_by_exactly_one_subcommand():
    assert sorted(command.scenario for command in COMMANDS.values()) == sorted(RUNNERS)


def test_readme_config_examples_run(tmp_path):
    # every documented config passes the runners' own validation, so a
    # removed or renamed key cannot linger in the docs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    subcommand = {command.scenario: name for name, command in COMMANDS.items()}
    for i, block in enumerate(blocks):
        payload = json.loads(block)
        cfg = write_config(tmp_path, payload, name=f"readme_{i}.json")
        argv = [subcommand[payload["scenario"]], "--config", str(cfg), "--out", str(tmp_path / str(i))]
        assert main(argv) == 0, block


def test_verify_probe_mode_coarse_solve_keeps_k_fixed(tmp_path, monkeypatch):
    # the continuity-order check compares two grids; both must solve the same
    # probe-mode eigenproblem, not fall back to a self-consistent k on one
    solves = []

    def recording(*args, **kwargs):
        pairs = solve_subsystems(*args, **kwargs)
        solves.append(pairs)
        return pairs

    solve_subsystems = scenarios.solve_subsystems
    monkeypatch.setattr(scenarios, "solve_subsystems", recording)
    cfg = write_config(tmp_path, {
        "scenario": "identity_suite",
        "models": {"three_body": {**THREE_BODY, "seeds_r": [[0.8, -0.6]],
                                  "seeds_rho": [[1.4, -1.0]]}},
        "numerics": {"k_mode": "probe", "k_fixed": 1.3},
        "output": {"path": "report.json"},
    })
    assert run_scenario(cfg, out_dir=tmp_path) == 0
    (fine_r, fine_rho), (coarse_r, coarse_rho) = solves
    for fine, coarse in ((fine_r, coarse_r), (fine_rho, coarse_rho)):
        assert fine.k_fixed == coarse.k_fixed == 1.3
        assert abs(fine.w - coarse.w) < 1e-6
    assert fine_r.eigenfunction.grid.spacing * 2.0 == coarse_r.eigenfunction.grid.spacing


def test_bundled_verify_runs_each_three_body_residual_once_per_input(tmp_path, monkeypatch):
    # factorization once per three_body_dwell (the report and the
    # exchange-symmetry run on swapped channels), continuity once per grid
    calls = {"factorization_residual": 0, "continuity_residual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # three_body_dwell looks both up in threebody; verify imports continuity_residual
    for module, name in ((threebody, "factorization_residual"),
                         (threebody, "continuity_residual"),
                         (scenarios, "continuity_residual")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert calls == {"factorization_residual": 2, "continuity_residual": 2}


def test_free_phase_check_reads_the_configured_scan(tmp_path):
    # matched at r0 = 5 on the configured 1e-3 grid, max |delta| is about
    # 2e-11; a separate scan on a 2e-3 grid would read about 3e-10
    cfg = write_config(tmp_path, {
        "scenario": "identity_suite",
        "models": {"radial": {"potential": FREE, "mass": 1.0,
                              "energy_range": [0.1, 10.0, 25], "r0": 5.0}},
        "output": {"path": "report.json"},
    })
    run_scenario(cfg, out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    deltas, _ = phase_shift_scan(PotentialSpec.from_dict(FREE), np.linspace(0.1, 10.0, 25), 1.0,
                                 r0=5.0, spacing=1e-3)
    assert report["phase_shift_zero"]["value"] == float(np.max(np.abs(deltas)))
    assert report["phase_shift_zero"]["pass"]


SCATTER = {"scenario": "scatter_scan", "potential": SW, "mass": 1.0,
           "energy_range": [0.5, 1.0, 2], "output": {"path": "s.csv"}}


@pytest.fixture
def fresh_parser():
    """Drop the parser ``main`` has cached, before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestCommandLine:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, fresh_parser):
        builds = []

        def counting():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cfg = str(write_config(tmp_path, SCATTER))
        assert main(["scatter", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["scatter", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in COMMANDS],
                             ids=["top"] + list(COMMANDS))
    def test_help_is_that_of_a_fresh_parser(self, argv, fresh_parser):
        def printed(parse):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            return out.getvalue()

        first = printed(main)
        again = printed(main)  # the cached parser, used once already
        assert first == again == printed(build_parser().parse_args)

    def test_a_rejected_command_line_leaves_the_parser_usable(self, tmp_path, fresh_parser):
        dwell = write_config(tmp_path, {**SCATTER, "scenario": "dwell_scan", "r0": 1.0,
                                        "output": {"path": "d.csv"}}, "dwell.json")
        with pytest.raises(SystemExit) as exc:
            main(["dwell", "--config", str(dwell), "--out", str(tmp_path), "--dump-wavefunction"])
        assert exc.value.code == 2
        scatter = write_config(tmp_path, SCATTER, "scatter.json")
        assert main(["scatter", "--config", str(scatter), "--out", str(tmp_path),
                     "--dump-wavefunction"]) == 0
        assert (tmp_path / "s_wavefunction_0000.csv").exists()
        assert not (tmp_path / "d.csv").exists()

    def test_scipy_integrate_loads_only_for_the_three_body_check(self, tmp_path):
        # a fresh interpreter, so that no earlier test has imported it
        code = """
import json, sys
loaded = lambda: "scipy.integrate" in sys.modules
steps = {}
import dwelltime
steps["import dwelltime"] = loaded()
import dwelltime.cli
steps["import dwelltime.cli"] = loaded()
from dwelltime.cli import main
assert main(["scatter", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
steps["scatter job"] = loaded()
assert main(["threebody", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
steps["threebody job"] = loaded()
print(json.dumps(steps))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", code, str(write_config(tmp_path, SCATTER, "scatter.json")),
             str(write_config(tmp_path, three_body_config(**TB_SEEDS), "threebody.json")),
             str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120, check=True)
        steps = json.loads(result.stdout.strip().splitlines()[-1])
        assert steps == {"import dwelltime": False, "import dwelltime.cli": False,
                         "scatter job": False, "threebody job": True}
