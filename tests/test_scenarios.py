import json
import math
from pathlib import Path

import numpy as np
import pytest

from dwelltime.cli import main
from dwelltime.errors import ConfigurationError
from dwelltime.scenarios import (
    Numerics,
    bundled_regression_config,
    load_config,
    parse_numerics,
    run_scenario,
    write_csv,
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
        with pytest.raises(ConfigurationError, match="grid_spacing"):
            parse_numerics({"grid_spacing": -1.0})
        with pytest.raises(ConfigurationError, match="k_mode"):
            parse_numerics({"k_mode": "magic"})
        with pytest.raises(ConfigurationError, match="unknown check"):
            parse_numerics({"tolerances": {"bogus": 1.0}})
        num = parse_numerics({"grid_spacing": 0.002, "tolerances": {"winful": 1e-5}})
        assert num.grid_spacing == 0.002
        assert num.tolerances["winful"] == 1e-5
        assert num.tolerances["flux"] == Numerics().tolerances["flux"]

    def test_unknown_scenario_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "warp_drive"})
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

    def test_verify_eq10_scenario(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "verify_eq10", "potential": SW, "mass": 1.0, "r0": 1.0,
            "seeds": [[1.17, -1.57]], "output": {"path": "eq10.json"},
        })
        assert run_scenario(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "eq10.json").read_text())
        assert payload["max_eq10_relative_residual"] < 1e-8
        (entry,) = payload["eigenpairs"]
        assert entry["refinement_ratio"] >= 8.0


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
