"""Tests for experiment configuration parsing, validation, serialization."""

import pytest

from embml.config import (
    COMMANDS,
    ExperimentSpec,
    ParseError,
    ValidationError,
    parse_config,
    serialize_spec,
)
from embml.scenario import ScenarioConfig


class TestDefaults:
    def test_empty_config_is_all_defaults(self):
        spec = parse_config("")
        assert spec == ExperimentSpec()

    def test_default_values(self):
        spec = ExperimentSpec()
        assert spec.command == "calibrate"
        assert spec.scenario == ScenarioConfig()
        assert spec.pfa == 1e-3
        assert spec.trials == 100_000
        assert spec.detectors == ("glrt", "amf", "rao", "ace", "em-bml-d5")
        assert spec.l_max == (5,)
        assert spec.output_path == "result.csv"

    def test_all_commands_are_known(self):
        assert COMMANDS == ("calibrate", "pfa-sweep", "pd-curve",
                            "mismatch-contour", "convergence", "ingest-run")


class TestParsing:
    def test_sections_and_overrides(self):
        spec = parse_config(
            "[run]\n"
            "command = pd-curve\n"
            "detectors = glrt, em-bml-d5\n"
            "pfa = 0.01\n"
            "trials = 5000\n"
            "calibration_trials = 10000\n"
            "out = curve.csv\n"
            "[scenario]\n"
            "n = 4\n"
            "k = 8\n"
            "rho = 0.5\n"
            "master_seed = 7\n"
            "[grids]\n"
            "scnr_db = 0 5 10\n"
        )
        assert spec.command == "pd-curve"
        assert spec.detectors == ("glrt", "em-bml-d5")
        assert spec.pfa == 0.01
        assert spec.trials == 5000
        assert spec.calibration_trials == 10000
        assert spec.output_path == "curve.csv"
        assert spec.scenario.n == 4
        assert spec.scenario.k == 8
        assert spec.scenario.rho == 0.5
        assert spec.scenario.master_seed == 7
        assert spec.scnr_grid_db == (0.0, 5.0, 10.0)

    def test_detectors_default_follows_l_max(self):
        spec = parse_config("[run]\ncommand = pd-curve\nl_max = 3 9\n")
        assert "em-bml-d3" in spec.detectors
        assert "em-bml-d9" in spec.detectors
        assert "glrt" in spec.detectors

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("[run]\nbogus = 1\n")

    def test_bad_value_reports_location(self):
        with pytest.raises(ParseError, match="scenario.n"):
            parse_config("[scenario]\nn = banana\n")

    def test_overrides_apply_over_text_before_validation(self):
        spec = parse_config(
            "[run]\ntrials = 1000\npfa = 0.01\n",
            {"run": {"command": "convergence", "l_max": [3, 9]},
             "scenario": {"rho": 0.5}},
        )
        assert spec.command == "convergence"
        assert spec.pfa == 0.01
        assert spec.l_max == (3, 9)
        assert spec.detectors[-2:] == ("em-bml-d3", "em-bml-d9")
        assert spec.scenario.rho == 0.5

    def test_scnr_none_is_accepted(self):
        spec = parse_config("[scenario]\nscnr_db = none\n")
        assert spec.scenario.scnr_db is None


class TestValidation:
    def test_pfa_zero_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(pfa=0.0)

    def test_pfa_half_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(pfa=0.5)

    def test_unknown_command_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(command="explode")

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(detectors=("glrt", "nonsense"))

    def test_calibration_must_cover_pfa(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(command="pd-curve", pfa=1e-3, trials=1000,
                           calibration_trials=1000)

    def test_pfa_sweep_calibrates_on_trials(self):
        # the sweep's nominal row reuses its calibration ensemble of trials
        with pytest.raises(ValidationError, match="got 100"):
            ExperimentSpec(command="pfa-sweep", pfa=1e-2, trials=100,
                           calibration_trials=4000)

    def test_convergence_skips_calibration_floor(self):
        spec = ExperimentSpec(command="convergence", pfa=1e-3, trials=1000)
        assert spec.trials == 1000

    def test_ingest_requires_cube_path(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(command="ingest-run", cube_path=None)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(scnr_grid_db=())


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        specs = [
            ExperimentSpec(),
            ExperimentSpec(command="pfa-sweep", pfa=0.01, trials=20_000,
                           detectors=("glrt", "amf", "em-bml-d5"),
                           cnr_grid_db=(30.0, 50.0), rho_grid=(0.5, 0.9)),
            ExperimentSpec(command="convergence", trials=1000,
                           scenario=ScenarioConfig(n=4, k=9, scnr_db=None),
                           l_max=(3, 5)),
            ExperimentSpec(command="ingest-run", cube_path="cube.bin",
                           cube_format="csv", cube_cut_bin=3,
                           cube_eval_bin=9, cube_overlap=0,
                           scenario=ScenarioConfig(scnr_db=12.5)),
        ]
        for spec in specs:
            assert parse_config(serialize_spec(spec)) == spec
