import pytest

from hdnav.config import ExperimentConfig, apply_overrides, load_config


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.d == 1000
    assert cfg.theta == 0.1
    assert cfg.seed is None


def test_threshold_range_enforced():
    cfg = ExperimentConfig(theta=1.0)
    with pytest.raises(ValueError, match="theta"):
        cfg.validate()


@pytest.mark.parametrize("cap", [0, -3])
def test_viable_attempt_cap_must_be_positive(cap):
    cfg = ExperimentConfig(viable_attempt_cap=cap)
    with pytest.raises(ValueError, match="viable_attempt_cap must be >= 1"):
        cfg.validate()
    ExperimentConfig(viable_attempt_cap=1).validate()


@pytest.mark.parametrize("pairs", [1, 0])
def test_hdc_pairs_needs_two_for_a_standard_deviation(pairs):
    with pytest.raises(ValueError, match="hdc_pairs must be >= 2"):
        ExperimentConfig(hdc_pairs=pairs).validate()
    ExperimentConfig(hdc_pairs=2).validate()


def test_model_commands_need_hdc_scale_dimension():
    cfg = ExperimentConfig(d=128, seed=1)
    cfg.validate()  # similarity stats may run at any dimension
    with pytest.raises(ValueError, match="d >= 512"):
        cfg.validate_for_models()


def test_require_seed():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig().require_seed()
    assert ExperimentConfig(seed=7).require_seed() == 7


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment setup
        d = 512
        theta = 0.2       # noise floor
        mission_trials = 5
        output_dir = results
        seed = 9
        """
    )
    cfg = load_config(path)
    assert (cfg.d, cfg.theta, cfg.mission_trials) == (512, 0.2, 5)
    assert cfg.output_dir == "results"
    assert cfg.seed == 9


@pytest.mark.parametrize(
    "key",
    ["bogus", "grid_step_cap", "object_hop_cap", "mission_cell_cap", "phi_g", "phi_o", "theta_o"],
)
def test_config_file_unknown_key(tmp_path, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some text\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)


def test_cli_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 512\nseed = 1\n")
    cfg = load_config(path)
    cfg = apply_overrides(cfg, {"d": 1000, "seed": None})
    assert cfg.d == 1000
    assert cfg.seed == 1  # None overrides are ignored


def test_as_dict_round_trip():
    cfg = ExperimentConfig(seed=3, mission_trials=7)
    echo = cfg.as_dict()
    assert echo["seed"] == 3
    assert echo["mission_trials"] == 7
    assert set(echo) == {
        "d", "theta", "mission_goals", "mission_trials", "grid_only_trials",
        "viability_mazes", "door_removal_trials", "hdc_pairs", "viable_attempt_cap",
        "workers", "seed", "output_dir",
    }
