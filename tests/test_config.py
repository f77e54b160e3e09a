import pytest

from hdnav import hdc
from hdnav.config import ExperimentConfig, apply_overrides, load_config


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.d == 1000
    assert cfg.seed is None


def test_theta_is_the_hdc_constant_not_a_field():
    # the benchmark's viability oracle reads ExperimentConfig().theta
    assert ExperimentConfig().theta == hdc.THETA
    assert "theta" not in ExperimentConfig().as_dict()
    with pytest.raises(TypeError):
        ExperimentConfig(theta=0.2)


def test_model_commands_need_hdc_scale_dimension():
    for d in (128, 512, 999):
        cfg = ExperimentConfig(d=d, seed=1)
        cfg.validate()  # similarity stats may run at any dimension
        with pytest.raises(ValueError, match="d >= 1000"):
            cfg.validate_for_models()
    ExperimentConfig(d=1000, seed=1).validate_for_models()


def test_require_seed():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig().require_seed()
    assert ExperimentConfig(seed=7).require_seed() == 7


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment setup
        d = 512           # dimension
        mission_trials = 5
        output_dir = results
        seed = 9
        """
    )
    cfg = load_config(path)
    assert (cfg.d, cfg.mission_trials) == (512, 5)
    assert cfg.output_dir == "results"
    assert cfg.seed == 9


@pytest.mark.parametrize(
    "key",
    [
        "bogus", "grid_step_cap", "object_hop_cap", "mission_cell_cap", "phi_g", "phi_o",
        "theta_o", "theta",
    ],
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
        "d", "mission_goals", "mission_trials", "grid_only_trials",
        "viability_mazes", "door_removal_trials", "workers", "seed", "output_dir",
    }
