import pytest

from hdnav import hdc
from hdnav.config import ExperimentConfig, parse_value


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
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        ExperimentConfig(seed=-3).require_seed()
    assert ExperimentConfig(seed=0).require_seed() == 0
    assert ExperimentConfig(seed=7).require_seed() == 7


def test_every_int_field_must_be_at_least_one():
    int_fields = [
        "d", "mission_trials", "grid_only_trials", "viability_mazes", "door_removal_trials",
        "workers",
    ]
    for name in int_fields:
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            ExperimentConfig(**{name: 0}).validate()


def test_goal_labels_must_be_object_labels():
    ExperimentConfig(mission_goals="k,c,t,e,h").validate()
    with pytest.raises(ValueError, match="unknown goal object 'z'"):
        ExperimentConfig(mission_goals="k,z").validate()
    with pytest.raises(ValueError, match="at least one object"):
        ExperimentConfig(mission_goals=" , ").validate()


def test_parse_value_types_each_field():
    assert parse_value("d", " 512 ") == 512
    assert parse_value("mission_trials", "5") == 5
    assert parse_value("output_dir", " results ") == "results"
    assert parse_value("mission_goals", "k,c,t,e,h") == "k,c,t,e,h"
    assert parse_value("seed", "9") == 9
    assert parse_value("seed", "None") is None
    with pytest.raises(ValueError, match="d must be an integer, got '512.0'"):
        parse_value("d", "512.0")
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        parse_value("bogus", "1")


@pytest.mark.parametrize(
    "key",
    [
        "bogus", "grid_step_cap", "object_hop_cap", "mission_cell_cap", "phi_g", "phi_o",
        "theta_o", "theta",
    ],
)
def test_config_file_unknown_key(key):
    # no text outside the nine fields sets anything: the one parser behind every
    # setting refuses the key, the removed thresholds and step caps included
    with pytest.raises(ValueError, match=f"unknown config key {key!r}"):
        parse_value(key, "1")


def test_as_dict_round_trip():
    cfg = ExperimentConfig(seed=3, mission_trials=7)
    echo = cfg.as_dict()
    assert echo["seed"] == 3
    assert echo["mission_trials"] == 7
    assert set(echo) == {
        "d", "mission_goals", "mission_trials", "grid_only_trials",
        "viability_mazes", "door_removal_trials", "workers", "seed", "output_dir",
    }
