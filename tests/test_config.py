import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpcag.evalcluster import ExperimentConfig
from frpcag.config import ConfigError, parse_keyvalue_text
from frpcag.solver import SolverConfig


@pytest.mark.parametrize("text, field, expected", [
    ("corrupt_after_standardize = True", "corrupt_after_standardize", True),
    ("corrupt_after_standardize = false", "corrupt_after_standardize", False),
    ("knn_k = 7", "knn_k", 7),
    ("fraction = 1e-1", "fraction", 0.1),
    ("sigma2 = auto", "sigma2", "auto"),
    ("sigma2 = 2.5", "sigma2", 2.5),
    ("gamma = 3", "gamma", (3.0,)),
    ("gamma = 1, 10,30", "gamma", (1.0, 10.0, 30.0)),
    ("gamma1 = 0.5", "gamma1", 0.5),
    ("dataset = 'my data.csv'", "dataset", "my data.csv"),
    ("labels = a,b.txt", "labels", "a,b.txt"),
])
def test_experiment_values_convert_by_field_type(text, field, expected):
    value = getattr(parse_keyvalue_text(text, ExperimentConfig), field)
    assert value == expected and type(value) is type(expected)


def test_experiment_defaults_come_from_the_declaration():
    assert parse_keyvalue_text("# nothing set\n", ExperimentConfig) == ExperimentConfig()


@pytest.mark.parametrize("text, expected", [
    ("", [SolverConfig()]),
    ("max_iters = 5", [SolverConfig(max_iters=5)]),
    ("epsilon = 1e-9\ngamma = 1, 2",
     [SolverConfig(epsilon=1e-9, gamma1=g, gamma2=g) for g in (1, 2)]),
    ("loss = frobenius_sq\ngamma1 = 3", [SolverConfig(loss="frobenius_sq", gamma1=3.0)]),
])
def test_experiment_solver_keys_lay_over_solver_defaults(text, expected):
    assert parse_keyvalue_text(text, ExperimentConfig).solver_configs() == expected


@pytest.mark.parametrize("text", [
    "corrupt_after_standardize = no", "corrupt_after_standardize = 1",
    "knn_k = 5.5", "knn_k = 1e3", "restarts = ten",
    "epsilon = nan", "fraction = inf", "sigma2 = 0", "sigma2 = Auto",
    "gamma = 1,,2", "gamma = 1, nan",
    "gamma = 1\ngamma2 = 2",
    "knn_k = 0", "restarts = 0", "n = -3", "n = 0", "p = 0",
    "image_height = 0\nimage_width = 4", "image_width = -1\nimage_height = 4",
    "image_height = 4\nimage_width = 4\ncorruption = missing",
    "image_height = 4\nimage_width = 4\ncorruption = none",
    "knn_k = 1_0", "knn_k = \u0661\u0660", "fraction = 0.2_5", "gamma = 1, \u0662",
    "rank_threshold = -1", "seed = -1", "data_seed = -1", "corruption_seed = -2",
    "knn_k = 3\nknn_k = 4", "format = bogus",
])
def test_experiment_bad_values_name_source_and_key(text):
    key = text.split("=", 1)[0].strip()
    with pytest.raises(ConfigError, match=f"exp.conf:.*{key}"):
        parse_keyvalue_text(text, ExperimentConfig, source="exp.conf")


@pytest.mark.parametrize("text", ["gamma1 = nan", "max_iters = 0", "loss = l2", "gamma3 = 1",
                                  "max_iters = 1_000"])
def test_solver_config_text_rejects(text):
    with pytest.raises(ConfigError):
        parse_keyvalue_text(text, SolverConfig)


def test_step_key_is_refused_as_unknown():
    # the solver always takes auto_step(gamma1, gamma2)
    for schema in (ExperimentConfig, SolverConfig):
        with pytest.raises(ConfigError, match="exp.conf:1: unknown key 'step'"):
            parse_keyvalue_text("step = 0.1", schema, source="exp.conf")


KEYS = [f for f in ExperimentConfig.__dataclass_fields__] + ["bogus", ""]
VALUES = ["1", "-1", "0", "2.5", "1e400", "nan", "inf", "auto", "true", "No", "1, 2",
          ",", "l1", "w", "block", "'x'", ""]
LINES = st.one_of(
    st.tuples(st.sampled_from(KEYS) | st.text(max_size=8),
              st.sampled_from(VALUES) | st.text(max_size=8))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8), st.sampled_from([ExperimentConfig, SolverConfig]))
def test_any_text_gives_a_config_or_config_error(lines, schema):
    try:
        cfg = parse_keyvalue_text("\n".join(lines), schema)
    except ConfigError:
        return
    assert isinstance(cfg, schema)
    floats = [v for v in vars(cfg).values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in floats)
