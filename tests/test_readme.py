"""README's first screen states the privacy figures of the reference run;
these tests derive each one and require it there, formatted as
``dprank report`` prints it. The CLI section's config is a valid config."""

import re
from pathlib import Path

import pytest

from dprank.experiments import ConfigError, ExperimentConfig
from dprank.privacy import gdp_epsilon
from dprank.training import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def first_screen():
    text = README.read_text()
    assert "## Install" in text
    return text.split("## Install", 1)[0]


def test_readme_states_the_reference_privacy_figures(first_screen):
    spec = TrainConfig().privacy_spec(2708)
    # the two figures of summarize's privacy and per-step bound lines
    gdp = gdp_epsilon(spec.t, spec.sigma, spec.delta)
    per_step = gdp_epsilon(spec.t, spec.s_nabla * spec.sigma
                           / (2 * spec.step_bound), spec.delta)
    figures = [
        f"ε {spec.epsilon:g} at δ {spec.delta:g}",
        f"T={spec.t}",
        f"σ≈{spec.sigma:.0f}",
        f"ε {gdp:.4f}",
        f"ε {per_step:.3g}",
        f"{spec.step_bound:.3g} ≤ S∇/T = {spec.s_nabla / spec.t:.2g}",
    ]
    assert figures == ["ε 3.2 at δ 1e-05", "T=845", "σ≈1605", "ε 0.0526",
                       "ε 2.07e-06", "0.00381 ≤ S∇/T = 0.0059"]
    for figure in figures:
        assert figure in first_screen, figure


def test_readme_names_the_edgeless_graph_test(first_screen):
    assert ("tests/test_training.py::test_release_equals_the_edgeless_graphs"
            in first_screen)


def test_readme_cli_config_is_a_valid_config(tmp_path, monkeypatch):
    # every key of the CLI section's JSON block is a config key with a valid
    # value; only its dataset, which no test writes, is missing
    text = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(block)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path).validate()
    assert err.value.problems == [
        "dataset path does not exist: data/benchmark_2708.tsv"]
