import re
from pathlib import Path

import pytest

from gedraft.config import ConfigError, load_config, parse_temperature
from gedraft.model import ModelConfig
from gedraft.training import TrainConfig

GOOD = """\
[model]
hidden = 32
layers = 2
readout = gca
fusion = diffatt
temperature = learnable
seed = 3

[train]
epochs = 12
batch_size = 64
lr = 0.002
validations = 10
seed = 1
"""


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_load_full_config(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg["model"] == {
        "hidden": 32,
        "layers": 2,
        "readout": "gca",
        "fusion": "diffatt",
        "temperature": "learnable",
        "seed": 3,
    }
    assert cfg["train"]["lr"] == 0.002
    assert cfg["train"]["epochs"] == 12


def test_partial_config(tmp_path):
    cfg = load_config(write(tmp_path, "[model]\nhidden = 8\n"))
    assert cfg == {"model": {"hidden": 8}, "train": {}}
    cfg = load_config(write(tmp_path, "[train]\nepochs = 2\n"))
    assert cfg == {"model": {}, "train": {"epochs": 2}}


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="section"):
        load_config(write(tmp_path, "[mystery]\nx = 1\n"))


# more malformed files, each through `gedraft train`, are in test_cli.py
@pytest.mark.parametrize(
    "text, message",
    [
        ("[model]\nhidden\n", "[Pp]arsing"),
        # configparser would read [DEFAULT]'s keys into every section
        ("[DEFAULT]\n", r"unknown config section \[DEFAULT\]"),
        ("[model]\nhidden = %(x)s\n", "bad value for 'hidden'"),
    ],
)
def test_malformed_file_rejected(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, text))


def test_values_are_read_raw(tmp_path):
    cfg = load_config(write(tmp_path, "[model]\nreadout = %(x)s\nfusion = 50%\n"))
    assert cfg["model"] == {"readout": "%(x)s", "fusion": "50%"}


def test_alphabet_size_is_not_a_file_key(tmp_path):
    with pytest.raises(ConfigError, match="alphabet_size"):
        load_config(write(tmp_path, "[model]\nalphabet_size = 3\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="momentum"):
        load_config(write(tmp_path, "[train]\nmomentum = 0.9\n"))


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="hidden"):
        load_config(write(tmp_path, "[model]\nhidden = lots\n"))


def test_file_is_read_as_utf_8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("; température\n[model]\nreadout = gca\n".encode("utf-8"))
    assert load_config(path)["model"] == {"readout": "gca"}


def test_file_that_is_not_utf_8_is_rejected_by_name(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[model]\nreadout = \xff\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: byte 18: not UTF-8$"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_numeric_temperature(tmp_path):
    cfg = load_config(write(tmp_path, "[model]\ntemperature = 0.5\n"))
    assert cfg["model"]["temperature"] == 0.5


def test_parse_temperature():
    assert parse_temperature("learnable") == "learnable"
    assert parse_temperature("2.0") == 2.0
    # it only parses: ModelConfig refuses a temperature out of range
    assert parse_temperature("-1") == -1.0
    with pytest.raises(ConfigError):
        parse_temperature("warm")


def test_readme_example_sets_every_key_to_its_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n")[1].split("```")[0]
    cfg = load_config(write(tmp_path, example))
    assert ModelConfig(alphabet_size=1, **cfg["model"]) == ModelConfig(alphabet_size=1)
    assert TrainConfig(**cfg["train"]) == TrainConfig()
    assert set(cfg["model"]) == set(ModelConfig.__dataclass_fields__) - {"alphabet_size"}
    assert set(cfg["train"]) == set(TrainConfig.__dataclass_fields__)
