"""Run configuration file: INI sections ``[model]`` and ``[train]``.

Format (parsed with configparser, values read raw)::

    [model]
    hidden = 64
    layers = 3
    readout = gca
    fusion = diffatt
    temperature = learnable
    ntn_slices = 16
    efn_reduction = 4
    seed = 0

    [train]
    epochs = 18
    batch_size = 128
    lr = 0.001
    validations = 20
    val_window = 0.5
    seed = 0

The keys of ``[model]`` are the fields of ``ModelConfig`` except
``alphabet_size``, which the dataset sets; the keys of ``[train]`` are the
fields of ``TrainConfig``. Each value is parsed as its field's type;
``temperature`` is ``learnable`` or a number. A comment takes a line of its
own. Every section and every key is optional: what is left out keeps the
field's default, as shown above. The file is read as UTF-8. A file that is
not UTF-8 or that configparser cannot parse, an unknown section
(``[DEFAULT]`` included) or key, and a value that does not parse raise
``ConfigError``; the dataclasses check the ranges. Flags given on the
command line override file values, and every run emits its fully resolved
configuration in its report file.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing

from .model import ModelConfig
from .training import TrainConfig

SECTIONS = {"model": ModelConfig, "train": TrainConfig}


class ConfigError(ValueError):
    pass


def parse_temperature(raw):
    """``"learnable"`` or the number in ``raw``; the range is ModelConfig's
    to check."""
    if raw == "learnable":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"temperature must be 'learnable' or a number, got {raw!r}")


def load_config(path) -> dict:
    """Returns {"model": {...}, "train": {...}} with typed values; a section
    the file leaves out is empty."""
    # no section name is special: "" can head no section, so a [DEFAULT]
    # section is an unknown one rather than defaults for the others
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_string(fh.read(), source=str(path))
    except OSError:
        raise ConfigError(f"cannot read config file {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start}: not UTF-8") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    out = {section: {} for section in SECTIONS}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        cls = SECTIONS[section]
        keys = {f.name for f in dataclasses.fields(cls)} - {"alphabet_size"}
        types = typing.get_type_hints(cls)
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            parse = parse_temperature if key == "temperature" else types[key]
            try:
                out[section][key] = parse(raw)
            except ValueError:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}")
    return out
