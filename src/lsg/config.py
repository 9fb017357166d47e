"""Parsers of CLI values, and config files as default flag values.

Every value flag of `lsg` names one of the parsers below as its argparse
`type=`; each raises ConfigError on a bad value, so a value is checked
once, whether it came from the command line or from a config file.

A config file (or a bundled preset) is a list of `flag = value` lines,
`#` comments allowed. Each key is the long name of a flag of the
subcommand the file is for, and the lines become `--flag=value`
arguments placed before the user's own, so the command line wins.
Example, for `lsg hardy-check`:

    group = euclid:1
    grid = 2048,12
    t0 = 1.0
    init = gaussian:a=1,chirp=-0.25
    tol-crit = 0.05
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError


@dataclass(frozen=True)
class InitData:
    """A Gaussian e^{-rate·|H|² + i·chirp·|H|²}, the one kind of `--init`."""
    rate: float = 1.0
    chirp: float = 0.0


def finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def positive(text: str) -> float:
    value = finite(text)
    if value <= 0:
        raise ConfigError(f"expected a positive number, got {text!r}")
    return value


def nonzero(text: str) -> float:
    value = finite(text)
    if value == 0:
        raise ConfigError(f"expected a nonzero number, got {text!r}")
    return value


def int_at_least(low: int):
    """The parser of integers >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise ConfigError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated finite floats such as "0.25, 1, 4"."""
    return tuple(finite(v) for v in text.split(","))


def parse_times(text: str) -> tuple[float, ...]:
    """Comma-separated positive finite times."""
    return tuple(positive(v) for v in text.split(","))


def parse_grid(text: str) -> tuple[int, float]:
    """'N,L': N even nodes per axis, N >= 16, on [-L, L) with 0 < 2L < ∞."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"grid expects 'N,L', got {text!r}")
    n, box = int_at_least(16)(parts[0]), positive(parts[1])
    if n % 2 != 0:
        raise ConfigError(f"grid N must be even, got {n}")
    if not math.isfinite(2.0 * box):
        raise ConfigError(f"grid width 2L overflows at L = {box:g}")
    return n, box


def parse_init(text: str) -> InitData:
    """Parse 'gaussian:a=<rate>[,chirp=<c>]' descriptors."""
    kind, _, rest = text.strip().partition(":")
    if kind.strip().lower() != "gaussian":
        raise ConfigError(f"unsupported init kind {kind!r}")
    rate, chirp = 1.0, 0.0
    if rest:
        for item in rest.split(","):
            name, _, val = item.partition("=")
            name = name.strip().lower()
            if name == "a":
                rate = positive(val)
            elif name == "chirp":
                chirp = finite(val)
            else:
                raise ConfigError(f"unknown init parameter {name!r}")
    return InitData(rate, chirp)


def config_args(text: str) -> list[str]:
    """`flag = value` lines as `--flag=value` arguments, in file order."""
    args = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected flag = value")
        if key in ("config", "preset"):
            raise ConfigError(f"line {lineno}: a config cannot set {key!r}")
        args.append(f"--{key}={value}")
    return args


def preset_text(name: str) -> str:
    """The text of one of the bundled .cfg presets, by bare name."""
    fname = name if name.endswith(".cfg") else f"{name}.cfg"
    try:
        return resources.files("lsg").joinpath("presets", fname).read_text()
    except FileNotFoundError:
        raise ConfigError(f"no bundled preset {name!r}") from None
