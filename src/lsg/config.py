"""Flat key=value run configuration.

One pair per line, `#` comments, unknown keys rejected. Kept deliberately
nested-free so preset files diff cleanly. Example:

    group = A2
    grid = 256,10
    t = 0.25, 1.0, 4.0
    init = gaussian:a=1,chirp=-0.25
    seed = 7
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources

from .errors import ConfigError

DEFAULT_N = 512
DEFAULT_L = 12.0
DEFAULT_SEED = 42


@dataclass(frozen=True)
class InitData:
    kind: str = "gaussian"
    rate: float = 1.0
    chirp: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    group: str = "A1"                      # root-system name or "euclid:<n>"
    grid: tuple[int, float] = (DEFAULT_N, DEFAULT_L)
    spectral_grid: tuple[int, float] | None = None
    times: tuple[float, ...] = (1.0,)
    init: InitData = field(default_factory=InitData)
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    output: str | None = None

    @property
    def euclidean_dim(self) -> int | None:
        return euclidean_dim(self.group)

    def echo(self) -> dict:
        """Deterministic plain-dict form for record emission."""
        return {
            "group": self.group,
            "grid": list(self.grid),
            "spectral_grid": list(self.spectral_grid) if self.spectral_grid else None,
            "times": list(self.times),
            "init": {"kind": self.init.kind, "rate": self.init.rate,
                     "chirp": self.init.chirp},
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
            "output": self.output,
        }


def euclidean_dim(group: str) -> int | None:
    """n for a "euclid:<n>" group (n >= 1), None for a root-system name."""
    if not group.lower().startswith("euclid:"):
        return None
    text = group.split(":", 1)[1]
    try:
        dim = int(text)
    except ValueError as exc:
        raise ConfigError(f"group {group!r}: dimension must be an integer") \
            from exc
    if dim < 1:
        raise ConfigError(f"group {group!r}: dimension must be >= 1")
    return dim


def parse_floats(text: str, key: str) -> tuple[float, ...]:
    """Comma-separated finite floats such as "0.25, 1, 4"."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: values must be finite, got {text!r}")
    return values


def parse_times(text: str, key: str) -> tuple[float, ...]:
    """parse_floats, with every time > 0."""
    times = parse_floats(text, key)
    if any(v <= 0 for v in times):
        raise ConfigError(f"{key}: times must be positive")
    return times


def parse_grid(text: str, key: str) -> tuple[int, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key} expects 'N,L', got {text!r}")
    try:
        n, box = int(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if n % 2 != 0:
        raise ConfigError(f"{key}: N must be even, got {n}")
    if n < 16:
        raise ConfigError(f"{key}: N must be >= 16, got {n}")
    if not 0 < box < math.inf:
        raise ConfigError(f"{key}: L must be positive and finite, got {box}")
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
            try:
                num = float(val)
            except ValueError as exc:
                raise ConfigError(f"init parameter {item!r}") from exc
            if name in ("a", "rate"):
                rate = num
            elif name == "chirp":
                chirp = num
            else:
                raise ConfigError(f"unknown init parameter {name!r}")
    if rate <= 0:
        raise ConfigError(f"init rate must be positive, got {rate}")
    return InitData("gaussian", rate, chirp)


_GROUP_KEYS = {"group", "grid", "spectral_grid", "t", "times", "init", "seed",
               "output"}


def parse_config(text: str) -> RunConfig:
    """Validate flat key=value text into a RunConfig with defaults filled."""
    cfg = RunConfig()
    tolerances: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key.startswith("tol.") or key.startswith("tol_"):
            name = key[4:]
            try:
                tolerances[name] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
            continue
        if key not in _GROUP_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "group":
            euclidean_dim(value)
            cfg = replace(cfg, group=value)
        elif key == "grid":
            cfg = replace(cfg, grid=parse_grid(value, "grid"))
        elif key == "spectral_grid":
            cfg = replace(cfg, spectral_grid=parse_grid(value, "spectral_grid"))
        elif key in ("t", "times"):
            cfg = replace(cfg, times=parse_times(value, f"line {lineno}"))
        elif key == "init":
            cfg = replace(cfg, init=parse_init(value))
        elif key == "seed":
            try:
                cfg = replace(cfg, seed=int(value))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        elif key == "output":
            cfg = replace(cfg, output=value)
    if tolerances:
        cfg = replace(cfg, tolerances=tolerances)
    return cfg


def load_preset(name: str) -> RunConfig:
    """Load one of the bundled .cfg presets by bare name."""
    fname = name if name.endswith(".cfg") else f"{name}.cfg"
    ref = resources.files("lsg").joinpath("presets", fname)
    try:
        text = ref.read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"no bundled preset {name!r}") from exc
    return parse_config(text)
