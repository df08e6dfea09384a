"""Run configuration for the command-line tool.

A config file is a JSON object with three optional keys:

    {
      "order": "d1" | path to an order JSON file,
      "quadrature": {QuadratureSpec fields},
      "seed": 1729
    }

Any other key, at the top or inside "quadrature", raises ConfigError naming
it.  The degree series takes nothing from the config: its coefficients and
constant term follow from the order.  The environment variable
ARITHTHETA_CONFIG may point at such a file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .greens import QuadratureSpec
from .lattice import BUNDLED_ORDERS, Order, bundled_order, load_order

ENV_VAR = "ARITHTHETA_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    order: str = "d1"
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    seed: int = 1729

    def load_order(self) -> Order:
        if self.order in BUNDLED_ORDERS:
            return bundled_order(self.order)
        path = Path(self.order)
        if not path.is_file():
            raise FileNotFoundError(f"order file not found: {path}")
        return load_order(path)


def _check_keys(section: str, data, known) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object")
    if unknown := sorted(set(data) - set(known)):
        raise ConfigError(f"unknown {section} keys {unknown}; known keys: {known}")


def load_config(path: str | None = None) -> RunConfig:
    """Config from an explicit path, else $ARITHTHETA_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return RunConfig()
    with open(path) as fh:
        data = json.load(fh)
    _check_keys("config", data, [f.name for f in fields(RunConfig)])
    quadrature = data.get("quadrature", {})
    _check_keys("quadrature", quadrature, [f.name for f in fields(QuadratureSpec)])
    order = data.get("order", RunConfig.order)
    if not isinstance(order, str):
        raise ConfigError(f"order must be a string, got {order!r}")
    seed = data.get("seed", RunConfig.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return RunConfig(order=order, quadrature=QuadratureSpec(**quadrature), seed=seed)
