"""Run configuration for the command-line tool.

A config file is JSON with optional keys:

    {
      "order": "d1" | path to an order JSON file,
      "quadrature": {QuadratureSpec fields},
      "seed": 1729,
      "identities": {
        "hodge_degree": "1/12",
        "degree_tables": {"6": {"1": "1/2", ...}}
      }
    }

The environment variable ARITHTHETA_CONFIG may point at such a file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .greens import QuadratureSpec
from .lattice import BUNDLED_ORDERS, Order, bundled_order, load_order

ENV_VAR = "ARITHTHETA_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    order: str = "d1"
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    seed: int = 1729
    hodge_degree: Fraction = Fraction(1, 12)
    degree_tables: dict = field(default_factory=dict)

    def load_order(self) -> Order:
        if self.order in BUNDLED_ORDERS:
            return bundled_order(self.order)
        path = Path(self.order)
        if not path.exists():
            raise FileNotFoundError(f"order file not found: {path}")
        return load_order(path)


def load_config(path: str | None = None) -> RunConfig:
    """Config from an explicit path, else $ARITHTHETA_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return RunConfig()
    with open(path) as fh:
        data = json.load(fh)
    cfg = RunConfig()
    if "quadrature" in data:
        cfg = replace(cfg, quadrature=QuadratureSpec(**data["quadrature"]))
    ident = data.get("identities", {})
    tables = {
        int(d): {int(t): Fraction(c) for t, c in tab.items()}
        for d, tab in ident.get("degree_tables", {}).items()
    }
    return replace(
        cfg,
        order=data.get("order", cfg.order),
        seed=int(data.get("seed", cfg.seed)),
        hodge_degree=Fraction(ident.get("hodge_degree", cfg.hodge_degree)),
        degree_tables=tables,
    )
