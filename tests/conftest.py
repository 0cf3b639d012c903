"""Shared helpers for the suite: seeded random states and channels, boxes,
and fresh interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from losrkit import Box, DensityMatrix, MeasurementFamily, PureState, born_box, catalog, mix_boxes, uniform_box

TESTS = Path(__file__).resolve().parent


def random_pure(rng: np.random.Generator, dims) -> PureState:
    total = int(np.prod(dims))
    amp = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(tuple(dims), amp / np.linalg.norm(amp))


def random_density(rng: np.random.Generator, dims) -> DensityMatrix:
    total = int(np.prod(dims))
    g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    rho = g @ g.conj().T
    return DensityMatrix(tuple(dims), rho / np.trace(rho).real)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def majorizes(high, low, tol: float = 1e-9) -> bool:
    """Cumulative-sum dominance of `low` by `high` (descending, zero-padded)."""
    a = np.sort(np.asarray(high, dtype=float))[::-1]
    b = np.sort(np.asarray(low, dtype=float))[::-1]
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - tol))


def phi_plus_box(n_settings: int, visibility: float) -> Box:
    """Born box of phi_plus under n_settings x-z plane measurements per
    party, Bob's turned by pi/(2 n) from Alice's, mixed with the uniform box."""
    theta = np.pi * np.arange(2 * n_settings).reshape(2, n_settings, 1) / n_settings
    theta[1] += np.pi / (2 * n_settings)
    vectors = np.concatenate([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    box = born_box(catalog.phi_plus().density(), MeasurementFamily(vectors))
    return mix_boxes(uniform_box((n_settings,) * 2, (2, 2)), box, visibility)


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter, with ``src`` and this directory
    on its path, and parse the JSON of its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
