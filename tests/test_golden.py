"""Golden digests: the bytes of every CLI artifact at fixed configurations.

Each configuration runs through ``perflow.cli.main``, and the SHA-256 of
every file it writes is compared with ``golden_digests.json``.  No artifact
depends on ``--out`` (``summary.json`` holds the configuration without it).
A refactor that keeps the numbers keeps these bytes; one that moves them
must say which and why.

Four artifacts print ``np.exp`` results at full precision, and numpy's
AVX-512 exp rounds 1 ULP away from its AVX2 exp on about 5% of inputs.  So
the digest file also names the SIMD target numpy dispatched to when it was
written, and a failure prints it next to the running one.

Regenerate the digest file only on purpose; it prints every digest that
changed, was added or was dropped, so the change can name them::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import perflow.cli as cli

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

LOGISTIC = '{"kind": "logistic", "params": {"rate": 8.0, "midpoint": 0.5}}'
TABULATED = '{"kind": "tabulated", "params": {"knots_x": [-0.5, 0.1, 0.6, 1.5], "knots_p": [0.0, 0.0, 0.9, 1.0]}}'
# rgd field (x - 0.5)^2 below 0.866: a double root
TANGENT = '{"kind": "clamped-polynomial", "params": {"coefficients": [0.25, 0.0, 1.0]}}'
# p(x) = x on [0, 1]: the rgd field is exactly 0 there, 1001 lattice roots
PLATEAU = '{"kind": "clamped-polynomial", "params": {"coefficients": [0, 1]}}'
DISCRETE = ["simulate", "--flow", "discrete-rgd", "--steps", "20000", "--x0", "0.8",
            "--schedule", "inverse:0.5,10", "--seed", "7"]

CONFIGS = {
    "simulate_rgd": ["simulate", "--flow", "rgd", "--x0", "0.1", "--t-end", "50"],
    "simulate_prm": ["simulate", "--flow", "prm", "--x0", "0.39", "--t-end", "50"],
    "simulate_discrete_bernoulli": DISCRETE + ["--noise", "bernoulli:100"],
    "simulate_discrete_gaussian": DISCRETE + ["--noise", "gaussian:0.1"],
    "basins_rgd": ["basins", "--flow", "rgd", "--grid", "2001"],
    "basins_prm": ["basins", "--flow", "prm", "--grid", "2001"],
    "equilibria_rgd": ["equilibria", "--flow", "rgd"],
    "equilibria_prm": ["equilibria", "--flow", "prm"],
    "certify_sweep": ["certify", "--x-star", "0", "--r", "0.4", "--grid", "4001", "--sweep"],
    "bounds": ["bounds", "--x-star", "0", "--r", "0.4", "--grid", "4001", "--x0", "0.2"],
    "align": ["align", "--lo", "0", "--hi", "1", "--grid", "10001"],
    "repro_fig1": ["repro", "fig1"],
    "repro_fig2": ["repro", "fig2"],
    "repro_constants": ["repro", "constants"],
    "basins_logistic": ["basins", "--flow", "rgd", "--grid", "501", "--shift", LOGISTIC],
    "certify_tabulated": ["certify", "--x-star", "0", "--r", "0.3", "--grid", "4001", "--shift", TABULATED],
    "basins_tangent": ["basins", "--flow", "rgd", "--grid", "400", "--shift", TANGENT],
    "basins_plateau": ["basins", "--flow", "rgd", "--shift", PLATEAU],
}


def simd_target() -> str:
    """numpy's highest dispatch target that is enabled together with every target below it.

    ``NPY_DISABLE_CPU_FEATURES=X86_V4`` leaves ``AVX512_ICL`` and
    ``AVX512_SPR`` flagged as enabled, but the kernels that move the digests
    (exp among them) then run at ``X86_V3``.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = list(itertools.takewhile(__cpu_features__.get, __cpu_dispatch__))
    return enabled[-1] if enabled else "baseline"


def artifact_digests(workdir: Path) -> dict:
    """Run every configuration under ``workdir`` and hash what it writes."""
    digests = {}
    for name, argv in CONFIGS.items():
        out = Path("golden") / name
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{name} exited with {code}")
        for path in sorted((workdir / out).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_artifacts_match_golden_digests(tmp_path, monkeypatch):
    pinned = json.loads(DIGEST_FILE.read_text())
    monkeypatch.chdir(tmp_path)
    actual = artifact_digests(tmp_path)
    changed = sorted(k for k in pinned["artifacts"] if actual.get(k) != pinned["artifacts"][k])
    extra = sorted(set(actual) - set(pinned["artifacts"]))
    assert not changed and not extra, (
        f"artifact bytes differ from the digests pinned with numpy {pinned['numpy']} at SIMD target "
        f"{pinned.get('simd_target')} (running numpy {np.__version__} at {simd_target()}): "
        f"changed {changed}, unpinned {extra}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = artifact_digests(Path(tmp))
        finally:
            os.chdir(here)
    pinned = json.loads(DIGEST_FILE.read_text())["artifacts"] if DIGEST_FILE.exists() else {}
    for key in sorted(set(pinned) | set(digests)):
        if key not in digests:
            print(f"dropped {key}")
        elif pinned.get(key) != digests[key]:
            print(f"{'changed' if key in pinned else 'added'} {key}")
    DIGEST_FILE.write_text(
        json.dumps({"numpy": np.__version__, "simd_target": simd_target(), "artifacts": digests}, indent=2,
                   sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
