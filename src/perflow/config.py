"""Experiment configuration: one flat JSON document drives every command.

The document is deliberately plain -- flat keys, JSON scalars and short
lists -- so a run is reproducible from the file alone and trivially parsed
anywhere.  Each key is one field of :class:`ExperimentConfig` and each field
one key, so :func:`to_document` writes the fields and nothing else; the
``shift`` key holds the ``{kind, params}`` object as the document spells it.
Unknown keys are rejected rather than ignored: a typo must fail loudly, not
silently fall back to a default.

This module also owns the run vocabulary that the document names: the flow
kinds, the whole-step horizon rule and the noise and step-schedule specs,
which :mod:`perflow.flows` re-exports.  None of it needs numpy, and only
the functions that build a shift or a model import the numeric modules.
:func:`parse_config` ends by building the shift, which reads and checks
its parameters, so only a document refused before that step loads no
numeric module; one that reaches it loads them, accepted or refused.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConfigError

if TYPE_CHECKING:  # the annotations only; each function imports what it runs
    from .model import BernoulliSquaredModel
    from .shifts import ShiftFunction

RGD_FLOW = "rgd"
PRM_FLOW = "prm"
DISCRETE_RGD = "discrete-rgd"
_FLOW_KINDS = (RGD_FLOW, PRM_FLOW, DISCRETE_RGD)


def _step_count(t_end: float, h: float) -> int:
    if not h > 0:
        raise ValueError("step size must be positive")
    if not t_end > 0:
        raise ValueError("horizon must be positive")
    ratio = t_end / h
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {t_end} over step {h} gives no finite step count")
    steps = round(ratio)
    # a fractional count would silently move the horizon to steps * h
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"horizon {t_end} is not a whole number (>= 1) of steps {h}")
    return steps


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes for the discrete recursion: constant or ``a / (k + b)``.

    The inverse form has divergent step sum and convergent squared sum, the
    standard stochastic-approximation regime.
    """

    form: str
    coefficient: float
    offset: float = 1.0

    def __post_init__(self):
        if self.form not in ("constant", "inverse"):
            raise ValueError(f"unknown schedule form {self.form!r}")
        if not (math.isfinite(self.coefficient) and math.isfinite(self.offset)):
            raise ValueError("schedule coefficient and offset must be finite")
        if self.coefficient <= 0:
            raise ValueError("schedule coefficient must be positive")
        if self.form == "inverse" and self.offset < 1.0:
            raise ValueError("inverse schedule offset must be >= 1")

    @classmethod
    def constant(cls, step: float) -> "StepSchedule":
        return cls("constant", step)

    @classmethod
    def inverse(cls, coefficient: float, offset: float) -> "StepSchedule":
        return cls("inverse", coefficient, offset)

    def values(self, num_steps: int):
        """The first ``num_steps`` step sizes as a float array."""
        import numpy as np

        if self.form == "constant":
            return np.full(num_steps, self.coefficient)
        return self.coefficient / (np.arange(num_steps) + self.offset)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean gradient noise for the discrete recursion.

    ``gaussian`` adds iid N(0, sigma^2) per coordinate.  ``bernoulli-sample``
    models a learner that estimates the gradient from ``sample_size`` fresh
    0/1 responses drawn at the current decision: the gradient estimate is
    ``x_k - mean(Z)``, so the realized noise is ``p(x_k) - mean(Z)``.
    Generators are per-run and seeded; runs never share one.
    """

    mode: str
    sigma: float = 0.0
    sample_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "gaussian", "bernoulli-sample"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("noise sigma must be finite and nonnegative")
        if self.sample_size < 1:
            raise ValueError("sample size must be >= 1")
        if self.sample_size > 2**63 - 1:  # numpy draws binomial counts as int64
            raise ValueError("sample size must be <= 2**63 - 1")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def gaussian(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        return cls("gaussian", sigma=sigma, seed=seed)

    @classmethod
    def bernoulli_sample(cls, sample_size: int, seed: int = 0) -> "NoiseSpec":
        return cls("bernoulli-sample", sample_size=sample_size, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one command invocation, one field per document key."""

    shift: dict = field(default_factory=lambda: {"kind": "bump", "params": {}})
    domain: tuple = (-0.5, 1.5)
    flow: str = RGD_FLOW
    x0: tuple = (0.1,)
    t_end: float = 50.0
    h: float = 0.01
    eq_tol: float = 1e-9
    grid_n: int = 2001
    match_radius: float = 1e-3
    refine_tol: float = 1e-10
    radius: float = 0.4
    x_star: tuple = (0.0,)
    theta: float = 0.5
    epsilon_cap: Optional[float] = None
    noise: str = "none"
    seed: int = 0
    steps: int = 5000
    schedule: str = "constant:0.01"
    lo: float = 0.0
    hi: float = 1.0
    out: str = "out"


def _fail(msg: str):
    raise ConfigError(msg)


def _finite(value):
    """``value`` as a float if it is a finite number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _as_float(value, key):
    number = _finite(value)
    if number is None:
        _fail(f"{key} must be a finite number, got {value!r}")
    return number


def _as_floats(values, key):
    """``values`` as a list of floats: a JSON list of finite numbers."""
    if not isinstance(values, list):
        _fail(f"{key} must be a list of finite numbers, got {values!r}")
    return [_as_float(v, f"{key}[{i}]") for i, v in enumerate(values)]


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{key} must be an integer, got {value!r}")
    return int(value)


# kind -> its constructor in perflow.shifts, by name: parse_config refuses an unknown kind
# without loading numpy.  The constructor's signature is the kind's one parameter list
_SHIFTS = {
    "bump": "bump_shift",
    "logistic": "logistic_shift",
    "clamped-polynomial": "clamped_polynomial_shift",
    "tabulated": "tabulated_shift",
}
# a shift parameter's reader, by the annotation of the constructor parameter it fills
_READERS = {float: _as_float, Sequence[float]: _as_floats}
_SHIFT_KINDS = tuple(_SHIFTS)  # a tuple: an unhashable kind is compared, not hashed

# the single-number keys in the order they are checked: (key, reader, test, the rule a refusal names)
_RANGES = (
    *((key, _as_float, lambda v: v > 0, "must be positive")
      for key in ("t_end", "h", "match_radius", "refine_tol", "radius")),
    ("eq_tol", _as_float, lambda v: v >= 0, "must be nonnegative"),
    ("grid_n", _as_int, lambda v: v >= 2, "must be at least 2"),
    ("theta", _as_float, lambda v: 0.0 < v < 1.0, "must lie strictly inside (0, 1)"),
    *((key, _as_int, lambda v: v >= 0, "must be nonnegative") for key in ("seed", "steps")),
)


def _as_point(value, key):
    """A point of the scalar models: one finite number, bare or in a one-entry list."""
    items = value if isinstance(value, (list, tuple)) else [value]
    numbers = tuple(_finite(v) for v in items)
    if len(numbers) != 1 or None in numbers:
        _fail(f"{key} must be one finite number, got {value!r}")
    return numbers


def parse_config(document: dict) -> ExperimentConfig:
    """Validate a configuration document; unknown keys and bad ranges are errors.

    Keys the document leaves out take the defaults of :class:`ExperimentConfig`.
    """
    if not isinstance(document, dict):
        _fail(f"configuration must be a JSON object, got {type(document).__name__}")
    defaults = to_document(ExperimentConfig())
    unknown = set(document) - set(defaults)
    if unknown:
        _fail(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    doc = {**defaults, **document}
    kwargs = {}

    shift = doc["shift"]
    if not isinstance(shift, dict) or set(shift) - {"kind", "params"}:
        _fail("shift must be an object with keys 'kind' and 'params'")
    shift = {**defaults["shift"], **shift}
    if shift["kind"] not in _SHIFT_KINDS:
        _fail(f"unknown shift kind {shift['kind']!r}; expected one of {_SHIFT_KINDS}")
    if not isinstance(shift["params"], dict):
        _fail("shift.params must be an object")
    kwargs["shift"] = copy.deepcopy(shift)  # the caller keeps its document

    domain = doc["domain"]
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
        _fail(f"domain must be [lo, hi], got {domain!r}")
    d_lo, d_hi = _as_float(domain[0], "domain lo"), _as_float(domain[1], "domain hi")
    if d_lo >= d_hi:
        _fail(f"domain must satisfy lo < hi, got [{d_lo}, {d_hi}]")
    # squares of states (field norms, root bracketing) must not overflow
    if not all(math.isfinite(b * b) for b in (d_lo, d_hi)):
        _fail(f"domain bounds must have finite squares, got [{d_lo}, {d_hi}]")
    kwargs["domain"] = (d_lo, d_hi)

    if doc["flow"] not in _FLOW_KINDS:
        _fail(f"unknown flow kind {doc['flow']!r}; expected one of {_FLOW_KINDS}")
    kwargs["flow"] = doc["flow"]

    kwargs["x0"] = _as_point(doc["x0"], "x0")
    kwargs["x_star"] = _as_point(doc["x_star"], "x_star")

    for key, read, test, rule in _RANGES:
        kwargs[key] = read(doc[key], key)
        if not test(kwargs[key]):
            _fail(f"{key} {rule}, got {kwargs[key]}")
    try:
        _step_count(kwargs["t_end"], kwargs["h"])
    except ValueError as exc:
        _fail(str(exc))

    cap = doc["epsilon_cap"]
    if cap is not None:
        cap = _as_float(cap, "epsilon_cap")
        if cap < 0:
            _fail(f"epsilon_cap must be nonnegative, got {cap}")
    kwargs["epsilon_cap"] = cap

    noise = doc["noise"]
    parse_noise(noise, 0)  # validates the grammar
    kwargs["noise"] = noise

    schedule = doc["schedule"]
    parse_schedule(schedule)
    kwargs["schedule"] = schedule

    kwargs["lo"] = _as_float(doc["lo"], "lo")
    kwargs["hi"] = _as_float(doc["hi"], "hi")
    if kwargs["lo"] >= kwargs["hi"]:
        _fail(f"alignment region needs lo < hi, got [{kwargs['lo']}, {kwargs['hi']}]")

    out = doc["out"]
    if not isinstance(out, str) or not out:
        _fail(f"out must be a non-empty path string, got {out!r}")
    kwargs["out"] = out

    cfg = ExperimentConfig(**kwargs)
    build_shift(cfg)  # reject unknown or malformed shift parameters up front
    return cfg


def to_document(cfg: ExperimentConfig) -> dict:
    """Canonical JSON document reproducing the configuration: each field under its name."""
    doc = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # a copy of the shift object: changing the document must not change the configuration
        doc[f.name] = list(value) if isinstance(value, tuple) else copy.deepcopy(value)
    return doc


def build_shift(cfg: ExperimentConfig) -> ShiftFunction:
    """The shift of ``cfg``: its kind's constructor, called with the parameters the document names.

    Each parameter is read by the reader that its annotation names, and one
    the document leaves out takes the constructor's default.
    """
    import inspect

    from . import shifts

    kind, params = cfg.shift["kind"], cfg.shift["params"]
    constructor = getattr(shifts, _SHIFTS[kind])
    signature = inspect.signature(constructor, eval_str=True).parameters
    if not {k for k, p in signature.items() if p.default is p.empty} <= set(params) <= set(signature):
        takes = ", ".join(k if p.default is p.empty else f"{k}={p.default!r}" for k, p in signature.items())
        _fail(f"{kind} shift takes ({takes}), got {sorted(params)}")
    try:
        return constructor(**{k: _READERS[signature[k].annotation](v, f"{kind} {k}") for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        _fail(f"invalid shift parameters: {exc}")


def build_model(cfg: ExperimentConfig) -> BernoulliSquaredModel:
    from .model import BernoulliSquaredModel

    return BernoulliSquaredModel(shift=build_shift(cfg), domain=cfg.domain)


def _plain(text: str) -> str:
    """``text`` if it is spelled as the grammar writes numbers, else ValueError.

    ``int`` and ``float`` also read digit separators, surrounding spaces and
    non-ASCII digits, which would give one run several spellings.
    """
    if "_" in text or text != text.strip() or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return text


def parse_noise(spec: str, seed: int) -> NoiseSpec:
    """Noise grammar: ``none`` | ``gaussian:SIGMA`` | ``bernoulli:N``."""
    if not isinstance(spec, str):
        _fail(f"noise must be a string, got {spec!r}")
    if spec == "none":
        return NoiseSpec.none()
    head, _, arg = spec.partition(":")
    forms = {"gaussian": (float, NoiseSpec.gaussian), "bernoulli": (int, NoiseSpec.bernoulli_sample)}
    try:
        parse, build = forms[head]
        number = parse(_plain(arg))
    except (KeyError, ValueError):  # not a form, or not a number
        _fail(f"invalid noise specification {spec!r}; expected none, gaussian:SIGMA or bernoulli:N")
    try:
        return build(number, seed=seed)
    except ValueError as exc:
        _fail(f"invalid noise specification {spec!r}: {exc}")


def parse_schedule(spec: str) -> StepSchedule:
    """Schedule grammar: ``constant:A`` | ``inverse:A,B``."""
    if not isinstance(spec, str):
        _fail(f"schedule must be a string, got {spec!r}")
    head, _, arg = spec.partition(":")
    try:
        numbers = [float(_plain(a)) for a in arg.split(",")]
    except ValueError:
        numbers = []  # not numbers: the grammar error below
    if len(numbers) != {"constant": 1, "inverse": 2}.get(head):
        _fail(f"invalid schedule specification {spec!r}; expected constant:A or inverse:A,B")
    try:
        return StepSchedule(head, *numbers)
    except ValueError as exc:
        _fail(f"invalid schedule specification {spec!r}: {exc}")
