"""Domain types and input checks for panels of binary experts.

A panel bundles n conditionally independent binary experts. Expert i is
described by its sensitivity psi[i] (probability of voting 1 when the
hidden label is 1) and its specificity eta[i] (probability of voting 0
when the hidden label is 0), and the hidden label itself carries a prior
bias p_y = P(label = 1).

Sensitivities and specificities may sit on the boundary of [0, 1]; a
perfectly informative or perfectly anti-informative expert is a legal
input. The prior must be strictly interior.
"""

from __future__ import annotations

import json
import os
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "ProductBernoulli",
    "ExpertPanel",
    "validate_panel",
    "load_panel",
    "fold_bias",
]


class ValidationError(ValueError):
    """Raised when inputs fail a structural or range check."""


_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 80


def _shown(value, form=repr) -> str:
    """form(value), repr or str, as an error message echoes it: at most
    80 characters, cut in the middle when longer. Call it only to raise.

    A repr is reprlib's, which abbreviates containers past 6 items or 6
    levels without building their whole repr, so a long or deeply nested
    value costs little; a short value prints as repr(value) does.
    """
    try:
        text = str(value) if form is str else _ECHO.repr(value)
    except ValueError:  # an int past the 4300 digits that str() prints
        text = f"<{type(value).__name__} too large to print>"
    if len(text) > _ECHO.maxother:
        text = f"{text[:38]}...{text[-39:]}"
    return text


def _inside(x, interval: str):
    """Whether x lies in interval, written like "(0, 1]": a parenthesis
    opens that end, a bracket closes it. Elementwise on arrays; NaN never
    lies inside."""
    lo, hi = map(float, interval[1:-1].split(","))
    above = x >= lo if interval[0] == "[" else x > lo
    below = x <= hi if interval[-1] == "]" else x < hi
    return above & below


def _vector(values, name: str, interval: str = "[0, 1]") -> np.ndarray:
    """Coerce to a read-only, nonempty 1-D float64 array with entries in
    interval, written as for _inside; by default probabilities. Numbers
    written as strings are refused."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind in "OSU" and any(isinstance(v, (str, bytes)) for v in raw.flat):
            raise TypeError("numbers written as strings are refused")
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not a numeric sequence: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must contain at least one entry")
    inside = _inside(arr, interval)
    if not inside.all():
        bad = int(inside.argmin())
        raise ValidationError(f"{name}[{bad}] = {arr[bad]} lies outside {interval}")
    arr.setflags(write=False)
    return arr


def _scalar(value, name: str, interval: str = "(-inf, inf)") -> float:
    """Coerce to a float in interval, written as for _inside. A number
    written as a string is refused."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}") from None
    if not _inside(x, interval):
        raise ValidationError(f"{name} = {_shown(value)} must lie in {interval}")
    return x


def _integer(value, name: str, least: int | None = 1) -> int:
    """value as an int. It must be an int or numpy integer, not a bool, and
    at least `least` unless that is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {_shown(value, str)}")
    return int(value)


@dataclass(frozen=True, eq=False)
class ProductBernoulli:
    """Product of independent Bernoulli coordinates on {0, 1}^n.

    Coordinate i takes value 1 with probability p[i]. The induced measure
    on the hypercube is the product of the coordinate marginals.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _vector(self.p, "p"))

    @property
    def n(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True, eq=False)
class ExpertPanel:
    """A panel of conditionally independent binary experts.

    psi[i] = P(expert i votes 1 | label 1), eta[i] = P(votes 0 | label 0),
    p_y = P(label 1). Conditioned on the label the votes are independent.
    """

    psi: np.ndarray
    eta: np.ndarray
    p_y: float = 0.5

    def __post_init__(self):
        psi = _vector(self.psi, "psi")
        eta = _vector(self.eta, "eta")
        if psi.size != eta.size:
            raise ValidationError(
                f"psi and eta must have equal length, got {psi.size} and {eta.size}"
            )
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "p_y", _scalar(self.p_y, "p_y", "(0, 1)"))

    @property
    def n(self) -> int:
        return int(self.psi.size)

    @property
    def symmetric(self) -> bool:
        """True when psi equals eta entrywise, exactly."""
        return bool(np.array_equal(self.psi, self.eta))

    def law_given_one(self) -> ProductBernoulli:
        """Law of the vote vector conditioned on label 1."""
        return ProductBernoulli(self.psi)

    def law_given_zero(self) -> ProductBernoulli:
        """Law of the vote vector conditioned on label 0.

        An expert with specificity eta votes 1 with probability 1 - eta
        when the label is 0.
        """
        return ProductBernoulli(1.0 - self.eta)


def _check_panel(panel) -> ExpertPanel:
    if not isinstance(panel, ExpertPanel):
        raise ValidationError(f"expected an ExpertPanel, got {type(panel).__name__}")
    return panel


_PANEL_KEYS = frozenset({"psi", "eta", "p_y"})


def validate_panel(raw: Mapping) -> ExpertPanel:
    """Build a validated panel from mapping data.

    Expects keys "psi" and "eta" (equal-length probability vectors) and an
    optional "p_y" defaulting to 1/2. Unknown keys are rejected so typos
    do not pass silently; nothing is ever clamped.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(f"panel data must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _PANEL_KEYS)
    if unknown:
        raise ValidationError(f"unknown panel keys: {_shown(', '.join(map(str, unknown)), str)}")
    for key in ("psi", "eta"):
        if key not in raw:
            raise ValidationError(f"panel data is missing required key {key!r}")
    return ExpertPanel(psi=raw["psi"], eta=raw["eta"], p_y=raw.get("p_y", 0.5))


def _refuse_repeated_keys(pairs: list) -> dict:
    """json object_pairs_hook: the object as a dict, or ValidationError
    naming a key that appears twice, where json.load keeps the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"repeats the key {_shown(key)}")
        obj[key] = value
    return obj


def load_panel(path) -> ExpertPanel:
    """Read a panel from a UTF-8 JSON file holding one panel object.

    path is a str, bytes or os.PathLike; an int is refused rather than
    opened as a file descriptor. A key repeated within an object, or
    nesting too deep for the parser, is refused."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(
            f"panel path must be a str, bytes or os.PathLike, got {_shown(path)}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
    except ValidationError as exc:
        raise ValidationError(f"panel file {path} {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"panel file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"panel file {path} nests too deeply to parse") from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        # an OSError with a filename repeats the path in its str()
        reason = exc.strerror if getattr(exc, "filename", None) is not None else exc
        raise ValidationError(f"cannot read panel file {path}: {reason}") from None
    return validate_panel(raw)


def fold_bias(panel: ExpertPanel) -> ExpertPanel:
    """Absorb a biased prior into an extra expert, leaving an unbiased panel.

    A prior p_y = theta != 1/2 contributes the same evidence as one more
    expert with sensitivity and specificity both equal to theta voting on
    an unbiased label. The optimal error of the folded panel is the
    average of the minimal risks at priors theta and 1 - theta. When
    psi = eta entrywise that equals the minimal risk at theta itself; an
    asymmetric panel's folded error can exceed it. Returns the panel
    itself when p_y is exactly 1/2.
    """
    if _check_panel(panel).p_y == 0.5:
        return panel
    theta = panel.p_y
    return ExpertPanel(
        psi=np.append(panel.psi, theta),
        eta=np.append(panel.eta, theta),
        p_y=0.5,
    )
