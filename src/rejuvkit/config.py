"""JSON configuration: defaults, distribution-scenario presets, parsing.

A config file is a versioned JSON object; unknown fields are rejected so
typos in distribution names fail loudly.  Resolution order: built-in
defaults, then the optional scenario ``preset`` (which swaps distribution
families while keeping the default means), then explicit per-name
``distributions`` overrides, then triggers/branch/workload blocks.

The document is read in one pass: each block must be an object with
known keys, each scalar a JSON number (not a boolean, null or string),
and each law, parameter set and workload is checked once by its own
constructor, whose error becomes a :class:`ConfigError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from importlib import resources

from . import distributions as dist
from .analysis import WorkloadSpec
from .model import TRIGGER_SIDES, TRIGGERS, ModelParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
    "resolve_params",
    "default_config",
    "bundled_config",
    "bundled_config_names",
    "PRESETS",
    "FAMILY_DEFAULTS",
    "FITTED_BRANCH",
]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# Default parameter settings: rate parameters per family, per variable
# group.  Rates are per hour; the printed rates are authoritative even
# where the implied mean differs slightly from the nominal duration
# (e.g. the exponential aging rate implies 1458.4 h, a touch under the
# nominal 60 days, and the migration rate 120.5/h a touch under 30 s).
FAMILY_DEFAULTS = {
    "aging": {
        "exp": {"kind": "exp", "rate": 0.0006857, "unit": "h"},
        "erlang": {"kind": "erlang", "rate": 0.0013717, "shape": 2, "unit": "h"},
        "hypoexp": {"kind": "hypoexp", "rate1": 0.0010816, "rate2": 0.0018762, "unit": "h"},
    },
    "failure": {
        "exp": {"kind": "exp", "rate": 0.0010432, "unit": "h"},
        "erlang": {"kind": "erlang", "rate": 0.0020855, "shape": 2, "unit": "h"},
        "hypoexp": {"kind": "hypoexp", "rate1": 0.0013674, "rate2": 0.0043860, "unit": "h"},
    },
    "fixing": {
        "exp": {"kind": "exp", "rate": 1.0, "unit": "h"},
        "erlang": {"kind": "erlang", "rate": 2.0, "shape": 2, "unit": "h"},
    },
    "reboot": {
        "exp": {"kind": "exp", "rate": 12.0, "unit": "h"},
        "erlang": {"kind": "erlang", "rate": 24.0, "shape": 2, "unit": "h"},
    },
    "migration": {
        "exp": {"kind": "exp", "rate": 120.5, "unit": "h"},
        "erlang": {"kind": "erlang", "rate": 720.0, "shape": 6, "unit": "h"},
    },
}

# Scenario presets: which family each variable group follows.  Groups not
# listed stay exponential.
PRESETS = {
    "Exponential": {},
    "A_ERL": {"aging": "erlang"},
    "A_HYPO": {"aging": "hypoexp"},
    "F_ERL": {"failure": "erlang"},
    "F_HYPO": {"failure": "hypoexp"},
    "R_ERL": {"reboot": "erlang"},
    "Fixing_ERL": {"fixing": "erlang"},
    "M_ERL": {"migration": "erlang"},
    "A_HYPO-F_HYPO-ERL": {
        "aging": "hypoexp",
        "failure": "hypoexp",
        "fixing": "erlang",
        "reboot": "erlang",
        "migration": "erlang",
    },
}

# Branch probabilities (backup healthy / aging / failed at detection)
# fitted once by coarse grid search minimising the residual against the
# published six-point availability/MTTF trigger sweep; see the bundled
# table7_defaults.json notes for the procedure and residuals.
FITTED_BRANCH = {"c1": 0.6, "c2": 0.2, "c3": 0.2}

_BRANCH = ("c1", "c2", "c3")
DIST_NAMES = tuple(f.name for f in fields(ModelParams) if f.name not in TRIGGERS + _BRANCH)
# the triggers each key of a triggers block sets; a later key wins
_TRIGGER_KEYS = {"tied_all": TRIGGERS} | {f"tied_{s}": keys for s, keys in TRIGGER_SIDES.items()}
_TRIGGER_KEYS |= {k: (k,) for k in TRIGGERS}
_WORKLOAD_SCALAR = ("x", "x1", "r1", "r2", "b1", "b2", "t1")
_SCALAR_PATHS = {"triggers": _TRIGGER_KEYS, "branch": _BRANCH, "workload": _WORKLOAD_SCALAR}
_WORKLOAD_LAWS = ("restart_overhead_primary", "restart_overhead_backup")
_TOP_KEYS = ("schema", "notes", "preset", "distributions", "triggers", "branch", "workload")


def default_config() -> dict:
    """Built-in defaults: exponential families, fitted branch, trigger 30 h."""
    return {
        "schema": 1,
        "preset": "Exponential",
        "triggers": {"tied_all": 30.0},
        "branch": dict(FITTED_BRANCH),
    }


@dataclass(frozen=True)
class RunConfig:
    """A checked configuration: the model parameters and the optional workload."""

    params: ModelParams
    workload: WorkloadSpec | None

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """New config with dotted paths (listed in the README) set on the parsed
        objects; a bad path or value raises :class:`ConfigError`."""
        laws, given = {}, {block: {} for block in _SCALAR_PATHS}
        for path, value in overrides.items():
            block, _, key = path.partition(".")
            name, _, field = key.partition(".")
            if block == "distributions" and name in DIST_NAMES and field:
                law = laws.get(name, getattr(self.params, name))
                laws[name] = _build(path, replace, law, **{field: _number(value, path)})
            elif block == "distributions" and name in DIST_NAMES:
                laws[name] = value
            elif key in _SCALAR_PATHS.get(block, ()):
                given[block][key] = _number(value, path)
            else:
                _fail(path, "not a settable path")
        offsets = _tie_offsets(given["triggers"])
        params = _build("", replace, self.params, **laws, **offsets, **given["branch"])
        if self.workload is None:  # a workload.x override builds a workload
            return RunConfig(params, _resolve_workload(given["workload"] or None))
        return RunConfig(params, _build("", replace, self.workload, **given["workload"]))


def _fail(path, message):
    raise ConfigError(f"{path}: {message}" if path else message)


def _number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _block(doc, path, allowed):
    """``doc``, checked to be an object with no keys outside ``allowed``."""
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        _fail(path, f"unknown fields {unknown} (allowed: {sorted(allowed)})")
    return doc


def _build(path, build, /, *args, **kwargs):
    """``build(*args, **kwargs)``, its error raised as a :class:`ConfigError`
    that names ``path`` (replace() raises TypeError on an unknown field)."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _tie_offsets(triggers: dict) -> dict:
    """The offset of each trigger that the keys of a triggers block set."""
    return {t: triggers[k] for k, moved in _TRIGGER_KEYS.items() if k in triggers for t in moved}


def resolve_params(doc: dict) -> ModelParams:
    """ModelParams from a config document, checking each block it reads."""
    doc = {**default_config(), **doc}
    preset = doc["preset"]
    if not isinstance(preset, str) or preset not in PRESETS:
        _fail("preset", f"unknown preset {preset!r} (known: {sorted(PRESETS)})")
    assignment = PRESETS[preset]
    laws = {}
    for name in DIST_NAMES:
        # the group is the name's prefix; fail_* laws are failure laws
        group = "failure" if name.startswith("fail_") else name.split("_")[0]
        laws[name] = dist.from_json(FAMILY_DEFAULTS[group][assignment.get(group, "exp")])
    overrides = _block(doc.get("distributions", {}), "distributions", DIST_NAMES)
    for name, fragment in overrides.items():
        laws[name] = _build(f"distributions.{name}", dist.from_json, fragment)

    given = _block(doc["triggers"], "triggers", _TRIGGER_KEYS)
    offsets = _tie_offsets({k: _number(v, f"triggers.{k}") for k, v in given.items()})
    missing = [k for k in TRIGGERS if k not in offsets]
    if missing:
        _fail("triggers", f"no value for {missing}; give per-trigger values or a tied_* key")

    branch = _block(doc["branch"], "branch", _BRANCH)
    for k in _BRANCH:
        if k not in branch:
            _fail(f"branch.{k}", "missing")
    probabilities = {k: _number(branch[k], f"branch.{k}") for k in _BRANCH}
    return _build("", ModelParams, **laws, **offsets, **probabilities)


def _resolve_workload(block) -> WorkloadSpec | None:
    if block is None:
        return None
    _block(block, "workload", _WORKLOAD_SCALAR + _WORKLOAD_LAWS + ("backup_restart_via_primary",))
    if "x" not in block:
        _fail("workload.x", "the work requirement x is required")
    kwargs = {k: _number(block[k], f"workload.{k}") for k in _WORKLOAD_SCALAR if k in block}
    kwargs.update(
        (k, _build(f"workload.{k}", dist.from_json, block[k])) for k in _WORKLOAD_LAWS if k in block
    )
    if "backup_restart_via_primary" in block:
        flag = block["backup_restart_via_primary"]
        if not isinstance(flag, bool):
            _fail("workload.backup_restart_via_primary", f"expected a boolean, got {flag!r}")
        kwargs["backup_restart_via_primary"] = flag
    return _build("", WorkloadSpec, **kwargs)


def parse_config(doc: dict) -> RunConfig:
    """Check a config document in one pass and build its model and workload."""
    _block(doc, "top level", _TOP_KEYS)
    if doc.get("schema") != 1:
        _fail("schema", f"expected schema 1, got {doc.get('schema')!r}")
    if "notes" in doc and not isinstance(doc["notes"], str):
        _fail("notes", "expected a string")
    return RunConfig(resolve_params(doc), _resolve_workload(doc.get("workload")))


def load_config(path) -> RunConfig:
    """Parse and check a JSON config file (or a bundled config name)."""
    import os

    if not os.path.exists(path) and os.path.sep not in str(path):
        name = str(path)
        if name.endswith(".json"):
            name = name[:-5]
        try:
            return parse_config(json.loads(bundled_config(name)))
        except KeyError:
            raise ConfigError(f"no such file or bundled config: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: line {exc.lineno}, {exc.msg}")
    return parse_config(doc)


def bundled_config(name: str) -> str:
    """Text of a bundled config by bare name (no extension)."""
    ref = resources.files("rejuvkit").joinpath("configs", f"{name}.json")
    if not ref.is_file():
        raise KeyError(name)
    return ref.read_text()


def bundled_config_names() -> list[str]:
    ref = resources.files("rejuvkit").joinpath("configs")
    return sorted(p.name[:-5] for p in ref.iterdir() if p.name.endswith(".json"))
