"""Line-oriented scenario configuration.

Format: UTF-8 lines of ``section.key = value`` (the bare key ``geometry`` has
no section), ``#`` comments, strings double-quoted, numbers and true/false
bare. Unknown keys are rejected with their line number. Every value is read
through one typed reader (numbers finite, integers whole, no true/false for a
number); the reader only reads and constructs. What the values must satisfy
together is checked by the classes the scenario is built from
(`SolverSettings`, `PhysParams`, `ScenarioConfig`), so a scenario built in
Python is checked alike. A bad value is a ConfigError. Checks that need the
sampled fields are made at scenario initialization.
"""

from __future__ import annotations

from importlib import resources

from .core import (Geometry, PhysParams, Profile, ScenarioConfig,
                   SolverSettings, finite_float, to_member)
from .errors import ConfigError

_PROFILE_KEYS = {f"init.{name}": name for name in ("rho", "u", "v", "w", "p", "b")}

# key -> the type of its value (float keys also take ints)
_KINDS = dict.fromkeys(_PROFILE_KEYS, str)
_KINDS.update({
    "geometry": str,
    "grid.n": int, "grid.r_outer": float,
    "physics.mu": float, "physics.lam": float, "physics.gamma": float,
    "vacuum.r0": float,
    "time.t_end": float, "time.cfl": float, "time.scheme": str,
    "solver.eps_vac": float,
    "solver.blowup_gradu_max": float, "solver.dt_min": float,
    "diag.alpha": float,
    "output.stride": int, "output.dir": str,
    "mms.enabled": bool,
})
_KNOWN_KEYS = frozenset(_KINDS)

# keys passed on only when present, so the defaults stay on the target class
_SOLVER_KEYS = {"time.cfl": "cfl", "time.scheme": "scheme",
                "solver.eps_vac": "eps_vac",
                "solver.blowup_gradu_max": "blowup_gradu_max",
                "solver.dt_min": "dt_min"}
_OPTIONAL_KEYS = {"vacuum.r0": "r0", "diag.alpha": "alpha",
                  "output.stride": "output_stride", "output.dir": "output_dir",
                  "mms.enabled": "mms"}

_KIND_NAMES = {int: "an integer", str: "a quoted string", bool: "true or false"}

PRESET_NAMES = ("smooth-novac", "disk-blowup", "cylinder-blowup", "free-blowup",
                "mms")


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(raw: str, where: str, kind: type):
    """The typed value of raw for a key whose values are of type kind; a
    ConfigError names where it was read."""
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"{where}: missing value")
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ConfigError(f"{where}: unterminated string {raw!r}")
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        hint = (f"; strings are double-quoted: \"{raw}\"" if kind is str
                else "")
        raise ConfigError(f"{where}: cannot parse value {raw!r}{hint}") from None


def parse_pairs(text: str) -> dict:
    """Raw key-value map with syntax and known-key validation."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = _parse_value(raw, f"line {lineno}", _KINDS[key])
    return pairs


_REQUIRED = object()


def _read(pairs: dict, key: str, default=_REQUIRED):
    """pairs[key] checked against its type in _KINDS (float keys read as
    finite floats), or default when the key is absent."""
    if key not in pairs:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value, kind = pairs[key], _KINDS[key]
    if kind is float:
        return finite_float(value, key)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _present(pairs: dict, fields: dict) -> dict:
    return {name: _read(pairs, key) for key, name in fields.items() if key in pairs}


def build_config(pairs: dict) -> ScenarioConfig:
    """The scenario of a parsed pair map: each value read by its typed reader,
    the config checked by the classes it is built from."""
    geometry = to_member(Geometry, _read(pairs, "geometry"), "geometry")
    return ScenarioConfig(
        n=_read(pairs, "grid.n"),
        r_outer=_read(pairs, "grid.r_outer"),
        phys=PhysParams(mu=_read(pairs, "physics.mu"), lam=_read(pairs, "physics.lam"),
                        gamma=_read(pairs, "physics.gamma"), geometry=geometry),
        profiles={name: Profile.parse(_read(pairs, key))
                  for key, name in _PROFILE_KEYS.items() if key in pairs},
        t_end=_read(pairs, "time.t_end"),
        solver=SolverSettings(**_present(pairs, _SOLVER_KEYS)),
        **_present(pairs, _OPTIONAL_KEYS),
    )


def parse_config(text: str) -> ScenarioConfig:
    return build_config(parse_pairs(text))


def apply_overrides(pairs: dict, overrides) -> dict:
    """Apply CLI key=value overrides on top of a parsed pair map."""
    out = dict(pairs)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"override references unknown key {key!r}")
        out[key] = _parse_value(raw, f"override {item!r}", _KINDS[key])
    return out


def load_preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    ref = resources.files("mhdlab").joinpath(f"presets/{name}.cfg")
    return ref.read_text(encoding="utf-8")


def load_preset(name: str) -> ScenarioConfig:
    return parse_config(load_preset_text(name))
