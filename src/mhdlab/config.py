"""Line-oriented scenario configuration.

Format: UTF-8 lines of ``section.key = value`` (the bare key ``geometry`` has
no section), ``#`` comments, strings double-quoted, numbers and true/false
bare. Unknown keys are rejected with their line number. Every value is read
through one typed reader (numbers finite, integers whole, no true/false for a
number) and the five solver settings are checked by `SolverSettings`; a bad
value is a ConfigError. Semantic checks that need the sampled fields are
deferred to scenario initialization.
"""

from __future__ import annotations

from importlib import resources

from .core import (MIN_CELLS, Geometry, PhysParams, Profile, ScenarioConfig,
                   Scheme, SolverSettings, finite_float, to_member)
from .diagnostics import check_alpha
from .errors import ConfigError

_PROFILE_KEYS = {"init.rho": "rho", "init.u": "u", "init.v": "v", "init.w": "w",
                 "init.p": "p", "init.b": "b"}

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
                  "output.stride": "output_stride", "output.dir": "output_dir"}

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
    geometry = to_member(Geometry, _read(pairs, "geometry"), "geometry")

    mms = _read(pairs, "mms.enabled", False)
    if mms and geometry is not Geometry.DISK2D:
        raise ConfigError("manufactured-solution runs are defined for disk2d only")
    profiles = {}
    for key, name in _PROFILE_KEYS.items():
        if key not in pairs:
            continue
        if name in ("v", "w") and not geometry.has_swirl:
            raise ConfigError(f"profile {key!r} is not a field of {geometry.value}")
        if mms:
            raise ConfigError("manufactured-solution runs define their own fields; "
                              f"drop {key!r}")
        profiles[name] = Profile.parse(_read(pairs, key))

    phys = PhysParams(mu=_read(pairs, "physics.mu"), lam=_read(pairs, "physics.lam"),
                      gamma=_read(pairs, "physics.gamma"), geometry=geometry)
    cfg = ScenarioConfig(
        n=_read(pairs, "grid.n"),
        r_outer=_read(pairs, "grid.r_outer"),
        phys=phys,
        profiles=profiles,
        t_end=_read(pairs, "time.t_end"),
        solver=SolverSettings(**_present(pairs, _SOLVER_KEYS)),
        mms=mms,
        **_present(pairs, _OPTIONAL_KEYS),
    )
    if mms and cfg.r0 is not None:
        raise ConfigError("manufactured-solution runs have no vacuum region")
    if cfg.r0 is not None and cfg.solver.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS:
        raise ConfigError(
            'time.scheme "ssprk3" cannot run a vacuum region (vacuum.r0 is '
            "set): its explicit viscous step dr^2 rho* / (2(2mu+lam)) is "
            "bound by the thin fluid at the vacuum edge, so the run would "
            'take millions of steps; use time.scheme = "rk2-imp"')
    if cfg.n < MIN_CELLS:
        raise ConfigError(f"grid.n must be at least {MIN_CELLS}, got {cfg.n}")
    if cfg.t_end <= 0.0:
        raise ConfigError(f"time.t_end must be positive, got {cfg.t_end}")
    if cfg.output_stride < 1:
        raise ConfigError("output.stride must be at least 1")
    if cfg.alpha is not None:
        check_alpha(cfg.alpha, geometry)
    return cfg


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
