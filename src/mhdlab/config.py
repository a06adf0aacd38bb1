"""Line-oriented scenario configuration.

Format: UTF-8 lines of ``section.key = value`` (the bare key ``geometry`` has
no section), ``#`` comments, strings double-quoted, numbers and true/false
bare. Unknown keys are rejected with their line number; semantic checks that
need the sampled fields are deferred to scenario initialization.
"""

from __future__ import annotations

from importlib import resources

from .core import MIN_CELLS, Geometry, PhysParams, Profile, ScenarioConfig
from .errors import ConfigError

_PROFILE_KEYS = {"init.rho": "rho", "init.u": "u", "init.v": "v", "init.w": "w",
                 "init.p": "p", "init.b": "b"}

_KNOWN_KEYS = set(_PROFILE_KEYS) | {
    "geometry",
    "grid.n", "grid.r_outer",
    "physics.mu", "physics.lam", "physics.gamma",
    "vacuum.r0",
    "time.t_end", "time.cfl", "time.scheme",
    "solver.vacuum_strategy", "solver.eps_vac", "solver.blowup_gradu_max",
    "solver.dt_min",
    "diag.alpha",
    "output.stride", "output.dir",
    "mms.enabled",
}

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


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"line {lineno}: missing value")
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ConfigError(f"line {lineno}: unterminated string {raw!r}")
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
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r}") from None


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
        pairs[key] = _parse_value(raw, lineno)
    return pairs


def _need(pairs: dict, key: str):
    if key not in pairs:
        raise ConfigError(f"missing required key {key!r}")
    return pairs[key]


def _expect(value, types, key: str):
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"key {key!r} has the wrong type")
    if not isinstance(value, types):
        raise ConfigError(f"key {key!r} has the wrong type")
    return value


def build_config(pairs: dict) -> ScenarioConfig:
    geometry_tag = _expect(_need(pairs, "geometry"), str, "geometry")
    try:
        geometry = Geometry(geometry_tag)
    except ValueError:
        raise ConfigError(f"unknown geometry {geometry_tag!r}") from None

    mms = bool(pairs.get("mms.enabled", False))
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
        profiles[name] = Profile.parse(_expect(pairs[key], str, key))

    phys = PhysParams(
        mu=float(_expect(_need(pairs, "physics.mu"), (int, float), "physics.mu")),
        lam=float(_expect(_need(pairs, "physics.lam"), (int, float), "physics.lam")),
        gamma=float(_expect(_need(pairs, "physics.gamma"), (int, float),
                            "physics.gamma")),
        geometry=geometry,
    )

    r0 = pairs.get("vacuum.r0")
    if r0 is not None:
        r0 = float(_expect(r0, (int, float), "vacuum.r0"))
        if mms:
            raise ConfigError("manufactured-solution runs have no vacuum region")

    scheme = pairs.get("time.scheme", "rk2-imp")
    if scheme not in ("rk2-imp", "ssprk3"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    strategy = pairs.get("solver.vacuum_strategy", "elliptic-balance")
    if strategy not in ("elliptic-balance", "density-floor"):
        raise ConfigError(f"unknown vacuum strategy {strategy!r}")

    alpha = pairs.get("diag.alpha")
    cfg = ScenarioConfig(
        geometry=geometry,
        n=int(_expect(_need(pairs, "grid.n"), int, "grid.n")),
        r_outer=float(_expect(_need(pairs, "grid.r_outer"), (int, float),
                              "grid.r_outer")),
        phys=phys,
        profiles=profiles,
        r0=r0,
        t_end=float(_expect(_need(pairs, "time.t_end"), (int, float), "time.t_end")),
        cfl=float(pairs.get("time.cfl", 0.4)),
        scheme=scheme,
        vacuum_strategy=strategy,
        eps_vac=float(pairs.get("solver.eps_vac", 1e-6)),
        blowup_gradu_max=float(pairs.get("solver.blowup_gradu_max", 1e4)),
        dt_min=float(pairs.get("solver.dt_min", 1e-12)),
        alpha=None if alpha is None else float(alpha),
        output_stride=int(pairs.get("output.stride", 10)),
        output_dir=pairs.get("output.dir"),
        mms=mms,
    )
    if cfg.n < MIN_CELLS:
        raise ConfigError(f"grid.n must be at least {MIN_CELLS}, got {cfg.n}")
    if cfg.t_end <= 0.0:
        raise ConfigError(f"time.t_end must be positive, got {cfg.t_end}")
    if not (0.0 < cfg.cfl < 1.0):
        raise ConfigError(f"time.cfl must lie in (0,1), got {cfg.cfl}")
    if cfg.output_stride < 1:
        raise ConfigError("output.stride must be at least 1")
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
        out[key] = _parse_value(raw, 0)
    return out


def load_preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    ref = resources.files("mhdlab").joinpath(f"presets/{name}.cfg")
    return ref.read_text(encoding="utf-8")


def load_preset(name: str) -> ScenarioConfig:
    return parse_config(load_preset_text(name))
