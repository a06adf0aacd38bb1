"""Scenario-file parsing: syntax, key validation, semantics, presets."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdlab import (ConfigError, Geometry, PhysParams, Profile, ScenarioConfig,
                    Scheme, SolverSettings)
from mhdlab.config import (_KNOWN_KEYS, PRESET_NAMES, apply_overrides,
                           build_config, load_preset, load_preset_text,
                           parse_config, parse_pairs)

MINIMAL = """
geometry = "disk2d"
grid.n = 64
grid.r_outer = 1.0
physics.mu = 1.0
physics.lam = 0.0
physics.gamma = 1.4
time.t_end = 0.5
"""


class TestParsing:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.geometry is Geometry.DISK2D
        assert cfg.n == 64 and cfg.t_end == 0.5
        assert cfg.solver == SolverSettings()   # defaults applied

    def test_comments_and_blank_lines(self):
        text = MINIMAL + "\n# full-line comment\noutput.stride = 5  # trailing\n"
        cfg = parse_config(text)
        assert cfg.output_stride == 5

    def test_quoted_strings_keep_hashes(self):
        text = MINIMAL + 'output.dir = "out#1"\n'
        assert parse_config(text).output_dir == "out#1"

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "grid.shape = 3\n"
        with pytest.raises(ConfigError, match=r"line 9"):
            parse_config(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_pairs("geometry = \"disk2d\"\nnonsense line\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs("grid.n = 8\ngrid.n = 16\n")

    def test_swirl_profile_rejected_on_disk(self):
        text = MINIMAL + 'init.v = "constant 1.0"\n'
        with pytest.raises(ConfigError, match="not a field"):
            parse_config(text)

    def test_gamma_below_one_rejected(self):
        bad = MINIMAL.replace("physics.gamma = 1.4", "physics.gamma = 0.9")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_geometry(self):
        bad = MINIMAL.replace('"disk2d"', '"sphere3d"')
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(bad)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config('geometry = "disk2d"\n')

    def test_bad_scheme_and_strategy(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(MINIMAL + 'time.scheme = "leapfrog"\n')
        lineno = MINIMAL.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"^line {lineno}: unknown key "
                                              r"'solver\.vacuum_strategy'$"):
            parse_config(MINIMAL + 'solver.vacuum_strategy = "elliptic-balance"\n')

    def test_mms_conflicts_with_profiles(self):
        text = MINIMAL + 'mms.enabled = true\ninit.rho = "constant 1.0"\n'
        with pytest.raises(ConfigError, match="manufactured"):
            parse_config(text)

    def test_mms_requires_disk_geometry(self):
        text = MINIMAL.replace('"disk2d"', '"cylinder3d"') + "mms.enabled = true\n"
        with pytest.raises(ConfigError, match="disk2d"):
            parse_config(text)


class TestOverrides:
    def test_override_applies(self):
        pairs = parse_pairs(MINIMAL)
        pairs = apply_overrides(pairs, ["grid.n=128", "time.t_end=0.25",
                                        'time.scheme="ssprk3"'])
        cfg = build_config(pairs)
        assert cfg.n == 128 and cfg.t_end == 0.25
        assert cfg.solver.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["grid.shape=1"])

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["grid.n"])

    @pytest.mark.parametrize("item, reason", [
        ("grid.n=", "missing value"),
        ("time.scheme=ssprk3", "cannot parse value 'ssprk3'"),
        ('output.dir="out', "unterminated string"),
    ])
    def test_bad_value_names_the_override(self, item, reason):
        with pytest.raises(ConfigError) as exc:
            apply_overrides({}, [item])
        assert str(exc.value).startswith(f"override {item!r}: {reason}")

    @pytest.mark.parametrize("item, hint", [
        ("time.scheme=ssprk3", 'strings are double-quoted: "ssprk3"'),
        ("output.dir=runs/a", 'strings are double-quoted: "runs/a"'),
        ("grid.n=abc", None),
        ("physics.mu=fast", None),
    ])
    def test_unquoted_string_hint(self, item, hint):
        # the hint is given only where the key takes a string
        with pytest.raises(ConfigError) as exc:
            apply_overrides({}, [item])
        message = str(exc.value)
        assert message.startswith(f"override {item!r}: cannot parse value")
        if hint is None:
            assert "quoted" not in message
        else:
            assert message.endswith(hint)

    def test_unquoted_string_hint_in_a_file(self):
        with pytest.raises(ConfigError,
                           match=r'^line 2: cannot parse .*double-quoted: "disk2d"$'):
            parse_pairs("\ngeometry = disk2d\n")


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_parse(self, name):
        cfg = load_preset(name)
        assert cfg.n >= 8

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("warp-drive")

    def test_blowup_presets_have_vacuum(self):
        for name in ("disk-blowup", "cylinder-blowup", "free-blowup"):
            cfg = load_preset(name)
            assert cfg.r0 is not None and 0 < cfg.r0 < cfg.r_outer

    def test_mms_preset_flag(self):
        assert load_preset("mms").mms is True

    @pytest.mark.parametrize("name", ["disk-blowup", "cylinder-blowup",
                                      "free-blowup"])
    def test_explicit_scheme_refuses_a_vacuum_region(self, name):
        pairs = apply_overrides(parse_pairs(load_preset_text(name)),
                                ['time.scheme="ssprk3"'])
        with pytest.raises(ConfigError, match="vacuum region") as exc:
            build_config(pairs)
        assert '"rk2-imp"' in str(exc.value)
        # without the vacuum region the same scheme is accepted
        del pairs["vacuum.r0"]
        assert build_config(pairs).solver.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS


# override values as they are typed on the command line: integers (0,
# negatives, beyond the float range), floats (nan, +-inf), booleans, bare
# words and quoted strings
_OVERRIDE_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", str(10 ** 400), str(-10 ** 400)]),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "false"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]*", fullmatch=True),
    st.text(max_size=30).map(lambda text: '"' + text + '"'),
)


class TestAnyOverride:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(values=st.fixed_dictionaries(
        {key: _OVERRIDE_VALUES for key in sorted(_KNOWN_KEYS)}))
    def test_builds_or_raises_config_error(self, preset, values):
        pairs = parse_pairs(load_preset_text(preset))
        for key, raw in values.items():
            try:
                cfg = build_config(apply_overrides(pairs, [f"{key}={raw}"]))
            except ConfigError:
                continue
            assert isinstance(cfg, ScenarioConfig)
            assert isinstance(cfg.solver, SolverSettings)
            for value in (cfg.r_outer, cfg.t_end, cfg.solver.cfl,
                          cfg.solver.eps_vac, cfg.solver.dt_min):
                assert math.isfinite(value)


class TestSolverSettings:
    @pytest.mark.parametrize("bad", [
        dict(cfl=1.5), dict(cfl=0.0), dict(cfl=math.nan), dict(cfl="x"),
        dict(cfl=True), dict(eps_vac=-1.0), dict(eps_vac=math.inf),
        dict(dt_min=0.0), dict(dt_min=math.nan), dict(blowup_gradu_max=0.0),
        dict(scheme="leapfrog"),
    ])
    def test_bad_setting_is_config_error(self, bad):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg.solver, **bad)

    def test_strings_become_members(self):
        s = SolverSettings(scheme="ssprk3", blowup_gradu_max=100)
        assert s.scheme is Scheme.SSPRK3_EXPLICIT_VISCOUS
        assert s.blowup_gradu_max == 100.0
        assert isinstance(s.blowup_gradu_max, float)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverSettings().cfl = 2.0

    def test_keys_reach_the_settings(self):
        cfg = parse_config(MINIMAL + 'time.cfl = 0.3\ntime.scheme = "ssprk3"\n'
                           "solver.eps_vac = 1e-4\nsolver.blowup_gradu_max = 50\n"
                           "solver.dt_min = 1e-9\n")
        assert cfg.solver == SolverSettings(
            cfl=0.3, scheme=Scheme.SSPRK3_EXPLICIT_VISCOUS, eps_vac=1e-4,
            blowup_gradu_max=50.0, dt_min=1e-9)


def _fields(**kw):
    return lambda cfg: dataclasses.replace(cfg, **kw)


def _solver(**kw):
    return lambda cfg: dataclasses.replace(
        cfg, solver=dataclasses.replace(cfg.solver, **kw))


def _phys(**kw):
    return lambda cfg: dataclasses.replace(
        cfg, phys=dataclasses.replace(cfg.phys, **kw))


def _profile(name):
    return lambda cfg: dataclasses.replace(
        cfg, profiles={**cfg.profiles, name: Profile.parse("constant 1.0")})


# (preset, the override in a file, the same value set in Python)
_REFUSALS = [
    ("smooth-novac", "output.stride=0", _fields(output_stride=0)),
    ("smooth-novac", "time.t_end=0", _fields(t_end=0)),
    ("smooth-novac", "time.t_end=-1", _fields(t_end=-1.0)),
    ("smooth-novac", "time.t_end=nan", _fields(t_end=math.nan)),
    ("smooth-novac", "time.t_end=inf", _fields(t_end=math.inf)),
    ("smooth-novac", "grid.n=1", _fields(n=1)),
    ("smooth-novac", "grid.n=32.5", _fields(n=32.5)),
    ("smooth-novac", "grid.n=true", _fields(n=True)),
    ("smooth-novac", "output.stride=2.5", _fields(output_stride=2.5)),
    ("smooth-novac", "output.stride=true", _fields(output_stride=True)),
    ("disk-blowup", "diag.alpha=2.5", _fields(alpha=2.5)),
    ("cylinder-blowup", "diag.alpha=1.1", _fields(alpha=1.1)),
    ("disk-blowup", "mms.enabled=true", _fields(mms=True)),
    ("disk-blowup", 'time.scheme="ssprk3"', _solver(scheme="ssprk3")),
    ("smooth-novac", 'init.v="constant 1.0"', _profile("v")),
    ("smooth-novac", "physics.mu=inf", _phys(mu=math.inf)),
    ("smooth-novac", "physics.lam=nan", _phys(lam=math.nan)),
    ("smooth-novac", "physics.gamma=inf", _phys(gamma=math.inf)),
    ("smooth-novac", "physics.mu=true", _phys(mu=True)),
]


class TestOnePath:
    """A scenario built in Python is checked as a scenario file is: the same
    value is refused when the config is constructed, with the same message.
    Only constructed, never run (some would hang or crash a run)."""

    @pytest.mark.parametrize("preset, override, build", _REFUSALS,
                             ids=[f"{p}-{o}" for p, o, _ in _REFUSALS])
    def test_same_refusal_as_the_file(self, preset, override, build):
        pairs = apply_overrides(parse_pairs(load_preset_text(preset)), [override])
        with pytest.raises(ConfigError) as from_file:
            build_config(pairs)
        with pytest.raises(ConfigError) as from_python:
            build(load_preset(preset))
        assert str(from_python.value) == str(from_file.value)

    def test_profile_of_no_field(self):
        # profiles are keyed by lower-case field name; "P" is none
        with pytest.raises(ConfigError,
                           match=r"^profile 'init\.P' is not a field of disk2d$"):
            _profile("P")(load_preset("smooth-novac"))

    def test_swirl_profile_on_a_cylinder(self):
        cfg = _profile("v")(load_preset("cylinder-blowup"))
        assert cfg.profiles["v"].kind == "constant"

    def test_frozen(self):
        cfg = load_preset("smooth-novac")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.output_stride = 0

    def test_profiles_read_only(self):
        cfg = load_preset("smooth-novac")
        with pytest.raises(TypeError):
            cfg.profiles["P"] = Profile.parse("constant 1.0")
        assert "P" not in cfg.profiles
        # the caller's dict is copied, not wrapped: writing to it later
        # changes nothing
        mine = dict(cfg.profiles)
        built = dataclasses.replace(cfg, profiles=mine)
        mine["P"] = Profile.parse("constant 1.0")
        assert "P" not in built.profiles

    def test_profiles_replace_and_equality(self):
        cfg = load_preset("smooth-novac")
        rho = Profile.parse("constant 2.0")
        again = dataclasses.replace(cfg, profiles={**cfg.profiles, "rho": rho})
        assert again.profiles["rho"] is rho
        assert dataclasses.replace(cfg) == cfg
        assert ScenarioConfig(n=cfg.n, r_outer=cfg.r_outer, phys=cfg.phys,
                              profiles=dict(cfg.profiles), t_end=cfg.t_end,
                              solver=cfg.solver, alpha=cfg.alpha,
                              output_stride=cfg.output_stride) == cfg

    def test_integer_fields_from_numpy(self):
        # convergence_study passes int(n); any integer type is taken as int
        cfg = dataclasses.replace(load_preset("mms"), n=np.int64(32),
                                  output_stride=np.int32(3))
        assert (cfg.n, cfg.output_stride) == (32, 3)
        assert type(cfg.n) is int and type(cfg.output_stride) is int


class TestGeometry:
    def test_geometry_is_the_physics_geometry(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.geometry is cfg.phys.geometry

    def test_no_second_geometry(self):
        phys = PhysParams(mu=1.0, lam=0.0, gamma=1.4, geometry=Geometry.DISK2D)
        with pytest.raises(TypeError):
            ScenarioConfig(geometry=Geometry.CYLINDER3D, n=8, r_outer=1.0,
                           phys=phys)


class TestTypedValues:
    @pytest.mark.parametrize("line, match", [
        ("time.t_end = nan", "finite"),
        ("grid.r_outer = inf", "finite"),
        ("physics.mu = true", "number"),
        ('physics.lam = "0"', "number"),
        ("grid.n = 64.0", "integer"),
        ("output.stride = 2.5", "integer"),
        ("output.stride = 0", "at least 1"),
        ("output.dir = 3", "string"),
        ("mms.enabled = 1", "true or false"),
        ("geometry = 2", "string"),
        ("diag.alpha = 1.0", r"admissible range \(1, 2\)"),
        ("diag.alpha = 5", r"admissible range \(1, 2\)"),
    ])
    def test_rejected(self, line, match):
        key = line.split("=")[0].strip()
        text = "\n".join(ln for ln in MINIMAL.splitlines()
                         if not ln.startswith(key + " ")) + "\n" + line + "\n"
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_ints_read_as_floats(self):
        cfg = parse_config(MINIMAL.replace("physics.mu = 1.0", "physics.mu = 2"))
        assert cfg.phys.mu == 2.0 and isinstance(cfg.phys.mu, float)


class TestAlphaRange:
    """diag.alpha is checked when the config is built, as BoundInputs checks it."""

    @pytest.mark.parametrize("preset, alpha, ok", [
        ("disk-blowup", 1.1, True), ("smooth-novac", 1.999, True),
        ("free-blowup", 2.0, False), ("cylinder-blowup", 1.1, False),
        ("cylinder-blowup", 7.0 / 6.0, True), ("cylinder-blowup", 1.5, True),
    ])
    def test_range(self, preset, alpha, ok):
        pairs = apply_overrides(parse_pairs(load_preset_text(preset)),
                                [f"diag.alpha={alpha!r}"])
        if ok:
            assert build_config(pairs).alpha == alpha
        else:
            with pytest.raises(ConfigError, match="admissible range"):
                build_config(pairs)


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Scenario files", 1)[1]
    block = section.split("```", 2)[1]
    keys = set(re.findall(r"^([a-z0-9_.]+) = ", block, flags=re.M))
    assert keys == _KNOWN_KEYS
