import math

import numpy as np
import pytest

from pilotadapt.core import (
    FadingSpec,
    Numerology,
    SystemConfig,
    UserPopulation,
    build_population,
    lte_numerology,
)
from pilotadapt.errors import ConfigurationError
from pilotadapt.patterns import builtin_profiles

PROFILES = builtin_profiles()


def test_lte_numerology_re_count():
    num = lte_numerology()
    assert num.res_per_rb == 14 * 12 == 168


def test_numerology_rejects_bad_dimensions():
    with pytest.raises(ConfigurationError):
        Numerology(1e-3 / 14, 15e3, 0, 12)
    with pytest.raises(ConfigurationError):
        Numerology(-1.0, 15e3, 14, 12)


def test_equal_group_population():
    # 16 users, 4 per group, all at the same gain: snr = eta*P/sigma2 = 10 dB
    # with P = 1, sigma2 = 0.1
    pop = build_population([4, 4, 4, 4], PROFILES, FadingSpec(kind="constant", value=1.0), seed=3)
    assert pop.num_users == 16
    assert [len(g) for g in pop.groups] == [4, 4, 4, 4]
    assert pop.gains == (1.0,) * 16


def test_single_user_population():
    pop = build_population([1], PROFILES[:1], FadingSpec(), seed=0)
    assert pop.num_users == len(pop.groups) == 1
    assert pop.groups == ((0,),)


def test_partition_property():
    pop = build_population([3, 5, 2], PROFILES[:3], FadingSpec(kind="lognormal", spread_db=4.0), seed=2)
    assert pop.groups == ((0, 1, 2), (3, 4, 5, 6, 7), (8, 9))
    assert pop.num_users == len(pop.gains) == 10
    assert len(set(pop.gains)) == 10


@pytest.mark.parametrize(
    "groups, gains",
    [
        (((7, 3, 5),), (1.0, 1.0, 1.0)),  # users must be 0..K-1
        (((0, 1), (1,)), (1.0, 1.0)),  # user 1 in two groups
        (((0,),), (1.0, 1.0)),  # user 1 in none
        (((0,), (1,)), (1.0, math.nan)),
        (((0, 1),), (1.0, math.inf)),
        (((0, 1),), (0.0, 1.0)),
        ((), ()),  # K = 0
    ],
)
def test_population_refuses_bad_groups_and_gains(groups, gains):
    with pytest.raises(ConfigurationError):
        UserPopulation(groups=groups, gains=gains, profiles=tuple(PROFILES[: len(groups)]))


@pytest.mark.parametrize("count", [2, 5])
def test_population_refuses_a_profile_count_other_than_its_group_count(count):
    """Group g's profile is profiles[g]: 4 groups take exactly 4 profiles,
    whether the population is built or constructed directly."""
    profiles = (PROFILES * 2)[:count]
    with pytest.raises(ConfigurationError, match=f"4 groups but {count} profiles"):
        build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=0)
    with pytest.raises(ConfigurationError, match=f"4 groups but {count} profiles"):
        UserPopulation(groups=((0,), (1,), (2,), (3,)), gains=(1.0,) * 4, profiles=tuple(profiles))


@pytest.mark.parametrize("key", ["ul_power", "dl_power", "noise_power"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_system_config_names_a_power_that_is_not_finite_and_positive(key, value):
    """Every power is checked on its own, so a nan that is not the first
    power is refused too, and the message names the key and the value."""
    powers = {"ul_power": 1.0, "dl_power": 1.0, "noise_power": 0.1, key: value}
    with pytest.raises(ConfigurationError, match=f"^{key} must be finite and positive, got {value!r}$"):
        SystemConfig(num_rbs=1, num_antennas=1, max_mux=1, **powers)


def test_population_reproducible():
    spec = FadingSpec(kind="lognormal", spread_db=6.0)
    a = build_population([4, 4], PROFILES[:2], spec, seed=11)
    b = build_population([4, 4], PROFILES[:2], spec, seed=11)
    assert a.gains == b.gains


def test_empty_population_rejected():
    with pytest.raises(ConfigurationError):
        build_population([], [], FadingSpec(), seed=0)
    with pytest.raises(ConfigurationError):
        build_population([0, 0], PROFILES[:2], FadingSpec(), seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"value": math.nan}, "fading value must be finite and positive"),
        ({"value": math.inf}, "fading value must be finite and positive"),
        ({"kind": "explicit", "values": (1.0, math.nan)}, "fading values must be finite"),
    ],
)
def test_fading_spec_names_the_bad_field(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        FadingSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"spread_db": 6.0}, "constant fading does not read spread_db, got 6.0"),
        ({"values": (0.5, 2.0)}, r"constant fading does not read values, got \(0.5, 2.0\)"),
        ({"kind": "lognormal", "spread_db": 3.0, "values": (2.0,)},
         r"lognormal fading does not read values, got \(2.0,\)"),
        ({"kind": "explicit", "values": (0.5, 2.0), "value": 7.0},
         "explicit fading does not read value, got 7.0"),
        ({"kind": "explicit", "values": (0.5, 2.0), "spread_db": 9.0},
         "explicit fading does not read spread_db, got 9.0"),
        ({"kind": "explicit", "values": (0.5, 2.0), "spread_db": 9.0, "value": 7.0},
         "explicit fading does not read value, got 7.0"),
    ],
    ids=["constant-spread_db", "constant-values", "lognormal-values", "explicit-value",
         "explicit-spread_db", "explicit-value-and-spread_db"],
)
def test_fading_spec_refuses_a_field_its_kind_does_not_read(kwargs, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        FadingSpec(**kwargs)


def test_fading_spec_means():
    assert FadingSpec(kind="constant", value=2.0).mean() == 2.0
    assert FadingSpec(kind="explicit", values=(0.5, 2.0)).mean() == 1.25
    # lognormal mean has the exp(s^2/2) correction
    spec = FadingSpec(kind="lognormal", value=1.0, spread_db=8.0)
    s = 8.0 * np.log(10.0) / 10.0
    assert spec.mean() == pytest.approx(np.exp(0.5 * s * s))
    # quadrature reproduces the analytic mean
    assert spec.expect(lambda e: e) == pytest.approx(spec.mean(), rel=1e-9)


def test_explicit_fading_assigns_values_in_order():
    spec = FadingSpec(kind="explicit", values=(0.5, 1.0, 2.0))
    pop = build_population([3], PROFILES[:1], spec, seed=0)
    assert pop.gains == (0.5, 1.0, 2.0)
